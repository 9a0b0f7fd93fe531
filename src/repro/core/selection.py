"""Collaborative model selection (``CoModelSel``, Section III-B1).

Three strategies trade off the paper's selection criteria:

``in_order``
    Adequacy-and-diversity: the i-th model collaborates with model
    ``(i + (r % (K-1) + 1)) % K`` in round r, so within every K-1
    rounds each middleware model meets every other exactly once.
``highest``
    Gradient-divergence minimisation: pick the *most* similar model.
    The paper shows this is the worst choice — similar models cluster
    and drift apart as groups (Table III).
``lowest``
    Knowledge maximisation: pick the *least* similar model; the paper's
    recommended default (used with alpha = 0.99 in Table II).

Similarity is cosine similarity over flattened parameters (the paper
leaves other measures as future work; ``euclidean`` is provided for the
extension ablation).

The public dict-taking functions are thin wrappers over the vectorized
:class:`repro.core.pool.PoolBuffer` engine (one Gram matmul instead of
O(K²) pairwise flatten+dot passes).  The original per-pair loops are
the test oracle the property tests check the engine against
(``tests/core/_selection_oracle.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.pool import MEASURES, PoolBuffer

__all__ = [
    "cosine_similarity",
    "euclidean_similarity",
    "select_in_order",
    "select_highest_similarity",
    "select_lowest_similarity",
    "similarity_matrix",
    "CoModelSel",
]


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Standard cosine similarity of two flattened parameter vectors."""
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def euclidean_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Negative Euclidean distance (higher = more similar).

    The measure the paper defers to future work; included for the
    similarity-measure ablation bench.
    """
    return -float(np.linalg.norm(x - y))


def _as_pool(
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
) -> PoolBuffer:
    """Accept either a PoolBuffer or a sequence of state dicts.

    Dict inputs are packed into a float64 buffer so wrapper callers see
    no precision change versus the historical float64 flatten path.
    """
    if isinstance(states, PoolBuffer):
        return states
    return PoolBuffer.from_states(states, dtype=np.float64)


def similarity_matrix(
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    measure: str = "cosine",
    param_keys: set[str] | None = None,
) -> np.ndarray:
    """Pairwise similarity matrix of a middleware model pool.

    ``param_keys`` restricts the comparison to trainable parameters
    (excluding e.g. batch-norm running stats, whose scale would swamp
    the cosine).  Computed by the vectorized pool engine; accepts a
    :class:`PoolBuffer` directly to skip the packing step.
    """
    if measure not in MEASURES:
        raise KeyError(measure)
    return _as_pool(states).similarity_matrix(measure=measure, param_keys=param_keys)


def select_in_order(index: int, round_idx: int, k: int) -> int:
    """The paper's in-order rule: ``(i + (r % (K-1) + 1)) % K``.

    For ``k == 1`` there is no other model; the model is its own
    collaborator (cross-aggregation degenerates to identity).
    """
    if k <= 1:
        return index
    return (index + (round_idx % (k - 1) + 1)) % k


def _select_by_similarity(
    index: int,
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    measure: str,
    param_keys: set[str] | None,
    want_highest: bool,
) -> int:
    if measure not in MEASURES:
        raise KeyError(measure)
    pool = _as_pool(states)
    k = len(pool)
    if k <= 1:
        return index
    sims = pool.similarity_to(index, measure=measure, param_keys=param_keys)
    if want_highest:
        sims[index] = -np.inf
        return int(sims.argmax())
    sims[index] = np.inf
    return int(sims.argmin())


def select_highest_similarity(
    index: int,
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    measure: str = "cosine",
    param_keys: set[str] | None = None,
) -> int:
    """argmax_{j != i} Similarity(v_i, v_j)."""
    return _select_by_similarity(index, states, measure, param_keys, want_highest=True)


def select_lowest_similarity(
    index: int,
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    measure: str = "cosine",
    param_keys: set[str] | None = None,
) -> int:
    """argmin_{j != i} Similarity(v_i, v_j) — the recommended default."""
    return _select_by_similarity(index, states, measure, param_keys, want_highest=False)


class CoModelSel:
    """Configured collaborative-model selector.

    Parameters
    ----------
    strategy:
        ``"in_order"`` | ``"highest"`` | ``"lowest"``.
    measure:
        Similarity measure name for the similarity strategies
        (``"cosine"`` — the paper's choice — or ``"euclidean"``).
    param_keys:
        Optional restriction of the comparison to these state keys.
    """

    STRATEGIES = ("in_order", "highest", "lowest")

    def __init__(
        self,
        strategy: str = "lowest",
        measure: str = "cosine",
        param_keys: set[str] | None = None,
    ) -> None:
        strategy = strategy.lower()
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {self.STRATEGIES}")
        if measure not in MEASURES:
            raise ValueError(
                f"unknown measure {measure!r}; expected one of {sorted(MEASURES)}"
            )
        self.strategy = strategy
        self.measure = measure
        self.param_keys = param_keys

    def __call__(
        self,
        index: int,
        states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
        round_idx: int,
    ) -> int:
        """Index of the collaborative model for ``states[index]``."""
        if self.strategy == "in_order":
            return select_in_order(index, round_idx, len(states))
        if self.strategy == "highest":
            return select_highest_similarity(index, states, self.measure, self.param_keys)
        return select_lowest_similarity(index, states, self.measure, self.param_keys)

    def select_all(
        self, pool: PoolBuffer, round_idx: int, gram: np.ndarray | None = None
    ) -> np.ndarray:
        """Collaborator indices for the whole pool in one engine call.

        The server hot path: one Gram matmul covers all K queries,
        instead of K independent ``__call__`` invocations.

        ``gram`` may carry a precomputed raw ``(K, K)`` Gram of the
        masked pool — e.g. one maintained incrementally by a
        :class:`repro.core.gram.GramTracker` as uploads land — turning
        cosine selection into pure ``(K, K)`` algebra that never
        re-reads pool data.  Ignored by ``in_order``; rejected for
        non-cosine measures (see
        :meth:`~repro.core.pool.PoolBuffer.select_collaborators`).
        """
        return pool.select_collaborators(
            self.strategy,
            round_idx=round_idx,
            measure=self.measure,
            param_keys=self.param_keys,
            gram=gram,
        )
