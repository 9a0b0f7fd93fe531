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
extension ablation).  :meth:`CoModelSel.select_all` is the one selection
entry: cosine is read off a :class:`repro.core.gram.GramTracker` Gram
(the tracked one when the server kept it, a fresh one otherwise),
euclidean off :meth:`repro.core.pool.PoolBuffer.euclidean_matrix`.  The
per-pair loops are the test oracle (``tests/core/_selection_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.gram import GramTracker, cosine_from_gram
from repro.core.pool import PoolBuffer

__all__ = ["select_in_order", "CoModelSel", "MEASURES"]

#: The similarity measures of ``CoModelSel``.
MEASURES = ("cosine", "euclidean")


def select_in_order(index: int, round_idx: int, k: int) -> int:
    """The paper's in-order rule: ``(i + (r % (K-1) + 1)) % K``.

    For ``k == 1`` there is no other model; the model is its own
    collaborator (cross-aggregation degenerates to identity).
    """
    if k <= 1:
        return index
    return (index + (round_idx % (k - 1) + 1)) % k


class CoModelSel:
    """Configured collaborative-model selector.

    Parameters
    ----------
    strategy:
        ``"in_order"`` | ``"highest"`` | ``"lowest"`` (FedCross's
        ``method_params["selection"]``).
    measure:
        Similarity measure name for the similarity strategies
        (``"cosine"`` — the paper's choice — or ``"euclidean"``;
        ``method_params["measure"]``).
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
            raise ValueError(
                f"method_params['selection']: unknown strategy {strategy!r}; "
                f"expected one of {self.STRATEGIES}"
            )
        if measure not in MEASURES:
            raise ValueError(
                f"method_params['measure']: unknown measure {measure!r}; "
                f"expected one of {sorted(MEASURES)}"
            )
        self.strategy = strategy
        self.measure = measure
        self.param_keys = param_keys

    def select_all(
        self, pool: PoolBuffer, round_idx: int, gram: np.ndarray | None = None
    ) -> np.ndarray:
        """Collaborator index for every pool member at once.

        ``in_order`` is the closed-form shift; the similarity strategies
        are a masked row argmax/argmin of the ``(K, K)`` similarity
        matrix, self excluded, ties to the lowest index.

        ``gram`` may carry the raw ``(K, K)`` Gram of the masked pool
        that a :class:`~repro.core.gram.GramTracker` kept as uploads
        landed, turning cosine selection into pure ``(K, K)`` algebra
        that never re-reads pool data; without it cosine reads a fresh
        tracker's Gram.  Ignored by ``in_order``; rejected for
        ``euclidean``, whose distances recovered from a Gram cancel in
        the converged-pool regime.
        """
        k = len(pool)
        if k <= 1:
            return np.zeros(k, dtype=np.int64)
        if self.strategy == "in_order":
            shift = round_idx % (k - 1) + 1
            return (np.arange(k) + shift) % k
        if gram is not None:
            if self.measure != "cosine":
                raise ValueError(
                    "a precomputed gram only drives cosine selection; "
                    f"got measure {self.measure!r}"
                )
            gram = np.asarray(gram, dtype=np.float64)
            if gram.shape != (k, k):
                raise ValueError(
                    f"gram of shape {gram.shape} does not match pool size {k}"
                )
            sim = cosine_from_gram(gram)
        elif self.measure == "cosine":
            sim = GramTracker.from_pool(pool, param_keys=self.param_keys).similarity()
        else:
            sim = pool.euclidean_matrix(param_keys=self.param_keys)
        if self.strategy == "highest":
            np.fill_diagonal(sim, -np.inf)
            return sim.argmax(axis=1)
        np.fill_diagonal(sim, np.inf)
        return sim.argmin(axis=1)
