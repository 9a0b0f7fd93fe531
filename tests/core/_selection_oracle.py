"""The per-pair similarity loops, kept as the test oracle.

These are ``CoModelSel``'s similarity and selection as they shipped
before the vectorized engine: every state dict is flattened, and every
pair is scored by the dict-based measure one call at a time.
``tests/core/test_selection.py`` and
``tests/property/test_property_pool.py`` hold ``CoModelSel.select_all``,
the :class:`~repro.core.gram.GramTracker` cosine and the blocked
euclidean matrix to them.  Not used by ``src/``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from _dict_oracle import flatten_state_dict


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Standard cosine similarity of two flattened parameter vectors."""
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def euclidean_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Negative Euclidean distance (higher = more similar)."""
    return -float(np.linalg.norm(x - y))


MEASURES = {"cosine": cosine_similarity, "euclidean": euclidean_similarity}


def _flatten_all(
    states: Sequence[Mapping[str, np.ndarray]], param_keys: set[str] | None
) -> np.ndarray:
    vectors = []
    for state in states:
        if param_keys is not None:
            state = {k: v for k, v in state.items() if k in param_keys}
        vectors.append(flatten_state_dict(state))
    return np.stack(vectors)


def reference_similarity_matrix(
    states: Sequence[Mapping[str, np.ndarray]],
    measure: str = "cosine",
    param_keys: set[str] | None = None,
) -> np.ndarray:
    """``(K, K)`` similarities, one measure call per pair."""
    fn = MEASURES[measure]
    vectors = _flatten_all(states, param_keys)
    k = len(vectors)
    out = np.zeros((k, k))
    for i in range(k):
        out[i, i] = fn(vectors[i], vectors[i])
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = fn(vectors[i], vectors[j])
    return out


def reference_select_by_similarity(
    index: int,
    states: Sequence[Mapping[str, np.ndarray]],
    measure: str,
    param_keys: set[str] | None,
    want_highest: bool,
) -> int:
    """The most (or least) similar other model, by a per-pair scan."""
    k = len(states)
    if k <= 1:
        return index
    fn = MEASURES[measure]
    vectors = _flatten_all(states, param_keys)
    best_idx = -1
    best_val = -np.inf if want_highest else np.inf
    for j in range(k):
        if j == index:
            continue
        val = fn(vectors[index], vectors[j])
        if (want_highest and val > best_val) or (not want_highest and val < best_val):
            best_val, best_idx = val, j
    return best_idx


def reference_gram(pool, param_keys: set[str] | None = None) -> np.ndarray:
    """Plain float64 ``V @ V.T`` of a PoolBuffer's masked rows."""
    v = np.asarray(pool.matrix, dtype=np.float64)[:, pool.layout.mask(param_keys)]
    return v @ v.T
