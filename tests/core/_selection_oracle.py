"""The per-pair similarity loops, kept as the test oracle.

These are ``CoModelSel``'s similarity and selection as they shipped
before the vectorized :class:`~repro.core.pool.PoolBuffer` engine: every
state dict is flattened, and every pair is scored by the dict-based
measure one call at a time.  ``tests/property/test_property_pool.py``
holds the engine to them.  Not used by ``src/``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.selection import cosine_similarity, euclidean_similarity
from _dict_oracle import flatten_state_dict

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
