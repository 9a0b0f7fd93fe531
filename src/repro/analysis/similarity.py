"""Model-pool similarity diagnostics.

The paper's narrative rests on middleware models becoming increasingly
similar over training ("the trained middleware models will eventually
become similar") while the highest-similarity strategy fragments the
pool into clusters. These helpers quantify both effects.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.gram import GramTracker
from repro.core.pool import PoolBuffer

__all__ = ["pairwise_cosine", "mean_pairwise_similarity", "pool_dispersion"]


def _packed(states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer") -> PoolBuffer:
    """A PoolBuffer as is; state dicts packed into a float64 buffer."""
    if isinstance(states, PoolBuffer):
        return states
    return PoolBuffer.from_states(list(states), dtype=np.float64)


def pairwise_cosine(
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    param_keys: set[str] | None = None,
) -> np.ndarray:
    """Pairwise cosine-similarity matrix of a model pool (a fresh
    :class:`~repro.core.gram.GramTracker`'s)."""
    return GramTracker.from_pool(_packed(states), param_keys).similarity()


def mean_pairwise_similarity(
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    param_keys: set[str] | None = None,
) -> float:
    """Mean off-diagonal cosine similarity (1.0 = fully unified pool)."""
    sim = pairwise_cosine(states, param_keys)
    k = sim.shape[0]
    if k < 2:
        return 1.0
    off = sim[~np.eye(k, dtype=bool)]
    return float(off.mean())


def pool_dispersion(
    states: "Sequence[Mapping[str, np.ndarray]] | PoolBuffer",
    param_keys: set[str] | None = None,
) -> float:
    """RMS distance of pool members from their mean (0 = identical).

    The quantity the cross-aggregation contraction (Lemma 3.4) drives
    down between local-training phases.  One vectorized pass over the
    pool buffer.
    """
    return _packed(states).dispersion(param_keys=param_keys)
