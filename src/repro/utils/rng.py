"""Deterministic random-number streams.

Every stochastic component in the reproduction (weight init, data
synthesis, Dirichlet partitioning, client sampling, local-data shuffling,
dropout) draws from an explicit ``numpy.random.Generator``. Experiments
derive independent child streams from a single root seed with
``SeedSequence.spawn``, so that e.g. changing the number of FL rounds
never perturbs the dataset, and two FL methods sharing a seed see the
*same* data partition — the property the paper's "comparison fairness"
setup depends on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng", "spawn_rng"]


def default_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a PCG64 generator seeded with ``seed`` (default 0)."""
    return np.random.default_rng(seed)


def spawn_rng(parent: np.random.Generator | int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically-independent generators.

    Parameters
    ----------
    parent:
        Either an integer root seed or an existing generator whose
        underlying ``SeedSequence`` is spawned.
    n:
        Number of child streams.
    """
    if isinstance(parent, (int, np.integer)):
        seq = np.random.SeedSequence(int(parent))
    else:
        seq = parent.bit_generator.seed_seq  # type: ignore[attr-defined]
    return [np.random.default_rng(child) for child in seq.spawn(n)]
