"""Empirical probes of the Section III-C convergence theory.

Theorem 1 bounds ``E[F(w_t)] - F*`` by ``C / (t + lambda)`` under
L-smooth / mu-convex losses with decaying step sizes. These helpers

* fit an inverse-t envelope to a measured loss curve
  (:func:`inverse_t_envelope_fit`) so the convergence bench can check
  the O(1/t) *shape*;
* verify the Lemma 3.4 contraction — cross-aggregation never moves the
  pool away from any reference point — directly on a pool's rows
  (:func:`lemma34_contraction_gap`), which the property-based tests
  exercise with hypothesis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.fedcross import validate_alpha
from repro.core.pool import PoolBuffer

__all__ = [
    "inverse_t_envelope_fit",
    "empirical_convergence_rate",
    "lemma34_contraction_gap",
]


def inverse_t_envelope_fit(losses: Sequence[float], f_star: float = 0.0) -> dict[str, float]:
    """Fit ``loss(t) - f_star ~= c / (t + lam)`` by least squares.

    Returns the fitted ``c`` and ``lam`` plus the R^2 of the fit in
    log-space; R^2 close to 1 means the measured curve is consistent
    with Theorem 1's O(1/t) rate.
    """
    from scipy.optimize import curve_fit  # loaded on use: importing the experiments stays scipy-free

    gaps = np.asarray(losses, dtype=np.float64) - f_star
    if (gaps <= 0).any():
        raise ValueError("losses must stay above f_star for an envelope fit")
    t = np.arange(1, len(gaps) + 1, dtype=np.float64)

    def model(t_, c, lam):
        return c / (t_ + lam)

    (c, lam), _ = curve_fit(model, t, gaps, p0=(gaps[0], 1.0), maxfev=20000)
    pred = model(t, c, lam)
    log_resid = np.log(gaps) - np.log(np.clip(pred, 1e-12, None))
    ss_res = float((log_resid**2).sum())
    centered = np.log(gaps) - np.log(gaps).mean()
    ss_tot = float((centered**2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"c": float(c), "lam": float(lam), "r2": r2}


def empirical_convergence_rate(losses: Sequence[float], f_star: float = 0.0) -> float:
    """Log-log slope of the loss gap vs t (≈ -1 for an O(1/t) rate)."""
    gaps = np.asarray(losses, dtype=np.float64) - f_star
    if (gaps <= 0).any():
        raise ValueError("losses must stay above f_star")
    t = np.arange(1, len(gaps) + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(t), np.log(gaps), 1)
    return float(slope)


def lemma34_contraction_gap(
    pool: PoolBuffer,
    co_indices: Sequence[int],
    alpha: float,
    reference: np.ndarray,
) -> float:
    """Lemma 3.4 slack: ``mean ||v_i - w*||^2 - mean ||w_i - w*||^2``.

    The ``v_i`` are the rows of ``pool`` and ``reference`` is the
    ``(P,)`` row ``w*``.  ``w_i = alpha v_i + (1-alpha) v_{co(i)}`` is
    the server's own CrossAggr (:meth:`PoolBuffer.cross_aggregate`).
    When ``co_indices`` is a permutation — every model chosen as
    collaborator exactly once, as the in-order strategy guarantees (the
    assumption of the paper's proof) — the returned slack is >= 0 for
    *any* reference point ``w*``: cross-aggregation never moves the
    pool away from a target.  For non-permutation assignments (possible
    under the similarity strategies) the inequality can fail; the
    property tests cover both regimes.
    """
    alpha = validate_alpha(alpha)
    ref = np.asarray(reference, dtype=np.float64)
    before = np.asarray(pool.matrix, dtype=np.float64)
    after = np.asarray(pool.cross_aggregate(co_indices, alpha).matrix, dtype=np.float64)
    d_before = ((before - ref) ** 2).sum(axis=1).mean()
    d_after = ((after - ref) ** 2).sum(axis=1).mean()
    return float(d_before - d_after)
