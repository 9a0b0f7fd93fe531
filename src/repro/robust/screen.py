"""Gram-based anomaly screening of landed uploads.

The streaming collect path already maintains a ``(K, K)`` Gram matrix
incrementally — :class:`repro.core.gram.GramTracker` refreshes one row
per upload.  That matrix is enough to score every upload's distance
from the pool mean *without touching the (K, P) data again*:

    ‖v_i − v̄‖² = G_ii − (2/K) · Σ_j G_ij + (1/K²) · Σ_jl G_jl

Poisoned uploads (sign flips, boosted updates, heavy noise) land far
from the honest cluster, so their distance score is a large multiple
of the cohort median.  The threshold is deliberately conservative —

    flag i  ⇔  score_i > max(median + sigma·MAD, boost·median)

— a row must be both a statistical outlier (``sigma`` median absolute
deviations out) *and* at least ``boost``× the median distance, so the
ordinary spread of honest non-IID updates is never flagged.  Screening
is O(K²) arithmetic per round on the cached Gram.

Flagged rows become :class:`SuspectRecord` entries: surfaced in history
extras, fired through ``ServerCallback.on_suspect_upload``, and — under
``screen="carry"`` — quarantined by restoring the dispatched middleware
row, exactly the stand-in the PR 8 ``carry`` failure policy uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.robust.operators import _trust_radius

__all__ = ["SuspectRecord", "screen_scores"]


@dataclass(frozen=True)
class SuspectRecord:
    """One flagged upload, JSON-friendly via :meth:`summary`."""

    row: int
    client_id: int
    score: float
    threshold: float
    action: str

    def summary(self) -> dict:
        return {
            "row": int(self.row),
            "client": int(self.client_id),
            "score": float(self.score),
            "threshold": float(self.threshold),
            "action": self.action,
        }


def screen_scores(gram, *, sigma: float = 3.0, boost: float = 2.0):
    """``(scores, threshold, flagged_rows)`` from a ``(K, K)`` Gram.

    ``scores[i]`` is ‖v_i − v̄‖ computed purely from Gram algebra, which
    cancels when the pool is far tighter than its norm scale (see
    :mod:`repro.core.gram`): scores are clamped at zero.
    ``flagged_rows`` is a sorted index array of rows beyond the
    conservative two-part threshold.
    """
    g = np.asarray(gram, dtype=np.float64)
    k = g.shape[0]
    if g.shape != (k, k) or k < 3:
        raise ValueError(f"screening needs a (K, K) Gram with K >= 3, got {g.shape}")
    diag = np.diag(g)
    d2 = diag - (2.0 / k) * g.sum(axis=1) + g.sum() / (k * k)
    scores = np.sqrt(np.maximum(d2, 0.0))
    threshold = _trust_radius(scores, sigma, boost)
    flagged = np.flatnonzero(scores > threshold)
    return scores, threshold, flagged
