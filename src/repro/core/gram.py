"""Incremental Gram similarity engine (``GramTracker``).

``CoModelSel``'s cosine, the upload screen and the
``middleware_similarity`` diagnostic are all functions of one object:
the float64 ``(K, K)`` Gram matrix ``G = V @ V.T`` of the masked pool
rows.  Rebuilding it from scratch every round costs O(K²·P); this
module maintains it *incrementally* instead:

* :meth:`GramTracker.update_row` refreshes one row/column pair in
  O(n·P), ``n`` the rows landed so far — called as each client upload
  lands, so under the streaming collect phase the whole-round Gram
  work hides behind still-running training legs and the server's
  blocking similarity cost drops to O(K²) algebra;
* :meth:`GramTracker.cross_aggregated` applies the closed-form
  post-``CrossAggr`` transform.  For ``M' = αM + (1−α)M[co]``::

      G' = α²·G + α(1−α)·(G[:, co] + G[co, :]) + (1−α)²·G[ix(co, co)]

  so the *new* pool's similarity matrix never re-reads pool data at all
  (the 2-D propeller variant has the analogous mean-over-propellers
  expansion).

It is the only code that computes a cosine or a Gram: a fresh one is
:meth:`GramTracker.from_pool` (``CoModelSel.select_all`` without a
tracked Gram, the screen and ``middleware_similarity()`` fallbacks,
``repro.analysis.pairwise_cosine``), and :func:`cosine_from_gram` turns
either into similarities.

Float64 image and the update contract
-------------------------------------
``update_row(i)`` is how the tracker learns row ``i`` changed: every
writer of a tracked row calls it afterwards (``collect``, the fault
engine's carry, ``screen="carry"`` quarantine, the async landing).
What the call does depends on where the rows live.

*Local storages* dot float64 casts of the masked rows, not the pool
itself.  Where the casts live is set by :data:`IMAGE_BUDGET_BYTES`:

* while the ``(K, p_eff)`` float64 *image* fits the budget, each row is
  cast once into it and every dot reads the image.  It is one
  storage-backed buffer per live upload buffer, allocated through the
  pool's own storage (``allocate_like``, so it has the pool's shard
  count and medium: one in-RAM array on ``dense`` — also when a
  ``process`` run keeps the pool in shared memory, since the image is
  private — one file on ``memmap``, a file per shard on ``sharded``
  with memmap placement; files are recycled round to round) on the
  round's first upload;
* above the budget there is no image: the tracker holds two reused
  float64 rows (``allocate_like((2, p_eff), ..., private=True)``) and
  casts each operand into one of them just before its dot.

Both read their operands through one accessor (``_row``), so there is
one dot loop and the bits are the same on either side: the same
float64 values, the same contiguous 1-D ``np.dot``, the same order.
Only the number of casts differs — ``K`` against ``K(K+1)/2`` per clean
round.  The tracker keeps the **reported set**: the rows
``update_row`` has been called for since the last
:meth:`~GramTracker.release`.

* ``update_row(i)`` re-casts row ``i`` and dots it against the reported
  set (itself included), nothing else.  Rows that have not landed yet
  hold last round's contents and would be dotted again when they land,
  so they are left alone: the ``n``-th landing of a round costs ``n``
  dots, a clean sync round ``K(K+1)/2`` dots where the matrix has
  ``K²`` entries, and a row written again once everything has landed
  (a quarantine, a carry) costs ``K``.
* A **full read** (:attr:`GramTracker.gram`, hence ``norms``,
  ``similarity``, ``cross_aggregated``, ``release``)
  first *completes* the matrix: every pair (reported since the last
  completion) × (not reported) that is still missing is dotted now, a
  never-reported row being cast on demand from the pool's current
  contents.  After a clean round there is nothing to complete; two
  reads with no report in between add no dot.  So the Gram at every
  read is what dotting each reported row against *all* K rows would
  have produced (the eager schedule the tests keep as their oracle,
  ``tests/core/_eager_gram.py``).
* :meth:`GramTracker.select_among` — the async speculation — compares
  rows of the landed set only, whose pairs are always present, and
  reads them straight from the stored entries: it never triggers the
  completion.

:attr:`GramTracker.dots` counts the ``np.dot`` calls made (``updates``
the reports received) — the work, which no wall-clock hides.

*Reducing storages* (``PoolStorage.reduces_gram`` — ``distributed``)
are updated lazily and never get an image: ``update_row(i)`` only
records that row ``i`` is stale, and the next read of the Gram
(``select_among`` included) asks the storage for all stale rows in one
``gram_rows`` exchange; the dots run on the hosts and are not counted
here.

Either way, because every writer reports in, the Gram at any read is
the Gram of the pool's current rows wherever a reported row is
involved; a caller must not keep the array across a later
``update_row``.

:meth:`GramTracker.release` says the round's Gram is final: it brings
the matrix up to date, then drops the image (or the two scratch rows)
and empties the reported set — before the blend runs, so the two never
add up in ``peak_rss`` — and the next update allocates them again.

Determinism and tolerance contract
----------------------------------
Each pairwise dot is a single contiguous float64 1-D ``np.dot`` over
two cast rows — the same kernel, operand length and summation order
regardless of which row updates first, of the shard layout, of the
image budget and of whether the pair was dotted on landing or on read,
and elementwise
products commute exactly in IEEE arithmetic (``np.dot(a, b)`` and
``np.dot(b, a)`` are the same bits) — so **at equal BLAS thread count**
the fully refreshed Gram is **bitwise independent of update order**
(streamed completion order vs the gathered plan-order schedule).
Across thread counts the last bits of a long dot do differ (a threaded
level-1 reduction splits the sum — see :mod:`repro.utils.cpu`), which
is why a run keeps one width from its first dot to its last.  Against
a *fresh* recompute the
entries agree to reduction-order round-off: a few ulps of the row-norm
scale, i.e. ``|G_ij − Ĝ_ij| ≲ c·ε·‖v_i‖·‖v_j‖`` with ε the float64
epsilon and c a small multiple of log₂P (the property tests pin this
at ``rtol=1e-9`` plus a norm-scaled ``atol``).  The closed-form
:meth:`cross_aggregated` transform is exact algebra over the *tracked*
Gram; versus a recompute on the rounded new pool it additionally picks
up one buffer-dtype rounding of the blended rows (float32 pools:
~1e-6 relative; float64 pools: ~1e-12).  Distances recovered from
Gram sums (``‖v_i − v_j‖²`` or ``RMS‖v_i − mean‖``) cancel when the pool
is far tighter than its norm scale, so no distance is served from here:
the euclidean measure and the pool dispersion are the streamed
difference passes of :class:`repro.core.pool.PoolBuffer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PoolBuffer

__all__ = ["GramTracker", "cosine_from_gram", "IMAGE_BUDGET_BYTES"]

#: Largest float64 image of the masked rows a tracker keeps.  Above it
#: each dot operand is cast on the fly into one of two reused float64
#: rows: the same dots and bits, ``K(K+1)/2`` casts a round instead of K.
IMAGE_BUDGET_BYTES = 32 << 20


def cosine_from_gram(gram: np.ndarray) -> np.ndarray:
    """Cosine-similarity matrix from a raw ``(K, K)`` Gram matrix.

    Norms come from the diagonal (clipped at zero against ulp-negative
    round-off), and zero-norm rows get similarity 0 everywhere — the
    per-pair measure ``dot / (nx * ny)`` exactly in form.  Pure
    ``(K, K)`` algebra: never touches pool data.
    """
    gram = np.asarray(gram, dtype=np.float64)
    norms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
    safe = np.where(norms == 0.0, 1.0, norms)
    sim = gram / (safe[:, None] * safe[None, :])
    zero = norms == 0.0
    if zero.any():
        sim[zero, :] = 0.0
        sim[:, zero] = 0.0
    return sim


class GramTracker:
    """Maintains the float64 ``(K, K)`` Gram of a pool's masked rows.

    Parameters
    ----------
    pool:
        The tracked :class:`~repro.core.pool.PoolBuffer`.  Held by
        reference: ``update_row`` reads the row's *current* contents.
    param_keys:
        Optional restriction to these state keys (the same mask
        ``CoModelSel`` applies — trainable parameters only).
    gram:
        Optional initial ``(K, K)`` Gram (e.g. from
        :meth:`cross_aggregated`).  Defaults to zeros — valid once
        every row has been updated at least once, which is exactly
        what one full collect phase does.
    """

    def __init__(
        self,
        pool: "PoolBuffer",
        param_keys: Iterable[str] | None = None,
        gram: np.ndarray | None = None,
    ) -> None:
        k = len(pool)
        if gram is None:
            gram = np.zeros((k, k))
        else:
            gram = np.array(gram, dtype=np.float64, copy=True)
            if gram.shape != (k, k):
                raise ValueError(
                    f"gram of shape {gram.shape} does not match pool size {k}"
                )
        self.pool = pool
        self.param_keys = set(param_keys) if param_keys is not None else None
        self._gram = gram
        self.updates = 0  # rows reported (diagnostic/bench counter)
        self.dots = 0  # np.dot calls made here (none on a reducing storage)
        # Storage-backed float64 masked rows: the (K, p_eff) image, or
        # over the budget (2, p_eff) scratch rows cast once per dot.
        self._image = None
        self._rows: list[np.ndarray | None] = []  # image row views; None = not cast since reported
        self._slots: list[np.ndarray] = []  # the scratch rows' views
        self._mask: np.ndarray | None = None  # column mask of the image; None = all
        self._reported = np.zeros(k, dtype=bool)  # since the last release()
        self._incomplete = np.zeros(k, dtype=bool)  # reported, pairs with the rest missing
        self._stale: set[int] = set()  # reducing storages: rows changed since the last read

    @classmethod
    def from_pool(
        cls, pool: "PoolBuffer", param_keys: Iterable[str] | None = None
    ) -> "GramTracker":
        """Tracker with a fully refreshed Gram of ``pool``'s current rows."""
        tracker = cls(pool, param_keys=param_keys)
        tracker.refresh()
        return tracker

    def __len__(self) -> int:
        return self._gram.shape[0]

    @property
    def gram(self) -> np.ndarray:
        """The ``(K, K)`` Gram, brought up to date first: a full read."""
        self._flush()
        self._complete()
        return self._gram

    # -- maintenance -------------------------------------------------------
    def _allocate(self) -> None:
        """The float64 operand rows of a round: the image within
        :data:`IMAGE_BUDGET_BYTES`, two scratch rows above it."""
        k = len(self)
        mask, masked, p_eff = self.pool._mask_info(self.param_keys)
        self._mask = mask if masked else None
        storage = self.pool.storage
        if k * p_eff * 8 <= IMAGE_BUDGET_BYTES:
            self._image = storage.allocate_like((k, p_eff), np.float64, private=True)
            self._rows = [None] * k
        else:
            self._image = storage.allocate_like((2, p_eff), np.float64, private=True)
            self._slots = [np.asarray(self._image.row(0)), np.asarray(self._image.row(1))]

    def _row(self, j: int, slot: int) -> np.ndarray:
        """Masked row ``j`` as a contiguous float64 dot operand: its image
        row (cast on first use since its last report), or over the
        budget a fresh cast into scratch row ``slot``."""
        if self._slots:
            out = self._slots[slot]
        elif self._rows[j] is not None:
            return self._rows[j]
        else:
            out = self._rows[j] = np.asarray(self._image.row(j))
        row = self.pool.storage.row(j)
        out[:] = row if self._mask is None else row[self._mask]
        return out

    def _dot(self, i: int, cols: np.ndarray) -> None:
        """Entries ``(i, cols)`` and their mirrors, one dot each."""
        vi = self._row(i, 0)
        dots = np.array([np.dot(vi, vi if j == i else self._row(j, 1)) for j in cols.tolist()])
        self._gram[i, cols] = dots
        self._gram[cols, i] = dots
        self.dots += cols.size

    def update_row(self, index: int) -> None:
        """Row ``index`` changed: refresh its entries from the pool's data.

        Re-casts row ``index``, then one contiguous float64 1-D
        ``np.dot`` against every row reported since the last
        :meth:`release`, itself included — O(n·P) for the ``n``-th
        landing; the pairs with rows not reported yet are completed by
        the next full read.  Bitwise independent of update order,
        storage backend, shard layout and image budget (see the module
        docstring).  On a reducing storage all dots are deferred to the
        next read.
        """
        self._report(index)

    def _report(self, index: int) -> None:
        """:meth:`update_row`'s work, shared with :meth:`refresh`."""
        k = len(self)
        if not 0 <= index < k:
            raise IndexError(f"row {index} out of range for pool of {k}")
        self.updates += 1
        if self.pool.storage.reduces_gram:
            self._stale.add(int(index))
            return
        if self._image is None:
            self._allocate()
        if self._rows:
            self._rows[index] = None  # re-cast on its next read
        self._reported[index] = self._incomplete[index] = True
        self._dot(index, np.flatnonzero(self._reported))

    def _complete(self) -> None:
        """Local storages: dot the pairs (reported since the last
        completion) × (not reported) that ``update_row`` left out."""
        pending = np.flatnonzero(self._incomplete)
        if pending.size == 0:
            return
        rest = np.flatnonzero(~self._reported)
        if rest.size:
            for i in pending.tolist():
                self._dot(i, rest)
        self._incomplete[:] = False

    def _flush(self) -> None:
        """Reducing storages: recompute every row marked since the last
        read where the rows live, in one ``gram_rows`` exchange."""
        if self._stale:
            rows = np.array(sorted(self._stale))
            mask, masked, _ = self.pool._mask_info(self.param_keys)
            dots = self.pool.storage.gram_rows(rows, mask if masked else None)
            self._gram[rows, :] = dots
            self._gram[:, rows] = dots.T
            self._stale.clear()

    def release(self) -> None:
        """The round's Gram is final: bring it up to date, then drop the
        float64 image (or scratch rows) and the reported set (the Gram is
        kept); the next :meth:`update_row` allocates them again."""
        self._flush()
        self._complete()
        self._image = None
        self._rows = []
        self._slots = []
        self._reported[:] = False

    def refresh(self) -> None:
        """Rebuild every row with :meth:`update_row`'s arithmetic.

        O(K²·P/2) — the from-scratch cost the incremental path avoids;
        used to (re)base a tracker on a pool whose rows changed outside
        the per-upload update stream, and by :meth:`from_pool`.  No
        ``update_row`` call is made: a rebuild is not a landing.
        """
        for i in range(len(self)):
            self._report(i)
        self.release()

    # -- (K, K) algebra ----------------------------------------------------
    @property
    def norms(self) -> np.ndarray:
        """Masked row norms, read off the Gram diagonal."""
        return np.sqrt(np.clip(np.diag(self.gram), 0.0, None))

    def similarity(self) -> np.ndarray:
        """Cosine ``(K, K)`` similarity — pure algebra on the Gram."""
        return cosine_from_gram(self.gram)

    def select_among(
        self, index: int, candidates: Iterable[int], highest: bool = True
    ) -> int | None:
        """Best cosine collaborator for ``index`` among ``candidates``.

        The speculative CoModelSel primitive: restricted to the rows a
        partially landed round has refreshed so far (both endpoints of
        every considered pair must be fresh for the tracked dot to be
        meaningful).  Ties resolve to the lowest candidate index —
        the same rule as the full argmax/argmin in
        :meth:`~repro.core.selection.CoModelSel.select_all` — and an
        empty candidate set returns ``None``.
        """
        self._flush()  # a reducing storage owes its marked rows; no completion
        cols = sorted({int(c) for c in candidates} - {int(index)})
        if not cols:
            return None
        # Row ``index`` of cosine_from_gram, entry for entry, from the
        # stored dots of the landed block alone.
        g = self._gram
        norms = np.sqrt(np.clip(np.diagonal(g)[cols + [int(index)]], 0.0, None))
        safe = np.where(norms == 0.0, 1.0, norms)
        sims = g[index, cols] / (safe[-1] * safe[:-1])
        sims[(norms[:-1] == 0.0) | (norms[-1] == 0.0)] = 0.0
        best, best_sim = cols[0], float(sims[0])
        for j, s in zip(cols[1:], sims[1:].tolist()):
            if s > best_sim if highest else s < best_sim:
                best, best_sim = j, s
        return best

    def cross_aggregated(
        self,
        co_indices: np.ndarray,
        alpha: float,
        pool: "PoolBuffer | None" = None,
    ) -> "GramTracker":
        """Tracker for the pool produced by ``cross_aggregate(co, alpha)``.

        Closed form, O(K²) (O(K²·num²) for a 2-D propeller matrix):
        with ``a = alpha`` and ``b = 1 − alpha``, the blended rows
        ``m'_i = a·m_i + b·mean_j m_{co[i, j]}`` expand bilinearly into
        Gram entries the tracker already holds — no pool data is read.
        ``pool`` should be the *new* buffer the Gram now describes
        (callers use the identity to detect staleness); it defaults to
        the tracked pool for pure-algebra uses.
        """
        co = np.asarray(co_indices, dtype=np.int64)
        if co.ndim not in (1, 2):
            raise ValueError("co_indices must be 1- or 2-dimensional")
        k = len(self)
        if co.shape[0] != k:
            raise ValueError(
                f"co_indices of length {co.shape[0]} does not match pool size {k}"
            )
        # The bilinear expansion assumes every tracked column is blended,
        # but cross_aggregate carries *integer* fields (step counters...)
        # from each row unaveraged — a tracked integer column would make
        # the derived Gram diverge from the real new pool by O(value²),
        # silently voiding the tolerance contract.  Track parameters
        # only (FedCross's selector mask does) or drop integer fields.
        layout = self.pool.layout
        int_in_mask = layout.integer_mask() & layout.mask(self.param_keys)
        if int_in_mask.any():
            raise ValueError(
                "closed-form cross_aggregated is undefined for tracked "
                "integer fields (cross_aggregate carries them unblended); "
                "restrict param_keys to float parameters"
            )
        a = float(alpha)
        b = 1.0 - a
        g = self.gram
        if co.ndim == 1:
            gc = g[:, co]  # gc[i, j] = <v_i, v_co[j]>
            new = a * a * g + a * b * (gc + gc.T) + b * b * g[np.ix_(co, co)]
        else:
            num = co.shape[1]
            # A[i, m] = sum_j <v_co[i, j], v_m>
            acc = np.zeros((k, k))
            for j in range(num):
                acc += g[co[:, j], :]
            # T[i, k] = sum_{j, l} <v_co[i, j], v_co[k, l]>
            tot = np.zeros((k, k))
            for l in range(num):
                tot += acc[:, co[:, l]]
            new = a * a * g + (a * b / num) * (acc + acc.T) + (b * b / (num * num)) * tot
        return GramTracker(
            pool if pool is not None else self.pool,
            param_keys=self.param_keys,
            gram=new,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GramTracker(K={len(self)}, updates={self.updates})"
