"""Pluggable aggregation operators over ``PoolBuffer`` blocked row ops.

The server's two aggregation sites — the CrossAggr collaborator blend
and GlobalModelGen / upload averaging — historically hard-coded the
linear mean (``PoolBuffer.cross_aggregate`` / ``mean_state``).  This
module extracts that choice into an :class:`AggregationOperator`
registry mirroring the storage / execution plugins:

========================  ====================================================
``mean``                  the reference — delegates to ``mean_state`` /
                          ``cross_aggregate`` and is bitwise identical to the
                          pre-registry server
``trimmed_mean``          per-coordinate mean of the middle ``1 - 2·trim``
                          order statistics (rank-based; ignores weights)
``coordinate_median``     per-coordinate median (rank-based; ignores weights)
``norm_clip``             weighted mean of per-row deviations from the
                          coordinate median, each clipped to the trust radius
========================  ====================================================

Every operator computes through the shard-aware blocked row protocol
(``row_block`` / ``gather_rows`` / ``write_rows`` walked under the
``REPRO_POOL_BLOCK_BYTES`` budget), accumulates in float64 and rounds
once into the buffer dtype, so dense / memmap / sharded / distributed
storage produce bitwise-identical aggregates per budget.  Integer
columns (step counters) are never rank-filtered or averaged: combines
carry them from row 0 (the ``mean_state`` convention) and blends carry
them from the source row (the ``cross_aggregate`` convention).

Robust cross blends use a *trust region*: the operator's robust center
``c`` and the per-row deviation norms ``n_i = ‖m_i − c‖`` give a
radius ``tau = max(med + clip_factor·MAD, 2·med)`` (median /
median-absolute-deviation of the norms — the same robust-location
threshold the Gram screen uses, so honest spread cannot be outvoted
by the outliers it is trying to bound).  Detection reads every float
column for pools under ``2**17`` scalars and a fixed-stride sample
above it (the threshold is scale-free, so the ``√(sample/P)`` norm
shrinkage cancels), keeping the per-round screen an order cheaper
than the full robust center.  Rows outside the region are
*rejected* — replaced by a stand-in before the standard
``alpha``-blend, both as primary rows and as collaborators — so a
poisoned upload neither survives as a pool row nor leaks through a
collaborator pick.  The stand-in is the row's own dispatched
middleware state when the caller supplies the dispatched pool as
``fallback`` (the fault engine's carry degradation: the slot keeps its
honest history, one round stale), else the robust center rounded to
the pool dtype.  Rounds
where no row leaves the trust region
delegate wholesale to ``cross_aggregate``, so benign rounds of a
robust operator remain bitwise identical to the reference blend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.utils.knobs import check_knobs, knob, parse_knobs
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import PoolBuffer


def _pool_ops():
    """The blocked row protocol, imported lazily.

    ``repro.faults`` pulls :mod:`repro.robust.attacks` (hence this
    package) while ``repro.fl`` is still mid-import; a module-level
    ``repro.core`` import here would close that cycle, so the pool
    machinery is fetched on first use instead.
    """
    from repro.core.pool import PoolBuffer, _block_budget, iter_row_spans

    return PoolBuffer, _block_budget, iter_row_spans

__all__ = [
    "AGGREGATION_OPERATORS",
    "AggregationOperator",
    "MeanOperator",
    "TrimmedMeanOperator",
    "CoordinateMedianOperator",
    "NormClipOperator",
    "register_operator",
    "resolve_operator",
    "available_operators",
    "build_operator",
]

AGGREGATION_OPERATORS = Registry("aggregation operator")


def register_operator(name: str):
    """Class decorator registering an :class:`AggregationOperator`."""
    return AGGREGATION_OPERATORS.register(name)


def resolve_operator(name: str) -> type:
    """Operator class for ``name``; ``ValueError`` lists every option."""
    return AGGREGATION_OPERATORS.resolve(name)


def available_operators() -> list[str]:
    """Sorted registered operator names."""
    return AGGREGATION_OPERATORS.available()


def build_operator(name: str, params: Mapping | None = None) -> "AggregationOperator":
    """Instantiate operator ``name`` with ``params`` knobs."""
    return parse_knobs(resolve_operator(name), params or {}, f"{name} aggregator_params")


def _normalized_weights(weights, k: int) -> np.ndarray:
    if weights is None:
        return np.full(k, 1.0 / k)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise ValueError(f"weights of shape {w.shape} != ({k},)")
    total = w.sum()
    if not total > 0:
        raise ValueError("weights must sum to a positive total")
    return w / total


#: Trust-region detection reads at most this many float coordinates —
#: a fixed stride over the float columns, so pools under the cap are
#: screened exactly and larger ones through a deterministic sample
#: whose med/MAD threshold is scale-free.  A pure function of the
#: layout, hence bitwise identical across storage backends.
_DETECTION_SAMPLE = 1 << 17


def _detection_columns(layout, p: int) -> "tuple[slice | np.ndarray, int]":
    """``(cols, n)``: the ``n`` detection columns of a width-``p`` layout.

    Every float column, or every ``stride``-th once there are more than
    :data:`_DETECTION_SAMPLE`.  Without integer columns ``cols`` is a
    basic slice, so rows are read as views; with them it is the index
    array of the float columns at the same stride.
    """
    int_mask = layout.integer_mask()
    n = p - int(int_mask.sum())
    stride = max(1, -(-n // _DETECTION_SAMPLE))
    if int_mask.any():
        cols = np.flatnonzero(~int_mask)[::stride]
        return cols, cols.size
    return slice(None, None, stride), -(-p // stride)


def _sorted_median(svals: np.ndarray) -> np.ndarray:
    """Column median of a slab already sorted along axis 0.

    Bitwise ``np.median`` of the float64 cast: the middle order
    statistics are exact casts and the even-K midpoint ``(a + b) / 2``
    is the same IEEE operation ``np.mean`` applies to the two rows.
    """
    k = svals.shape[0]
    mid = svals[(k - 1) // 2].astype(np.float64)
    if k % 2:
        return mid
    return (mid + svals[k // 2].astype(np.float64)) / 2.0


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float vector, bit for bit (NaN -> NaN, never ``-0.0``), without
    its first call's ``numpy.ma`` import landing inside a run's first robust aggregate."""
    s = np.sort(x)  # NaNs last
    return float("nan") if np.isnan(s[-1]) else float(_sorted_median(s)) + 0.0


def _trust_radius(values: np.ndarray, factor: float, floor: float = 2.0) -> float:
    """``max(med + factor·MAD, floor·med)`` of 1-D ``values`` (median, median
    absolute deviation): the threshold of the trust region and the Gram screen."""
    med = _median(values)
    return max(med + factor * _median(np.abs(values - med)), floor * med)


def _pool_rows(storage):
    """Every row of ``storage`` in pool order, read in budget row spans
    (shard-local, so local storages hand out views)."""
    _, _block_budget, iter_row_spans = _pool_ops()
    k, p = storage.shape
    block_rows = max(1, _block_budget() // max(1, p * storage.dtype.itemsize))
    for b0, b1 in iter_row_spans(k, block_rows, storage.shard_boundaries()):
        yield from storage.row_block(b0, b1)


def _deviation_norms(storage, center: np.ndarray, cols, group_rows: int) -> np.ndarray:
    """Per-row ``‖m_i[cols] − center‖`` in float64.

    Bitwise ``np.sqrt(np.einsum("ij,ij->i", d, d))`` over the float64
    deviations ``d`` of each ``group_rows``-row group, without building
    a group: deviations go two at a time into a reused ``(2, n)``
    scratch.  ``np.einsum`` reduces a row of a multi-row operand the
    same way at any row count, but a lone row of more than 8192
    elements (its buffer size) another way, so a pair gives each row
    its group's bits: a group's odd last row is paired with the row
    before it, and a one-row group is reduced alone.
    """
    _, _, iter_row_spans = _pool_ops()
    k = storage.shape[0]
    rows = _pool_rows(storage)
    pair = np.zeros((2, center.size))
    sq = np.empty(k)
    for g0, g1 in iter_row_spans(k, group_rows):
        for i in range(g0, g1):
            t = (i - g0) % 2
            np.subtract(next(rows)[cols], center, out=pair[t], dtype=np.float64)
            if g1 - g0 == 1:
                sq[i] = np.einsum("ij,ij->i", pair[:1], pair[:1])[0]
            elif t or i == g1 - 1:
                sq[i - t : i + 1] = np.einsum("ij,ij->i", pair, pair)[: t + 1]
    return np.sqrt(sq)


@dataclass(frozen=True, eq=False)
class AggregationOperator:
    """One way to combine pool rows; see the registry table above.

    An operator is a frozen dataclass whose knob fields are its
    ``--aggregator-params`` (checked at construction; equality stays
    identity); :func:`build_operator` refuses any other key.
    """

    #: True only when the operator is the linear mean, which is what the
    #: GramTracker closed-form post-blend transform assumes.
    linear = False

    __post_init__ = check_knobs  # every knob's own check, at construction

    def combine(
        self, pool: PoolBuffer, weights=None, *, precise: bool = True
    ) -> np.ndarray:
        """Aggregate all pool rows into one fresh ``(P,)`` row."""
        raise NotImplementedError

    def cross_blend(
        self, pool: PoolBuffer, co_indices, alpha: float, fallback=None, out=None
    ) -> PoolBuffer:
        """CrossAggr: blend each row with its collaborator(s).

        ``fallback`` is an optional same-shape :class:`PoolBuffer` of
        per-row stand-in states (the server passes the dispatched
        middleware pool); robust operators replace rejected rows from
        it instead of from their robust center, so a poisoned slot
        degrades to its own one-round-stale honest state — the same
        carry degradation the fault engine applies to failed legs.
        ``out`` is :meth:`~repro.core.pool.PoolBuffer.cross_aggregate`'s:
        ``out=pool`` consumes ``pool`` (blended in place where its
        storage can), and the buffer returned holds the result.
        """
        raise NotImplementedError


@register_operator("mean")
class MeanOperator(AggregationOperator):
    """The reference weighted mean — bitwise the pre-registry server."""

    linear = True

    def combine(self, pool, weights=None, *, precise=True):
        return pool.mean_state(weights, precise=precise)

    def cross_blend(self, pool, co_indices, alpha, fallback=None, out=None):
        return pool.cross_aggregate(co_indices, alpha, out=out)


@dataclass(frozen=True, eq=False)
class _RobustOperator(AggregationOperator):
    """Shared machinery: column-chunked robust center + trust region."""

    clip_factor: float = knob(
        None, 3.0, "robust",
        "MAD multiplier of the trust radius tau = max(med + clip_factor*MAD, "
        "2*med); larger values admit more spread before a row is an outlier.",
        check=(lambda v: float(v) > 0, "> 0"),
    )

    # -- robust center -----------------------------------------------------
    def _from_sorted(self, svals: np.ndarray) -> np.ndarray:
        """Column statistic of a ``(K, chunk)`` slab sorted along axis 0.

        The slab keeps the buffer dtype; implementations pick their
        order-statistic band and cast it to float64 before averaging,
        which is bitwise what a float64 sort would produce (casts of
        the same values, reduced in the same order) at half the memory
        traffic for float32 pools.
        """
        raise NotImplementedError

    def _center(self, pool: PoolBuffer) -> np.ndarray:
        """Float64 ``(P,)`` robust center, column-chunked under budget.

        Needs all K values of a column at once, so it walks column
        chunks of ``budget / (K·itemsize)`` scalars, filling each
        ``(K, chunk)`` slab through budget row spans and sorting it
        in place (native dtype — the hot path of every robust round).
        Chunking never changes a per-column statistic, so the result
        is bitwise independent of the budget and of the storage
        backend.
        """
        _, _block_budget, iter_row_spans = _pool_ops()
        storage = pool.storage
        k, p = storage.shape
        itemsize = np.dtype(pool.dtype).itemsize
        budget = _block_budget()
        chunk = max(1, budget // max(1, k * itemsize))
        block_rows = max(1, budget // max(1, p * itemsize))
        center = np.empty(p, dtype=np.float64)
        for c0 in range(0, p, chunk):
            c1 = min(c0 + chunk, p)
            vals = np.empty((k, c1 - c0), dtype=pool.dtype)
            for b0, b1 in iter_row_spans(k, block_rows):
                vals[b0:b1] = storage.row_block(b0, b1)[:, c0:c1]
            vals.sort(axis=0)
            center[c0:c1] = self._from_sorted(vals)
        return center

    def _center_row(self, pool: PoolBuffer, center: np.ndarray) -> np.ndarray:
        """The float64 ``center`` as a fresh buffer-dtype row, integer
        columns carried from row 0."""
        row = center.astype(pool.dtype)
        int_mask = pool.layout.integer_mask()
        if int_mask.any():
            row[int_mask] = pool.storage.row(0)[int_mask]
        return row

    def _trust_region(self, pool: PoolBuffer):
        """``(center, norms, tau, scales, flagged)`` for the blend.

        ``tau`` is the MAD-based radius from the module docstring;
        ``flagged`` marks rows outside it and ``scales`` holds the
        classic norm-clip ratios ``min(1, tau/n_i)`` for operators
        that want clipping rather than rejection.
        """
        _, _block_budget, _ = _pool_ops()
        center = self._center(pool)
        int_mask = pool.layout.integer_mask()
        cols = np.flatnonzero(~int_mask) if int_mask.any() else slice(None)
        # Norms keep the bits of float64 deviation blocks of this size.
        group_rows = max(1, _block_budget() // max(1, 2 * pool.num_scalars * 8))
        norms = _deviation_norms(pool.storage, center[cols], cols, group_rows)
        # The 2·med floor keeps a tight honest cluster (tiny MAD) from
        # flagging its own mild stragglers.
        tau = _trust_radius(norms, float(self.clip_factor))
        scales = np.ones(len(norms))
        flagged = norms > tau
        if tau > 0:
            scales[flagged] = tau / norms[flagged]
        else:
            # Majority of rows sit exactly at the center: no spread to
            # estimate a radius from, so nothing is clipped.
            flagged[:] = False
        return center, norms, tau, scales, flagged

    def combine(self, pool, weights=None, *, precise=True):
        # Rank-based combines: weights carry no rank information, so
        # they are deliberately ignored (a zero-weight carried row is
        # just one more order statistic).
        return self._center_row(pool, self._center(pool))

    def _detection_norms(self, pool: PoolBuffer) -> np.ndarray:
        """Per-row deviation norms from the robust center, both taken
        over :func:`_detection_columns`.

        The columns are copied once, into the slab the center sorts in
        place; the norms read the rows again (as views on local
        storage) through :func:`_deviation_norms`, as one group.
        """
        _, _block_budget, iter_row_spans = _pool_ops()
        storage = pool.storage
        k, p = storage.shape
        cols, n = _detection_columns(pool.layout, p)
        block_rows = max(1, _block_budget() // max(1, p * storage.dtype.itemsize))
        vals = np.empty((k, n), dtype=pool.dtype)
        for b0, b1 in iter_row_spans(k, block_rows, storage.shard_boundaries()):
            vals[b0:b1] = storage.row_block(b0, b1)[:, cols]
        vals.sort(axis=0)
        center = self._from_sorted(vals)
        del vals
        return _deviation_norms(storage, center, cols, k)

    def _detect(self, pool: PoolBuffer) -> np.ndarray:
        """Boolean flag per row: outside the trust region?

        The blend's hot path: the robust center and the deviation
        norms are taken over :func:`_detection_columns` — every float
        column for pools under the sample cap (bitwise the full trust
        region), a fixed-stride sample above it, where the med/MAD
        threshold is invariant to the ``√(sample/P)`` norm shrinkage.
        Peak temporary memory is the sorted buffer-dtype slab of those
        columns; the float64 work runs in ``(2, n)`` scratch.
        """
        norms = self._detection_norms(pool)
        tau = _trust_radius(norms, float(self.clip_factor))
        if not tau > 0:
            # Majority of rows at the center: no spread, nothing flagged.
            return np.zeros(len(norms), dtype=bool)
        return norms > tau

    def cross_blend(self, pool, co_indices, alpha, fallback=None, out=None):
        co = np.asarray(co_indices, dtype=np.int64)
        flagged = self._detect(pool)
        if not flagged.any():
            # Every row inside the trust region: the robust blend IS the
            # reference blend, delegated wholesale for bitwise identity.
            return pool.cross_aggregate(co, alpha, out=out)
        # Rejection, not projection: a row outside the trust region is
        # replaced by its stand-in *before* the blend, so it neither
        # survives as a pool row nor leaks through a collaborator pick.
        # The stand-ins are patched into the pool for the reference
        # blend, so its arithmetic stays bitwise the reference path.  A
        # pool the blend consumes (``out=pool``) keeps them; any other
        # gets its original rows back, bit-identical on return.
        flag_idx = np.flatnonzero(flagged)
        storage = pool.storage
        p = storage.shape[1]
        saved = storage.gather_rows(flag_idx)
        if fallback is not None:
            stand_ins = fallback.storage.gather_rows(flag_idx)
        else:
            # No dispatched pool to degrade to: reject onto the robust
            # center, rounded to the pool dtype like any other row.
            stand_ins = np.broadcast_to(
                self._center(pool).astype(pool.dtype), (flag_idx.size, p)
            )
        int_mask = pool.layout.integer_mask()
        has_int = bool(int_mask.any())
        try:
            for j, i in enumerate(flag_idx):
                row = np.array(stand_ins[j], dtype=pool.dtype, copy=True)
                if has_int:
                    # Integer columns (step counters) survive from the
                    # rejected row itself: the blend carries them from
                    # the source row, never from the stand-in.
                    row[int_mask] = saved[j][int_mask]
                pool.set_row(int(i), row)
            return pool.cross_aggregate(co, alpha, out=out)
        finally:
            if out is not pool:
                for j, i in enumerate(flag_idx):
                    pool.set_row(int(i), saved[j])


@register_operator("trimmed_mean")
@dataclass(frozen=True, eq=False)
class TrimmedMeanOperator(_RobustOperator):
    """Per-coordinate mean of the middle order statistics."""

    trim: float = knob(
        None, 0.25, "robust",
        "Fraction discarded from each end; at small K the trim count is "
        "clamped so at least one row survives.",
        check=(lambda v: 0.0 <= float(v) < 0.5, "in [0, 0.5)"),
    )

    def _from_sorted(self, svals):
        k = svals.shape[0]
        lo = min(int(float(self.trim) * k), (k - 1) // 2)
        # dtype=float64 casts each row into the accumulator in the same
        # order a float64 band would reduce — bitwise identical, minus
        # the band-sized temporary.
        return svals[lo : k - lo].mean(axis=0, dtype=np.float64)


@register_operator("coordinate_median")
class CoordinateMedianOperator(_RobustOperator):
    """Per-coordinate median (the K-row 50% breakdown point)."""

    def _from_sorted(self, svals):
        return _sorted_median(svals)


@register_operator("norm_clip")
class NormClipOperator(_RobustOperator):
    """Weighted mean of norm-clipped deviations from the median center.

    Unlike the rank-based operators this one honours sample-count
    weights: the combine is ``c + Σ w_i · min(1, tau/‖d_i‖) · d_i``
    with ``d_i = m_i − c`` and ``c`` the coordinate median.
    """

    def _from_sorted(self, svals):
        return _sorted_median(svals)

    def combine(self, pool, weights=None, *, precise=True):
        k, p = pool.storage.shape
        center, _norms, _tau, scales, _flagged = self._trust_region(pool)
        w = _normalized_weights(weights, k)
        acc = np.zeros(p, dtype=np.float64)
        dev = np.empty(p, dtype=np.float64)
        for i, row in enumerate(_pool_rows(pool.storage)):
            np.subtract(row, center, out=dev, dtype=np.float64)
            dev *= w[i] * scales[i]
            acc += dev
        return self._center_row(pool, center + acc)
