"""Vectorized middleware-pool engine (Algorithm 1 on one matrix).

The FedCross server manipulates K middleware models per round.  The
original implementation stored the pool as K state dicts and re-derived
K full flattened vectors *per selection query* — an O(K²·P) copy storm.
:class:`PoolBuffer` stores the entire pool as a single ``(K, P)``
matrix over a cached :class:`repro.utils.layout.StateLayout`, so each
Algorithm 1 server step is one (or a few) BLAS-level array operations:

===========================  ==========================================
Algorithm 1 step             PoolBuffer operation
===========================  ==========================================
line 2  (init K models)      :meth:`PoolBuffer.broadcast`
line 7-10 (collect uploads)  :meth:`PoolBuffer.from_states` /
                             :meth:`set_state` (one pack per upload)
line 11-12 (``CoModelSel``)  read by
                             :meth:`repro.core.selection.CoModelSel
                             .select_all`: cosine off the Gram of
                             :class:`repro.core.gram.GramTracker`,
                             euclidean off :meth:`euclidean_matrix`
line 13 (``CrossAggr``)      :meth:`cross_aggregate` — fused row blend
                             ``alpha * M + (1-alpha) * M[co]``
line 17 (``GlobalModelGen``) :meth:`mean_state` — weighted row
                             reduction (einsum)
===========================  ==========================================

Float arithmetic is performed in float64 and rounded back to the buffer
dtype, mirroring the tests' dict oracles (``tests/core/_dict_oracle.py``)
bit-for-bit.  ``param_keys`` masks restrict similarity to trainable
parameters exactly as the dict path does, and
integer fields (step counters and other non-float buffers) are carried
through aggregation unaveraged, never blended in floating point.

The matrix itself lives in a pluggable :class:`repro.core.storage`
backend (``dense`` in-memory array by default, ``memmap`` for pools
beyond RAM, ``sharded`` for row-sharded pools beyond one allocation),
selected with the ``backend=`` argument of the constructors; derived
buffers (``copy``, and the ``cross_aggregate`` output when it is not
blended in place) stay on their parent's backend with its
configuration (shard count/placement included).  FedCross's sync
CrossAggr blends in place (``out=self``) into the round's upload
buffer, which then serves as the pool while the old pool takes in the
next round's uploads: a run holds two ``(K, P)`` buffers, not three.

Blocked operation & sharding contract
-------------------------------------
Every whole-pool operation — the euclidean matrix, ``dispersion`` and
the fast ``mean_state`` — walks the pool through :func:`iter_row_spans`,
producing its temporaries in bounded row blocks (budget
``_BLOCK_BYTES``, overridable via ``REPRO_POOL_BLOCK_BYTES``), and
touches pool data only through the storage row protocol.  The reductions cast at most two ``(block, P)``
float64 row blocks at a time.  Cross-aggregation and the precise
``mean_state`` run where the rows live
(:meth:`~repro.core.storage.PoolStorage.blend_into`,
:meth:`~repro.core.storage.PoolStorage.accumulate_rows`): on local
storage they read one row view at a time, keep their float64
arithmetic in reused ``(P,)`` scratch rows (:func:`blend_row` for the
blend) and write each output row in place.  A round's only ``(K, p_eff)``
float64 object is the :class:`repro.core.gram.GramTracker` image, kept
in this pool's storage medium from the round's first upload until its
Gram is final and released before the blend — and only while it fits
``gram.IMAGE_BUDGET_BYTES``; above it the tracker casts into two
float64 scratch rows instead.  On ``sharded`` storage
no whole-pool buffer-dtype copy exists either (cross-shard blocks are
gathered per block, bounded by the budget).

Two span policies keep the backends bit-identical:

* *reduction* operations (euclidean, ``dispersion``, the fast
  ``mean_state``) partition rows purely by the byte budget — a
  function of (K, P) only, never of the shard layout — so
  for a fixed budget every backend computes the same BLAS calls on
  bit-equal contiguous blocks and the results match **bitwise** across
  dense / memmap / sharded;
* *elementwise* operations (``cross_aggregate``) are bit-identical for
  every block partition by construction, so the blocked blend of a
  storage that declines :meth:`~repro.core.storage.PoolStorage
  .blend_into` splits its spans at shard boundaries as well.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.storage import DenseStorage, PoolStorage, resolve_backend
from repro.utils.layout import StateLayout

__all__ = [
    "PoolBuffer",
    "blend_row",
    "blend_schedule",
    "iter_row_spans",
]


# Soft cap on the temporaries of blocked whole-pool operations
# (cross-aggregation's buffer-dtype row blocks, euclidean difference
# tensors, dispersion row casts).  Keeps peak working memory bounded for
# memmap/sharded pools far beyond RAM while leaving in-RAM pools
# effectively unblocked.  ``REPRO_POOL_BLOCK_BYTES`` overrides it at
# call time (the out-of-core CI smoke and the sharded stress test use
# tiny budgets to prove no whole-pool temp exists).
_BLOCK_BYTES = 64 << 20


def _block_budget() -> int:
    raw = os.environ.get("REPRO_POOL_BLOCK_BYTES")
    return int(raw) if raw else _BLOCK_BYTES


def iter_row_spans(
    k: int,
    block_rows: int,
    boundaries: Sequence[int] | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` row spans of at most ``block_rows`` rows.

    The shard-aware block iterator every blocked pool operation walks.
    With ``boundaries`` (a storage's :meth:`~repro.core.storage
    .PoolStorage.shard_boundaries`), spans additionally split at shard
    fenceposts so each span is shard-local — valid only for operations
    that are bit-identical under any block partition (elementwise
    blends).  Reductions pass ``boundaries=None``: their partition must
    be a pure function of (K, budget) so every backend reduces in the
    same grouping and stays bitwise comparable.
    """
    block_rows = max(1, int(block_rows))
    fences = [b for b in (boundaries or ()) if 0 < b < k]
    start = 0
    for fence in [*fences, k]:
        while start < fence:
            stop = min(start + block_rows, fence)
            yield start, stop
            start = stop


def blend_row(
    out: np.ndarray, own: np.ndarray, collab: "np.ndarray | Sequence[np.ndarray]",
    alpha: float, int_cols: np.ndarray, scratch: np.ndarray,
) -> None:
    """``out[:] = alpha * own + (1 - alpha) * collab``: the CrossAggr rule.

    The row kernel of :meth:`PoolBuffer.cross_aggregate` and the async
    speculative blend.  ``collab`` is one collaborator row, or a
    sequence of propeller rows fused with their uniform mean —
    accumulated from zero in order, like the dict reference's
    sequential ``weighted_average``.  Arithmetic is float64 in the two
    ``(P,)`` rows of ``scratch`` (the ufunc casts its inputs, nothing is
    copied) and rounds once into ``out``; the ``int_cols`` columns are
    carried from ``own``, never averaged.  ``out`` may be ``own``.
    """
    acc, tmp = scratch
    carried = own[int_cols] if int_cols.size else None
    if isinstance(collab, np.ndarray):
        np.multiply(collab, 1.0 - alpha, out=tmp, dtype=np.float64)
    else:
        tmp.fill(0.0)
        for row in collab:
            np.multiply(row, 1.0 / len(collab), out=acc, dtype=np.float64)
            np.add(tmp, acc, out=tmp)
        np.multiply(tmp, 1.0 - alpha, out=tmp)
    np.multiply(own, alpha, out=acc, dtype=np.float64)
    out[:] = np.add(acc, tmp, out=acc)
    if carried is not None:
        out[int_cols] = carried


def blend_schedule(co: np.ndarray) -> list[tuple[int, int]]:
    """The order in which an in-place CrossAggr overwrites its rows.

    Row ``i`` reads itself and its collaborators ``co[i]`` (one row for
    a ``(K,)`` ``co``, a propeller set for ``(K, num)``), so it is
    written only once every other row that reads it is done.  When no
    row is left that can be (a cycle), the lowest remaining row is first
    copied into a spare slot, where its readers find it, and written.
    A slot is free again once every reader of its row is done, and the
    lowest free slot is taken, so the disjoint cycles of a 1-D ``co``
    share slot 0.  Returns one ``(row, slot)`` per write, in order:
    ``slot`` is the spare the row is copied to first, or ``-1``.  A pure
    function of ``co``.
    """
    co = np.asarray(co, dtype=np.int64)
    k = len(co)
    reads = [sorted(set(np.atleast_1d(c).tolist()) - {i}) for i, c in enumerate(co)]
    readers = [0] * k
    for row_reads in reads:
        for j in row_reads:
            readers[j] += 1
    ready = [i for i in range(k - 1, -1, -1) if readers[i] == 0]
    done = [False] * k
    held: dict[int, int] = {}  # spared row -> its slot, until its readers are done
    free: list[int] = []
    slots = 0
    lowest = 0
    steps: list[tuple[int, int]] = []
    while len(steps) < k:
        if ready:
            i, slot = ready.pop(), -1
        else:
            while done[lowest]:
                lowest += 1
            i = lowest
            if free:
                slot = min(free)
                free.remove(slot)
            else:
                slot, slots = slots, slots + 1
            held[i] = slot
        steps.append((i, slot))
        done[i] = True
        for j in reads[i]:
            readers[j] -= 1
            if readers[j] == 0:
                if j in held:
                    free.append(held.pop(j))
                else:
                    ready.append(j)
    return steps


def _check_integer_roundtrip(
    layout: StateLayout, state: Mapping[str, np.ndarray], dtype: np.dtype
) -> None:
    """Refuse to pack integer fields that would be rounded by ``dtype``.

    Integer buffers (step counters, ...) ride inside the float pool
    matrix and are guaranteed to come back unchanged; a value outside
    the float dtype's exact-integer range (2^24 for float32) would be
    silently corrupted at pack time, so fail loudly instead.
    """
    if dtype.kind != "f":
        return
    for key in layout.integer_keys:
        value = np.asarray(state[key])
        if value.size and not np.array_equal(
            value.astype(dtype).astype(value.dtype), value
        ):
            raise ValueError(
                f"integer field {key!r} holds values that do not survive a "
                f"{dtype} round-trip; use a wider pool dtype"
            )


class PoolBuffer:
    """A pool of K model states stored as one ``(K, P)`` matrix.

    Parameters
    ----------
    layout:
        The shared :class:`StateLayout` of every pool member.
    data:
        ``(K, P)`` array (adopted by :class:`DenseStorage`) or a
        :class:`PoolStorage` backend instance; row i is the flattened
        state of model i.
    """

    def __init__(self, layout: StateLayout, data: "np.ndarray | PoolStorage") -> None:
        storage = data if isinstance(data, PoolStorage) else DenseStorage.from_array(data)
        shape = storage.shape
        if len(shape) != 2 or shape[1] != layout.total_size:
            raise ValueError(
                f"matrix of shape {shape} does not match layout "
                f"with {layout.total_size} scalars"
            )
        self.layout = layout
        self.storage = storage

    @property
    def matrix(self) -> np.ndarray:
        """The ``(K, P)`` backing array.

        Live and writable when the storage holds the rows in one local
        array (``dense``, ``memmap``, ``sharded`` at one shard); a
        gathered **read-only copy** when they are split over several
        shards or hosts (diagnostic use — library code goes through the
        row accessors, which write straight into the owning shard).
        """
        return self.storage.array

    @property
    def backend(self) -> str:
        """Registered name of this buffer's storage backend."""
        return self.storage.name

    @property
    def dtype(self) -> np.dtype:
        """The buffer dtype (without materialising the matrix)."""
        return self.storage.dtype

    # -- construction -----------------------------------------------------
    @classmethod
    def zeros(
        cls,
        layout: StateLayout,
        k: int,
        dtype=np.float32,
        backend: str = "dense",
        backend_options: Mapping | None = None,
    ) -> "PoolBuffer":
        storage = resolve_backend(backend).allocate(
            (k, layout.total_size), dtype=dtype, **dict(backend_options or {})
        )
        return cls(layout, storage)

    @classmethod
    def from_states(
        cls,
        states: Sequence[Mapping[str, np.ndarray]],
        layout: StateLayout | None = None,
        dtype=np.float32,
        backend: str = "dense",
        backend_options: Mapping | None = None,
    ) -> "PoolBuffer":
        """Pack a sequence of state dicts into a fresh buffer."""
        if not states:
            raise ValueError("cannot build a PoolBuffer from an empty pool")
        if layout is None:
            layout = StateLayout.from_state(states[0])
        buf = cls.zeros(
            layout, len(states), dtype=dtype, backend=backend,
            backend_options=backend_options,
        )
        for i, state in enumerate(states):
            buf.set_state(i, state)
        return buf

    @classmethod
    def broadcast(
        cls,
        layout: StateLayout,
        row: np.ndarray,
        k: int,
        dtype=np.float32,
        backend: str = "dense",
        backend_options: Mapping | None = None,
    ) -> "PoolBuffer":
        """K identical copies of one flat ``row`` (Algorithm 1 line 2)."""
        _check_integer_roundtrip(layout, layout.unflatten(row), np.dtype(dtype))
        buf = cls.zeros(
            layout, k, dtype=dtype, backend=backend,
            backend_options=backend_options,
        )
        buf.storage.fill_rows(row)
        return buf

    def copy(self) -> "PoolBuffer":
        return PoolBuffer(self.layout, self.storage.clone())

    # -- basic access ------------------------------------------------------
    def __len__(self) -> int:
        return self.storage.shape[0]

    @property
    def num_models(self) -> int:
        return self.storage.shape[0]

    @property
    def num_scalars(self) -> int:
        return self.storage.shape[1]

    def row(self, index: int) -> np.ndarray:
        """Writable flat view of row ``index`` (lives on its shard)."""
        return self.storage.row(index)

    def set_row(self, index: int, values: np.ndarray) -> None:
        """Overwrite row ``index`` with ``values`` (lands on its shard).

        Full-row writes go through the storage staging pair
        (:meth:`~repro.core.storage.PoolStorage.open_row` /
        ``commit_row``): a no-op wrapper around the live row on local
        backends, and a coordinator-side scratch row shipped in one
        message on ``distributed`` storage.
        """
        staged = self.storage.open_row(index)
        staged[:] = values
        self.storage.commit_row(index, staged)

    def set_state(self, index: int, state: Mapping[str, np.ndarray]) -> None:
        """Pack ``state`` into row ``index`` (O(P) single pass).

        Writes through the storage staging protocol, so on sharded
        pools each upload lands directly in its owning shard, and on
        distributed pools the packed row crosses the wire exactly once
        (not once per field).
        """
        if set(state) != set(self.layout.keys):
            raise KeyError("state keys do not match pool layout")
        _check_integer_roundtrip(self.layout, state, self.dtype)
        staged = self.storage.open_row(index)
        self.layout.flatten_into(state, staged)
        self.storage.commit_row(index, staged)

    def as_state(self, index: int, copy: bool = False) -> dict[str, np.ndarray]:
        """State dict of model ``index``.

        With ``copy=False`` the float entries are zero-copy views into
        the buffer row — O(1) metadata, safe to hand to
        ``load_state_dict`` (which copies) but not to mutate in place.
        """
        return self.layout.unflatten(self.storage.row(index), copy=copy)

    def rows(self) -> list[np.ndarray]:
        """All pool members as flat ``(P,)`` rows, read in shard-aligned
        ``row_block`` spans: live views on local storages, one fetch per
        shard (not per row) on remote ones."""
        k, p = self.storage.shape
        block_rows = max(1, _block_budget() // max(1, p * self.dtype.itemsize))
        spans = iter_row_spans(k, block_rows, self.storage.shard_boundaries())
        return [row for span in spans for row in self.storage.row_block(*span)]

    def states(self, copy: bool = False) -> list[dict[str, np.ndarray]]:
        """All pool members as state dicts over :meth:`rows` (views unless ``copy``)."""
        return [self.layout.unflatten(row, copy=copy) for row in self.rows()]

    # -- similarity (CoModelSel, Section III-B1) ---------------------------
    def _mask_info(
        self, param_keys: Iterable[str] | None
    ) -> tuple[np.ndarray, bool, int]:
        """Column mask, whether it actually masks, and masked width."""
        mask = self.layout.mask(param_keys)
        masked = not mask.all()
        p_eff = int(mask.sum()) if masked else self.num_scalars
        return mask, masked, p_eff

    def _rows_f64(
        self, start: int, stop: int, mask: np.ndarray, masked: bool
    ) -> np.ndarray:
        """Float64 cast of rows ``start:stop`` restricted to ``mask``.

        Reads through the storage row protocol: shard-local spans are
        zero-copy views, cross-shard spans bounded gathered copies —
        either way the cast produces the same contiguous float64 block
        on every backend (the cross-backend bitwise guarantee).
        """
        block = self.storage.row_block(start, stop)
        if masked:
            block = block[:, mask]
        return np.asarray(block, dtype=np.float64)

    def euclidean_matrix(
        self,
        param_keys: Iterable[str] | None = None,
        block_rows: int | None = None,
    ) -> np.ndarray:
        """Pairwise ``(K, K)`` negative euclidean distance of the pool.

        Explicit difference blocks — cancellation-safe, unlike the
        ``‖x‖²+‖y‖²-2x·y`` expansion a Gram would give, which loses all
        precision when pool members are near-identical (exactly the
        converged-pool regime FedCross ends in).  The float64
        temporaries are produced per block pair of ``block_rows`` rows
        (default: sized to the module's temp budget), so no float64
        copy of the whole pool exists.  For a fixed block size the
        result is a pure function of the data (deterministic, bitwise
        identical across storage backends; the default block size
        depends only on (K, P)); *across* block sizes the P-axis
        reduction may differ by the last ulp (SIMD summation order
        varies with operand shape/alignment), so exact
        cross-block-size equality is deliberately not promised — unlike
        :meth:`cross_aggregate`, whose elementwise math is bit-identical
        for every block size.
        """
        k = len(self)
        mask, masked, p_eff = self._mask_info(param_keys)
        if block_rows is None:
            # (b, b, P) difference tensor dominates: b^2 * P * 8 bytes.
            block_rows = max(1, int((_block_budget() / (max(1, p_eff) * 8)) ** 0.5))
        out = np.empty((k, k))
        for i0, i1 in iter_row_spans(k, block_rows):
            vi = self._rows_f64(i0, i1, mask, masked)
            for j0, j1 in iter_row_spans(k, block_rows):
                vj = vi if j0 == i0 else self._rows_f64(j0, j1, mask, masked)
                # einsum reduces over P only, the same inner summation
                # as the per-row loop — blocking either axis is exact.
                diff = vi[:, None, :] - vj[None, :, :]
                out[i0:i1, j0:j1] = -np.sqrt(np.einsum("bkp,bkp->bk", diff, diff))
        return out

    # -- aggregation (CrossAggr / GlobalModelGen, Sections III-B2/B3) ------
    def cross_aggregate(
        self,
        co_indices: np.ndarray,
        alpha: float,
        block_rows: int | None = None,
        out: "PoolBuffer | None" = None,
    ) -> "PoolBuffer":
        """Pool ``alpha * M + (1 - alpha) * M[co]`` (Algorithm 1 line 13).

        ``co_indices`` may be ``(K,)`` — one collaborator per model —
        or ``(K, num)`` for the propeller variant, where each model
        fuses with the *uniform mean* of its propeller set.  Integer
        fields are carried from each model's own row, never averaged.

        ``out`` is the buffer written: ``None`` allocates one on this
        buffer's storage; ``self`` blends in place, in
        :func:`blend_schedule` order, so no third pool exists — except
        on a storage that cannot (``distributed``), which is given a
        fresh buffer instead.  The result is the buffer returned.

        Every row goes through :func:`blend_row`, run by the storage's
        :meth:`~repro.core.storage.PoolStorage.blend_into` where the
        rows live: local storages read their own and collaborator rows
        as views and write each output row in place, so peak temporary
        memory is two ``(P,)`` float64 rows (and, in place, a spare row
        per cycle of ``co``).  A storage that declines (``distributed``:
        replicated buffers, propeller sets, host spans over the budget)
        is blended in row blocks of ``block_rows`` (default: sized to
        the module's temp budget) — own rows read, collaborator rows
        gathered, the output block staged and written — walking
        :func:`iter_row_spans` with the shard boundaries.  The
        per-element arithmetic is the literal float64
        ``alpha * m + (1 - alpha) * c`` on every path.
        """
        co_indices = np.asarray(co_indices, dtype=np.int64)
        if co_indices.ndim not in (1, 2):
            raise ValueError("co_indices must be 1- or 2-dimensional")
        k, p = self.storage.shape
        if len(co_indices) != k:
            raise ValueError(f"{len(co_indices)} collaborator rows for a pool of K={k}")
        if out is not None and out is not self:
            raise ValueError("out must be None (a new pool) or this pool (in place)")
        dtype = self.dtype
        # (K,) -> one collaborator row per model; (K, num) -> its columns
        # in propeller order (blend_row tells the two apart by type).
        columns = co_indices.T if co_indices.ndim == 2 else None
        if block_rows is None:
            # Per row: the output block plus one gathered block per column.
            held = 2 if columns is None else 1 + len(columns)
            block_rows = max(1, _block_budget() // max(1, held * p * dtype.itemsize))
        int_cols = np.flatnonzero(self.layout.integer_mask())
        if out is self and self.storage.blend_into(
            self.storage, co_indices, alpha, int_cols, block_rows
        ):
            return self
        storage = self.storage.allocate_like((k, p), dtype=dtype)
        if self.storage.blend_into(storage, co_indices, alpha, int_cols, block_rows):
            return PoolBuffer(self.layout, storage)
        scratch = np.empty((2, p))
        for start, stop in iter_row_spans(
            k, block_rows, self.storage.shard_boundaries()
        ):
            src = self.storage.row_block(start, stop)
            if columns is None:
                collab = self.storage.gather_rows(co_indices[start:stop])
            else:
                collab = list(
                    zip(*(self.storage.gather_rows(c[start:stop]) for c in columns))
                )
            fused = np.empty((stop - start, p), dtype=dtype)
            for r in range(stop - start):
                blend_row(fused[r], src[r], collab[r], alpha, int_cols, scratch)
            storage.write_rows(start, fused)
        return PoolBuffer(self.layout, storage)

    def mean_state(
        self, weights: Iterable[float] | None = None, *, precise: bool = True
    ) -> np.ndarray:
        """Weighted average of the pool as a fresh ``(P,)`` row (line 17).

        ``None`` means uniform — the paper's ``GlobalModelGen``.  The
        row has the buffer dtype and owns its memory.  Integer fields
        are taken from row 0 (the "first state"), exactly like the
        dict-based ``weighted_average`` oracle of the tests.

        ``precise=True`` accumulates in float64, sequentially in pool
        order — bit-for-bit the dict reference, one row at a time, run
        by the storage where the rows live
        (:meth:`~repro.core.storage.PoolStorage.accumulate_rows`: on
        ``distributed`` storage each host adds its span and passes the
        accumulator on), so every backend produces the same bits.
        ``precise=False`` reduces in the buffer dtype — a BLAS matvec
        per budget-sized row block (one block, hence one matvec, for
        in-RAM pools): ~6× faster at K=50 and accurate to float32
        rounding, the right trade for FedAvg-family aggregation where
        the inputs are float32 to begin with.  Its rows are partitioned
        purely by the byte budget, never the shard layout, so for a
        fixed ``REPRO_POOL_BLOCK_BYTES`` every storage backend produces
        the bitwise-identical state.
        """
        k = len(self)
        dtype = self.dtype
        if weights is None:
            w = np.full(k, 1.0 / k)
        else:
            w = np.asarray(list(weights), dtype=np.float64)
            if len(w) != k:
                raise ValueError("weights and pool size mismatch")
            total = w.sum()
            if total <= 0:
                raise ValueError("weights must have a positive sum")
            w = w / total
        p = self.num_scalars
        if precise:
            acc = np.zeros(p)
            self.storage.accumulate_rows(w, acc)
            row = acc.astype(dtype)
        else:
            w_low = w.astype(dtype, copy=False)
            block_rows = max(
                1, _block_budget() // max(1, p * np.dtype(dtype).itemsize)
            )
            spans = list(iter_row_spans(k, block_rows))
            if len(spans) == 1:
                # One budget-sized block: the single BLAS matvec of the
                # in-RAM fast path, unchanged.
                row = np.asarray(w_low @ self.storage.row_block(0, k), dtype=dtype)
            else:
                acc_low = np.zeros(p, dtype=dtype)
                for b0, b1 in spans:
                    acc_low += w_low[b0:b1] @ self.storage.row_block(b0, b1)
                row = acc_low
        int_mask = self.layout.integer_mask()
        if int_mask.any():
            row[int_mask] = self.storage.row(0)[int_mask]
        return row

    # -- diagnostics -------------------------------------------------------
    def dispersion(
        self,
        param_keys: Iterable[str] | None = None,
        block_rows: int | None = None,
    ) -> float:
        """RMS distance of pool members from their mean (Lemma 3.4).

        Two streamed passes in row blocks — mean accumulation, then
        centered norms — so the computation stays cancellation-safe
        (explicit differences, never the ``‖v‖² − K‖mean‖²`` expansion)
        without ever holding a float64 copy of the whole masked pool.
        """
        k = len(self)
        if k == 0:
            return 0.0
        mask, masked, p_eff = self._mask_info(param_keys)
        if block_rows is None:
            block_rows = max(1, _block_budget() // max(1, 2 * p_eff * 8))
        mean = np.zeros(p_eff)
        for b0, b1 in iter_row_spans(k, block_rows):
            mean += self._rows_f64(b0, b1, mask, masked).sum(axis=0)
        mean /= k
        sq = np.empty(k)
        for b0, b1 in iter_row_spans(k, block_rows):
            centered = self._rows_f64(b0, b1, mask, masked) - mean
            sq[b0:b1] = np.einsum("kp,kp->k", centered, centered)
        return float(np.sqrt(sq.mean()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoolBuffer(K={self.num_models}, P={self.num_scalars}, "
            f"dtype={self.dtype})"
        )
