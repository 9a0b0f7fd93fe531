"""Pluggable storage backends for the ``(K, P)`` pool matrix.

:class:`repro.core.pool.PoolBuffer` expresses every Algorithm 1 server
step as array operations on one ``(K, P)`` matrix; *where that matrix
lives* is this module's concern.  A :class:`PoolStorage` backend owns
the allocation and exposes it through a small row-oriented protocol, so
the pool engine — and everything layered on it — is agnostic to the
physical medium:

``dense``
    :class:`DenseStorage`, a plain in-memory ``np.ndarray`` — today's
    default and the fastest option while the pool fits in RAM.
``memmap``
    :class:`MemmapStorage`, an ``np.memmap`` over a temporary file —
    keeps the *resident* pool buffers off the heap at the cost of
    page-cache traffic.  Set ``REPRO_MEMMAP_DIR`` to place the backing
    files on a specific filesystem (e.g. fast local scratch).
``sharded``
    :class:`ShardedStorage`, the ``(K, P)`` matrix split into
    contiguous **row shards**, each shard itself a ``dense`` or
    ``memmap`` storage (the ``placement`` option).  No operation on a
    sharded pool ever requires the full matrix as one allocation: the
    pool engine reads/writes through the row protocol below, serving
    shard-local row blocks as zero-copy views and cross-shard blocks
    as bounded gathered copies.  Shard count comes from the ``shards``
    option (``FLConfig.shards`` / ``--shards``; default
    ``REPRO_POOL_SHARDS`` or 4) — the single-node rehearsal of the
    multi-node pool layout the ROADMAP's millions-of-clients north
    star needs, and the protocol seam a distributed/GPU backend slots
    in behind.
``distributed``
    :class:`repro.distributed.storage.DistributedStorage` (lazily
    registered), the multi-node realisation of that seam: each
    contiguous row shard lives in a ``ShardHost`` worker process and
    the coordinator proxies the row protocol over socket RPC —
    Gram dots and the CrossAggr blend run on the hosts, only reduced
    results, indices and bounded row blocks cross the wire.  Host count comes from the
    ``hosts`` option (``FLConfig.hosts`` / ``--hosts``; default
    ``REPRO_POOL_HOSTS`` or 2).

Row protocol
------------
Beyond ``allocate``/``from_array``/``array``/``clone``, every backend
serves bounded row access used by the pool engine's blocked
operations (base-class defaults delegate to ``array``, so pre-existing
third-party backends keep working unchanged):

* :meth:`PoolStorage.row` — one writable row (client uploads land
  directly in their owning shard through this);
* :meth:`PoolStorage.row_block` — rows ``[start, stop)`` for reading
  (view where the medium allows, copy otherwise);
* :meth:`PoolStorage.write_rows` / :meth:`PoolStorage.fill_rows` —
  blocked writes;
* :meth:`PoolStorage.gather_rows` — arbitrary row gathers
  (cross-aggregation collaborator rows);
* :meth:`PoolStorage.shard_boundaries` — the row spans owned by each
  shard, consumed by the pool engine's shard-aware block iterator.

``cross_aggregate``, the similarity paths (blocked Gram cosine,
blocked euclidean differences, ``similarity_to``), the ``dispersion``
diagnostic and both ``mean_state`` modes all operate in bounded row
blocks under the ``REPRO_POOL_BLOCK_BYTES`` budget — no pool operation
materialises a float64 (or, for sharded pools, even a buffer-dtype)
copy of the whole matrix, so full server rounds run out-of-core; the
CI bench smoke and the sharded large-K stress test assert the
peak-allocation bounds.  The incremental
:class:`repro.core.gram.GramTracker` keeps its one pool-sized float64
object — the ``(K, p_eff)`` image of the masked rows — in storage
obtained from :meth:`PoolStorage.allocate_like`, so it lives on the
pool's own medium, and answers every query with pure ``(K, K)``
algebra.

Backends register themselves on :data:`POOL_BACKENDS` via
:func:`register_backend`; third-party backends (GPU arrays,
distributed segments) only need to subclass :class:`PoolStorage` and
register under a new name, then become selectable through
``FLConfig.backend`` and the ``--backend`` CLI flag.

All backends must be *bit-transparent*: the same sequence of array
operations over the same values must produce identical results
regardless of backend (the cross-backend equivalence matrix in
``tests/integration/test_backend_matrix.py`` enforces this for dense,
memmap and sharded end to end).
"""

from __future__ import annotations

import bisect
import os
import tempfile
import weakref
from typing import Iterable, Sequence

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "PoolStorage",
    "DenseStorage",
    "MemmapStorage",
    "ShardedStorage",
    "POOL_BACKENDS",
    "register_backend",
    "resolve_backend",
    "available_backends",
]


POOL_BACKENDS = Registry("pool backend", error_type=ValueError)


def register_backend(name: str):
    """Class decorator registering a :class:`PoolStorage` backend."""
    return POOL_BACKENDS.register(name)


def resolve_backend(name: str) -> type["PoolStorage"]:
    """Backend class registered under ``name`` (case-insensitive).

    Unknown names raise :class:`ValueError` naming every registered
    backend, so ``--backend`` typos fail with the fix in the message
    instead of a bare ``KeyError``.
    """
    return POOL_BACKENDS.resolve(name)


def available_backends() -> list[str]:
    return POOL_BACKENDS.available()


class PoolStorage:
    """Owner of one 2-D array; subclasses choose the physical medium.

    The core contract is small: allocate, adopt an existing array,
    expose the live ``array``, and clone.  On top of it sits the row
    protocol (:meth:`row`, :meth:`row_block`, :meth:`write_rows`,
    :meth:`gather_rows`, :meth:`fill_rows`, :meth:`shard_boundaries`)
    whose base-class defaults simply index ``array`` — single-medium
    backends inherit them for free, while segmented backends like
    :class:`ShardedStorage` override them so no caller ever needs the
    whole matrix as one allocation.
    """

    name = "abstract"

    @classmethod
    def allocate(cls, shape: tuple[int, int], dtype=np.float32) -> "PoolStorage":
        """Zero-initialised storage of ``shape``/``dtype``."""
        raise NotImplementedError

    @classmethod
    def from_array(cls, array: np.ndarray) -> "PoolStorage":
        """Storage holding ``array``'s values (may adopt without copy)."""
        raise NotImplementedError

    @property
    def array(self) -> np.ndarray:
        """The live backing array (segmented backends may return a copy)."""
        raise NotImplementedError

    def clone(self) -> "PoolStorage":
        """Independent storage with the same values, same backend."""
        return type(self).from_array(np.array(self.array, copy=True))

    def allocate_like(self, shape: tuple[int, int], dtype=np.float32) -> "PoolStorage":
        """Fresh zeroed storage preserving this instance's configuration.

        Derived pools (``cross_aggregate`` outputs, copies) and the
        Gram tracker's float64 row image allocate through the
        *instance* so option-carrying backends (shard count/placement)
        propagate; the default just calls the class :meth:`allocate`.
        """
        return type(self).allocate(shape, dtype=dtype)

    # -- row protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(K, P)`` without materialising anything."""
        return tuple(self.array.shape)  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    def row(self, index: int) -> np.ndarray:
        """Writable 1-D view of row ``index`` (lives on its shard)."""
        return self.array[index]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` for reading.

        A zero-copy view where the medium allows (single-medium
        backends, shard-local spans of a sharded pool); a bounded
        contiguous copy otherwise.  Callers must not mutate the result.
        """
        return self.array[start:stop]

    def write_rows(self, start: int, values: np.ndarray) -> None:
        """Write the block ``values`` into rows ``start:start+len(values)``."""
        self.array[start : start + values.shape[0]] = values

    def gather_rows(self, indices: np.ndarray) -> np.ndarray:
        """Contiguous copy of the (arbitrary) ``indices`` rows, in order."""
        return self.array[np.asarray(indices, dtype=np.int64)]

    def fill_rows(self, values: np.ndarray) -> None:
        """Broadcast one row's ``values`` over every row."""
        self.array[:] = values

    def shard_boundaries(self) -> tuple[int, ...]:
        """Row-span fenceposts ``(0, ..., K)`` of the physical shards.

        Single-medium backends are one shard: ``(0, K)``.  The pool
        engine's shard-aware block iterator splits shard-local
        operations on these.
        """
        return (0, self.shape[0])

    def open_row(self, index: int) -> np.ndarray:
        """Writable staging buffer for a full overwrite of row ``index``.

        Paired with :meth:`commit_row`: the pool engine stages a row's
        new contents here, then commits the finished row in one call.
        Local backends hand out the live row view (commit is then a
        no-op), so the pair costs nothing single-node; remote backends
        return scratch and ship the committed row in **one** message
        instead of per-field writes.
        """
        return self.row(index)

    def commit_row(self, index: int, staged: np.ndarray) -> None:
        """Publish a row staged via :meth:`open_row` (no-op when the
        staging buffer is the live row view)."""
        row = self.row(index)
        if staged is not row:  # pragma: no cover - defensive for 3rd parties
            row[:] = staged

    #: Whether this storage answers Gram queries itself
    #: (:meth:`gram_rows`).  Local media do not: the tracker images
    #: their rows in float64 and dots them in process.
    reduces_gram = False

    def gram_rows(self, rows: np.ndarray, mask: "np.ndarray | None") -> np.ndarray:
        """Rows ``rows`` of the masked matrix's Gram, reduced *where the
        rows live* (only when :attr:`reduces_gram`).

        The ``(len(rows), K)`` float64 result must be bitwise the local
        loop's — one contiguous float64 1-D ``np.dot`` per pair over
        the masked values (see :meth:`repro.core.gram.GramTracker
        .update_row`).  A :class:`~repro.core.gram.GramTracker` on such
        a storage only *marks* rows on upload and asks for all of them
        in one call when its Gram is next read.
        """
        raise NotImplementedError

    def blend_into(
        self, dst: "PoolStorage", co: np.ndarray, alpha: float,
        int_cols: np.ndarray, block_rows: int,
    ) -> bool:
        """Optional hook: write ``alpha * M + (1 - alpha) * M[co]`` into
        ``dst`` where the rows live, every element through
        :func:`repro.core.pool.blend_row`.  Returns ``False`` (the
        default) to decline; ``cross_aggregate`` then runs the blocked
        row protocol."""
        return False

    def flush(self) -> None:
        """Force dirty state to the backing medium (no-op by default)."""

    @classmethod
    def _reject_options(cls, options: dict) -> None:
        if options:
            raise ValueError(
                f"pool backend {cls.name!r} accepts no storage options, "
                f"got {sorted(options)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, p = self.shape
        return f"{type(self).__name__}(shape=({k}, {p}), dtype={self.dtype})"


@register_backend("dense")
class DenseStorage(PoolStorage):
    """In-memory ``np.ndarray`` storage — the default backend."""

    def __init__(self, array: np.ndarray) -> None:
        self._array = np.asarray(array)

    @classmethod
    def allocate(cls, shape, dtype=np.float32, **options) -> "DenseStorage":
        cls._reject_options(options)
        return cls(np.zeros(shape, dtype=dtype))

    @classmethod
    def from_array(cls, array: np.ndarray) -> "DenseStorage":
        # Adopts without copying: PoolBuffer operations hand freshly
        # computed arrays here, and copying would double peak memory.
        return cls(array)

    @property
    def array(self) -> np.ndarray:
        return self._array


def _remove_file(path: str) -> None:
    try:
        os.remove(path)
    except OSError:  # already gone / directory vanished
        pass


@register_backend("memmap")
class MemmapStorage(PoolStorage):
    """``np.memmap`` storage over a temporary file.

    The backing file is created with :func:`tempfile.mkstemp` (honouring
    ``REPRO_MEMMAP_DIR``) and removed by a :func:`weakref.finalize`
    callback when the storage is garbage-collected, so pools never leak
    files across rounds even though aggregation allocates fresh storage.
    """

    def __init__(self, array: np.memmap, path: str) -> None:
        self._array = array
        self.path = path
        self._finalizer = weakref.finalize(self, _remove_file, path)

    @classmethod
    def _create(cls, shape, dtype) -> "MemmapStorage":
        directory = os.environ.get("REPRO_MEMMAP_DIR") or None
        fd, path = tempfile.mkstemp(prefix="repro-pool-", suffix=".mm", dir=directory)
        os.close(fd)
        array = np.memmap(path, dtype=np.dtype(dtype), mode="w+", shape=tuple(shape))
        return cls(array, path)

    @classmethod
    def allocate(cls, shape, dtype=np.float32, **options) -> "MemmapStorage":
        cls._reject_options(options)
        # A fresh w+ memmap is zero-filled by the OS already.
        return cls._create(shape, dtype)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "MemmapStorage":
        array = np.asarray(array)
        storage = cls._create(array.shape, array.dtype)
        storage._array[:] = array
        return storage

    @property
    def array(self) -> np.memmap:
        return self._array

    def flush(self) -> None:
        """Force dirty pages to the backing file."""
        self._array.flush()


# Default shard count when neither the ``shards`` option nor the
# ``REPRO_POOL_SHARDS`` environment override names one.
_DEFAULT_SHARDS = 4


def _even_boundaries(k: int, shards: int) -> tuple[int, ...]:
    """Fenceposts of ``shards`` near-equal contiguous row spans of ``k``."""
    shards = max(1, min(int(shards), max(1, k)))
    return tuple(round(s * k / shards) for s in range(shards + 1))


@register_backend("sharded")
class ShardedStorage(PoolStorage):
    """The ``(K, P)`` matrix split into contiguous row shards.

    Parameters (as ``allocate``/``from_array`` options, wired through
    ``FLConfig.shards`` / ``--shards``):

    ``shards``
        Shard count (clamped to ``[1, K]``; rows are split into
        near-equal contiguous spans).  Defaults to the
        ``REPRO_POOL_SHARDS`` environment variable, then 4.
    ``placement``
        Backend name each shard is stored on — ``"dense"`` (default)
        or ``"memmap"`` (pools beyond RAM; this is the layout the
        large-K stress test drives).  Any registered single-medium
        backend qualifies; ``"sharded"`` itself is rejected.

    The full matrix never exists as one allocation: ``array`` is a
    *gathered, read-only copy* for diagnostics/tests, and every pool
    operation goes through the row protocol — ``row``/``row_block``
    serve shard-local access as zero-copy views into the owning shard,
    cross-shard blocks as bounded gathered copies.  Because a gathered
    block holds exactly the same values in the same contiguous layout
    a single-medium backend would serve, every blocked pool operation
    is **bit-identical** to its dense result (the equivalence-matrix
    suite and the sharded property tests pin this).

    Derived storages (``clone``, ``allocate_like``) keep the shard
    count and placement, so cross-aggregated pools stay sharded the
    same way round after round.
    """

    def __init__(self, shards: Sequence[PoolStorage], boundaries: Sequence[int],
                 requested_shards: int, placement: str) -> None:
        if len(boundaries) != len(shards) + 1:
            raise ValueError("boundaries must have one more entry than shards")
        self._shards = list(shards)
        self._boundaries = tuple(int(b) for b in boundaries)
        self._requested_shards = int(requested_shards)
        self._placement = placement
        p = self._shards[0].shape[1] if self._shards else 0
        self._shape = (self._boundaries[-1], p)

    # -- construction ------------------------------------------------------
    @classmethod
    def _resolve_options(cls, shards, placement) -> tuple[int, str]:
        if shards is None:
            shards = int(os.environ.get("REPRO_POOL_SHARDS") or _DEFAULT_SHARDS)
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        placement = str(placement).lower()
        shard_cls = resolve_backend(placement)
        if issubclass(shard_cls, ShardedStorage):
            raise ValueError("sharded placement cannot itself be 'sharded'")
        return shards, placement

    @classmethod
    def allocate(
        cls, shape, dtype=np.float32, *, shards: int | None = None,
        placement: str = "dense", **options,
    ) -> "ShardedStorage":
        cls._reject_options(options)
        shards, placement = cls._resolve_options(shards, placement)
        k, p = int(shape[0]), int(shape[1])
        bounds = _even_boundaries(k, shards)
        shard_cls = resolve_backend(placement)
        pieces = [
            shard_cls.allocate((bounds[s + 1] - bounds[s], p), dtype=dtype)
            for s in range(len(bounds) - 1)
        ]
        return cls(pieces, bounds, shards, placement)

    @classmethod
    def from_array(
        cls, array: np.ndarray, *, shards: int | None = None,
        placement: str = "dense",
    ) -> "ShardedStorage":
        array = np.asarray(array)
        storage = cls.allocate(array.shape, dtype=array.dtype,
                               shards=shards, placement=placement)
        for (start, stop), piece in zip(storage.shard_spans(), storage._shards):
            piece.array[:] = array[start:stop]
        return storage

    def allocate_like(self, shape, dtype=np.float32) -> "ShardedStorage":
        return type(self).allocate(
            shape, dtype=dtype,
            shards=self._requested_shards, placement=self._placement,
        )

    def clone(self) -> "ShardedStorage":
        pieces = [piece.clone() for piece in self._shards]
        return type(self)(pieces, self._boundaries,
                          self._requested_shards, self._placement)

    # -- shard introspection ----------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def placement(self) -> str:
        """Backend name each shard lives on (``dense`` / ``memmap``)."""
        return self._placement

    @property
    def shards(self) -> tuple[PoolStorage, ...]:
        """The per-shard storages, in row order."""
        return tuple(self._shards)

    def shard_boundaries(self) -> tuple[int, ...]:
        return self._boundaries

    def shard_spans(self) -> list[tuple[int, int]]:
        """``(start, stop)`` row span of each shard, in order."""
        b = self._boundaries
        return [(b[s], b[s + 1]) for s in range(len(b) - 1)]

    def _locate(self, index: int) -> tuple[int, int]:
        """(shard number, row offset inside that shard) of global row."""
        k = self._shape[0]
        if not 0 <= index < k:
            raise IndexError(f"row {index} out of range for pool of {k}")
        s = bisect.bisect_right(self._boundaries, index) - 1
        # Empty leading spans share a boundary value; step to the span
        # that actually contains the row.
        while self._boundaries[s + 1] <= index:  # pragma: no cover - defensive
            s += 1
        return s, index - self._boundaries[s]

    # -- row protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._shards[0].dtype if self._shards else np.dtype(np.float32)

    @property
    def array(self) -> np.ndarray:
        """Gathered **read-only copy** of the whole matrix.

        Diagnostic/test convenience only — O(K·P) memory, and writes do
        not reach the shards (the copy is flagged unwritable so silent
        divergence is impossible).  Library code uses the row protocol.
        """
        out = np.empty(self._shape, dtype=self.dtype)
        for (start, stop), piece in zip(self.shard_spans(), self._shards):
            out[start:stop] = piece.array
        out.setflags(write=False)
        return out

    def row(self, index: int) -> np.ndarray:
        s, offset = self._locate(index)
        return self._shards[s].array[offset]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        start, stop = int(start), int(stop)
        s, offset = self._locate(start) if stop > start else (0, 0)
        if stop <= start:
            return np.empty((0, self._shape[1]), dtype=self.dtype)
        if stop <= self._boundaries[s + 1]:
            # Shard-local span: zero-copy view into the owning shard.
            return self._shards[s].array[offset : offset + (stop - start)]
        out = np.empty((stop - start, self._shape[1]), dtype=self.dtype)
        for (b0, b1), piece in zip(self.shard_spans(), self._shards):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                out[lo - start : hi - start] = piece.array[lo - b0 : hi - b0]
        return out

    def write_rows(self, start: int, values: np.ndarray) -> None:
        stop = start + values.shape[0]
        for (b0, b1), piece in zip(self.shard_spans(), self._shards):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                piece.array[lo - b0 : hi - b0] = values[lo - start : hi - start]

    def gather_rows(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.shape[0], self._shape[1]), dtype=self.dtype)
        for n, j in enumerate(indices):
            out[n] = self.row(int(j))
        return out

    def fill_rows(self, values: np.ndarray) -> None:
        for piece in self._shards:
            piece.array[:] = values

    def flush(self) -> None:
        for piece in self._shards:
            piece.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, p = self._shape
        return (
            f"ShardedStorage(shape=({k}, {p}), dtype={self.dtype}, "
            f"shards={self.num_shards}, placement={self._placement!r})"
        )


# The socket-RPC multi-node backend registers itself on import of
# repro.distributed.storage; the lazy entry makes ``distributed``
# resolvable (CLI validation, FLConfig.backend) without importing the
# subsystem until it is actually selected.
POOL_BACKENDS.lazy("distributed", "repro.distributed.storage")
