"""Pluggable storage backends for the ``(K, P)`` pool matrix.

:class:`repro.core.pool.PoolBuffer` expresses every Algorithm 1 server
step as array operations on one ``(K, P)`` matrix; *where that matrix
lives* is this module's concern.  A :class:`PoolStorage` backend owns
the allocation and exposes it through a small row-oriented protocol, so
the pool engine — and everything layered on it — is agnostic to the
physical medium.  Two classes implement the protocol: one for every
local medium and one for shard-host processes.

``sharded``
    :class:`ShardedStorage`, the ``(K, P)`` matrix split into
    contiguous **row shards**, each a plain ``np.ndarray``
    (``placement="dense"``) or an ``np.memmap`` over its own temporary
    file (``placement="memmap"``; ``REPRO_MEMMAP_DIR`` places the
    files, which are removed when their arrays are collected).  No
    operation ever needs the full matrix as one allocation: shard-local
    row spans are served as zero-copy views, cross-shard ones as
    bounded gathered copies.  Shard count comes from the ``shards``
    option (``FLConfig.shards`` / ``--shards``; default
    ``REPRO_POOL_SHARDS`` or 4).
``dense`` / ``memmap``
    :class:`DenseStorage` / :class:`MemmapStorage`, ``sharded`` at one
    shard of that medium: the in-RAM default, and one file-backed
    matrix that keeps the resident pool buffers off the heap at the
    cost of page-cache traffic.

Media and their free lists
--------------------------
A shard lives on the heap, in a temporary file (``memmap``) or in a
POSIX shared-memory segment (``shm``).  The third is no placement a
user names: a server whose execution backend declares
``legs_map_rows`` (``process``) passes :func:`shared_medium` as the
``medium`` option of its pool and upload buffers and takes its global
rows from it, so worker processes train in those rows in place,
addressed by :func:`row_handle` / :func:`open_handle` (a ``memmap``
server's medium is its files, already shared by path).  The coordinator
maps each file or segment whole; a worker maps only the pages of the
row it opens, until the row is dropped.  Storages
derived from one another (``allocate_like``, ``clone``) share one
medium object, their *family*: a file or segment whose array and every
view of it are gone returns to the family's free list, the next
allocation of the same size takes it zeroed, and the family removes
what is left when it is collected (or at interpreter exit) — so a
round's Gram image and global row reuse the last round's instead of
creating and unlinking new ones (FedCross's pool and upload buffer are
not reallocated at all: they swap roles each round).  Coordinator-private scratch stays
on the heap: ``allocate_like(..., private=True)`` (the Gram tracker's
float64 image, or above ``gram.IMAGE_BUDGET_BYTES`` its two float64
scratch rows) leaves shared memory for the heap, as do the
coordinator's other temporaries.
``distributed``
    :class:`repro.distributed.storage.DistributedStorage` (lazily
    registered): each contiguous row shard lives in a ``ShardHost``
    worker process and the coordinator proxies the row protocol over
    socket RPC — Gram dots and the CrossAggr blend run on the hosts,
    only reduced results, indices and bounded row blocks cross the
    wire.  Host count comes from the ``hosts`` option
    (``FLConfig.hosts`` / ``--hosts``; default ``REPRO_POOL_HOSTS`` or 2).

Row protocol
------------
Beyond ``allocate``/``from_array``/``array``/``clone``, every backend
serves bounded row access used by the pool engine's blocked
operations:

* :meth:`PoolStorage.row` — one row (client uploads land directly in
  their owning shard through this on local storages);
* :meth:`PoolStorage.row_block` — rows ``[start, stop)`` for reading
  (view where the medium allows, copy otherwise);
* :meth:`PoolStorage.write_rows` / :meth:`PoolStorage.fill_rows` —
  blocked writes;
* :meth:`PoolStorage.gather_rows` — arbitrary row gathers
  (cross-aggregation collaborator rows);
* :meth:`PoolStorage.accumulate_rows` — the precise ``mean_state``
  arithmetic, a float64 weighted sum of every row in pool order, run
  where the rows live;
* :meth:`PoolStorage.shard_boundaries` — the row spans owned by each
  shard, consumed by the pool engine's shard-aware block iterator.

Every backend refuses an out-of-range request the same way, before
anything is read or written (:meth:`PoolStorage._check_rows`): a row is
valid when ``0 <= i < K``, a span when ``0 <= start <= stop <= K``
(empty spans are legal), and anything else raises :class:`IndexError`.

The blocked euclidean differences, the ``dispersion`` diagnostic and
the fast ``mean_state`` operate in bounded row blocks under the
``REPRO_POOL_BLOCK_BYTES`` budget; on local storages
``cross_aggregate`` (:meth:`PoolStorage.blend_into`) and the precise
``mean_state`` read one row view at a time into reused float64
``(P,)`` scratch — no pool operation materialises a float64 (or, for
sharded pools, even a buffer-dtype) copy of the whole matrix, so full
server rounds run out-of-core; the
CI bench smoke and the sharded large-K stress test assert the
peak-allocation bounds.  The incremental
:class:`repro.core.gram.GramTracker` keeps its one pool-sized float64
object — the ``(K, p_eff)`` image of the masked rows — in storage
obtained from :meth:`PoolStorage.allocate_like` (``private``: on the
pool's own medium, except that shared memory gives way to the heap),
and answers every query with pure ``(K, K)`` algebra; it is the only
code that computes a Gram or a cosine (``reduces_gram`` storages run
its dots where the rows live, through :meth:`PoolStorage.gram_rows`).

Backends register themselves on :data:`POOL_BACKENDS` via
:func:`register_backend`; a third-party backend implements
:class:`PoolStorage`, registers under a new name, and becomes
selectable through ``FLConfig.backend`` and the ``--backend`` CLI flag.

All backends must be *bit-transparent*: the same sequence of array
operations over the same values must produce identical results
regardless of backend (``tests/core/test_storage_conformance.py`` holds
every registered backend to ``dense`` op by op, and
``tests/integration/test_layer_products.py`` end to end).
"""

from __future__ import annotations

import bisect
import mmap
import os
import tempfile
import weakref
from typing import Sequence

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


POOL_BACKENDS = Registry("pool backend")


def register_backend(name: str):
    """Class decorator registering a :class:`PoolStorage` backend."""
    return POOL_BACKENDS.register(name)


def resolve_backend(name: str) -> type["PoolStorage"]:
    """Backend class registered under ``name`` (case-insensitive)."""
    return POOL_BACKENDS.resolve(name)


def available_backends() -> list[str]:
    return POOL_BACKENDS.available()


class PoolStorage:
    """The row protocol of one ``(K, P)`` matrix; subclasses choose
    where the rows live.

    The core contract is small: allocate, adopt an existing array,
    expose ``array``, and clone.  On top of it sits the row protocol
    (:meth:`row`, :meth:`row_block`, :meth:`write_rows`,
    :meth:`gather_rows`, :meth:`fill_rows`, :meth:`shard_boundaries`,
    :meth:`open_row`/:meth:`commit_row`), through which the pool engine
    does all its work, so no caller ever needs the whole matrix as one
    allocation.  Every row op checks its rows with :meth:`_check_rows`
    before it reads or writes anything.
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
        raise NotImplementedError

    def allocate_like(
        self, shape: tuple[int, int], dtype=np.float32, private: bool = False
    ) -> "PoolStorage":
        """Fresh zeroed storage preserving this instance's configuration.

        Derived pools (``cross_aggregate`` outputs, copies) and the
        Gram tracker's float64 rows (its ``(K, p_eff)`` image, or over
        its byte budget two scratch rows) allocate through the
        *instance* so option-carrying backends (shard count/placement)
        propagate.  ``private``: scratch only this process reads (the
        Gram tracker's rows), kept on the heap rather than in shared
        memory.
        """
        raise NotImplementedError

    # -- row protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(K, P)`` without materialising anything."""
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        raise NotImplementedError

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` (a writable view into its shard where one exists)."""
        raise NotImplementedError

    def row_block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` for reading: a zero-copy view where the
        medium allows, a bounded copy otherwise.  Do not mutate it."""
        raise NotImplementedError

    def write_rows(self, start: int, values: np.ndarray) -> None:
        """Write the block ``values`` into rows ``start:start+len(values)``."""
        raise NotImplementedError

    def gather_rows(self, indices: np.ndarray) -> np.ndarray:
        """Contiguous copy of the (arbitrary) ``indices`` rows, in order."""
        raise NotImplementedError

    def fill_rows(self, values: np.ndarray) -> None:
        """Broadcast one row's ``values`` over every row."""
        raise NotImplementedError

    def accumulate_rows(self, w: np.ndarray, acc: np.ndarray) -> None:
        """``acc += w[i] * row i`` in float64 for every row, one row at a
        time in pool order — the precise ``mean_state``, bitwise the
        dict reference's sequential sum.  ``acc`` is a ``(P,)`` float64
        row, updated in place."""
        raise NotImplementedError

    def row_ref(self, index: int) -> np.ndarray:
        """Row ``index`` for a reader that may never need its bytes (a
        dispatched model): the row itself here; a remote storage hands
        out a stand-in fetched on its first ``np.asarray``."""
        return self.row(index)

    def shard_boundaries(self) -> tuple[int, ...]:
        """Row-span fenceposts ``(0, ..., K)`` of the physical shards,
        on which the pool engine splits shard-local operations."""
        raise NotImplementedError

    def open_row(self, index: int) -> np.ndarray:
        """Writable staging buffer for a full overwrite of row ``index``.

        Paired with :meth:`commit_row`: the pool engine stages a row's
        new contents here, then commits the finished row in one call.
        Local backends hand out the live row view (commit is then a
        no-op), so the pair costs nothing single-node; remote backends
        return scratch and ship the committed row in **one** message
        instead of per-field writes.
        """
        raise NotImplementedError

    def commit_row(self, index: int, staged: np.ndarray) -> None:
        """Publish a row staged via :meth:`open_row`."""
        raise NotImplementedError

    def _check_rows(self, lo: int, hi: int) -> None:
        """Refuse rows ``[lo, hi)`` unless ``0 <= lo <= hi <= K``: row
        ``i`` is checked as ``[i, i + 1)``, a span as itself, a gather
        as ``[min, max + 1)`` of its indices."""
        k = self.shape[0]
        if not 0 <= lo <= hi <= k:
            raise IndexError(f"rows [{lo}, {hi}) out of range for a pool of K={k} rows")

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
        ``dst`` (this storage's ``allocate_like``, or this storage
        itself: in place) where the rows live, every element through
        :func:`repro.core.pool.blend_row`.  ``co`` is ``(K,)`` or the
        propeller ``(K, num)``.  Returns ``False`` (the default) to
        decline; ``cross_aggregate`` then allocates (in place) or
        gathers, stages and writes row blocks of at most ``block_rows``
        rows through the row protocol.  Local storages blend from their
        row views into ``dst.open_row``, in place in
        :func:`repro.core.pool.blend_schedule` order; ``distributed``
        blends on its hosts, never in place."""
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


class _File:
    """A temporary file under ``REPRO_MEMMAP_DIR``, mapped as ``np.memmap``."""

    def __init__(self, nbytes: int) -> None:
        directory = os.environ.get("REPRO_MEMMAP_DIR") or None
        fd, self.path = tempfile.mkstemp(prefix="repro-pool-", suffix=".mm", dir=directory)
        os.ftruncate(fd, nbytes)  # a fresh file reads as zeros
        os.close(fd)
        self.token = ("file", self.path)

    def map(self, shape, dtype) -> np.ndarray:
        return np.memmap(self.path, dtype=dtype, mode="r+", shape=shape)

    def remove(self) -> None:
        try:
            os.remove(self.path)
        except OSError:  # already gone / directory vanished
            pass


class _Segment:
    """A POSIX shared-memory segment (``multiprocessing.shared_memory``)."""

    def __init__(self, nbytes: int) -> None:
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self.token = ("shm", self.shm.name)

    def map(self, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf)

    def remove(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # an array still maps it at interpreter exit
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


# Files and segments made so far, by medium (the lifecycle tests' probe).
_created = {"memmap": 0, "shm": 0}
# id(root array) -> (token, address) of every live file or segment mapping.
_MAPPED: dict[int, tuple] = {}


def _remove_all(free: dict) -> None:
    for segments in free.values():
        for segment in segments:
            segment.remove()
    free.clear()


class _Medium:
    """Where one family of storages keeps its shards, and the family's
    free list.

    ``kind`` is ``dense`` (the heap), ``memmap`` (temporary files) or
    ``shm`` (shared-memory segments).  Storages derived from one another
    (``allocate_like``, ``clone``) share their medium.  A file or
    segment whose array (with every view of it) is gone goes back to the
    free list, and the family's next allocation of the same size takes
    it, zeroed; what is on the list when the family itself is collected
    (or at interpreter exit) is removed then.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._free: dict[int, list] = {}
        self._finalizer = weakref.finalize(self, _remove_all, self._free)

    def take(self, shape, dtype) -> np.ndarray:
        """A zeroed ``shape`` array of ``dtype`` on this medium."""
        shape, dtype = tuple(int(s) for s in shape), np.dtype(dtype)
        if self.kind == "dense":
            return np.zeros(shape, dtype=dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        free = self._free.get(nbytes)
        if free:
            segment = free.pop()
            root = segment.map(shape, dtype)
            root.fill(0)
        else:
            segment = (_File if self.kind == "memmap" else _Segment)(nbytes)
            _created[self.kind] += 1
            root = segment.map(shape, dtype)
        _MAPPED[id(root)] = (segment.token, root.ctypes.data)
        # Views keep their root alive, so the segment is released only
        # once nothing in this process can still read it.
        weakref.finalize(root, self._give_back, id(root), nbytes, segment)
        return root

    def _give_back(self, key: int, nbytes: int, segment) -> None:
        _MAPPED.pop(key, None)
        if self._finalizer.alive:
            self._free.setdefault(nbytes, []).append(segment)
        else:
            segment.remove()

    def private(self) -> "_Medium":
        """The medium for this family's coordinator-private scratch: the
        heap instead of shared memory; memmap stays on its files."""
        return _HEAP if self.kind == "shm" else self


_HEAP = _Medium("dense")


def shared_medium(on_disk: bool = False) -> _Medium:
    """A fresh storage family whose rows another process can map:
    shared-memory segments, or memmap files (``on_disk``).  Passed as
    the ``medium`` storage option, every storage allocated with it (and
    derived from those) recycles one free list."""
    return _Medium("memmap" if on_disk else "shm")


def row_handle(array) -> "tuple | None":
    """Picklable ``(token, offset, shape, dtype)`` naming ``array`` — a
    contiguous view into a live memmap file or shared-memory segment of
    this process — for :func:`open_handle` in any process; ``None`` for
    anything else (heap rows, remote row references)."""
    if not isinstance(array, np.ndarray) or not array.flags.c_contiguous:
        return None
    root = array
    while id(root) not in _MAPPED:
        root = root.base
        if not isinstance(root, np.ndarray):
            return None
    token, address = _MAPPED[id(root)]
    return (token, array.ctypes.data - address, array.shape, array.dtype.str)


def open_handle(handle: tuple) -> np.ndarray:
    """The writable array ``handle`` (:func:`row_handle`) names, mapped in
    this process: only the pages its bytes span (from its offset rounded
    down to ``mmap.ALLOCATIONGRANULARITY``), populated up front where
    ``mmap`` offers ``MAP_POPULATE``.  The array owns that window, which
    is unmapped once the array and every view of it are gone — so a
    process that opens a leg's rows holds their pages for the leg only."""
    (kind, name), offset, shape, dtype = handle
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    start = offset - offset % mmap.ALLOCATIONGRANULARITY
    if kind == "file":
        fd = os.open(name, os.O_RDWR)
    else:
        # Not through multiprocessing.shared_memory: attaching there
        # registers the name with this process's resource tracker,
        # which unlinks it at exit unless it is the creator's.
        import _posixshmem

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        window = mmap.mmap(
            fd, offset - start + count * dtype.itemsize,
            flags=mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0), offset=start,
        )
    finally:
        os.close(fd)
    return np.frombuffer(window, dtype, count, offset - start).reshape(shape)


# Default shard count when neither the ``shards`` option nor the
# ``REPRO_POOL_SHARDS`` environment override names one.
_DEFAULT_SHARDS = 4


def _even_boundaries(k: int, shards: int) -> tuple[int, ...]:
    """Fenceposts of ``shards`` near-equal contiguous row spans of ``k``
    (clamped to ``[1, k]`` shards, so no span is empty for ``k >= 1``)."""
    shards = max(1, min(int(shards), max(1, k)))
    return tuple(round(s * k / shards) for s in range(shards + 1))


@register_backend("sharded")
class ShardedStorage(PoolStorage):
    """The ``(K, P)`` matrix as contiguous row shards on one node — the
    one implementation of the local row protocol.

    Parameters (as ``allocate``/``from_array`` options, wired through
    ``FLConfig.shards`` / ``--shards``):

    ``shards``
        Shard count (clamped to ``[1, K]``; rows are split into
        near-equal contiguous spans).  Defaults to the
        ``REPRO_POOL_SHARDS`` environment variable, then 4.
    ``placement``
        The medium of every shard — ``"dense"`` (default, an
        ``np.ndarray``) or ``"memmap"`` (an ``np.memmap`` over its own
        temporary file: pools beyond RAM, the layout the large-K stress
        test drives).
    ``medium``
        In place of ``placement``, a family to allocate in
        (:func:`shared_medium`); no config field or flag sets it.

    Shard-local spans are zero-copy views into the owning shard,
    cross-shard blocks bounded gathered copies holding the same values
    in the same contiguous layout, so every blocked pool operation is
    **bit-identical** at every shard count.  ``array`` is the live
    matrix at one shard and a gathered, read-only copy at several.
    ``clone`` and ``allocate_like`` keep the class, shard count and
    placement, so derived pools stay laid out the same way.
    """

    def __init__(self, shards: Sequence[np.ndarray], boundaries: Sequence[int],
                 requested_shards: int, medium: _Medium) -> None:
        if len(boundaries) != len(shards) + 1:
            raise ValueError("boundaries must have one more entry than shards")
        self._shards = list(shards)
        self._boundaries = tuple(int(b) for b in boundaries)
        self._requested_shards = int(requested_shards)
        self._medium = medium
        self._shape = (self._boundaries[-1], int(self._shards[0].shape[1]))

    # -- construction ------------------------------------------------------
    @classmethod
    def _resolve_options(cls, shards, placement, medium=None) -> tuple[int, _Medium]:
        if shards is None:
            shards = int(os.environ.get("REPRO_POOL_SHARDS") or _DEFAULT_SHARDS)
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if medium is None:
            placement = str(placement).lower()
            if placement not in ("dense", "memmap"):
                raise ValueError(
                    f"shard placement must be one of ['dense', 'memmap'], got {placement!r}"
                )
            medium = _HEAP if placement == "dense" else _Medium(placement)
        return shards, medium

    @classmethod
    def _allocate(cls, shape, dtype, shards: int, medium: _Medium) -> "ShardedStorage":
        k, p = int(shape[0]), int(shape[1])
        bounds = _even_boundaries(k, shards)
        pieces = [medium.take((b1 - b0, p), dtype) for b0, b1 in zip(bounds, bounds[1:])]
        return cls(pieces, bounds, shards, medium)

    @classmethod
    def _from_array(cls, array, shards: int, medium: _Medium) -> "ShardedStorage":
        array = np.asarray(array)
        storage = cls._allocate(array.shape, array.dtype, shards, medium)
        for (start, stop), piece in zip(storage.shard_spans(), storage._shards):
            piece[:] = array[start:stop]
        return storage

    @classmethod
    def allocate(
        cls, shape, dtype=np.float32, *, shards: int | None = None,
        placement: str = "dense", medium: _Medium | None = None, **options,
    ) -> "ShardedStorage":
        cls._reject_options(options)
        return cls._allocate(shape, dtype, *cls._resolve_options(shards, placement, medium))

    @classmethod
    def from_array(
        cls, array: np.ndarray, *, shards: int | None = None,
        placement: str = "dense", medium: _Medium | None = None,
    ) -> "ShardedStorage":
        return cls._from_array(array, *cls._resolve_options(shards, placement, medium))

    def allocate_like(self, shape, dtype=np.float32, private: bool = False) -> "ShardedStorage":
        medium = self._medium.private() if private else self._medium
        return type(self)._allocate(shape, dtype, self._requested_shards, medium)

    def clone(self) -> "ShardedStorage":
        out = self.allocate_like(self._shape, self.dtype)
        for src, dst in zip(self._shards, out._shards):
            dst[:] = src
        return out

    # -- shard introspection ----------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def placement(self) -> str:
        """The medium every shard lives on (``dense`` / ``memmap``, or
        ``shm`` for a server whose legs map its rows)."""
        return self._medium.kind

    @property
    def shards(self) -> tuple[np.ndarray, ...]:
        """The per-shard arrays, in row order."""
        return tuple(self._shards)

    def shard_boundaries(self) -> tuple[int, ...]:
        return self._boundaries

    def shard_spans(self) -> list[tuple[int, int]]:
        """``(start, stop)`` row span of each shard, in order."""
        b = self._boundaries
        return [(b[s], b[s + 1]) for s in range(len(b) - 1)]

    def _shard_of(self, index: int) -> int:
        """Shard holding row ``index`` (``K`` maps to the last shard)."""
        return min(bisect.bisect_right(self._boundaries, index) - 1, len(self._shards) - 1)

    # -- row protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._shards[0].dtype

    @property
    def array(self) -> np.ndarray:
        """The live matrix at one shard; at several a gathered
        **read-only copy** — O(K·P) memory, and flagged unwritable so
        writes cannot silently miss the shards."""
        if len(self._shards) == 1:
            return self._shards[0]
        out = self.row_block(0, self._shape[0])  # spans every shard: a copy
        out.setflags(write=False)
        return out

    def row(self, index: int) -> np.ndarray:
        self._check_rows(index, index + 1)
        s = self._shard_of(index)
        return self._shards[s][index - self._boundaries[s]]

    def row_block(self, start: int, stop: int) -> np.ndarray:
        start, stop = int(start), int(stop)
        self._check_rows(start, stop)
        s = self._shard_of(start)
        b0 = self._boundaries[s]
        if stop <= self._boundaries[s + 1]:
            # Shard-local span: zero-copy view into the owning shard.
            return self._shards[s][start - b0 : stop - b0]
        out = np.empty((stop - start, self._shape[1]), dtype=self.dtype)
        for (b0, b1), piece in zip(self.shard_spans(), self._shards):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                out[lo - start : hi - start] = piece[lo - b0 : hi - b0]
        return out

    def write_rows(self, start: int, values: np.ndarray) -> None:
        start = int(start)
        stop = start + values.shape[0]
        self._check_rows(start, stop)
        for (b0, b1), piece in zip(self.shard_spans(), self._shards):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                piece[lo - b0 : hi - b0] = values[lo - start : hi - start]

    def gather_rows(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            self._check_rows(int(indices.min()), int(indices.max()) + 1)
        if len(self._shards) == 1:
            return self._shards[0][indices]
        owners = np.searchsorted(self._boundaries, indices, side="right") - 1
        out = np.empty((indices.shape[0], self._shape[1]), dtype=self.dtype)
        for s in np.flatnonzero(np.bincount(owners)):
            at = owners == s
            out[at] = self._shards[s][indices[at] - self._boundaries[s]]
        return out

    def fill_rows(self, values: np.ndarray) -> None:
        for piece in self._shards:
            piece[:] = values

    def accumulate_rows(self, w: np.ndarray, acc: np.ndarray) -> None:
        if len(w) != self._shape[0]:
            raise ValueError(f"{len(w)} weights for a pool of K={self._shape[0]} rows")
        rows = (row for piece in self._shards for row in piece)
        term = np.empty(self._shape[1])
        for weight, row in zip(w, rows):
            # The ufunc casts the row into the reused float64 scratch.
            np.multiply(row, weight, out=term, dtype=np.float64)
            acc += term

    def blend_into(
        self, dst: PoolStorage, co: np.ndarray, alpha: float,
        int_cols: np.ndarray, block_rows: int,
    ) -> bool:
        """Blend straight from this storage's row views into ``dst``'s
        rows, one :func:`~repro.core.pool.blend_row` per row: nothing
        is gathered or staged, so the budget ``block_rows`` bounds
        nothing here.  Both ``co`` forms are served, and ``dst is
        self``: rows are then overwritten in
        :func:`~repro.core.pool.blend_schedule` order, a row its
        schedule spares copied first into a spare row its readers
        read instead."""
        from repro.core.pool import blend_row, blend_schedule

        scratch = np.empty((2, self._shape[1]))
        if dst is not self:
            for r, c in enumerate(co):
                collab = self.row(c) if co.ndim == 1 else [self.row(j) for j in c]
                out = dst.open_row(r)
                blend_row(out, self.row(r), collab, alpha, int_cols, scratch)
                dst.commit_row(r, out)
            return True
        schedule = blend_schedule(co)
        spares = np.empty((1 + max(slot for _, slot in schedule), self._shape[1]), self.dtype)
        held: dict[int, np.ndarray] = {}  # a spared row's readers read its copy

        def read(j):
            return held[j] if j in held else self.row(j)

        for r, slot in schedule:
            if slot >= 0:
                held[r] = spares[slot]
                held[r][:] = self.row(r)
            collab = read(co[r]) if co.ndim == 1 else [read(j) for j in co[r]]
            out = self.row(r)
            blend_row(out, out, collab, alpha, int_cols, scratch)
        return True

    def open_row(self, index: int) -> np.ndarray:
        return self.row(index)

    def commit_row(self, index: int, staged: np.ndarray) -> None:
        """No-op: ``open_row`` handed out the live row, already written."""

    def flush(self) -> None:
        """Force dirty pages of memmap shards to their files."""
        for piece in self._shards:
            if isinstance(piece, np.memmap):
                piece.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, p = self._shape
        return (
            f"{type(self).__name__}(shape=({k}, {p}), dtype={self.dtype}, "
            f"shards={self.num_shards}, placement={self.placement!r})"
        )


@register_backend("dense")
class DenseStorage(ShardedStorage):
    """``sharded`` at one in-RAM shard — the default backend."""

    @classmethod
    def allocate(cls, shape, dtype=np.float32, *, medium=None, **options) -> "DenseStorage":
        cls._reject_options(options)
        return cls._allocate(shape, dtype, 1, medium or _HEAP)

    @classmethod
    def from_array(cls, array: np.ndarray, *, medium=None) -> "DenseStorage":
        if medium is not None:
            return cls._from_array(array, 1, medium)
        # Adopts without copying: PoolBuffer operations hand freshly
        # computed arrays here, and copying would double peak memory.
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"pool storage holds a (K, P) matrix, got shape {array.shape}")
        return cls([array], (0, array.shape[0]), 1, _HEAP)


@register_backend("memmap")
class MemmapStorage(ShardedStorage):
    """``sharded`` at one shard on an ``np.memmap`` over a temporary file."""

    @classmethod
    def allocate(cls, shape, dtype=np.float32, *, medium=None, **options) -> "MemmapStorage":
        cls._reject_options(options)
        return cls._allocate(shape, dtype, 1, medium or _Medium("memmap"))

    @classmethod
    def from_array(cls, array: np.ndarray, *, medium=None) -> "MemmapStorage":
        return cls._from_array(array, 1, medium or _Medium("memmap"))

    @property
    def path(self) -> str:
        """The backing file."""
        return self._shards[0].filename


# The socket-RPC multi-node backend registers itself on import of
# repro.distributed.storage; the lazy entry makes ``distributed`` a
# valid FLConfig.backend without importing the subsystem until it is
# actually selected.
POOL_BACKENDS.lazy("distributed", "repro.distributed.storage")
