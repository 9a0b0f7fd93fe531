"""Coordinator-side proxy storage over a fleet of shard hosts.

:class:`DistributedStorage` is the ``distributed`` entry of the pool
backend registry: a :class:`~repro.core.storage.PoolStorage` whose
``(K, P)`` matrix lives row-sharded across the
:class:`~repro.distributed.cluster.HostCluster`'s worker processes.
The coordinator holds only the span map (the same
``_even_boundaries`` layout as :class:`~repro.core.storage
.ShardedStorage`) and proxies the row protocol over RPC:

* ``row_block`` / ``gather_rows`` fetch bounded blocks, grouped per
  owning host and reassembled in row order;
* ``write_rows`` / ``fill_rows`` split writes at host boundaries;
* ``open_row``/``commit_row`` stage full-row overwrites coordinator-
  side and ship each committed row in one message (the pool engine's
  ``set_state`` packs into the staging row, so an upload costs one
  RPC, not one per field);
* ``gram_rows`` answers a :class:`~repro.core.gram.GramTracker` flush
  where the rows live: each host dots its own stale rows against its
  own rows (indices only on the wire), and each unordered host pair
  exchanges one block of stale rows, in the buffer dtype, once;
* ``blend_into`` runs ``cross_aggregate`` where the rows live: each
  host blends its span into its shard of the output buffer and is sent
  only the collaborator rows it does not own (replicated buffers keep
  the coordinator-side blocked path — their mirror needs the bytes).

Rows cross the socket as raw buffer-dtype bytes and every reduction
uses the exact single-node kernels, so a distributed pool is bitwise
identical to ``sharded``/``dense`` under the equivalence matrix.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Sequence

import numpy as np

from repro.core.pool import _block_budget
from repro.core.storage import (
    PoolStorage,
    _even_boundaries,
    register_backend,
)
from repro.distributed.cluster import HostCluster, get_cluster
from repro.distributed.rpc import DistributedError

__all__ = ["DistributedStorage"]


def _free_buffer(cluster: HostCluster, buffer: str) -> None:
    # Finalizers run on whatever thread the GC pause happens to be on —
    # possibly a cluster pool worker holding a channel lock mid-RPC —
    # so this must never do socket I/O: the free is queued and drained
    # by the cluster's next structural op instead.
    try:
        cluster.defer_free(buffer)
    except Exception:  # pragma: no cover - interpreter/cluster teardown
        pass


@register_backend("distributed")
class DistributedStorage(PoolStorage):
    """The ``(K, P)`` matrix sharded across socket-RPC worker processes.

    Options (via ``FLConfig.hosts`` / ``--hosts`` or direct allocate):

    ``hosts``
        Shard-host count (default ``REPRO_POOL_HOSTS`` or 2).  Hosts
        are pooled per count and shared by every buffer of a run.
    ``placement``
        Storage backend each host keeps its shard on (``"dense"``
        default, ``"memmap"`` for hosts beyond RAM).
    ``cluster``
        An explicit :class:`HostCluster` (tests inject one); mutually
        consistent with ``hosts`` when both are given.
    ``replicate``
        Keep a coordinator-side writable replica of the buffer (the
        resilience layer sets this for non-``fail`` failure policies):
        a killed shard host is respawned and its row span replayed from
        the mirror instead of raising, and rows whose latest write was
        host-side are tracked as *lost* until retrained or rewritten.

    ``row`` returns a *read-only fetched copy* (unlike single-node
    backends there is no live view to hand out); all writes go through
    ``open_row``/``commit_row``/``write_rows``, which the pool engine
    uses exclusively.
    """

    def __init__(
        self,
        cluster: HostCluster,
        buffer: str,
        shape: tuple[int, int],
        dtype,
        boundaries: Sequence[int],
        placement: str,
        replicate: bool = False,
    ) -> None:
        self._cluster = cluster
        self._buffer = buffer
        self._shape = (int(shape[0]), int(shape[1]))
        self._dtype = np.dtype(dtype)
        self._boundaries = tuple(int(b) for b in boundaries)
        self._placement = placement
        self._replicate = bool(replicate)
        if self._replicate:
            # Coordinator-side writable replica: every coordinator write
            # is mirrored here, so a killed host can be respawned and
            # its span replayed.  ``dirty`` marks rows whose latest
            # write happened *host-side* (a distributed training leg) —
            # the mirror predates those, so losing their host marks
            # them ``lost`` until rewritten.
            k, p = self._shape
            self._mirror = np.zeros((k, p), dtype=self._dtype)
            self._dirty = np.zeros(k, dtype=bool)
            self._lost = np.zeros(k, dtype=bool)
            cluster.register_restorer(buffer, self)
        self._finalizer = weakref.finalize(self, _free_buffer, cluster, buffer)

    # -- construction ------------------------------------------------------
    @classmethod
    def allocate(
        cls, shape, dtype=np.float32, *, hosts: int | None = None,
        placement: str = "dense", cluster: HostCluster | None = None,
        replicate: bool = False, **options,
    ) -> "DistributedStorage":
        cls._reject_options(options)
        if cluster is None:
            cluster = get_cluster(hosts)
        elif hosts is not None and cluster.num_hosts != int(hosts):
            raise ValueError(
                f"explicit cluster has {cluster.num_hosts} hosts, "
                f"but hosts={hosts} was requested"
            )
        k, p = int(shape[0]), int(shape[1])
        boundaries = _even_boundaries(k, cluster.num_hosts)
        # Hosts owning an empty span still allocate a (0, p) shard —
        # keeps every op's span math uniform.  ``_even_boundaries``
        # clamps to at most K spans, so pad fenceposts when K < hosts.
        boundaries = boundaries + (k,) * (cluster.num_hosts + 1 - len(boundaries))
        buffer = cluster.allocate(boundaries, p, dtype, placement)
        return cls(
            cluster, buffer, (k, p), dtype, boundaries, placement,
            replicate=replicate,
        )

    @classmethod
    def from_array(
        cls, array: np.ndarray, *, hosts: int | None = None,
        placement: str = "dense", cluster: HostCluster | None = None,
        replicate: bool = False,
    ) -> "DistributedStorage":
        array = np.asarray(array)
        storage = cls.allocate(
            array.shape, dtype=array.dtype, hosts=hosts,
            placement=placement, cluster=cluster, replicate=replicate,
        )
        storage.write_rows(0, array)
        return storage

    def allocate_like(self, shape, dtype=np.float32) -> "DistributedStorage":
        return type(self).allocate(
            shape, dtype=dtype, placement=self._placement,
            cluster=self._cluster, replicate=self._replicate,
        )

    def clone(self) -> "DistributedStorage":
        # Host-local copies: no row data crosses the wire.
        dst = self._cluster.clone_buffer(self._buffer)
        out = type(self)(
            self._cluster, dst, self._shape, self._dtype,
            self._boundaries, self._placement, replicate=self._replicate,
        )
        if self._replicate:
            out._mirror[:] = self._mirror
            out._dirty[:] = self._dirty
            out._lost[:] = self._lost
        return out

    # -- introspection -----------------------------------------------------
    @property
    def cluster(self) -> HostCluster:
        return self._cluster

    @property
    def buffer_id(self) -> str:
        return self._buffer

    @property
    def num_hosts(self) -> int:
        return self._cluster.num_hosts

    @property
    def placement(self) -> str:
        """Backend each host keeps its shard on (``dense`` / ``memmap``)."""
        return self._placement

    def shard_boundaries(self) -> tuple[int, ...]:
        return self._boundaries

    def host_spans(self) -> list[tuple[int, int]]:
        """``(start, stop)`` global row span owned by each host."""
        b = self._boundaries
        return [(b[i], b[i + 1]) for i in range(len(b) - 1)]

    def _owners(self, indices: np.ndarray) -> np.ndarray:
        """Owning host of each global row in ``indices`` (empty spans —
        K < hosts — own nothing)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            self._check_rows(int(indices.min()), int(indices.max()) + 1)
        return np.searchsorted(self._boundaries, indices, side="right") - 1

    def owner_of(self, index: int) -> tuple[int, int]:
        """(host index, local row offset) owning global row ``index``."""
        host = int(self._owners(index))
        return host, int(index) - self._boundaries[host]

    # -- failover ----------------------------------------------------------
    @property
    def replicated(self) -> bool:
        """Whether a coordinator-side writable replica backs this buffer."""
        return self._replicate

    def _recovering(self, fn, *args, **kwargs):
        """``fn(*args)``, with one fleet recovery + retry when replicated."""
        try:
            return fn(*args, **kwargs)
        except DistributedError:
            if not self._replicate or not self._cluster.recover():
                raise
            return fn(*args, **kwargs)

    def note_remote_write(self, row: int) -> None:
        """Record that ``row`` was just written host-side (a training
        leg landed): the mirror no longer holds its latest content."""
        if self._replicate:
            self._dirty[int(row)] = True
            self._lost[int(row)] = False

    def restore_host(self, index: int) -> None:
        """Replay this host's row span from the mirror after a respawn.

        Called by the cluster's ``recover_host`` (under its recovery
        lock — plain ``call``, no recursive recovery).  Rows whose
        latest write was host-side (``dirty``) are restored to their
        *pre-leg* mirror content and flagged ``lost`` until rewritten:
        reads must not silently serve stale trained states.
        """
        if not self._replicate:
            return
        b = self._boundaries
        lo, hi = b[index], b[index + 1]
        if hi > lo:
            self._cluster.call(
                index, "write_rows",
                {"buffer": self._buffer, "lo": 0},
                {"values": self._mirror[lo:hi]},
            )
        span = slice(lo, hi)
        self._lost[span] |= self._dirty[span]
        self._dirty[span] = False

    def ensure_fleet(self) -> list[int]:
        """Respawn any dead hosts; returns recovered host indices.

        A no-op (empty list) without replication — there is nothing to
        replay onto a fresh host, so dying un-replicated fleets keep
        raising :class:`DistributedError` as before.
        """
        if not self._replicate:
            return []
        return self._cluster.recover()

    def lost_rows(self) -> list[int]:
        """Rows whose latest (host-side) write died with its host."""
        if not self._replicate:
            return []
        return [int(i) for i in np.flatnonzero(self._lost)]

    def _check_lost(self, rows: "slice | np.ndarray") -> None:
        if self._replicate and self._lost[rows].any():
            lost = np.arange(self._shape[0])[rows][self._lost[rows]].tolist()
            raise DistributedError(
                f"rows {lost} were lost with their shard host (their last "
                "write was host-side and is not in the coordinator mirror); "
                "rewrite or retrain them before reading"
            )

    # -- row protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def array(self) -> np.ndarray:
        """Gathered **read-only copy** (diagnostics/tests only)."""
        out = np.asarray(self.row_block(0, self._shape[0]))
        out = out.copy() if not out.flags.owndata else out
        out.setflags(write=False)
        return out

    def row(self, index: int) -> np.ndarray:
        """Read-only fetched copy of one row (there is no live view)."""
        row = np.asarray(self.row_block(index, index + 1))[0]
        row.flags.writeable = False
        return row

    def open_row(self, index: int) -> np.ndarray:
        # Coordinator-side staging scratch; commit ships it in one RPC.
        return np.empty(self._shape[1], dtype=self._dtype)

    def commit_row(self, index: int, staged: np.ndarray) -> None:
        self.write_rows(index, staged[None, :])

    def row_block(self, start: int, stop: int) -> np.ndarray:
        start, stop = int(start), int(stop)
        self._check_rows(start, stop)
        if stop == start:
            return np.empty((0, self._shape[1]), dtype=self._dtype)
        self._check_lost(slice(start, stop))
        # One request per host the span touches, all in flight at once.
        spans = [
            (host, max(start, b0), min(stop, b1))
            for host, (b0, b1) in enumerate(self.host_spans())
            if max(start, b0) < min(stop, b1)
        ]
        replies = self._recovering(self._cluster.call_each, [
            (host, "row_block", {
                "buffer": self._buffer,
                "lo": lo - self._boundaries[host], "hi": hi - self._boundaries[host],
            })
            for host, lo, hi in spans
        ])
        pieces = [(lo, reply[1]["block"]) for (_h, lo, _hi), reply in zip(spans, replies)]
        if len(pieces) == 1 and pieces[0][1].shape[0] == stop - start:
            return pieces[0][1].astype(self._dtype, copy=False)
        out = np.empty((stop - start, self._shape[1]), dtype=self._dtype)
        for lo, block in pieces:
            out[lo - start : lo - start + block.shape[0]] = block
        return out

    def write_rows(self, start: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._dtype)
        start = int(start)
        stop = start + values.shape[0]
        self._check_rows(start, stop)
        for host, (b0, b1) in enumerate(self.host_spans()):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                self._recovering(
                    self._cluster.call, host, "write_rows",
                    {"buffer": self._buffer, "lo": lo - b0},
                    {"values": values[lo - start : hi - start]},
                )
        if self._replicate:
            self._mirror[start:stop] = values
            self._dirty[start:stop] = False
            self._lost[start:stop] = False

    def gather_rows(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        owners = self._owners(indices)
        out = np.empty((indices.shape[0], self._shape[1]), dtype=self._dtype)
        self._check_lost(indices)
        # One request per owning host (all in flight at once), scattered
        # back to request order.
        hosts = np.flatnonzero(np.bincount(owners))
        places = [np.flatnonzero(owners == host) for host in hosts]
        replies = self._recovering(self._cluster.call_each, [
            (int(host), "gather_rows", {"buffer": self._buffer},
             {"indices": indices[at] - self._boundaries[host]})
            for host, at in zip(hosts, places)
        ])
        for at, reply in zip(places, replies):
            out[at] = reply[1]["block"]
        return out

    def fill_rows(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._dtype)
        self._recovering(
            self._cluster.broadcast, "fill_rows", {"buffer": self._buffer},
            {"values": values},
        )
        if self._replicate:
            self._mirror[:] = values
            self._dirty[:] = False
            self._lost[:] = False

    # -- reductions where the rows live ------------------------------------
    reduces_gram = True

    def gram_rows(self, rows: np.ndarray, mask: "np.ndarray | None") -> np.ndarray:
        """Gram rows ``rows`` of the masked matrix, reduced on the hosts.

        Every host dots its own share of ``rows`` against its own rows
        (indices only on the wire); each unordered pair of hosts then
        moves one side's share once, in the buffer dtype, to the other
        — ``np.dot(a, b)`` and ``np.dot(b, a)`` are the same bits, so
        the reply fills the transposed entries too — and the other side
        ships as well only when the first does not cover its span.
        Bitwise the tracker's local loop.

        Lost-row rule: ``rows`` are rows whose writers reported in
        (``update_row``), so a lost one raises; the rows they are dotted
        *against* are not guarded — a pair involving a row still to be
        rewritten is recomputed when that writer reports in.
        """
        rows = np.asarray(rows, dtype=np.int64)
        # At most a block budget of rows moves per exchange.
        step = max(1, _block_budget() // max(1, self._shape[1] * self._dtype.itemsize))
        return np.concatenate([
            self._recovering(self._gram_rows, rows[i : i + step], mask)
            for i in range(0, len(rows), step)
        ])

    def _gram_rows(self, rows: np.ndarray, mask: "np.ndarray | None") -> np.ndarray:
        self._check_lost(rows)
        meta = {"buffer": self._buffer}
        if mask is not None:
            meta["mask_id"] = self._cluster.ensure_mask(mask)
        b = self._boundaries
        owners = self._owners(rows)
        mine = {int(h): rows[owners == h] for h in np.flatnonzero(np.bincount(owners))}
        covers = {h: len(r) == b[h + 1] - b[h] for h, r in mine.items()}
        # Exchange (x, y): x's share of ``rows`` against every row of y.
        local = [(x, x) for x in mine]
        cross = []
        populated = [h for h in range(self.num_hosts) if b[h + 1] > b[h]]
        for pair in itertools.combinations(populated, 2):
            x, y = sorted(pair, key=lambda h: (h in mine, covers.get(h, False)),
                          reverse=True)
            if x in mine:
                cross.append((x, y))
                if y in mine and not covers[x]:
                    cross.append((y, x))
        shippers = sorted({x for x, _ in cross})
        cluster, buffer = self._cluster, {"buffer": self._buffer}
        first = cluster.call_each(
            [(x, "gather_rows", buffer, {"indices": mine[x] - b[x]}) for x in shippers]
            + [(x, "gram_dots", meta, {"rows": mine[x] - b[x]}) for x, _ in local]
        )
        blocks = {x: reply[1]["block"] for x, reply in zip(shippers, first)}
        second = cluster.call_each(
            [(y, "gram_dots", meta, {"block": blocks[x]}) for x, y in cross]
        )
        out = np.empty((len(rows), self._shape[0]))
        at = np.full(self._shape[0], -1)
        at[rows] = np.arange(len(rows))
        for (x, y), reply in zip(local + cross, first[len(shippers):] + second):
            dots = reply[1]["dots"]
            out[at[mine[x]], b[y] : b[y + 1]] = dots
            if y in mine:  # the same bits, transposed
                out[np.ix_(at[mine[y]], mine[x])] = dots[:, mine[y] - b[y]].T
        return out

    def blend_into(
        self, dst: PoolStorage, co: np.ndarray, alpha: float,
        int_cols: np.ndarray, block_rows: int,
    ) -> bool:
        """``cross_aggregate`` (1-D ``co``) where the rows live.

        Each host gets its span of ``co`` and blends its own rows into
        its shard of ``dst`` (this storage's ``allocate_like``),
        receiving only the collaborator rows it does not own.  Declined
        for replicated buffers — their mirror needs the bytes anyway —
        and when a host's span exceeds ``block_rows``, the budget the
        shipped block is held to.
        """
        if self._replicate or max(np.diff(self._boundaries)) > block_rows:
            return False
        k = self._shape[0]
        owners = self._owners(co)
        local = owners == self._owners(np.arange(k))
        foreign = np.flatnonzero(np.bincount(co[~local]))
        gathered = self.gather_rows(foreign) if foreign.size else None
        meta = {"src": self._buffer, "dst": dst._buffer, "alpha": float(alpha)}
        requests = []
        for host, (lo, hi) in enumerate(self.host_spans()):
            if hi == lo:
                continue
            need = np.flatnonzero(np.bincount(co[lo:hi][~local[lo:hi]]))
            # >= 0: local collaborator row; < 0: row -c - 1 of ``foreign``.
            arrays = {
                "co": np.where(
                    local[lo:hi], co[lo:hi] - lo,
                    -1 - np.searchsorted(need, co[lo:hi]),
                ),
                "int_cols": int_cols,
            }
            if need.size:
                arrays["foreign"] = gathered[np.searchsorted(foreign, need)]
            requests.append((host, "blend_rows", meta, arrays))
        self._cluster.call_each(requests)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, p = self._shape
        return (
            f"DistributedStorage(shape=({k}, {p}), dtype={self._dtype}, "
            f"hosts={self.num_hosts}, placement={self._placement!r}, "
            f"buffer={self._buffer!r})"
        )
