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
* ``row_ref`` hands out a :class:`RemoteRow` — a row left where it
  lives, fetched on its first ``np.asarray`` — so a dispatched model
  whose leg trains on the row's own host never crosses the wire;
* ``accumulate_rows`` (the precise ``mean_state``) runs the one float64
  loop on the hosts: each host adds its span, and the accumulator — one
  float64 row — is passed from host to host in pool order;
* ``gram_rows`` answers a :class:`~repro.core.gram.GramTracker` flush
  where the rows live, dotting every needed pair exactly once with one
  ``gram_dots`` request per host: the pairs inside its own span
  (indices only on the wire) and its half of each cross block, dotted
  against the stale rows it pulls from the peer that owns them;
* ``blend_into`` runs ``cross_aggregate`` where the rows live: one
  ``blend_rows`` request per host blends its span into its shard of the
  output buffer, pulling the collaborator rows it does not own from
  their hosts, and carries the output's ``alloc`` and the queued frees
  (replicated buffers keep the coordinator-side blocked path — their
  mirror needs the bytes).

A buffer is created on the hosts by its first use
(:meth:`DistributedStorage.buffer_id`, which every host-bound request
reads), so a blend's output pool costs no broadcast of its own.  Only
indices, scalars, the Gram dots and the mean's float64 accumulator
cross a coordinator socket on these paths; peer rows move host to host.

Rows cross the socket as raw buffer-dtype bytes and every reduction
uses the exact single-node kernels, so a distributed pool is bitwise
identical to ``sharded``/``dense`` under the equivalence matrix.
"""

from __future__ import annotations

import bisect
import itertools
import threading
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

__all__ = ["DistributedStorage", "RemoteRow"]


def _free_buffer(cluster: HostCluster, buffer: str) -> None:
    # Finalizers run on whatever thread the GC pause happens to be on —
    # possibly a cluster pool worker holding a channel lock mid-RPC —
    # so this must never do socket I/O: the free is queued and drained
    # by the cluster's next structural op instead.
    try:
        cluster.defer_free(buffer)
    except Exception:  # pragma: no cover - interpreter/cluster teardown
        pass


class RemoteRow:
    """A row of a :class:`DistributedStorage` left where it lives.

    Carries what a consumer checks without the bytes — ``shape``,
    ``dtype`` and the owning ``host`` / ``local`` row — and fetches the
    row once, on its first ``np.asarray`` (any NumPy consumer, an
    assignment into an array included).  FedCross's dispatch hands
    these out as ``DispatchPlan.flat``: the distributed execution
    backend ships only the reference to a leg on the owning host, and
    every other consumer materialises it.
    """

    def __init__(self, storage: "DistributedStorage", index: int) -> None:
        self.storage = storage
        self.index = int(index)
        self.shape = (storage.shape[1],)
        self.dtype = storage.dtype
        self.host, self.local = storage.owner_of(self.index)
        self._row: "np.ndarray | None" = None

    def __array__(self, dtype=None, copy=None):
        if self._row is None:
            self._row = self.storage.row(self.index)
        return np.asarray(self._row, dtype=dtype, copy=copy)

    def served_by(self, cluster: HostCluster, host: int) -> bool:
        """Whether ``host`` of ``cluster`` holds this row's latest bytes
        (not when a host death lost them: reading them must raise)."""
        return (
            self.storage.cluster is cluster
            and self.host == host
            and self.index not in self.storage.lost_rows()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteRow({self.storage.buffer_id}[{self.index}], host={self.host})"


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
    backends there is no live view to hand out) and ``row_ref`` a
    :class:`RemoteRow`; all writes go through
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
        placed: bool = True,
    ) -> None:
        self._cluster = cluster
        self._buffer = buffer
        # False until the hosts hold the buffer (see ``buffer_id``).
        self._placed = bool(placed)
        self._place_lock = threading.Lock()
        # Bumped by every write this proxy learns of: the token under
        # which hosts keep a flush's pulled rows for the next blend.
        self._writes = 0
        self._shape = (int(shape[0]), int(shape[1]))
        self._dtype = np.dtype(dtype)
        self._boundaries = tuple(int(b) for b in boundaries)
        self._fences = np.array(self._boundaries)
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
            replicate=replicate, placed=False,
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

    def allocate_like(self, shape, dtype=np.float32, private=False) -> "DistributedStorage":
        return type(self).allocate(
            shape, dtype=dtype, placement=self._placement,
            cluster=self._cluster, replicate=self._replicate,
        )

    def clone(self) -> "DistributedStorage":
        # Host-local copies: no row data crosses the wire.
        dst = self._cluster.clone_buffer(self.buffer_id)
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
        """The hosts' id of this buffer, created on them first if no
        request has yet: every host-bound request names the buffer
        through this, so the first one places it."""
        if not self._placed:
            with self._place_lock:
                if not self._placed:
                    self._recovering(self._cluster.place, self._buffer)
                    self._placed = True
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
        return self._fences.searchsorted(indices, side="right") - 1

    def owner_of(self, index: int) -> tuple[int, int]:
        """(host index, local row offset) owning global row ``index``."""
        index = int(index)
        self._check_rows(index, index + 1)
        host = bisect.bisect_right(self._boundaries, index) - 1
        return host, index - self._boundaries[host]

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
        self._writes += 1
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
        self._writes += 1
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

    def row_ref(self, index: int) -> RemoteRow:
        """The row left on its host, fetched on first ``np.asarray``."""
        return RemoteRow(self, index)

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
                "buffer": self.buffer_id,
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
        self._writes += 1
        for host, (b0, b1) in enumerate(self.host_spans()):
            lo, hi = max(start, b0), min(stop, b1)
            if lo < hi:
                self._recovering(
                    self._cluster.call, host, "write_rows",
                    {"buffer": self.buffer_id, "lo": lo - b0},
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
            (int(host), "gather_rows", {"buffer": self.buffer_id},
             {"indices": indices[at] - self._boundaries[host]})
            for host, at in zip(hosts, places)
        ])
        for at, reply in zip(places, replies):
            out[at] = reply[1]["block"]
        return out

    def fill_rows(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._dtype)
        self._writes += 1
        self._recovering(
            self._cluster.broadcast, "fill_rows", {"buffer": self.buffer_id},
            {"values": values},
        )
        if self._replicate:
            self._mirror[:] = values
            self._dirty[:] = False
            self._lost[:] = False

    # -- reductions where the rows live ------------------------------------
    def accumulate_rows(self, w: np.ndarray, acc: np.ndarray) -> None:
        """The precise ``mean_state`` loop, run by the hosts in pool order.

        Each host adds its span with the single-node loop
        (:meth:`~repro.core.storage.ShardedStorage.accumulate_rows`)
        and hands the float64 accumulator back, to be sent on to the
        next host: rows still enter it one at a time in pool order, so
        the sum is bitwise the dense one at any host count, and one
        float64 row per host crosses each way instead of the K rows.
        """
        k = self._shape[0]
        if len(w) != k:
            raise ValueError(f"{len(w)} weights for a pool of K={k} rows")
        self._check_lost(slice(0, k))
        w = np.asarray(w, dtype=np.float64)
        for host, (lo, hi) in enumerate(self.host_spans()):
            if hi > lo:
                reply = self._recovering(
                    self._cluster.call, host, "accumulate_rows",
                    {"buffer": self.buffer_id}, {"w": w[lo:hi], "acc": acc},
                )
                acc[:] = reply[1]["acc"]

    reduces_gram = True

    def gram_rows(self, rows: np.ndarray, mask: "np.ndarray | None") -> np.ndarray:
        """Gram rows ``rows`` of the masked matrix, reduced on the hosts.

        Every needed pair — one stale row and any row — is dotted
        exactly once, on a host that holds one operand and pulls the
        other from its peer (see :meth:`_gram_pairs`); ``np.dot(a, b)``
        and ``np.dot(b, a)`` are the same bits, so each dot fills its
        mirrored entry too.  Bitwise the tracker's local loop.  At most
        a block budget of stale rows is reduced, and so moves, per round
        of requests; pairs with rows of an earlier round are not dotted
        again.

        Lost-row rule: ``rows`` are rows whose writers reported in
        (``update_row``), so a lost one raises; the rows they are dotted
        *against* are not guarded — a pair involving a row still to be
        rewritten is recomputed when that writer reports in.
        """
        rows = np.asarray(rows, dtype=np.int64)
        k = self._shape[0]
        out = np.empty((len(rows), k))
        at = np.full(k, -1)
        at[rows] = np.arange(len(rows))
        done = np.zeros(k, dtype=bool)  # rows whose every pair is dotted
        step = max(1, _block_budget() // max(1, self._shape[1] * self._dtype.itemsize))
        for i in range(0, len(rows), step):
            stale = rows[i : i + step]
            left, right, dots = self._recovering(self._gram_pairs, stale, done, mask)
            for a, b in ((left, right), (right, left)):
                hit = at[a] >= 0
                out[at[a[hit]], b[hit]] = dots[hit]
            done[stale] = True
        return out

    def _gram_pairs(
        self, stale: np.ndarray, done: np.ndarray, mask: "np.ndarray | None"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dot every pair of a ``stale`` row with a row not ``done``, once.

        One ``gram_dots`` request per host that has pairs: the pairs
        inside its own span, and its half of each cross block.  Each
        host pair ``(x, y)`` splits its cross block evenly by dot count:
        ``x`` dots its rows against ``y``'s stale rows, ``y`` its rows
        against ``x``'s, each pulling the peer's stale rows it needs
        straight from the peer (only stale rows move, in the buffer
        dtype, and none through the coordinator); the pairs of two
        stale rows go to whichever side evens the split, so a full
        flush halves every cross block.  Hosts keep the rows they pulled
        (``keep``) for a blend that follows before any write.  Returns
        each pair's global ``(left, right)`` rows and its dot.
        """
        self._check_lost(stale)
        meta = {"buffer": self.buffer_id}
        if mask is not None:
            meta["mask_id"] = self._cluster.ensure_mask(mask)
        k, b = self._shape[0], self._boundaries
        is_stale = np.zeros(k, dtype=bool)
        is_stale[stale] = True
        live = [np.arange(lo, hi)[~done[lo:hi]] for lo, hi in self.host_spans()]
        own = [rows[is_stale[rows]] for rows in live]
        hosts = range(len(live))
        pairs = []  # per host: its (left, right) rows, the inside pairs first
        for h in hosts:
            grid = np.meshgrid(own[h], live[h], indexing="ij")
            left, right = (g.ravel() for g in grid)
            keep = ~is_stale[right] | (right >= left)
            pairs.append([(left[keep], right[keep])])
        for x, y in itertools.combinations(hosts, 2):
            sx, sy = own[x], own[y]
            # Only x can dot its fresh rows × sy, only y sx × its fresh
            # rows; of sx × sy, x takes sy[:c], c evening the halves.
            c = 0
            if sx.size:
                only_x = (live[x].size - sx.size) * sy.size
                only_y = sx.size * (live[y].size - sy.size)
                even = (only_y - only_x + sx.size * sy.size) / (2 * sx.size)
                c = min(sy.size, max(0, round(even)))
            fresh_x = live[x][~is_stale[live[x]]]
            taken = np.zeros(k, dtype=bool)
            taken[sy[:c]] = True
            rest_y = live[y][~taken[live[y]]]
            for h, block in (
                (x, [(q, live[x]) for q in sy[:c].tolist()]),
                (x, [(q, fresh_x) for q in sy[c:].tolist()]),
                (y, [(q, rest_y) for q in sx.tolist()]),
            ):
                pairs[h] += [
                    (np.full(rows.size, q), rows) for q, rows in block if rows.size
                ]
        ports = self._cluster.peer_ports()
        requests, dotted = [], []
        for h in hosts:
            left = np.concatenate([a for a, _ in pairs[h]])
            right = np.concatenate([z for _, z in pairs[h]])
            if not left.size:
                continue
            mine = (left >= b[h]) & (left < b[h + 1])
            # The peer rows h pulls, in row order (so peers in host order);
            # bincount, not np.unique, which imports numpy.ma on first use.
            given = np.flatnonzero(np.bincount(left[~mine]))
            owners = self._fences.searchsorted(given, side="right") - 1
            sources = np.flatnonzero(np.bincount(owners)).tolist()
            arrays = {
                "left": np.where(mine, left - b[h], -1 - np.searchsorted(given, left)),
                "right": right - b[h],
            }
            host_meta = meta
            if sources:
                host_meta = {
                    **meta, "pull_from": sources, "peers": ports, "keep": self._writes,
                }
                for g in sources:
                    arrays[f"pull{g}"] = given[owners == g] - b[g]
            requests.append((h, "gram_dots", host_meta, arrays))
            dotted.append((left, right))
        replies = self._cluster.call_each(requests)
        return (
            np.concatenate([left for left, _ in dotted]),
            np.concatenate([right for _, right in dotted]),
            np.concatenate([reply[1]["dots"] for reply in replies]),
        )

    def blend_into(
        self, dst: PoolStorage, co: np.ndarray, alpha: float,
        int_cols: np.ndarray, block_rows: int,
    ) -> bool:
        """``cross_aggregate`` (1-D ``co``) where the rows live.

        One ``blend_rows`` request per host: its span of ``co``, with
        which it blends its own rows into its shard of ``dst`` (this
        storage's ``allocate_like``), pulling the collaborator rows it
        does not own from their hosts — or taking them from the rows
        the last flush pulled, when no write came between (``reuse``).
        The request also creates ``dst`` on the host when nothing has
        yet, and carries the frees the cluster has queued, so a steady
        round's blend is one call per host.  Declined for replicated
        buffers — their mirror needs the bytes anyway — when a host's
        span exceeds ``block_rows``, the budget the pulled block is held
        to, for propeller ``(K, num)`` ``co``, and in place (``dst is
        self``: hosts would overwrite rows their peers still pull).
        """
        if (dst is self or self._replicate or co.ndim != 1
                or max(np.diff(self._boundaries)) > block_rows):
            return False
        k = self._shape[0]
        owners = self._owners(co)
        local = owners == self._owners(np.arange(k))
        meta = {
            "src": self.buffer_id, "dst": dst._buffer, "alpha": float(alpha),
            "peers": self._cluster.peer_ports(), "reuse": self._writes,
        }
        frees = self._cluster.take_frees()
        if frees:
            meta["free"] = frees
        requests = []
        for host, (lo, hi) in enumerate(self.host_spans()):
            host_meta = dict(meta)
            if not dst._placed:
                host_meta["alloc"] = self._cluster.alloc_meta(dst._buffer, host)
            elif hi == lo and not frees:
                continue
            need = np.flatnonzero(np.bincount(co[lo:hi][~local[lo:hi]]))
            sources = np.flatnonzero(np.bincount(owners[lo:hi][~local[lo:hi]])).tolist()
            # >= 0: local collaborator row; < 0: row -c - 1 of the pulled.
            arrays = {
                "co": np.where(
                    local[lo:hi], co[lo:hi] - lo,
                    -1 - np.searchsorted(need, co[lo:hi]),
                ),
                "int_cols": int_cols,
            }
            for g in sources:
                at = (need >= self._boundaries[g]) & (need < self._boundaries[g + 1])
                arrays[f"pull{g}"] = need[at] - self._boundaries[g]
            host_meta["pull_from"] = sources
            requests.append((host, "blend_rows", host_meta, arrays))
        try:
            self._cluster.call_each(requests)
        except BaseException:
            for buffer in frees:  # not sent, or not everywhere: queue again
                self._cluster.defer_free(buffer)
            raise
        dst._placed = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        k, p = self._shape
        return (
            f"DistributedStorage(shape=({k}, {p}), dtype={self._dtype}, "
            f"hosts={self.num_hosts}, placement={self._placement!r}, "
            f"buffer={self._buffer!r})"
        )
