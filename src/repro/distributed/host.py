"""The ``ShardHost`` worker process.

One host owns one contiguous row shard of every distributed pool
buffer: allocation (``alloc`` / ``free`` / ``clone_buffer``), the row
protocol (``row_block`` / ``gather_rows`` / ``write_rows`` /
``fill_rows``, local offsets — the coordinator keeps the global span
map), the shard-local share of the precise mean (``accumulate_rows``:
its span added into the float64 accumulator the coordinator passes
from host to host), of a Gram flush (``gram_dots``: the dots of listed
row pairs, its own rows and the peer rows it pulls) and of CrossAggr
(``blend_rows``: its span blended with its collaborators, the foreign
ones pulled from their hosts), and co-located training legs
(``init_trainer`` / ``train_leg``, from a shipped row or from this
host's own pool row).  The coordinator talks to it over plain sockets
via :mod:`repro.distributed.rpc`.  Hosts talk to each other only to
pull rows: a request that needs peer rows names them per peer and
carries the fleet's current ports, and the host fetches them with the
peer's own ``row_block`` / ``gather_rows`` over a lazily opened channel
(re-dialled when a respawned peer reports a new port), so no peer row
transits the coordinator.  A peer that cannot be reached fails the
request with a :class:`~repro.distributed.rpc.PeerError` naming it.

Two properties carry the engine's cross-backend guarantees over the
wire:

* **Bit-transparency** — rows cross the socket as raw buffer-dtype
  bytes (no re-encoding); ``gram_dots`` computes each pairwise dot
  exactly like :meth:`repro.core.gram.GramTracker.update_row` does
  locally — one contiguous float64 1-D ``np.dot`` per pair over the
  same masked values — ``accumulate_rows`` runs the single-node
  float64 loop, and ``blend_rows`` blends through the pool engine's
  own :func:`~repro.core.pool.blend_row`.  Shard-local results are
  therefore bitwise identical to the single-node reference.
* **Co-located legs** — ``train_leg`` runs the one leg body
  (:func:`repro.fl.execution.run_leg`) with the host's **local shard
  row** as its destination.  The ``P`` trained floats never ride a
  socket back to the coordinator; only scalars (loss, counts, the
  advanced RNG state) do.  A leg sent by reference starts from the
  host's own pool row, so its dispatched row never rides one either.

The accept loop serves each connection on its own daemon thread, so
two hosts pulling from each other at once cannot deadlock: each pull
is served on a thread of its own while the request that made it waits.
Array reads/writes from concurrent connections are as racy as the
in-process ``thread``/``process`` backends' concurrent row writes —
benign for the same reason (rows of one round's legs are distinct,
and Gram rows read while a later-landing leg trains are recomputed by
that leg's own update) — while structural ops (buffer allocation,
mask/trainer registration) serialise on one mutex.
"""

from __future__ import annotations

import bisect
import math
import pickle
import socket
import threading
from typing import Any

import numpy as np

from repro.distributed.rpc import (
    DistributedError,
    PeerError,
    RPCChannel,
    serve_connection,
    size_buffers,
)
from repro.distributed.framing import send_message  # noqa: F401 (re-export for tests)
from repro.utils.cpu import blas_threads, limit_blas_threads

__all__ = ["shard_host_main"]


class _HostState:
    """Everything one shard host owns, keyed by coordinator-issued ids."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.buffers: dict[str, Any] = {}  # buffer id -> PoolStorage
        self.masks: dict[str, np.ndarray] = {}
        self.trainer = None
        self.trainer_version: int | None = None
        self.datasets: dict = {}
        self.stop = threading.Event()
        # Peer index -> channel to it, re-dialled when its port changes.
        self.peers: dict[int, RPCChannel] = {}
        self.peer_lock = threading.Lock()
        # Buffer id -> (token, {(peer, local row): row}): the peer rows
        # a flush pulled, for the blend that follows it (see ``_pull``).
        self.kept: dict[str, tuple] = {}

    # -- storage ops -------------------------------------------------------
    def _storage(self, buffer: str):
        try:
            return self.buffers[buffer]
        except KeyError:
            raise KeyError(f"shard host {self.index} has no buffer {buffer!r}")

    def _create(self, buffer: str, spec) -> None:
        """Allocate ``buffer`` unless it exists: an alloc replayed by a
        resend or a recovery never zeroes a live shard."""
        from repro.core.storage import resolve_backend

        with self.lock:
            if buffer not in self.buffers:
                self.buffers[buffer] = resolve_backend(
                    spec.get("placement", "dense")
                ).allocate((int(spec["rows"]), int(spec["p"])), dtype=np.dtype(spec["dtype"]))

    def _release(self, buffers) -> None:
        with self.lock:
            for buffer in buffers:
                self.buffers.pop(buffer, None)
                self.kept.pop(buffer, None)

    def op_alloc(self, meta, arrays, blob):
        self._create(meta["buffer"], meta)
        return {}, {}, b""

    def op_free(self, meta, arrays, blob):
        self._release([meta["buffer"]])
        return {}, {}, b""

    # -- peer pulls --------------------------------------------------------
    def _peer(self, index: int, ports) -> RPCChannel:
        """The channel to peer ``index`` at its current port."""
        address = ("127.0.0.1", int(ports[index]))
        with self.peer_lock:
            chan = self.peers.get(index)
            if chan is None or chan.address != address:
                if chan is not None:  # a respawned peer: its old port is dead
                    chan.close()
                chan = RPCChannel(address, f"shard host {index}/{len(ports)}")
                self.peers[index] = chan
            return chan

    def _pull(self, buffer: str, meta, arrays) -> list:
        """The peer rows of ``buffer`` a request names, in order.

        ``meta["pull_from"]`` lists the peers in host order and
        ``arrays[f"pull{g}"]`` the local rows wanted of peer ``g``; the
        result holds one row per wanted row, peer by peer.  A request
        with ``keep`` holds on to what it pulled under that token, and
        one with the same token as ``reuse`` takes those rows instead of
        pulling them again: a flush's stale rows serve the blend that
        follows it.  The coordinator changes the token whenever it
        learns of a write to the buffer.  Rows are fetched before any
        compute: a pull on a thread beside the dot loop costs more in
        GIL hand-offs than it overlaps.  A failure raises
        :class:`PeerError` naming the peer.
        """
        token, kept = self.kept.get(buffer, (None, {}))
        if "reuse" not in meta or meta["reuse"] != token:
            kept = {}
        rows, pulled = [], {}
        for peer in meta.get("pull_from") or []:
            want = arrays[f"pull{peer}"].tolist()
            missing = [i for i in want if (peer, i) not in kept]
            if missing:
                # A run of consecutive rows is sent from a view of the
                # peer's shard (row_block), any other set gathered.
                if missing == list(range(missing[0], missing[-1] + 1)):
                    ask = ("row_block", {"buffer": buffer, "lo": missing[0],
                                         "hi": missing[-1] + 1}, None)
                else:
                    ask = ("gather_rows", {"buffer": buffer},
                           {"indices": np.array(missing, dtype=np.int64)})
                try:
                    _, got, _ = self._peer(peer, meta["peers"]).call(*ask)
                except DistributedError as exc:
                    raise PeerError(str(exc), peer) from exc
                pulled.update(((peer, i), row) for i, row in zip(missing, got["block"]))
            rows += [kept.get((peer, i), pulled.get((peer, i))) for i in want]
        if "keep" in meta:
            self.kept[buffer] = (meta["keep"], pulled)
        return rows

    def op_clone_buffer(self, meta, arrays, blob):
        with self.lock:
            src = self._storage(meta["src"])
            self.buffers[meta["dst"]] = src.clone()
        return {}, {}, b""

    def op_fill_rows(self, meta, arrays, blob):
        self._storage(meta["buffer"]).fill_rows(arrays["values"])
        return {}, {}, b""

    def op_row_block(self, meta, arrays, blob):
        block = self._storage(meta["buffer"]).row_block(
            int(meta["lo"]), int(meta["hi"])
        )
        return {}, {"block": block}, b""

    def op_write_rows(self, meta, arrays, blob):
        self._storage(meta["buffer"]).write_rows(int(meta["lo"]), arrays["values"])
        return {}, {}, b""

    def op_gather_rows(self, meta, arrays, blob):
        indices = arrays["indices"].astype(np.int64, copy=False)
        return {}, {"block": self._storage(meta["buffer"]).gather_rows(indices)}, b""

    def op_register_mask(self, meta, arrays, blob):
        with self.lock:
            # Copy: the received view aliases the request's frame buffer.
            self.masks[meta["mask_id"]] = arrays["mask"].astype(bool, copy=True)
        return {}, {}, b""

    def op_accumulate_rows(self, meta, arrays, blob):
        """This shard's share of the precise ``mean_state``: ``acc += w[r]
        * row r`` in float64 over the local rows, in order, with the
        single-node loop; the accumulator goes back to be passed on."""
        acc = np.array(arrays["acc"], dtype=np.float64)
        self._storage(meta["buffer"]).accumulate_rows(arrays["w"], acc)
        return {}, {"acc": acc}, b""

    def op_gram_dots(self, meta, arrays, blob):
        """Dots of listed row pairs — this host's share of a
        ``GramTracker`` flush.

        Pair ``t`` is ``(left[t], right[t])``: ``right`` names a local
        row, ``left`` a local row (``>= 0``) or row ``-left - 1`` of the
        peer rows this host pulls (``pull_from``, see :meth:`_pull`; in
        the buffer dtype, whose float64 cast is exact, so casting here
        gives the tracker's operands).  Each pair is the exact local
        kernel — one contiguous float64 1-D ``np.dot`` over the masked
        values — so the assembled Gram is bitwise the single-node one.
        The distinct left operands are cast ``ceil(sqrt(n))`` at a time
        and each right row once per such chunk: float64 scratch of
        ~sqrt(n) rows, never an image of the shard.
        """
        storage = self._storage(meta["buffer"])
        given = self._pull(meta["buffer"], meta, arrays)
        mask = self.masks[meta["mask_id"]] if "mask_id" in meta else None
        masked = (lambda row: row) if mask is None else (lambda row: row[mask])
        left = arrays["left"].astype(np.int64, copy=False)
        right = arrays["right"].astype(np.int64, copy=False)
        p_eff = storage.shape[1] if mask is None else int(mask.sum())
        codes = sorted(set(left.tolist()))
        chunk = math.isqrt(max(1, len(codes)) - 1) + 1
        vi, vj = np.empty((chunk, p_eff)), np.empty(p_eff)
        dots = np.empty(len(left))
        for c0 in range(0, len(codes), chunk):
            part = codes[c0 : c0 + chunk]
            for t, code in enumerate(part):
                vi[t] = masked(storage.row(code) if code >= 0 else given[-code - 1])
            sel = np.flatnonzero((left >= part[0]) & (left <= part[-1]))
            sel = sel[np.argsort(right[sel], kind="stable")]
            slots = np.searchsorted(part, left[sel]).tolist()
            last = None
            for t, j, s in zip(sel.tolist(), right[sel].tolist(), slots):
                if j != last:
                    last = j
                    # A right row cast among this chunk's lefts is reused.
                    at = bisect.bisect_left(part, j)
                    if at < len(part) and part[at] == j:
                        v = vi[at]
                    else:
                        vj[:] = masked(storage.row(j))
                        v = vj
                dots[t] = np.dot(vi[s], v)
        return {}, {"dots": dots}, b""

    def op_blend_rows(self, meta, arrays, blob):
        """CrossAggr where the rows live: blend every row of this shard
        of ``src`` with its collaborator into this shard of ``dst``.

        ``co[r] >= 0`` names a local collaborator row; ``co[r] < 0``
        names row ``-co[r] - 1`` of the collaborators this host does not
        own (``pull_from``, see :meth:`_pull`: pulled from their owners,
        or kept from the flush that chose them).
        The request also carries the structural ops of the round's
        blend: ``free`` lists buffers to drop first, and ``alloc``
        creates ``dst`` (unless it exists).  Every element goes through
        :func:`repro.core.pool.blend_row`, so the shard is bitwise what
        ``PoolBuffer.cross_aggregate`` writes.
        """
        from repro.core.pool import blend_row

        self._release(meta.get("free", ()))
        if "alloc" in meta:
            self._create(meta["dst"], meta["alloc"])
        src = self._storage(meta["src"])
        dst = self._storage(meta["dst"])
        foreign = self._pull(meta["src"], meta, arrays)
        self.kept.pop(meta["src"], None)  # served its blend
        co = arrays["co"]
        int_cols = arrays["int_cols"].astype(np.int64, copy=False)
        alpha = float(meta["alpha"])
        scratch = np.empty((2, src.shape[1]))
        for r in range(src.shape[0]):
            c = int(co[r])
            collab = src.row(c) if c >= 0 else foreign[-c - 1]
            blend_row(dst.row(r), src.row(r), collab, alpha, int_cols, scratch)
        return {}, {}, b""

    # -- co-located execution ----------------------------------------------
    def op_init_trainer(self, meta, arrays, blob):
        version = int(meta["version"])
        with self.lock:
            if self.trainer_version == version:
                return {}, {}, b""
            spec, datasets = pickle.loads(blob)
            self.trainer = spec.build()
            self.datasets = datasets
            self.trainer_version = version
        return {}, {}, b""

    def op_train_leg(self, meta, arrays, blob):
        """One client's leg, co-located with its shard:
        :func:`repro.fl.execution.run_leg` from the dispatched row into
        the *local* row of the upload buffer, on the host-resident shard
        data with the client's shipped RNG state — the trained ``P``
        floats never return to the coordinator.  The dispatched row is
        the buffer-dtype ``flat`` that arrived with the request, or,
        sent by reference (``src`` / ``src_row``), this host's own row
        of the pool buffer, read in place: a sync round does not write
        the pool while its legs train."""
        from repro.fl.execution import run_leg
        from repro.robust.attacks import AttackSpec

        with self.lock:
            trainer = self.trainer
        if trainer is None:
            raise RuntimeError(
                f"shard host {self.index} has no trainer; init_trainer first"
            )
        # PCG64 state dicts are nested dicts of (big) ints and strings,
        # which the JSON header round-trips exactly.
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        loss_hook, grad_hook = pickle.loads(blob) if blob else (None, None)
        if "flat" in arrays:
            flat = arrays["flat"]
        else:  # dispatched by reference: the pool row lives on this host
            flat = self._storage(meta["src"]).row(int(meta["src_row"]))
        scalars = run_leg(
            trainer,
            flat,
            self._storage(meta["buffer"]).row(int(meta["local_row"])),
            self.datasets[meta["client_id"]],
            rng,
            loss_hook=loss_hook,
            grad_hook=grad_hook,
            lr_override=meta.get("lr_override"),
            hypers=meta["hypers"],
            attack=AttackSpec.from_wire(meta["attack"]) if meta.get("attack") else None,
        )
        return {"scalars": scalars, "rng_state": rng.bit_generator.state}, {}, b""

    def op_ping(self, meta, arrays, blob):
        return {"index": self.index}, {}, b""

    def op_stats(self, meta, arrays, blob):
        """Recovery introspection: what this host currently holds.

        The failover tests compare a respawned host's inventory against
        the coordinator's retained state to assert a full replay."""
        with self.lock:
            return (
                {
                    "index": self.index,
                    "buffers": sorted(self.buffers),
                    "masks": sorted(self.masks),
                    "trainer_version": self.trainer_version,
                    "blas_threads": blas_threads(),
                    "peer_calls": self.peer_calls(),
                },
                {},
                b"",
            )

    def peer_calls(self) -> int:
        """Requests this host has made of its peers (answered ones)."""
        with self.peer_lock:
            return sum(sum(c.op_counts.values()) for c in self.peers.values())

    def close_peers(self) -> None:
        with self.peer_lock:
            peers, self.peers = list(self.peers.values()), {}
        for chan in peers:
            chan.close()

    def op_shutdown(self, meta, arrays, blob):
        self.stop.set()
        return {}, {}, b""

    def dispatch(self, op: str, meta, arrays, blob):
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise KeyError(f"shard host {self.index}: unknown op {op!r}")
        return handler(meta, arrays, blob)


def shard_host_main(index: int, port_conn, blas_cap: int) -> None:
    """Entry point of one shard-host process.

    Binds an ephemeral localhost port, reports it through ``port_conn``
    (a :class:`multiprocessing.Pipe` end), caps the process's BLAS pool
    at ``blas_cap`` threads (its share of the coordinator's cores; never
    above what it inherited), then serves connections until a
    ``shutdown`` op arrives.  Connection threads are daemons, so the
    process exits as soon as the accept loop does.
    """
    state = _HostState(index)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    size_buffers(listener)  # inherited by every accepted connection
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    port_conn.send(listener.getsockname()[1])
    port_conn.close()
    # After the port report (the coordinator is waiting on it), before
    # the first accept: no op is ever served on an uncapped pool.
    limit_blas_threads(blas_cap)
    # Wake the accept loop promptly after a shutdown op: a short accept
    # timeout bounds the post-shutdown lifetime without busy-waiting.
    listener.settimeout(0.2)
    try:
        while not state.stop.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=serve_connection,
                args=(conn, state.dispatch),
                daemon=True,
            ).start()
    finally:
        listener.close()
        state.close_peers()
