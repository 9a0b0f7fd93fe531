"""Coordinator-side management of a fleet of shard hosts.

A :class:`HostCluster` spawns ``hosts`` localhost
:mod:`~repro.distributed.host` worker processes, learns their
ephemeral ports through pipes, and multiplexes two
:class:`~repro.distributed.rpc.RPCChannel` sockets per host — ``data``
for storage ops and ``exec`` for training legs, so Gram and blend
requests are never queued behind a slow leg.  Broadcast ops
(allocation, trainer shipping) and the per-host requests of one Gram
flush or host-side blend (:meth:`HostCluster.call_each`) run
concurrently across hosts on a small thread pool; single storage calls
go straight through the owning host's data channel.  The requests of a
flush or a blend carry :meth:`HostCluster.peer_ports`, and the hosts
pull the peer rows they need from each other directly.

A buffer is registered by :meth:`HostCluster.allocate` and created on
the hosts by its first use: a broadcast ``alloc``
(:meth:`HostCluster.place`), or the ``alloc`` a cross blend's
``blend_rows`` carries for its output pool, beside the frees the
storage finalizers queued (:meth:`HostCluster.take_frees`).

Clusters are pooled per host count by :func:`get_cluster` — one fleet
serves every buffer of a run (pool, uploads, cross-aggregated pools,
SCAFFOLD variate packs) — and torn down at interpreter exit.  A pooled
cluster whose processes died (the fault-injection tests kill hosts
deliberately) is replaced on the next request, so one poisoned fleet
never leaks into later runs.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import socket
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Mapping, Sequence

import numpy as np

from repro.distributed.framing import recv_message, send_message
from repro.distributed.host import shard_host_main
from repro.distributed.rpc import DistributedError, RPCChannel
from repro.utils.cpu import blas_share, reserve_for_children

__all__ = ["HostCluster", "get_cluster", "shutdown_clusters", "DEFAULT_HOSTS"]

# Default fleet size when neither the ``hosts`` storage option nor the
# ``REPRO_POOL_HOSTS`` environment override names one.
DEFAULT_HOSTS = 2

_SPAWN_TIMEOUT_S = 30.0
# Teardown deadlines: a host that is alive but not answering (stopped,
# wedged) must not hold up ``shutdown()`` or the atexit sweep.  The
# ``shutdown`` op and the wait after SIGTERM (which a stopped process
# never handles) get the first, the wait after SIGKILL the second.
_STOP_TIMEOUT_S = 1.0
_REAP_TIMEOUT_S = 5.0


class _HostHandle:
    """One shard-host process plus its lazily connected channels."""

    def __init__(self, index: int, total: int) -> None:
        self.index = index
        self.label = f"shard host {index}/{total}"
        parent, child = multiprocessing.Pipe()
        # Every host of the fleet — a failover respawn included — gets
        # the same share of the coordinator's cores for its BLAS pool.
        self.process = multiprocessing.Process(
            target=shard_host_main, args=(index, child, blas_share(total)),
            daemon=True,
            name=f"repro-shard-host-{index}",
        )
        self.process.start()
        child.close()
        if not parent.poll(_SPAWN_TIMEOUT_S):
            raise DistributedError(f"{self.label} did not report a port")
        self.port = int(parent.recv())
        parent.close()
        self._channels: dict[str, RPCChannel] = {}
        self._channel_lock = threading.Lock()
        self._closed = False

    def channel(self, purpose: str = "data") -> RPCChannel:
        with self._channel_lock:
            if self._closed:
                raise DistributedError(f"{self.label} handle is closed")
            chan = self._channels.get(purpose)
            if chan is None:
                chan = RPCChannel(("127.0.0.1", self.port), self.label)
                self._channels[purpose] = chan
            return chan

    def ask_to_stop(self) -> None:
        """Send the ``shutdown`` op under a deadline — on a private
        socket, because channels block without one (a leg may take
        minutes) for as long as the host lives."""
        try:
            with socket.create_connection(
                ("127.0.0.1", self.port), timeout=_STOP_TIMEOUT_S
            ) as sock:
                send_message(sock, {"op": "shutdown"})
                recv_message(sock)
        except OSError:  # dead, or alive and not answering (EOF, timeout)
            pass

    def close(self) -> None:
        # Idempotent: explicit teardown followed by the atexit sweep (or
        # a failover replacing this handle) must not raise or leak
        # sockets — channels are closed exactly once and dropped.
        with self._channel_lock:
            if self._closed:
                return
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
        # The process first: once it is gone the kernel fails whatever a
        # channel still has blocked on it (a frame a stopped host never
        # read), so closing the channels cannot wait on their locks.
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=_REAP_TIMEOUT_S)
        for chan in channels:
            chan.close()


class HostCluster:
    """A fleet of shard hosts, shared by every buffer of a run."""

    def __init__(self, hosts: int) -> None:
        hosts = int(hosts)
        if hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        self.handles = [_HostHandle(i, hosts) for i in range(hosts)]
        # The coordinator keeps what its hosts leave of the CPU budget
        # until shutdown(); a failover respawn changes neither side.
        self._cpu_hold = reserve_for_children(hosts)
        self._buffer_seq = itertools.count()
        self._pool = ThreadPoolExecutor(
            max_workers=hosts, thread_name_prefix="repro-cluster"
        )
        self._registered_masks: set[str] = set()
        self._mask_lock = threading.Lock()
        self._trainer_token: object = None
        self._trainer_version = 0
        self._trainer_lock = threading.Lock()
        self._closed = False
        # Failover state: enough coordinator-side bookkeeping to rebuild
        # a respawned host — live allocations, registered mask arrays,
        # the last trainer payload, and the replicated storages to ask
        # for row restoration (weak refs: a collected buffer must not be
        # kept alive, or replayed, by the recovery path).
        self._allocs: dict[str, dict] = {}
        self._mask_arrays: dict[str, np.ndarray] = {}
        self._trainer_payload: "tuple | None" = None
        self._restorers: dict[str, object] = {}
        self._recover_lock = threading.RLock()
        # Buffers whose storage was garbage collected.  Finalizers may
        # fire on *any* thread — including one of this pool's own
        # workers, mid-RPC, while channel locks are held — so they must
        # never do socket I/O themselves (a free broadcast submitted to
        # our own bounded pool from inside a worker deadlocks it).
        # They append here instead; the next structural op drains.
        self._pending_frees: list[str] = []
        self._free_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self.handles)

    def alive(self) -> bool:
        return not self._closed and all(h.process.is_alive() for h in self.handles)

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for handle in self.handles:
                if handle.process.is_alive():
                    handle.ask_to_stop()
            for handle in self.handles:
                handle.close()
            self._pool.shutdown(wait=False)
        finally:
            self._cpu_hold.release()

    # -- fan-out helpers ---------------------------------------------------
    def call(self, host: int, op: str, meta=None, arrays=None, blob=None,
             purpose: str = "data"):
        """One RPC on one host's channel of the given purpose."""
        return self.handles[host].channel(purpose).call(op, meta, arrays, blob)

    def call_each(self, requests: "Sequence[tuple]", purpose: str = "data") -> list:
        """Run ``(host, op[, meta[, arrays[, blob]]])`` requests concurrently
        (one per pool thread); replies in request order.

        The first request runs on the calling thread, the rest on the
        pool.  A failure propagates after every call has settled.  Must
        not be called from one of this cluster's own pool threads.
        """
        futures = [
            self._pool.submit(self.call, *request, purpose=purpose)
            for request in requests[1:]
        ]
        try:
            first = [self.call(*requests[0], purpose=purpose)] if requests else []
        finally:
            wait(futures)
        return first + [f.result() for f in futures]

    def broadcast(self, op: str, metas: "Sequence[Mapping] | Mapping",
                  arrays=None, blob=None, purpose: str = "data") -> list:
        """Run ``op`` on every host concurrently; results in host order.

        ``metas`` is either one mapping (same meta everywhere) or one
        mapping per host.
        """
        if isinstance(metas, Mapping) or metas is None:
            metas = [metas] * self.num_hosts
        return self.call_each(
            [(i, op, metas[i], arrays, blob) for i in range(self.num_hosts)],
            purpose,
        )

    def next_buffer_id(self) -> str:
        return f"buf{next(self._buffer_seq)}"

    def peer_ports(self) -> list[int]:
        """Every host's current port, in host order — what a request
        that makes a host pull from its peers carries (a respawned host
        has a new one)."""
        return [handle.port for handle in self.handles]

    # -- storage-facing ops ------------------------------------------------
    def allocate(self, boundaries: Sequence[int], p: int, dtype,
                 placement: str) -> str:
        """Register a new buffer; returns its id.

        Nothing is sent yet: the hosts create it on :meth:`place`, or
        from the :meth:`alloc_meta` a request that writes it first
        carries (the cross blend's ``blend_rows``).
        """
        buffer = self.next_buffer_id()
        with self._recover_lock:
            self._allocs[buffer] = {
                "boundaries": tuple(int(b) for b in boundaries),
                "p": int(p),
                "dtype": np.dtype(dtype).str,
                "placement": placement,
            }
        return buffer

    def alloc_meta(self, buffer: str, host: int) -> dict:
        """Host ``host``'s ``alloc`` of ``buffer``: its span's row count,
        ``p``, dtype and placement."""
        with self._recover_lock:
            spec = self._allocs[buffer]
        b = spec["boundaries"]
        return {
            "rows": int(b[host + 1] - b[host]),
            "p": spec["p"],
            "dtype": spec["dtype"],
            "placement": spec["placement"],
        }

    def place(self, buffer: str) -> None:
        """Create ``buffer`` on every host (an existing shard is kept)."""
        self._drain_frees()
        self.broadcast(
            "alloc",
            [
                {"buffer": buffer, **self.alloc_meta(buffer, i)}
                for i in range(self.num_hosts)
            ],
        )

    def defer_free(self, buffer: str) -> None:
        """Queue ``buffer`` for release without any I/O or broad locks.

        The storage finalizers' entry point: safe to call from any
        thread at any moment (only a momentary private lock is taken).
        The queued frees ride the next ``blend_rows`` request
        (:meth:`take_frees`) or run on the next :meth:`place` or
        :meth:`clone_buffer`.
        """
        with self._free_lock:
            self._pending_frees.append(buffer)

    def take_frees(self) -> list[str]:
        """Dequeue every queued free, forgetting the buffers here; the
        caller sends them (and queues them again if it cannot)."""
        with self._free_lock:
            pending, self._pending_frees = self._pending_frees, []
        with self._recover_lock:
            for buffer in pending:
                self._allocs.pop(buffer, None)
                self._restorers.pop(buffer, None)
        return pending

    def _drain_frees(self) -> None:
        for buffer in self.take_frees():
            try:
                self.broadcast("free", {"buffer": buffer})
            except DistributedError:
                # Best effort: a dead host's shard died with it anyway,
                # and a recovery replay skips popped allocations.
                pass

    def clone_buffer(self, src: str) -> str:
        self._drain_frees()
        dst = self.next_buffer_id()
        self.broadcast("clone_buffer", {"src": src, "dst": dst})
        with self._recover_lock:
            spec = self._allocs.get(src)
            if spec is not None:
                self._allocs[dst] = dict(spec)
        return dst

    def ensure_mask(self, mask: np.ndarray) -> str:
        """Register ``mask`` on every host once; returns its content id."""
        import hashlib

        mask = np.ascontiguousarray(mask, dtype=bool)
        mask_id = hashlib.sha1(mask.tobytes()).hexdigest()[:16]
        with self._mask_lock:
            if mask_id not in self._registered_masks:
                self.broadcast(
                    "register_mask", {"mask_id": mask_id}, {"mask": mask}
                )
                self._registered_masks.add(mask_id)
                with self._recover_lock:
                    self._mask_arrays[mask_id] = mask
        return mask_id

    # -- execution-facing ops ----------------------------------------------
    def ensure_trainer(self, spec, datasets: Mapping) -> None:
        """Ship the trainer spec + full shard table to every host once.

        Keyed by spec identity: the executor builds one spec per run, so
        re-sends only happen when a new executor reuses this fleet.
        Hosts keep their build when the version matches, making this a
        cheap no-op round trip after the first call.
        """
        with self._trainer_lock:
            token = id(spec)
            if self._trainer_token == token:
                return
            self._trainer_version += 1
            payload = (spec, dict(datasets))
            blob = pickle.dumps(payload)
            self.broadcast(
                "init_trainer", {"version": self._trainer_version},
                blob=blob, purpose="exec",
            )
            self._trainer_token = token
            with self._recover_lock:
                self._trainer_payload = payload

    def train_leg(self, host: int, meta: Mapping, flat: "np.ndarray | None",
                  hooks_blob: bytes):
        """Run one training leg on ``host`` (blocking), from row ``flat``
        or, when ``flat`` is None, from the host's own pool row that
        ``meta`` names (``src`` / ``src_row``)."""
        arrays = None if flat is None else {"flat": flat}
        reply, _arrays, _blob = self.call(
            host, "train_leg", meta, arrays, hooks_blob, purpose="exec"
        )
        return reply

    # -- failover ----------------------------------------------------------
    def register_restorer(self, buffer: str, storage) -> None:
        """Ask ``storage`` to replay ``buffer``'s rows after a respawn.

        Held weakly: a replicated storage that has been garbage
        collected (its finalizer frees the buffer) must not be revived
        — or replayed — by a later recovery.
        """
        with self._recover_lock:
            self._restorers[buffer] = weakref.ref(storage)

    def recover_host(self, index: int) -> bool:
        """Respawn shard host ``index`` if dead and rebuild its state.

        Replays, in order: every live buffer allocation (this host's
        row span), every registered mask, the current trainer build,
        and finally each replicated storage's mirror rows via its
        ``restore_host``.  Returns True when a respawn happened, False
        when the host was already alive.  Raises
        :class:`DistributedError` when the replacement itself cannot be
        spawned — at that point the fleet is genuinely gone.
        """
        with self._recover_lock:
            if self._closed:
                raise DistributedError("cluster is shut down; cannot recover")
            if not self._host_down(index):
                return False
            old = self.handles[index]
            old.close()
            handle = _HostHandle(index, self.num_hosts)
            self.handles[index] = handle
            for buffer in list(self._allocs):
                self.call(
                    index, "alloc", {"buffer": buffer, **self.alloc_meta(buffer, index)}
                )
            for mask_id, mask in self._mask_arrays.items():
                self.call(index, "register_mask", {"mask_id": mask_id},
                          {"mask": mask})
            if self._trainer_payload is not None:
                self.call(
                    index, "init_trainer",
                    {"version": self._trainer_version},
                    blob=pickle.dumps(self._trainer_payload), purpose="exec",
                )
            dead_refs = []
            for buffer, ref in self._restorers.items():
                storage = ref()
                if storage is None:
                    dead_refs.append(buffer)
                    continue
                storage.restore_host(index)
            for buffer in dead_refs:
                self._restorers.pop(buffer, None)
            return True

    def _host_down(self, index: int) -> bool:
        """True when host ``index`` is dead — or a kill is mid-flight.

        ``is_alive`` alone races with SIGKILL: the kernel closes the
        victim's sockets (so RPCs are already failing) a beat before
        the parent can reap the process.  An "alive" host is therefore
        probed with a ping; one that cannot answer is given a moment to
        finish dying, then forced down, so a recovery triggered by its
        connection errors never concludes "nothing to recover".
        """
        handle = self.handles[index]
        if not handle.process.is_alive():
            return True
        try:
            handle.channel("data").call("ping")
            return False
        except DistributedError:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            return True

    def recover(self) -> list[int]:
        """Respawn every dead host; returns the recovered indices."""
        with self._recover_lock:
            return [
                i for i in range(self.num_hosts)
                if self._host_down(i) and self.recover_host(i)
            ]


# -- cluster pool ------------------------------------------------------------
_CLUSTERS: dict[int, HostCluster] = {}
_CLUSTERS_LOCK = threading.Lock()


def get_cluster(hosts: int | None = None) -> HostCluster:
    """The pooled cluster of ``hosts`` shard hosts (spawned on demand).

    ``hosts=None`` resolves ``REPRO_POOL_HOSTS`` then
    :data:`DEFAULT_HOSTS`.  A pooled cluster whose processes have died
    is torn down and respawned, so deliberate host kills (fault tests)
    never poison later runs.
    """
    if hosts is None:
        hosts = int(os.environ.get("REPRO_POOL_HOSTS") or DEFAULT_HOSTS)
    hosts = int(hosts)
    with _CLUSTERS_LOCK:
        cluster = _CLUSTERS.get(hosts)
        if cluster is not None and not cluster.alive():
            cluster.shutdown()
            cluster = None
        if cluster is None:
            cluster = HostCluster(hosts)
            _CLUSTERS[hosts] = cluster
        return cluster


def shutdown_clusters() -> None:
    """Tear down every pooled cluster (idempotent; runs atexit)."""
    with _CLUSTERS_LOCK:
        clusters = list(_CLUSTERS.values())
        _CLUSTERS.clear()
    for cluster in clusters:
        cluster.shutdown()


atexit.register(shutdown_clusters)
