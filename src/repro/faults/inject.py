"""Chaos-injection harness for the fault-tolerance test matrix.

Everything here *causes* failures; nothing here handles them — the
handling lives in :mod:`repro.faults.engine`, the cluster failover and
the RPC retry contract, which these injectors exist to exercise.  The
module is test/bench-facing and deliberately not imported by
``repro.faults.__init__``: production runs never pull it in.

Injectors
---------
:class:`KillHostAtRound`
    Server callback that SIGKILLs one shard-host process at a round
    boundary.  The next storage access recovers the host (replicated
    buffers) before any leg dispatches, so a seeded run stays bitwise
    identical to the serial reference — the strongest chaos-matrix
    assertion.
:class:`KillPeerMidFlush`
    Server callback that SIGKILLs one shard host inside a round's Gram
    flush, after it answered its own share and before its peers pull
    their operands from it — the host-to-host failure path.
:class:`KillOwnHostOnce`
    A :class:`~repro.fl.hooks.HookSpec` that kills the *host process it
    is running on*, mid-leg, exactly once (guarded by a sentinel file
    shared across processes).  Exercises the in-flight path: leg
    failure → fleet recovery → retrain.
:class:`DelaySpec`
    Sleeps inside the training loop — a wall-clock straggler for
    ``leg_timeout`` and drain tests.
:class:`UploadDropper`
    Execution-backend wrapper converting chosen clients' successful
    legs into ``error`` failures a bounded number of times — dropped
    uploads with retry-budget semantics, on any backend.
:func:`flaky_transport`
    Context manager wrapping an :class:`~repro.distributed.rpc
    .RPCChannel`'s sockets in :class:`FlakySocket`, which injects
    transport errors on the request or mid-reply — the
    reconnect-and-resend tests' probe.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket as _socket
import time
from dataclasses import dataclass, field

from repro.faults.policy import LegFailure
from repro.fl.callbacks import ServerCallback
from repro.fl.hooks import HookSpec

__all__ = [
    "kill_host",
    "KillHostAtRound",
    "KillPeerMidFlush",
    "KillOwnHostOnce",
    "DelaySpec",
    "UploadDropper",
    "FlakySocket",
    "flaky_transport",
]


def _server_cluster(server):
    """The :class:`HostCluster` behind a server's pool storage."""
    for attr in ("pool", "uploads"):
        holder = getattr(server, attr, None)
        storage = getattr(holder, "storage", None)
        cluster = getattr(storage, "cluster", None)
        if cluster is not None:
            return cluster
    raise RuntimeError(
        "server has no distributed pool storage to find a cluster on"
    )


def kill_host(cluster, host: int) -> None:
    """SIGKILL shard host ``host`` of ``cluster`` and reap it."""
    handle = cluster.handles[int(host)]
    handle.process.kill()
    handle.process.join(timeout=5.0)


class KillHostAtRound(ServerCallback):
    """SIGKILL shard host ``host`` when round ``at_round`` starts."""

    def __init__(self, host: int, at_round: int) -> None:
        self.host = int(host)
        self.at_round = int(at_round)
        self.killed = False

    def on_round_start(self, server, round_idx: int) -> None:
        if self.killed or round_idx != self.at_round:
            return
        self.killed = True
        kill_host(_server_cluster(server), self.host)


class KillPeerMidFlush(ServerCallback):
    """SIGKILL shard host ``host`` inside the first Gram flush of round
    ``at_round``.

    Armed when the round starts, it intercepts the flush's per-host
    ``gram_dots`` requests: ``host``'s own share runs first and is
    answered, then ``host`` is killed, then the other hosts' shares run
    — and their pulls of ``host``'s stale rows find it dead.  Disarms
    itself after that one flush, so a recovery's retry runs untouched.
    """

    def __init__(self, host: int, at_round: int) -> None:
        self.host = int(host)
        self.at_round = int(at_round)
        self.killed = False

    def on_round_start(self, server, round_idx: int) -> None:
        if self.killed or round_idx != self.at_round:
            return
        cluster = _server_cluster(server)

        def call_each(requests, purpose="data"):
            if not requests or requests[0][1] != "gram_dots":
                return type(cluster).call_each(cluster, requests, purpose)
            del cluster.call_each  # one flush only
            replies = {}
            for victim in (True, False):
                picked = [
                    i for i, request in enumerate(requests)
                    if (request[0] == self.host) == victim
                ]
                if not victim:
                    self.killed = True
                    kill_host(cluster, self.host)
                if picked:
                    got = cluster.call_each([requests[i] for i in picked], purpose)
                    replies.update(zip(picked, got))
            return [replies[i] for i in range(len(requests))]

        cluster.call_each = call_each


@dataclass
class KillOwnHostOnce(HookSpec):
    """Kill the shard-host process running this leg, once, mid-training.

    The sentinel file is the cross-process "already fired" latch:
    whichever host trains a leg carrying this spec first claims it
    (``O_CREAT | O_EXCL`` is atomic) and SIGKILLs itself from inside
    the training loop — after some batches have run, so the replica
    mirror is genuinely behind the dying shard.  Only meaningful on
    the ``distributed`` execution backend.
    """

    sentinel: str = ""

    def build(self, state):
        sentinel = self.sentinel

        def hook(model, logits, targets):
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return None
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
            return None  # pragma: no cover - unreachable

        return hook


@dataclass
class DelaySpec(HookSpec):
    """Sleep ``seconds`` on every batch — a wall-clock straggler."""

    seconds: float = 0.0
    once: bool = True
    _slept: dict = field(default_factory=dict)

    def build(self, state):
        seconds, once, slept = self.seconds, self.once, self._slept

        def hook(model, logits, targets):
            if not once or not slept:
                slept["done"] = True
                time.sleep(seconds)
            return None

        return hook


class UploadDropper:
    """Execution-backend wrapper dropping chosen clients' uploads.

    Wrap a server's live backend (``server.executor``) and the
    first ``times`` successful legs of each client in ``client_ids``
    come back as ``kind="error"`` :class:`LegFailure` instead — as if
    the upload was lost after training.  Keyed by client id, not plan
    index, so the drop budget survives the engine's re-submissions
    (where indices shift).  Delegates everything else to the wrapped
    backend.
    """

    def __init__(self, backend, client_ids, times: int = 1) -> None:
        self._backend = backend
        self._budget = {int(c): int(times) for c in client_ids}
        self.dropped = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def run_streaming_captured(
        self, trainer, active, plans, rows, uploads, timeout=None, attacks=None
    ):
        for i, out in self._backend.run_streaming_captured(
            trainer, active, plans, rows, uploads, timeout=timeout, attacks=attacks
        ):
            cid = int(active[i].client_id)
            if not isinstance(out, LegFailure) and self._budget.get(cid, 0) > 0:
                self._budget[cid] -= 1
                self.dropped += 1
                out = LegFailure(
                    index=i,
                    client_id=cid,
                    row=int(rows[i]),
                    kind="error",
                    message="injected upload drop",
                )
            yield i, out


class FlakySocket:
    """Socket proxy injecting transport errors on request or reply.

    ``mode="request"`` fails the next ``sendall`` (the op never reaches
    the host); ``mode="reply"`` lets the request through and fails the
    first ``recv_into`` of the reply (the host *did* execute the op) —
    the two halves of the idempotent-retry contract.  ``state`` is a
    shared ``{"remaining": n}`` budget so reconnected sockets keep
    counting down.
    """

    def __init__(self, sock, mode: str, state: dict) -> None:
        self._sock = sock
        self._mode = mode
        self._state = state

    def _fire(self) -> bool:
        if self._state.get("remaining", 0) > 0:
            self._state["remaining"] -= 1
            return True
        return False

    def sendall(self, data) -> None:
        if self._mode == "request" and self._fire():
            raise ConnectionResetError("injected request-side transport error")
        self._sock.sendall(data)

    def recv_into(self, buffer, nbytes=0):
        if self._mode == "reply" and self._fire():
            # Sever the real connection too: the framing layer must not
            # be able to resynchronise mid-reply on this socket.
            try:
                self._sock.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            raise ConnectionResetError("injected reply-side transport error")
        return self._sock.recv_into(buffer, nbytes)

    def settimeout(self, value) -> None:
        self._sock.settimeout(value)

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def close(self) -> None:
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)


@contextlib.contextmanager
def flaky_transport(channel, mode: str = "request", failures: int = 1):
    """Wrap ``channel``'s connections in :class:`FlakySocket`.

    Forces a reconnect so the very next call goes through a flaky
    socket; every socket the channel creates while the context is
    active shares one failure budget.  Restores the channel's pristine
    ``_connect`` on exit (the flaky socket itself is dropped by the
    channel's normal reconnect machinery).
    """
    state = {"remaining": int(failures)}
    original_connect = channel._connect

    def connect():
        return FlakySocket(original_connect(), mode, state)

    channel._connect = connect
    channel.close()  # drop any live socket; next call reconnects flaky
    try:
        yield state
    finally:
        channel._connect = original_connect
        channel.close()
