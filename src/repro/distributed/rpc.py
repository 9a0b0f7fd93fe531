"""Request/response RPC channels over the framing layer.

A :class:`RPCChannel` is one socket to one shard host.  The cluster
keeps *two* channels per host — ``data`` for storage ops and ``exec``
for training legs — so a shard-local reduction (``gram_dots``,
``blend_rows``) is never queued behind a long-running training leg on
the same socket.  Shard hosts open the same channels to each other to
pull the peer rows a reduction needs (``row_block`` / ``gather_rows``).

Requests to one host overlap on the wire: :meth:`RPCChannel.call`
writes its frame under the send lock and takes a ticket (its place in
the in-flight queue), and replies are read strictly in ticket order by
whichever caller heads that queue.  The host serves a connection's
requests one after another, so it finds its next ``train_leg`` in the
socket buffer when it finishes one instead of waiting a coordinator
round trip for it.  A written request cannot be withdrawn: its caller
blocks until the reply (or the failure below) arrives.

Failure contract, per request: a transport-level error — connection
refused, reset, or EOF because the host process died — drops the
connection **once** for everybody, and every *unanswered* request is
re-sent exactly once, in ticket order, on one new connection.  A
request that already had its resend, or a failure of the replacement
connection while it is being refilled, raises a
:class:`DistributedError` naming the shard host (never a raw
``ConnectionResetError``); answered requests are never re-run.  The
resend is safe because every op is idempotent: storage ops are pure
reads/overwrites, and a ``train_leg`` re-runs from the RNG state
shipped in the request, so a replay produces bit-identical results.
Errors raised *by* the remote op itself come back in the response
header and re-raise as :class:`DistributedError` carrying the remote
traceback — those are not retried.  A host that could not pull rows
from a peer reports a :class:`PeerError`, which re-raises as one naming
that peer, not the host that was asked.

Each channel also keeps transport instrumentation: per-``(op,
buffer)`` call counts and array-scalar counts sent/received.  The
equivalence tests use these counters to assert the acceptance
property that trained upload rows never transit the coordinator.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from repro.distributed.framing import ConnectionClosed, recv_message, send_message

__all__ = [
    "DistributedError", "PeerError", "RPCChannel", "serve_connection", "size_buffers",
]

_CONNECT_TIMEOUT_S = 10.0

# Kernel send/receive buffer of every channel socket, set before the
# handshake so the first reply already gets a window this wide: on a
# 2-core host a fresh connection moved its first ~2 MB row block in
# 9-50 ms with the kernel's autotuned default and in 4-7 ms with these
# (1-3 ms once warm).  The kernel caps it at net.core.[rw]mem_max.
_SOCKET_BUFFER_BYTES = 4 << 20


def size_buffers(sock: socket.socket) -> None:
    """Give ``sock`` (unconnected, or a listener whose accepted sockets
    inherit it) the channels' send and receive buffer size."""
    for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        sock.setsockopt(socket.SOL_SOCKET, option, _SOCKET_BUFFER_BYTES)


class DistributedError(RuntimeError):
    """A shard host failed (died, unreachable, or raised remotely)."""


class PeerError(DistributedError):
    """Shard host ``peer`` failed a pull another host made from it."""

    def __init__(self, message: str, peer: int) -> None:
        super().__init__(message)
        self.peer = int(peer)


class RPCChannel:
    """One lazy-connecting, ticket-ordered socket to a shard host."""

    def __init__(self, address: tuple[str, int], label: str) -> None:
        self.address = tuple(address)
        self.label = label
        self._sock: socket.socket | None = None
        # Frame writes, (re)connects and ticket issue serialise on the
        # send lock, so ticket order is wire order.  ``_turn`` guards
        # the hand-offs between senders and the reader: ``_sock`` and
        # ``_inflight`` only change under it (lock order: send, turn).
        self._send_lock = threading.Lock()
        self._turn = threading.Condition()
        self._inflight: deque = deque()  # unanswered requests, ticket order
        # (op, buffer-id or None) -> call count; scalar tallies count
        # array elements that crossed this channel in each direction.
        self.op_counts: dict[tuple[str, object], int] = {}
        self.scalars_sent = 0
        self.scalars_received = 0
        # Connections lost to a transport error (a refused reconnect
        # counts as one more) — the reconnect tests read the delta to
        # assert one drop serves every request that was in flight.
        self.transport_retries = 0

    # -- connection management --------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            size_buffers(sock)
            sock.settimeout(_CONNECT_TIMEOUT_S)
            sock.connect(self.address)
        except OSError:
            sock.close()
            raise
        # Blocking from here on: replies to long ops (training legs) may
        # legitimately take minutes; a dead host still surfaces as EOF.
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _drop(self) -> None:
        """Forget the connection (send lock held).  ``shutdown`` first:
        ``close`` alone does not wake a reader blocked in ``recv``."""
        with self._turn:
            sock, self._sock = self._sock, None
        if sock is not None:
            for end in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
                try:
                    end()
                except OSError:  # already dead
                    pass

    def close(self) -> None:
        """Drop the connection; requests still in flight fail (a later
        call reconnects lazily)."""
        with self._send_lock:
            self._drop()
            self._settle([], ConnectionClosed("channel closed"))

    def _settle(self, kept: list, exc: OSError) -> None:
        """Leave ``kept`` in flight, in order; fail every other unanswered
        request with ``exc`` as the cause (send lock held)."""
        with self._turn:
            for request in self._inflight:
                if request not in kept:
                    request.error = DistributedError(
                        f"{self.label} is unreachable for op {request.op!r} after "
                        f"one reconnect attempt ({type(exc).__name__}: {exc})"
                    )
                    request.error.__cause__ = exc
            self._inflight = deque(kept)
            self._turn.notify_all()

    # -- calls -------------------------------------------------------------
    def call(
        self,
        op: str,
        meta: Mapping | None = None,
        arrays: "Mapping[str, np.ndarray] | None" = None,
        blob: bytes | None = None,
    ) -> tuple[dict, dict[str, np.ndarray], bytes]:
        """One request/response round trip; returns the reply triple."""
        # ``attempts``: connections this request was written to.
        request = SimpleNamespace(
            op=op, header={"op": op, **(meta or {})}, arrays=arrays, blob=blob,
            attempts=0, error=None,
        )
        with self._send_lock:
            failure = None
            try:
                self._send(request)
            except (ConnectionClosed, OSError) as exc:
                failure = exc
            # Anything but a transport error (an unencodable header) has
            # propagated by now, with nothing queued.
            with self._turn:
                self._inflight.append(request)  # the ticket
            if failure is not None:
                self._resend_unanswered(failure)
        reply, reply_arrays, reply_blob = self._receive(request)
        if not reply.get("ok", False):
            error = reply.get("error", {})
            if error.get("peer") is not None:
                raise PeerError(
                    f"{error.get('message', '')} (a peer pull for op {op!r})",
                    error["peer"],
                )
            raise DistributedError(
                f"{self.label} failed op {op!r}: "
                f"{error.get('type', 'Exception')}: {error.get('message', '')}\n"
                f"{error.get('traceback', '')}"
            )
        return reply, reply_arrays, reply_blob

    def _send(self, request) -> None:
        """Write ``request``'s frame, connecting first if needed (send
        lock held)."""
        request.attempts += 1
        if self._sock is None:
            sock = self._connect()
            with self._turn:
                self._sock = sock
        send_message(self._sock, request.header, request.arrays, request.blob)

    def _resend_unanswered(self, exc: OSError) -> None:
        """The connection failed (send lock held): drop it once, re-send
        every unanswered request that still has its retry, fail the rest."""
        self._drop()
        self.transport_retries += 1
        with self._turn:
            unanswered = list(self._inflight)
        retry = [r for r in unanswered if r.attempts < 2]
        try:
            for request in retry:
                self._send(request)
        except (ConnectionClosed, OSError) as again:
            self._drop()
            self.transport_retries += 1
            exc, retry = again, []
        self._settle(retry, exc)

    def _receive(self, request):
        """Block until ``request`` heads the queue, then read its reply."""
        while True:
            with self._turn:
                while request.error is None and not (
                    self._sock is not None and self._inflight[0] is request
                ):
                    self._turn.wait()
                if request.error is not None:
                    raise request.error
                sock = self._sock
            try:
                reply = recv_message(sock)
            except (ConnectionClosed, OSError) as exc:
                with self._send_lock:
                    if sock is self._sock:  # else someone already replaced it
                        self._resend_unanswered(exc)
                continue
            with self._turn:
                if sock is not self._sock:
                    # Dropped while this reply was being read: the request
                    # was re-sent, and the reply to *that* is the one that
                    # keeps the new connection's ticket order.
                    continue
                self._inflight.popleft()
                self._turn.notify_all()
                key = (request.op, request.header.get("buffer"))
                self.op_counts[key] = self.op_counts.get(key, 0) + 1
                self.scalars_sent += sum(
                    int(a.size) for a in (request.arrays or {}).values()
                )
                self.scalars_received += sum(int(a.size) for a in reply[1].values())
            return reply


def serve_connection(sock: socket.socket, dispatch) -> None:
    """Host-side request loop for one accepted connection.

    ``dispatch(op, meta, arrays, blob)`` returns ``(meta, arrays,
    blob)``; exceptions it raises are reported to the peer in the
    response header (with traceback text) without killing the
    connection.  Returns when the peer disconnects.
    """
    import traceback

    while True:
        try:
            header, arrays, blob = recv_message(sock)
        except (ConnectionClosed, OSError):
            return
        op = header.pop("op", "")
        try:
            meta, reply_arrays, reply_blob = dispatch(op, header, arrays, blob)
        except BaseException as exc:  # noqa: BLE001 - reported to the peer
            try:
                send_message(
                    sock,
                    {
                        "ok": False,
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                            "traceback": traceback.format_exc(),
                            "peer": getattr(exc, "peer", None),
                        },
                    },
                )
            except OSError:
                return
            continue
        try:
            send_message(sock, {"ok": True, **(meta or {})}, reply_arrays, reply_blob)
        except OSError:
            return
