"""Length-prefixed socket frames for the shard-actor RPC layer.

One message is one frame::

    [8-byte big-endian payload length]
    [4-byte big-endian header length][header JSON (utf-8)]
    [array 0 bytes][array 1 bytes]...[opaque blob bytes]

The header is a plain JSON object; two reserved keys describe the
binary tail: ``"__arrays__"`` is a list of ``[name, shape, dtype_str,
nbytes]`` entries (C-contiguous raw array bytes, concatenated in list
order) and ``"__blob__"`` is the byte length of one optional opaque
trailing blob (pickled trainer specs ride here).  Everything is stdlib
plus numpy — the same no-new-deps constraint as
:mod:`repro.utils.serialization`.

Decoded arrays are zero-copy views over one receive buffer (a
``bytearray``), so a shard host can adopt a received row block without
another copy; callers that keep an array beyond the request must copy.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Mapping

import numpy as np

__all__ = ["ConnectionClosed", "encode_message", "send_message", "recv_message"]

_LEN = struct.Struct(">Q")
_HDR = struct.Struct(">I")

# Refuse absurd frames (corrupt peer / wrong protocol) before
# allocating their claimed size: 1 TiB is far above any legitimate
# shard payload and far below an attacker-controlled OOM only in
# degree, but this transport only ever speaks to our own hosts.
_MAX_FRAME = 1 << 40

# Payload chunks at least this large are sent straight from their buffer
# instead of being copied into the joined frame first.
_JOIN_BELOW = 1 << 16


class ConnectionClosed(OSError):
    """The peer closed the socket mid-message (EOF)."""


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"unserialisable header value of type {type(value).__name__}")


def encode_message(
    header: Mapping,
    arrays: "Mapping[str, np.ndarray] | None" = None,
    blob: bytes | None = None,
) -> "list[bytes | memoryview]":
    """Encode one message as a list of byte chunks (for ``sendmsg``).

    ``arrays`` values are sent as raw C-contiguous bytes; ``blob`` is
    an opaque trailing byte string.  The returned chunks, concatenated,
    form one complete frame including the length prefix.
    """
    header = dict(header)
    chunks: list[np.ndarray | bytes | memoryview] = []
    manifest = []
    for name, value in (arrays or {}).items():
        value = np.ascontiguousarray(value)
        manifest.append(
            [name, list(value.shape), value.dtype.str, int(value.nbytes)]
        )
        # Flat byte view: len() must equal nbytes for the payload-length
        # arithmetic below (an ndarray's raw .data memoryview is
        # N-dimensional, whose len() is shape[0]).
        chunks.append(value.data.cast("B"))
    header["__arrays__"] = manifest
    header["__blob__"] = len(blob) if blob else 0
    if blob:
        chunks.append(blob)
    head = json.dumps(header, default=_json_default).encode("utf-8")
    payload_len = _HDR.size + len(head) + sum(len(c) for c in chunks)
    return [
        _LEN.pack(payload_len),
        _HDR.pack(len(head)),
        head,
        *chunks,
    ]


def send_message(
    sock: socket.socket,
    header: Mapping,
    arrays: "Mapping[str, np.ndarray] | None" = None,
    blob: bytes | None = None,
) -> None:
    """Send one complete frame on ``sock``: small chunks joined
    (``bytes.join`` accepts any buffer), row blocks written in place —
    no second copy of a large payload."""
    small: list = []
    for chunk in encode_message(header, arrays, blob):
        if len(chunk) < _JOIN_BELOW:
            small.append(chunk)
            continue
        if small:
            sock.sendall(b"".join(small))
            small = []
        sock.sendall(chunk)
    if small:
        sock.sendall(b"".join(small))


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        read = sock.recv_into(view[got:], n - got)
        if read == 0:
            raise ConnectionClosed("peer closed the connection mid-message")
        got += read
    return buf


def recv_message(
    sock: socket.socket,
) -> tuple[dict, dict[str, np.ndarray], bytes]:
    """Receive one frame: ``(header, arrays, blob)``.

    Arrays are writable zero-copy views over the frame's receive
    buffer; the blob is a plain ``bytes`` copy (pickle needs one
    anyway).  Raises :class:`ConnectionClosed` on EOF at any point.
    """
    (payload_len,) = _LEN.unpack(bytes(_recv_exact(sock, _LEN.size)))
    if payload_len > _MAX_FRAME:
        raise OSError(f"frame of {payload_len} bytes exceeds the transport limit")
    payload = _recv_exact(sock, payload_len)
    (head_len,) = _HDR.unpack(bytes(payload[: _HDR.size]))
    offset = _HDR.size
    header = json.loads(bytes(payload[offset : offset + head_len]).decode("utf-8"))
    offset += head_len
    arrays: dict[str, np.ndarray] = {}
    for name, shape, dtype_str, nbytes in header.pop("__arrays__", []):
        view = memoryview(payload)[offset : offset + nbytes]
        arrays[name] = np.frombuffer(view, dtype=np.dtype(dtype_str)).reshape(shape)
        offset += nbytes
    blob_len = header.pop("__blob__", 0)
    blob = bytes(payload[offset : offset + blob_len]) if blob_len else b""
    return header, arrays, blob
