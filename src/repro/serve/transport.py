"""Wire protocol between gateway clients and the asyncio front door.

One deliberately boring framing: every message is an 8-byte big-endian
length prefix followed by a pickle (protocol 5) of a small tuple whose
first element is the operation name.  Pickle is the right codec here —
requests carry :class:`~repro.circuit.netlist.Netlist` and
:class:`~repro.sim.workload.Workload` objects whose float64 arrays must
survive the trip *bitwise* (the gateway's differential-fuzz guarantee),
and npy-backed pickle round-trips them exactly.  The gateway only ever
binds to loopback by default; this is a front door for co-located
clients, not an internet-facing protocol.

Client -> gateway messages::

    ("predict", req_id, netlist, workload, deadline_ms, block)
    ("metrics", req_id)
    ("ping", req_id)

Gateway -> client messages::

    ("result", req_id, tr_array, lg_array)
    ("error", req_id, exception)        # typed: QueueFull, DeadlineExceeded,
                                        # WorkerDied, ServerClosed, ServeError
    ("metrics_result", req_id, snapshot_dict)
    ("pong", req_id)

The sync-socket helpers serve :class:`repro.serve.gateway.GatewayClient`;
the gateway's connection handler writes frames with :func:`write_frame` and
reads them itself, because it must tell a frame header from the HTTP prefix
and drop a connection whose length prefix exceeds :data:`MAX_FRAME_BYTES`.

A connection whose first four bytes are ``b"GET "`` is handed to the tiny
HTTP responder instead: ``GET /metrics`` returns the gateway's
:meth:`~repro.serve.metrics.ServerMetrics.snapshot` as JSON, so operators
can curl the front door without a pickle-speaking client.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct

__all__ = [
    "MAX_FRAME_BYTES",
    "HTTP_PREFIX",
    "encode",
    "decode",
    "send_frame",
    "recv_frame",
    "write_frame",
    "http_response",
]

_LEN = struct.Struct("!Q")

#: Upper bound on one frame — far beyond any sane request (the medium
#: benchmark problem pickles to ~10 KB) but small enough that a corrupt
#: or hostile length prefix cannot ask the gateway for petabytes.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: First bytes of a plain-HTTP connection, detected by the gateway.
HTTP_PREFIX = b"GET "


def encode(message: tuple) -> bytes:
    return pickle.dumps(message, protocol=5)


def decode(payload: bytes) -> tuple:
    return pickle.loads(payload)


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")


# ----------------------------------------------------------------------
# blocking-socket side (GatewayClient)
# ----------------------------------------------------------------------

def send_frame(sock: socket.socket, payload: bytes) -> None:
    _check_length(len(payload))
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One frame's payload, or ``None`` on a clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    _check_length(length)
    return _recv_exact(sock, length)


# ----------------------------------------------------------------------
# asyncio side (gateway)
# ----------------------------------------------------------------------

async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    _check_length(len(payload))
    writer.write(_LEN.pack(len(payload)) + payload)
    await writer.drain()


# ----------------------------------------------------------------------
# minimal HTTP (metrics endpoint)
# ----------------------------------------------------------------------

def http_response(status: str, body: bytes, content_type: str) -> bytes:
    return (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii") + body
