"""Length-prefixed message framing over stream sockets.

Frames are ``u32 length (big-endian) + payload``. A maximum frame size
guards both sides against corrupt peers allocating unbounded buffers.

The send path is zero-copy: the header and payload go out in one
scatter-gather ``sendmsg`` (one segment under ``TCP_NODELAY``), so a
payload is never joined with its header into a fresh ``bytes`` object —
callers can pass a ``memoryview`` over a pooled encode buffer straight
through. The receive path reads with ``recv_into`` into one preallocated
``bytearray`` instead of accumulating ``recv`` chunks and joining them.

Failure classification: a connection that breaks mid-exchange raises
:class:`~repro.errors.RetryableError` (the retry layer may resend with a
call ID attached), while a socket *timeout* raises
:class:`~repro.errors.DeadlineExceededError` — when a caller passes
``timeout=`` here it is the remaining per-call deadline, and a timer
firing means the deadline budget is gone, not that a retry would help.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional

from repro.errors import DeadlineExceededError, RetryableError, TransportError

_LEN = struct.Struct(">I")
_HEADER_SIZE = _LEN.size

#: Refuse frames above 256 MiB — far beyond any benchmark payload, small
#: enough to stop a corrupt length word from exhausting memory.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def _apply_timeout(sock: socket.socket, timeout: Optional[float]) -> None:
    if timeout is not None:
        # A non-positive remaining budget must still fail as a deadline,
        # not block forever; the smallest positive timeout approximates
        # "already expired" without a special code path.
        sock.settimeout(max(timeout, 1e-6))


def write_frame(
    sock: socket.socket, payload, timeout: Optional[float] = None
) -> None:
    """Send one frame. *payload* may be ``bytes``, ``bytearray``, or a
    ``memoryview`` — it is transmitted without being copied or joined.
    *timeout* (seconds) bounds the send; it is the caller's remaining
    per-call deadline."""
    length = len(payload)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    header = _LEN.pack(length)
    _apply_timeout(sock, timeout)
    try:
        if _HAS_SENDMSG:
            sent = sock.sendmsg((header, payload))
            total = _HEADER_SIZE + length
            if sent < total:
                # Short scatter-gather write (large payload / full socket
                # buffer): finish with sendall over views, still no joins.
                if sent < _HEADER_SIZE:
                    sock.sendall(header[sent:])
                    sent = _HEADER_SIZE
                sock.sendall(memoryview(payload)[sent - _HEADER_SIZE :])
        else:  # pragma: no cover - platforms without sendmsg
            sock.sendall(header + bytes(payload))
    except socket.timeout as exc:
        raise DeadlineExceededError(f"send timed out: {exc}") from exc
    except OSError as exc:
        raise RetryableError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    buffer = bytearray(count)
    view = memoryview(buffer)
    pos = 0
    while pos < count:
        try:
            received = sock.recv_into(view[pos:], count - pos)
        except socket.timeout as exc:
            raise DeadlineExceededError(f"recv timed out: {exc}") from exc
        except OSError as exc:
            raise RetryableError(f"recv failed: {exc}") from exc
        if not received:
            raise RetryableError("connection closed mid-frame")
        pos += received
    return buffer


def read_frame(sock: socket.socket, timeout: Optional[float] = None) -> bytearray:
    _apply_timeout(sock, timeout)
    (length,) = _LEN.unpack(_recv_exact(sock, _HEADER_SIZE))
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced oversized frame: {length} bytes")
    return _recv_exact(sock, length)


# ----------------------------------------------------- pipelined framing
#
# A pipelined connection opens with an 8-byte preamble, then every frame
# carries a u32 correlation id between the length header and the payload:
#
#     client: "NRMI" "PIP1"  [u32 len | u32 corr | payload]*
#     server:                [u32 len | u32 corr | payload]*   (any order)
#
# The magic doubles as the detection mechanism: interpreted as a length
# header, b"NRMI" would announce a ~1.3 GB frame — far beyond
# MAX_FRAME_BYTES — so no legal plain-framing client can ever start a
# connection with those bytes, and servers accept both framings on one
# port without configuration.

PIPELINE_MAGIC = b"NRMI"
PIPELINE_VERSION = b"PIP1"
PIPELINE_PREAMBLE = PIPELINE_MAGIC + PIPELINE_VERSION

recv_exact = _recv_exact


def write_frame_corr(
    sock: socket.socket, corr_id: int, payload, timeout: Optional[float] = None
) -> None:
    """Send one correlation-tagged frame (scatter-gather, no joins); like
    :func:`write_frame`, a short write finishes over views of *payload*."""
    length = len(payload)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    header = _LEN.pack(length)
    corr = _LEN.pack(corr_id & 0xFFFFFFFF)
    _apply_timeout(sock, timeout)
    try:
        if _HAS_SENDMSG:
            segments = (header, corr, payload)
            sent = sock.sendmsg(segments)
            if sent < 2 * _HEADER_SIZE + length:
                # Short scatter-gather write: finish each unsent segment
                # over a view, as write_frame does — still no joins.
                for segment in segments:
                    size = len(segment)
                    if sent >= size:
                        sent -= size
                        continue
                    sock.sendall(memoryview(segment)[sent:])
                    sent = 0
        else:  # pragma: no cover - platforms without sendmsg
            sock.sendall(header + corr + bytes(payload))
    except socket.timeout as exc:
        raise DeadlineExceededError(f"send timed out: {exc}") from exc
    except OSError as exc:
        raise RetryableError(f"send failed: {exc}") from exc


def read_frame_corr(sock: socket.socket) -> tuple:
    """Read one correlation-tagged frame; returns ``(corr_id, payload)``."""
    header = _recv_exact(sock, _HEADER_SIZE)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced oversized frame: {length} bytes")
    (corr_id,) = _LEN.unpack(_recv_exact(sock, _HEADER_SIZE))
    return corr_id, _recv_exact(sock, length)
