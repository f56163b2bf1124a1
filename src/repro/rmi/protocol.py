"""Wire protocol: request/response envelopes for every operation.

Operations:

=============  =====================================================
``CALL``       invoke a method on an exported object (NRMI semantics)
``FIELD_GET``  read an attribute through a remote pointer
``FIELD_SET``  write an attribute through a remote pointer
``DGC_RELEASE``drop remote references (distributed GC)
``PING``       liveness probe
=============  =====================================================

A ``CALL`` request carries the target object id, method name, the agreed
restore policy and serialization profile, the per-argument passing modes,
and the single serde stream containing every argument (one handle table —
cross-argument aliasing preserved). Responses are ``OK`` with an
operation-specific payload, ``EXCEPTION`` with the remote error, or
``PROTOCOL_ERROR`` with a message.

At-most-once header: every ``CALL`` leads with a one-byte attempt counter
(at a **fixed offset** right after the op byte, so the retry layer can
re-stamp it in place without re-marshalling the arguments) followed by a
varint client-generated call ID. Call ID 0 means "not tracked" — the
dispatcher's reply cache only deduplicates non-zero IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum, unique
from typing import List, Tuple

from repro.core.semantics import PassingMode
from repro.errors import ServerBusyError, UnmarshalError, WireFormatError
from repro.util.buffers import BufferReader, BufferWriter


@unique
class Op(IntEnum):
    CALL = 1
    FIELD_GET = 2
    FIELD_SET = 3
    DGC_RELEASE = 4
    PING = 5
    DGC_RENEW = 6
    CALL_BATCH = 7


@unique
class Status(IntEnum):
    OK = 0
    EXCEPTION = 1
    PROTOCOL_ERROR = 2
    # Load shedding: the server refused the request before deserializing
    # it (bounded queue full, or draining for shutdown). The frame is
    # status byte + one reason byte and nothing else — built by the net
    # loop without touching the payload, so shedding stays O(1) under
    # overload. Clients surface it as the retryable ServerBusyError.
    BUSY = 3


_MODE_TO_ID = {
    PassingMode.BY_VALUE: 0,
    PassingMode.BY_COPY: 1,
    PassingMode.BY_COPY_RESTORE: 2,
    PassingMode.BY_REFERENCE: 3,
}
_ID_TO_MODE = {v: k for k, v in _MODE_TO_ID.items()}

# Requests name "delta" (id 2); a server answers it with "delta-slots"
# (id 4) when the caller advertised CAP_DELTA_SLOTS and with "full" (id 1)
# otherwise. Id 4 is a reply kind only and id 2 never appears in a reply.
_POLICY_TO_ID = {"none": 0, "full": 1, "delta": 2, "dce": 3, "delta-slots": 4}
_ID_TO_POLICY = {v: k for k, v in _POLICY_TO_ID.items()}

# ------------------------------------------------------- capability flags
#
# The CALL frame's former ship_map byte is a flags byte: bit 0 keeps the
# ship_map meaning (old encoders only ever wrote 0 or 1), the remaining
# bits advertise caller capabilities. Decoders MUST ignore flag bits they
# do not know — a peer that never advertises (flags & ~1 == 0) simply gets
# full-map replies to its delta calls.

#: The caller can decode the dirty-slot delta reply frame (kind 4).
CAP_DELTA_SLOTS = 0x02

#: The caller holds a per-connection schema session (repro.serde.schema)
#: and may flag argument streams with STREAM_FLAG_SCHEMA_CACHE once the
#: server acknowledges. Servers that honor the capability OR
#: REPLY_FLAG_SCHEMA_ACK onto the applied-policy byte of OK CALL replies.
CAP_SCHEMA_CACHE = 0x04

_FLAG_SHIP_MAP = 0x01

#: High bit of the applied-policy byte leading an OK CALL reply payload:
#: the server accepted CAP_SCHEMA_CACHE for this connection. Policy wire
#: ids are tiny (0-4), so the bit never collides; legacy clients that
#: never advertise the capability never see it set.
REPLY_FLAG_SCHEMA_ACK = 0x80


def policy_wire_id(name: str) -> int:
    """The one-byte wire id of a restore policy name."""
    try:
        return _POLICY_TO_ID[name]
    except KeyError:
        raise WireFormatError(f"unknown restore policy {name!r}") from None


def policy_from_wire(policy_id: int) -> str:
    try:
        return _ID_TO_POLICY[policy_id]
    except KeyError:
        raise WireFormatError(f"unknown restore policy id {policy_id}") from None

_PROFILE_TO_ID = {"legacy": 0, "modern": 1}
_ID_TO_PROFILE = {v: k for k, v in _PROFILE_TO_ID.items()}


@dataclass
class CallRequest:
    object_id: int
    method: str
    policy: str
    profile: str
    modes: Tuple[PassingMode, ...]
    # bytes-like: the decoder hands back a zero-copy memoryview over the
    # request frame; the encoder accepts any bytes-like object.
    args_payload: bytes
    # Ablation knob (paper 5.2.4 #1): when True the caller transmitted its
    # linear map explicitly as an extra root instead of relying on the
    # receiver reconstructing it during deserialization.
    ship_map: bool = False
    # Names of trailing keyword arguments: the last len(kwarg_names)
    # entries of modes / args_payload roots are the keyword values, in
    # this order.
    kwarg_names: Tuple[str, ...] = ()
    # At-most-once identity: a non-zero client-generated id keys the
    # server's reply cache; attempt counts resends of the same id.
    call_id: int = 0
    attempt: int = 0
    # Capability bits the caller advertised (CAP_* constants above);
    # travels in the flags byte alongside ship_map.
    caps: int = 0


#: Byte offset of the attempt counter inside an encoded CALL frame.
ATTEMPT_OFFSET = 1


def read_call_header(reader: BufferReader) -> Tuple[int, int]:
    """Read ``(call_id, attempt)``; *reader* sits just past the op byte."""
    attempt = reader.read_u8()
    call_id = reader.read_uvarint()
    return call_id, attempt


def set_attempt(frame, attempt: int):
    """Re-stamp the attempt counter of an encoded CALL frame in place.

    Mutable frames (``bytearray`` or a writable ``memoryview`` over a
    pooled encode buffer) are patched without copying; immutable
    ``bytes`` get one copy. Returns the (possibly new) frame.
    """
    if not 0 <= attempt <= 255:
        raise WireFormatError(f"attempt counter out of range: {attempt}")
    if isinstance(frame, memoryview) and not frame.readonly:
        frame[ATTEMPT_OFFSET] = attempt
        return frame
    if isinstance(frame, bytearray):
        frame[ATTEMPT_OFFSET] = attempt
        return frame
    patched = bytearray(frame)
    patched[ATTEMPT_OFFSET] = attempt
    return patched


def encode_call(request: CallRequest, buffer=None):
    """Encode a CALL envelope.

    With *buffer* (a recycled ``bytearray``, e.g. from a
    :class:`repro.util.buffers.BufferPool`), the frame is built in place
    and returned as a ``memoryview`` — no fresh allocation, no final copy.
    The caller owns the buffer's lifecycle and must not release it until
    the view has been sent.
    """
    writer = BufferWriter(buffer)
    writer.write_u8(Op.CALL)
    if not 0 <= request.attempt <= 255:
        raise WireFormatError(f"attempt counter out of range: {request.attempt}")
    writer.write_u8(request.attempt)
    writer.write_uvarint(request.call_id)
    writer.write_uvarint(request.object_id)
    writer.write_str(request.method)
    writer.write_u8(_POLICY_TO_ID[request.policy])
    writer.write_u8(_PROFILE_TO_ID[request.profile])
    flags = _FLAG_SHIP_MAP if request.ship_map else 0
    flags |= request.caps & ~_FLAG_SHIP_MAP & 0xFF
    writer.write_u8(flags)
    writer.write_uvarint(len(request.modes))
    for mode in request.modes:
        writer.write_u8(_MODE_TO_ID[mode])
    writer.write_uvarint(len(request.kwarg_names))
    for name in request.kwarg_names:
        writer.write_str(name)
    # The args stream is the envelope's final field: no trailing length.
    writer.write_bytes(request.args_payload)
    return writer.view() if buffer is not None else writer.getvalue()


def decode_call(
    reader: BufferReader, call_id: int = 0, attempt: int = 0
) -> CallRequest:
    """Decode a CALL body; *reader* sits just past the at-most-once header.

    The dispatcher consumes the header itself (via
    :func:`read_call_header`) before deciding whether to serve the call
    from its reply cache; pass the values through so the decoded request
    round-trips.
    """
    object_id = reader.read_uvarint()
    method = reader.read_str()
    policy_id = reader.read_u8()
    profile_id = reader.read_u8()
    try:
        policy = _ID_TO_POLICY[policy_id]
        profile = _ID_TO_PROFILE[profile_id]
    except KeyError as exc:
        raise WireFormatError(f"unknown policy/profile id: {exc}") from None
    flags = reader.read_u8()
    ship_map = bool(flags & _FLAG_SHIP_MAP)
    caps = flags & ~_FLAG_SHIP_MAP
    argc = reader.read_uvarint()
    modes = []
    for _ in range(argc):
        mode_id = reader.read_u8()
        try:
            modes.append(_ID_TO_MODE[mode_id])
        except KeyError:
            raise WireFormatError(f"unknown passing-mode id {mode_id}") from None
    kwarg_count = reader.read_uvarint()
    kwarg_names = tuple(reader.read_str() for _ in range(kwarg_count))
    if kwarg_count > len(modes):
        raise WireFormatError("more keyword names than argument modes")
    # Zero-copy: the args stream is decoded in place from the request
    # frame (the frame outlives the synchronous handler that decodes it).
    args_payload = reader.read_view(reader.remaining)
    return CallRequest(
        object_id=object_id,
        method=method,
        policy=policy,
        profile=profile,
        modes=tuple(modes),
        args_payload=args_payload,
        ship_map=ship_map,
        kwarg_names=kwarg_names,
        call_id=call_id,
        attempt=attempt,
        caps=caps,
    )


def encode_field_get(object_id: int, name: str) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Op.FIELD_GET)
    writer.write_uvarint(object_id)
    writer.write_str(name)
    return writer.getvalue()


def decode_field_get(reader: BufferReader) -> Tuple[int, str]:
    object_id = reader.read_uvarint()
    name = reader.read_str()
    reader.expect_end()
    return object_id, name


def encode_field_set(object_id: int, name: str, value_payload: bytes) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Op.FIELD_SET)
    writer.write_uvarint(object_id)
    writer.write_str(name)
    writer.write_bytes(value_payload)
    return writer.getvalue()


def decode_field_set(reader: BufferReader) -> Tuple[int, str, bytes]:
    object_id = reader.read_uvarint()
    name = reader.read_str()
    value_payload = reader.read_bytes(reader.remaining)
    return object_id, name, value_payload


def encode_dgc_release(releases: List[Tuple[int, int]]) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Op.DGC_RELEASE)
    writer.write_uvarint(len(releases))
    for object_id, count in releases:
        writer.write_uvarint(object_id)
        writer.write_uvarint(count)
    return writer.getvalue()


def decode_dgc_release(reader: BufferReader) -> List[Tuple[int, int]]:
    count = reader.read_uvarint()
    releases = [(reader.read_uvarint(), reader.read_uvarint()) for _ in range(count)]
    reader.expect_end()
    return releases


def encode_dgc_renew(object_ids: List[int]) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Op.DGC_RENEW)
    writer.write_uvarint(len(object_ids))
    for object_id in object_ids:
        writer.write_uvarint(object_id)
    return writer.getvalue()


def decode_dgc_renew(reader: BufferReader) -> List[int]:
    count = reader.read_uvarint()
    object_ids = [reader.read_uvarint() for _ in range(count)]
    reader.expect_end()
    return object_ids


def encode_batch(sub_requests: List[bytes]) -> bytes:
    """Bundle complete request frames (op byte included) into one frame."""
    writer = BufferWriter()
    writer.write_u8(Op.CALL_BATCH)
    writer.write_uvarint(len(sub_requests))
    for sub in sub_requests:
        writer.write_len_bytes(sub)
    return writer.getvalue()


def decode_batch(reader: BufferReader) -> List[bytes]:
    count = reader.read_uvarint()
    subs = [reader.read_len_bytes() for _ in range(count)]
    reader.expect_end()
    return subs


def encode_batch_responses(sub_responses: List[bytes]) -> bytes:
    writer = BufferWriter()
    writer.write_uvarint(len(sub_responses))
    for sub in sub_responses:
        writer.write_len_bytes(sub)
    return writer.getvalue()


def decode_batch_responses(reader: BufferReader) -> List[bytes]:
    count = reader.read_uvarint()
    subs = [reader.read_len_bytes() for _ in range(count)]
    reader.expect_end()
    return subs


def encode_ping() -> bytes:
    writer = BufferWriter()
    writer.write_u8(Op.PING)
    return writer.getvalue()


# ---------------------------------------------------------------- responses


def ok_response(payload: bytes = b"") -> bytes:
    writer = BufferWriter()
    writer.write_u8(Status.OK)
    writer.write_bytes(payload)
    return writer.getvalue()


def exception_response(exc_type: str, message: str, traceback_text: str) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Status.EXCEPTION)
    writer.write_str(exc_type)
    writer.write_str(message)
    writer.write_str(traceback_text)
    return writer.getvalue()


def protocol_error_response(message: str) -> bytes:
    writer = BufferWriter()
    writer.write_u8(Status.PROTOCOL_ERROR)
    writer.write_str(message)
    return writer.getvalue()


def busy_response(reason: int = ServerBusyError.QUEUE_FULL) -> bytes:
    """The fast load-shedding reply: status byte + one reason byte.

    Deliberately tiny and writer-free — the server's net loop emits it
    inline for requests it never deserialized, so a shed costs two bytes
    of encoding work no matter how large the rejected payload was.
    """
    return bytes((Status.BUSY, reason & 0xFF))


def raise_if_busy(response) -> None:
    """Raise :class:`ServerBusyError` when *response* is a BUSY frame.

    A one-byte peek, cheap enough for the retry layer's send path: BUSY
    must surface *inside* ``call_with_retry`` (as a retryable exception)
    rather than after it, or shedding would never be retried.
    """
    if response and response[0] == _BUSY_BYTE:
        raise ServerBusyError(response[1] if len(response) > 1 else 0)


_BUSY_BYTE = int(Status.BUSY)


def split_response(response: bytes) -> Tuple[Status, BufferReader]:
    """Parse the status byte; the reader is positioned at the payload.

    A BUSY status never reaches the caller as a parsed reply: the server
    refused the request without executing it, so the one correct reaction
    everywhere is the retryable :class:`ServerBusyError`.
    """
    reader = BufferReader(response)
    try:
        status = Status(reader.read_u8())
    except (ValueError, WireFormatError) as exc:
        raise UnmarshalError(f"malformed response: {exc}") from exc
    if status is Status.BUSY:
        raise ServerBusyError(reader.read_u8() if reader.remaining else 0)
    return status, reader
