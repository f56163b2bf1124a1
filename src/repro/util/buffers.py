"""Binary buffer primitives used by the wire format.

``BufferWriter``/``BufferReader`` provide the primitive encodings every layer
shares: fixed-width integers, zig-zag varints (compact for the small handle
numbers that dominate linear-map traffic), length-prefixed bytes and UTF-8
strings, and IEEE-754 doubles.

The implementation is allocation-conscious because these primitives sit at
the bottom of the serialization hot loop:

* the writer appends into **one growable ``bytearray``** (``struct.pack_into``
  for fixed-width values, inlined loops for varints) instead of collecting a
  list of per-primitive ``bytes`` chunks;
* the reader decodes through a **``memoryview``**, so fixed-width and varint
  reads never slice-copy — only ``read_bytes`` (which must hand out real
  ``bytes`` values) copies;
* :class:`BufferPool` recycles writer storage between calls so a steady-state
  invocation pipeline allocates no fresh write buffers.

The wire format itself is unchanged: streams produced by earlier versions of
this module decode identically.
"""

from __future__ import annotations

import struct
import threading
from typing import List, Optional, Union

from repro.errors import WireFormatError

_F64 = struct.Struct(">d")
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")

_PAD4 = b"\x00\x00\x00\x00"
_PAD8 = _PAD4 + _PAD4

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

BytesLike = Union[bytes, bytearray, memoryview]


class BufferWriter:
    """An append-only binary buffer over a single growable ``bytearray``."""

    __slots__ = ("_buf",)

    def __init__(self, buffer: Optional[bytearray] = None) -> None:
        if buffer is None:
            self._buf = bytearray()
        else:
            # Reuse caller-provided (typically pooled) storage.
            if buffer:
                del buffer[:]
            self._buf = buffer

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def raw(self) -> bytearray:
        """The underlying bytearray (trusted fast paths append directly)."""
        return self._buf

    def write_bytes(self, data: BytesLike) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf.append(value)

    def write_u32(self, value: int) -> None:
        buf = self._buf
        pos = len(buf)
        buf += _PAD4
        _U32.pack_into(buf, pos, value)

    def write_i64(self, value: int) -> None:
        buf = self._buf
        pos = len(buf)
        buf += _PAD8
        _I64.pack_into(buf, pos, value)

    def write_f64(self, value: float) -> None:
        buf = self._buf
        pos = len(buf)
        buf += _PAD8
        _F64.pack_into(buf, pos, value)

    def write_varint(self, value: int) -> None:
        """Write a signed integer as a zig-zag LEB128 varint."""
        if value < _INT64_MIN or value > _INT64_MAX:
            raise WireFormatError(f"varint out of 64-bit range: {value}")
        encoded = (value << 1) ^ (value >> 63)
        buf = self._buf
        while encoded > 0x7F:
            buf.append((encoded & 0x7F) | 0x80)
            encoded >>= 7
        buf.append(encoded)

    def write_uvarint(self, value: int) -> None:
        """Write an unsigned LEB128 varint (used for lengths and handles)."""
        if value < 0:
            raise WireFormatError(f"uvarint must be non-negative: {value}")
        buf = self._buf
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def write_len_bytes(self, data: BytesLike) -> None:
        self.write_uvarint(len(data))
        self._buf += data

    def write_str(self, text: str) -> None:
        self.write_len_bytes(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        """An immutable copy of everything written so far."""
        return bytes(self._buf)

    def view(self) -> memoryview:
        """A zero-copy view of the written bytes.

        The view pins the underlying storage: release it (or drop every
        reference) before the buffer is resized or returned to a pool.
        """
        return memoryview(self._buf)

    def reset(self) -> None:
        """Discard all written bytes, keeping the writer reusable."""
        del self._buf[:]


class BufferReader:
    """A sequential reader with bounds checking.

    Accepts any contiguous bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``) and reads primitives through a ``memoryview`` without
    intermediate slice copies.
    """

    __slots__ = ("_mv", "_pos", "_len", "_raw")

    def __init__(self, data: BytesLike) -> None:
        self._mv = data if type(data) is memoryview else memoryview(data)
        # Passthrough for consumers that want a bytes object (generated
        # decoders index bytes faster than a memoryview): when the input
        # already is one, no re-copy is ever needed.
        self._raw = data if type(data) is bytes else None
        self._len = len(self._mv)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._len - self._pos

    def _bounds_error(self, count: int) -> WireFormatError:
        return WireFormatError(
            f"truncated stream: need {count} bytes at offset {self._pos}, "
            f"have {self._len - self._pos}"
        )

    def read_bytes(self, count: int) -> bytes:
        pos = self._pos
        if count < 0 or pos + count > self._len:
            raise self._bounds_error(count)
        self._pos = pos + count
        return bytes(self._mv[pos : pos + count])

    def read_view(self, count: int) -> memoryview:
        """Zero-copy read: a memoryview over the next *count* bytes.

        The view shares storage with (and pins) the reader's input; use it
        for payload splitting, not for values that outlive the stream.
        """
        pos = self._pos
        if count < 0 or pos + count > self._len:
            raise self._bounds_error(count)
        self._pos = pos + count
        return self._mv[pos : pos + count]

    def read_u8(self) -> int:
        pos = self._pos
        if pos >= self._len:
            raise self._bounds_error(1)
        self._pos = pos + 1
        return self._mv[pos]

    def peek_u8(self) -> int:
        """The next byte without consuming it (fast-path tag dispatch)."""
        pos = self._pos
        if pos >= self._len:
            raise self._bounds_error(1)
        return self._mv[pos]

    def read_u32(self) -> int:
        pos = self._pos
        if pos + 4 > self._len:
            raise self._bounds_error(4)
        self._pos = pos + 4
        return _U32.unpack_from(self._mv, pos)[0]

    def read_i64(self) -> int:
        pos = self._pos
        if pos + 8 > self._len:
            raise self._bounds_error(8)
        self._pos = pos + 8
        return _I64.unpack_from(self._mv, pos)[0]

    def read_f64(self) -> float:
        pos = self._pos
        if pos + 8 > self._len:
            raise self._bounds_error(8)
        self._pos = pos + 8
        return _F64.unpack_from(self._mv, pos)[0]

    def read_uvarint(self) -> int:
        mv = self._mv
        length = self._len
        pos = self._pos
        result = 0
        shift = 0
        while True:
            if pos >= length:
                raise self._bounds_error(1)
            byte = mv[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._pos = pos
                return result
            shift += 7
            if shift > 70:
                self._pos = pos
                raise WireFormatError("uvarint too long (corrupt stream)")

    def read_varint(self) -> int:
        raw = self.read_uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def read_len_bytes(self) -> bytes:
        return self.read_bytes(self.read_uvarint())

    def read_len_view(self) -> memoryview:
        """Zero-copy :meth:`read_len_bytes`: a view over the
        length-prefixed span. Shares (and pins) the reader's input —
        for transient splitting, never for values that outlive the
        stream (copy those out with ``bytes``)."""
        return self.read_view(self.read_uvarint())

    def read_str(self) -> str:
        count = self.read_uvarint()
        pos = self._pos
        if pos + count > self._len:
            raise self._bounds_error(count)
        self._pos = pos + count
        try:
            return str(self._mv[pos : pos + count], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in string: {exc}") from exc

    def expect_end(self) -> None:
        if self._len - self._pos:
            raise WireFormatError(
                f"{self._len - self._pos} trailing bytes after payload"
            )


class ChunkedBufferWriter:
    """The pre-optimization writer: a list of per-primitive ``bytes`` chunks.

    Kept as the **legacy profile's** buffer implementation. The legacy
    profile models JDK 1.3-era serialization, whose stream layer allocated
    an object per written primitive; this class reproduces that allocation
    behaviour (one ``bytes`` object per write, a ``bytearray`` per varint, a
    final ``join``) so the legacy/modern performance gap keeps the shape the
    paper reports. Output is byte-identical to :class:`BufferWriter`.
    """

    __slots__ = ("_chunks", "_size")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def write_bytes(self, data: BytesLike) -> None:
        if type(data) is not bytes:
            data = bytes(data)
        self._chunks.append(data)
        self._size += len(data)

    def write_u8(self, value: int) -> None:
        self.write_bytes(_U8.pack(value))

    def write_u32(self, value: int) -> None:
        self.write_bytes(_U32.pack(value))

    def write_i64(self, value: int) -> None:
        self.write_bytes(_I64.pack(value))

    def write_f64(self, value: float) -> None:
        self.write_bytes(_F64.pack(value))

    def write_varint(self, value: int) -> None:
        if value < _INT64_MIN or value > _INT64_MAX:
            raise WireFormatError(f"varint out of 64-bit range: {value}")
        encoded = (value << 1) ^ (value >> 63)
        out = bytearray()
        while True:
            byte = encoded & 0x7F
            encoded >>= 7
            if encoded:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self.write_bytes(bytes(out))

    def write_uvarint(self, value: int) -> None:
        if value < 0:
            raise WireFormatError(f"uvarint must be non-negative: {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self.write_bytes(bytes(out))

    def write_len_bytes(self, data: BytesLike) -> None:
        self.write_uvarint(len(data))
        self.write_bytes(data)

    def write_str(self, text: str) -> None:
        self.write_len_bytes(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        if len(self._chunks) > 1:
            joined = b"".join(self._chunks)
            self._chunks = [joined]
        return self._chunks[0] if self._chunks else b""

    def view(self) -> memoryview:
        return memoryview(self.getvalue())

    def reset(self) -> None:
        self._chunks.clear()
        self._size = 0


class SlicingBufferReader(BufferReader):
    """The pre-optimization reader: slice-copies the input per read.

    The legacy profile's counterpart to :class:`ChunkedBufferWriter`: every
    ``read_bytes`` materializes a fresh ``bytes`` slice and fixed-width reads
    go through it, reproducing the per-read allocation cost of the legacy
    stack. Decoding semantics are identical to :class:`BufferReader`.
    """

    __slots__ = ("_data",)

    def __init__(self, data: BytesLike) -> None:
        self._data = bytes(data)
        super().__init__(self._data)

    def read_bytes(self, count: int) -> bytes:
        pos = self._pos
        if count < 0 or pos + count > self._len:
            raise self._bounds_error(count)
        out = self._data[pos : pos + count]
        self._pos = pos + count
        return out

    def read_u8(self) -> int:
        return _U8.unpack(self.read_bytes(1))[0]

    def read_u32(self) -> int:
        return _U32.unpack(self.read_bytes(4))[0]

    def read_i64(self) -> int:
        return _I64.unpack(self.read_bytes(8))[0]

    def read_f64(self) -> float:
        return _F64.unpack(self.read_bytes(8))[0]

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            if shift > 70:
                raise WireFormatError("uvarint too long (corrupt stream)")
            byte = self.read_u8()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def read_str(self) -> str:
        try:
            return self.read_len_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in string: {exc}") from exc


class BufferPool:
    """A bounded, thread-safe pool of reusable ``bytearray`` write buffers.

    ``acquire`` hands out a cleared buffer (recycled when one is available);
    ``release`` returns it. Buffers that grew beyond ``max_buffer_bytes`` are
    dropped instead of pooled, so one pathological payload cannot pin memory
    forever. Releasing a buffer that still has live ``memoryview`` exports is
    safe: it is silently discarded rather than recycled.
    """

    __slots__ = ("_buffers", "_lock", "max_buffers", "max_buffer_bytes")

    def __init__(self, max_buffers: int = 16, max_buffer_bytes: int = 4 << 20) -> None:
        self._buffers: List[bytearray] = []
        self._lock = threading.Lock()
        self.max_buffers = max_buffers
        self.max_buffer_bytes = max_buffer_bytes

    def acquire(self) -> bytearray:
        with self._lock:
            if self._buffers:
                return self._buffers.pop()
        return bytearray()

    def release(self, buffer: Optional[bytearray]) -> None:
        if buffer is None or len(buffer) > self.max_buffer_bytes:
            return
        try:
            del buffer[:]
        except BufferError:
            return  # a live memoryview still pins the storage: drop it
        with self._lock:
            if len(self._buffers) < self.max_buffers:
                self._buffers.append(buffer)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffers)
