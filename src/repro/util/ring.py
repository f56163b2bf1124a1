"""Single-producer/single-consumer byte rings over a shared buffer.

The shared-memory transport (:mod:`repro.transport.shm`) carries the
framed byte stream over two of these rings — one per direction — mapped
into both processes. Each ring is a power-of-two data area plus a small
control block:

```
ctrl (256 bytes, one cache line per word)          data (capacity bytes)
┌────────────┬────────────┬──────────────┬──────────────┐ ┌───────────┐
│ tail  u64  │ head  u64  │ consumer-    │ producer-    │ │ records…  │
│ (producer) │ (consumer) │ waiting  u32 │ waiting  u32 │ │           │
│ @0         │ @64        │ @128         │ @192         │ │           │
└────────────┴────────────┴──────────────┴──────────────┘ └───────────┘
```

``tail`` and ``head`` are monotonically increasing byte offsets; the
actual position is ``offset & (capacity - 1)``. The producer writes only
``tail``, the consumer writes only ``head``, and each lives on its own
cache line so the two sides never false-share. Data moves in *records* —
``u32 length`` + 4 reserved bytes + payload, rounded up to 8 bytes so
every record header lands 8-aligned. A record never straddles the end of
the buffer: when the remaining contiguous span is too small the producer
plants a 4-byte *wrap marker* (length ``0xFFFFFFFF``) and continues at
offset zero, so payload copies are always one contiguous
``memoryview`` slice assignment (a single ``memcpy``), never split.

Publication discipline mirrors release/acquire in *program order*: the
producer stores the payload and record header before publishing the new
``tail``, and the consumer copies the payload out before publishing the
new ``head``. Pure Python has no memory fences, so how much of that
order the other side actually observes is platform-dependent:

* **Same process** (threads): the GIL serializes the interpreter-level
  stores — a counter is never observable ahead of the bytes it covers.
  This is the fully supported mode.
* **Cross-process over a shared ``mmap``**: each GIL orders only its own
  process. On x86-64 (TSO) the store-store order above is preserved by
  the hardware, so publication stays safe; on weakly-ordered CPUs
  (aarch64 — Apple Silicon, Graviton) payload/header stores may become
  visible *after* the published ``tail``, and the flag handshake below
  is a Dekker-style store→load pattern that is unordered even on x86.
  The consumer therefore validates every record length it loads
  (:meth:`RingConsumer.try_read_into` raises ``OSError(EIO)`` on a torn
  or impossible value instead of consuming garbage), and the transport
  layer bounds every park with a timeout re-check
  (:data:`repro.transport.shm.PARK_BACKSTOP_SECONDS`) so a lost wakeup
  costs bounded latency, never a hang. Neither turns weak ordering into
  release/acquire — cross-process use on weakly-ordered CPUs remains
  best-effort, detected rather than prevented.

The waiting flags implement the doorbell protocol without hot-path
syscalls: a side that is about to park sets its flag, re-checks the ring,
and only then sleeps on the doorbell fd; the opposite side sends a
doorbell byte only when it observes the flag set. Byte buffering in the
doorbell socket means a doorbell that was *sent* is never lost; the
backstop above covers the one that was never sent because the flag
store and the ring load crossed.

Records are transport chunks, not message boundaries: a frame larger
than the free contiguous span is split across records and the consumer
just concatenates payloads — both sides see one ordered byte stream.

Besides the copying ``try_write``/``try_read_into`` pair, both sides
expose a zero-copy surface over the same record format:

* producer: :meth:`RingProducer.reserve` hands out a writable
  ``memoryview`` over the next record's payload span (wrap markers and
  header alignment already handled), :meth:`RingProducer.commit`
  publishes the bytes the caller wrote in place, and
  :meth:`RingProducer.abort` rolls the reservation back without
  publishing anything — a torn record is impossible because the length
  header is written only at commit time, after the payload.
* consumer: :meth:`RingConsumer.peek_record` borrows the next pending
  record's payload as a read-only ``memoryview`` without moving
  ``head``; :meth:`RingConsumer.consume` releases the borrow and frees
  the span.

View lifetime is the caller's contract: a reserved or borrowed view is
invalidated (released) by the commit/abort/consume that ends it, and
every view must be dead before the backing segment's ``detach``/close —
the same BufferError containment discipline the shm transport applies
to its segment teardown.
"""

from __future__ import annotations

import errno
import os
import struct
import time

__all__ = [
    "CTRL_BYTES",
    "RECORD_HEADER",
    "RING_ALIGN",
    "WRAP_MARKER",
    "RingConsumer",
    "RingProducer",
    "consumer_view",
    "init_ring",
    "producer_view",
    "ring_region_size",
    "yield_cpu",
]

if hasattr(os, "sched_yield"):
    yield_cpu = os.sched_yield
else:  # pragma: no cover - POSIX always has sched_yield

    def yield_cpu() -> None:
        """Donate the rest of the timeslice without leaving the runqueue."""
        time.sleep(0)

#: Control block size; each control word sits on its own 64-byte line.
CTRL_BYTES = 256
#: Bytes of header before each record's payload (u32 length + 4 reserved).
RECORD_HEADER = 8
#: Record positions stay aligned to this, so a wrap marker always fits.
RING_ALIGN = 8
#: Length-field value marking "skip to the start of the buffer".
WRAP_MARKER = 0xFFFFFFFF

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

_OFF_TAIL = 0
_OFF_HEAD = 64
_OFF_CONSUMER_WAITING = 128
_OFF_PRODUCER_WAITING = 192


def ring_region_size(capacity: int) -> int:
    """Bytes one ring occupies in the shared buffer (ctrl + data)."""
    return CTRL_BYTES + capacity


def _check_capacity(capacity: int) -> None:
    if capacity < 64 or capacity & (capacity - 1):
        raise ValueError(f"ring capacity must be a power of two >= 64: {capacity}")


def init_ring(buffer, offset: int, capacity: int) -> None:
    """Zero a ring's control block (fresh mmap segments arrive zeroed;
    this makes reusing a buffer in tests explicit)."""
    _check_capacity(capacity)
    view = memoryview(buffer)
    view[offset : offset + CTRL_BYTES] = bytes(CTRL_BYTES)
    view.release()


class _RingSide:
    """State both sides share: views over the ctrl/data regions."""

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        _check_capacity(capacity)
        base = memoryview(buffer)
        if base.format != "B":
            base = base.cast("B")
        self._base = base
        self._ctrl = base[offset : offset + CTRL_BYTES]
        self._data = base[offset + CTRL_BYTES : offset + CTRL_BYTES + capacity]
        self._cap = capacity
        self._mask = capacity - 1

    @property
    def capacity(self) -> int:
        return self._cap

    def detach(self) -> None:
        """Release the buffer views so the backing mmap can close."""
        self._ctrl.release()
        self._data.release()
        self._base.release()


class RingProducer(_RingSide):
    """The writing side. Exactly one producer per ring."""

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        super().__init__(buffer, offset, capacity)
        # Local tail mirror: authoritative, since only we advance it.
        self._tail = _U64.unpack_from(self._ctrl, _OFF_TAIL)[0]
        # In-flight reservation (zero-copy writer). The length header is
        # only written at commit, so an aborted reservation leaves no
        # trace and a crashed writer never publishes a torn record.
        self._res_len = 0
        self._res_view = None

    # ------------------------------------------------------------ writing

    def try_write(self, data) -> int:
        """Append as much of *data* as currently fits; returns the byte
        count accepted (0 when the ring is full). Never blocks."""
        if self._res_view is not None:
            raise RuntimeError("ring write while a reservation is active")
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.format != "B":
            view = view.cast("B")
        remaining = len(view)
        total = 0
        ctrl, ring = self._ctrl, self._data
        cap, mask = self._cap, self._mask
        while remaining:
            tail = self._tail
            head = _U64.unpack_from(ctrl, _OFF_HEAD)[0]
            free = cap - (tail - head)
            if free < RECORD_HEADER + RING_ALIGN:
                break
            pos = tail & mask
            till_end = cap - pos
            if till_end < RECORD_HEADER + RING_ALIGN:
                # Not even a minimal record fits before the edge: plant
                # the wrap marker (the 8-byte stub always holds it) and
                # restart at offset zero — if the wrapped ring still has
                # room for a record.
                if free - till_end < RECORD_HEADER + RING_ALIGN:
                    break
                _U32.pack_into(ring, pos, WRAP_MARKER)
                tail += till_end
                _U64.pack_into(ctrl, _OFF_TAIL, tail)
                self._tail = tail
                continue
            span = min(till_end, free)
            room = ((span - RECORD_HEADER) // RING_ALIGN) * RING_ALIGN
            chunk = room if remaining > room else remaining
            base = pos + RECORD_HEADER
            ring[base : base + chunk] = view[total : total + chunk]
            _U32.pack_into(ring, pos, chunk)
            # Publish *after* payload and header are in place.
            tail += RECORD_HEADER + ((chunk + RING_ALIGN - 1) & ~(RING_ALIGN - 1))
            _U64.pack_into(ctrl, _OFF_TAIL, tail)
            self._tail = tail
            total += chunk
            remaining -= chunk
        return total

    # ------------------------------------------------- zero-copy writing

    def reserve(self, nbytes: int):
        """Reserve writable payload space for one in-place record.

        Returns a writable ``memoryview`` over up to *nbytes* contiguous
        payload bytes (the grant may be smaller: it is clipped to the
        largest 8-aligned span that fits before the buffer edge and the
        consumer's head), or ``None`` when not even a minimal record
        fits. Wrap markers are planted exactly as :meth:`try_write`
        would — publishing a skip is harmless before an abort because
        the consumer just fast-forwards over it.

        The reservation must be ended with :meth:`commit` or
        :meth:`abort`; both invalidate the returned view. Exactly one
        reservation may be active at a time, and :meth:`try_write` is
        rejected while one is (it would trample the reserved span).
        """
        if self._res_view is not None:
            raise RuntimeError("ring reservation already active")
        if nbytes <= 0:
            raise ValueError(f"reserve needs a positive size: {nbytes}")
        ctrl, ring = self._ctrl, self._data
        cap, mask = self._cap, self._mask
        while True:
            tail = self._tail
            head = _U64.unpack_from(ctrl, _OFF_HEAD)[0]
            free = cap - (tail - head)
            if free < RECORD_HEADER + RING_ALIGN:
                return None
            pos = tail & mask
            till_end = cap - pos
            if till_end < RECORD_HEADER + RING_ALIGN:
                if free - till_end < RECORD_HEADER + RING_ALIGN:
                    return None
                _U32.pack_into(ring, pos, WRAP_MARKER)
                tail += till_end
                _U64.pack_into(ctrl, _OFF_TAIL, tail)
                self._tail = tail
                continue
            span = min(till_end, free)
            room = ((span - RECORD_HEADER) // RING_ALIGN) * RING_ALIGN
            grant = room if nbytes > room else nbytes
            base = pos + RECORD_HEADER
            view = ring[base : base + grant]
            self._res_len = grant
            self._res_view = view
            return view

    def commit(self, nbytes: int) -> None:
        """Publish *nbytes* of the active reservation as one record.

        The caller has already written the payload through the reserved
        view, so the publication order is preserved: payload first, then
        the length header, then the tail. ``commit(0)`` is equivalent to
        :meth:`abort` (a zero-length record is the corrupt-stream
        sentinel and is never written). The reserved view is released —
        using it afterwards raises, by design.
        """
        if self._res_view is None:
            raise RuntimeError("commit without an active reservation")
        if nbytes < 0 or nbytes > self._res_len:
            raise ValueError(
                f"commit of {nbytes} bytes exceeds the {self._res_len}-byte grant"
            )
        self._res_view.release()
        self._res_view = None
        self._res_len = 0
        if nbytes == 0:
            return
        tail = self._tail
        _U32.pack_into(self._data, tail & self._mask, nbytes)
        tail += RECORD_HEADER + ((nbytes + RING_ALIGN - 1) & ~(RING_ALIGN - 1))
        _U64.pack_into(self._ctrl, _OFF_TAIL, tail)
        self._tail = tail

    def abort(self) -> None:
        """Roll back the active reservation without publishing anything.

        Nothing was observable to the consumer (the length header is
        only written by :meth:`commit`), so this is pure local state:
        the span is returned to the free pool and the reserved view is
        released so a leaked reference fails fast instead of scribbling
        on a future record.
        """
        if self._res_view is None:
            raise RuntimeError("abort without an active reservation")
        self._res_view.release()
        self._res_view = None
        self._res_len = 0

    def detach(self) -> None:
        if self._res_view is not None:
            self.abort()
        super().detach()

    def writable(self) -> bool:
        """Whether :meth:`try_write` could accept at least one byte now."""
        head = _U64.unpack_from(self._ctrl, _OFF_HEAD)[0]
        free = self._cap - (self._tail - head)
        pos = self._tail & self._mask
        till_end = self._cap - pos
        if till_end < RECORD_HEADER + RING_ALIGN:
            free -= till_end  # a wrap marker would eat the stub first
        return free >= RECORD_HEADER + RING_ALIGN

    def free_bytes(self) -> int:
        """Raw unreserved bytes (headers/padding not accounted)."""
        head = _U64.unpack_from(self._ctrl, _OFF_HEAD)[0]
        return self._cap - (self._tail - head)

    # ----------------------------------------------------- doorbell flags

    @property
    def peer_waiting(self) -> bool:
        """True when the consumer declared itself parked: a producer that
        just published must ring the doorbell."""
        return _U32.unpack_from(self._ctrl, _OFF_CONSUMER_WAITING)[0] != 0

    def set_waiting(self) -> None:
        """Declare this producer parked on a full ring (set before the
        final emptiness re-check, cleared after waking)."""
        _U32.pack_into(self._ctrl, _OFF_PRODUCER_WAITING, 1)

    def clear_waiting(self) -> None:
        _U32.pack_into(self._ctrl, _OFF_PRODUCER_WAITING, 0)


class RingConsumer(_RingSide):
    """The reading side. Exactly one consumer per ring."""

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        super().__init__(buffer, offset, capacity)
        self._head = _U64.unpack_from(self._ctrl, _OFF_HEAD)[0]
        # Partially-consumed record: local state only — head (and thus
        # the producer's free space) advances on record boundaries.
        self._rec_pos = 0
        self._rec_remaining = 0
        self._rec_len = 0
        # Outstanding zero-copy borrow from peek_record, if any.
        self._borrow = None

    # ------------------------------------------------------------ reading

    def try_read_into(self, out, nbytes: int = 0) -> int:
        """Copy up to ``nbytes or len(out)`` pending stream bytes into
        *out*; returns the count copied (0 when empty). Never blocks."""
        if self._borrow is not None:
            raise RuntimeError("ring read while a borrow is active")
        view = out if isinstance(out, memoryview) else memoryview(out)
        if view.format != "B":
            view = view.cast("B")
        want = nbytes or len(view)
        ctrl, ring = self._ctrl, self._data
        copied = 0
        while copied < want:
            if self._rec_remaining:
                take = self._rec_remaining
                if take > want - copied:
                    take = want - copied
                src = self._rec_pos
                view[copied : copied + take] = ring[src : src + take]
                copied += take
                self._rec_pos = src + take
                self._rec_remaining -= take
                if not self._rec_remaining:
                    # Free the record's span only once fully copied out.
                    padded = (self._rec_len + RING_ALIGN - 1) & ~(RING_ALIGN - 1)
                    head = self._head + RECORD_HEADER + padded
                    _U64.pack_into(ctrl, _OFF_HEAD, head)
                    self._head = head
                continue
            head = self._head
            tail = _U64.unpack_from(ctrl, _OFF_TAIL)[0]
            if tail == head:
                break
            pos = head & self._mask
            (length,) = _U32.unpack_from(ring, pos)
            if length == WRAP_MARKER:
                head += self._cap - pos
                _U64.pack_into(ctrl, _OFF_HEAD, head)
                self._head = head
                continue
            if length == 0 or length > self._cap - RECORD_HEADER:
                # The producer never writes such a record: this is a torn
                # read of an unpublished header (cross-process on a
                # weakly-ordered CPU — see the module docstring) or a
                # trampled control block. Consuming it would desync the
                # stream; fail the connection instead.
                raise OSError(errno.EIO, "shm ring corrupt record length")
            self._rec_pos = pos + RECORD_HEADER
            self._rec_remaining = length
            self._rec_len = length
        return copied

    # ------------------------------------------------- zero-copy reading

    def peek_record(self):
        """Borrow the next pending record's payload without copying.

        Returns a ``memoryview`` over the unconsumed payload bytes of
        the record at the head of the stream (after skipping any wrap
        marker), or ``None`` when the ring is empty. The head does NOT
        advance — the producer still sees the span as occupied — until
        :meth:`consume` runs, so the bytes behind the view are stable
        for as long as the borrow is held.

        Composes with :meth:`try_read_into`: a partially copied record's
        remainder is what gets borrowed. Exactly one borrow may be
        active at a time; copying reads are rejected while one is.
        """
        if self._borrow is not None:
            raise RuntimeError("ring borrow already active")
        ctrl, ring = self._ctrl, self._data
        while not self._rec_remaining:
            head = self._head
            tail = _U64.unpack_from(ctrl, _OFF_TAIL)[0]
            if tail == head:
                return None
            pos = head & self._mask
            (length,) = _U32.unpack_from(ring, pos)
            if length == WRAP_MARKER:
                head += self._cap - pos
                _U64.pack_into(ctrl, _OFF_HEAD, head)
                self._head = head
                continue
            if length == 0 or length > self._cap - RECORD_HEADER:
                raise OSError(errno.EIO, "shm ring corrupt record length")
            self._rec_pos = pos + RECORD_HEADER
            self._rec_remaining = length
            self._rec_len = length
        src = self._rec_pos
        view = ring[src : src + self._rec_remaining]
        self._borrow = view
        return view

    def consume(self, nbytes=None) -> None:
        """End the active borrow, freeing *nbytes* of it to the producer.

        ``nbytes`` defaults to the whole borrowed span; ``consume(0)``
        releases the borrow without advancing (the bytes will be seen
        again — the copy-path fallback). The borrowed view is released,
        so any reference that escaped the borrow window fails fast
        instead of silently reading recycled ring memory.
        """
        view = self._borrow
        if view is None:
            raise RuntimeError("consume without an active borrow")
        self._borrow = None
        if nbytes is None:
            nbytes = self._rec_remaining
        elif nbytes < 0 or nbytes > self._rec_remaining:
            view.release()
            raise ValueError(
                f"consume of {nbytes} bytes exceeds the "
                f"{self._rec_remaining}-byte borrow"
            )
        view.release()
        if not nbytes:
            return
        self._rec_pos += nbytes
        self._rec_remaining -= nbytes
        if not self._rec_remaining:
            padded = (self._rec_len + RING_ALIGN - 1) & ~(RING_ALIGN - 1)
            head = self._head + RECORD_HEADER + padded
            _U64.pack_into(self._ctrl, _OFF_HEAD, head)
            self._head = head

    def detach(self) -> None:
        if self._borrow is not None:
            self.consume(0)
        super().detach()

    def pending_bytes(self) -> int:
        """Upper bound on pending stream bytes (includes record headers
        and padding still to be skipped) — cheap sizing hint for read
        buffers; the exact count comes out of :meth:`try_read_into`."""
        tail = _U64.unpack_from(self._ctrl, _OFF_TAIL)[0]
        ahead = tail - self._head
        if ahead < 0 or ahead > self._cap:
            # A tail behind the head, or further ahead than the ring
            # holds, is a torn read or a trampled control block, like a
            # corrupt record length: fail the connection.
            raise OSError(errno.EIO, "shm ring corrupt tail")
        return ahead + self._rec_remaining

    def readable(self) -> bool:
        """Whether at least one stream byte is pending."""
        if self._rec_remaining:
            return True
        tail = _U64.unpack_from(self._ctrl, _OFF_TAIL)[0]
        head = self._head
        if tail == head:
            return False
        pos = head & self._mask
        (length,) = _U32.unpack_from(self._data, pos)
        if length != WRAP_MARKER:
            return True
        # Only a wrap marker published so far: data begins at offset 0.
        return tail > head + (self._cap - pos)

    # ----------------------------------------------------- doorbell flags

    @property
    def peer_waiting(self) -> bool:
        """True when the producer is parked on a full ring: a consumer
        that just freed space must ring the doorbell."""
        return _U32.unpack_from(self._ctrl, _OFF_PRODUCER_WAITING)[0] != 0

    def set_waiting(self) -> None:
        """Declare this consumer parked (or, for a selector-driven
        consumer, permanently interested in doorbell bytes)."""
        _U32.pack_into(self._ctrl, _OFF_CONSUMER_WAITING, 1)

    def clear_waiting(self) -> None:
        _U32.pack_into(self._ctrl, _OFF_CONSUMER_WAITING, 0)


def producer_view(buffer, offset: int, capacity: int) -> RingProducer:
    """The producing side of the ring at *offset* inside *buffer*."""
    return RingProducer(buffer, offset, capacity)


def consumer_view(buffer, offset: int, capacity: int) -> RingConsumer:
    """The consuming side of the ring at *offset* inside *buffer*."""
    return RingConsumer(buffer, offset, capacity)
