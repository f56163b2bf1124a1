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
Both processes run on one machine, so every control word and record
length is stored in native byte order, and each is read and written as
one aligned load or store through a ``memoryview.cast`` of its region.

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
"""

from __future__ import annotations

import errno
import os
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

# Control-word slots, as indexes into the u64 and u32 views of the
# control block: tail @0, head @64, consumer-waiting @128,
# producer-waiting @192 (byte offsets).
_TAIL = 0
_HEAD = 8
_CONSUMER_WAITING = 32
_PRODUCER_WAITING = 48


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
    """State both sides share: views over the ctrl/data regions.

    ``_words`` (u64) and ``_flags`` (u32) view the control block and
    ``_lens`` (u32) the data area, in native byte order: every counter,
    flag and record-header access is one aligned load or store through
    them (``struct.pack_into`` would clear its target before writing,
    so another process could load a zero or half-written value).
    """

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        _check_capacity(capacity)
        base = memoryview(buffer)
        if base.format != "B":
            base = base.cast("B")
        self._base = base
        self._ctrl = base[offset : offset + CTRL_BYTES]
        self._data = base[offset + CTRL_BYTES : offset + CTRL_BYTES + capacity]
        self._words = self._ctrl.cast("Q")
        self._flags = self._ctrl.cast("I")
        self._lens = self._data.cast("I")
        self._cap = capacity
        self._mask = capacity - 1

    @property
    def capacity(self) -> int:
        return self._cap

    def detach(self) -> None:
        """Release the buffer views so the backing mmap can close."""
        self._words.release()
        self._flags.release()
        self._lens.release()
        self._ctrl.release()
        self._data.release()
        self._base.release()


class RingProducer(_RingSide):
    """The writing side. Exactly one producer per ring."""

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        super().__init__(buffer, offset, capacity)
        # Local tail mirror: authoritative, since only we advance it.
        self._tail = self._words[_TAIL]

    # ------------------------------------------------------------ writing

    def try_write(self, data) -> int:
        """Append as much of *data* as currently fits; returns the byte
        count accepted (0 when the ring is full). Never blocks."""
        view = data if isinstance(data, memoryview) else memoryview(data)
        if view.format != "B":
            view = view.cast("B")
        remaining = len(view)
        total = 0
        words, lens, ring = self._words, self._lens, self._data
        cap, mask = self._cap, self._mask
        while remaining:
            tail = self._tail
            free = cap - (tail - words[_HEAD])
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
                lens[pos >> 2] = WRAP_MARKER
                tail += till_end
                words[_TAIL] = tail
                self._tail = tail
                continue
            span = min(till_end, free)
            room = ((span - RECORD_HEADER) // RING_ALIGN) * RING_ALIGN
            chunk = room if remaining > room else remaining
            base = pos + RECORD_HEADER
            ring[base : base + chunk] = view[total : total + chunk]
            lens[pos >> 2] = chunk
            # Publish *after* payload and header are in place.
            tail += RECORD_HEADER + ((chunk + RING_ALIGN - 1) & ~(RING_ALIGN - 1))
            words[_TAIL] = tail
            self._tail = tail
            total += chunk
            remaining -= chunk
        return total

    def writable(self) -> bool:
        """Whether :meth:`try_write` could accept at least one byte now."""
        free = self._cap - (self._tail - self._words[_HEAD])
        pos = self._tail & self._mask
        till_end = self._cap - pos
        if till_end < RECORD_HEADER + RING_ALIGN:
            free -= till_end  # a wrap marker would eat the stub first
        return free >= RECORD_HEADER + RING_ALIGN

    # ----------------------------------------------------- doorbell flags

    @property
    def peer_waiting(self) -> bool:
        """True when the consumer declared itself parked: a producer that
        just published must ring the doorbell."""
        return self._flags[_CONSUMER_WAITING] != 0

    def set_waiting(self) -> None:
        """Declare this producer parked on a full ring (set before the
        final emptiness re-check, cleared after waking)."""
        self._flags[_PRODUCER_WAITING] = 1

    def clear_waiting(self) -> None:
        self._flags[_PRODUCER_WAITING] = 0


class RingConsumer(_RingSide):
    """The reading side. Exactly one consumer per ring."""

    def __init__(self, buffer, offset: int, capacity: int) -> None:
        super().__init__(buffer, offset, capacity)
        self._head = self._words[_HEAD]
        # Partially-consumed record: local state only — head (and thus
        # the producer's free space) advances on record boundaries.
        self._rec_pos = 0
        self._rec_remaining = 0
        self._rec_len = 0

    # ------------------------------------------------------------ reading

    def try_read_into(self, out, nbytes: int = 0) -> int:
        """Copy up to ``nbytes or len(out)`` pending stream bytes into
        *out*; returns the count copied (0 when empty). Never blocks."""
        view = out if isinstance(out, memoryview) else memoryview(out)
        if view.format != "B":
            view = view.cast("B")
        want = nbytes or len(view)
        words, lens, ring = self._words, self._lens, self._data
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
                    words[_HEAD] = head
                    self._head = head
                continue
            head = self._head
            if words[_TAIL] == head:
                break
            pos = head & self._mask
            length = lens[pos >> 2]
            if length == WRAP_MARKER:
                head += self._cap - pos
                words[_HEAD] = head
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

    def pending_bytes(self) -> int:
        """Upper bound on pending stream bytes (includes record headers
        and padding still to be skipped) — cheap sizing hint for read
        buffers; the exact count comes out of :meth:`try_read_into`."""
        ahead = self._words[_TAIL] - self._head
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
        tail = self._words[_TAIL]
        head = self._head
        if tail == head:
            return False
        pos = head & self._mask
        if self._lens[pos >> 2] != WRAP_MARKER:
            return True
        # Only a wrap marker published so far: data begins at offset 0.
        return tail > head + (self._cap - pos)

    # ----------------------------------------------------- doorbell flags

    @property
    def peer_waiting(self) -> bool:
        """True when the producer is parked on a full ring: a consumer
        that just freed space must ring the doorbell."""
        return self._flags[_PRODUCER_WAITING] != 0

    def set_waiting(self) -> None:
        """Declare this consumer parked (or, for a selector-driven
        consumer, permanently interested in doorbell bytes)."""
        self._flags[_CONSUMER_WAITING] = 1

    def clear_waiting(self) -> None:
        self._flags[_CONSUMER_WAITING] = 0


def producer_view(buffer, offset: int, capacity: int) -> RingProducer:
    """The producing side of the ring at *offset* inside *buffer*."""
    return RingProducer(buffer, offset, capacity)


def consumer_view(buffer, offset: int, capacity: int) -> RingConsumer:
    """The consuming side of the ring at *offset* inside *buffer*."""
    return RingConsumer(buffer, offset, capacity)
