"""Wire-format type tags.

Every encoded value starts with one tag byte; every tag's payload is
self-describing, so the stream can be decoded in a single pass.

An ``OBJECT`` is a *layout key* and then the field values in that
layout's order. A layout is a class and its field names in write order.
Key 0 defines a layout inline — class key, field count, one name key per
field — and appends it to the stream's layout table; key k >= 1 is
layout k - 1 of this stream. Wire version 2 introduced the layout key.

A *slot stream* (a reply that restores the caller's retained objects) sets
:data:`STREAM_FLAG_SLOTS` and states, after the flags byte, its slot count
``n`` and how many slots it defines: handles ``0 … n-1`` are the caller's
retained objects, in linear-map order, and the stream's own handles
number from ``n``. The first time it
meets a slot it restores, it *defines* it — ``OLD_OBJECT`` (slot, layout
key, values) or ``OLD_CONTAINER`` (slot, then a list, set, dict or
bytearray value) — without allocating a handle; every other reference to
a slot is a ``REF``. Wire version 3 introduced slot streams. Wire
version 4 changed no tag: it marks call streams whose arguments are in
``repro.nrmi.invocation.wire_order`` (copy-restore roots ahead of by-copy
arguments), which a version-3 peer would dispatch in the wrong order.

Wire version 5 added *short object headers*, one byte that the receiver
expands to a whole header: tag bytes with the high bit set carry a
stream layout ``k`` of ``1 … SHORT_LAYOUTS`` in their low six bits.
Wire version 6 added *compact ints*: a non-negative int below ``2**20``
folds its high bits into the tag byte. The tag byte map:

=============  ==========================================================
``0x00-0x13``  :class:`Tag` (the long forms of every header)
``0x14-0x1F``  unassigned
``0x20-0x5F``  ``0x20 + (v >> 8)``, then ``v & 0xFF``: an int ``v`` with
               ``0 <= v < 2**14`` (wire version 6)
``0x60-0x6F``  ``0x60 + (v >> 16)``, then ``v & 0xFFFF``, big-endian:
               an int ``v`` with ``2**14 <= v < 2**20`` (wire version 6)
``0x70-0x7F``  unassigned
``0x80-0xBF``  ``0x80 | (k - 1)``: a new object of layout ``k``, the same
               as ``OBJECT`` and layout key ``k``
``0xC0-0xFF``  ``0xC0 | (k - 1)``: the definition of slot ``last + 1``
               with layout ``k``, the same as ``OLD_OBJECT``, that slot
               and layout key ``k``
=============  ==========================================================

``last`` is the slot of the stream's previous definition (``-1`` before
the first); every definition, long or short, object or container, moves
it to its own slot. A layout's first instance (key 0 and its inline
definition), layouts past ``SHORT_LAYOUTS`` and out-of-order definitions
keep the long forms. Every int outside the compact ranges keeps ``INT``
(a zig-zag varint) or ``INT_BIG``; no int is longer than its version-5
encoding. Older streams are refused.
"""

from __future__ import annotations

from enum import IntEnum, unique

WIRE_MAGIC = b"NRM1"
WIRE_VERSION = 6

#: First tag byte of a short new-object header (layout 1).
SHORT_OBJECT = 0x80
#: First tag byte of a short in-order definition header (layout 1).
SHORT_DEFINITION = 0xC0
#: How many of a stream's layouts a short header can name.
SHORT_LAYOUTS = SHORT_DEFINITION - SHORT_OBJECT

#: First tag byte of a two-byte int (``v < INT2_LIMIT``).
INT2_BASE = 0x20
#: Ints ``0 <= v < INT2_LIMIT`` take the two-byte form.
INT2_LIMIT = 1 << 14
#: First tag byte of a three-byte int (``INT2_LIMIT <= v < INT3_LIMIT``).
INT3_BASE = INT2_BASE + (INT2_LIMIT >> 8)
#: Ints ``INT2_LIMIT <= v < INT3_LIMIT`` take the three-byte form.
INT3_LIMIT = 1 << 20
#: One past the last compact-int tag byte.
INT3_END = INT3_BASE + (INT3_LIMIT >> 16)

#: Stream flag: a slot count and a definition count follow the flags byte
#: (a reply's slot stream).
STREAM_FLAG_SLOTS = 0x02


@unique
class Tag(IntEnum):
    """One byte of type information preceding each encoded value."""

    NONE = 0x00
    TRUE = 0x01
    FALSE = 0x02
    INT = 0x03        # zig-zag varint, fits in 64 bits
                      # (0 <= v < 2**20: INT2_BASE / INT3_BASE forms)
    INT_BIG = 0x04    # sign byte + magnitude bytes (arbitrary precision)
    FLOAT = 0x05      # IEEE-754 double
    COMPLEX = 0x06    # two doubles
    STR = 0x07        # registers a handle (value-memoized by the writer)
    BYTES = 0x08      # registers a handle
    REF = 0x09        # uvarint back reference into the handle table
    LIST = 0x0A       # mutable: enters the linear map
    TUPLE = 0x0B
    SET = 0x0C        # mutable: enters the linear map
    FROZENSET = 0x0D
    DICT = 0x0E       # mutable: enters the linear map
    BYTEARRAY = 0x0F  # mutable: enters the linear map
    OBJECT = 0x10     # layout key + field values; mutable: enters the linear map
                      # (short form: SHORT_OBJECT | layout - 1)
    EXTERNAL = 0x11   # externalizer hook (e.g. remote references)
    OLD_OBJECT = 0x12     # slot + layout key + field values; no new handle
                          # (in order: SHORT_DEFINITION | layout - 1)
    OLD_CONTAINER = 0x13  # slot + a LIST/SET/DICT/BYTEARRAY value; no new handle

