"""Wire-stream inspector: decode a stream into a human-readable listing.

A debugging tool for the NRMI wire format::

    from repro.serde.dump import dump_stream
    print(dump_stream(payload))

or from the shell::

    python -m repro.serde.dump payload.bin
    python -m repro.serde.dump --bytes payload.bin

``--bytes`` (:func:`byte_breakdown`) prints where the stream's bytes go
instead: totals per value kind — object headers, slot numbers, layouts,
ints, ``None``, refs, strings and the rest — which add up to the
stream's length.

The inspector is *structural*: it parses tags, handles, class and field
descriptors without instantiating anything, so it works even when the
receiving process has none of the classes registered — exactly when you
need to see what a peer actually sent. A reply's slot stream lists each
slot definition as ``[slot i]`` and a back reference to a slot as
``ref -> [slot i]``. A short object header lists as its long form does,
and a compact int as ``int N``, like a varint one.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import WireFormatError
from repro.serde.schema import (
    CKEY_INLINE,
    CKEY_SCHEMA_DEF,
    CKEY_STREAM_BASE,
    STREAM_FLAG_SCHEMA_CACHE,
    SchemaRxCache,
)
from repro.serde.tags import (
    INT2_BASE,
    INT3_BASE,
    INT3_END,
    SHORT_DEFINITION,
    SHORT_OBJECT,
    STREAM_FLAG_SLOTS,
    Tag,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.util.buffers import BufferReader

#: The value kinds ``byte_breakdown`` totals, in print order.
BYTE_KINDS = (
    "stream header",  # magic, version, flags, a slot stream's two counts
    "object headers",  # the header tag of an object or a slot definition
    "slot numbers",  # the slot a long definition names
    "layouts",  # layout keys and inline layout definitions
    "ints",
    "None",
    "refs",
    "strings",
    "bools",
    "floats",
    "containers",  # list/tuple/set/dict tags and counts
    "bytes",  # bytes and bytearray values
    "externals",
)

_SCALAR_KINDS = {
    Tag.NONE: "None", Tag.TRUE: "bools", Tag.FALSE: "bools",
    Tag.INT: "ints", Tag.INT_BIG: "ints", Tag.FLOAT: "floats",
    Tag.COMPLEX: "floats", Tag.STR: "strings", Tag.BYTES: "bytes",
    Tag.BYTEARRAY: "bytes", Tag.REF: "refs", Tag.EXTERNAL: "externals",
}


class _Inspector:
    def __init__(self, data: bytes, schema_rx: Optional[SchemaRxCache]) -> None:
        self.buf = BufferReader(data)
        self.lines: List[str] = []
        self.next_handle = 0
        self.classes: List[str] = []
        self.names: List[str] = []
        #: (class label, field names) per layout, in definition order.
        self.layouts: List[Tuple[str, Tuple[str, ...]]] = []
        self.schema_mode = False
        self.schema_rx = schema_rx
        #: Schemas this stream defines: id -> (name, version, field names).
        self.schemas: Dict[int, Tuple[str, int, Tuple[str, ...]]] = {}
        #: A slot stream's stated slot count, and the slots it defined.
        self.slot_count = 0
        self.defined: set = set()
        #: The slot of the stream's previous definition.
        self.last_def = -1
        #: Bytes read so far, per value kind.
        self.sizes: Dict[str, int] = dict.fromkeys(BYTE_KINDS, 0)

    def run(self) -> None:
        magic = self.buf.read_bytes(len(WIRE_MAGIC))
        if magic != WIRE_MAGIC:
            raise WireFormatError(f"not an NRMI stream (magic {magic!r})")
        version = self.buf.read_u8()
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {version} (expected {WIRE_VERSION})"
            )
        flags = self.buf.read_u8()
        self.schema_mode = bool(flags & STREAM_FLAG_SCHEMA_CACHE)
        header = f"NRMI stream v{version} flags=0x{flags:02x}"
        if flags & STREAM_FLAG_SLOTS:
            self.slot_count = self.next_handle = self.buf.read_uvarint()
            header += f" slots={self.slot_count} defines={self.buf.read_uvarint()}"
        self.lines.append(header)
        self._count("stream header", 0)
        root = 0
        while self.buf.remaining:
            self.lines.append(f"root[{root}]:")
            self._value(depth=1)
            root += 1

    def _count(self, kind: str, start: int) -> int:
        """Add the bytes read since offset *start* to *kind*; return the
        current offset, the start of what is read next."""
        position = self.buf.position
        self.sizes[kind] += position - start
        return position

    def _emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def _alloc(self) -> int:
        handle = self.next_handle
        self.next_handle += 1
        return handle

    def _slot(self, slot: int) -> str:
        """A definition of *slot*, checked against the stated count."""
        if slot >= self.slot_count:
            raise WireFormatError(
                f"slot {slot} past the stream's {self.slot_count} slots"
            )
        if slot in self.defined:
            raise WireFormatError(f"slot {slot} defined twice")
        self.defined.add(slot)
        self.last_def = slot
        return f"[slot {slot}]"

    @staticmethod
    def _lookup(table: list, index: int, what: str, key: int):
        if 0 <= index < len(table):
            return table[index]
        raise WireFormatError(f"dangling {what} id {key}")

    def _new_class(self, name: str, version: int) -> str:
        label = f"{name}@v{version}" if version else name
        self.classes.append(label)
        return label

    def _read_class(self) -> Tuple[str, str]:
        """A class key: ``(label, note)``; *note* says which schema form
        a schema-mode key took, if any."""
        buf = self.buf
        key = buf.read_uvarint()
        base = CKEY_STREAM_BASE if self.schema_mode else 1
        if key >= base:
            return self._lookup(self.classes, key - base, "class", key), ""
        if key == CKEY_INLINE:
            return self._new_class(buf.read_str(), buf.read_uvarint()), ""
        schema_id = buf.read_uvarint()
        if key == CKEY_SCHEMA_DEF:
            name, version = buf.read_str(), buf.read_uvarint()
            fields = tuple(buf.read_str() for _ in range(buf.read_uvarint()))
            self.schemas[schema_id] = (name, version, fields)
            note = f"schema #{schema_id} defined"
        else:  # CKEY_SCHEMA_REF
            known = self.schemas.get(schema_id)
            if known is None:
                if self.schema_rx is None:
                    raise WireFormatError(
                        f"schema #{schema_id} is defined on an earlier stream; "
                        "pass the connection's schema cache"
                    )
                schema = self.schema_rx.lookup(schema_id)
                known = (schema.class_name, schema.version, schema.field_names)
            name, version, fields = known
            note = f"schema #{schema_id}"
        # Schema keys seed the field-name table, as the reader's do.
        for field in fields:
            if field not in self.names:
                self.names.append(field)
        return self._new_class(name, version), note

    def _read_name(self) -> str:
        key = self.buf.read_uvarint()
        if key == 0:
            name = self.buf.read_str()
            self.names.append(name)
            return name
        return self._lookup(self.names, key - 1, "name", key)

    def _read_layout(self) -> Tuple[str, Tuple[str, ...], str]:
        """A layout key: ``(class label, field names, note)``."""
        key = self.buf.read_uvarint()
        if key:
            return self._layout(key)
        label, schema_note = self._read_class()
        count = self.buf.read_uvarint()
        fields = tuple(self._read_name() for _ in range(count))
        self.layouts.append((label, fields))
        note = f"layout {len(self.layouts)} defined"
        if schema_note:
            note += f", {schema_note}"
        return label, fields, note

    def _layout(self, key: int) -> Tuple[str, Tuple[str, ...], str]:
        label, fields = self._lookup(self.layouts, key - 1, "layout", key)
        return label, fields, f"layout {key}"

    def _object(self, depth: int, label: str, layout) -> None:
        class_name, fields, note = layout
        self._emit(depth, f"object {label} {class_name} ({len(fields)} fields) [{note}]")
        for field in fields:
            self._emit(depth + 1, f".{field} =")
            self._value(depth + 2)

    def _tag(self) -> Tag:
        byte = self.buf.read_u8()
        try:
            return Tag(byte)
        except ValueError:
            raise WireFormatError(f"unknown tag byte 0x{byte:02x}") from None

    def _value(self, depth: int) -> None:
        buf = self.buf
        start = buf.position
        byte = buf.peek_u8()
        if INT2_BASE <= byte < INT3_END:
            buf.read_u8()
            if byte < INT3_BASE:
                value = (byte - INT2_BASE) << 8 | buf.read_u8()
            else:
                value = (byte - INT3_BASE) << 16 | int.from_bytes(
                    buf.read_bytes(2), "big"
                )
            self._emit(depth, f"int {value}")
            self._count("ints", start)
            return
        if byte >= SHORT_OBJECT:
            buf.read_u8()
            if byte >= SHORT_DEFINITION:
                label = self._slot(self.last_def + 1)
                key = byte - SHORT_DEFINITION + 1
            else:
                label = f"#{self._alloc()}"
                key = byte - SHORT_OBJECT + 1
            layout = self._layout(key)
            self._count("object headers", start)
            self._object(depth, label, layout)
            return
        tag = self._tag()
        label = ""
        if tag is Tag.OLD_CONTAINER or tag is Tag.OLD_OBJECT:
            start = self._count("object headers", start)
            label = self._slot(buf.read_uvarint())
            start = self._count("slot numbers", start)
            if tag is Tag.OLD_CONTAINER:
                tag = self._tag()
                if tag not in (Tag.LIST, Tag.SET, Tag.DICT, Tag.BYTEARRAY):
                    raise WireFormatError(f"{label} defines a {tag.name.lower()}")
        elif tag in (Tag.LIST, Tag.TUPLE, Tag.SET, Tag.FROZENSET, Tag.DICT,
                     Tag.BYTEARRAY, Tag.OBJECT):
            label = f"#{self._alloc()}"
        if tag is Tag.OBJECT or tag is Tag.OLD_OBJECT:
            start = self._count("object headers", start)
            layout = self._read_layout()
            self._count("layouts", start)
            self._object(depth, label, layout)
            return
        if tag in (Tag.LIST, Tag.TUPLE, Tag.SET, Tag.FROZENSET, Tag.DICT):
            count = buf.read_uvarint()
            self._count("containers", start)
            if tag is Tag.DICT:
                self._emit(depth, f"dict {label} ({count} entries)")
                count *= 2  # a key, then its value
            else:
                self._emit(depth, f"{tag.name.lower()} {label} ({count} items)")
            for _ in range(count):
                self._value(depth + 1)
            return
        if tag is Tag.NONE:
            self._emit(depth, "None")
        elif tag is Tag.TRUE:
            self._emit(depth, "True")
        elif tag is Tag.FALSE:
            self._emit(depth, "False")
        elif tag is Tag.INT:
            self._emit(depth, f"int {buf.read_varint()}")
        elif tag is Tag.INT_BIG:
            negative = buf.read_u8()
            magnitude = int.from_bytes(buf.read_len_bytes(), "big")
            self._emit(depth, f"bigint {'-' if negative else ''}{magnitude}")
        elif tag is Tag.FLOAT:
            self._emit(depth, f"float {buf.read_f64()!r}")
        elif tag is Tag.COMPLEX:
            self._emit(depth, f"complex({buf.read_f64()}, {buf.read_f64()})")
        elif tag is Tag.STR:
            handle = self._alloc()
            text = buf.read_str()
            shown = text if len(text) <= 40 else text[:37] + "..."
            self._emit(depth, f"str #{handle} {shown!r}")
        elif tag is Tag.BYTES:
            handle = self._alloc()
            data = buf.read_len_bytes()
            self._emit(depth, f"bytes #{handle} ({len(data)} bytes)")
        elif tag is Tag.BYTEARRAY:
            data = buf.read_len_bytes()
            self._emit(depth, f"bytearray {label} ({len(data)} bytes)")
        elif tag is Tag.REF:
            handle = buf.read_uvarint()
            target = f"[slot {handle}]" if handle < self.slot_count else f"#{handle}"
            self._emit(depth, f"ref -> {target}")
        else:  # Tag.EXTERNAL
            handle = self._alloc()
            ext_name = self._read_name()
            payload = buf.read_len_bytes()
            self._emit(
                depth, f"external #{handle} {ext_name!r} ({len(payload)} bytes)"
            )
        self._count(_SCALAR_KINDS[tag], start)


def _inspect(data: bytes, schema_rx: Optional[SchemaRxCache]) -> _Inspector:
    inspector = _Inspector(data, schema_rx)
    try:
        inspector.run()
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"invalid UTF-8 in string: {exc}") from exc
    return inspector


def dump_stream(data: bytes, schema_rx: Optional[SchemaRxCache] = None) -> str:
    """Render an NRMI wire stream as an indented structural listing.

    A schema-flagged stream may reference schemas an earlier stream on
    its connection defined; *schema_rx* is that connection's receive
    cache, consulted read-only. Malformed input raises
    :class:`~repro.errors.WireFormatError`.
    """
    return "\n".join(_inspect(data, schema_rx).lines)


def byte_breakdown(
    data: bytes, schema_rx: Optional[SchemaRxCache] = None
) -> Dict[str, int]:
    """Where an NRMI wire stream's bytes go: a byte total for each of
    :data:`BYTE_KINDS`, which add up to ``len(data)``. A value's kind
    holds its tag and payload; an object's field values count as their
    own kinds. Malformed input raises as :func:`dump_stream` does."""
    return _inspect(data, schema_rx).sizes


def _format_breakdown(sizes: Dict[str, int]) -> str:
    """:func:`byte_breakdown`'s totals as a table, largest kind first."""
    total = sum(sizes.values())
    rows = [f"{'kind':<16}{'bytes':>8}{'share':>9}"]
    for kind, size in sorted(sizes.items(), key=lambda item: -item[1]):
        if size:
            rows.append(f"{kind:<16}{size:>8}{100 * size / total:>8.1f}%")
    rows.append(f"{'total':<16}{total:>8}")
    return "\n".join(rows)


def main(argv: List[str] | None = None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    by_kind = "--bytes" in args
    if by_kind:
        args.remove("--bytes")
    if len(args) != 1:
        print(
            "usage: python -m repro.serde.dump [--bytes] <stream-file>",
            file=sys.stderr,
        )
        return 2
    with open(args[0], "rb") as handle:
        data = handle.read()
    print(_format_breakdown(byte_breakdown(data)) if by_kind else dump_stream(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
