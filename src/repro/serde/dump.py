"""Wire-stream inspector: decode a stream into a human-readable listing.

A debugging tool for the NRMI wire format::

    from repro.serde.dump import dump_stream
    print(dump_stream(payload))

or from the shell::

    python -m repro.serde.dump payload.bin

The inspector is *structural*: it parses tags, handles, class and field
descriptors without instantiating anything, so it works even when the
receiving process has none of the classes registered — exactly when you
need to see what a peer actually sent. A reply's slot stream lists each
slot definition as ``[slot i]`` and a back reference to a slot as
``ref -> [slot i]``. A short object header lists as its long form does.
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
    SHORT_DEFINITION,
    SHORT_OBJECT,
    STREAM_FLAG_SLOTS,
    Tag,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.util.buffers import BufferReader


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

    def run(self) -> str:
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
        root = 0
        while self.buf.remaining:
            self.lines.append(f"root[{root}]:")
            self._value(depth=1)
            root += 1
        return "\n".join(self.lines)

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
        byte = self.buf.peek_u8()
        if byte >= SHORT_OBJECT:
            self.buf.read_u8()
            if byte >= SHORT_DEFINITION:
                label = self._slot(self.last_def + 1)
                key = byte - SHORT_DEFINITION + 1
            else:
                label = f"#{self._alloc()}"
                key = byte - SHORT_OBJECT + 1
            self._object(depth, label, self._layout(key))
            return
        tag = self._tag()
        label = ""
        if tag is Tag.OLD_CONTAINER:
            label = self._slot(self.buf.read_uvarint())
            tag = self._tag()
            if tag not in (Tag.LIST, Tag.SET, Tag.DICT, Tag.BYTEARRAY):
                raise WireFormatError(f"{label} defines a {tag.name.lower()}")
        elif tag is Tag.OLD_OBJECT:
            label = self._slot(self.buf.read_uvarint())
        elif tag in (Tag.LIST, Tag.TUPLE, Tag.SET, Tag.FROZENSET, Tag.DICT,
                     Tag.BYTEARRAY, Tag.OBJECT):
            label = f"#{self._alloc()}"
        if tag is Tag.NONE:
            self._emit(depth, "None")
        elif tag is Tag.TRUE:
            self._emit(depth, "True")
        elif tag is Tag.FALSE:
            self._emit(depth, "False")
        elif tag is Tag.INT:
            self._emit(depth, f"int {self.buf.read_varint()}")
        elif tag is Tag.INT_BIG:
            negative = self.buf.read_u8()
            magnitude = int.from_bytes(self.buf.read_len_bytes(), "big")
            self._emit(depth, f"bigint {'-' if negative else ''}{magnitude}")
        elif tag is Tag.FLOAT:
            self._emit(depth, f"float {self.buf.read_f64()!r}")
        elif tag is Tag.COMPLEX:
            self._emit(depth, f"complex({self.buf.read_f64()}, {self.buf.read_f64()})")
        elif tag is Tag.STR:
            handle = self._alloc()
            text = self.buf.read_str()
            shown = text if len(text) <= 40 else text[:37] + "..."
            self._emit(depth, f"str #{handle} {shown!r}")
        elif tag is Tag.BYTES:
            handle = self._alloc()
            data = self.buf.read_len_bytes()
            self._emit(depth, f"bytes #{handle} ({len(data)} bytes)")
        elif tag is Tag.BYTEARRAY:
            data = self.buf.read_len_bytes()
            self._emit(depth, f"bytearray {label} ({len(data)} bytes)")
        elif tag is Tag.REF:
            handle = self.buf.read_uvarint()
            target = f"[slot {handle}]" if handle < self.slot_count else f"#{handle}"
            self._emit(depth, f"ref -> {target}")
        elif tag in (Tag.LIST, Tag.TUPLE, Tag.SET, Tag.FROZENSET):
            count = self.buf.read_uvarint()
            self._emit(depth, f"{tag.name.lower()} {label} ({count} items)")
            for _ in range(count):
                self._value(depth + 1)
        elif tag is Tag.DICT:
            count = self.buf.read_uvarint()
            self._emit(depth, f"dict {label} ({count} entries)")
            for _ in range(count):
                self._value(depth + 1)  # key
                self._value(depth + 1)  # value
        elif tag is Tag.OBJECT or tag is Tag.OLD_OBJECT:
            self._object(depth, label, self._read_layout())
        else:  # Tag.EXTERNAL
            handle = self._alloc()
            ext_name = self._read_name()
            payload = self.buf.read_len_bytes()
            self._emit(
                depth, f"external #{handle} {ext_name!r} ({len(payload)} bytes)"
            )


def dump_stream(data: bytes, schema_rx: Optional[SchemaRxCache] = None) -> str:
    """Render an NRMI wire stream as an indented structural listing.

    A schema-flagged stream may reference schemas an earlier stream on
    its connection defined; *schema_rx* is that connection's receive
    cache, consulted read-only. Malformed input raises
    :class:`~repro.errors.WireFormatError`.
    """
    try:
        return _Inspector(data, schema_rx).run()
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"invalid UTF-8 in string: {exc}") from exc


def main(argv: List[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m repro.serde.dump <stream-file>", file=sys.stderr)
        return 2
    with open(args[0], "rb") as handle:
        print(dump_stream(handle.read()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
