"""The structural stream inspector."""

import pytest

from repro.errors import WireFormatError
from repro.serde.dump import BYTE_KINDS, byte_breakdown, dump_stream
from repro.serde.reader import ObjectReader
from repro.serde.schema import SchemaRxCache, SchemaTxCache
from repro.serde.tags import (
    SHORT_DEFINITION,
    SHORT_OBJECT,
    STREAM_FLAG_SLOTS,
    Tag,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.serde.writer import ObjectWriter
from repro.serde.profiles import LEGACY_PROFILE

from tests.model_helpers import Node, Pair


def encode(*roots, profile=None):
    kwargs = {"profile": profile} if profile else {}
    writer = ObjectWriter(**kwargs)
    for root in roots:
        writer.write_root(root)
    return writer.getvalue()


class TestDump:
    def test_scalars(self):
        out = dump_stream(encode(42, "hi", None, True, 2.5))
        assert "int 42" in out
        assert "str #0 'hi'" in out
        assert "None" in out
        assert "True" in out
        assert "float 2.5" in out

    def test_container_structure_indented(self):
        out = dump_stream(encode([1, [2]]))
        lines = out.splitlines()
        assert any("list #0 (2 items)" in line for line in lines)
        assert any("list #1 (1 items)" in line for line in lines)

    def test_object_fields(self):
        out = dump_stream(encode(Pair(1, "x")))
        assert "Pair (2 fields)" in out
        assert ".first =" in out
        assert ".second =" in out

    def test_backreferences_shown(self):
        shared = [1]
        out = dump_stream(encode([shared, shared]))
        assert "ref -> #1" in out

    def test_roots_numbered(self):
        out = dump_stream(encode(1, 2))
        assert "root[0]:" in out
        assert "root[1]:" in out

    def test_works_without_registered_classes(self):
        """Structural decode: no class resolution needed."""
        payload = encode(Node("n", next=Node("m")))
        out = dump_stream(payload)
        assert out.count("Node") >= 1

    def test_legacy_profile_streams_dump_too(self):
        out = dump_stream(encode(Pair(1, 2), profile=LEGACY_PROFILE))
        assert "Pair" in out

    def test_long_strings_truncated(self):
        out = dump_stream(encode("x" * 100))
        assert "..." in out

    def test_bad_magic_rejected(self):
        with pytest.raises(WireFormatError):
            dump_stream(b"JUNKJUNKJUNK")

    def test_cli(self, tmp_path, capsys):
        from repro.serde.dump import main

        path = tmp_path / "stream.bin"
        path.write_bytes(encode({"k": [1]}))
        assert main([str(path)]) == 0
        assert "dict #0" in capsys.readouterr().out

    def test_cli_usage(self, capsys):
        from repro.serde.dump import main

        assert main([]) == 2
        assert main(["--bytes"]) == 2

    def test_compact_ints_list_as_ints(self):
        values = [0, 63, 2**14 - 1, 2**14, 2**20 - 1, 2**20, -5]
        lines = dump_stream(encode(values)).splitlines()[3:]
        assert [line.strip() for line in lines] == [f"int {v}" for v in values]


class TestByteBreakdown:
    """``byte_breakdown`` / ``--bytes``: where a stream's bytes go."""

    def test_kinds_of_a_mixed_stream(self):
        stream = encode([5, 20_000, None, "hi", "hi", Pair(1, None)])
        sizes = byte_breakdown(stream)
        assert list(sizes) == list(BYTE_KINDS)
        assert sum(sizes.values()) == len(stream)
        assert sizes["stream header"] == len(WIRE_MAGIC) + 2  # version, flags
        assert sizes["containers"] == 2  # list tag, count
        assert sizes["ints"] == 2 + 3 + 2  # 5, 20 000, Pair.first
        assert sizes["None"] == 2
        assert sizes["strings"] == 4  # tag, length, "hi"
        assert sizes["refs"] == 2  # the second "hi"
        assert sizes["object headers"] == 1  # OBJECT; the layout key is a layout
        assert sizes["slot numbers"] == 0

    def test_slot_stream_definitions(self):
        writer = ObjectWriter(slots=[Node(1), Node(2), Node(3)], defined=[0, 2])
        writer.write_root(None)
        writer.write_slots()
        stream = writer.getvalue()
        sizes = byte_breakdown(stream)
        assert sum(sizes.values()) == len(stream)
        assert sizes["stream header"] == len(WIRE_MAGIC) + 4  # and both counts
        # Slot 0 takes the long form (its layout is new), slot 2 too (it
        # is not the slot after 0); each names its slot in one byte.
        assert sizes["object headers"] == 2
        assert sizes["slot numbers"] == 2
        assert sizes["ints"] == 4  # 1 and 3

    def test_totals_add_up_on_legacy_and_schema_streams(self):
        stream = encode([Pair(i, str(i)) for i in range(70)], profile=LEGACY_PROFILE)
        assert sum(byte_breakdown(stream).values()) == len(stream)
        tx = SchemaTxCache()
        writer = ObjectWriter(schema_tx=tx)
        writer.write_root(Node(1, next=Node(2)))
        stream = writer.getvalue()
        assert sum(byte_breakdown(stream).values()) == len(stream)

    def test_malformed_input_raises(self):
        with pytest.raises(WireFormatError):
            byte_breakdown(encode(20_000)[:-1])

    def test_cli(self, tmp_path, capsys):
        from repro.serde.dump import main

        stream = encode([5, None, "x"])
        path = tmp_path / "stream.bin"
        path.write_bytes(stream)
        assert main(["--bytes", str(path)]) == 0
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()[1:]
        }
        assert rows["total"] == [str(len(stream))]
        assert rows["ints"][0] == "2"
        assert "slot" not in rows  # kinds with no bytes are left out


class TestLayoutsAndSchemaKeys:
    """What the writer writes since wire version 2: layout keys, and
    schema-mode class keys inside layout definitions."""

    @staticmethod
    def schema_streams():
        """Two streams on one connection: the first defines the Node
        schema, the second (after confirmation) references it."""
        tx, rx = SchemaTxCache(), SchemaRxCache()
        streams = []
        for _ in range(2):
            writer = ObjectWriter(schema_tx=tx)
            writer.write_root(Node("a", next=Node("b", next=Node("c"))))
            stream = writer.getvalue()
            ObjectReader(stream, schema_rx=rx).read_root()
            for entry in writer.schemas_defined:
                entry.confirmed = True
            streams.append(stream)
        return streams, rx

    def test_flagged_stream_with_a_schema_definition(self):
        (defining, _referencing), _rx = self.schema_streams()
        out = dump_stream(defining)
        assert "flags=0x01" in out
        lines = [line.strip() for line in out.splitlines()]
        objects = [line for line in lines if line.startswith("object")]
        assert len(objects) == 3
        assert "Node (2 fields) [layout 1 defined, schema #" in objects[0]
        assert objects[0].endswith(" defined]")
        assert objects[1].endswith("[layout 1]")
        assert lines.count(".data =") == 3
        assert "str #3 'b'" in out

    def test_flagged_stream_with_a_schema_reference(self):
        (_defining, referencing), rx = self.schema_streams()
        out = dump_stream(referencing, schema_rx=rx)
        first = next(line for line in out.splitlines() if "object #0" in line)
        assert "Node (2 fields) [layout 1 defined, schema #" in first
        assert not first.endswith("defined]")  # a reference, not a definition
        assert out.count(".next =") == 3
        # Without the connection's cache the reference cannot be named.
        with pytest.raises(WireFormatError, match="schema cache"):
            dump_stream(referencing)

    def test_one_class_with_two_layouts(self):
        short = Node("short")
        del short.next
        out = dump_stream(encode([Node(1), short, Node(2), short]))
        assert "Node (2 fields) [layout 1 defined]" in out
        assert "Node (1 fields) [layout 2 defined]" in out
        assert "Node (2 fields) [layout 1]" in out
        assert "ref -> #2" in out

    def test_truncated_inside_a_layout_definition(self):
        stream = encode(Pair(1, 2))
        # Header (6), OBJECT, layout key 0, class key 0, then the name.
        for cut in range(8, 14):
            with pytest.raises(WireFormatError, match="truncated"):
                dump_stream(stream[:cut])

    @pytest.mark.parametrize(
        "body, message",
        [
            (bytes([Tag.OBJECT, 4]), "dangling layout id 4"),
            (bytes([Tag.OBJECT, 0, 3]), "dangling class id 3"),
            (bytes([Tag.OBJECT, 0, 0, 1, 0x41, 0, 1, 7]), "dangling name id 7"),
            (bytes([0x7F]), "unknown tag byte 0x7f"),
            (bytes([Tag.STR, 1, 0xFF]), "invalid UTF-8"),
            (bytes([SHORT_OBJECT]), "dangling layout id 1"),
        ],
        ids=["layout", "class", "name", "tag", "utf8", "short-layout"],
    )
    def test_malformed_input_raises_wire_format_error(self, body, message):
        with pytest.raises(WireFormatError, match=message):
            dump_stream(WIRE_MAGIC + bytes([WIRE_VERSION, 0]) + body)

    def test_other_wire_versions_are_refused(self):
        with pytest.raises(WireFormatError, match="unsupported wire version 1"):
            dump_stream(WIRE_MAGIC + bytes([1, 0, Tag.NONE]))

    def test_wire_version_2_is_refused(self):
        with pytest.raises(WireFormatError, match="unsupported wire version 2"):
            dump_stream(WIRE_MAGIC + bytes([2, 0, Tag.NONE]))


def slot_stream(slots, defined=None, result=None):
    writer = ObjectWriter(slots=slots, defined=defined)
    writer.write_root(result)
    writer.write_slots()
    return writer.getvalue()


#: A new layout: key 0, then class "A" inline at version 0, no fields.
_LAYOUT_A = bytes([0, 0, 1, 0x41, 0, 0])


class TestSlotStreams:
    """Version-3 replies: slot definitions and references to slots."""

    def test_definitions_and_slot_references(self):
        first, second = Node(1), Node(2)
        first.next = second
        out = dump_stream(slot_stream([first, second, [first]], defined=[0, 2]))
        lines = out.splitlines()
        assert lines[0].endswith("slots=3 defines=2")
        assert "object [slot 0] " in out and "Node" in out
        assert "ref -> [slot 1]" in out  # bound, not defined
        assert "list [slot 2] (1 items)" in out
        assert "ref -> [slot 0]" in out

    def test_new_objects_number_from_the_slot_count(self):
        old = Node(1)
        old.next = Node("new")
        out = dump_stream(slot_stream([old]))
        assert "object #1 " in out  # handles 0 … n-1 are the slots

    @pytest.mark.parametrize("cut", range(1, 6))
    def test_truncated_definition(self, cut):
        stream = slot_stream([Node(1), {"k": 2}])
        with pytest.raises(WireFormatError, match="truncated"):
            dump_stream(stream[:-cut])

    @pytest.mark.parametrize(
        "body, message",
        [
            (bytes([Tag.OLD_OBJECT, 2]), "slot 2 past the stream's 2 slots"),
            (bytes([Tag.OLD_CONTAINER, 9, Tag.LIST, 0]), "slot 9 past"),
            (bytes([Tag.OLD_CONTAINER, 0, Tag.LIST, 0,
                    Tag.OLD_CONTAINER, 0, Tag.LIST, 0]), "slot 0 defined twice"),
            (bytes([Tag.OLD_CONTAINER, 1, Tag.TUPLE, 0]), r"\[slot 1\] defines a tuple"),
            (bytes([Tag.OLD_OBJECT, 1]) + _LAYOUT_A + bytes([SHORT_DEFINITION]),
             "slot 2 past the stream's 2 slots"),
            (bytes([Tag.OLD_OBJECT, 1]) + _LAYOUT_A
             + bytes([Tag.OLD_OBJECT, 0, 1, SHORT_DEFINITION]),
             "slot 1 defined twice"),
            (bytes([Tag.OLD_OBJECT, 0]) + _LAYOUT_A + bytes([SHORT_DEFINITION + 1]),
             "dangling layout id 2"),
        ],
        ids=["object-past-count", "container-past-count", "twice", "tuple",
             "short-past-count", "short-twice", "short-layout-unknown"],
    )
    def test_bad_slots_raise_wire_format_error(self, body, message):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, STREAM_FLAG_SLOTS, 2, 1])
        with pytest.raises(WireFormatError, match=message):
            dump_stream(header + body)

    def test_short_definitions_follow_the_previous_definition(self):
        nodes = [Node(index) for index in range(4)]
        stream = slot_stream(nodes, defined=[0, 2, 3])
        # Slot 0 defines the layout, slot 2 does not follow it; slot 3 does.
        assert stream.count(Tag.OLD_OBJECT) == 2
        assert stream.count(SHORT_DEFINITION) == 1
        objects = [line.split()[1:3] for line in dump_stream(stream).splitlines()
                   if line.lstrip().startswith("object")]
        assert objects == [["[slot", "0]"], ["[slot", "2]"], ["[slot", "3]"]]

    def test_definition_outside_a_slot_stream(self):
        with pytest.raises(WireFormatError, match="slot 0 past the stream's 0 slots"):
            dump_stream(WIRE_MAGIC + bytes([WIRE_VERSION, 0, Tag.OLD_OBJECT, 0]))
