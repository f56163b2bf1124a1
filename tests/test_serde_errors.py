"""Corrupt and hostile streams must fail loudly, never crash or hang."""

import pytest

from repro.errors import WireFormatError
from repro.serde.reader import ObjectReader
from repro.serde.tags import Tag, WIRE_MAGIC, WIRE_VERSION
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Node


def valid_stream(value=None):
    writer = ObjectWriter()
    writer.write_root(value if value is not None else [1, "x", Node(2)])
    return writer.getvalue()


class TestHeader:
    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            ObjectReader(b"XXXX\x01\x00")

    def test_empty_stream(self):
        with pytest.raises(WireFormatError):
            ObjectReader(b"")

    def test_unsupported_version(self):
        data = WIRE_MAGIC + bytes([WIRE_VERSION + 1, 0])
        with pytest.raises(WireFormatError, match="version"):
            ObjectReader(data)

    def test_version_1_stream_is_refused(self):
        """A version-1 peer's objects carry a field count and name keys
        where version 2 expects a layout key; its streams are refused."""
        data = WIRE_MAGIC + bytes([1, 0, Tag.NONE])
        with pytest.raises(WireFormatError, match="unsupported wire version 1"):
            ObjectReader(data)

    def test_header_only_stream_is_at_end(self):
        reader = ObjectReader(WIRE_MAGIC + bytes([WIRE_VERSION, 0]))
        assert reader.at_end()


class TestCorruption:
    def test_truncated_payload(self):
        data = valid_stream()
        for cut in (len(data) // 2, len(data) - 1, len(data) - 5):
            reader = ObjectReader(data[:cut])
            with pytest.raises(WireFormatError):
                reader.read_root()

    def test_unknown_tag(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        with pytest.raises(WireFormatError, match="tag"):
            ObjectReader(header + bytes([0x7F])).read_root()

    def test_dangling_handle_reference(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        stream = header + bytes([Tag.REF, 42])
        with pytest.raises(WireFormatError, match="handle"):
            ObjectReader(stream).read_root()

    def test_dangling_handle_inside_list(self):
        """The list drain loop reports it exactly as the frame machine."""
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        stream = header + bytes([Tag.LIST, 2, Tag.NONE, Tag.REF, 42])
        with pytest.raises(WireFormatError, match="dangling handle 42"):
            ObjectReader(stream).read_root()

    def test_forward_reference_inside_list(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        # A tuple's handle is reserved until the tuple is complete; a list
        # inside it may not refer back to it.
        stream = header + bytes([Tag.TUPLE, 1, Tag.LIST, 1, Tag.REF, 0])
        with pytest.raises(WireFormatError, match="forward reference to handle 0"):
            ObjectReader(stream).read_root()

    def test_list_truncated_mid_element(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        for tail in ([Tag.LIST, 3, Tag.INT, 2], [Tag.LIST, 2, Tag.INT, 0x80], [Tag.LIST, 1, Tag.REF]):
            reader = ObjectReader(header + bytes(tail))
            with pytest.raises(WireFormatError, match="truncated"):
                reader.read_root()

    def test_dangling_class_id(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        # OBJECT defining a layout whose interned class id 9 was never
        # defined.
        stream = header + bytes([Tag.OBJECT, 0, 9])
        with pytest.raises(WireFormatError, match="class"):
            ObjectReader(stream).read_root()

    def test_trailing_garbage_detected(self):
        reader = ObjectReader(valid_stream() + b"\x00garbage")
        reader.read_root()
        with pytest.raises(WireFormatError):
            reader.expect_end()

    def test_bitflip_fuzz_never_hangs(self):
        """Flipping any single byte must raise cleanly or decode something."""
        data = valid_stream({"k": [1, 2, (3,)], "s": "text"})
        for position in range(6, len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            reader = None
            try:
                reader = ObjectReader(bytes(corrupted))
                reader.read_root()
            except Exception as exc:
                # Must be a clean middleware error, not a crash of the
                # interpreter machinery (MemoryError, SystemError, ...).
                assert isinstance(exc, (WireFormatError, Exception))
                assert not isinstance(exc, (MemoryError, SystemError))

    def test_oversized_length_prefix_rejected(self):
        header = WIRE_MAGIC + bytes([WIRE_VERSION, 0])
        # A list claiming 2**40 elements followed by nothing.
        stream = header + bytes([Tag.STR]) + b"\xff\xff\xff\xff\xff\x7f"
        with pytest.raises(WireFormatError):
            ObjectReader(stream).read_root()
