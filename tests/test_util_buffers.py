"""BufferWriter / BufferReader: encodings, bounds, corruption handling."""

import pytest

from repro.errors import WireFormatError
from repro.util.buffers import BufferReader, BufferWriter


def roundtrip(write, read):
    writer = BufferWriter()
    write(writer)
    reader = BufferReader(writer.getvalue())
    value = read(reader)
    reader.expect_end()
    return value


class TestFixedWidth:
    def test_u8(self):
        assert roundtrip(lambda w: w.write_u8(200), lambda r: r.read_u8()) == 200

    def test_u32(self):
        value = 0xDEADBEEF
        assert roundtrip(lambda w: w.write_u32(value), lambda r: r.read_u32()) == value

    def test_i64_negative(self):
        value = -(1 << 62)
        assert roundtrip(lambda w: w.write_i64(value), lambda r: r.read_i64()) == value

    def test_f64(self):
        value = 3.14159265358979
        assert roundtrip(lambda w: w.write_f64(value), lambda r: r.read_f64()) == value

    def test_f64_special_values(self):
        for value in (float("inf"), float("-inf"), 0.0, -0.0):
            assert (
                roundtrip(lambda w: w.write_f64(value), lambda r: r.read_f64())
                == value
            )

    def test_f64_nan(self):
        result = roundtrip(lambda w: w.write_f64(float("nan")), lambda r: r.read_f64())
        assert result != result


class TestVarints:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 63, 64, -64, -65, 127, 128, 300, -300, 2**40, -(2**40),
         2**63 - 1, -(2**63)],
    )
    def test_varint_roundtrip(self, value):
        assert (
            roundtrip(lambda w: w.write_varint(value), lambda r: r.read_varint())
            == value
        )

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 16384, 2**32, 2**63])
    def test_uvarint_roundtrip(self, value):
        assert (
            roundtrip(lambda w: w.write_uvarint(value), lambda r: r.read_uvarint())
            == value
        )

    def test_uvarint_rejects_negative(self):
        writer = BufferWriter()
        with pytest.raises(WireFormatError):
            writer.write_uvarint(-1)

    def test_varint_rejects_oversized(self):
        writer = BufferWriter()
        with pytest.raises(WireFormatError):
            writer.write_varint(1 << 64)

    def test_small_values_are_one_byte(self):
        writer = BufferWriter()
        writer.write_uvarint(5)
        assert len(writer.getvalue()) == 1

    def test_uvarint_corrupt_unterminated(self):
        reader = BufferReader(b"\xff" * 11)
        with pytest.raises(WireFormatError):
            reader.read_uvarint()


class TestBytesAndStrings:
    def test_len_bytes(self):
        data = b"hello world"
        assert (
            roundtrip(lambda w: w.write_len_bytes(data), lambda r: r.read_len_bytes())
            == data
        )

    def test_empty_bytes(self):
        assert (
            roundtrip(lambda w: w.write_len_bytes(b""), lambda r: r.read_len_bytes())
            == b""
        )

    def test_str_unicode(self):
        text = "héllo ☃ wörld — ünïcode"
        assert roundtrip(lambda w: w.write_str(text), lambda r: r.read_str()) == text

    def test_str_invalid_utf8_raises(self):
        writer = BufferWriter()
        writer.write_len_bytes(b"\xff\xfe")
        with pytest.raises(WireFormatError):
            BufferReader(writer.getvalue()).read_str()


class TestBounds:
    def test_truncated_read_raises(self):
        reader = BufferReader(b"\x01\x02")
        with pytest.raises(WireFormatError):
            reader.read_bytes(3)

    def test_read_past_end_raises(self):
        reader = BufferReader(b"")
        with pytest.raises(WireFormatError):
            reader.read_u8()

    def test_expect_end_raises_on_trailing(self):
        reader = BufferReader(b"\x00\x01")
        reader.read_u8()
        with pytest.raises(WireFormatError):
            reader.expect_end()

    def test_position_and_remaining(self):
        reader = BufferReader(b"\x00\x01\x02")
        assert reader.position == 0
        assert reader.remaining == 3
        reader.read_u8()
        assert reader.position == 1
        assert reader.remaining == 2

    def test_writer_accumulates(self):
        writer = BufferWriter()
        writer.write_u8(1)
        writer.write_u32(2)
        assert len(writer) == 5

    def test_getvalue_stable_across_calls(self):
        writer = BufferWriter()
        writer.write_str("abc")
        assert writer.getvalue() == writer.getvalue()

    def test_interleaved_sequence(self):
        writer = BufferWriter()
        writer.write_u8(9)
        writer.write_str("mix")
        writer.write_varint(-5)
        writer.write_len_bytes(b"\x00\x01")
        reader = BufferReader(writer.getvalue())
        assert reader.read_u8() == 9
        assert reader.read_str() == "mix"
        assert reader.read_varint() == -5
        assert reader.read_len_bytes() == b"\x00\x01"
        reader.expect_end()


class TestVarintBoundaries:
    """The 64-bit varint envelope, hit exactly at its edges."""

    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2**63 - 1, -(2**63 - 1), -(2**63), 2**62, -(2**62)],
    )
    def test_round_trip_at_boundaries(self, value):
        assert (
            roundtrip(lambda w: w.write_varint(value), lambda r: r.read_varint())
            == value
        )

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**100])
    def test_overflow_raises(self, value):
        writer = BufferWriter()
        with pytest.raises(WireFormatError):
            writer.write_varint(value)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(WireFormatError):
            BufferWriter().write_uvarint(-1)

    def test_corrupt_overlong_uvarint_raises(self):
        # Eleven continuation bytes exceed any 64-bit value.
        reader = BufferReader(b"\xff" * 11 + b"\x01")
        with pytest.raises(WireFormatError):
            reader.read_uvarint()


class TestTruncatedStreams:
    """Every memoryview-reader primitive fails cleanly at end-of-data."""

    @pytest.mark.parametrize(
        "data, read",
        [
            (b"", lambda r: r.read_u8()),
            (b"\x01\x02", lambda r: r.read_u32()),
            (b"\x01" * 7, lambda r: r.read_i64()),
            (b"\x01" * 7, lambda r: r.read_f64()),
            (b"\x80", lambda r: r.read_uvarint()),  # continuation, then EOF
            (b"\x05ab", lambda r: r.read_len_bytes()),  # length > remaining
            (b"\x05ab", lambda r: r.read_str()),
            (b"ab", lambda r: r.read_bytes(3)),
            (b"ab", lambda r: r.read_view(3)),
            (b"", lambda r: r.peek_u8()),
        ],
    )
    def test_truncated_read_raises(self, data, read):
        reader = BufferReader(data)
        with pytest.raises(WireFormatError):
            read(reader)

    def test_memoryview_input_round_trip(self):
        writer = BufferWriter()
        writer.write_str("through a view")
        reader = BufferReader(memoryview(writer.getvalue()))
        assert reader.read_str() == "through a view"

    def test_read_view_is_zero_copy(self):
        backing = bytearray(b"\x03abcrest")
        reader = BufferReader(backing)
        view = reader.read_view(4)
        assert bytes(view) == b"\x03abc"
        backing[1] = ord("z")
        assert bytes(view) == b"\x03zbc"  # a view, not a copy
        view.release()


class TestChunkedLegacyCompatibility:
    """The legacy chunk-list writer and the new writer emit identical bytes,
    and old-writer streams decode identically under the memoryview reader."""

    @staticmethod
    def _write_everything(writer):
        writer.write_bytes(b"hdr")
        writer.write_u8(0x7F)
        writer.write_u32(0xCAFEBABE)
        writer.write_i64(-(1 << 40))
        writer.write_f64(2.5)
        writer.write_varint(-(2**63))
        writer.write_varint(2**63 - 1)
        writer.write_uvarint(0)
        writer.write_uvarint(300)
        writer.write_len_bytes(b"")
        writer.write_len_bytes(b"payload")
        writer.write_str("")
        writer.write_str("unicode: é☃")

    def test_byte_identical_output(self):
        from repro.util.buffers import ChunkedBufferWriter

        new_writer = BufferWriter()
        old_writer = ChunkedBufferWriter()
        self._write_everything(new_writer)
        self._write_everything(old_writer)
        assert new_writer.getvalue() == old_writer.getvalue()

    def test_old_writer_stream_decodes_under_both_readers(self):
        from repro.util.buffers import ChunkedBufferWriter, SlicingBufferReader

        writer = ChunkedBufferWriter()
        self._write_everything(writer)
        payload = writer.getvalue()

        def read_all(reader):
            return (
                reader.read_bytes(3),
                reader.read_u8(),
                reader.read_u32(),
                reader.read_i64(),
                reader.read_f64(),
                reader.read_varint(),
                reader.read_varint(),
                reader.read_uvarint(),
                reader.read_uvarint(),
                reader.read_len_bytes(),
                reader.read_len_bytes(),
                reader.read_str(),
                reader.read_str(),
            )

        assert read_all(BufferReader(payload)) == read_all(
            SlicingBufferReader(payload)
        )


class TestBufferPool:
    def test_acquire_release_reuses_storage(self):
        from repro.util.buffers import BufferPool

        pool = BufferPool()
        buffer = pool.acquire()
        buffer += b"scribble"
        pool.release(buffer)
        again = pool.acquire()
        assert again is buffer
        assert len(again) == 0  # cleared on release

    def test_release_with_live_view_drops_buffer(self):
        from repro.util.buffers import BufferPool

        pool = BufferPool()
        buffer = pool.acquire()
        buffer += b"pinned"
        view = memoryview(buffer)
        pool.release(buffer)  # cannot clear while exported: dropped, no error
        assert pool.acquire() is not buffer
        view.release()

    def test_oversized_buffer_not_pooled(self):
        from repro.util.buffers import BufferPool

        pool = BufferPool(max_buffer_bytes=8)
        buffer = pool.acquire()
        buffer += b"0123456789"
        pool.release(buffer)
        assert pool.acquire() is not buffer
