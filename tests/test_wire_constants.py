"""Invariants between the wire constants that several modules share.

Each check reads the imported values, so a constant computed from
another one is checked as the program sees it. ``Op``, ``Status`` and
``Tag`` carry ``@enum.unique``: a reused byte fails at import, where an
IntEnum would otherwise turn the duplicate into a silent alias.
"""

from __future__ import annotations

import pytest

from repro.rmi import protocol
from repro.serde import schema, tags
from repro.transport import framing


def _single_flag_bit(value: int) -> bool:
    """A power of two inside a one-byte flags field."""
    return 0 < value < 0x100 and value & (value - 1) == 0


def _names(module, prefix: str):
    return {
        name: value
        for name, value in vars(module).items()
        if name.startswith(prefix) and isinstance(value, int)
    }


@pytest.mark.parametrize("table", ["_POLICY_TO_ID", "_MODE_TO_ID"])
def test_wire_id_tables_are_injective(table):
    ids = list(getattr(protocol, table).values())
    assert len(set(ids)) == len(ids), f"{table} reuses a wire id: {ids}"


@pytest.mark.parametrize("enum_cls", [protocol.Op, protocol.Status, tags.Tag])
def test_enum_values_have_no_aliases(enum_cls):
    assert list(enum_cls.__members__) == [member.name for member in enum_cls]


def test_capability_bits_are_distinct_single_bits_clear_of_ship_map():
    caps = _names(protocol, "CAP_")
    assert caps, "no CAP_* constants found"
    used = protocol._FLAG_SHIP_MAP
    for name, bit in sorted(caps.items()):
        assert _single_flag_bit(bit), f"{name} = {bit:#x} is not one flag bit"
        assert not used & bit, f"{name} = {bit:#x} reuses an assigned flag bit"
        used |= bit


def test_pipeline_magic_cannot_be_read_as_a_legal_frame_length():
    magic = framing.PIPELINE_MAGIC
    assert len(magic) == 4, "the magic doubles as a u32 length header"
    assert int.from_bytes(magic, "big") > framing.MAX_FRAME_BYTES


def test_pipeline_preamble_is_magic_then_version():
    assert framing.PIPELINE_PREAMBLE == (
        framing.PIPELINE_MAGIC + framing.PIPELINE_VERSION
    )


def test_class_key_discriminators():
    # Key 0 means "inline descriptor" in both class-key encodings.
    assert schema.CKEY_INLINE == 0
    keys = _names(schema, "CKEY_")
    base = keys.pop("CKEY_STREAM_BASE")
    assert len(set(keys.values())) == len(keys), f"CKEY_* collide: {keys}"
    assert all(value < base for value in keys.values()), (
        f"CKEY_STREAM_BASE = {base} overlaps a discriminator: {keys}"
    )


def test_schema_cache_stream_flag_is_one_bit():
    assert _single_flag_bit(schema.STREAM_FLAG_SCHEMA_CACHE)


def test_short_header_bytes_are_clear_of_every_tag():
    short = range(tags.SHORT_OBJECT, tags.SHORT_DEFINITION + tags.SHORT_LAYOUTS)
    assert short[-1] == 0xFF, "the short forms end at the top of the byte"
    assert tags.SHORT_DEFINITION - tags.SHORT_OBJECT == tags.SHORT_LAYOUTS
    taken = sorted(tag.name for tag in tags.Tag if tag in short)
    assert not taken, f"Tag values inside the short-header range: {taken}"


def test_tag_0x7f_stays_unassigned():
    assert 0x7F < tags.SHORT_OBJECT
    assert 0x7F not in {int(tag) for tag in tags.Tag}


def _compact_int_tags():
    return range(tags.INT2_BASE, tags.INT3_END)


def test_compact_int_forms_tile_their_ranges():
    assert tags.INT2_BASE + (tags.INT2_LIMIT >> 8) == tags.INT3_BASE
    assert tags.INT3_BASE + (tags.INT3_LIMIT >> 16) == tags.INT3_END


def test_compact_int_tags_are_clear_of_every_tag_and_short_header():
    compact = _compact_int_tags()
    taken = sorted(tag.name for tag in tags.Tag if tag in compact)
    assert not taken, f"Tag values inside the compact-int range: {taken}"
    assert compact[-1] < tags.SHORT_OBJECT, "compact ints reach the short headers"


def test_unassigned_tag_space_stays_for_gap_coded_definitions():
    assigned = {int(tag) for tag in tags.Tag} | set(_compact_int_tags())
    free = [byte for byte in range(0x14, 0x7F) if byte not in assigned]
    assert len(free) >= 24, f"only {len(free)} unassigned tag bytes left"
