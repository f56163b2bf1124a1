"""Step 4: a reply's slots bind its definitions to the caller's originals.

A reply is a slot stream: handles ``0 … n-1`` are the caller's retained
objects in linear-map order, and each definition names its slot (or, in
the short form, defines the slot after the previous definition). These
tests build replies from hand-made server copies, check that slot *i*
lands on ``originals[i]``, and check every way a reply can disagree with
the caller's linear map — each rejected before any original is touched.
"""

import pytest

from repro.core.restore_protocol import ClientRestoreContext, policy_by_name
from repro.core.verify import fingerprint
from repro.errors import LinearMapMismatchError, RestoreError, UnmarshalError, WireFormatError
from repro.nrmi.config import NRMIConfig
from repro.nrmi.invocation import PreparedCall, complete_call
from repro.nrmi.runtime import Endpoint
from repro.rmi.protocol import ok_response, policy_wire_id
from repro.rmi.remote_ref import RemoteDescriptor
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.tags import SHORT_DEFINITION, Tag
from repro.serde.writer import ObjectWriter
from repro.transport.resolver import ChannelResolver

from tests.model_helpers import Box, Node, Pair

# Header bytes of a slot stream: magic, version, flags, then the slot
# count and the definition count (one byte each here); the result follows.
_COUNT_OFFSET = 6


def reply(slots, defined=None, result=None, profile=MODERN_PROFILE):
    """The reply a server holding *slots* (its copies of the caller's
    retained objects) writes when it defines *defined* (all when None)."""
    writer = ObjectWriter(profile=profile, slots=slots, defined=defined)
    writer.write_root(result)
    writer.write_slots()
    return writer.getvalue()


def restated(payload, count):
    """*payload* with its one-byte slot count replaced by *count*."""
    assert payload[_COUNT_OFFSET] < 0x80 and count < 0x80
    return payload[:_COUNT_OFFSET] + bytes([count]) + payload[_COUNT_OFFSET + 1:]


def heads_first(slots, heads, profile=MODERN_PROFILE):
    """A reply that defines the slots *heads* first — the result, then
    further roots — and the rest in slot order, as a bytearray; and the
    offset of the first definition after the heads. The heads and that
    definition take the long form: none follows the definition before
    it, as long as slot 0 is not the first head."""
    writer = ObjectWriter(profile=profile, slots=slots)
    for slot in heads:
        writer.write_root(slots[slot])
    at = writer.bytes_written
    writer.write_slots()
    payload = bytearray(writer.getvalue())
    assert payload[at:at + 2] == bytes([Tag.OLD_OBJECT, 0])
    return payload, at


def parse(payload, originals, policy="full"):
    context = ClientRestoreContext(originals=originals)
    result, stats = policy_by_name(policy).parse_response(payload, context)
    return result, stats, context


class TestMatchMaps:
    def test_empty_maps(self):
        _result, stats, _context = parse(reply([]), [])
        assert stats.old_overwritten == 0

    def test_positional_pairing(self):
        originals = [Node(1), Node(2)]
        parse(reply([Node(10), Node(20)]), originals)
        assert [node.data for node in originals] == [10, 20]

    def test_pairs_iteration(self):
        """The reader queues one ``(original, scratch)`` pair per
        definition and touches no original."""
        originals = [Node(1)]
        reader = ObjectReader(reply([Node(9)]), originals=originals)
        reader.read_root()
        reader.read_definitions()
        [(original, scratch)] = reader.pending
        assert original is originals[0] and scratch is not original
        assert (original.data, scratch.data) == (1, 9)

    def test_length_mismatch_raises(self):
        with pytest.raises(LinearMapMismatchError) as excinfo:
            parse(reply([Node(1), Node(2)]), [Node(1)])
        assert excinfo.value.expected == 1
        assert excinfo.value.received == 2

    def test_type_mismatch_raises(self):
        with pytest.raises(RestoreError, match="position 1"):
            parse(reply([Node(1), Pair(1, 2)]), [Node(1), Node(2)])

    def test_container_types_checked_exactly(self):
        with pytest.raises(RestoreError):
            parse(reply([{1: 2}]), [[1]])

    def test_identical_object_allowed(self):
        """A reference to a slot decodes to the original itself."""
        node = Node(1)
        server = Node(2)
        server.next = server
        result, _stats, _context = parse(reply([server], result=server), [node])
        assert result is node and node.next is node

    def test_mixed_kinds_align(self):
        originals = [Node(1), [1], {"k": 1}, {1}]
        _result, stats, _context = parse(
            reply([Node(2), [2], {"k": 2}, {2}]), originals
        )
        assert stats.old_overwritten == 4
        assert originals == [originals[0], [2], {"k": 2}, {2}]
        assert originals[0].data == 2


class TestMatchSparse:
    """Sparse replies (delta, dce) define only some slots."""

    def test_no_dirty_slots_matches_nothing(self):
        originals = [Node(1), Node(2)]
        _result, stats, context = parse(
            reply([Node(8), Node(9)], defined=[]), originals, "delta"
        )
        assert stats.old_overwritten == 0
        assert [node.data for node in originals] == [1, 2]
        assert context.reply_info["dirty"] == 0

    def test_subset_pairs_with_indexed_originals(self):
        originals = [Node(1), Node(2), Node(3)]
        server = [Node(10), Node(20), Node(30)]
        server[2].next = server[0]  # a reference to a clean slot
        parse(reply(server, defined=[1, 2]), originals, "delta")
        assert [node.data for node in originals] == [1, 20, 30]
        assert originals[2].next is originals[0]

    def test_count_mismatch_raises(self):
        """A ``full`` reply must define every slot."""
        with pytest.raises(LinearMapMismatchError):
            parse(reply([Node(8), Node(9)], defined=[0]), [Node(1), Node(2)])

    def test_out_of_bounds_index_raises(self):
        payload = restated(reply([Node(8), Node(9)], defined=[1]), 1)
        with pytest.raises(RestoreError, match="outside retained list"):
            parse(payload, [Node(1)], "delta")

    def test_non_increasing_indices_raise(self):
        """A slot named by two definitions."""
        payload, at = heads_first([Node(8), Node(9)], [1])
        payload[at + 1] = 1  # slot 0's definition names slot 1 again
        with pytest.raises(RestoreError, match="defined twice"):
            parse(bytes(payload), [Node(1), Node(2)], "delta")

    def test_type_mismatch_at_dirty_position_raises(self):
        with pytest.raises(RestoreError, match="position"):
            parse(reply([Node(8), Pair(1, 2)], defined=[1]), [Node(1), Node(2)], "delta")


# ------------------------------------------------------- malformed replies


def _caller():
    """Four retained nodes, a chain a → b → c → d."""
    nodes = [Node(name) for name in "abcd"]
    for node, successor in zip(nodes, nodes[1:]):
        node.next = successor
    return nodes


def _server(second=None):
    """The server's copies, unlinked: the reply defines each as a root."""
    nodes = [Node(name) for name in "ABCD"]
    if second is not None:
        nodes[1] = second
    return nodes


def _slot_past_count(profile):
    # Four of five slots defined, the count restated as four: slot 4,
    # defined after slot 2, is past it.
    return restated(
        reply(_server() + [Node("E")], defined=[0, 1, 2, 4], profile=profile), 4
    )


def _defined_twice(profile):
    payload, at = heads_first(_server(), [2], profile)
    payload[at + 1] = 2  # slot 0's definition names slot 2 again
    return bytes(payload)


def _full_missing_slot(profile):
    return reply(_server(), defined=[0], profile=profile)


def _class_mismatch(profile):
    return reply(_server(Box("B")), profile=profile)


def _truncated_definition(profile):
    return reply(_server(), profile=profile)[:-1]


def _shortened(heads, layout=1):
    """A reply whose slot 0 definition after *heads* has its long header
    (slot 0, layout 1) replaced by the short definition header of
    *layout*, which defines the slot after the last head instead. Only a
    modern writer writes layout keys, so both profiles read this one."""
    payload, at = heads_first(_server(), heads)
    assert payload[at + 2] == 1
    return bytes(payload[:at] + bytes([SHORT_DEFINITION - 1 + layout]) + payload[at + 3:])


def _short_slot_past_count(profile):
    return _shortened([3])  # the slot after 3


def _short_slot_defined_twice(profile):
    return _shortened([3, 2])  # the slot after 2: 3, the first definition


def _short_layout_unknown(profile):
    return _shortened([2], layout=2)  # slot 3, but the stream has one layout


def _truncated_int(value, cut):
    """A full reply whose last definition's ``next`` field is *value* (a
    compact int, or a list of them), cut *cut* bytes short: the stream
    ends inside the int's form."""

    def build(profile):
        nodes = _server()
        nodes[3].next = value
        return reply(nodes, profile=profile)[:-cut]

    return build


@pytest.mark.parametrize("profile", ["modern", "legacy"])
@pytest.mark.parametrize(
    "build, cause, message",
    [
        (_slot_past_count, RestoreError, "slot 4 outside"),
        (_defined_twice, RestoreError, "slot 2 defined twice"),
        (_full_missing_slot, LinearMapMismatchError, ""),
        (_class_mismatch, RestoreError, "position 1"),
        (_truncated_definition, WireFormatError, "truncated"),
        (_short_slot_past_count, RestoreError, "slot 4 outside"),
        (_short_slot_defined_twice, RestoreError, "slot 3 defined twice"),
        (_short_layout_unknown, WireFormatError, "dangling layout id 2"),
        (_truncated_int(5, 1), WireFormatError, "truncated"),
        (_truncated_int(20_000, 1), WireFormatError, "truncated"),
        (_truncated_int(20_000, 2), WireFormatError, "truncated"),
        (_truncated_int([1, 5], 1), WireFormatError, "truncated"),
        (_truncated_int([1, 20_000], 2), WireFormatError, "truncated"),
    ],
    ids=["slot-past-count", "defined-twice", "full-missing-slot", "class-mismatch",
         "truncated-definition", "short-slot-past-count", "short-slot-defined-twice",
         "short-layout-unknown", "truncated-int2", "truncated-int3",
         "truncated-int3-tag-only", "truncated-int2-in-list", "truncated-int3-in-list"],
)
def test_malformed_reply_restores_nothing(profile, build, cause, message):
    """A reply that disagrees with the caller's linear map fails the call
    with ``UnmarshalError`` and leaves the caller's heap as it was."""
    config = NRMIConfig(profile=profile, implementation=(
        "optimized" if profile == "modern" else "portable"
    ))
    endpoint = Endpoint(name=f"malformed-{profile}", config=config, resolver=ChannelResolver())
    try:
        nodes = _caller()
        before = fingerprint(nodes)
        payload = build(MODERN_PROFILE if profile == "modern" else LEGACY_PROFILE)
        prepared = PreparedCall(
            b"", nodes, RemoteDescriptor("test://nowhere", 1), "touch"
        )
        response = ok_response(bytes([policy_wire_id("full")]) + payload)
        with pytest.raises(UnmarshalError) as excinfo:
            complete_call(endpoint, prepared, response)
        assert type(excinfo.value.__cause__) is cause
        assert message in str(excinfo.value.__cause__)
        assert fingerprint(nodes) == before
    finally:
        endpoint.close()
