"""Step 4: a reply's slots bind its definitions to the caller's originals.

A reply is a slot stream: handles ``0 … n-1`` are the caller's retained
objects in linear-map order, and each definition names its slot. These
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
        payload = bytearray(reply([Node(8), Node(9)]))
        assert payload[9] == 0x12 and payload[10] == 0  # OLD_OBJECT, slot 0
        payload[10] = 1
        with pytest.raises(RestoreError, match="defined twice"):
            parse(bytes(payload), [Node(1), Node(2)], "delta")

    def test_type_mismatch_at_dirty_position_raises(self):
        with pytest.raises(RestoreError, match="position"):
            parse(reply([Node(8), Pair(1, 2)], defined=[1]), [Node(1), Node(2)], "delta")


# ------------------------------------------------------- malformed replies


def _caller():
    child = Node("b")
    return Node("a", child), child


def _server(second=None):
    child = second if second is not None else Node("B")
    return [Node("A", child), child]


def _slot_past_count(profile):
    # Two of three slots defined, the count restated as two: slot 2 is
    # past it.
    return restated(reply(_server() + [Node("C")], defined=[0, 2], profile=profile), 2)


def _defined_twice(profile):
    server = _server()
    server[0].next = None
    payload = bytearray(reply(server, profile=profile))
    payload[10] = 1  # the first definition names slot 1, as the second does
    return bytes(payload)


def _full_missing_slot(profile):
    server = _server()
    server[0].next = None
    return reply(server, defined=[0], profile=profile)


def _class_mismatch(profile):
    return reply(_server(Box("B")), profile=profile)


def _truncated_definition(profile):
    return reply(_server(), profile=profile)[:-1]


@pytest.mark.parametrize("profile", ["modern", "legacy"])
@pytest.mark.parametrize(
    "build, cause",
    [
        (_slot_past_count, RestoreError),
        (_defined_twice, RestoreError),
        (_full_missing_slot, LinearMapMismatchError),
        (_class_mismatch, RestoreError),
        (_truncated_definition, WireFormatError),
    ],
    ids=["slot-past-count", "defined-twice", "full-missing-slot", "class-mismatch",
         "truncated-definition"],
)
def test_malformed_reply_restores_nothing(profile, build, cause):
    """A reply that disagrees with the caller's linear map fails the call
    with ``UnmarshalError`` and leaves the caller's heap as it was."""
    config = NRMIConfig(profile=profile, implementation=(
        "optimized" if profile == "modern" else "portable"
    ))
    endpoint = Endpoint(name=f"malformed-{profile}", config=config, resolver=ChannelResolver())
    try:
        root, child = _caller()
        before = fingerprint([root])
        payload = build(MODERN_PROFILE if profile == "modern" else LEGACY_PROFILE)
        prepared = PreparedCall(
            b"", [root, child], RemoteDescriptor("test://nowhere", 1), "touch"
        )
        response = ok_response(bytes([policy_wire_id("full")]) + payload)
        with pytest.raises(UnmarshalError) as excinfo:
            complete_call(endpoint, prepared, response)
        assert type(excinfo.value.__cause__) is cause
        assert fingerprint([root]) == before
    finally:
        endpoint.close()
