"""Property-based tests: the wire format on arbitrary value shapes."""

import datetime
import math
from dataclasses import replace
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.copy_restore import RestoreEngine
from repro.core.markers import Remote, Restorable, Serializable
from repro.core.restore_protocol import (
    ClientRestoreContext,
    DeltaRestorePolicy,
    FullRestorePolicy,
)
from repro.core.verify import fingerprint
from repro.errors import RestoreError, SerializationError, WireFormatError
from repro.nrmi.runtime import Endpoint
from repro.rmi.remote_ref import is_opaque_remote
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import Externalizer, global_registry
from repro.serde.schema import _str_blob
from repro.serde.tags import INT2_LIMIT, INT3_LIMIT, Tag
from repro.serde.writer import ObjectWriter
from repro.transport.resolver import ChannelResolver
from repro.util.buffers import BufferWriter

from tests.model_helpers import Box, Node, Pair, SlottedPoint, heap_fingerprint

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

hashable_values = st.one_of(
    scalars,
    st.tuples(scalars, scalars),
    st.frozensets(scalars, max_size=4),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(hashable_values, children, max_size=4),
        st.sets(hashable_values, max_size=4),
        st.frozensets(hashable_values, max_size=4),
    ),
    max_leaves=25,
)


def roundtrip(value, profile=MODERN_PROFILE):
    writer = ObjectWriter(profile=profile)
    writer.write_root(value)
    reader = ObjectReader(writer.getvalue(), profile=profile)
    result = reader.read_root()
    reader.expect_end()
    return result


@settings(max_examples=150)
@given(values)
def test_roundtrip_preserves_equality(value):
    assert roundtrip(value) == value


@settings(max_examples=60)
@given(values)
def test_legacy_and_modern_decode_identically(value):
    assert roundtrip(value, LEGACY_PROFILE) == roundtrip(value, MODERN_PROFILE)


@settings(max_examples=60)
@given(values)
def test_roundtrip_preserves_types(value):
    result = roundtrip(value)
    assert type(result) is type(value)


@settings(max_examples=60)
@given(st.lists(values, min_size=1, max_size=4))
def test_multi_root_stream(roots):
    writer = ObjectWriter()
    for root in roots:
        writer.write_root(root)
    reader = ObjectReader(writer.getvalue())
    decoded = [reader.read_root() for _ in roots]
    reader.expect_end()
    assert decoded == roots


@settings(max_examples=60)
@given(st.lists(st.integers(), min_size=1, max_size=6))
def test_aliased_graph_fingerprint_stable(items):
    """Sharing a sub-list twice must decode to one shared object."""
    shared = list(items)
    graph = {"a": shared, "b": shared, "c": [shared, items]}
    decoded = roundtrip(graph)
    assert decoded["a"] is decoded["b"]
    assert decoded["c"][0] is decoded["a"]
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])


@settings(max_examples=60)
@given(values)
def test_linear_maps_align(value):
    writer = ObjectWriter()
    writer.write_root(value)
    reader = ObjectReader(writer.getvalue())
    reader.read_root()
    assert len(writer.linear_map) == len(reader.linear_map)
    for original, copy in zip(writer.linear_map, reader.linear_map):
        assert type(original) is type(copy)


@settings(max_examples=40)
@given(st.floats())
def test_float_bit_exactness(value):
    result = roundtrip(value)
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == value
        assert math.copysign(1.0, result) == math.copysign(1.0, value)


# ---------------------------------------------------------------------------
# Compiled plans vs the generic encoder: byte-identity on object graphs.
# ---------------------------------------------------------------------------

#: The modern profile with compiled plans switched off — same accessor,
#: interning, and buffer layer, so any byte difference is the plan's fault.
MODERN_NO_PLANS = replace(
    MODERN_PROFILE, name="modern-noplans", use_compiled_plans=False
)

object_graphs = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.builds(Node, data=children, next=st.none() | st.builds(Node, data=children)),
        st.builds(Pair, first=children, second=children),
        st.builds(
            SlottedPoint,
            x=st.integers(min_value=-(2**40), max_value=2**40),
            y=st.integers(min_value=-(2**40), max_value=2**40),
        ),
        st.builds(Box, payload=children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=100)
@given(object_graphs)
def test_compiled_plans_encode_byte_identical(graph):
    """Plan-compiled and generic modern encodes agree byte for byte."""
    with_plans = ObjectWriter(profile=MODERN_PROFILE)
    with_plans.write_root(graph)
    without_plans = ObjectWriter(profile=MODERN_NO_PLANS)
    without_plans.write_root(graph)
    assert with_plans.getvalue() == without_plans.getvalue()


@settings(max_examples=60)
@given(object_graphs)
def test_compiled_plans_roundtrip_isomorphic(graph):
    """The compiled path still reconstructs an isomorphic heap."""
    writer = ObjectWriter(profile=MODERN_PROFILE)
    writer.write_root(graph)
    reader = ObjectReader(writer.getvalue(), profile=MODERN_PROFILE)
    decoded = reader.read_root()
    reader.expect_end()
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])
    assert len(writer.linear_map) == len(reader.linear_map)


@settings(max_examples=40)
@given(object_graphs)
def test_compiled_plans_legacy_still_decodes(graph):
    """Streams written by the compiled path stay readable under legacy
    decoding — one wire format, two implementations."""
    writer = ObjectWriter(profile=MODERN_PROFILE)
    writer.write_root(graph)
    decoded = ObjectReader(writer.getvalue(), profile=MODERN_NO_PLANS).read_root()
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=50))
def test_compiled_plans_aliasing_and_cycles(n):
    """Handles/backrefs from the compiled path preserve sharing and cycles."""
    head = Node(data=n)
    head.next = Node(data=[head, head])  # cycle plus a shared alias
    graph = Pair(first=head, second=head.next)
    writer = ObjectWriter(profile=MODERN_PROFILE)
    writer.write_root(graph)
    baseline = ObjectWriter(profile=MODERN_NO_PLANS)
    baseline.write_root(graph)
    assert writer.getvalue() == baseline.getvalue()
    decoded = ObjectReader(writer.getvalue(), profile=MODERN_PROFILE).read_root()
    assert decoded.first.next is decoded.second
    assert decoded.second.data[0] is decoded.first
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])


# --------------------------------------------------------------------------
# Exec-generated serde (repro.serde.codegen). The oracle here is the generic
# frame machine (MODERN_NO_PLANS) — same accessor, interning and buffer
# layer, so any byte difference is the generated function's fault.


@settings(max_examples=100)
@given(object_graphs)
def test_codegen_encode_byte_identical(graph):
    """Generated encoders and the generic writer agree byte for byte."""
    with_codegen = ObjectWriter(profile=MODERN_PROFILE)
    with_codegen.write_root(graph)
    generic = ObjectWriter(profile=MODERN_NO_PLANS)
    generic.write_root(graph)
    assert with_codegen.getvalue() == generic.getvalue()


# Object layouts (wire version 2): an OBJECT is a layout key and then its
# field values, the first instance of each (class, field names) pair
# defining the layout inline. Instances of one class that differ in which
# fields they hold, or in their order, take different layouts.


class LayoutRecord(Restorable):
    """A plain ``__dict__`` class."""


class SlottedLayout(Serializable):
    __slots__ = ("a", "b", "c", "d")


class MixedLayout(SlottedLayout):
    """Slots from the base, an instance dict of its own."""


class TransientLayout(Restorable):
    __nrmi_transient__ = ("c",)


class ResolvingLayout(Serializable):
    """Value-like: outside the linear map, resolved to itself."""

    def __nrmi_resolve__(self):
        return self


class PureSlotted:
    """No instance dict anywhere in the MRO: the static-slot encoder and
    decoder, float-run batch included."""

    __slots__ = ("a", "b", "c", "d")


global_registry.register(PureSlotted, name="tests.property_serde.PureSlotted")

_LAYOUT_CLASSES = (
    LayoutRecord, SlottedLayout, MixedLayout, TransientLayout, ResolvingLayout,
    PureSlotted,
)
_SLOTS_ONLY = (SlottedLayout, PureSlotted)
#: Slots a-d; "e" lands in MixedLayout's instance dict (the slots-only
#: classes never get one).
_LAYOUT_FIELDS = ("a", "b", "c", "d", "e")


class _Alias:
    """Placeholder for a reference to the *index*-th instance."""

    def __init__(self, index):
        self.index = index


_layout_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.builds(_Alias, st.integers(0, 5)),
)


@st.composite
def layout_graphs(draw):
    """Instances of one class whose field sets and orders vary: fields
    set in any order, some deleted again (and maybe set once more, which
    moves them last), slots left unset, transient fields, fields that
    alias other instances of the list (cycles included)."""
    cls = draw(st.sampled_from(_LAYOUT_CLASSES))
    names = _LAYOUT_FIELDS[:4] if cls in _SLOTS_ONLY else _LAYOUT_FIELDS
    steps = st.tuples(st.sampled_from(names), _layout_values, st.booleans())
    instances = []
    for _ in range(draw(st.integers(1, 6))):
        obj = cls.__new__(cls)
        if draw(st.booleans()):
            for name in names:
                setattr(obj, name, draw(st.floats(allow_nan=False) | _layout_values))
        for name, value, delete in draw(st.lists(steps, max_size=5)):
            setattr(obj, name, value)
            if delete:
                delattr(obj, name)
        instances.append(obj)
    for obj in instances:
        for name, value in _stored_fields(obj):
            if isinstance(value, _Alias):
                setattr(obj, name, instances[value.index % len(instances)])
    return instances


def _stored_fields(obj):
    """Every field the instance holds, transient ones included: the
    instance dict's, then the slots that are set."""
    fields = list(getattr(obj, "__dict__", {}).items())
    if isinstance(obj, _SLOTS_ONLY):
        fields += [
            (name, getattr(obj, name))
            for name in _LAYOUT_FIELDS[:4]
            if hasattr(obj, name)
        ]
    return fields


def _field_order(obj):
    """The fields that travel, in the order a decoded copy must hold
    them: ``list(vars(obj))`` for the instance dict, slots after it."""
    transients = getattr(type(obj), "__nrmi_transient__", ())
    return [name for name, _ in _stored_fields(obj) if name not in transients]


def _without_transients(instances):
    for obj in instances:
        for name in getattr(type(obj), "__nrmi_transient__", ()):
            obj.__dict__.pop(name, None)
    return instances


@settings(max_examples=100)
@given(layout_graphs())
def test_layout_variants_encode_byte_identical(instances):
    """Generated encoders and the generic writer agree byte for byte on
    instances of one class with any mix of layouts."""
    with_codegen = ObjectWriter(profile=MODERN_PROFILE)
    with_codegen.write_root(instances)
    generic = ObjectWriter(profile=MODERN_NO_PLANS)
    generic.write_root(instances)
    assert with_codegen.getvalue() == generic.getvalue()


@settings(max_examples=60)
@given(layout_graphs())
def test_layout_variants_roundtrip_keep_aliasing_and_field_order(instances):
    """Every decoder rebuilds the same heap, aliases and cycles included,
    and each copy holds its fields in the original's order."""
    streams = {}
    for profile in (MODERN_PROFILE, LEGACY_PROFILE):
        writer = ObjectWriter(profile=profile)
        writer.write_root(instances)
        streams[profile] = writer.getvalue()
    expected_order = [_field_order(obj) for obj in instances]
    expected_heap = heap_fingerprint([_without_transients(instances)])
    for profile, decoding in (
        (MODERN_PROFILE, MODERN_PROFILE),
        (MODERN_PROFILE, MODERN_NO_PLANS),
        (LEGACY_PROFILE, LEGACY_PROFILE),
    ):
        reader = ObjectReader(streams[profile], profile=decoding)
        decoded = reader.read_root()
        reader.expect_end()
        assert heap_fingerprint([decoded]) == expected_heap, decoding.name
        assert [_field_order(obj) for obj in decoded] == expected_order


def _node_stream(tail: bytes) -> bytes:
    """A one-Node stream whose last field value (``next``, ``None``) is
    replaced by *tail*: inside the Node's generated decoder on the
    modern profile, inside a frame of the generic machine otherwise."""
    writer = ObjectWriter()
    writer.write_root(Node(1))
    stream = writer.getvalue()
    assert stream[-1] == 0  # Tag.NONE
    return stream[:-1] + tail


#: A nested object whose layout key names no layout of the stream, one
#: whose inline definition ends inside its class name, and a short
#: header naming no layout of the stream.
_BAD_LAYOUTS = {
    "dangling": bytes([0x10, 9]),
    "truncated-definition": bytes([0x10, 0, 0, 5]) + b"ab",
    "short-dangling": bytes([0x80 + 8]),
}


@pytest.mark.parametrize("tail", _BAD_LAYOUTS.values(), ids=_BAD_LAYOUTS)
def test_bad_layout_keys_raise_alike_on_both_paths(tail):
    errors = []
    for profile in (MODERN_PROFILE, MODERN_NO_PLANS):
        with pytest.raises(WireFormatError) as caught:
            ObjectReader(_node_stream(tail), profile=profile).read_root()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert "dangling layout id 9" in errors[0] or "truncated" in errors[0]


def _full_reply_with(tail, originals):
    writer = ObjectWriter(slots=[Node("a2"), Node("b2")])
    writer.write_root(None)
    writer.write_slots()
    stream = writer.getvalue()
    return stream[:-1] + tail


def _delta_reply_with(tail, originals):
    return _delta_payload([Node("dirty"), Node("b")])[:-1] + tail


@pytest.mark.parametrize("tail", _BAD_LAYOUTS.values(), ids=_BAD_LAYOUTS)
@pytest.mark.parametrize(
    "policy, build",
    [(FullRestorePolicy, _full_reply_with), (DeltaRestorePolicy, _delta_reply_with)],
    ids=["full", "delta"],
)
def test_bad_layout_keys_in_a_reply_restore_nothing(policy, build, tail):
    """A reply carrying a bad layout key fails in ``parse_response`` with
    a WireFormatError on both decoding paths, and the caller's heap is as
    it was."""
    for profile in (MODERN_PROFILE, MODERN_NO_PLANS):
        originals = [Node("a", Node("a child")), Node("b")]
        before = heap_fingerprint(originals)
        context = ClientRestoreContext(originals=originals, profile=profile)
        with pytest.raises(WireFormatError):
            policy().parse_response(build(tail, originals), context)
        assert heap_fingerprint(originals) == before


def test_repeated_layout_costs_one_byte_plus_values():
    """After the first instance, every instance of one layout costs a
    one-byte short header and its values; a static-slot float run goes
    through the packed float batch."""

    def floats(i):
        obj = PureSlotted()
        obj.a, obj.b, obj.c, obj.d = float(i), 0.5, -1.0, 2.0
        return obj

    for make, value_bytes in (
        (lambda i: Pair(i, -i), 2 + 2),
        (lambda i: SlottedPoint(float(i), 0.5), 9 + 9),
        (floats, 4 * 9),
    ):
        def size(count):
            writer = ObjectWriter()
            writer.write_root([make(i) for i in range(count)])
            return len(writer.getvalue())

        for count in (2, 10, 60):
            assert size(count) - size(1) == (count - 1) * (1 + value_bytes)


def test_new_layouts_cost_one_byte_more_than_version_1():
    """An object whose layout is new to the stream pays what version 1
    paid for it — class key, field count, one name key per field — plus
    the layout key's byte. Here every object has a new layout: one new
    field name each, so version 1 wrote every name inline too."""
    count = 20
    instances = []
    for index in range(count):
        obj = LayoutRecord()
        setattr(obj, f"f{index}", index)
        instances.append(obj)
    writer = ObjectWriter()
    writer.write_root(instances)
    class_name = global_registry.name_of(LayoutRecord)
    first_class_key = 1 + len(_str_blob(class_name)) + 1  # 0, name, version
    version_1 = 6 + 2  # header; list tag and count
    for index in range(count):
        class_key = first_class_key if index == 0 else 1
        name_key = 1 + len(_str_blob(f"f{index}"))
        version_1 += 1 + class_key + 1 + name_key + 2  # tag ... int value
    assert len(writer.getvalue()) == version_1 + count


# Slot streams: a reply binds the caller's retained objects to handles
# 0 … n-1 and defines some of them. The oracle is the generic writer.


@settings(max_examples=100)
@given(object_graphs, st.randoms(use_true_random=False))
def test_slot_stream_encode_byte_identical(graph, rng):
    """A reply writer that binds a random half of the retained slots and
    defines the rest writes the bytes the generic writer writes, on both
    profiles, and the stream defines exactly the slots it states."""
    probe = ObjectWriter(profile=MODERN_NO_PLANS)
    probe.write_root(graph)
    retained = list(probe.linear_map)
    defined = [index for index in range(len(retained)) if rng.random() < 0.5]

    def encode(profile):
        writer = ObjectWriter(profile=profile, slots=retained, defined=defined)
        writer.write_root(graph)
        writer.write_slots()
        return writer.getvalue()

    for profile in (MODERN_PROFILE, LEGACY_PROFILE):
        oracle = encode(replace(profile, use_compiled_plans=False))
        assert encode(profile) == oracle
        reader = ObjectReader(oracle, profile=profile, originals=list(retained))
        reader.read_root()
        reader.read_definitions()
        assert sorted(
            index for index, obj in enumerate(retained)
            for original, _state in reader.pending if original is obj
        ) == defined


# Short headers (wire version 5): a new object of one of the stream's first
# 64 layouts is one tag byte, and so is the definition of the slot after
# the previous definition. The long forms stay for everything else, and
# the generated and the generic paths must pick the same form every time.


def _slot_stream(profile, slots, result=None, defined=None):
    writer = ObjectWriter(profile=profile, slots=slots, defined=defined)
    writer.write_root(result)
    writer.write_slots()
    return writer.getvalue()


def _decoded_slot_stream(stream, slots, profile):
    """The stream's result and its definitions as ``(slot, state)`` in
    stream order, each state fingerprinted."""
    reader = ObjectReader(stream, profile=profile, originals=list(slots))
    result = reader.read_root()
    reader.read_definitions()
    slot_of = {id(obj): index for index, obj in enumerate(slots)}
    return heap_fingerprint([result]), [
        (slot_of[id(original)], heap_fingerprint([state]))
        for original, state in reader.pending
    ]


def _record(index):
    """A LayoutRecord whose one field gives it a layout of its own."""
    obj = LayoutRecord()
    setattr(obj, f"f{index}", index)
    return obj


@settings(max_examples=10)
@given(st.integers(60, 70), st.randoms(use_true_random=False))
def test_layouts_past_the_short_range_take_the_long_form(count, rng):
    """A stream with more than 64 layouts: new objects and in-order
    definitions of layout 65 and up take the long form, with the layout
    key, on both encoders alike; both decoders read them back."""
    first = [_record(index) for index in range(count)]
    again = [_record(index) for index in rng.sample(range(count), count)]
    slots = [_record(index) for index in range(count)]
    streams = {
        profile.name: _slot_stream(profile, slots, result=first + again)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    }
    stream = streams[MODERN_PROFILE.name]
    assert streams[MODERN_NO_PLANS.name] == stream
    assert (bytes([0x10, 65]) in stream) == (count >= 65)  # OBJECT, key 65
    assert (bytes([0x12, 64, 65]) in stream) == (count >= 65)  # slot 64, key 65
    decoded = [
        _decoded_slot_stream(stream, slots, profile)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    ]
    assert decoded[0] == decoded[1]
    assert decoded[0][0] == heap_fingerprint([first + again])
    assert [slot for slot, _state in decoded[0][1]] == list(range(count))


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(2, 12))
def test_definitions_out_of_order_agree_on_every_header(rng, count):
    """A result that meets the slots in any order, and defines some of
    them nested in others: both encoders pick the same header, short or
    long, for every definition, and both decoders define the same slots
    in the same order."""
    slots = [Node(index) for index in range(count)]
    for node in slots:
        if rng.random() < 0.4:
            node.next = rng.choice(slots)
    order = rng.sample(range(count), count)
    defined = sorted(rng.sample(range(count), rng.randint(0, count)))
    result = [slots[index] for index in order[: count // 2]]
    streams = {
        profile.name: _slot_stream(profile, slots, result, defined)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    }
    stream = streams[MODERN_PROFILE.name]
    assert streams[MODERN_NO_PLANS.name] == stream
    decoded = [
        _decoded_slot_stream(stream, slots, profile)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    ]
    assert decoded[0] == decoded[1]
    assert sorted(slot for slot, _state in decoded[0][1]) == defined


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 6), st.booleans())
def test_short_definitions_resume_after_a_container_bail(before, after, retained):
    """A run of in-order definitions, each nested in the one before, with
    a list-valued field in the middle: generated code hands the list to
    the generic machinery and picks the run up after it, the previous
    definition carried across both hand-overs. A retained list is itself
    a definition, in order, and the run continues after it."""
    # String data: no value byte reads as a header byte below.
    chain = [Node(f"n{index}") for index in range(before + after + 1)]
    for node, successor in zip(chain, chain[1:]):
        node.next = successor
    middle = chain[before]
    middle.data = [before, Node("new")]
    slots = chain[: before + 1] + ([middle.data] if retained else []) + chain[before + 1:]
    streams = {
        profile.name: _slot_stream(profile, slots)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    }
    stream = streams[MODERN_PROFILE.name]
    assert streams[MODERN_NO_PLANS.name] == stream
    # Slot 0 defines the layout; every other object definition is short.
    assert stream.count(0x12) == 1 and stream.count(0xC0) == before + after
    decoded = [
        _decoded_slot_stream(stream, slots, profile)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS)
    ]
    assert decoded[0] == decoded[1]
    assert [slot for slot, _state in decoded[0][1]] == list(range(len(slots)))


class _Service(Remote):
    pass


_EXTERNAL_KINDS = ("slot", "adapter", "remote")


@settings(max_examples=60)
@given(
    object_graphs,
    st.lists(
        st.tuples(st.sampled_from(_EXTERNAL_KINDS), st.integers(0, 3)),
        min_size=1,
        max_size=8,
    ),
)
def test_externals_decode_to_the_same_heap(graph, externals):
    """Slot streams holding references to bound slots, value adapters and
    remote descriptors — as object fields, where generated decoders meet
    them, and as list elements, where the frame machine does — decode to
    the same heap on both paths, the referenced originals included."""
    endpoint = Endpoint(name="externals", resolver=ChannelResolver())
    try:
        service = _Service()
        originals = [Node(data=f"original {i}") for i in range(4)]

        def external(kind, index):
            if kind == "slot":
                return originals[index]
            if kind == "adapter":
                return datetime.date(2003, 5, 19 + index)
            return service

        values = [external(kind, index) for kind, index in externals]
        chain = None
        for value in values:
            chain = Node(data=value, next=chain)
        root = Pair(first=Box(payload=[graph, chain]), second=list(values))
        writer = ObjectWriter(
            profile=MODERN_PROFILE,
            externalizers=endpoint.externalizers(),
            slots=originals,
            defined=[],
        )
        writer.write_root(root)
        stream = writer.getvalue()
        externalizers = endpoint.externalizers()
        expected = fingerprint([root, originals], opaque=is_opaque_remote)
        for profile in (MODERN_PROFILE, MODERN_NO_PLANS):
            reader = ObjectReader(
                stream, profile=profile, externalizers=externalizers, originals=originals
            )
            decoded = reader.read_root()
            reader.read_definitions()
            RestoreEngine().apply(reader.pending, reader.fills)  # new dicts, sets
            assert fingerprint([decoded, originals], opaque=is_opaque_remote) == expected
            remotes = [value for value in decoded.second if is_opaque_remote(value)]
            assert remotes == [service] * sum(value is service for value in values)
    finally:
        endpoint.close()


def _delta_payload(slots, defined=(0,), count=None, cut=0, **writer_kwargs):
    """A delta reply over the server copies *slots* defining *defined*,
    its slot count restated as *count*, minus the last *cut* bytes."""
    writer = ObjectWriter(slots=slots, defined=list(defined), **writer_kwargs)
    writer.write_root(None)
    writer.write_slots()
    payload = bytearray(writer.getvalue())
    if count is not None:
        payload[6] = count  # the slot count, after magic, version, flags
    return bytes(payload[: len(payload) - cut])


def _malformed_unknown_name(originals):
    marker = object()
    ext = Externalizer("tests.nosuch", lambda obj: obj is marker, lambda obj: b"?", None)
    return _delta_payload([Node("dirty", marker), Node("b")], externalizers=(ext,))


def _malformed_truncated(originals):
    # Slot 1 is bound: the dirty node refers to the caller's original.
    return _delta_payload([Node("dirty", originals[1]), originals[1]], cut=1)


def _malformed_out_of_range(originals):
    stranger = Node("stranger")
    slots = [Node("dirty", stranger)] + [Node(i) for i in range(1, 99)] + [stranger]
    return _delta_payload(slots, defined=(0, 99), count=len(originals))


def _malformed_adapter(originals):
    moment = datetime.date(2003, 5, 19)
    ext = Externalizer("std.date", lambda obj: obj is moment, lambda obj: b"\xff", None)
    return _delta_payload([Node("dirty", moment), Node("b")], externalizers=(ext,))


@pytest.mark.parametrize(
    "build, error",
    [
        (_malformed_unknown_name, SerializationError),
        (_malformed_truncated, WireFormatError),
        (_malformed_out_of_range, RestoreError),
        (_malformed_adapter, UnicodeDecodeError),
    ],
    ids=["unknown-name", "truncated-payload", "out-of-range-oldref", "bad-adapter-payload"],
)
def test_malformed_externals_raise_alike_and_restore_nothing(build, error):
    """A malformed external in a delta reply raises the same error class
    from the generated decoder as from the frame machine, and the failed
    ``parse_response`` leaves the caller's heap as it was."""
    for profile in (MODERN_PROFILE, MODERN_NO_PLANS):
        originals = [Node("a", Node("a child")), Node("b")]
        before = heap_fingerprint(originals)
        context = ClientRestoreContext(originals=originals, profile=profile)
        with pytest.raises(Exception) as caught:
            DeltaRestorePolicy().parse_response(build(originals), context)
        assert type(caught.value) is error, profile.name
        assert heap_fingerprint(originals) == before


@settings(max_examples=60)
@given(object_graphs)
def test_codegen_decode_matches_interpreted(graph):
    """Generated decoders reconstruct the same heap, with aligned linear
    maps, as the generic frame machine reading the same stream."""
    writer = ObjectWriter(profile=MODERN_PROFILE)
    writer.write_root(graph)
    stream = writer.getvalue()
    fast = ObjectReader(stream, profile=MODERN_PROFILE)
    slow = ObjectReader(stream, profile=MODERN_NO_PLANS)
    fast_graph, slow_graph = fast.read_root(), slow.read_root()
    assert heap_fingerprint([fast_graph]) == heap_fingerprint([slow_graph])
    assert heap_fingerprint([graph]) == heap_fingerprint([fast_graph])
    assert len(fast.linear_map) == len(slow.linear_map)


@settings(max_examples=40)
@given(object_graphs)
def test_codegen_reads_interpreted_streams(graph):
    """The cross direction: generic-written streams decode under the
    generated functions — one wire format, two implementations."""
    writer = ObjectWriter(profile=MODERN_NO_PLANS)
    writer.write_root(graph)
    decoded = ObjectReader(writer.getvalue(), profile=MODERN_PROFILE).read_root()
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=50))
def test_codegen_aliasing_and_cycles(n):
    """Generated encode/decode preserve sharing and cycles (the handle
    machinery is interpolated into the generated source)."""
    head = Node(data=n)
    head.next = Node(data=[head, head])  # cycle plus a shared alias
    graph = Pair(first=head, second=head.next)
    writer = ObjectWriter(profile=MODERN_PROFILE)
    writer.write_root(graph)
    baseline = ObjectWriter(profile=MODERN_NO_PLANS)
    baseline.write_root(graph)
    assert writer.getvalue() == baseline.getvalue()
    decoded = ObjectReader(writer.getvalue(), profile=MODERN_PROFILE).read_root()
    assert decoded.first.next is decoded.second
    assert decoded.second.data[0] is decoded.first
    assert heap_fingerprint([graph]) == heap_fingerprint([decoded])


def test_list_of_backrefs_root_byte_identical():
    """The shape of a ``full`` reply: a graph root, then a list root that
    is mostly back references into it (enough for two-byte handles),
    broken up by not-yet-written objects, containers and every inline
    scalar. The direct list loops of the plan-backed writer and reader
    must be invisible on the wire and in the decoded heap."""
    chain = [Node(data=i) for i in range(200)]
    for node, following in zip(chain, chain[1:]):
        node.next = following
    detached = Node(data="detached", next=Node(data="its own subtree"))
    backrefs = list(chain)
    backrefs[5:5] = [None, 7, -3, 2**70, True, False, 1.5, "text", "text", b"raw"]
    backrefs[40:40] = [detached, detached, [chain[1], detached], (chain[2],), {"k": chain[3]}]
    backrefs.append(Box(payload=backrefs))  # an unseen tail, and a cycle
    roots = [chain[0], backrefs, [], [None], [chain[199]]]

    streams = {}
    for profile in (MODERN_PROFILE, MODERN_NO_PLANS):
        writer = ObjectWriter(profile=profile)
        for root in roots:
            writer.write_root(root)
        streams[profile.name] = writer.getvalue()
    assert len(set(streams.values())) == 1

    stream = streams[MODERN_PROFILE.name]
    for profile in (MODERN_PROFILE, MODERN_NO_PLANS, LEGACY_PROFILE):
        reader = ObjectReader(stream, profile=profile)
        decoded = [reader.read_root() for _ in roots]
        reader.expect_end()
        assert heap_fingerprint(roots) == heap_fingerprint(decoded)
        assert len(reader.linear_map) == len(writer.linear_map)
        assert [span[1:] for span in reader.linear_map.spans] == [
            span[1:] for span in writer.linear_map.spans
        ]


def test_codegen_deep_graph_bails_identically():
    """Past MAX_CODEGEN_DEPTH the generated functions bail to the
    generic machinery mid-stream; the splice must be invisible."""
    head = tail = Node(data=0)
    for i in range(1, 300):  # well past the generated-recursion budget
        tail.next = Node(data=i)
        tail = tail.next
    fast = ObjectWriter(profile=MODERN_PROFILE)
    fast.write_root(head)
    slow = ObjectWriter(profile=MODERN_NO_PLANS)
    slow.write_root(head)
    assert fast.getvalue() == slow.getvalue()
    decoded = ObjectReader(fast.getvalue(), profile=MODERN_PROFILE).read_root()
    assert heap_fingerprint([head]) == heap_fingerprint([decoded])


# Compact ints (wire version 6): a non-negative int below 2**20 is its
# high bits in the tag byte and one or two more bytes; every other int
# keeps INT (a zig-zag varint) or INT_BIG.


class _Level(IntEnum):
    HIGH = 70_000


_INT_EDGES = [
    -1, 0, 63, 64, 2**14 - 1, 2**14, 2**20 - 1, 2**20,
    -(2**63), 2**63 - 1, -(2**63) - 1, 2**63, 2**64,
    _Level.HIGH, True,
]


def _version_5_size(value):
    """Bytes *value* took before compact ints: a bool's tag; ``INT`` and
    a zig-zag varint; or ``INT_BIG``, a sign byte, a length and the
    magnitude."""
    if type(value) is bool:
        return 1
    sized = BufferWriter()
    if -(2**63) <= value < 2**63:
        sized.write_varint(int(value))
        return 1 + len(sized)
    magnitude = abs(value)
    sized.write_len_bytes(magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big"))
    return 2 + len(sized)


def _check_int(value):
    """*value* as an object field (the generated encoder and decoder with
    plans, the generic writer and ``_step`` without) and as a list
    element (both list loops): one stream on every profile, the value
    back on every profile, and never longer than before compact ints."""
    def stream(profile, item):
        writer = ObjectWriter(profile=profile)
        writer.write_root(Pair(item, [item]))
        return writer.getvalue()

    profiles = (MODERN_PROFILE, MODERN_NO_PLANS, LEGACY_PROFILE)
    streams = {stream(profile, value) for profile in profiles}
    assert len(streams) == 1
    (encoded,) = streams
    for profile in profiles:
        decoded = ObjectReader(encoded, profile=profile).read_root()
        assert decoded.first == value and decoded.second == [value]
        assert type(decoded.first) is (bool if type(value) is bool else int)
    # Both places hold None (one byte) in the stream without the value.
    size = (len(encoded) - len(stream(MODERN_PROFILE, None))) // 2 + 1
    assert size <= _version_5_size(value)
    if type(value) is not bool and 0 <= value < INT3_LIMIT:
        assert size == (2 if value < INT2_LIMIT else 3)


@pytest.mark.parametrize("value", _INT_EDGES, ids=repr)
def test_int_edges_encode_alike_and_no_longer(value):
    _check_int(value)


@settings(max_examples=100)
@given(st.integers(-(2**70), 2**70) | st.integers(-1, INT3_LIMIT + 1))
def test_ints_encode_alike_and_no_longer(value):
    _check_int(value)


def test_list_loop_reads_compact_ints_inline(monkeypatch):
    """A list holding both compact forms and the varint one decodes its
    ints in the list loop; only the list and the big int reach ``_step``."""
    values = [5, INT2_LIMIT - 1, 20_000, INT3_LIMIT - 1, -7, INT3_LIMIT, 2**70]
    writer = ObjectWriter()
    writer.write_root(values)
    stepped = []
    real_step = ObjectReader._step

    def spy(self, stack):
        stepped.append(self._buf.peek_u8())
        return real_step(self, stack)

    monkeypatch.setattr(ObjectReader, "_step", spy)
    assert ObjectReader(writer.getvalue()).read_root() == values
    assert stepped == [Tag.LIST, Tag.INT_BIG]
