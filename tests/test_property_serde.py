"""Property-based tests: the wire format on arbitrary value shapes."""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

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
