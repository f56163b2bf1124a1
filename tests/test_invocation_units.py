"""Unit tests for invocation-pipeline pieces: retained-set computation,
pooled-buffer hygiene on failed calls, and the client's failure counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.markers import Remote, Restorable
from repro.core.semantics import PassingMode, resolve_modes
from repro.errors import SerializationError, ServerBusyError, WireFormatError
from repro.nrmi.invocation import compute_retained, compute_retained_indexed, wire_order
from repro.rmi.protocol import busy_response
from repro.serde.accessors import OPTIMIZED_ACCESSOR
from repro.serde.hooks import transient_fields
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter
from repro.transport.base import Channel

from tests.model_helpers import Box, Node


def marshal(*roots):
    writer = ObjectWriter()
    for root in roots:
        writer.write_root(root)
    return writer.linear_map


class TestComputeRetained:
    def test_no_roots_retains_nothing(self):
        linear_map = marshal(Box([1]))
        assert compute_retained(linear_map, [], OPTIMIZED_ACCESSOR) == []

    def test_single_root_retains_its_closure(self):
        box = Box([Node(1), Node(2)])
        linear_map = marshal(box)
        retained = compute_retained(linear_map, [box], OPTIMIZED_ACCESSOR)
        assert len(retained) == len(linear_map)  # everything reachable

    def test_subset_for_partial_roots(self):
        restorable = Box(Node("keep"))
        copy_only = Box(Node("skip"))
        linear_map = marshal(restorable, copy_only)
        retained = compute_retained(linear_map, [restorable], OPTIMIZED_ACCESSOR)
        kept_ids = {id(obj) for obj in retained}
        assert id(restorable) in kept_ids
        assert id(restorable.payload) in kept_ids
        assert id(copy_only) not in kept_ids
        assert id(copy_only.payload) not in kept_ids

    def test_shared_object_retained_once(self):
        shared = Node("s")
        box_a, box_b = Box(shared), Box(shared)
        linear_map = marshal(box_a, box_b)
        retained = compute_retained(
            linear_map, [box_a, box_b], OPTIMIZED_ACCESSOR
        )
        assert sum(1 for obj in retained if obj is shared) == 1

    def test_map_order_preserved(self):
        box = Box([Node(i) for i in range(5)])
        linear_map = marshal(box)
        retained = compute_retained(linear_map, [box], OPTIMIZED_ACCESSOR)
        objects = linear_map.objects
        positions = [
            next(i for i, member in enumerate(objects) if member is obj)
            for obj in retained
        ]
        assert positions == sorted(positions)

    def test_both_sides_compute_identical_subsets(self):
        """The client/server agreement the positional match rests on."""
        from repro.serde.reader import ObjectReader

        restorable = Box([Node(1), Node(2)])
        other = Box(Node(3))
        writer = ObjectWriter()
        writer.write_root(restorable)
        writer.write_root(other)
        client_retained = compute_retained(
            writer.linear_map, [restorable], OPTIMIZED_ACCESSOR
        )
        reader = ObjectReader(writer.getvalue())
        server_restorable = reader.read_root()
        reader.read_root()
        server_retained = compute_retained(
            reader.linear_map, [server_restorable], OPTIMIZED_ACCESSOR
        )
        assert len(client_retained) == len(server_retained)
        for client_obj, server_obj in zip(client_retained, server_retained):
            assert type(client_obj) is type(server_obj)

    def test_stops_at_remote_references(self, endpoint_pair):
        """Stubs are leaves: their internals never enter the retained set."""
        from repro.core.markers import Remote

        class Svc(Remote):
            pass

        endpoint_pair.server.bind("svc", Svc())
        stub = endpoint_pair.client.lookup(endpoint_pair.server.address, "svc")
        box = Box(stub)
        writer = ObjectWriter(externalizers=endpoint_pair.client.externalizers())
        writer.write_root(box)
        retained = compute_retained(writer.linear_map, [box], OPTIMIZED_ACCESSOR)
        assert [type(obj).__name__ for obj in retained] == ["Box"]

    def test_cyclic_roots(self):
        a = Node("a")
        b = Node("b", next=a)
        a.next = b
        linear_map = marshal(a)
        retained = compute_retained(linear_map, [a], OPTIMIZED_ACCESSOR)
        assert len(retained) == 2


class Memo(Restorable):
    """A restorable with a field that never travels."""

    __nrmi_transient__ = ("memo",)

    def __init__(self, data=None, memo=None):
        self.data = data
        self.memo = memo


def reference_retained(linear_map, roots):
    """The oracle: walk what the stream carried from *roots* (containers,
    instance fields minus the transient ones) and keep the linear map's
    members among it, in map order — written out here, sharing no code
    with the walker or the spans."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, str, type(None))):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        else:
            transients = transient_fields(type(obj))
            stack.extend(v for name, v in vars(obj).items() if name not in transients)
    positions = [i for i, obj in enumerate(linear_map) if id(obj) in seen]
    return [linear_map[i] for i in positions], positions


#: One argument: its shape, and which shared atoms it holds.
ARGUMENT = st.tuples(
    st.sampled_from(
        ["int", "str", "none", "list", "dict", "tuple", "box", "memo", "atom", "again"]
    ),
    st.lists(st.integers(min_value=0, max_value=5), max_size=3),
)


def build_arguments(recipe):
    """Argument tuples over six shared atoms (three lists, three chained
    nodes), so by-copy containers and copy-restore roots alias each other
    every way round: a root also held by a by-copy list, the same root
    twice, a by-copy tuple holding a list a later root holds too, a
    transient field pointing into a by-copy argument."""
    atoms = [[0], [1], [2], Node("n3"), Node("n4"), Node("n5")]
    atoms[3].next, atoms[4].next, atoms[5].next = atoms[4], atoms[0], atoms[3]
    args = []
    for shape, refs in recipe:
        held = [atoms[i] for i in refs]
        if shape == "int":
            args.append(len(refs))
        elif shape == "str":
            args.append("s" * len(refs))
        elif shape == "none":
            args.append(None)
        elif shape == "list":
            args.append(held)
        elif shape == "dict":
            args.append({f"k{i}": value for i, value in enumerate(held)})
        elif shape == "tuple":
            args.append((tuple(held), held))
        elif shape == "box":
            args.append(Box(held))
        elif shape == "memo":
            args.append(Memo(held[1:], memo=held[0] if held else None))
        elif shape == "atom":
            args.append(atoms[3 + len(refs) % 3])
        else:  # "again": whatever the previous argument was, once more
            args.append(args[-1] if args else atoms[3])
    return tuple(args)


def restore_roots(args):
    return [
        arg for arg, mode in zip(args, resolve_modes(args))
        if mode is PassingMode.BY_COPY_RESTORE
    ]


class TestRetainedSetEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ARGUMENT, min_size=1, max_size=5), st.booleans())
    def test_spans_agree_with_the_reference_walk_on_both_sides(self, recipe, ship_map):
        args = build_arguments(recipe)
        order = wire_order(resolve_modes(args))
        writer = ObjectWriter()
        for index in order:
            writer.write_root(args[index])
        if ship_map:
            writer.write_root(list(writer.linear_map.objects))

        def check(linear_map, roots):
            retained, indices = compute_retained_indexed(
                linear_map, roots, OPTIMIZED_ACCESSOR
            )
            expected, expected_indices = reference_retained(linear_map, roots)
            assert indices == expected_indices == list(range(len(indices)))
            assert len(retained) == len(expected)
            assert all(got is want for got, want in zip(retained, expected))
            return retained

        client = check(writer.linear_map, restore_roots(args))

        reader = ObjectReader(writer.getvalue())
        decoded = [None] * len(args)
        for index in order:
            decoded[index] = reader.read_root()
        decoded = tuple(decoded)
        assert resolve_modes(decoded) == resolve_modes(args)
        shipped = reader.read_root() if ship_map else None
        reader.expect_end()
        server = check(reader.linear_map, restore_roots(decoded))
        if ship_map:  # as handle_call does: the same prefix of the shipped map
            assert all(got is want for got, want in zip(shipped, server))

        assert len(client) == len(server)
        assert [type(obj) for obj in client] == [type(obj) for obj in server]

    def test_a_stream_not_in_wire_order_is_refused(self):
        """A by-copy argument that fills the map ahead of a root."""
        root = Box([Node(1)])
        linear_map = marshal([root.payload], root)
        with pytest.raises(WireFormatError):
            compute_retained_indexed(linear_map, [root], OPTIMIZED_ACCESSOR)


class Unmarshalable:
    """Not a marker subclass, not registered: marshalling it fails."""


class TestEncodeFailureBufferHygiene:
    def test_failed_marshal_returns_buffers_to_pool(self, endpoint_pair):
        """A call whose arguments fail to marshal must hand its pooled
        encode buffers back — under chaos runs injecting encode faults
        the pool would otherwise drain to nothing."""
        from repro.core.markers import Remote

        class Svc(Remote):
            def poke(self, value):
                return value

        endpoint_pair.server.bind("svc", Svc())
        service = endpoint_pair.client.lookup(
            endpoint_pair.server.address, "svc"
        )
        pool = endpoint_pair.client.buffer_pool
        service.poke(Box(1))  # warm: pooled buffers exist and recycle
        level = len(pool)
        for _ in range(pool.max_buffers * 2):
            with pytest.raises(SerializationError):
                service.poke(Unmarshalable())
            assert len(pool) >= level  # nothing leaked out of the pool
        service.poke(Box(2))  # the pipeline still works afterwards


class _Poke(Remote):
    def poke(self, value):
        return value


class _BusyChannel(Channel):
    """A server that sheds every request it is sent."""

    def request(self, payload, timeout=None):
        return busy_response()


class TestFailureCounters:
    def test_busy_reply_is_counted_without_retry(self, endpoint_pair):
        """With the default config (one attempt, no breaker) a BUSY shed
        still reaches the caller as ServerBusyError and is counted."""
        service = endpoint_pair.serve(_Poke())
        endpoint_pair.resolver.set_wrapper(
            endpoint_pair.server.address, lambda inner: _BusyChannel()
        )
        with pytest.raises(ServerBusyError):
            service.poke(Box(1))
        metrics = endpoint_pair.client.metrics
        assert metrics.counter("calls.server_busy").value == 1
        assert metrics.counter("calls.retries").value == 0
