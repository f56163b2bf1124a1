"""Aliasing and cycle preservation — what makes copy-restore possible."""

from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Node, Pair


def roundtrip(*roots):
    writer = ObjectWriter()
    for root in roots:
        writer.write_root(root)
    reader = ObjectReader(writer.getvalue())
    results = [reader.read_root() for _ in roots]
    reader.expect_end()
    return results if len(results) > 1 else results[0]


class TestSharing:
    def test_shared_list_decodes_shared(self):
        shared = [1, 2]
        result = roundtrip([shared, shared])
        assert result[0] is result[1]
        assert result[0] == [1, 2]

    def test_diamond_object_graph(self):
        leaf = Node("leaf")
        left = Node("left", leaf)
        right = Node("right", leaf)
        root = Pair(left, right)
        result = roundtrip(root)
        assert result.first.next is result.second.next
        assert result.first.next.data == "leaf"

    def test_sharing_across_roots_in_one_stream(self):
        """The cross-parameter aliasing property of Section 4.1."""
        shared = Node("shared")
        a = Node("a", shared)
        b = Node("b", shared)
        result_a, result_b = roundtrip(a, b)
        assert result_a.next is result_b.next

    def test_same_root_twice_decodes_to_one_object(self):
        """Passing the same parameter twice must NOT create two copies."""
        param = Node("once")
        first, second = roundtrip(param, param)
        assert first is second

    def test_shared_dict_value(self):
        inner = {"v": 1}
        result = roundtrip({"a": inner, "b": inner, "c": [inner]})
        assert result["a"] is result["b"]
        assert result["a"] is result["c"][0]

    def test_mutating_one_alias_affects_other_after_decode(self):
        shared = [0]
        result = roundtrip((shared, shared))
        result[0][0] = 99
        assert result[1][0] == 99


class TestCycles:
    def test_self_referencing_list(self):
        value = []
        value.append(value)
        result = roundtrip(value)
        assert result[0] is result

    def test_two_element_cycle(self):
        a, b = Node("a"), Node("b")
        a.next = b
        b.next = a
        result = roundtrip(a)
        assert result.data == "a"
        assert result.next.data == "b"
        assert result.next.next is result

    def test_self_referencing_dict(self):
        value = {}
        value["me"] = value
        result = roundtrip(value)
        assert result["me"] is result

    def test_object_pointing_to_itself(self):
        node = Node("self")
        node.next = node
        result = roundtrip(node)
        assert result.next is result

    def test_cycle_through_tuple(self):
        container = []
        knot = (container, "x")
        container.append(knot)
        result = roundtrip(container)
        assert result[0][1] == "x"
        assert result[0][0] is result

    def test_long_cycle(self):
        nodes = [Node(i) for i in range(200)]
        for i, node in enumerate(nodes):
            node.next = nodes[(i + 1) % len(nodes)]
        result = roundtrip(nodes[0])
        walker = result
        for expected in range(200):
            assert walker.data == expected
            walker = walker.next
        assert walker is result

    def test_mutual_aliasing_with_cycle(self):
        a = Node("a")
        b = Node("b", a)
        a.next = b
        holder = [a, b, a, b]
        result = roundtrip(holder)
        assert result[0] is result[2]
        assert result[1] is result[3]
        assert result[0].next is result[1]
        assert result[1].next is result[0]


class TestLinearMapAlignment:
    def test_writer_and_reader_maps_align(self):
        shared = [1]
        graph = {"x": shared, "y": [shared, {2}], "z": Node("n", shared)}
        writer = ObjectWriter()
        writer.write_root(graph)
        reader = ObjectReader(writer.getvalue())
        reader.read_root()
        assert len(writer.linear_map) == len(reader.linear_map)
        for original, copy in zip(writer.linear_map, reader.linear_map):
            assert type(original) is type(copy)

    def test_map_contains_only_mutables(self):
        writer = ObjectWriter()
        writer.write_root([1, "s", (2, 3), frozenset({4}), b"b", [5], {6: 7}])
        kinds = {type(obj) for obj in writer.linear_map}
        assert kinds == {list, dict}

    def test_map_positions_stable(self):
        writer = ObjectWriter()
        a, b = [1], [2]
        writer.write_root([a, b])
        objects = writer.linear_map.objects
        position = next(i for i, obj in enumerate(objects) if obj is a)
        assert objects[position + 1] is b
