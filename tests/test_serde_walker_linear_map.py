"""Graph walker and LinearMap unit tests."""

from repro.serde.linear_map import LinearMap
from repro.serde.walker import iter_children, reachable

from tests.model_helpers import Node, Pair


def count_reachable(roots):
    return sum(1 for _ in reachable(roots))


class TestIterChildren:
    def test_list_children(self):
        assert list(iter_children([1, "a", None])) == [1, "a", None]

    def test_dict_children_keys_and_values(self):
        assert list(iter_children({"k": "v"})) == ["k", "v"]

    def test_object_children(self):
        assert list(iter_children(Pair(1, 2))) == [1, 2]

    def test_primitive_has_no_children(self):
        assert list(iter_children(42)) == []
        assert list(iter_children("string")) == []

    def test_tuple_and_set_children(self):
        assert list(iter_children((1, 2))) == [1, 2]
        assert set(iter_children({3, 4})) == {3, 4}


class TestReachable:
    def test_counts_identity_objects_once(self):
        shared = [1]
        roots = [[shared, shared]]
        objects = list(reachable(roots))
        ids = [id(obj) for obj in objects]
        assert len(ids) == len(set(ids))
        assert any(obj is shared for obj in objects)

    def test_mutable_only_filters_tuples(self):
        roots = [([1, 2], (3, 4), "s")]
        mutable = list(reachable(roots, mutable_only=True))
        assert all(isinstance(obj, list) for obj in mutable)

    def test_cycle_terminates(self):
        a = Node("a")
        a.next = a
        assert count_reachable([a]) == 1

    def test_deep_chain_no_recursion_error(self):
        head = Node(0)
        current = head
        for i in range(20_000):
            current.next = Node(i + 1)
            current = current.next
        assert count_reachable([head]) == 20_001

    def test_stop_predicate_prunes(self):
        inner = Node("hidden")
        boundary = Pair(inner, None)
        root = [boundary]
        seen = list(reachable([root], stop=lambda o: isinstance(o, Pair)))
        assert any(obj is boundary for obj in seen)
        assert not any(obj is inner for obj in seen)

    def test_strings_are_values_not_heap_cells(self):
        seen = list(reachable([["abc"]]))
        assert "abc" not in seen
        assert len(seen) == 1  # just the list

    def test_preorder_deterministic(self):
        a, b = [1], [2]
        root = [a, b]
        first = [id(o) for o in reachable([root])]
        second = [id(o) for o in reachable([root])]
        assert first == second == [id(root), id(a), id(b)]


class TestLinearMap:
    def test_append_assigns_positions(self):
        lmap = LinearMap()
        a, b = [1], [2]
        assert lmap.append_new(a) == 0
        assert lmap.append_new(b) == 1

    def test_iteration_order(self):
        lmap = LinearMap()
        items = [[i] for i in range(5)]
        for item in items:
            lmap.append_new(item)
        assert [obj[0] for obj in lmap] == [0, 1, 2, 3, 4]
        assert lmap[3] == [3]

    def test_objects_property(self):
        lmap = LinearMap()
        items = [[1], [2]]
        for item in items:
            lmap.append_new(item)
        assert lmap.objects == items
