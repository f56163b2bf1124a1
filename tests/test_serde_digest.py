"""Per-slot states: the dirty/clean decision behind delta replies.

The contract under test is conservative change detection: a clean verdict
implies the slot is unchanged (never a false "clean"), while value-identical
replacements of referenced objects may come out dirty (a false "dirty" only
costs reply bytes). Everything is asked through
``before.dirty_indices(after)``; how a state is represented is not pinned.
"""

import copy
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RestoreError
from repro.serde.accessors import OPTIMIZED_ACCESSOR, PORTABLE_ACCESSOR
from repro.serde.digest import digest_slots

from tests.model_helpers import Box, Node, SlottedPoint


def dirty(slots, mutate=None, accessor=OPTIMIZED_ACCESSOR):
    """Capture, optionally mutate, capture again; return dirty indices."""
    before = digest_slots(slots, accessor)
    if mutate is not None:
        mutate()
    after = digest_slots(slots, accessor)
    return before.dirty_indices(after)


class TestCleanDetection:
    def test_untouched_slots_are_clean(self):
        node = Node(1, next=Node(2))
        slots = [node, node.next, [1, "x"], {"k": 1}, {3, 4}, bytearray(b"b")]
        assert dirty(slots) == []

    def test_value_equal_tuple_rebuild_is_clean(self):
        """Immutable containers compare by value: replacing a tuple with
        an equal one must not mark the slot dirty."""
        box = Box((1, ("two", 3.0), frozenset({4, (5, None)})))

        def rebuild():
            box.payload = (1, ("two", 3.0), frozenset({(5, None), 4}))

        assert dirty([box], rebuild) == []

    def test_equal_str_and_int_reassigned_are_clean(self):
        """A field re-assigned an equal but distinct str / int / bytes is
        not a change the caller could observe."""
        node = Node("".join(["pay", "load"]))
        items = [10**30, bytes(bytearray(b"raw"))]

        def reassign():
            node.data = "".join(["payl", "oad"])
            items[0] = 10**15 * 10**15
            items[1] = bytes(bytearray(b"raw"))

        assert dirty([node, items], reassign) == []

    def test_set_iteration_order_is_insensitive(self):
        """A set emptied and refilled with the same elements in reverse
        order iterates differently and is still clean."""
        tags = {0, 8, 16, 24}  # colliding hashes: order follows insertion
        order_before = list(tags)

        def refill():
            tags.clear()
            tags.update(reversed(order_before))

        before = digest_slots([tags], OPTIMIZED_ACCESSOR)
        refill()
        assert list(tags) != order_before  # the slow path really ran
        assert before.dirty_indices(digest_slots([tags], OPTIMIZED_ACCESSOR)) == []

    def test_nan_written_over_itself_is_clean(self):
        nan = float("nan")
        node = Node(nan)
        assert dirty([node], lambda: setattr(node, "data", nan)) == []
        assert dirty([node], lambda: setattr(node, "data", float("nan"))) == []

    @pytest.mark.parametrize("accessor", [OPTIMIZED_ACCESSOR, PORTABLE_ACCESSOR])
    def test_slotted_and_portable_objects(self, accessor):
        point = SlottedPoint(1, 2)
        node = Node(1)
        assert dirty([point, node], accessor=accessor) == []
        assert dirty(
            [point, node], lambda: setattr(point, "y", 3), accessor=accessor
        ) == [0]


class TestDirtyDetection:
    def test_attribute_change(self):
        node = Node(1)
        assert dirty([node], lambda: setattr(node, "data", 2)) == [0]

    def test_only_mutated_slot_flagged(self):
        nodes = [Node(i) for i in range(5)]
        assert dirty(nodes, lambda: setattr(nodes[3], "data", 99)) == [3]

    def test_list_dict_set_bytearray_changes(self):
        items, mapping, tags, raw = [1], {"k": 1}, {1}, bytearray(b"ab")

        def mutate():
            items.append(2)
            mapping["k"] = 2
            tags.add(2)
            raw[0] = 0

        assert dirty([items, mapping, tags, raw], mutate) == [0, 1, 2, 3]

    def test_reference_replacement_is_dirty(self):
        """A referenced mutable object compares by identity, so swapping
        in a value-equal replacement flags the slot."""
        node = Node(1, next=Node("child"))
        assert dirty([node], lambda: setattr(node, "next", Node("child"))) == [0]

    def test_primitive_type_confusions_differ(self):
        """5 vs 5.0 vs True vs 1 vs a big int: ``==`` calls some of them
        equal, a caller can tell every pair apart."""
        values = [5, 5.0, True, 1, 1.0, 1 << 70, float(1 << 70)]
        for old, new in itertools.permutations(values, 2):
            slot = [old]
            assert dirty([slot], lambda: slot.__setitem__(0, new)) == [0], (old, new)

    def test_signed_zero_and_nan_are_changes(self):
        node = Node(0.0)
        assert dirty([node], lambda: setattr(node, "data", -0.0)) == [0]
        assert dirty([node], lambda: setattr(node, "data", float("nan"))) == [0]
        assert dirty([node], lambda: setattr(node, "data", complex(0.0, -0.0))) == [0]
        assert dirty([node], lambda: setattr(node, "data", complex(0.0, 0.0))) == [0]

    def test_dict_reinserted_in_another_order_is_dirty(self):
        """Dict order is state the reply would carry, so it counts."""
        mapping = {"a": 1, "b": 2}

        def reinsert():
            mapping["a"] = mapping.pop("a")

        assert dirty([mapping], reinsert) == [0]

    def test_dict_key_swapped_for_an_equal_one_of_another_type(self):
        mapping = {1: "x"}

        def swap():
            del mapping[1]
            mapping[True] = "x"

        assert dirty([mapping], swap) == [0]

    def test_field_added_or_removed(self):
        box = Box(1)
        assert dirty([box], lambda: setattr(box, "extra", None)) == [0]
        assert dirty([box], lambda: delattr(box, "extra")) == [0]


class TestTableMechanics:
    def test_mismatched_lengths_raise(self):
        one = digest_slots([Node(1)], OPTIMIZED_ACCESSOR)
        two = digest_slots([Node(1), Node(2)], OPTIMIZED_ACCESSOR)
        with pytest.raises(RestoreError, match="different retained lists"):
            one.dirty_indices(two)

    def test_referenced_objects_are_pinned(self):
        """Identity only means "same object" while the object is alive:
        whatever a slot referred to at capture time lives as long as the
        table does, so its address cannot be handed to a new object."""
        node = Node(1, next=Node("child"))
        child = weakref.ref(node.next)
        table = digest_slots([node], OPTIMIZED_ACCESSOR)
        node.next = None
        gc.collect()
        assert child() is not None
        del table
        gc.collect()
        assert child() is None

    def test_len_is_the_slot_count(self):
        assert len(digest_slots([[1, 2, 3], []], OPTIMIZED_ACCESSOR)) == 2

    def test_unsupported_slot_raises(self):
        with pytest.raises(RestoreError, match="cannot capture"):
            digest_slots([(1, 2)], OPTIMIZED_ACCESSOR)  # tuples are never slots


# ------------------------------------------------------- property: oracle
#
# Random graph, random mutation program. The oracle never looks at the
# implementation: it deep-copies the slots before the program runs and
# afterwards compares each slot with its copy, shallowly and by position —
# a reference is unchanged iff the copy's field holds the copy of the very
# object the live field holds now.

NODES = 5
PRIMITIVES = [None, True, False, 0, 1, 1 << 70, 0.0, -0.0, 1.0, float("nan"), "a", "b"]

node_ix = st.integers(0, NODES - 1)
#: Ops that write a primitive or a reference into one field or element.
exact_op = st.one_of(
    st.tuples(st.just("write"), node_ix, st.sampled_from(PRIMITIVES)),
    st.tuples(st.just("link"), node_ix, st.one_of(st.none(), node_ix)),
    st.tuples(st.just("new"), node_ix, st.sampled_from(PRIMITIVES)),
    st.tuples(st.just("alias"), node_ix, node_ix),
    st.tuples(st.just("index"), st.sampled_from(["k0", "k1"]), node_ix),
)
#: Container edits: some leave a slot equal as a value but not in layout.
edit_op = st.one_of(
    st.tuples(st.just("append"), node_ix),
    st.tuples(st.just("pop")),
    st.tuples(st.just("reinsert"), st.sampled_from(["k0", "k1"])),
    st.tuples(st.just("refill")),
    st.tuples(st.just("rebuild")),
    st.tuples(st.just("tag"), st.integers(0, 40)),
    st.tuples(st.just("field"), node_ix),
)
shapes = st.lists(st.one_of(st.none(), node_ix), min_size=NODES, max_size=NODES)


def build_slots(shape):
    nodes = [Node(i) for i in range(NODES)]
    for node, target in zip(nodes, shape):
        node.next = None if target is None else nodes[target]
    items = [nodes[0], nodes[0], nodes[-1]]
    index = {"k0": nodes[1], "k1": nodes[1]}
    tags = {0, 8, 16}
    box = Box((nodes[2], ("x", 1.5)))
    return nodes + [items, index, tags, box]


def run_program(slots, program):
    nodes = slots[:NODES]
    items, index, tags, box = slots[NODES:]
    for op in program:
        kind = op[0]
        if kind == "write":
            nodes[op[1]].data = op[2]
        elif kind == "link":
            nodes[op[1]].next = None if op[2] is None else nodes[op[2]]
        elif kind == "new":
            nodes[op[1]].next = Node(op[2])
        elif kind == "alias":
            items[op[1] % len(items)] = nodes[op[2]]
        elif kind == "index":
            index[op[1]] = nodes[op[2]]
        elif kind == "append":
            items.append(nodes[op[1]])
        elif kind == "pop":
            if len(items) > 1:
                items.pop()
        elif kind == "reinsert":
            index[op[1]] = index.pop(op[1])
        elif kind == "refill":
            elements = list(tags)
            tags.clear()
            tags.update(reversed(elements))
        elif kind == "rebuild":
            box.payload = tuple(list(box.payload))
        elif kind == "tag":
            tags.symmetric_difference_update({op[1]})
        else:  # field
            vars(nodes[op[1]]).setdefault("extra", 0)


def oracle_changed(slots, copies, twin):
    def same(now, then):
        if type(now) is not type(then):
            return False
        if type(now) is tuple:
            return len(now) == len(then) and all(map(same, now, then))
        if isinstance(now, (Node, Box, list, dict, set)):
            return twin.get(id(now)) is then
        return repr(now) == repr(then)  # tells -0.0 from 0.0; nan is "nan"

    changed = []
    for position, (now, then) in enumerate(zip(slots, copies)):
        if isinstance(now, list):
            unchanged = len(now) == len(then) and all(map(same, now, then))
        elif isinstance(now, dict):
            unchanged = now.keys() == then.keys() and all(
                same(now[key], then[key]) for key in now
            )
        elif isinstance(now, set):
            unchanged = now == then  # ints only
        else:
            unchanged = list(vars(now)) == list(vars(then)) and all(
                map(same, vars(now).values(), vars(then).values())
            )
        if not unchanged:
            changed.append(position)
    return changed


def dirty_and_oracle(shape, program):
    slots = build_slots(shape)
    twin = {}
    copies = copy.deepcopy(slots, twin)
    before = digest_slots(slots, OPTIMIZED_ACCESSOR)
    run_program(slots, program)
    found = before.dirty_indices(digest_slots(slots, OPTIMIZED_ACCESSOR))
    return found, oracle_changed(slots, copies, twin)


@settings(max_examples=150, deadline=None)
@given(shape=shapes, program=st.lists(st.one_of(exact_op, edit_op), max_size=12))
def test_dirty_set_covers_every_changed_slot(shape, program):
    found, changed = dirty_and_oracle(shape, program)
    assert set(found) >= set(changed)


@settings(max_examples=150, deadline=None)
@given(shape=shapes, program=st.lists(exact_op, max_size=12))
def test_dirty_set_is_exact_for_primitive_and_reference_writes(shape, program):
    found, changed = dirty_and_oracle(shape, program)
    assert found == changed
