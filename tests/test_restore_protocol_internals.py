"""Unit tests for restore-protocol internals: change detection, snapshots.

Both delta policies decide "did this slot change" through
:mod:`repro.serde.digest`; these are the unit checks of that one
implementation the policies used to carry a private copy of.
"""

import pytest

from repro.errors import RestoreError
from repro.serde.accessors import OPTIMIZED_ACCESSOR
from repro.serde.digest import same_value as _values_equal
from repro.serde.digest import state_capture, state_clean
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Box, Node


def _shallow_state(obj, accessor):
    return state_capture(accessor)(obj)


def _state_changed(before, after):
    return not state_clean(before, after)


class TestValuesEqual:
    def test_identity_wins(self):
        node = Node(1)
        assert _values_equal(node, node)

    def test_distinct_objects_unequal_even_if_same_content(self):
        assert not _values_equal(Node(1), Node(1))

    def test_primitives_by_value(self):
        assert _values_equal(5, 5)
        assert _values_equal("abc", "abc")
        assert _values_equal(b"x", b"x")
        assert not _values_equal(5, 6)

    def test_type_mismatch(self):
        assert not _values_equal(1, 1.0)
        assert not _values_equal("1", 1)

    def test_bool_vs_int_distinct(self):
        assert not _values_equal(True, 1)
        assert not _values_equal(0, False)


class TestShallowState:
    """A state is ``(shape, values)``: field names (or a container
    marker) and the very objects the slot refers to."""

    def test_object_state(self):
        node = Node(7)
        names, values = _shallow_state(node, OPTIMIZED_ACCESSOR)
        assert dict(zip(names, values)) == {"data": 7, "next": None}

    def test_list_state_is_shallow(self):
        inner = Node(1)
        _, values = _shallow_state([inner, 2], OPTIMIZED_ACCESSOR)
        assert values[0] is inner
        assert values[1] == 2

    def test_dict_state(self):
        _, values = _shallow_state({"k": "v"}, OPTIMIZED_ACCESSOR)
        assert values == ("k", "v")

    def test_set_state(self):
        _, values = _shallow_state({1, 2}, OPTIMIZED_ACCESSOR)
        assert set(values) == {1, 2}

    def test_bytearray_state(self):
        _, values = _shallow_state(bytearray(b"ab"), OPTIMIZED_ACCESSOR)
        assert values == (b"ab",)

    def test_unsupported_kind_raises(self):
        with pytest.raises(RestoreError):
            _shallow_state((1, 2), OPTIMIZED_ACCESSOR)  # tuples never snapshot


class TestStateChanged:
    def snap(self, obj):
        return _shallow_state(obj, OPTIMIZED_ACCESSOR)

    def test_no_change(self):
        node = Node(1)
        before = self.snap(node)
        assert not _state_changed(before, self.snap(node))

    def test_primitive_field_change(self):
        node = Node(1)
        before = self.snap(node)
        node.data = 2
        assert _state_changed(before, self.snap(node))

    def test_reference_field_change(self):
        node = Node(1)
        before = self.snap(node)
        node.next = Node(2)
        assert _state_changed(before, self.snap(node))

    def test_reference_identity_stable_means_unchanged(self):
        child = Node("c")
        node = Node(1, next=child)
        before = self.snap(node)
        child.data = "mutated-child"  # child changed, node did NOT
        assert not _state_changed(before, self.snap(node))

    def test_list_append_detected(self):
        items = [1]
        before = self.snap(items)
        items.append(2)
        assert _state_changed(before, self.snap(items))

    def test_list_item_replacement_detected(self):
        items = [Node(1)]
        before = self.snap(items)
        items[0] = Node(1)  # equal content, new identity
        assert _state_changed(before, self.snap(items))

    def test_dict_value_change_detected(self):
        mapping = {"k": 1}
        before = self.snap(mapping)
        mapping["k"] = 2
        assert _state_changed(before, self.snap(mapping))

    def test_dict_unchanged_pairs_ok(self):
        mapping = {"k": Node(1)}
        before = self.snap(mapping)
        assert not _state_changed(before, self.snap(mapping))

    def test_field_added(self):
        box = Box(1)
        before = self.snap(box)
        box.extra = True
        assert _state_changed(before, self.snap(box))


class TestIndexCoding:
    """A definition's slot index travels as a uvarint after its tag."""

    @staticmethod
    def _stream(index):
        # Only the defined slot needs to be a real object: the others are
        # bound, never written, and never looked at by the reader.
        slots = [None] * (index + 1)
        slots[index] = Box(index)
        writer = ObjectWriter(slots=slots, defined=[index])
        writer.write_root(None)
        writer.write_slots()
        return writer.getvalue(), [None] * index + [Box("caller")]

    @pytest.mark.parametrize("index", [0, 1, 127, 128, 2**20])
    def test_roundtrip(self, index):
        payload, originals = self._stream(index)
        reader = ObjectReader(payload, originals=originals)
        reader.read_root()
        reader.read_definitions()
        [(original, scratch)] = reader.pending
        assert original is originals[index]
        assert scratch.payload == index

    def test_trailing_bytes_rejected(self):
        from repro.errors import WireFormatError

        payload, originals = self._stream(1)
        reader = ObjectReader(payload + b"\x00", originals=originals)
        reader.read_root()
        with pytest.raises(WireFormatError):
            reader.read_definitions()
