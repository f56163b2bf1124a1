"""Step 4: linear-map match-up validation."""

import pytest

from repro.core.matching import match_maps, match_sparse
from repro.errors import LinearMapMismatchError, RestoreError

from tests.model_helpers import Node, Pair


class TestMatchMaps:
    def test_empty_maps(self):
        table = match_maps([], [])
        assert len(table) == 0

    def test_positional_pairing(self):
        originals = [Node(1), Node(2)]
        modifieds = [Node(10), Node(20)]
        table = match_maps(originals, modifieds)
        assert table[id(modifieds[0])] is originals[0]
        assert table[id(modifieds[1])] is originals[1]

    def test_pairs_iteration(self):
        originals, modifieds = [Node(1)], [Node(9)]
        table = match_maps(originals, modifieds)
        assert list(table.items()) == [(id(modifieds[0]), originals[0])]

    def test_length_mismatch_raises(self):
        with pytest.raises(LinearMapMismatchError) as excinfo:
            match_maps([Node(1)], [Node(1), Node(2)])
        assert excinfo.value.expected == 1
        assert excinfo.value.received == 2

    def test_type_mismatch_raises(self):
        with pytest.raises(RestoreError, match="position 1"):
            match_maps([Node(1), Node(2)], [Node(1), Pair(1, 2)])

    def test_container_types_checked_exactly(self):
        with pytest.raises(RestoreError):
            match_maps([[1]], [{1: 2}])

    def test_identical_object_allowed(self):
        """A position may carry the original itself."""
        node = Node(1)
        table = match_maps([node], [node])
        assert table[id(node)] is node

    def test_mixed_kinds_align(self):
        originals = [Node(1), [1], {"k": 1}, {1}]
        modifieds = [Node(2), [2], {"k": 2}, {2}]
        table = match_maps(originals, modifieds)
        assert len(table) == 4


class TestMatchSparse:
    """Sparse replies (delta, dce) match only the transmitted positions."""

    def test_no_dirty_slots_matches_nothing(self):
        table = match_sparse([Node(1), Node(2)], [], [])
        assert len(table) == 0

    def test_subset_pairs_with_indexed_originals(self):
        originals = [Node(1), Node(2), Node(3)]
        modifieds = [Node(20), Node(30)]
        table = match_sparse(originals, [1, 2], modifieds)
        assert table[id(modifieds[0])] is originals[1]
        assert table[id(modifieds[1])] is originals[2]
        # Clean originals never enter the match.
        assert all(value is not originals[0] for value in table.values())

    def test_count_mismatch_raises(self):
        with pytest.raises(LinearMapMismatchError):
            match_sparse([Node(1), Node(2)], [0, 1], [Node(9)])

    def test_out_of_bounds_index_raises(self):
        with pytest.raises(RestoreError, match="outside retained list"):
            match_sparse([Node(1)], [1], [Node(9)])

    def test_non_increasing_indices_raise(self):
        with pytest.raises(RestoreError, match="strictly increasing"):
            match_sparse([Node(1), Node(2)], [1, 1], [Node(9), Node(8)])
        with pytest.raises(RestoreError, match="strictly increasing"):
            match_sparse([Node(1), Node(2)], [1, 0], [Node(9), Node(8)])

    def test_type_mismatch_at_dirty_position_raises(self):
        with pytest.raises(RestoreError, match="position"):
            match_sparse([Node(1), Node(2)], [1], [Pair(1, 2)])

    def test_negative_index_raises(self):
        with pytest.raises(RestoreError, match="negative"):
            match_sparse([Node(1), Node(2)], [-1, 0], [Node(9), Node(8)])

    @pytest.mark.parametrize("index", [True, 0.0, "0", None])
    def test_non_int_index_raises(self, index):
        with pytest.raises(RestoreError, match="not an int"):
            match_sparse([Node(1), Node(2)], [index], [Node(9)])
