"""Steps 4-6 at unit level: a reply decoded into the caller's heap.

Each case hand-builds the caller's originals and the server's modified
copies of them, writes the reply a ``full`` call would (slot *i* is the
server's ``modifieds[i]``, defined for the caller's ``originals[i]``),
decodes it into the originals and applies it through ``RestoreEngine``,
checking in-place overwrite, references that land on originals, new
objects, tuples and frozensets built around originals, and the
hashed-container ordering rules. Every case is also held against the
graph-walking oracle (``tests.restore_oracle``), which still walks the
hand-built modified graph.
"""

import copy

import pytest

from repro.core.copy_restore import RestoreEngine
from repro.core.markers import Restorable
from repro.core.verify import fingerprint
from repro.serde.accessors import PORTABLE_ACCESSOR
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import Externalizer, global_registry
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Box, Node, Pair, SlottedPoint
from tests.restore_oracle import OracleRestoreEngine


def _identity_externalizer(opaque):
    """Objects *opaque* claims travel as externals that resolve to the
    very object, as remote stubs keep their identity."""
    table = []

    def replace(obj):
        table.append(obj)
        return str(len(table) - 1).encode()

    return Externalizer(
        "tests.opaque", claims=opaque, replace=replace,
        resolve=lambda payload: table[int(bytes(payload))],
    )


def run_engine(engine, originals, modifieds, result=None, skip=(), opaque=None,
               profile=MODERN_PROFILE, around=None):
    """Restore through *engine* from the reply the server copies
    *modifieds* and the return value *result* make. Objects in *skip*
    are slots the reply binds without defining them, as a delta reply
    binds its clean slots; *opaque* objects travel as externals.
    *around* is a pair of callables run before encoding and before
    decoding."""
    slots = list(modifieds) + list(skip)
    externalizers = (_identity_externalizer(opaque),) if opaque is not None else ()
    if around is not None:
        around[0]()
    writer = ObjectWriter(
        profile=profile, externalizers=externalizers, slots=slots,
        defined=range(len(modifieds)),
    )
    writer.write_root(result)
    writer.write_slots()
    if around is not None:
        around[1]()
    reader = ObjectReader(
        writer.getvalue(), profile=profile, externalizers=externalizers,
        originals=list(originals) + list(skip),
    )
    converted = reader.read_root()
    reader.read_definitions()
    stats = engine.apply(
        reader.pending, reader.fills, len(reader.linear_map), len(reader.immutables)
    )
    return converted, stats


def restore(originals, modifieds, result=None, engine=None, skip=None, opaque=None,
            around=None):
    """Restore under the optimized engine on the modern profile — and,
    unless a specific *engine* is asked for, also under the portable one
    on the legacy profile and under the graph-walking oracle, each on a
    deep copy of the same inputs: all three must leave isomorphic heaps,
    return corresponding results and count the same work, on every case
    in this module. Returns what the optimized engine returned."""
    skipped = list(skip) if skip is not None else []
    if engine is not None:
        return run_engine(
            engine, originals, modifieds, result, skipped, opaque, around=around
        )
    outcomes = []
    for name, (origs, mods, res, skp) in (
        ("optimized", (originals, modifieds, result, skipped)),
        ("portable", copy.deepcopy((originals, modifieds, result, skipped))),
        ("oracle", copy.deepcopy((originals, modifieds, result, skipped))),
    ):
        if name == "oracle":
            converted, stats = OracleRestoreEngine(opaque=opaque).restore(
                origs, mods, res, skip=skp
            )
        elif name == "portable":
            converted, stats = run_engine(
                RestoreEngine(accessor=PORTABLE_ACCESSOR), origs, mods, res, skp,
                opaque, LEGACY_PROFILE, around,
            )
        else:
            converted, stats = run_engine(
                RestoreEngine(), origs, mods, res, skp, opaque, around=around
            )
        outcomes.append((converted, stats, fingerprint([origs, converted, skp])))
    (converted, stats, optimized), *others = outcomes
    for _converted, other_stats, other_fingerprint in others:
        assert other_fingerprint == optimized
        assert repr(other_stats) == repr(stats)
    return converted, stats


class TestObjectOverwrite:
    def test_field_value_overwritten_in_place(self):
        original, modified = Node(1), Node(99)
        restore([original], [modified])
        assert original.data == 99

    def test_identity_of_original_preserved(self):
        original, modified = Node(1), Node(2)
        alias = original
        restore([original], [modified])
        assert alias is original
        assert alias.data == 2

    def test_pointer_to_old_object_converted(self):
        orig_a, orig_b = Node("a"), Node("b")
        mod_a, mod_b = Node("a"), Node("b")
        mod_a.next = mod_b  # server linked a to b
        restore([orig_a, orig_b], [mod_a, mod_b])
        assert orig_a.next is orig_b  # NOT mod_b

    def test_new_field_added(self):
        original = Box(1)
        modified = Box(1)
        modified.added = "new"
        restore([original], [modified])
        assert original.added == "new"

    def test_stale_field_removed(self):
        original = Box(1)
        original.stale = "old"
        modified = Box(2)
        restore([original], [modified])
        assert not hasattr(original, "stale")
        assert original.payload == 2

    def test_stats_count_old_and_new(self):
        orig = Node(1)
        mod = Node(2, next=Node("fresh"))
        _result, stats = restore([orig], [mod])
        assert stats.old_overwritten == 1
        assert stats.new_adopted == 1


class TestNewObjects:
    def test_new_object_adopted_with_converted_pointers(self):
        orig = Node("old")
        mod = Node("old-changed")
        fresh = Node("fresh", next=mod)  # new node points at modified old
        result, _stats = restore([orig], [mod], result=fresh)
        assert result.data == "fresh"  # a new object the reply built
        assert result.next is orig  # built around the original

    def test_chain_of_new_objects(self):
        orig = Node(0)
        mod = Node(0)
        chain = Node(1, Node(2, Node(3, mod)))
        result, _ = restore([orig], [mod], result=chain)
        assert result.next.next.next is orig

    def test_result_that_is_modified_old_becomes_original(self):
        orig, mod = Node(1), Node(2)
        result, _ = restore([orig], [mod], result=mod)
        assert result is orig


class TestContainers:
    def test_list_overwritten_in_place(self):
        original, modified = [1, 2, 3], [9, 8]
        restore([original], [modified])
        assert original == [9, 8]

    def test_list_pointer_conversion(self):
        orig_node, mod_node = Node(1), Node(2)
        original, modified = [], [mod_node]
        restore([original, orig_node], [modified, mod_node])
        assert original[0] is orig_node

    def test_dict_rebuilt(self):
        original = {"a": 1}
        modified = {"b": 2, "c": 3}
        restore([original], [modified])
        assert original == {"b": 2, "c": 3}

    def test_dict_object_keys_converted(self):
        orig_key, mod_key = Node("k"), Node("k")
        original, modified = {orig_key: 1}, {mod_key: 2}
        restore([original, orig_key], [modified, mod_key])
        assert original[orig_key] == 2
        assert len(original) == 1

    def test_set_rebuilt_with_converted_members(self):
        orig_member, mod_member = Node("m"), Node("m")
        original, modified = set(), {mod_member}
        restore([original, orig_member], [modified, mod_member])
        assert orig_member in original

    def test_bytearray_overwritten(self):
        original = bytearray(b"old")
        modified = bytearray(b"newer")
        restore([original], [modified])
        assert original == bytearray(b"newer")

    def test_value_hashed_key_rehashed_after_overwrite(self):
        """Keys are inserted after field overwrites, so hashes are final."""

        class ValueHashed(Box):
            def __hash__(self):
                return hash(self.payload)

            def __eq__(self, other):
                return isinstance(other, ValueHashed) and self.payload == other.payload

        orig_key = ValueHashed("k1")
        mod_key = ValueHashed("k2")  # server changed the key's payload
        original_dict = {}
        modified_dict = {mod_key: "v"}
        restore([original_dict, orig_key], [modified_dict, mod_key])
        assert orig_key.payload == "k2"
        assert original_dict[orig_key] == "v"  # findable under the NEW hash


    def test_keys_equal_only_before_the_call_stay_distinct(self):
        """A dict keyed by two originals that compared equal before the
        call keeps both entries: it is filled after they are restored."""

        class ValueHashed(Box):
            def __hash__(self):
                return hash(self.payload)

            def __eq__(self, other):
                return isinstance(other, ValueHashed) and self.payload == other.payload

        orig_a, orig_b = ValueHashed("k"), ValueHashed("k")
        mod_a, mod_b = ValueHashed("k"), ValueHashed("k2")
        holder, modified_holder = Box(None), Box({mod_a: 1, mod_b: 2})
        restore([holder, orig_a, orig_b], [modified_holder, mod_a, mod_b])
        assert len(holder.payload) == 2
        assert holder.payload[orig_a] == 1 and holder.payload[orig_b] == 2


class TestImmutables:
    def test_tuple_rebuilt_with_converted_refs(self):
        orig, mod = Node(1), Node(2)
        original_box, modified_box = Box(None), Box((mod, "tag"))
        restore([original_box, orig], [modified_box, mod])
        assert original_box.payload[0] is orig
        assert original_box.payload[1] == "tag"

    def test_nested_tuples_converted(self):
        orig, mod = Node(1), Node(2)
        original_box, modified_box = Box(None), Box(((mod,), (mod,)))
        restore([original_box, orig], [modified_box, mod])
        assert original_box.payload[0][0] is orig
        assert original_box.payload[1][0] is orig

    def test_shared_tuple_rebuilt_once(self):
        orig, mod = Node(1), Node(2)
        shared = (mod,)
        original_box, modified_box = Box(None), Box([shared, shared])
        restore([original_box, orig], [modified_box, mod])
        assert original_box.payload[0] is original_box.payload[1]

    def test_frozenset_rebuilt(self):
        original_box, modified_box = Box(None), Box(frozenset({1, 2}))
        restore([original_box], [modified_box])
        assert original_box.payload == frozenset({1, 2})

    def test_stats_count_rebuilds(self):
        orig, mod = Node(1), Node(2)
        _result, stats = restore(
            [Box(None), orig], [Box((mod,)), mod]
        )
        assert stats.immutables_rebuilt == 1


class TestCyclesAndAliasing:
    def test_cycle_in_modified_graph(self):
        orig_a, orig_b = Node("a"), Node("b")
        mod_a, mod_b = Node("a'"), Node("b'")
        mod_a.next = mod_b
        mod_b.next = mod_a
        restore([orig_a, orig_b], [mod_a, mod_b])
        assert orig_a.next is orig_b
        assert orig_b.next is orig_a

    def test_self_loop_created_by_server(self):
        orig, mod = Node(1), Node(1)
        mod.next = mod
        restore([orig], [mod])
        assert orig.next is orig

    def test_unreachable_old_object_still_restored(self):
        """The alias1/alias2 property: detached data must be updated."""
        orig_root, orig_detached = Node("root"), Node("d")
        orig_root.next = orig_detached
        mod_root, mod_detached = Node("root'"), Node("d-changed")
        mod_root.next = None  # server detached it...
        # ...but the linear map retains it, so it still arrives.
        restore([orig_root, orig_detached], [mod_root, mod_detached])
        assert orig_root.next is None
        assert orig_detached.data == "d-changed"


class TestSkipAndOpaque:
    def test_skip_objects_not_descended(self):
        orig, mod = Node(1), Node(2)
        untouchable = Box("keep")
        mod.next = untouchable
        skip = [untouchable]
        restore([orig], [mod], skip=skip)
        assert orig.next is untouchable
        assert untouchable.payload == "keep"

    def test_opaque_predicate_blocks_rewrite(self):
        class Opaque(Box):
            pass

        orig, mod = Node(1), Node(2)
        sentinel = Opaque("s")
        mod.next = sentinel
        restore([orig], [mod], opaque=lambda o: isinstance(o, Opaque))
        assert orig.next is sentinel
        assert sentinel.payload == "s"

    def test_skip_and_opaque_together(self):
        class Opaque(Box):
            pass

        orig, mod = Node(1), Node(2)
        resolved = Box("already-original")
        sentinel = Opaque("stub")
        sentinel.behind = Node("never visited")
        mod.next = [resolved, sentinel, Node("new")]
        _result, stats = restore(
            [orig], [mod],
            skip=[resolved],
            opaque=lambda o: isinstance(o, Opaque),
        )
        assert orig.next[0] is resolved and resolved.payload == "already-original"
        assert orig.next[1] is sentinel and sentinel.behind.data == "never visited"
        # orig, the list and the new node: neither leaf is counted or entered.
        assert (stats.old_overwritten, stats.new_adopted) == (1, 2)


class Mixed(SlottedPoint):
    """A ``__slots__`` base with a ``__dict__`` on top."""


class Stateless:
    """Empty ``__slots__``: no ``__dict__`` to overwrite, no slot to read."""

    __slots__ = ()


global_registry.register(Stateless)


class Cached(Restorable):
    __nrmi_transient__ = ("cache",)
    __nrmi_version__ = 1

    def __init__(self, data=None):
        self.data = data


class Upgrading(Restorable):
    """Its upgrade hook sets the transient ``cache`` while decoding."""

    __nrmi_transient__ = ("cache",)
    __nrmi_version__ = 1

    def __init__(self, data=None):
        self.data = data

    def __nrmi_upgrade__(self, wire_version):
        self.cache = ["set-while-decoding"]


class TestRestorePlans:
    """The per-class layouts the optimized engine dispatches on."""

    def test_slotted_class_overwritten(self):
        original, modified = SlottedPoint(1, 2), SlottedPoint(9, 8)
        restore([original], [modified])
        assert (original.x, original.y) == (9, 8)

    def test_stale_slot_removed(self):
        original, modified = SlottedPoint(1, 2), SlottedPoint(9, 8)
        del modified.y  # the server unset it
        restore([original], [modified])
        assert original.x == 9
        assert not hasattr(original, "y")

    def test_unset_slot_tolerated(self):
        original, modified = SlottedPoint(1, 2), SlottedPoint(9, 8)
        del original.y, modified.y  # unset on both sides: nothing to drop
        del original.x  # unset here, set there: simply set
        restore([original], [modified])
        assert original.x == 9
        assert not hasattr(original, "y")

    def test_mixed_slots_and_dict(self):
        original, modified = Mixed(1, 2), Mixed(3, 4)
        original.stale = "old"
        modified.extra = Node("new")
        del modified.y
        restore([original], [modified])
        assert original.x == 3 and original.extra.data == "new"
        assert not hasattr(original, "y")
        assert not hasattr(original, "stale")

    def test_object_without_dict_or_set_slots(self):
        original, modified = Box(None), Box(Stateless())
        _result, stats = restore([original], [modified])
        assert isinstance(original.payload, Stateless)
        assert stats.new_adopted == 1

    def test_slot_pointers_converted(self):
        orig_target, mod_target = Node("t"), Node("t'")
        original, modified = SlottedPoint(None, 0), SlottedPoint(mod_target, (mod_target,))
        restore([original, orig_target], [modified, mod_target])
        assert original.x is orig_target
        assert original.y[0] is orig_target

    def test_transient_preserved_on_old_object(self):
        original, modified = Cached(1), Cached(2)
        original.cache = local = ["caller-local"]
        modified.cache = "server-junk"  # cannot arrive by wire; ignored anyway
        restore([original], [modified])
        assert original.data == 2
        assert original.cache is local

    def test_transient_preserved_on_new_object(self, monkeypatch):
        """A transient a new object got while decoding (here from its
        upgrade hook) is what it keeps: the apply never touches it. The
        oracle is left out: its graph walk has no decoding to hook."""
        original, modified = Node(1), Node(2, next=Upgrading("fresh"))
        versions = (
            lambda: monkeypatch.setattr(Upgrading, "__nrmi_version__", 1),
            lambda: monkeypatch.setattr(Upgrading, "__nrmi_version__", 2),
        )
        restore([original], [modified], engine=RestoreEngine(), around=versions)
        assert original.next.data == "fresh"
        assert original.next.cache == ["set-while-decoding"]

    def test_instance_dict_identity_preserved(self):
        original, modified = Node(1), Node(2, next=Node(3))
        fields = vars(original)
        restore([original], [modified])
        assert vars(original) is fields
        assert fields == {"data": 2, "next": original.next}

    def test_declaration_change_between_restores(self, monkeypatch):
        """Nothing about a class outlives one restore: a transient set or
        version declared between two restores governs the second."""

        def run():
            original, modified = Cached(1), Cached(2)
            original.cache, original.memo = "local-cache", "local-memo"
            restore([original], [modified])
            return original

        restored = run()
        assert restored.cache == "local-cache"
        assert not hasattr(restored, "memo")  # an ordinary stale field
        monkeypatch.setattr(Cached, "__nrmi_version__", 2)
        monkeypatch.setattr(Cached, "__nrmi_transient__", ("cache", "memo"))
        restored = run()
        assert (restored.data, restored.cache, restored.memo) == (2, "local-cache", "local-memo")


class TestEngineAccessors:
    def test_portable_engine_equivalent(self):
        engine = RestoreEngine(accessor=PORTABLE_ACCESSOR)
        orig, mod = Node(1), Node(2, next=Node("new"))
        restore([orig], [mod], engine=engine)
        assert orig.data == 2
        assert orig.next.data == "new"
