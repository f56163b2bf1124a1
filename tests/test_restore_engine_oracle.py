"""The reply path against the graph-walking oracle, on real replies.

A policy's ``parse_response`` decodes the reply into the caller's heap
and applies it; the oracle (``tests.restore_oracle``) walks a modified
graph instead — a copy of the server's own objects after the call, in
which a slot the reply does not define (a clean ``delta`` slot, an
unreachable ``dce`` one) is the caller's original. For generated caller
graphs and server mutation programs, one reply is built per case and
restored twice — by ``parse_response`` into one copy of the caller, and
by the oracle into an identically built second copy. Both callers must
end up with the same fingerprint and both restores must count the same
work, on the modern profile with the optimized accessor and on the
legacy profile with the portable one.

The graphs mix plain, ``__slots__`` and transient-field classes, a class
whose hash follows its fields, a ``__nrmi_resolve__`` class and a
``__nrmi_replace__`` class, remote stubs, old objects as dict keys and
set members, and tuples and frozensets of old objects nested in each
other; calls may pass a by-copy argument ahead of the copy-restore root.
Set and frozenset members are drawn from a pool of field-only ``Leaf``
objects: ``fingerprint`` orders set members by their own fingerprints,
which never ends on a cycle back through the set. The policies are
``full``, ``delta`` and ``dce``.

A second group cuts real replies short and checks that the caller's heap
is untouched.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.copy_restore import RestoreEngine
from repro.core.markers import Remote, Restorable, Serializable
from repro.serde.digest import digest_slots
from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.core.semantics import PassingMode, resolve_modes
from repro.core.verify import fingerprint
from repro.errors import UnmarshalError
from repro.nrmi.invocation import PreparedCall, complete_call, compute_retained, wire_order
from repro.rmi.protocol import CAP_DELTA_SLOTS, CallRequest, encode_call
from repro.rmi.remote_ref import RemoteDescriptor, RemoteStub, is_opaque_remote
from repro.serde.accessors import OPTIMIZED_ACCESSOR, PORTABLE_ACCESSOR
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import Externalizer
from repro.serde.walker import reachable
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Box, Node
from tests.restore_oracle import OracleRestoreEngine

# ------------------------------------------------------------------ classes


class Slotted(Restorable):
    """Fields in ``__slots__``; an instance may carry extra dict fields."""

    __slots__ = ("data", "link")

    def __init__(self, data=None, link=None):
        self.data = data
        self.link = link


class Cached(Restorable):
    """``cache`` never travels: the caller's value must survive restore."""

    __nrmi_transient__ = ("cache",)

    def __init__(self, data=None, link=None):
        self.data = data
        self.link = link
        self.cache = None


_CANONICAL = {}


class Token(Serializable):
    """A ``__nrmi_resolve__`` class: decodes to one canonical instance per
    name, as interned values do."""

    def __init__(self, name):
        self.name = name

    def __nrmi_resolve__(self):
        return _CANONICAL.setdefault(self.name, self)

    def __deepcopy__(self, memo):
        return self  # canonical, like an interned value


def token(name):
    return _CANONICAL.setdefault(name, Token(name))


class Swapped(Restorable):
    """A ``__nrmi_replace__`` class: a stand-in node travels instead."""

    def __init__(self, label):
        self.label = label

    def __nrmi_replace__(self):
        return Node(("swapped", self.label))


class Keyed(Restorable):
    """Its hash and equality follow its ``data`` field, so a dict keyed by
    one must be rehashed once the field is restored."""

    def __init__(self, data=None, link=None):
        self.data = data
        self.link = link

    def __hash__(self):
        return hash(("keyed", repr(self.data)))

    def __eq__(self, other):
        return type(other) is Keyed and repr(other.data) == repr(self.data)


class Leaf(Restorable):
    """An old object that sits in sets and frozensets; it links nowhere."""

    def __init__(self, data=None):
        self.data = data


class Pair(Serializable):
    """The by-copy argument."""

    def __init__(self, first=None, second=None):
        self.first = first
        self.second = second


def _stub_externalizer():
    return Externalizer(
        "test.stub",
        claims=lambda obj: isinstance(obj, RemoteStub),
        replace=lambda obj: obj.descriptor.encode(),
        resolve=lambda payload: RemoteStub(None, RemoteDescriptor.decode(payload)),
        type_based=True,
    )


EXTERNALIZERS = (_stub_externalizer(),)

# ------------------------------------------------------------------ worlds

KINDS = ("node", "slotted", "mixed", "cached", "swapped", "keyed")


def build_world(recipe):
    """The caller's side of one case: ``(args, held)`` — the call's
    arguments and every object the caller keeps a reference to."""
    objects = []
    for position, kind in enumerate(recipe["kinds"]):
        if kind == "node":
            obj = Node(position)
        elif kind == "slotted":
            obj = Slotted(position)
        elif kind == "mixed":
            obj = Slotted(position)
            obj.extra = ("mixed", position)
        elif kind == "cached":
            obj = Cached(position)
            obj.cache = ["caller-local", position]
        elif kind == "keyed":
            obj = Keyed(position)
        else:
            obj = Swapped(position)
        objects.append(obj)
    leaves = [Leaf(-position) for position in range(3)]
    linkable = [obj for obj in objects if not isinstance(obj, Swapped)]
    box = Box(list(objects))
    box.leaves = list(leaves)
    box.index = {}
    box.tags = set()
    for op, a, b in recipe["links"]:
        if not linkable:
            break
        source = linkable[a % len(linkable)]
        target = objects[b % len(objects)]
        leaf = leaves[b % len(leaves)]
        if op == "link":
            source.link = target
        elif op == "tuple":
            source.link = (target, (source, "leaf"))
        elif op == "frozenset":
            source.link = (target, frozenset({leaf, (leaf, 1)}))
        elif op == "key":
            box.index[target] = source
        elif op == "member":
            box.tags.add(leaf)
        elif op == "stub":
            source.link = RemoteStub(None, RemoteDescriptor("test://caller", b))
        else:  # token
            source.link = token(f"t{b % 3}")
    args = (box,)
    if recipe["by_copy_first"]:
        pair = Pair(objects[0], (objects[-1], leaves[0]))
        args = (pair, box)
    return args, [box, *objects, *leaves, *args]


def run_program(box, program):
    """The server method: mutate the graph reachable from *box*."""
    table = list(box.payload)
    leaves = box.leaves
    if not table:
        return None
    result = None
    for op, a, b in program:
        obj = table[a % len(table)]
        other = table[b % len(table)]
        leaf = leaves[b % len(leaves)]
        if op == "data":
            if isinstance(obj, Node) and isinstance(obj.data, tuple):
                continue  # a stand-in's label; keep it recognisable
            obj.data = b
        elif op == "link":
            setattr(obj, "link" if not isinstance(obj, Node) else "next", other)
        elif op == "new":
            fresh = Node(f"new{b}", next=other)
            table.append(fresh)
            box.payload.append(fresh)
        elif op == "wrap":
            obj.data = ((other, frozenset({leaf, (leaf,)})), other)
        elif op == "leaf":
            leaf.data = b
        elif op == "key":
            box.index[obj] = (other, b)
        elif op == "unkey":
            box.index.pop(obj, None)
        elif op == "member":
            box.tags.add(leaf)
        elif op == "unmember":
            box.tags.discard(leaf)
        elif op == "detach":
            if obj in box.payload:
                box.payload.remove(obj)
        elif op == "stub":
            obj.data = RemoteStub(None, RemoteDescriptor("test://server", b))
        elif op == "token":
            obj.data = token(f"t{b % 3}")
        else:  # ret
            result = (obj, frozenset({leaf})) if b % 2 else obj
    return result


def encode_call_args(args, profile, accessor):
    """The client half of marshalling: request bytes and the originals."""
    modes = resolve_modes(args)
    writer = ObjectWriter(profile=profile, externalizers=EXTERNALIZERS)
    for index in wire_order(modes):
        writer.write_root(args[index])
    roots = [arg for arg, mode in zip(args, modes) if mode is PassingMode.BY_COPY_RESTORE]
    return writer.getvalue(), compute_retained(writer.linear_map, roots, accessor)


def serve(policy_name, request, modes, program, profile, accessor):
    """The server half: decode (in the caller's *modes*' wire order), run
    the program, build the reply. Also returns the oracle's view of the
    call: the server's result, its retained copies and the slots the
    reply should define."""
    reader = ObjectReader(request, profile=profile, externalizers=EXTERNALIZERS)
    args = [None] * len(modes)
    for index in wire_order(modes):
        args[index] = reader.read_root()
    reader.expect_end()
    roots = [arg for arg, mode in zip(args, modes) if mode is PassingMode.BY_COPY_RESTORE]
    policy = policy_by_name("delta-slots" if policy_name == "delta" else policy_name)
    retained = compute_retained(reader.linear_map, roots, accessor)
    context = ServerRestoreContext(
        retained=retained,
        restore_roots=roots,
        profile=profile,
        accessor=accessor,
        externalizers=EXTERNALIZERS,
        stop=is_opaque_remote,
    )
    snapshot = policy.snapshot(context)
    result = run_program(args[-1], program)
    reply = policy.build_response(result, context, snapshot)
    # The slots each policy restores, worked out here on its own terms.
    if policy_name == "delta":
        defined = snapshot.dirty_indices(digest_slots(retained, accessor))
    elif policy_name == "dce":
        live = {id(obj) for obj in reachable(roots, accessor, mutable_only=True,
                                             stop=is_opaque_remote)}
        defined = [index for index, obj in enumerate(retained) if id(obj) in live]
    else:
        defined = list(range(len(retained)))
    return reply, (result, retained, defined)


def oracle_parse(server_view, originals, accessor):
    """The oracle's restore of the call *server_view* describes: the
    modified graph is the server's own objects, in which every slot the
    reply does not define stands for the caller's original and is not
    walked. The server's graph is walked as it is, not copied: a copy
    re-inserts dict entries and so merges two entries whose key's hash
    changed between their insertions, which the reply still carries."""
    result, retained, defined = server_view
    defined_set = set(defined)
    undefined = [index for index in range(len(retained)) if index not in defined_set]
    oracle = OracleRestoreEngine(accessor=accessor, opaque=is_opaque_remote)
    return oracle.restore(
        [originals[index] for index in defined + undefined],
        [retained[index] for index in defined + undefined],
        result,
        [retained[index] for index in undefined],
    )


# ------------------------------------------------------------------ strategies

index = st.integers(min_value=0, max_value=40)
recipes = st.fixed_dictionaries({
    "kinds": st.lists(st.sampled_from(KINDS), min_size=1, max_size=7),
    "links": st.lists(
        st.tuples(
            st.sampled_from(["link", "tuple", "frozenset", "key", "member", "stub", "token"]),
            index, index,
        ),
        max_size=10,
    ),
    "by_copy_first": st.booleans(),
})
programs = st.lists(
    st.tuples(
        st.sampled_from(
            ["data", "link", "new", "wrap", "leaf", "key", "unkey", "member",
             "unmember", "detach", "stub", "token", "ret"]
        ),
        index, index,
    ),
    max_size=14,
)


@pytest.mark.parametrize(
    "profile, accessor",
    [(MODERN_PROFILE, OPTIMIZED_ACCESSOR), (LEGACY_PROFILE, PORTABLE_ACCESSOR)],
    ids=["optimized", "portable"],
)
@settings(max_examples=60, deadline=None)
@given(recipe=recipes, program=programs, policy_name=st.sampled_from(["full", "delta", "dce"]))
def test_engine_matches_the_graph_walk(profile, accessor, recipe, program, policy_name):
    args, held_a = build_world(recipe)
    request, originals_a = encode_call_args(args, profile, accessor)
    # The oracle's caller is a copy taken before the call, its originals
    # the copies of the reply caller's, position by position.
    held_b, originals_b = copy.deepcopy((held_a, originals_a))
    reply, server_view = serve(
        policy_name, request, resolve_modes(args), program, profile, accessor
    )

    policy = policy_by_name("delta-slots" if policy_name == "delta" else policy_name)
    context = ClientRestoreContext(
        originals=originals_a,
        profile=profile,
        engine=RestoreEngine(accessor=accessor),
        externalizers=EXTERNALIZERS,
    )
    result_a, stats_a = policy.parse_response(reply, context)
    result_b, stats_b = oracle_parse(server_view, originals_b, accessor)

    assert repr(stats_a) == repr(stats_b)
    assert fingerprint(held_a + [result_a], opaque=is_opaque_remote) == fingerprint(
        held_b + [result_b], opaque=is_opaque_remote
    )
    for obj in held_a:
        if isinstance(obj, Cached):
            assert obj.cache[0] == "caller-local"


# ------------------------------------------------------------- cut replies


class Mutator(Remote):
    def touch(self, box):
        box.payload[0].data = "touched"
        box.payload.append(Node("fresh", next=box.payload[1]))
        box.index[box.payload[2]] = (box.payload[1], frozenset({box.payload[0]}))
        box.payload[1] = None
        return box.payload[-1]


def make_box():
    nodes = [Node(i) for i in range(5)]
    nodes[3].next = nodes[4]
    box = Box(nodes)
    box.index = {nodes[0]: "zero"}
    box.alias = nodes[3]
    return box


@pytest.mark.parametrize("policy_name", ["full", "delta", "dce"])
def test_cut_reply_leaves_the_caller_untouched(endpoint_pair, policy_name):
    descriptor = endpoint_pair.serve(Mutator()).descriptor
    box = make_box()
    before = fingerprint([box, box.alias])
    writer = ObjectWriter()
    writer.write_root(box)
    frame = encode_call(
        CallRequest(
            object_id=descriptor.object_id,
            method="touch",
            policy=policy_name,
            profile="modern",
            modes=(PassingMode.BY_COPY_RESTORE,),
            args_payload=writer.getvalue(),
            caps=CAP_DELTA_SLOTS,
        )
    )
    originals = compute_retained(writer.linear_map, [box], endpoint_pair.client.accessor)
    prepared = PreparedCall(frame, originals, descriptor, "touch")
    reply = endpoint_pair.server.dispatcher.handle(frame)

    # Byte 0 is the status and byte 1 the applied policy; every cut after
    # them leaves a restore payload that ends early.
    cuts = sorted(set(range(2, len(reply), max(1, len(reply) // 40))) | {len(reply) - 1})
    for cut in cuts:
        with pytest.raises(UnmarshalError):
            complete_call(endpoint_pair.client, prepared, reply[:cut])
        assert fingerprint([box, box.alias]) == before, f"cut at {cut} of {len(reply)}"

    # The whole reply still restores: the cuts were what failed.
    result = complete_call(endpoint_pair.client, prepared, reply)
    assert box.payload[0].data == "touched"
    assert result is box.payload[-1]
