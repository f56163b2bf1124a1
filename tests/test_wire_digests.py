"""Golden wire digests: the bytes of a call"s request and reply bodies.

Every case is one call on a 64-node scenario-III tree, taken apart the
way the server"s ``handle_call`` runs it: the caller marshals the
arguments (the *request body*), the server unmarshals them — with the
fused state capture when the policy is ``delta`` — computes the retained
set, runs the method and builds the reply (the *reply body*, what follows
the applied-policy byte). ``full`` and ``dce`` cases call
``TreeService.mutate``; ``delta`` cases call ``mutate_sparse`` at 5 %
and answer with a delta-slots reply. Streams carry inline class
descriptors (no session schema cache), except in the schema-on table:
there a modern caller makes two calls over one schema cache pair and the
second call is pinned, so the request's layout definitions hold schema
references rather than class names.

A third table pins the shapes trees never reach, on both profiles and
all three policies: a by-copy argument ahead of the copy-restore root in
the call (the stream carries it after the root), a
retained list, dict and set, dict keys and set members whose hash
follows their fields (and changes in the call), a transient field and a
``__slots__`` class (``shapes_world``). Its sets hold only int-hashed
members, so their order, and the bytes, do not depend on the process.

The tables pin a SHA-256 of both bodies per case. A change that moves
any byte of either fails here; a change of the wire format on purpose
regenerates the tables with ``python -m tests.test_wire_digests`` and
says so. The caller"s restored state is checked against a local call as
well, so a table regenerated over a broken encoder cannot pass.
``python -m tests.test_wire_digests --dump DIR`` writes every case's
bodies to files instead (:func:`dump_bodies`), to compare two revisions
byte by byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Dict, Optional, Tuple

import pytest

from repro.bench.mutators import TreeService
from repro.bench.trees import generate_workload
from repro.core.copy_restore import RestoreEngine
from repro.core.markers import Restorable, Serializable
from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.core.semantics import PassingMode, resolve_modes
from repro.core.verify import fingerprint
from repro.nrmi.invocation import compute_retained, compute_retained_indexed, wire_order
from repro.rmi.remote_ref import is_opaque_remote
from repro.serde.accessors import accessor_by_name
from repro.serde.profiles import profile_by_name
from repro.serde.reader import ObjectReader
from repro.serde.schema import (
    STREAM_FLAG_SCHEMA_CACHE,
    GlobalSchemaTable,
    SchemaRxCache,
    SchemaTxCache,
)
from repro.serde.writer import ObjectWriter
from repro.util.rng import DeterministicRandom

SCENARIO = "III"
NODES = 64
SPARSE_FRACTION = 0.05
SEEDS = range(12)
SHAPE_SEEDS = range(3)
POLICIES = ("full", "delta", "dce")
#: Profile → the implementation (accessor) an endpoint pairs it with.
PROFILES = {"modern": "optimized", "legacy": "portable"}


def _call(args, run, policy_name, profile_name, schema=None):
    """One call of *run* on *args*, taken apart as the server runs it:
    ``(request body, reply body, the caller's result)``. *schema* is a
    connection's ``(SchemaTxCache, SchemaRxCache)`` pair; the definitions
    the request carried count as confirmed once the server decoded it."""
    schema_tx, schema_rx = schema or (None, None)
    profile = profile_by_name(profile_name)
    accessor = accessor_by_name(PROFILES[profile_name])
    delta = policy_name == "delta"
    modes = resolve_modes(args)
    order = wire_order(modes)

    writer = ObjectWriter(profile=profile, schema_tx=schema_tx)
    for index in order:
        writer.write_root(args[index])
    request = writer.getvalue()
    roots = [arg for arg, mode in zip(args, modes) if mode is PassingMode.BY_COPY_RESTORE]
    originals = compute_retained(writer.linear_map, roots, accessor)

    reader = ObjectReader(
        request, profile=profile, digest_accessor=accessor if delta else None,
        schema_rx=schema_rx,
    )
    server_args = [None] * len(args)
    for index in order:
        server_args[index] = reader.read_root()
    reader.expect_end()
    for entry in writer.schemas_defined:
        entry.confirmed = True
    server_roots = [
        arg for arg, mode in zip(server_args, modes) if mode is PassingMode.BY_COPY_RESTORE
    ]
    retained, indices = compute_retained_indexed(reader.linear_map, server_roots, accessor)
    policy = policy_by_name("delta-slots" if delta else policy_name)
    context = ServerRestoreContext(
        retained=retained, restore_roots=server_roots, profile=profile,
        accessor=accessor, stop=is_opaque_remote,
        predigested=reader.digest_table(indices) if delta else None,
    )
    snapshot = policy.snapshot(context)
    result = run(*server_args)
    reply = policy.build_response(result, context, snapshot)

    client = ClientRestoreContext(
        originals=originals, profile=profile, engine=RestoreEngine(accessor=accessor),
    )
    restored, _stats = policy.parse_response(reply, client)
    return request, reply, restored


def call_bodies(
    seed: int, policy_name: str, profile_name: str, schema: Optional[tuple] = None
) -> Tuple[bytes, bytes]:
    """One tree call"s (request body, reply body); asserts the caller ends
    up where a local call leaves it."""
    delta = policy_name == "delta"

    def arguments(tree):
        if delta:
            return (tree.root, seed, SPARSE_FRACTION)
        return (SCENARIO, tree.root, seed)

    method = "mutate_sparse" if delta else "mutate"
    tree = generate_workload(SCENARIO, NODES, seed)
    request, reply, restored = _call(
        arguments(tree), getattr(TreeService(), method), policy_name, profile_name, schema
    )
    local = generate_workload(SCENARIO, NODES, seed)
    expected = getattr(TreeService(), method)(*arguments(local))
    assert (restored, tree.visible_data()) == (expected, local.visible_data())
    return request, reply


# ------------------------------------------------------------------ shapes


class Keyed(Restorable):
    """Hash and equality follow ``rank``, an int (so a set of these has
    one order in every process)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def __hash__(self) -> int:
        return hash(self.rank)

    def __eq__(self, other: object) -> bool:
        return type(other) is Keyed and other.rank == self.rank


class Held(Restorable):
    """``cache`` never travels; the caller's value survives the call."""

    __nrmi_transient__ = ("cache",)

    def __init__(self, data: int) -> None:
        self.data = data
        self.cache = None


class Slotted(Restorable):
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


class Item(Restorable):
    def __init__(self, data) -> None:
        self.data = data


class Carrier(Serializable):
    """The by-copy argument: it shares objects with the copy-restore root."""

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second


def shapes_world(seed: int):
    """``(args, held)``: the call's arguments — a by-copy ``Carrier`` ahead
    of the copy-restore root — and what the caller keeps a reference to."""
    rng = DeterministicRandom(seed)
    keys = [Keyed(rank) for rank in range(4)]
    items = [Item(rng.randint(0, 99)) for _ in range(5)]
    root = Item("root")
    root.items = list(items)
    root.table = {key: items[index] for index, key in enumerate(keys)}
    root.ranks = {keys[0], keys[1], 7, 8}
    root.held = Held(seed)
    root.held.cache = ["caller-local", seed]
    root.point = Slotted(seed, -seed)
    args = (Carrier(items[0], keys[0]), root)
    return args, [args, keys, items]


def shapes_program(carrier, root):
    """Change a key's hash while it sits in the dict and the set, grow the
    list, dict and set, and touch the transient holder and the slots."""
    key = carrier.second
    key.rank += 10
    root.items.append(Item("new"))
    root.items[1].data = "changed"
    root.table[Keyed(100)] = root.items[-1]
    root.ranks.discard(7)
    root.ranks.add(Keyed(50))
    root.held.data += 1
    root.point.x += 1
    return root.items[1]


def shapes_call_bodies(seed: int, policy_name: str, profile_name: str) -> Tuple[bytes, bytes]:
    """One shapes call"s (request body, reply body); asserts the caller
    ends up where a local call leaves it."""
    args, held = shapes_world(seed)
    request, reply, restored = _call(args, shapes_program, policy_name, profile_name)
    local_args, local_held = shapes_world(seed)
    expected = shapes_program(*local_args)
    assert fingerprint([restored, held]) == fingerprint([expected, local_held])
    root = args[1]
    assert root.held.cache == ["caller-local", seed]
    for key in root.table:  # rehashed: every key is found under its hash
        assert root.table[key] is not None
    assert all(key in root.ranks for key in list(root.ranks))
    return request, reply


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def schema_call_bodies(seed: int, policy_name: str) -> Tuple[bytes, bytes]:
    """The second call"s bodies on a fresh schema cache pair (its own
    descriptor table, so schema ids do not depend on what else ran)."""
    schema = (SchemaTxCache(GlobalSchemaTable()), SchemaRxCache())
    call_bodies(seed, policy_name, "modern", schema)
    request, reply = call_bodies(seed, policy_name, "modern", schema)
    assert request[5] == STREAM_FLAG_SCHEMA_CACHE
    return request, reply


def _table() -> Dict[Tuple[str, str, int], Tuple[str, str]]:
    return {
        (profile, policy, seed): tuple(map(_sha, call_bodies(seed, policy, profile)))
        for profile in PROFILES
        for policy in POLICIES
        for seed in SEEDS
    }


def _shapes_table() -> Dict[Tuple[str, str, int], Tuple[str, str]]:
    return {
        (profile, policy, seed): tuple(map(_sha, shapes_call_bodies(seed, policy, profile)))
        for profile in PROFILES
        for policy in POLICIES
        for seed in SHAPE_SEEDS
    }


def _schema_table() -> Dict[Tuple[str, int], Tuple[str, str]]:
    return {
        (policy, seed): tuple(map(_sha, schema_call_bodies(seed, policy)))
        for policy in POLICIES
        for seed in SEEDS
    }


def dump_bodies(directory: str) -> int:
    """Write every case's request and reply body to *directory* as
    ``<table>-<case>.request`` and ``<table>-<case>.reply`` (tables
    ``trees``, ``shapes`` and ``schema``; a case is its profile, policy
    and seed); return the number of cases."""
    cases = []
    for profile in PROFILES:
        for policy in POLICIES:
            cases += [
                (f"trees-{profile}-{policy}-{seed}", call_bodies(seed, policy, profile))
                for seed in SEEDS
            ]
            cases += [
                (f"shapes-{profile}-{policy}-{seed}",
                 shapes_call_bodies(seed, policy, profile))
                for seed in SHAPE_SEEDS
            ]
    for policy in POLICIES:
        cases += [
            (f"schema-{policy}-{seed}", schema_call_bodies(seed, policy))
            for seed in SEEDS
        ]
    os.makedirs(directory, exist_ok=True)
    for name, bodies in cases:
        for kind, body in zip(("request", "reply"), bodies):
            with open(os.path.join(directory, f"{name}.{kind}"), "wb") as handle:
                handle.write(body)
    return len(cases)


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "7926dafb5953ea2713accd6e820e437682d2daeb2eb48ba3366269bb1fc0b57d",
        "e239b2eddf5723aa66ad4c9899bb68b0238d8b6f83612eff0b0fca49af29bdc1",
    ),
    ("modern", "full", 1): (
        "3109aae154e777afafddade8b8fff6d380217d5714bd6889135e8dc96090f244",
        "78166a63327c94bfbfc09227a27acd824b91a59155891cc05263e381d2d18bbe",
    ),
    ("modern", "full", 2): (
        "7f2c33d232e371522d3cb994ffb89a9fa4807a738ca41a29a54c398d9e3c352f",
        "0436d91edccae58daa505eb95ab8b659b0ed155d43e19d278ae80b4854cd72fd",
    ),
    ("modern", "full", 3): (
        "554be04fd7e9dffe473cf413ebe2d04022a2b71889db1ebe28e96d9fb84ec862",
        "e35b445fce81b966263bb07713084b5eefca31b39ee931d9f3af5ab7b2597db4",
    ),
    ("modern", "full", 4): (
        "7ee8a4c6bf9a5768103c6d92670ddae83de787c66fecefe798524e382c2f30a4",
        "dc8cfaacb8655574d23e4fe264efc6fb6814f9babd150bce006cc7f18fae2cf6",
    ),
    ("modern", "full", 5): (
        "036ae9d836a7c5afa4e1cc5913bec13c40ac496a5cae97af0a8d6e348d676146",
        "9ada4c4cb005e76bfb5109c2b8f967c2451656601de8b7ea143170e3791a5ea4",
    ),
    ("modern", "full", 6): (
        "d6ff0f54411ebbd170fd77225c801dd05e4d5c6867ac65ac2b2c2459cb80a099",
        "94f4eab64d8269bc6517f64072404e2133b6521bb14a0e7ad9126bc318a95afc",
    ),
    ("modern", "full", 7): (
        "2a3d0aa4a956ee3bb1227fe42bc5d188d7310d8c0119cde76b38db2da4ee1599",
        "40648bb8d13ab9e3656404dda6b267d9e1a6cee7fa6ea9ede28e42a121f96f75",
    ),
    ("modern", "full", 8): (
        "0e8daffffb25adf7e14070139b770e2bb1b2b0e4d79dca0809b3f4f3dbaa1495",
        "9458e8035b0187c4cb9fb708f8af769be14f19bd2b10f832fff2ce4f100bf99d",
    ),
    ("modern", "full", 9): (
        "0e580da2ebb62639485b49e56bf6bc6da8d10d9797b71e479f1d2aee4618b31a",
        "106504613e736c84a30c0f01706adf9e17a7091e8aa87ceac66c87cb4f474abf",
    ),
    ("modern", "full", 10): (
        "6309323606f89c8df112ba50794eed4bece1230a7137bf17817f41829ac37354",
        "d7eb6bf77fa9b9cbb9d45e7c2ff41dc279966991d82d7e9ab890a30746d15a52",
    ),
    ("modern", "full", 11): (
        "ca9f050bae01b0cd376e13999ed9f725227b9a81e8343e586f9eac1cddec3cbb",
        "01b0b4f6db6444328ce9943f6ddd0b3c21c8f13bd553fdd8bfe78ddb5cace15f",
    ),
    ("modern", "delta", 0): (
        "63eaf638df15fcf282403b3f17588c77d98bc3a5f897b0f605f1b8722eb3536b",
        "de120e6a48bba1ab0f64ca95d2958dac6c56f09d5433fef20da55d845517d1b3",
    ),
    ("modern", "delta", 1): (
        "9d144514722a7711558a47ffe60fe2c5076fc0d931c262721b14b7fe80d03143",
        "34515df75fffd61a1c332a38f79335bbf77ab6568949cfb36636cffedaac3dd2",
    ),
    ("modern", "delta", 2): (
        "b5370a75d62d2b609c1ec7b71d1babb6923db78bbb640f4b06038146342d8b6b",
        "838df38f2ca77631770c79a1f962c08481ec00608e8e07adaa3f85109e41eb59",
    ),
    ("modern", "delta", 3): (
        "db9ac5d4b8498cb605d8be25109ee3efaea0cd3eec50b32949c48c8993f26e4b",
        "cfd81b8ec0f840875d8919a1f7dbac8ba97d0ce522bd0305b8bea4d3fc7f9b9c",
    ),
    ("modern", "delta", 4): (
        "528dd6830a5c84ab7171aea79ec61674b0a19ed4a5b3b17b449cb617f4ed03b8",
        "f0c4e6e9a1ece7f874fa1996e05879432fd5acee2c89f7c4980f60efbc9e02e1",
    ),
    ("modern", "delta", 5): (
        "178fa5f373ca7debc4e44d703141a7e2d78bd46203f654faffd64c9fcede418f",
        "1eb690a95652e1b234d52785e40d2f700d73c2abc2b36c7f78477498cd3064e6",
    ),
    ("modern", "delta", 6): (
        "6a0d4e3de45e6b2461c053e038498946bd18b3a7597202f12576da00b713bfda",
        "9fc70a6f696d9cf6a4d0b3e8908534ebd3149c29bddf134deebae9bb86f9a2f5",
    ),
    ("modern", "delta", 7): (
        "b981a0cbb45b0a2fd0eb2d10879a86053f3313c85b84f30d1b0b21d79f817d78",
        "ffadba685b0ff775c114e210b6db47b373d7721288ba287b0df04559139f4dc8",
    ),
    ("modern", "delta", 8): (
        "4ede29f584b1cf99dc89046155d61adc4106a7c8ac9646a8175dbbe4f882b3e5",
        "0c841adf1fb78a9224ecc99511698c6cc816ce44f93edc8565d2f8ae5bb5ad5a",
    ),
    ("modern", "delta", 9): (
        "b52bb3aa29e35c172cc38ccdb2d08c96f42edbe68c3f3e1802bc1c491c4bcde7",
        "d21e4781f41df70dd6b32c7eec1ebb398096ebff73071c188dd7e53750d0dd3b",
    ),
    ("modern", "delta", 10): (
        "727f873a2c3a055abee0230781f11aab70d01b00ff1b886f8970386c349a7131",
        "aa417e52d46cecdcec141175ccf45c466e52391d3480fbb07c604f50d185463b",
    ),
    ("modern", "delta", 11): (
        "4c0ecde18898d372c9af7908554ff4150e60ef7d358fd3258c9b68c2c224bc7f",
        "0cb984b2a63eaf3182b43289bf6ed8229b2c40531ce8738bba59550853fb986f",
    ),
    ("modern", "dce", 0): (
        "7926dafb5953ea2713accd6e820e437682d2daeb2eb48ba3366269bb1fc0b57d",
        "e239b2eddf5723aa66ad4c9899bb68b0238d8b6f83612eff0b0fca49af29bdc1",
    ),
    ("modern", "dce", 1): (
        "3109aae154e777afafddade8b8fff6d380217d5714bd6889135e8dc96090f244",
        "d7afcf672c1528ba95b2e073864779929dd8ba06faa8e2c6474d9fc0301adcf8",
    ),
    ("modern", "dce", 2): (
        "7f2c33d232e371522d3cb994ffb89a9fa4807a738ca41a29a54c398d9e3c352f",
        "28f6ae1e76777e696801be8aad566eb4fb471005d57560cb0cb011b47621d659",
    ),
    ("modern", "dce", 3): (
        "554be04fd7e9dffe473cf413ebe2d04022a2b71889db1ebe28e96d9fb84ec862",
        "e16063984c8f20260c9bfb622d407fcc4de25b2f948e5d0078d3b28f11436698",
    ),
    ("modern", "dce", 4): (
        "7ee8a4c6bf9a5768103c6d92670ddae83de787c66fecefe798524e382c2f30a4",
        "15fe7861a4856cfbc4d570432a6be3d3d405918a52549428937451ea50fbc313",
    ),
    ("modern", "dce", 5): (
        "036ae9d836a7c5afa4e1cc5913bec13c40ac496a5cae97af0a8d6e348d676146",
        "696060d48eddcf3205d707c49cf92b5df52ae1f2600c63fe415cc8c3111999ea",
    ),
    ("modern", "dce", 6): (
        "d6ff0f54411ebbd170fd77225c801dd05e4d5c6867ac65ac2b2c2459cb80a099",
        "c964ebc02063c60b9411ef24152f6c74d4aed234f964461233c0bd90e8dca3eb",
    ),
    ("modern", "dce", 7): (
        "2a3d0aa4a956ee3bb1227fe42bc5d188d7310d8c0119cde76b38db2da4ee1599",
        "d8f9cdb6bb871a32bbe68883bc773b39c49f954324f6ed41b2d22e3888ad5e3e",
    ),
    ("modern", "dce", 8): (
        "0e8daffffb25adf7e14070139b770e2bb1b2b0e4d79dca0809b3f4f3dbaa1495",
        "8f0125bed6ccbd77b34e361d46f640b07fa8fe16701d931d58a6d05404876334",
    ),
    ("modern", "dce", 9): (
        "0e580da2ebb62639485b49e56bf6bc6da8d10d9797b71e479f1d2aee4618b31a",
        "8daec82205147cd583479417ea30f1a7535735694d9295f5131b8e29881a9f46",
    ),
    ("modern", "dce", 10): (
        "6309323606f89c8df112ba50794eed4bece1230a7137bf17817f41829ac37354",
        "579eae933ccfc50fa811aa1090e8e9cdaa8392bf7b628bf0462f143d1f3140f5",
    ),
    ("modern", "dce", 11): (
        "ca9f050bae01b0cd376e13999ed9f725227b9a81e8343e586f9eac1cddec3cbb",
        "bb4d27835fc97ed6ba71bb0931bbe59acc447f83ebc9c0a632776cfe14ee3f03",
    ),
    ("legacy", "full", 0): (
        "d612d604acfa7bfaba484aa2a35fa3bf97822e7b2a2f34d01ad38a23dd2c0b8d",
        "069af963f46bcdd06f575e25af460bac9211ecd795215b049802348dfa6f51ef",
    ),
    ("legacy", "full", 1): (
        "ae8bf61eef46c712481d1c8553c05c680115999d175af21e2e9de1e9f19fa070",
        "a2c3a5c4382991a12d32a054c38e76a6b6ef3a1d38b7ff1431ae1fc94e155c92",
    ),
    ("legacy", "full", 2): (
        "f135351ba0a4a027ad0bb3ea8f031360558208db88e522c878abbd5f439985eb",
        "acbee29d949d1cc840f6bc48ef681fcfc1d5a5be7e10cb7631fd130a186b780d",
    ),
    ("legacy", "full", 3): (
        "9f2f5c256409fa783c35753b45177e4e7d59bdf9d433961d355a60228f60e8e5",
        "80e4ab4011a3f371b4597ea86b6a2eddcab3b8dc278caa0a62cce79b15f9f0dc",
    ),
    ("legacy", "full", 4): (
        "b16f5f8bcb4f31e83ec021af676c362dde8c2f26b9e2d4bc558bc09478a5eddd",
        "bb3df615d745bfe584a3635dee2f21bed43a35fc0f809b0ee1053c7f52e800e8",
    ),
    ("legacy", "full", 5): (
        "8e04881c0338da4a302abf21b1a7c9380f307e254274b687fa2dba97bd5bb913",
        "901f78421c1d234dcd9dd4f321286951cc5506d07f3f297a4565dbd7823e9213",
    ),
    ("legacy", "full", 6): (
        "819f8c1ddf6e8717721863b235c04ceca306a7ee7c4917d30ff9650b1f3c5891",
        "5980776497fc75f307d53a3540647b76175f7d764c55962d58abfcfd2260a37c",
    ),
    ("legacy", "full", 7): (
        "2e86ab612d24db2f15ad768121164c7a8774ce31a5e1e57a3c4c2c3af2acd299",
        "d0f55ce1eb169a20f5e4d55faa3ada82d91eabe49bc0b91704cad334fec30659",
    ),
    ("legacy", "full", 8): (
        "36de2045c062347a1a726ffdcdc740bd056f75e77314005d9db0504ab33f4eec",
        "27933cdee2495ff1fa1b247e838883eedac39c2b7ddf33613356e19142863ebc",
    ),
    ("legacy", "full", 9): (
        "17e221ee6c38012562725018883d7534959bbf4aa041723b4291d5d631dcb520",
        "30af3635e77318328593a449608cba43d62aba39853055226f8eed2bf767f14a",
    ),
    ("legacy", "full", 10): (
        "b424bd3a737c0b685f8e4ce7a3b40ebfb6728e4cffc0f69d323be0f4a09b5dfc",
        "c2c442f13a49c43fe59865bb1dbaae816b344bb3d76c8c395c05126ca954f556",
    ),
    ("legacy", "full", 11): (
        "4d28a49961fa5e68491c5a89af3381ecc31067a2f1f71325dc2726d41fa9758a",
        "28814e6ea85c94a7bf8da498eb7ce40e087d707fcf476204f0441e04b305fad5",
    ),
    ("legacy", "delta", 0): (
        "6a801e6469979f52330c83b81b728046b79a6279ce9d0ee0c0fb1aa2accfe29f",
        "bd330555f4f4d25179a04d3c838e46b2cce07a3afba749d4dc02819e33db2509",
    ),
    ("legacy", "delta", 1): (
        "b41c5b08ee4ee6e80d98d69b76722e253d29fee4ea9f03d7fa5b1f936de1f58c",
        "a8a73966faee89259d8211de07b031279ef37f774857aa435d4d928112e824e0",
    ),
    ("legacy", "delta", 2): (
        "8c08f24fa371b49f42c1b844d8c22bf6b3594958429bbf0bf24e0320e31a5a73",
        "941a21e358fbb4919b4720522e09a76dd50151432da4affa8ed6f7d1441e5e95",
    ),
    ("legacy", "delta", 3): (
        "d23a97cd79c7edd7fd19be58fc8d948f60b9b18855ec4096f03c41f0ca624ec3",
        "c0089bab54fe267b533e9d12059ca485c24a495e9c9b367046339a901021c2ab",
    ),
    ("legacy", "delta", 4): (
        "486083d527d3af0dfe991e2d6258f65258ddc8864b96cc9ef3f63d923a83b2da",
        "8bacd92d17fe71fe4ebaddf553daa258df259054d3517f785fa2f3847a516b2a",
    ),
    ("legacy", "delta", 5): (
        "b221dbda60749d1f82bd6954a1dc7865d140045724da85346b20ef9da82f44d6",
        "2186c20a8207dde191a29d7e768cd9f6405d164e5ecaa0cd24a01d0959b5f44d",
    ),
    ("legacy", "delta", 6): (
        "8724d57b247176bbba72ca72d304c0701ce1652d8e2989cdd8770f8ff05a57f2",
        "49755a344e9b6ad0db74d712e795660aec0e5fc0d50f90be38cfa8414390da52",
    ),
    ("legacy", "delta", 7): (
        "d4928cdd0a0df27fd0696e083a227ac332df6a268bbf41457bb588955ede603a",
        "88ff0893fc3f82464e6e595b49e298e6736f712043acf0bf6f4427df98e3ab6b",
    ),
    ("legacy", "delta", 8): (
        "20214f3c5ba55213f4f542aa622796667801c8530e026b20ec8b6070655dcd40",
        "198da588800d59852d942a336c928b1dc89505eeb4de0c413e1e6d41b5b8991b",
    ),
    ("legacy", "delta", 9): (
        "d9bb2f6190869aea452d791d7b346bbfb2620f1b235dea6c72df09a8453d4d44",
        "ad1f62a7a7c752d377b9d43a9d5a25d30bbc36fbd860219cfab3124287947454",
    ),
    ("legacy", "delta", 10): (
        "f25c590dcf8497d4151a76c7309a8640f3dd5c9f2ace7c6677d1fa80fded7e8c",
        "06cd388ca4a315c37e38d817a39200c5c200e03cc35020fa379b13a9ec8182ed",
    ),
    ("legacy", "delta", 11): (
        "6a98c731ae46d81093f2ec805d9e017f308573ae12472fc958956a400a1a248c",
        "0cb984b2a63eaf3182b43289bf6ed8229b2c40531ce8738bba59550853fb986f",
    ),
    ("legacy", "dce", 0): (
        "d612d604acfa7bfaba484aa2a35fa3bf97822e7b2a2f34d01ad38a23dd2c0b8d",
        "069af963f46bcdd06f575e25af460bac9211ecd795215b049802348dfa6f51ef",
    ),
    ("legacy", "dce", 1): (
        "ae8bf61eef46c712481d1c8553c05c680115999d175af21e2e9de1e9f19fa070",
        "473f9746ffd605661d98b79196a9b6843d2fccc09d40f14f14004ccd5e372d15",
    ),
    ("legacy", "dce", 2): (
        "f135351ba0a4a027ad0bb3ea8f031360558208db88e522c878abbd5f439985eb",
        "a67a97124c2b27c1e593bb4bfd2bff719d59a0c9423ecd59f6f058b8dfad2d53",
    ),
    ("legacy", "dce", 3): (
        "9f2f5c256409fa783c35753b45177e4e7d59bdf9d433961d355a60228f60e8e5",
        "2021eebfbbdf097c39c0cfca834375156b1f467956710a026a17b6d3dc0102fa",
    ),
    ("legacy", "dce", 4): (
        "b16f5f8bcb4f31e83ec021af676c362dde8c2f26b9e2d4bc558bc09478a5eddd",
        "d89b2c598f6302d66b84a3ee12857185b86cdb172d9d4c08a1162684cdc0e32e",
    ),
    ("legacy", "dce", 5): (
        "8e04881c0338da4a302abf21b1a7c9380f307e254274b687fa2dba97bd5bb913",
        "3f6a0aa0d090a47404f9190cc79bc85db7442767b1278a3e6626c5b789d03c5c",
    ),
    ("legacy", "dce", 6): (
        "819f8c1ddf6e8717721863b235c04ceca306a7ee7c4917d30ff9650b1f3c5891",
        "e73441aed4f4110c92e443fea3415769f7d6105c740aa077715c47bca2b689cb",
    ),
    ("legacy", "dce", 7): (
        "2e86ab612d24db2f15ad768121164c7a8774ce31a5e1e57a3c4c2c3af2acd299",
        "95324b92ec022153faabe3ea1ebb9f7ea80721fb2519f91631f365c1d0b517b2",
    ),
    ("legacy", "dce", 8): (
        "36de2045c062347a1a726ffdcdc740bd056f75e77314005d9db0504ab33f4eec",
        "bb406cffd03c028588094ed71c8e2d8609914c71303dbf9e6faf424e62fb56da",
    ),
    ("legacy", "dce", 9): (
        "17e221ee6c38012562725018883d7534959bbf4aa041723b4291d5d631dcb520",
        "1584df517c638c8fb5c72a7046b8cfd0fef62a0a9cccc83fefe1257e4147f1a6",
    ),
    ("legacy", "dce", 10): (
        "b424bd3a737c0b685f8e4ce7a3b40ebfb6728e4cffc0f69d323be0f4a09b5dfc",
        "a5c4703e0225a4c44e8b24482ec7b8770c4778d378a7ffc38ad795b5285a4a68",
    ),
    ("legacy", "dce", 11): (
        "4d28a49961fa5e68491c5a89af3381ecc31067a2f1f71325dc2726d41fa9758a",
        "d66b834ee00c14f183820a0be1a28942fadc36c37c47635d251ecbdbc409b313",
    ),
}

#: (policy, seed) → the schema-on second call's (request, reply) sha256.
SCHEMA_DIGESTS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("full", 0): (
        "4493b31b4135befd3df89e1516d893af6ea761bf3b78fdced2e271c99c9b966c",
        "e239b2eddf5723aa66ad4c9899bb68b0238d8b6f83612eff0b0fca49af29bdc1",
    ),
    ("full", 1): (
        "eb4b1ac26428f27d0dee9f8499efb5a42454a935edd3a8f9ce53ebabd1cff677",
        "78166a63327c94bfbfc09227a27acd824b91a59155891cc05263e381d2d18bbe",
    ),
    ("full", 2): (
        "fda538bd83de03bae10dd593393cef79b68fd306441720de1c9cae9aeb1ffe41",
        "0436d91edccae58daa505eb95ab8b659b0ed155d43e19d278ae80b4854cd72fd",
    ),
    ("full", 3): (
        "cea64c60603b0c7057990ce3d8a3199fbd041e10462dabc67d87d5d9f18ef13a",
        "e35b445fce81b966263bb07713084b5eefca31b39ee931d9f3af5ab7b2597db4",
    ),
    ("full", 4): (
        "7c8fc44e3323709c0ba28d6388e5b87f147a8886328f639f477ebdfede02b268",
        "dc8cfaacb8655574d23e4fe264efc6fb6814f9babd150bce006cc7f18fae2cf6",
    ),
    ("full", 5): (
        "91f09a31333705e3c7639db07ab523beba3c329bd74dab8ef056695d04ac19d5",
        "9ada4c4cb005e76bfb5109c2b8f967c2451656601de8b7ea143170e3791a5ea4",
    ),
    ("full", 6): (
        "ab7d5521a0a34636ae76bc146c8b07cdb61ec59d448cbfffe067ba1b80b4194e",
        "94f4eab64d8269bc6517f64072404e2133b6521bb14a0e7ad9126bc318a95afc",
    ),
    ("full", 7): (
        "3d8d0fc645eb4ad6e2e08dd2b550276052b6ff759a37c7469a5bdcd0a6d4f87e",
        "40648bb8d13ab9e3656404dda6b267d9e1a6cee7fa6ea9ede28e42a121f96f75",
    ),
    ("full", 8): (
        "7cb1453e3aa6021894c5b89a4e898146695d7bba595bd7e7124f5c408045649e",
        "9458e8035b0187c4cb9fb708f8af769be14f19bd2b10f832fff2ce4f100bf99d",
    ),
    ("full", 9): (
        "2a7a5e5c6a1654a0cbd39772bac64066eb2edc509cab27afd836747651d0c069",
        "106504613e736c84a30c0f01706adf9e17a7091e8aa87ceac66c87cb4f474abf",
    ),
    ("full", 10): (
        "e19283434c5c82f4a21e9c800d0fc21ce2e682303e2b9b1d973b5de6c76d8570",
        "d7eb6bf77fa9b9cbb9d45e7c2ff41dc279966991d82d7e9ab890a30746d15a52",
    ),
    ("full", 11): (
        "6f055bc1b94765f64070fcdd1b08380504f3d8e3aef33225436611092bf5fccb",
        "01b0b4f6db6444328ce9943f6ddd0b3c21c8f13bd553fdd8bfe78ddb5cace15f",
    ),
    ("delta", 0): (
        "0b86ef44a71ca6bb820c02029c5dc09509178a3140571cd6f1d1547a6193db8b",
        "de120e6a48bba1ab0f64ca95d2958dac6c56f09d5433fef20da55d845517d1b3",
    ),
    ("delta", 1): (
        "7f65d709f6835545ffc4fbc2be988f7d0ff7dcc268e0aaffc08ebd8be2b8b8bc",
        "34515df75fffd61a1c332a38f79335bbf77ab6568949cfb36636cffedaac3dd2",
    ),
    ("delta", 2): (
        "b0b6347c8447562983a4e3ca80b2da63ed0abb2eea7a5733dce7be1b45c5994a",
        "838df38f2ca77631770c79a1f962c08481ec00608e8e07adaa3f85109e41eb59",
    ),
    ("delta", 3): (
        "d6f40fea298fe9feea74f6c4991b12d06d0121a47b79aa374482ae3e2a4defdd",
        "cfd81b8ec0f840875d8919a1f7dbac8ba97d0ce522bd0305b8bea4d3fc7f9b9c",
    ),
    ("delta", 4): (
        "f016f91554e1effec7cfe1940aa9547d49c2405d08fd1ae3d9aa10fbaddcfd91",
        "f0c4e6e9a1ece7f874fa1996e05879432fd5acee2c89f7c4980f60efbc9e02e1",
    ),
    ("delta", 5): (
        "8d3148b344a826f9e4755dbe3f7702dcbed6a05ac1551344cfa80557fe0cfbee",
        "1eb690a95652e1b234d52785e40d2f700d73c2abc2b36c7f78477498cd3064e6",
    ),
    ("delta", 6): (
        "df50ab79bb5855af115c5f7a4c8b767c9891370b3501cd479e74230b6f3a67fa",
        "9fc70a6f696d9cf6a4d0b3e8908534ebd3149c29bddf134deebae9bb86f9a2f5",
    ),
    ("delta", 7): (
        "7eebfb142a76480fe5c1d87534971f026d78a66e19905ef43c7029564a3f8ca7",
        "ffadba685b0ff775c114e210b6db47b373d7721288ba287b0df04559139f4dc8",
    ),
    ("delta", 8): (
        "cdb69b49400ee0feba3f82a45363bf0becb64c3cafa9b89289945aaafea43b74",
        "0c841adf1fb78a9224ecc99511698c6cc816ce44f93edc8565d2f8ae5bb5ad5a",
    ),
    ("delta", 9): (
        "903e8a2bd12a64ea8084c7a25a2f437b25b17927c539ef2af67e49e1e4a78b7b",
        "d21e4781f41df70dd6b32c7eec1ebb398096ebff73071c188dd7e53750d0dd3b",
    ),
    ("delta", 10): (
        "af8a705a9490910a0c7b8f4b68236166d906ea8e723b90fbce85191c80ff849c",
        "aa417e52d46cecdcec141175ccf45c466e52391d3480fbb07c604f50d185463b",
    ),
    ("delta", 11): (
        "98f68aef91de98ccc53b7db175e9546d4d73d8639e0f5a04d786a50a036c805e",
        "0cb984b2a63eaf3182b43289bf6ed8229b2c40531ce8738bba59550853fb986f",
    ),
    ("dce", 0): (
        "4493b31b4135befd3df89e1516d893af6ea761bf3b78fdced2e271c99c9b966c",
        "e239b2eddf5723aa66ad4c9899bb68b0238d8b6f83612eff0b0fca49af29bdc1",
    ),
    ("dce", 1): (
        "eb4b1ac26428f27d0dee9f8499efb5a42454a935edd3a8f9ce53ebabd1cff677",
        "d7afcf672c1528ba95b2e073864779929dd8ba06faa8e2c6474d9fc0301adcf8",
    ),
    ("dce", 2): (
        "fda538bd83de03bae10dd593393cef79b68fd306441720de1c9cae9aeb1ffe41",
        "28f6ae1e76777e696801be8aad566eb4fb471005d57560cb0cb011b47621d659",
    ),
    ("dce", 3): (
        "cea64c60603b0c7057990ce3d8a3199fbd041e10462dabc67d87d5d9f18ef13a",
        "e16063984c8f20260c9bfb622d407fcc4de25b2f948e5d0078d3b28f11436698",
    ),
    ("dce", 4): (
        "7c8fc44e3323709c0ba28d6388e5b87f147a8886328f639f477ebdfede02b268",
        "15fe7861a4856cfbc4d570432a6be3d3d405918a52549428937451ea50fbc313",
    ),
    ("dce", 5): (
        "91f09a31333705e3c7639db07ab523beba3c329bd74dab8ef056695d04ac19d5",
        "696060d48eddcf3205d707c49cf92b5df52ae1f2600c63fe415cc8c3111999ea",
    ),
    ("dce", 6): (
        "ab7d5521a0a34636ae76bc146c8b07cdb61ec59d448cbfffe067ba1b80b4194e",
        "c964ebc02063c60b9411ef24152f6c74d4aed234f964461233c0bd90e8dca3eb",
    ),
    ("dce", 7): (
        "3d8d0fc645eb4ad6e2e08dd2b550276052b6ff759a37c7469a5bdcd0a6d4f87e",
        "d8f9cdb6bb871a32bbe68883bc773b39c49f954324f6ed41b2d22e3888ad5e3e",
    ),
    ("dce", 8): (
        "7cb1453e3aa6021894c5b89a4e898146695d7bba595bd7e7124f5c408045649e",
        "8f0125bed6ccbd77b34e361d46f640b07fa8fe16701d931d58a6d05404876334",
    ),
    ("dce", 9): (
        "2a7a5e5c6a1654a0cbd39772bac64066eb2edc509cab27afd836747651d0c069",
        "8daec82205147cd583479417ea30f1a7535735694d9295f5131b8e29881a9f46",
    ),
    ("dce", 10): (
        "e19283434c5c82f4a21e9c800d0fc21ce2e682303e2b9b1d973b5de6c76d8570",
        "579eae933ccfc50fa811aa1090e8e9cdaa8392bf7b628bf0462f143d1f3140f5",
    ),
    ("dce", 11): (
        "6f055bc1b94765f64070fcdd1b08380504f3d8e3aef33225436611092bf5fccb",
        "bb4d27835fc97ed6ba71bb0931bbe59acc447f83ebc9c0a632776cfe14ee3f03",
    ),
}


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
SHAPE_DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "2f5038a555d0a1f9d86eb4d1dafb29fa1bb81ec8bf7dacfb23914b329e04f6c9",
        "63141e42f034cf9d68ba3cb7ab8bba8c095e9e985ca571021d612427e0b2828b",
    ),
    ("modern", "full", 1): (
        "b7ed1b21db9a01ecb3d68cde750bce3665636f1d287886214a24d67f2c4679e6",
        "8331189bc4ab717b55c3ac900aaefb229eec886c06c4467d33be0bd20fc1efaa",
    ),
    ("modern", "full", 2): (
        "14a685a29b8786f538981b1f0017c36f97a101d0e6eae1f8844c1f5484556c01",
        "a010c5c136f0ada54a328833ebebcc8b3caeec4396ecb5e22642a74693ef95d2",
    ),
    ("modern", "delta", 0): (
        "2f5038a555d0a1f9d86eb4d1dafb29fa1bb81ec8bf7dacfb23914b329e04f6c9",
        "7f96ba547d6dbcb7c1dc4f72fb1612f22e91f8b4661fcb7f054d24dabce3eca2",
    ),
    ("modern", "delta", 1): (
        "b7ed1b21db9a01ecb3d68cde750bce3665636f1d287886214a24d67f2c4679e6",
        "7cfe4d92bb95c6fd1075255fc807e56e2c58ff9dff72d6135d60e02dda8e657a",
    ),
    ("modern", "delta", 2): (
        "14a685a29b8786f538981b1f0017c36f97a101d0e6eae1f8844c1f5484556c01",
        "8757d0c75feba7530d5dd1f2e463fe63357a5a2d0122068d27229fbad33939f2",
    ),
    ("modern", "dce", 0): (
        "2f5038a555d0a1f9d86eb4d1dafb29fa1bb81ec8bf7dacfb23914b329e04f6c9",
        "63141e42f034cf9d68ba3cb7ab8bba8c095e9e985ca571021d612427e0b2828b",
    ),
    ("modern", "dce", 1): (
        "b7ed1b21db9a01ecb3d68cde750bce3665636f1d287886214a24d67f2c4679e6",
        "8331189bc4ab717b55c3ac900aaefb229eec886c06c4467d33be0bd20fc1efaa",
    ),
    ("modern", "dce", 2): (
        "14a685a29b8786f538981b1f0017c36f97a101d0e6eae1f8844c1f5484556c01",
        "a010c5c136f0ada54a328833ebebcc8b3caeec4396ecb5e22642a74693ef95d2",
    ),
    ("legacy", "full", 0): (
        "331431136a93d3b690108e95e1ab4e6999960b42e57ecf29c46eb8aca76c3223",
        "0c095ee90333890b96608ebec00c7d100de485574b54d6d7c88c6a0443cf3b0f",
    ),
    ("legacy", "full", 1): (
        "0b7183f19fc405331a05399e36027eb4d4fa857e057eb937c4b150f71e3bcc80",
        "28d3060cb38094564503d234af3d01c0a5b97152aa3bef079a892b2e73ef4962",
    ),
    ("legacy", "full", 2): (
        "c63bb1e518e4bbc6746b2a940a7b722a9b4a572cbd58334dd40581ef0d29e156",
        "036e9baaa3bbb41b2706cbaca1100fa18ae4fb52eef4e154ef18ebd3790b6c92",
    ),
    ("legacy", "delta", 0): (
        "331431136a93d3b690108e95e1ab4e6999960b42e57ecf29c46eb8aca76c3223",
        "65cdd989a5b9ea8bb90d63dac63b0cf49b1f29ddca9cc58bc0c96c9a67828a82",
    ),
    ("legacy", "delta", 1): (
        "0b7183f19fc405331a05399e36027eb4d4fa857e057eb937c4b150f71e3bcc80",
        "d56ff3ce64003fec48057b878d5aa2f2a219d52d3388766f26b1a3ab94d828a1",
    ),
    ("legacy", "delta", 2): (
        "c63bb1e518e4bbc6746b2a940a7b722a9b4a572cbd58334dd40581ef0d29e156",
        "349234e9f0bdce8853d9c4d207aebe66feb9b862ea2e8f3ecba0fcf4ef68cc08",
    ),
    ("legacy", "dce", 0): (
        "331431136a93d3b690108e95e1ab4e6999960b42e57ecf29c46eb8aca76c3223",
        "0c095ee90333890b96608ebec00c7d100de485574b54d6d7c88c6a0443cf3b0f",
    ),
    ("legacy", "dce", 1): (
        "0b7183f19fc405331a05399e36027eb4d4fa857e057eb937c4b150f71e3bcc80",
        "28d3060cb38094564503d234af3d01c0a5b97152aa3bef079a892b2e73ef4962",
    ),
    ("legacy", "dce", 2): (
        "c63bb1e518e4bbc6746b2a940a7b722a9b4a572cbd58334dd40581ef0d29e156",
        "036e9baaa3bbb41b2706cbaca1100fa18ae4fb52eef4e154ef18ebd3790b6c92",
    ),
}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("policy", POLICIES)
def test_call_bodies_match_golden_digests(profile, policy):
    mismatched = []
    for seed in SEEDS:
        got = tuple(map(_sha, call_bodies(seed, policy, profile)))
        want = DIGESTS[(profile, policy, seed)]
        for body, have, expected in zip(("request", "reply"), got, want):
            if have != expected:
                mismatched.append(f"seed {seed} {body}: {have[:16]}… != {expected[:16]}…")
    assert not mismatched, "wire bytes moved:\n" + "\n".join(mismatched)


def test_table_covers_every_case():
    assert set(DIGESTS) == {
        (profile, policy, seed)
        for profile in PROFILES
        for policy in POLICIES
        for seed in SEEDS
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_schema_on_call_bodies_match_golden_digests(policy):
    mismatched = []
    for seed in SEEDS:
        got = tuple(map(_sha, schema_call_bodies(seed, policy)))
        want = SCHEMA_DIGESTS[(policy, seed)]
        for body, have, expected in zip(("request", "reply"), got, want):
            if have != expected:
                mismatched.append(f"seed {seed} {body}: {have[:16]}… != {expected[:16]}…")
    assert not mismatched, "schema-on wire bytes moved:\n" + "\n".join(mismatched)


def test_schema_table_covers_every_case():
    assert set(SCHEMA_DIGESTS) == {(policy, seed) for policy in POLICIES for seed in SEEDS}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("policy", POLICIES)
def test_shape_call_bodies_match_golden_digests(profile, policy):
    mismatched = []
    for seed in SHAPE_SEEDS:
        got = tuple(map(_sha, shapes_call_bodies(seed, policy, profile)))
        want = SHAPE_DIGESTS[(profile, policy, seed)]
        for body, have, expected in zip(("request", "reply"), got, want):
            if have != expected:
                mismatched.append(f"seed {seed} {body}: {have[:16]}… != {expected[:16]}…")
    assert not mismatched, "shape wire bytes moved:\n" + "\n".join(mismatched)


def test_shape_table_covers_every_case():
    assert set(SHAPE_DIGESTS) == {
        (profile, policy, seed)
        for profile in PROFILES
        for policy in POLICIES
        for seed in SHAPE_SEEDS
    }


def test_dump_writes_the_digested_bodies(tmp_path, monkeypatch):
    """``--dump`` writes, per case, the two bodies the tables pin (seed 0
    of each table here, to keep it short)."""
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "SEEDS", range(1))
    monkeypatch.setattr(module, "SHAPE_SEEDS", range(1))
    cases = (
        [("trees", DIGESTS, case) for case in DIGESTS if case[-1] == 0]
        + [("shapes", SHAPE_DIGESTS, case) for case in SHAPE_DIGESTS if case[-1] == 0]
        + [("schema", SCHEMA_DIGESTS, case) for case in SCHEMA_DIGESTS if case[-1] == 0]
    )
    assert dump_bodies(str(tmp_path)) == len(cases)
    for table, digests, case in cases:
        name = "-".join(map(str, (table,) + case))
        bodies = [(tmp_path / f"{name}.{kind}").read_bytes() for kind in ("request", "reply")]
        assert tuple(map(_sha, bodies)) == digests[case], name


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        prog="python -m tests.test_wire_digests",
        description="Print the digest tables of the current code, or write "
        "every case's bodies to a directory.",
    )
    parser.add_argument(
        "--dump", metavar="DIR",
        help="write each case's request and reply body to DIR instead",
    )
    options = parser.parse_args()
    # The shape classes must carry this module's name, not ``__main__``'s:
    # the class names travel in the bodies.
    from tests import test_wire_digests as _module

    if options.dump:
        written = _module.dump_bodies(options.dump)
        print(f"{written} cases written to {options.dump}")
        raise SystemExit(0)
    _table, _shapes_table, _schema_table = (
        _module._table, _module._shapes_table, _module._schema_table
    )
    print("DIGESTS")
    for (profile, policy, seed), (request_sha, reply_sha) in _table().items():
        print(f'    ("{profile}", "{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
    print("SHAPE_DIGESTS")
    for (profile, policy, seed), (request_sha, reply_sha) in _shapes_table().items():
        print(f'    ("{profile}", "{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
    print("SCHEMA_DIGESTS")
    for (policy, seed), (request_sha, reply_sha) in _schema_table().items():
        print(f'    ("{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
