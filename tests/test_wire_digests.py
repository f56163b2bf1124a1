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
        "bb85fd215391f114f27f624dfe1d23752c1345b68f3fc6d84bbd7f86558feabc",
        "780333bcf17d5396ac3c81f06104ca7d127a8a9c489efe43368705ab628c30ac",
    ),
    ("modern", "full", 1): (
        "1f661d52f404cca0b26b2277bed3e59c5fed73ac81103abcac53fc6ce5bd2f7f",
        "4a6c3022a0ae93f385b1ccf1509167e8ab8e2f362a653b9b4533b5e5caf935fc",
    ),
    ("modern", "full", 2): (
        "a37db50b8b84c06185fdea5885dccfb7d70e28b854b336d15d136e1ca947b2de",
        "919f790e8a0e83043c7021d93b1d01c454b0dc76fd56ae3d434ac95416b42d01",
    ),
    ("modern", "full", 3): (
        "90164c1bedc5e524d31e09fee556fd7ea2a3abddbdca6a4966e95fc73e2f8aa3",
        "4fc806d14546738b39ce0b4663c0e7d3572f141fa650f29e97be133e3b841645",
    ),
    ("modern", "full", 4): (
        "6e5c199d808726141200d3fff3926efa419d289bcdb17a6c68023896a6a313c6",
        "40d9a1aa58ac9f0a148cd6c9cc1a67f41821322bb77d83dcf0c9b831406425f8",
    ),
    ("modern", "full", 5): (
        "e923b156df22bb70abba7ca014a2b6b4b89686a25f16b9689d6b085ff4cfffc6",
        "dee1e7af29a2fe4d53480e0f65eda1db74ec916a23ce1dc7fb78b2d41d44c076",
    ),
    ("modern", "full", 6): (
        "f86d9e9d3e14471282d9e6aa9acc5eb9c0eda731e51ffe2b5a552e2171fbb85d",
        "8554cf02d0381acfcb9242e07732f002164823c96a6d9b4c04a57c2addcba8b3",
    ),
    ("modern", "full", 7): (
        "48c0ae62cfa803a9cf59ae4b99de1f7c3ac5e130866d9060787e5f455053d328",
        "f91fb9a6b509fcebce5c5eacb3e012bc59b00268fb17dcd37a57d7a2824400ce",
    ),
    ("modern", "full", 8): (
        "d802cac156569a54a0bd3318741b8f59d48b5caa366c0c69cd67c338aa86ae04",
        "ca67b9339165864eb37b0ae31ef63d5cd82c66b8fb0ad09577b43fa5d09ec0dd",
    ),
    ("modern", "full", 9): (
        "18dad3dcfa472d8d1885bb22bc4cdcc2fde5df8c413e55d96b056b7dfad8ab01",
        "9fc0f62e536f01ff173cb6d81d7d1b780c2286ad92ab4979681e9882b6153ca6",
    ),
    ("modern", "full", 10): (
        "518aee010685bf903b15e8e5254dfad3c1537ea87665a995574b9436e1bc3e6e",
        "7c732f2936a9fbf791fdf1a5a0f0bb36715cf726b99cbbcea4911f72dda37a76",
    ),
    ("modern", "full", 11): (
        "91998f68049cafa4fdbc938701245fdf96a623d1a01aa3573e9c47a81ac37222",
        "eaaf86d6dc906727c60f46cc95dd0b7bf47acf8ad580333bde5799774773064a",
    ),
    ("modern", "delta", 0): (
        "905a35cf3963d9780ee256f043d79114de8e722023fc98f75e0588bd9794d491",
        "4dc69c4e31caf396610b6bd47bc2f2030e6dbe09cfcd2b14f14ff05fc0a43d42",
    ),
    ("modern", "delta", 1): (
        "66eaa588b6d6a783133f1499ad5010ec2d87b5fe66ce9e54bff027fef9781aa5",
        "7bbfece6194e4cae4b850d3e4a9a4bc60fdd508c54f2a66735b076ec6c0b9e12",
    ),
    ("modern", "delta", 2): (
        "3f4bd0a5b50a75df1909201c95440679a799735e4cd74679db57786c4d3e46f9",
        "74e544688ebd6ef2e9c7d97d8c4d32a8c1491b8efb27f5ef523cfda56ba76221",
    ),
    ("modern", "delta", 3): (
        "543e7bfcdbdc15e8da02d7519a7ffbcbc7cafd12e7519f3aec89c1744e76e4ce",
        "c9571e3c28f4f1329fbedc6fa68eb1321aa6c06cfb4c6d47f50abf74f3a73585",
    ),
    ("modern", "delta", 4): (
        "17eaffbe6657c76c6f2e0f8a888024ea1afceec2aad79a90053b74fd548482b3",
        "b38e8cf80765c082254109a39ca9763a4f134c13d8652328d149392508d2228a",
    ),
    ("modern", "delta", 5): (
        "e4b3daf0fb04fefe9b925b1c0530232af95ff2ce21e00b6ac49743a37e53ed4a",
        "559f12267f3526ea06ec490bc410dac5668f1d64b73b8fbe71cc861a26876dc3",
    ),
    ("modern", "delta", 6): (
        "0c272ae6bafdfb16bbde2e50328c77330b08a827ba4c5f638048feecf3e7818f",
        "302c47093dbee6e0d09a789649f9a87d32aa6a88a4ac765b5f0da641e98f86fc",
    ),
    ("modern", "delta", 7): (
        "78c6fd2fb0f94eeadcfbf7ce821b9c03fec6a903ca170838766a388cea73e9da",
        "c7882073e9a7cd783ff7413a31456e2ea40249d1599ed580a9b7e43811b66566",
    ),
    ("modern", "delta", 8): (
        "d8d890e7cc918923b857c19ad4e92d4a760622e008cd83686b338206a48296ee",
        "5924d9d1b66e91e45c9e3da029c70af8b15bcd55238a78a13918264afae1e3f5",
    ),
    ("modern", "delta", 9): (
        "870804bab08dd72e0977962304b4896a14f9d94c85d231b27ba925a0af5f3dff",
        "8b3a365736d8cb748d187d74e18616ed0a5a4a5fc7da294828b20edc1449a4c0",
    ),
    ("modern", "delta", 10): (
        "a9c0a904d5823e76366042d8687f6283b6b68740b86cd69239e53a63991c017e",
        "0daa615a35c0bdb9ec3672261705f3a059a5284ff4fa72b9bd5d54049bd27556",
    ),
    ("modern", "delta", 11): (
        "e3418c3eae72dff61824a1ad2180e9dbd3e58c398a99e0850f21fcd7736bb906",
        "397736b68fa6eca487c13ba87a2750c622b1883edbfda418dc4b8427fd7f62b3",
    ),
    ("modern", "dce", 0): (
        "bb85fd215391f114f27f624dfe1d23752c1345b68f3fc6d84bbd7f86558feabc",
        "780333bcf17d5396ac3c81f06104ca7d127a8a9c489efe43368705ab628c30ac",
    ),
    ("modern", "dce", 1): (
        "1f661d52f404cca0b26b2277bed3e59c5fed73ac81103abcac53fc6ce5bd2f7f",
        "ac3c12e0a05c48d79bdcdc96f12948d519bd0e130a58f42b4f7299e378e78c48",
    ),
    ("modern", "dce", 2): (
        "a37db50b8b84c06185fdea5885dccfb7d70e28b854b336d15d136e1ca947b2de",
        "4d98f258b76c9654905a07228102223babae0919b2ac3e096538e8df2dd4bbd9",
    ),
    ("modern", "dce", 3): (
        "90164c1bedc5e524d31e09fee556fd7ea2a3abddbdca6a4966e95fc73e2f8aa3",
        "767b6b02a612318c73f3727bbfa7315985c188a0a2d10f0da995754e19c46a4d",
    ),
    ("modern", "dce", 4): (
        "6e5c199d808726141200d3fff3926efa419d289bcdb17a6c68023896a6a313c6",
        "09621adece0fc7d84d0a0d3b760f51441d43a0046cdd85a512d3cd21e451a4fd",
    ),
    ("modern", "dce", 5): (
        "e923b156df22bb70abba7ca014a2b6b4b89686a25f16b9689d6b085ff4cfffc6",
        "7c4e650840934edaa4d3bec5c952acd48545d314886bb0dc24b5ac94da5c3b10",
    ),
    ("modern", "dce", 6): (
        "f86d9e9d3e14471282d9e6aa9acc5eb9c0eda731e51ffe2b5a552e2171fbb85d",
        "98330e4a2cbea0ae483d1268ecfca6bb210a059ae4459893d2f18049e01eb1bf",
    ),
    ("modern", "dce", 7): (
        "48c0ae62cfa803a9cf59ae4b99de1f7c3ac5e130866d9060787e5f455053d328",
        "5f52dc55f413d716eb2ea448e0d1341dc3eb1f1b46be912cdbca82744bed31bc",
    ),
    ("modern", "dce", 8): (
        "d802cac156569a54a0bd3318741b8f59d48b5caa366c0c69cd67c338aa86ae04",
        "debdbe6a78807517914f49130366f0bd288a4239120fd0e1f2d652763bb06670",
    ),
    ("modern", "dce", 9): (
        "18dad3dcfa472d8d1885bb22bc4cdcc2fde5df8c413e55d96b056b7dfad8ab01",
        "ab499e7c53281edafcf9d9cf7356df3740fc0705466a9bf9d3a37b79a834e825",
    ),
    ("modern", "dce", 10): (
        "518aee010685bf903b15e8e5254dfad3c1537ea87665a995574b9436e1bc3e6e",
        "139029e2a6c507dcd1a4463977895cd049b4607ff738342a5d40515c5f0d6b6a",
    ),
    ("modern", "dce", 11): (
        "91998f68049cafa4fdbc938701245fdf96a623d1a01aa3573e9c47a81ac37222",
        "1bcfeafdd3422f697f79b5f560ee5292abb5b4c1e9fe2a1d5ee8431cbc5fcf11",
    ),
    ("legacy", "full", 0): (
        "0029c6b15c97a747e081bb5233eb13fafac4d431475597b9aed86e2d12523e25",
        "00b118a79084aa33e36d310b54554e903394256882eb4c1b15fc2fba718537f2",
    ),
    ("legacy", "full", 1): (
        "49802177b8b86eaf4b36ddae6586d648e4d1e8ed82640257dc6ed7848e2a5787",
        "a449ad365079ca7595b61ff45fd8fb7212ff57a4533b7806a6551edfa966fabf",
    ),
    ("legacy", "full", 2): (
        "956ccc3d16f8a9b30e0945c759f0297daed1f73b5c8343cb32a005509ed0c25a",
        "3b77938fe5af42fdf00f25d1d4b0f17a154e2577798af11cf975e29564ee97d1",
    ),
    ("legacy", "full", 3): (
        "ed79d0e731932c5df63d7ef85d62205ae2e5e5633c8029bad3f464d29c1b4d7f",
        "330042fe4fafd464bd04ddaba0b5101fb1880cac2b6b08061b7e6c952c719938",
    ),
    ("legacy", "full", 4): (
        "ead2a1cc77d2d6fe895228ee5c0ec9e94f15757dd2c53d9f5379016b0c22b75f",
        "e458dc5947e940422bce5b3f375d833f342f477c72b6365e966cf4bb2b96d5e7",
    ),
    ("legacy", "full", 5): (
        "adefa652e3db8be1b96c9438b56af6d8d5c1186782b6260f6c082c8abfec9f53",
        "08c4fe2c03493cf4a25226aeb1e6dbdc093b48afa6d52c4576786c5822a8044e",
    ),
    ("legacy", "full", 6): (
        "6de2cff5a010d60f5a35744827ad3c586e756f32f268d86ab682aea17fc284e0",
        "03fc2433d7900adf6abf8258ae0bc1b2f435860fb9a86ed5859abde587b5c6e8",
    ),
    ("legacy", "full", 7): (
        "72e1575c0ac5f63ba79c89cb63a280a6f982d7d7b737c8314af8e09cbc25d7db",
        "4c8f6557c6825d812c5939d1acaf875ad53ab7eef31231f843aa3500084551b1",
    ),
    ("legacy", "full", 8): (
        "b1e6a8419b48500751285a5f028d2fcb792eb1780fec6bccbcf8c0e2e7830e90",
        "58e1b45823615c4036282a871993d3493e99c0d0f91db0b0dcbe8c1b4456588c",
    ),
    ("legacy", "full", 9): (
        "76169476c59135caeab48bc7b7accea119b5bce03741416360819490e1e17dcf",
        "eb37ff3c7d7e2fd543a2343b603d79274278c122607e539559e2b6cf3e797187",
    ),
    ("legacy", "full", 10): (
        "2dffcafa344097274153f36565e5804ec894f1d08e7b589cb42a12b1d7ec8fab",
        "df107e79979014b0e915c5070d6506de0572380b7616f20a11e1689c2a1f8db5",
    ),
    ("legacy", "full", 11): (
        "dee7fee346b14a22fea1e68334ad1fdabbb31f12a70489eb720103c6b5b688a4",
        "a6629588547af6f404c3f25b683b271704b058acf8b1b013508abaeef880a569",
    ),
    ("legacy", "delta", 0): (
        "502851a58fb116047ea369dc8f0ec850bcaad2e4299f1d21f4ae21e29b97ca58",
        "7db8a81fd3e4238509619d22a4490941ea3e07f4846a66ceadeaaaa4e766e9a9",
    ),
    ("legacy", "delta", 1): (
        "b49541fbccba6a66626fb74f4125c32f6b26645a2fa920ffb5d3d810e764af0b",
        "899e31eb05a27cda893bba91bef0e58e3029a5217c2d52785bbd60dfee53b911",
    ),
    ("legacy", "delta", 2): (
        "7a60d9f75764e62357d3bd4575e77b09a248444ebf45d223d4141970c5bc1843",
        "c8f20d11d0c0c77ab00803ce99c260ca01cc1fea97df70a58b6124775af0d2e2",
    ),
    ("legacy", "delta", 3): (
        "07c766141655e59b5ab4e7a6393430442f941ef9b421974bb1490130d3d786b4",
        "8f2faab953e951abb68c2adad3fbcd9adf7b8aff94ba4912eda52f3a1f568043",
    ),
    ("legacy", "delta", 4): (
        "bf96dcec7c7eb74d517a425c22b9fff1f31d538b1838220c6892d71600d3d63a",
        "d1ce1280679e5f866ff71fdf1a20d10b3b2be0f494a054e245ecdd976bf738a7",
    ),
    ("legacy", "delta", 5): (
        "7591b569e05fcd9e98b2a300eb0bee3c0df212b9892e64a7cf01bbf9472acaef",
        "9d82fd4a675fde32332ff4bda37a13e9ae718578dd5a73a02164da7f96262c2f",
    ),
    ("legacy", "delta", 6): (
        "99a7ac7497c9612ae4f3680da964768f65ad6af220f8e785ebbfb7fb5bc0f96c",
        "75a5dc03e22f4b0099f44420c05c1ff57ad4f18ce5e12e1b2d5925dad8c21cc3",
    ),
    ("legacy", "delta", 7): (
        "2fca6f46950e23b4d664577d737859cb64b435a139662c66617e3e8063800fe0",
        "8190a90650780b90ebea49090a65dc2e15d3ac2cae279d822e026f98e89f38d4",
    ),
    ("legacy", "delta", 8): (
        "0fc2ccbb779d104e24817ba6a49400e6e94bd5f7e3bfc26968211310f9019a5d",
        "8c974058334fec839e0d6fa756f1391b8101b7de9e147ee063c372e0c71811c4",
    ),
    ("legacy", "delta", 9): (
        "c883d61c442658296d53418b0f2af023d2092a2a928750713650f7bd42bfd051",
        "310b9129e0a676680f7e408cda9ee934a6e174a7e149cfd94fbf0aa38094ebee",
    ),
    ("legacy", "delta", 10): (
        "4299f30335a346e1c63f83dec7acf8e18a3f12480eb066f335b25211c976dcdc",
        "18945cb5e667082c92c90ae001a451eb54bf2f6b49361ac7d0ac0bfe8ab858c0",
    ),
    ("legacy", "delta", 11): (
        "45606177d9d5d6a77b81b73211f54d2c7064e3ef676f38902f098cbc6b9071b2",
        "397736b68fa6eca487c13ba87a2750c622b1883edbfda418dc4b8427fd7f62b3",
    ),
    ("legacy", "dce", 0): (
        "0029c6b15c97a747e081bb5233eb13fafac4d431475597b9aed86e2d12523e25",
        "00b118a79084aa33e36d310b54554e903394256882eb4c1b15fc2fba718537f2",
    ),
    ("legacy", "dce", 1): (
        "49802177b8b86eaf4b36ddae6586d648e4d1e8ed82640257dc6ed7848e2a5787",
        "286b9d471c472016315b4c20300a96d55b7c188fcc88be96e281d8074bcc82cd",
    ),
    ("legacy", "dce", 2): (
        "956ccc3d16f8a9b30e0945c759f0297daed1f73b5c8343cb32a005509ed0c25a",
        "cb0aeadeb4e2f83fe61b718cb7e557a24dc94822bd1c260fdd142237ccb0282e",
    ),
    ("legacy", "dce", 3): (
        "ed79d0e731932c5df63d7ef85d62205ae2e5e5633c8029bad3f464d29c1b4d7f",
        "49fd2492ee952ac3e4e265dedb593eda04d6a223b570d0eaf4dcbc2eb9a54129",
    ),
    ("legacy", "dce", 4): (
        "ead2a1cc77d2d6fe895228ee5c0ec9e94f15757dd2c53d9f5379016b0c22b75f",
        "72fc3bfc67e9a9d4c827059accb344dd6d2596d7261b04b45126c97af41e4f07",
    ),
    ("legacy", "dce", 5): (
        "adefa652e3db8be1b96c9438b56af6d8d5c1186782b6260f6c082c8abfec9f53",
        "bad51eac6e3e411ec89b71fc1eab1c765f5e3fc9c9e5db026490d84359306fe2",
    ),
    ("legacy", "dce", 6): (
        "6de2cff5a010d60f5a35744827ad3c586e756f32f268d86ab682aea17fc284e0",
        "2d87fc1bcc6dc4c236a24f7fa8c5b3f0897034e2ae0a73be86c0f04e4b299564",
    ),
    ("legacy", "dce", 7): (
        "72e1575c0ac5f63ba79c89cb63a280a6f982d7d7b737c8314af8e09cbc25d7db",
        "acd6da73268bfb85a272df3dc8c90e1a00697055a4943b19686b8607fc5fe591",
    ),
    ("legacy", "dce", 8): (
        "b1e6a8419b48500751285a5f028d2fcb792eb1780fec6bccbcf8c0e2e7830e90",
        "be60704a9ef29014299ce61bc1adb191049993986cbdf43cd453e219a5cbbefb",
    ),
    ("legacy", "dce", 9): (
        "76169476c59135caeab48bc7b7accea119b5bce03741416360819490e1e17dcf",
        "bca00a0a0a79e6e825088060b3e02a691ca84f95b26496260d65e9586f169bd4",
    ),
    ("legacy", "dce", 10): (
        "2dffcafa344097274153f36565e5804ec894f1d08e7b589cb42a12b1d7ec8fab",
        "dd8fe464b7746381f93ee97c1deb8f85bea12b29fba147359c657c3ad228adc3",
    ),
    ("legacy", "dce", 11): (
        "dee7fee346b14a22fea1e68334ad1fdabbb31f12a70489eb720103c6b5b688a4",
        "6a18173fb3282bdd8d75f7456398aa1c01072eafefaa416451b4416bf02ecc55",
    ),
}

#: (policy, seed) → the schema-on second call's (request, reply) sha256.
SCHEMA_DIGESTS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("full", 0): (
        "4e3f82ab47ec7d024a6a41df99d1df2ad9fdf9f1d8a109b28bc352147e785bf4",
        "780333bcf17d5396ac3c81f06104ca7d127a8a9c489efe43368705ab628c30ac",
    ),
    ("full", 1): (
        "acbc1daea840747872bc6054fea961dc397c660383513b6cfcae3aacd667600f",
        "4a6c3022a0ae93f385b1ccf1509167e8ab8e2f362a653b9b4533b5e5caf935fc",
    ),
    ("full", 2): (
        "1a04beed2b42fa3a8ae8ba0a1366f742c42c73e3d5103ac6dd7de953e0a085ac",
        "919f790e8a0e83043c7021d93b1d01c454b0dc76fd56ae3d434ac95416b42d01",
    ),
    ("full", 3): (
        "7594132bf3a5f51a8a8ae0a1dff0ecf90df7ccbf9210049d5fbd0d10c955ea7b",
        "4fc806d14546738b39ce0b4663c0e7d3572f141fa650f29e97be133e3b841645",
    ),
    ("full", 4): (
        "036fb9d75b85b7c8911f6072e3abb1b2d84b0833624057800279e9a1fc845e0f",
        "40d9a1aa58ac9f0a148cd6c9cc1a67f41821322bb77d83dcf0c9b831406425f8",
    ),
    ("full", 5): (
        "651221492c00332c28312f87555d606115589db809472d05631c2cd2d4bc99ab",
        "dee1e7af29a2fe4d53480e0f65eda1db74ec916a23ce1dc7fb78b2d41d44c076",
    ),
    ("full", 6): (
        "f380bd22b07ccb74278dcfcfd9d4e1d0fc95dd6491121e47c77ccb87b15b41ed",
        "8554cf02d0381acfcb9242e07732f002164823c96a6d9b4c04a57c2addcba8b3",
    ),
    ("full", 7): (
        "e9e60f3e6588e10f271c0f1c0878d428b3e1178763504db217b427e22bf6f246",
        "f91fb9a6b509fcebce5c5eacb3e012bc59b00268fb17dcd37a57d7a2824400ce",
    ),
    ("full", 8): (
        "66da26286689c6a4991312af25950bc32bcb14bae4485756bef689bf723a3007",
        "ca67b9339165864eb37b0ae31ef63d5cd82c66b8fb0ad09577b43fa5d09ec0dd",
    ),
    ("full", 9): (
        "087a74886c6879145e16fe2afa58643ccc5e886f2988cee4abddeca94458fcb7",
        "9fc0f62e536f01ff173cb6d81d7d1b780c2286ad92ab4979681e9882b6153ca6",
    ),
    ("full", 10): (
        "6a8bd05e3b2ea12076f0ecc907a99f419454ec57e437c5482a9d6b6326fedd1f",
        "7c732f2936a9fbf791fdf1a5a0f0bb36715cf726b99cbbcea4911f72dda37a76",
    ),
    ("full", 11): (
        "f61827a65f9ca6732abf2be87234df25a3e7fbaee2429256fed29daa73dd7a65",
        "eaaf86d6dc906727c60f46cc95dd0b7bf47acf8ad580333bde5799774773064a",
    ),
    ("delta", 0): (
        "95a495c0c3b0d38de38af1556bbab5b6a23710def8ba97a78f84bf1bb7d59262",
        "4dc69c4e31caf396610b6bd47bc2f2030e6dbe09cfcd2b14f14ff05fc0a43d42",
    ),
    ("delta", 1): (
        "711267911b511c1b930f41183219a7a3fe0aff08b3918d0ac9e235ef0186281d",
        "7bbfece6194e4cae4b850d3e4a9a4bc60fdd508c54f2a66735b076ec6c0b9e12",
    ),
    ("delta", 2): (
        "405d319c99ef8a9a9158a9a1f18f37399c1e0fee3ec030e73b692b3970c06ade",
        "74e544688ebd6ef2e9c7d97d8c4d32a8c1491b8efb27f5ef523cfda56ba76221",
    ),
    ("delta", 3): (
        "c9c4b1198255e581efcdc8682628c782668c486b6afe5e13736968ee27ebf38d",
        "c9571e3c28f4f1329fbedc6fa68eb1321aa6c06cfb4c6d47f50abf74f3a73585",
    ),
    ("delta", 4): (
        "0f4c57db0e9291fbe419bbaf02cecfe2ddc0f06542d019a3dc2b33792fdd8787",
        "b38e8cf80765c082254109a39ca9763a4f134c13d8652328d149392508d2228a",
    ),
    ("delta", 5): (
        "00322297dcd059045a588375d5f8c5763d995afa05a3f0441034cec0c4f4f549",
        "559f12267f3526ea06ec490bc410dac5668f1d64b73b8fbe71cc861a26876dc3",
    ),
    ("delta", 6): (
        "59dfc5646422e5df609f6a3c89166a758d47539aebf889811bf816e028c73960",
        "302c47093dbee6e0d09a789649f9a87d32aa6a88a4ac765b5f0da641e98f86fc",
    ),
    ("delta", 7): (
        "36e111ba124a9828298bc205dc6574ef73e0641baa6bf07611753950999757a1",
        "c7882073e9a7cd783ff7413a31456e2ea40249d1599ed580a9b7e43811b66566",
    ),
    ("delta", 8): (
        "dff8294cfca81d7bd0af8e06edf14975b5b24fe4902ed01aef0937ecc915ad8f",
        "5924d9d1b66e91e45c9e3da029c70af8b15bcd55238a78a13918264afae1e3f5",
    ),
    ("delta", 9): (
        "bf3621b046b9bc2d9673cb5998a1873ad91eddb8964a1987586f3bcdc4411da4",
        "8b3a365736d8cb748d187d74e18616ed0a5a4a5fc7da294828b20edc1449a4c0",
    ),
    ("delta", 10): (
        "75d69b1cd9c0f7a55d0f7f7bc7c3bf4349df0418d648a3923027ba80571e770c",
        "0daa615a35c0bdb9ec3672261705f3a059a5284ff4fa72b9bd5d54049bd27556",
    ),
    ("delta", 11): (
        "af310e8aceed6ad436e399975006d8b19583ccc32d4f16de09f139ddcff7d7cd",
        "397736b68fa6eca487c13ba87a2750c622b1883edbfda418dc4b8427fd7f62b3",
    ),
    ("dce", 0): (
        "4e3f82ab47ec7d024a6a41df99d1df2ad9fdf9f1d8a109b28bc352147e785bf4",
        "780333bcf17d5396ac3c81f06104ca7d127a8a9c489efe43368705ab628c30ac",
    ),
    ("dce", 1): (
        "acbc1daea840747872bc6054fea961dc397c660383513b6cfcae3aacd667600f",
        "ac3c12e0a05c48d79bdcdc96f12948d519bd0e130a58f42b4f7299e378e78c48",
    ),
    ("dce", 2): (
        "1a04beed2b42fa3a8ae8ba0a1366f742c42c73e3d5103ac6dd7de953e0a085ac",
        "4d98f258b76c9654905a07228102223babae0919b2ac3e096538e8df2dd4bbd9",
    ),
    ("dce", 3): (
        "7594132bf3a5f51a8a8ae0a1dff0ecf90df7ccbf9210049d5fbd0d10c955ea7b",
        "767b6b02a612318c73f3727bbfa7315985c188a0a2d10f0da995754e19c46a4d",
    ),
    ("dce", 4): (
        "036fb9d75b85b7c8911f6072e3abb1b2d84b0833624057800279e9a1fc845e0f",
        "09621adece0fc7d84d0a0d3b760f51441d43a0046cdd85a512d3cd21e451a4fd",
    ),
    ("dce", 5): (
        "651221492c00332c28312f87555d606115589db809472d05631c2cd2d4bc99ab",
        "7c4e650840934edaa4d3bec5c952acd48545d314886bb0dc24b5ac94da5c3b10",
    ),
    ("dce", 6): (
        "f380bd22b07ccb74278dcfcfd9d4e1d0fc95dd6491121e47c77ccb87b15b41ed",
        "98330e4a2cbea0ae483d1268ecfca6bb210a059ae4459893d2f18049e01eb1bf",
    ),
    ("dce", 7): (
        "e9e60f3e6588e10f271c0f1c0878d428b3e1178763504db217b427e22bf6f246",
        "5f52dc55f413d716eb2ea448e0d1341dc3eb1f1b46be912cdbca82744bed31bc",
    ),
    ("dce", 8): (
        "66da26286689c6a4991312af25950bc32bcb14bae4485756bef689bf723a3007",
        "debdbe6a78807517914f49130366f0bd288a4239120fd0e1f2d652763bb06670",
    ),
    ("dce", 9): (
        "087a74886c6879145e16fe2afa58643ccc5e886f2988cee4abddeca94458fcb7",
        "ab499e7c53281edafcf9d9cf7356df3740fc0705466a9bf9d3a37b79a834e825",
    ),
    ("dce", 10): (
        "6a8bd05e3b2ea12076f0ecc907a99f419454ec57e437c5482a9d6b6326fedd1f",
        "139029e2a6c507dcd1a4463977895cd049b4607ff738342a5d40515c5f0d6b6a",
    ),
    ("dce", 11): (
        "f61827a65f9ca6732abf2be87234df25a3e7fbaee2429256fed29daa73dd7a65",
        "1bcfeafdd3422f697f79b5f560ee5292abb5b4c1e9fe2a1d5ee8431cbc5fcf11",
    ),
}


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
SHAPE_DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "4ad2a116374881d457a01ee4038b6df2954a2b14222af429038329e7a09e3563",
        "5a95a18ca7cd9a371312fb52c89054b636da0fe45ea5a5f3bf853393d428dc15",
    ),
    ("modern", "full", 1): (
        "5db2711e68741432f399a284d966a09255b07e9d8f8fbaca7fcb5c8c5990d385",
        "77cd6ec73555b60dba10739479fd7960900901a5100ee67163b225247927204e",
    ),
    ("modern", "full", 2): (
        "6120f11c25814157fc9eb08156d8c57cc8e74c4d87e40f455e2a501bd7ce29b9",
        "b53172db0256806cbfc179df22026d4f86b30320cf3ae9a546c91c944d25fe37",
    ),
    ("modern", "delta", 0): (
        "4ad2a116374881d457a01ee4038b6df2954a2b14222af429038329e7a09e3563",
        "3bbf452cf3bfa01cb53e1dfcf7d5807d2d8cf807520b8f47fd215c633e161e1f",
    ),
    ("modern", "delta", 1): (
        "5db2711e68741432f399a284d966a09255b07e9d8f8fbaca7fcb5c8c5990d385",
        "0807af29b624555e9e64f85c4c8f2945c9ea2bd1103c23a5256f7fc118e02283",
    ),
    ("modern", "delta", 2): (
        "6120f11c25814157fc9eb08156d8c57cc8e74c4d87e40f455e2a501bd7ce29b9",
        "ff8d91fb0ea55e4e215589b6db68883a86cfca8aa86fc7d0217f90bf52ecc1b7",
    ),
    ("modern", "dce", 0): (
        "4ad2a116374881d457a01ee4038b6df2954a2b14222af429038329e7a09e3563",
        "5a95a18ca7cd9a371312fb52c89054b636da0fe45ea5a5f3bf853393d428dc15",
    ),
    ("modern", "dce", 1): (
        "5db2711e68741432f399a284d966a09255b07e9d8f8fbaca7fcb5c8c5990d385",
        "77cd6ec73555b60dba10739479fd7960900901a5100ee67163b225247927204e",
    ),
    ("modern", "dce", 2): (
        "6120f11c25814157fc9eb08156d8c57cc8e74c4d87e40f455e2a501bd7ce29b9",
        "b53172db0256806cbfc179df22026d4f86b30320cf3ae9a546c91c944d25fe37",
    ),
    ("legacy", "full", 0): (
        "da2e0a54becaf7066b25fcf8c3448e32061f6e8eee61b8834b5f47b921eed687",
        "231f095bbeaa984e3190740bc022554560bdc3b2fa265ece2989a0cd148ef38a",
    ),
    ("legacy", "full", 1): (
        "cd1431ed9245652da586d33eacd4227b7055d414b332ac92d4d09ae0fcfd614a",
        "73ce4541ee8a20d147a60486fc7db76071d875b5dfa92e49cc9b1310aa8784ec",
    ),
    ("legacy", "full", 2): (
        "e94acc8e46b4b8eebc4e460827e11fe2fed98964be4f1fdbec558b2b91fb13b5",
        "0edfcad28d9a5fbba6b0eb5ad8ca3cde96cb08281000487c2a740a1fc5f7fdc1",
    ),
    ("legacy", "delta", 0): (
        "da2e0a54becaf7066b25fcf8c3448e32061f6e8eee61b8834b5f47b921eed687",
        "bc15b40d7b61912226289abfa156474082cef6549732848d30c5cbd7d44fd092",
    ),
    ("legacy", "delta", 1): (
        "cd1431ed9245652da586d33eacd4227b7055d414b332ac92d4d09ae0fcfd614a",
        "bbbc736a8fd6b057c94e18e1fd348377d01c6e090ef85f79658de42e2a597401",
    ),
    ("legacy", "delta", 2): (
        "e94acc8e46b4b8eebc4e460827e11fe2fed98964be4f1fdbec558b2b91fb13b5",
        "040302a066ce856dfc257162cc2a11d8ee4e0b252155521246db3c709ec7c6a9",
    ),
    ("legacy", "dce", 0): (
        "da2e0a54becaf7066b25fcf8c3448e32061f6e8eee61b8834b5f47b921eed687",
        "231f095bbeaa984e3190740bc022554560bdc3b2fa265ece2989a0cd148ef38a",
    ),
    ("legacy", "dce", 1): (
        "cd1431ed9245652da586d33eacd4227b7055d414b332ac92d4d09ae0fcfd614a",
        "73ce4541ee8a20d147a60486fc7db76071d875b5dfa92e49cc9b1310aa8784ec",
    ),
    ("legacy", "dce", 2): (
        "e94acc8e46b4b8eebc4e460827e11fe2fed98964be4f1fdbec558b2b91fb13b5",
        "0edfcad28d9a5fbba6b0eb5ad8ca3cde96cb08281000487c2a740a1fc5f7fdc1",
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
