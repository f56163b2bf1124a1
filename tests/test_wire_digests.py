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
all three policies: a by-copy argument ahead of the copy-restore root, a
retained list, dict and set, dict keys and set members whose hash
follows their fields (and changes in the call), a transient field and a
``__slots__`` class (``shapes_world``). Its sets hold only int-hashed
members, so their order, and the bytes, do not depend on the process.

The tables pin a SHA-256 of both bodies per case. A change that moves
any byte of either fails here; a change of the wire format on purpose
regenerates the tables with ``python -m tests.test_wire_digests`` and
says so. The caller"s restored state is checked against a local call as
well, so a table regenerated over a broken encoder cannot pass.
"""

from __future__ import annotations

import hashlib
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
from repro.nrmi.invocation import compute_retained, compute_retained_indexed
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

    writer = ObjectWriter(profile=profile, schema_tx=schema_tx)
    for arg in args:
        writer.write_root(arg)
    request = writer.getvalue()
    roots = [arg for arg, mode in zip(args, modes) if mode is PassingMode.BY_COPY_RESTORE]
    originals = compute_retained(writer.linear_map, roots, accessor)

    reader = ObjectReader(
        request, profile=profile, digest_accessor=accessor if delta else None,
        schema_rx=schema_rx,
    )
    server_args = [reader.read_root() for _ in args]
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


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "6df8e9e0b9a063256169d3295bda1033a59847eb054740f43430a156cf4bc09f",
        "e1906f2c37739af13ceaa269648f4597b8ba7c72a45415c13b983abaa3b360a8",
    ),
    ("modern", "full", 1): (
        "05f9f4d5f19bf157b54b7c2d159aba5064d622b7f4026b78662adfe1e2b5c11b",
        "a09056067effa7fe5996d3140b53508a4f5538b4687d2bf13cd4f0459564e92c",
    ),
    ("modern", "full", 2): (
        "20ea33f71825561ff3c3c6660dd7530c164db8d1fc49d8c6fb33179360c21e3b",
        "7b05210c7850087e4ebc432344857dbade581c0c1bb80d6b32056c72f8f3b363",
    ),
    ("modern", "full", 3): (
        "f772dd0db21f6f4234dd2437e4b3b5721c64d3fca38bacd6e3c1baffe010c7fd",
        "6d9ecd6e1290e7ac72a65763a29c5d6eb60ffd76097ff00daa1c058aa2725919",
    ),
    ("modern", "full", 4): (
        "742a71f00f37df8b292d822f8777cef63335a2c6ee5f7d695afc5f8e66516784",
        "34fec91f6c90534040dc538ed758d6a32edf249383ad2527509f4555cf719bcd",
    ),
    ("modern", "full", 5): (
        "3bc4fee745a66cad9e431abdb7a76c9fcef266da5b60b66ebc7e919f66ad82e2",
        "ef4338838c4bd6c6a7b878250ceffd2f042524db6a72a843a9cb0034bcb88c79",
    ),
    ("modern", "full", 6): (
        "4485825a64b00ef02969b885d8c4d8fe54fbb863520bd8d22d63addc4ab02588",
        "9bce0000d32312cc3ad5e54058590101b625d5aa013dc6827772297b4da771d8",
    ),
    ("modern", "full", 7): (
        "8ae77077d178f5516ea283e91288d7686c0a8b8d3fbd396a5d6845608db378a4",
        "7c6120b8365ec7d96d69ba033fecfbf6d9fc3721caa21d3abe312eb14b4ffdbc",
    ),
    ("modern", "full", 8): (
        "b8d2530b182c1beb989dd524e29dfe5ef161bfe6396d785e68d41c7843c4ae22",
        "eb6746ff6a18d104e0e6ffe939db46106161ef6df73ae459121b6e73061938ec",
    ),
    ("modern", "full", 9): (
        "a897aa46182ad2e0875e0b91425a74cb013e2a45c7f5cc33e1d6af3c2904c8d1",
        "0f15b2ed9f0bb8a5a10d7a425828446d701c218d73453c4ccc2be22ae12e1dd3",
    ),
    ("modern", "full", 10): (
        "6c7d8ac6d3587b9d4e19a6bac14a557988a52885adbe0ce3c61d8cfd466d3e61",
        "11a746b66cc40f93be12c72cec24d3d10770afc7171f93270bf370d0f0d71941",
    ),
    ("modern", "full", 11): (
        "1992badea57e1c6728c42f021c5fc22b2ed87fa7b75c28b9225f3917681bb9de",
        "32155bda02e59ca2e33584b1c73bec2c71437237b13d3b9191e7190e33a95b56",
    ),
    ("modern", "delta", 0): (
        "057f84ca418b11821c68c3e704c482b059744138b416a0eff2693d442d94a65f",
        "a52efc4f7e223210cb07720358419293bba03d18b29a3421b5840f709772aec5",
    ),
    ("modern", "delta", 1): (
        "9ba3a6b9963f19c96e8671b0dcd22cadc2887d319325adfc88aa6e7a20277a33",
        "e08def9ae357bad070ab64e50a58bf298e2b7a3febb40e014d77d3bdfcfbdac3",
    ),
    ("modern", "delta", 2): (
        "f11a9e0ee143ae3623bf37118169cce62f67afc7780b2c40e9522352f675444a",
        "e1ef8a31b79bb4126ff4c3f592fa56797cd722d11c13b67e9457c9bbf625d6fd",
    ),
    ("modern", "delta", 3): (
        "dc702a3535410d3325ff19704a57ccd9c22e492857258fc110fda41ef209b82a",
        "c3cec5d4f222d24c85632a908bae77a8e7b4044fa83d8ba9defb01a849b35d52",
    ),
    ("modern", "delta", 4): (
        "20cd26fbdb7020faba603d68ec0a8f5ca1b2eaac8398bf720af37a8ceb70dcbe",
        "2f89c30e512058a1faecd3c54a91893a603567cd8e42361c6e1a52e5e334ca7a",
    ),
    ("modern", "delta", 5): (
        "f46fb77791f3b458741e0939519828bdb4a535732ca3de94db0fc3e9f8f85108",
        "93b74e042c455e503ad55a49d416bcb3af0b2550b2fef71f360b8ead66389dfb",
    ),
    ("modern", "delta", 6): (
        "3b62884637c64cb3fb95b1e836838bd963ac53bbcf5320eac828ef624a7b49fc",
        "515835a3627814d80113fa93d3c158127bc45c49eec98484e1730b104a225c77",
    ),
    ("modern", "delta", 7): (
        "6125e0c128243156a51c75d59abb5fda15322cb8a06efbb8ffd7d7cac74104f8",
        "20971bb20d6cca5d16a625c42662c9631eb6ca787d8402213af412c63e6f4362",
    ),
    ("modern", "delta", 8): (
        "84aa240e58b0d146445c9f3551ce546ce895c4a00f7537f7d19d0bd536c7f7aa",
        "aa19dcce17d6bc07735abbda47c8b26862808c43c1f7b5dacd381c4d7355b762",
    ),
    ("modern", "delta", 9): (
        "cb0c2d2a41b5ca61b50c17426740e5a55a5e740bd5cb5fcc10e76ed6426771b7",
        "4ab6fc6a7ed7cb79b09630cdfb088756dd83c4a1f31ac3c5576f71956745996e",
    ),
    ("modern", "delta", 10): (
        "cb81206a92ab57005cb1151c6201f253c51fa23b82d4238ebedde2cb5fd31a4d",
        "726bfccb6848162e531ba314c162051d23ac9d790922256255e1769bbf9a87e5",
    ),
    ("modern", "delta", 11): (
        "8a37626d5315b8323ba202f5028c0d61e1747fbe207061819c12e61aa29434d4",
        "0a113cf3c8089352fb56e1a0d7f8fc3cd31724ec9627718ca82608813bebdd7b",
    ),
    ("modern", "dce", 0): (
        "6df8e9e0b9a063256169d3295bda1033a59847eb054740f43430a156cf4bc09f",
        "e1906f2c37739af13ceaa269648f4597b8ba7c72a45415c13b983abaa3b360a8",
    ),
    ("modern", "dce", 1): (
        "05f9f4d5f19bf157b54b7c2d159aba5064d622b7f4026b78662adfe1e2b5c11b",
        "e9b7f1e98d6a0c8417c123aca79f965cf9e35b78bdc766f1a953268d519ed741",
    ),
    ("modern", "dce", 2): (
        "20ea33f71825561ff3c3c6660dd7530c164db8d1fc49d8c6fb33179360c21e3b",
        "395180bc9c32410eaf7ca50d40e551fb82f89601811847672782172c80301268",
    ),
    ("modern", "dce", 3): (
        "f772dd0db21f6f4234dd2437e4b3b5721c64d3fca38bacd6e3c1baffe010c7fd",
        "ad180583cc8cb90e404885466b824e2eac50977838167493dc7a72a7c9882edb",
    ),
    ("modern", "dce", 4): (
        "742a71f00f37df8b292d822f8777cef63335a2c6ee5f7d695afc5f8e66516784",
        "8bf8950e3c16e795b4166b5b1b9b6f82dfe2438423461fb5e0881d28bcec76a7",
    ),
    ("modern", "dce", 5): (
        "3bc4fee745a66cad9e431abdb7a76c9fcef266da5b60b66ebc7e919f66ad82e2",
        "4d17bdb8056a3cd849bd6e75ce96d13322d8e6aba0b310a8280287eb0b8d687c",
    ),
    ("modern", "dce", 6): (
        "4485825a64b00ef02969b885d8c4d8fe54fbb863520bd8d22d63addc4ab02588",
        "6f7a02097759deac075a978c630cabc3e8efd54e6b07dfa54c41aa38f53b9ecf",
    ),
    ("modern", "dce", 7): (
        "8ae77077d178f5516ea283e91288d7686c0a8b8d3fbd396a5d6845608db378a4",
        "70fd0caf5fdf962558893de9fbab361dbc92ebf42452a9096eecbd8bcaa2ec4f",
    ),
    ("modern", "dce", 8): (
        "b8d2530b182c1beb989dd524e29dfe5ef161bfe6396d785e68d41c7843c4ae22",
        "c752018bd2dafb2a9af7eb718d70f2efffe92416dd70fabae5a5ba56e7f541c6",
    ),
    ("modern", "dce", 9): (
        "a897aa46182ad2e0875e0b91425a74cb013e2a45c7f5cc33e1d6af3c2904c8d1",
        "7031e5b75cd36cf981095faf8245bb1257d17ecf787d55b8d90f53e60097f3f1",
    ),
    ("modern", "dce", 10): (
        "6c7d8ac6d3587b9d4e19a6bac14a557988a52885adbe0ce3c61d8cfd466d3e61",
        "d496684dc6bfd4ad033ca9f711f836607178b210ebedd05aa91351387c833997",
    ),
    ("modern", "dce", 11): (
        "1992badea57e1c6728c42f021c5fc22b2ed87fa7b75c28b9225f3917681bb9de",
        "e9b2d2fecdc6540544e8cf5ca0074bc1443b851347784da761984f6656f69b3a",
    ),
    ("legacy", "full", 0): (
        "665327d9a510edf063edc4b4c392e0dcb239751d5fbccefc6aee947dc7ff5e8e",
        "26879386d6bc1c202a4e1a7fd973b7b5c1d53c2bb19546b8a206636227065ae7",
    ),
    ("legacy", "full", 1): (
        "475b0fe5aac19229714d765c3c7cab62d727669a7cce192c2f95671ab89383ce",
        "22b0c5c328dc623fdfffe04b727a8417c1bc3fc106228ce432cd20ae83db6f8f",
    ),
    ("legacy", "full", 2): (
        "f93948c0f98d1bb4d21786836eb2fffdc694e4ece48e2614ab02700fe79f2862",
        "ac43e27d5025d58230d251aa6691b0b9b1252a7dcd93b0d7253f718e8e3af899",
    ),
    ("legacy", "full", 3): (
        "c93782a1e7ef49e12b98ca3c9d5dea564c86f1f71610aaec8ed4d0eb5e8d7c09",
        "8efa82bdda946c59b42c515e04843f17bdad882a8552cd72393dc089f3143675",
    ),
    ("legacy", "full", 4): (
        "66d91c2767eb61d232e937b48266d683159964f652099aaf19e3cf5bb61c53f8",
        "f64007f4c8741b2ecbda2e8659d6f9e73b9aad1524180b33e6dee97148082eca",
    ),
    ("legacy", "full", 5): (
        "852efab609767cee5104f6a5178a6c101edbc5feb7207a5d8cc30f2071c7db2f",
        "bd891f65215c33b07983788d1aaf6ee0b0db6c3272fc7f7e5589f145bf0ed551",
    ),
    ("legacy", "full", 6): (
        "db555ad20a27ac52dfabb61c1e672a4063de334f1958b09f5a5fecfc2a446b3c",
        "8b26555af4b30b259476e721e89b8d5954813e62960b8e6dd103805cefbe065e",
    ),
    ("legacy", "full", 7): (
        "30ed4be302589587e99702acb6ba54ebe90351e98a1015708af413f53517bfaf",
        "231ed0fc7aa7a97e002f97363d8e1d24d24c17bdcfd0be1204262cc78b530610",
    ),
    ("legacy", "full", 8): (
        "4b61ad801c3a7b23fbf9c9598243cd897545cbad08282bb1e25dff7c0bad6cd5",
        "22c430f408a8795c13c3de80b591599ef52161e435e700417b041fa10b8e8e18",
    ),
    ("legacy", "full", 9): (
        "5de590858508babf2ca1d1cbdfd3fc7fc00f7dd3e8208464d9ab13e3a0b8ab2d",
        "d37a03a6c9f391d31ce947d661ca8b0fc511e885789a6d7e85667ecc955e0652",
    ),
    ("legacy", "full", 10): (
        "dea2342c186f75a9810103636de75dfdcefecf6bada681bbcf34b9be9a2d8c8a",
        "b0110947f7c9857de4a1c44fc86d9f162a423f787a875c2b265eea6abfb6b90b",
    ),
    ("legacy", "full", 11): (
        "14deafa62efc9f8bec45a696ca74db136acaa03f97e855442c6929ee7a83016a",
        "d4564d6aa976d9da37dcb1fdae43b79366821965bd33477cb10882ffbebce342",
    ),
    ("legacy", "delta", 0): (
        "710df7c2a5fcc9da015f7fdf47d5093b3446648d90502dab485c4116ad95ffdd",
        "61d5aad16425c3fb9177aa9acc58aca5cd0f7b60ee4a543a2822b3a8f0e538f1",
    ),
    ("legacy", "delta", 1): (
        "c2c89863c6a9cec7a4b41be4b80020540da4d13324865c9d08048fb5df58e8d8",
        "7a58bed1d750d5338bc2c704c6705df49a108a48c5b2c42a0fb81eb4bef9a5bd",
    ),
    ("legacy", "delta", 2): (
        "1eea617500dc8433b0ea114069a8cb7605b9699282d777fe771db68791104030",
        "e6c2920483e9e2fbf4cb840b01c3e7f80c0f01dbd3b8dea0eb325800a462793b",
    ),
    ("legacy", "delta", 3): (
        "126cd01200d489b10def12846e9ce989e7c8016fdd323fb98af9be85c12706d2",
        "2d0b59c8cd546a36b8ebc837f102254e3666dee0055d63d521aefa59fb484e5f",
    ),
    ("legacy", "delta", 4): (
        "c7af01c06e845ae266e67a421f9fcbdfa0a4e75af477bd85627e543a145469a2",
        "ea3a7cbeb0bb9e636845f2dfdfb2d343394f25d57932d0bbadba48c5c4d62437",
    ),
    ("legacy", "delta", 5): (
        "003ed1b5bfad8a46bdbc76eff2de0aea9f79e173cf1dd4116ba9025c54500661",
        "ff3b0f1007532bfc46db94541ad075d345db954a4a0896d585aa3795dedf6ab1",
    ),
    ("legacy", "delta", 6): (
        "3979ebbb92d89437c64f1c37b09cfd2d3b2915ee83454dee369a185006fd3c88",
        "0ec08435ff28daf44be6e46723f871fc29ed7530d2f0d98984eec680b455fb27",
    ),
    ("legacy", "delta", 7): (
        "a5c59fc0640e3e6a7985f6f700b08f7cf5e7aa41a5c572ff2866b01f844de05f",
        "bf49f8c8893264a3770af0a4bfae217d5b68d470843213f1ee10ff64a44e8890",
    ),
    ("legacy", "delta", 8): (
        "f2f5f61551ee7e8efb8bf37112c4092ef7b0efa22e3dad0d5f4681bbd1fbb1b0",
        "eb8c4700cf383c1b26dbe69c4df75ca89e62375f85b98ed9741b88fb1b243b93",
    ),
    ("legacy", "delta", 9): (
        "8af0dd497f4fb78c7dc798a070417f232e0a34df0859c2bb87a98d7f8cc3a3e0",
        "c4196b1e38a6e87ec254f3fca042c608ec752f935b5317a1cb384bc869153285",
    ),
    ("legacy", "delta", 10): (
        "03847e389c45ac0dc3a2c53f79f53f683e28718675f7f2d0184e2f039f647e6d",
        "b72bc0ea6182ebb2054102fd9f2f4404256cbf8516f919c7cad497feb36a71e1",
    ),
    ("legacy", "delta", 11): (
        "dfa93fa34b88141ea9edcef8fb2b706991956521e013b3c04e3c91870ad191e8",
        "0a113cf3c8089352fb56e1a0d7f8fc3cd31724ec9627718ca82608813bebdd7b",
    ),
    ("legacy", "dce", 0): (
        "665327d9a510edf063edc4b4c392e0dcb239751d5fbccefc6aee947dc7ff5e8e",
        "26879386d6bc1c202a4e1a7fd973b7b5c1d53c2bb19546b8a206636227065ae7",
    ),
    ("legacy", "dce", 1): (
        "475b0fe5aac19229714d765c3c7cab62d727669a7cce192c2f95671ab89383ce",
        "97be93dca3ae127b5195939898ab115be560c4200f52584b6a773ebb2a98073a",
    ),
    ("legacy", "dce", 2): (
        "f93948c0f98d1bb4d21786836eb2fffdc694e4ece48e2614ab02700fe79f2862",
        "de1e0a7ec8e414baef21e9a409c0d4132ead030303a6c2a285b70df70fbc8cac",
    ),
    ("legacy", "dce", 3): (
        "c93782a1e7ef49e12b98ca3c9d5dea564c86f1f71610aaec8ed4d0eb5e8d7c09",
        "7fa797ff1d6284509833b193ff6f66f157188530e0e88b45f6dc8b3c339162d8",
    ),
    ("legacy", "dce", 4): (
        "66d91c2767eb61d232e937b48266d683159964f652099aaf19e3cf5bb61c53f8",
        "862dbe4ebaf74d97dded515332d817dd4afc10790409e57429153b2730ebbb74",
    ),
    ("legacy", "dce", 5): (
        "852efab609767cee5104f6a5178a6c101edbc5feb7207a5d8cc30f2071c7db2f",
        "f61dc6a50580682cc6c9684c6fa920940838d94f5cb222399ca64cfe73726644",
    ),
    ("legacy", "dce", 6): (
        "db555ad20a27ac52dfabb61c1e672a4063de334f1958b09f5a5fecfc2a446b3c",
        "9c379207f17b538c4ea1f82b1110ae5ed1deee197eeaaa2384cc4ed3c3a21ee4",
    ),
    ("legacy", "dce", 7): (
        "30ed4be302589587e99702acb6ba54ebe90351e98a1015708af413f53517bfaf",
        "9ab2747c5abdcbff1183296ae8492a6d74d360a6676b00d1834269807fab8dfb",
    ),
    ("legacy", "dce", 8): (
        "4b61ad801c3a7b23fbf9c9598243cd897545cbad08282bb1e25dff7c0bad6cd5",
        "f6a23a78e26d902f1ba279cf3a67585ae59e0a2da9011b12df06e5b0313c657e",
    ),
    ("legacy", "dce", 9): (
        "5de590858508babf2ca1d1cbdfd3fc7fc00f7dd3e8208464d9ab13e3a0b8ab2d",
        "70bea557c114c78c45008a8f0d8a132a6542e61fec7ba859e67a386f116b3afe",
    ),
    ("legacy", "dce", 10): (
        "dea2342c186f75a9810103636de75dfdcefecf6bada681bbcf34b9be9a2d8c8a",
        "a9d184d27aa159bdb030795d065039e30d68b858e4d85eef3e3d23aa111a9891",
    ),
    ("legacy", "dce", 11): (
        "14deafa62efc9f8bec45a696ca74db136acaa03f97e855442c6929ee7a83016a",
        "1bb30ba6d2963dab1c7c932e779de3bcea2f8ff023dd16c6e0e56ea805764d49",
    ),
}

#: (policy, seed) → the schema-on second call's (request, reply) sha256.
SCHEMA_DIGESTS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("full", 0): (
        "54c731586579a849ee16f8c1187c50f093a1c32498315b8e57a3c08b1c4edb8f",
        "e1906f2c37739af13ceaa269648f4597b8ba7c72a45415c13b983abaa3b360a8",
    ),
    ("full", 1): (
        "2332d093f39d31da2cf1057d630b20ee37b2c4d3b76b96d7e00e00f326522b70",
        "a09056067effa7fe5996d3140b53508a4f5538b4687d2bf13cd4f0459564e92c",
    ),
    ("full", 2): (
        "bbff9dc7c12fedaca83d62003a5827aa2724b9a5fdec0368657f937563c2818e",
        "7b05210c7850087e4ebc432344857dbade581c0c1bb80d6b32056c72f8f3b363",
    ),
    ("full", 3): (
        "e49211f61b50d5155e1492486cbd74993356534eeeb08dbfc21ce53ec3ca94cb",
        "6d9ecd6e1290e7ac72a65763a29c5d6eb60ffd76097ff00daa1c058aa2725919",
    ),
    ("full", 4): (
        "0325090871cf616f1b1b73f53db8cc4eda7b8d573324237b774db91945524953",
        "34fec91f6c90534040dc538ed758d6a32edf249383ad2527509f4555cf719bcd",
    ),
    ("full", 5): (
        "0e9375ed93bac83d41c6d92400087b5087912f81a57916d45a6c5d27ff25c0a7",
        "ef4338838c4bd6c6a7b878250ceffd2f042524db6a72a843a9cb0034bcb88c79",
    ),
    ("full", 6): (
        "c856c54d2ad0ac0310be8f3ba38ea31adceb9ba9f2e562a64f2089884b4eba5c",
        "9bce0000d32312cc3ad5e54058590101b625d5aa013dc6827772297b4da771d8",
    ),
    ("full", 7): (
        "d17a4b3e29fe1865160ce92728e9376ed47a7adcf099dbdecf00ca3211265ac2",
        "7c6120b8365ec7d96d69ba033fecfbf6d9fc3721caa21d3abe312eb14b4ffdbc",
    ),
    ("full", 8): (
        "46c7d0e07a71703229dd8e4c5e96e87a7807cb76faacdbefd24049d2c95e162b",
        "eb6746ff6a18d104e0e6ffe939db46106161ef6df73ae459121b6e73061938ec",
    ),
    ("full", 9): (
        "79eff3d04fbd891b5600565d0189fefe2d0e8f61bb257f4e6a11d37e4b3bb6c6",
        "0f15b2ed9f0bb8a5a10d7a425828446d701c218d73453c4ccc2be22ae12e1dd3",
    ),
    ("full", 10): (
        "b4f8974aeb1616eb05326fc8f5225a31117c42be3d4911b97e5af36c94905d3d",
        "11a746b66cc40f93be12c72cec24d3d10770afc7171f93270bf370d0f0d71941",
    ),
    ("full", 11): (
        "82a43e23d74ee01d8b7043e7c046da8c544ae67b6c5204aae7c836a4c8396694",
        "32155bda02e59ca2e33584b1c73bec2c71437237b13d3b9191e7190e33a95b56",
    ),
    ("delta", 0): (
        "98854000ce46a210296132841a873d9a4cc5d843f84217d6acddd986f3970d2a",
        "a52efc4f7e223210cb07720358419293bba03d18b29a3421b5840f709772aec5",
    ),
    ("delta", 1): (
        "6a11440461b07bfa259a7100da71ccba5318c52eeff6cb928f4eea622c0d8a43",
        "e08def9ae357bad070ab64e50a58bf298e2b7a3febb40e014d77d3bdfcfbdac3",
    ),
    ("delta", 2): (
        "889f190d025c35e76a2a66cd84f4c0a37cf30fe2c43f10ebb582287c78022271",
        "e1ef8a31b79bb4126ff4c3f592fa56797cd722d11c13b67e9457c9bbf625d6fd",
    ),
    ("delta", 3): (
        "44479cf5244775be9016609fa7af598f8c21d0e39d4b116f51710598967815ed",
        "c3cec5d4f222d24c85632a908bae77a8e7b4044fa83d8ba9defb01a849b35d52",
    ),
    ("delta", 4): (
        "063ad5d0838e590919391db6a67d19a99a56f49dff81100447526e231cfad047",
        "2f89c30e512058a1faecd3c54a91893a603567cd8e42361c6e1a52e5e334ca7a",
    ),
    ("delta", 5): (
        "b8a78ecd5463debb77293dc2dbfb9b9e40126c82d18a8a2573f4ee36f864db66",
        "93b74e042c455e503ad55a49d416bcb3af0b2550b2fef71f360b8ead66389dfb",
    ),
    ("delta", 6): (
        "e7996329b525613989e72d167b1320b9e60a305cd4ab39aaf55311d5bf72f112",
        "515835a3627814d80113fa93d3c158127bc45c49eec98484e1730b104a225c77",
    ),
    ("delta", 7): (
        "f9a7225031fa72371fed0d61ac3921bbd855ee7591be99f18ef23276265b1edd",
        "20971bb20d6cca5d16a625c42662c9631eb6ca787d8402213af412c63e6f4362",
    ),
    ("delta", 8): (
        "023ef1a92fcda76e3acb306228cf06dda00aa1261c01c7018d16034eaf04034a",
        "aa19dcce17d6bc07735abbda47c8b26862808c43c1f7b5dacd381c4d7355b762",
    ),
    ("delta", 9): (
        "2bd2d175d2c6644c711d35ce4853c756f1af10267bc3df78cd013b8a62a4efe4",
        "4ab6fc6a7ed7cb79b09630cdfb088756dd83c4a1f31ac3c5576f71956745996e",
    ),
    ("delta", 10): (
        "ffadfdcb7717202fe0b12a7944fc6964d6205fffdd639bd3c72e1fa907d921d9",
        "726bfccb6848162e531ba314c162051d23ac9d790922256255e1769bbf9a87e5",
    ),
    ("delta", 11): (
        "e0bafb7d51d19bb2ebed4b73b0e81c976d0992271ee7169e6ab3a8a5f02b200b",
        "0a113cf3c8089352fb56e1a0d7f8fc3cd31724ec9627718ca82608813bebdd7b",
    ),
    ("dce", 0): (
        "54c731586579a849ee16f8c1187c50f093a1c32498315b8e57a3c08b1c4edb8f",
        "e1906f2c37739af13ceaa269648f4597b8ba7c72a45415c13b983abaa3b360a8",
    ),
    ("dce", 1): (
        "2332d093f39d31da2cf1057d630b20ee37b2c4d3b76b96d7e00e00f326522b70",
        "e9b7f1e98d6a0c8417c123aca79f965cf9e35b78bdc766f1a953268d519ed741",
    ),
    ("dce", 2): (
        "bbff9dc7c12fedaca83d62003a5827aa2724b9a5fdec0368657f937563c2818e",
        "395180bc9c32410eaf7ca50d40e551fb82f89601811847672782172c80301268",
    ),
    ("dce", 3): (
        "e49211f61b50d5155e1492486cbd74993356534eeeb08dbfc21ce53ec3ca94cb",
        "ad180583cc8cb90e404885466b824e2eac50977838167493dc7a72a7c9882edb",
    ),
    ("dce", 4): (
        "0325090871cf616f1b1b73f53db8cc4eda7b8d573324237b774db91945524953",
        "8bf8950e3c16e795b4166b5b1b9b6f82dfe2438423461fb5e0881d28bcec76a7",
    ),
    ("dce", 5): (
        "0e9375ed93bac83d41c6d92400087b5087912f81a57916d45a6c5d27ff25c0a7",
        "4d17bdb8056a3cd849bd6e75ce96d13322d8e6aba0b310a8280287eb0b8d687c",
    ),
    ("dce", 6): (
        "c856c54d2ad0ac0310be8f3ba38ea31adceb9ba9f2e562a64f2089884b4eba5c",
        "6f7a02097759deac075a978c630cabc3e8efd54e6b07dfa54c41aa38f53b9ecf",
    ),
    ("dce", 7): (
        "d17a4b3e29fe1865160ce92728e9376ed47a7adcf099dbdecf00ca3211265ac2",
        "70fd0caf5fdf962558893de9fbab361dbc92ebf42452a9096eecbd8bcaa2ec4f",
    ),
    ("dce", 8): (
        "46c7d0e07a71703229dd8e4c5e96e87a7807cb76faacdbefd24049d2c95e162b",
        "c752018bd2dafb2a9af7eb718d70f2efffe92416dd70fabae5a5ba56e7f541c6",
    ),
    ("dce", 9): (
        "79eff3d04fbd891b5600565d0189fefe2d0e8f61bb257f4e6a11d37e4b3bb6c6",
        "7031e5b75cd36cf981095faf8245bb1257d17ecf787d55b8d90f53e60097f3f1",
    ),
    ("dce", 10): (
        "b4f8974aeb1616eb05326fc8f5225a31117c42be3d4911b97e5af36c94905d3d",
        "d496684dc6bfd4ad033ca9f711f836607178b210ebedd05aa91351387c833997",
    ),
    ("dce", 11): (
        "82a43e23d74ee01d8b7043e7c046da8c544ae67b6c5204aae7c836a4c8396694",
        "e9b2d2fecdc6540544e8cf5ca0074bc1443b851347784da761984f6656f69b3a",
    ),
}


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
SHAPE_DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "1cf1595732637f413e8e3a578b28bb28530c4e78ccedf371d22ec123050ced2b",
        "f88acca3949a3b2179cf8aaf78eaac2f28a021d3f3a15468efadeb46650b8a4b",
    ),
    ("modern", "full", 1): (
        "cd492447b57bdf95f7ef5b3fe6d64561d781e5264020ca24468630a26ad396f5",
        "db3031cae40ad2e25905773bc31c46aa8bd07258355024a896b323e5b349ca87",
    ),
    ("modern", "full", 2): (
        "afd026c8345eb8f3309ba3141baa7fd15ed0505546c1a4cedcb37b0d38888871",
        "3c3c504d3bc25665d0802a2d0661e04725ada8701370276367f26d27c7fe1179",
    ),
    ("modern", "delta", 0): (
        "1cf1595732637f413e8e3a578b28bb28530c4e78ccedf371d22ec123050ced2b",
        "7d4edb65168af2b8d55041e0c7134d712be2c44591575033208cacb38fd87514",
    ),
    ("modern", "delta", 1): (
        "cd492447b57bdf95f7ef5b3fe6d64561d781e5264020ca24468630a26ad396f5",
        "8f900b7e1769054822c6474029ccf35290757e104803ff698267fa9dac421fb6",
    ),
    ("modern", "delta", 2): (
        "afd026c8345eb8f3309ba3141baa7fd15ed0505546c1a4cedcb37b0d38888871",
        "ead497ec449a8fc06f17f0f9fbcf782c433cd2373a18b0746f7e860e402d09a1",
    ),
    ("modern", "dce", 0): (
        "1cf1595732637f413e8e3a578b28bb28530c4e78ccedf371d22ec123050ced2b",
        "f88acca3949a3b2179cf8aaf78eaac2f28a021d3f3a15468efadeb46650b8a4b",
    ),
    ("modern", "dce", 1): (
        "cd492447b57bdf95f7ef5b3fe6d64561d781e5264020ca24468630a26ad396f5",
        "db3031cae40ad2e25905773bc31c46aa8bd07258355024a896b323e5b349ca87",
    ),
    ("modern", "dce", 2): (
        "afd026c8345eb8f3309ba3141baa7fd15ed0505546c1a4cedcb37b0d38888871",
        "3c3c504d3bc25665d0802a2d0661e04725ada8701370276367f26d27c7fe1179",
    ),
    ("legacy", "full", 0): (
        "49f156400e173f16051ceeea8a1c754f517453f04ea503341ad0d38dba581840",
        "4ecb08fab611a08668c7927c583db94ea94c744005f098d298c771ea0be66727",
    ),
    ("legacy", "full", 1): (
        "28f9bc7ea4ac9eaa382ec9e09f3135ff0aa28d00e50f82ae3d0aea391ac89df7",
        "c2c8c75310e6c38115d84a7dddad30560a4fae317d413bcd0d4c8fa3c26dabde",
    ),
    ("legacy", "full", 2): (
        "df145e6c5bc88ad4b112bafb899f74510cc646f261e4cd0d60790ecb2965073a",
        "59be4aea576e6f9fe4b4a0973f946ea340059e5fbebbfff21b7fdace9aae6500",
    ),
    ("legacy", "delta", 0): (
        "49f156400e173f16051ceeea8a1c754f517453f04ea503341ad0d38dba581840",
        "600b1f6a6c12dafdad01042ce99554bc32d36c3afb9de8e36171bdb831612e84",
    ),
    ("legacy", "delta", 1): (
        "28f9bc7ea4ac9eaa382ec9e09f3135ff0aa28d00e50f82ae3d0aea391ac89df7",
        "8b668f8dc06dc6d01bb3f5a025e76d8142e76bd7404ce6d214c93537e61da54b",
    ),
    ("legacy", "delta", 2): (
        "df145e6c5bc88ad4b112bafb899f74510cc646f261e4cd0d60790ecb2965073a",
        "bd08bc1fab1178851d3bba8781b7b1894e021315ee6abd97dfd9d9b9db912122",
    ),
    ("legacy", "dce", 0): (
        "49f156400e173f16051ceeea8a1c754f517453f04ea503341ad0d38dba581840",
        "4ecb08fab611a08668c7927c583db94ea94c744005f098d298c771ea0be66727",
    ),
    ("legacy", "dce", 1): (
        "28f9bc7ea4ac9eaa382ec9e09f3135ff0aa28d00e50f82ae3d0aea391ac89df7",
        "c2c8c75310e6c38115d84a7dddad30560a4fae317d413bcd0d4c8fa3c26dabde",
    ),
    ("legacy", "dce", 2): (
        "df145e6c5bc88ad4b112bafb899f74510cc646f261e4cd0d60790ecb2965073a",
        "59be4aea576e6f9fe4b4a0973f946ea340059e5fbebbfff21b7fdace9aae6500",
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


if __name__ == "__main__":
    # The shape classes must carry this module's name, not ``__main__``'s:
    # the class names travel in the bodies.
    from tests import test_wire_digests as _module

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
