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


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "3176aae08cbaac08d792577adbf21de24713e8dbdd44c2787d4a419081e03373",
        "071c366a65041045a38b2be22b6d35d18e181ee37ccdb16f6938764d824a7917",
    ),
    ("modern", "full", 1): (
        "949ef2267ad54e542ef8ca67b8f09d7a3ae2b0caafaf70a189ef3e62d462dc3a",
        "fbb40e7e48e4acab78dc45be459b7ee50b1ee31bee6b0f0ce3dff9b70fad41c4",
    ),
    ("modern", "full", 2): (
        "552b380776604456019dfe7f13e244a445d789e784dac04fbb64901f2193fb9d",
        "46c663ea349de90e9f74e07c33ee8c9d0b771d2a3660702962a72a8eb9aa5b21",
    ),
    ("modern", "full", 3): (
        "219fe22cd42fff901e337d152f1f247507618e10d2eaeb9d003c54d4f878d942",
        "cf71b4490a4774c8ef103b99db105540cfb494343defea183641a21c2bd9110e",
    ),
    ("modern", "full", 4): (
        "4a82875ec0ba48419eb9376002661e7f6527e8c0a3963f6fcfa59a467b58b43a",
        "d9787fb7b14a3c31e5758ca9e7de1277f1e8e6fefadf8f501918e0a95d2ef072",
    ),
    ("modern", "full", 5): (
        "fbbb9aed25ec89dc7d813432899d1fd85dfeedff79d59c8a4a9ab76421ae01fb",
        "0ccb3c16fe690195240e0e02116c0062349ffe25a7090bc5028d0f66b414cee4",
    ),
    ("modern", "full", 6): (
        "630fe192112e1b2611d43f781fb884be6f99dbcfe1bff4c7ba691c5d559ffda8",
        "9df64e10427a193592bdd03b88105ef01c3eaa4c63c05aabe41480895833ccce",
    ),
    ("modern", "full", 7): (
        "e206d1dd4daa8eb43403199d434c30fc02ccbeb7dbe71b17321c60b442c395fb",
        "d3cf4327fa784eeb9e7e859363cc838880c3ad578110c0eb013ef7c96ea6aac8",
    ),
    ("modern", "full", 8): (
        "a45775b5a6301e8a092243538ff6916154329c6c5e2f47100545a16ffc012185",
        "7929beeae340aa3a44ce13a935bf9011c6781f867dadfbb6b473e95bf5cb7585",
    ),
    ("modern", "full", 9): (
        "9a7638af4ae72dbd580291a82667882add6b90656e989c01edbe6d9c4552c96a",
        "38a84567d736e32e13deee4b58831b1a6108cf9e763e1aed271b136370688800",
    ),
    ("modern", "full", 10): (
        "8e515adfe571028075c52d07dfe121a4516f51eabe6cf0d748984df643754b7c",
        "690c5aaeb80227081b0ececf75aa9af616aa5949c3c139cae4cdbba45e900a98",
    ),
    ("modern", "full", 11): (
        "de64bdb8acf78e90e31ff189e52423c611952bcc075796bdc2a8100b73cb7b98",
        "f4301dbacfd018847374023537da42cf2527dcce480f50cad1e4d08408ba01c0",
    ),
    ("modern", "delta", 0): (
        "3d958fa165508918087ea18056b93373468b493a6997a7c9111b4f9657c9d6ba",
        "87d913f387d8fb202d61bbc9eeaa4245417e593116928b4bdfffdabad1973a4b",
    ),
    ("modern", "delta", 1): (
        "936627d77ef0fd57e4377232b28ee92bcbbb63ca4220faa379583cc39cc78ca5",
        "b0a2140510f1457239b7413329127809f41c1d72b1ffa136f3072f1e47760275",
    ),
    ("modern", "delta", 2): (
        "1fcec8fed8dfc18846cba49590b1793151d482a13b4fbb5dacf645e568f942c8",
        "bc58b68e7877cc066b63f55760718106d04b468b555731229e21126a53747723",
    ),
    ("modern", "delta", 3): (
        "9da5df0360bb3494928275313448e5a77049284260ff845925ac6a015f2c3a3e",
        "0f50235379f8fea67025547bbc731f3e300ebcfdd5f982383644cf0ff545dd60",
    ),
    ("modern", "delta", 4): (
        "a17f6a3f16f9ebc968d5028781adb02a98adf97345326bb44089430cf25103d8",
        "25986be9c537fe326771fa1566a21d9884e00a922ae1f6bac4190f3784df4627",
    ),
    ("modern", "delta", 5): (
        "d4d6b8c3cc1f4ab1119b935a9d97567ff36e33ae37583219add901bcf59e95d8",
        "22dbe9a1cb8eaf0745e77fa17a9a1a0589565a14bfe4b173b8d93feaca83fa25",
    ),
    ("modern", "delta", 6): (
        "cdbbcc6a87a2ae1eb5ae6628075d8770380eb12cd5647d5c0ae6a85943b8c1de",
        "2a41c0754e2ec2679015b702b561ac8cb2c19aae0b623bb84154873419ac8191",
    ),
    ("modern", "delta", 7): (
        "00cacaa354c7566277d09ac9700c9b65b9159816142070d9d43f3ac4a9e7e300",
        "aed391533e088c305a73ce0b76cd5af8648ba7b75746562a17d96517ef4bd194",
    ),
    ("modern", "delta", 8): (
        "8ae81edeeb954c858def97a32607ed9c669eaca29024f954264e917a6726325d",
        "8956254d71d56b686dd9100932cfaaf766c68010bbd460a1b37f8c3465da2bbd",
    ),
    ("modern", "delta", 9): (
        "97e4539956d53ac5bab2ccb1bdd699de222972205c8f445900da7f0164ec8065",
        "5cfa2b42d359b54a48bcea358462ef7085344efbb70feae0b6e29e5c1fdf53c1",
    ),
    ("modern", "delta", 10): (
        "21e590579e351804c39ba46cbcce81a167845edb810fefebfd93877e09b0322f",
        "4056f84bd8124b461cad6cc14f65c7f72fab41110e630398a52a28a3ce500b12",
    ),
    ("modern", "delta", 11): (
        "2753675844b1b3e6b7bbd07399bd0f7a01fa8be8f4954abbfdb82014b8082233",
        "510ff12681688e30a23187c4b789ae04d38770dcf53fc1f9ade2ae5fccf68180",
    ),
    ("modern", "dce", 0): (
        "3176aae08cbaac08d792577adbf21de24713e8dbdd44c2787d4a419081e03373",
        "071c366a65041045a38b2be22b6d35d18e181ee37ccdb16f6938764d824a7917",
    ),
    ("modern", "dce", 1): (
        "949ef2267ad54e542ef8ca67b8f09d7a3ae2b0caafaf70a189ef3e62d462dc3a",
        "a996338423cb28573f432210c22f8ef5065ffdfaef2c40918394853f6bcb534e",
    ),
    ("modern", "dce", 2): (
        "552b380776604456019dfe7f13e244a445d789e784dac04fbb64901f2193fb9d",
        "bfdcc90c0812f73e5c90b70e3ecbd60a39a4608d359841ff39a4045330a4071d",
    ),
    ("modern", "dce", 3): (
        "219fe22cd42fff901e337d152f1f247507618e10d2eaeb9d003c54d4f878d942",
        "b9d3978682f3408dbc450152151e60c1b3c25520b3440d0af0155b4507b53b34",
    ),
    ("modern", "dce", 4): (
        "4a82875ec0ba48419eb9376002661e7f6527e8c0a3963f6fcfa59a467b58b43a",
        "95736b431cfc1948ae8e596a58c576518342622b62bdb6d10d44e16987206095",
    ),
    ("modern", "dce", 5): (
        "fbbb9aed25ec89dc7d813432899d1fd85dfeedff79d59c8a4a9ab76421ae01fb",
        "f4ac0d380e92323bdf7621537c47c8e58a9269e03231911076c4464dcb927e89",
    ),
    ("modern", "dce", 6): (
        "630fe192112e1b2611d43f781fb884be6f99dbcfe1bff4c7ba691c5d559ffda8",
        "cc83c3f4856067aa0bd76ec1f66248d0d9e36ee2193c194bf7acdb52e3ad7a1b",
    ),
    ("modern", "dce", 7): (
        "e206d1dd4daa8eb43403199d434c30fc02ccbeb7dbe71b17321c60b442c395fb",
        "2baa3995a5c7d5e8836f21ce0fb7a29528619640b806176dec66d58082aec88d",
    ),
    ("modern", "dce", 8): (
        "a45775b5a6301e8a092243538ff6916154329c6c5e2f47100545a16ffc012185",
        "640a7fd2269e3c1097c7c810e17abeb348542f707c45039eb501ad6e98a9a48c",
    ),
    ("modern", "dce", 9): (
        "9a7638af4ae72dbd580291a82667882add6b90656e989c01edbe6d9c4552c96a",
        "ebdcb9b978428fd4dd767af4e45637953b82427893c704c4d81d13185a4ec661",
    ),
    ("modern", "dce", 10): (
        "8e515adfe571028075c52d07dfe121a4516f51eabe6cf0d748984df643754b7c",
        "1324a3b6dd3491b8898f4548353d077e977ed4a0699d8b3397b4bcf14cf5bb2d",
    ),
    ("modern", "dce", 11): (
        "de64bdb8acf78e90e31ff189e52423c611952bcc075796bdc2a8100b73cb7b98",
        "09d05bb835f698416aa7110ee4be40652aa14270cc3ac848fbe8057fd8126652",
    ),
    ("legacy", "full", 0): (
        "00e129188c5e6c7da782c65c2c14b5e0bc5c1fb81de03f1ed010ad4835a9aa34",
        "e25ad81dcb79ef56e110e4efc11b76ed7fffb48b9c8a1b008d952750da0284df",
    ),
    ("legacy", "full", 1): (
        "8e6500e966aca216f38f258711f50ad12cf7e06d1c17a59e66519435a5043433",
        "8c3c4b2790f3641ebda5763480a8a825cc95542f2bc0616d575382bfde2fdc7e",
    ),
    ("legacy", "full", 2): (
        "f92bc9c864cf658f89a832dcedd1b3c805619b31cb630bac792bcbfff8ee8f7d",
        "c717a06dfadc0fbc08f0e4aab115f7d0e46ee2086f7e81b246d6de91e6927069",
    ),
    ("legacy", "full", 3): (
        "063087174850ce9b66e1ba6ed461e19ee8a277266e9bc84d5e70a005ad3ce60c",
        "3e3e1bc790fa41fa2167313739a65b52532ab1fc3fea1bb640b1d54605dc7091",
    ),
    ("legacy", "full", 4): (
        "1ce9c808191ddc8ac1522e324c5c16c8432e89bfa70062936f912975f68413c7",
        "1d9abde4e29d4ff37f0372bbfc46fcfd9e6325e4eb7ff266a05973b57a0d00a6",
    ),
    ("legacy", "full", 5): (
        "e4777c27d6ef6a3b0c1fa5426d451d67c6342c3170dff1a35499ff47eb80070a",
        "45585b835a38a7fa1857471a0ca0b878442052e5c207ed60e341e00833ecbe1a",
    ),
    ("legacy", "full", 6): (
        "27ee4f41072b83c9c60fc6187686b1a5daa30c9f14dff1f3ee3d6cb718307695",
        "d2cecf6a57d7bacbd76683aa579d6834eb5fa6c9f7d059d4035314f06924ba45",
    ),
    ("legacy", "full", 7): (
        "1f1f6496517e804e67276511362be93318053fa447df7f5ea28875bd165b38f6",
        "4ec411d84502c75284af9ed905683e488488c0d98bf50385413815195d76e828",
    ),
    ("legacy", "full", 8): (
        "709c7d7adbf8363170b8ed5ca4c474b5fd1f3323d2987b52343fba4686a120e2",
        "791b6c651dafe0b7a27005391caa5a3f263b80cbb57ceca60b2420cfaa472d97",
    ),
    ("legacy", "full", 9): (
        "751dda7368854bbc8776426fde8d61cdc50645c46251f9ad4fbd19a87a0e3210",
        "e8dc44908c0fb03150558363712b5f96ae11d44994405c000d5549cec12d50ec",
    ),
    ("legacy", "full", 10): (
        "308deb282f2f2c7f2a2b01f4482f7b46a3a5a9b8038e4b378b15d58b5310da56",
        "15b303a48a53e70d3dac331f6cd6dcc04a483817a07f5a43372abc753867664e",
    ),
    ("legacy", "full", 11): (
        "de60bcd060d698c9c784cfd431fbda153ee427d01fcb564c116d0d8eb2c7121e",
        "d54e02489a1793e4f4cc53a700e561d6358eccf1b1bbf731756f7fac208b04f7",
    ),
    ("legacy", "delta", 0): (
        "5a274e04959bd58a22682a77156a8700a28f45b666f8c4b76b5dfa81ee8cc404",
        "1b272a1c9fd6390b7c9e14788efd24c92acc18d7bc956d06bd537c6a59bca2d6",
    ),
    ("legacy", "delta", 1): (
        "9a98af6fa426366b1cf311e5f1b3213940e0372182105637eb0ec0e5601b314c",
        "e71b515b4c37e557aa5a3c139c612c00be8a428e324e769031a5d01a9ee67022",
    ),
    ("legacy", "delta", 2): (
        "ac9f439fdf44120b95adbcf94fd6a996ea1d140d3d655fc1a3d1f42afcd36e94",
        "a9578e0d7ba08a8748b3d0de99eb9be53aa5bb33a02b831498cc9f13d1cd4047",
    ),
    ("legacy", "delta", 3): (
        "52f7065813f30879a632b69b6fefae3ab2403bbd50f1ee1b6cb639a242d718d2",
        "6ff67665aab4006d6d2e8c572385788af3bdfe8f15d99b71413023c84a34a2d7",
    ),
    ("legacy", "delta", 4): (
        "fcdbd081b7c47b9e92f35c63f61bbbca0f10cd5cf402deec3a787e5ddf2ecc88",
        "13fd9e17ecf5a71c5f2af343eab10da4ce6d162047c1090f084c5913dfaa93d3",
    ),
    ("legacy", "delta", 5): (
        "4f8e8d70626e4a65c600eab47fa10441d27c9fbf46bedc5972a4d8de1a9dafee",
        "c311aa966dc689815bedad69b776a6e2f8e42e3ebda16ab70be55a5df7cb5dab",
    ),
    ("legacy", "delta", 6): (
        "813ca6f1f1fc18079bb9ea9c3c1034af7a049d7024e74c81fbabe5f2bff16a00",
        "a9e60bc5276fb22dae4e252d0ca3cb86d2a21c91ab17884c06669cd88c7b0f14",
    ),
    ("legacy", "delta", 7): (
        "0ca115df58ce1bb69c1c1a705eb962cb186d34162d1fc1f8f927a3f9cf213ff4",
        "a912c2c79f4a514e63fabaeaaaeb732256a2a32c5ad4fe1d15b8c7099e194f52",
    ),
    ("legacy", "delta", 8): (
        "96f968814bf813631196487d0bc917b25a76f49d170abbbefb803b764ca415ad",
        "4d3f06beb50746a1a9f5ba43e7c7e5559122e853d39988fcb6be33f138303b51",
    ),
    ("legacy", "delta", 9): (
        "605aa63c899ca8100b92e944ee7b34033c19cd26b380c13c56fb6029996c6168",
        "f50a519fee99fdd2b9139e7579716e7240396f668c99c7117ea4df7238537d61",
    ),
    ("legacy", "delta", 10): (
        "7b1ca00ed114c7d755c574f06696a7bf7181944a34c3c14fbd12f99fb7b47f86",
        "fd39b4b0946e22c6ec93368202a3f394269ddd236d4d05e3509985adec6680fc",
    ),
    ("legacy", "delta", 11): (
        "8d0599403db10fc2a3be37b80e7855d6bcf500e70edaa08b72f60468aa1575cb",
        "510ff12681688e30a23187c4b789ae04d38770dcf53fc1f9ade2ae5fccf68180",
    ),
    ("legacy", "dce", 0): (
        "00e129188c5e6c7da782c65c2c14b5e0bc5c1fb81de03f1ed010ad4835a9aa34",
        "e25ad81dcb79ef56e110e4efc11b76ed7fffb48b9c8a1b008d952750da0284df",
    ),
    ("legacy", "dce", 1): (
        "8e6500e966aca216f38f258711f50ad12cf7e06d1c17a59e66519435a5043433",
        "9206fa471e46dc67c97df9b95f308201fc347cb085e8f65ad4c104f2eb321377",
    ),
    ("legacy", "dce", 2): (
        "f92bc9c864cf658f89a832dcedd1b3c805619b31cb630bac792bcbfff8ee8f7d",
        "3f2ab85295c19f915a307f698cdd86f0f7cc0c8cec153260a3d229dabf2b2d95",
    ),
    ("legacy", "dce", 3): (
        "063087174850ce9b66e1ba6ed461e19ee8a277266e9bc84d5e70a005ad3ce60c",
        "7320cf96d270f7d26c2cbdc83b881be5ea8b2b8b7c7279bf35926bd6f18f59b3",
    ),
    ("legacy", "dce", 4): (
        "1ce9c808191ddc8ac1522e324c5c16c8432e89bfa70062936f912975f68413c7",
        "dfef4f0db402b2343be3aefc8bcb41fb543e46c776b47c773410198c57b53284",
    ),
    ("legacy", "dce", 5): (
        "e4777c27d6ef6a3b0c1fa5426d451d67c6342c3170dff1a35499ff47eb80070a",
        "d9c5a9d88b4dca0d74292c8ddcb39cecdddd7c08067f524f8f7239d0f815cc10",
    ),
    ("legacy", "dce", 6): (
        "27ee4f41072b83c9c60fc6187686b1a5daa30c9f14dff1f3ee3d6cb718307695",
        "97f505c820c281c9e354be7d2021020d2c9a601ad35541d01d12ba9db96bbc33",
    ),
    ("legacy", "dce", 7): (
        "1f1f6496517e804e67276511362be93318053fa447df7f5ea28875bd165b38f6",
        "be0fba4e4a437f1c480fd90c5cf5a56492d49a0c93981e6a97c7f025d66e0c99",
    ),
    ("legacy", "dce", 8): (
        "709c7d7adbf8363170b8ed5ca4c474b5fd1f3323d2987b52343fba4686a120e2",
        "3679f8ce8bde884f87973a21871b0be921f6b8577d122bef888093cd9c3fa77d",
    ),
    ("legacy", "dce", 9): (
        "751dda7368854bbc8776426fde8d61cdc50645c46251f9ad4fbd19a87a0e3210",
        "0ddc6dedf6fbae0d54241eebcdf8bdf0442be275bfb5e8a5d01cd1153cba3ad4",
    ),
    ("legacy", "dce", 10): (
        "308deb282f2f2c7f2a2b01f4482f7b46a3a5a9b8038e4b378b15d58b5310da56",
        "b1ef4c7a08cccc29de4178b8da0fedfc2951f4d4ef3cdef9223f9940ca8fdf60",
    ),
    ("legacy", "dce", 11): (
        "de60bcd060d698c9c784cfd431fbda153ee427d01fcb564c116d0d8eb2c7121e",
        "e68610e341b6fdc55234e501f0d34267a45b4712754960fc32a127be23a808fc",
    ),
}

#: (policy, seed) → the schema-on second call's (request, reply) sha256.
SCHEMA_DIGESTS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("full", 0): (
        "43447b6026483b6b693abea6a164fd53970e3463718f740dc0821487721471c1",
        "071c366a65041045a38b2be22b6d35d18e181ee37ccdb16f6938764d824a7917",
    ),
    ("full", 1): (
        "240a20e08c9a01fc1c898a22fb5ccb2cea12f128e9ef1c758149003c81d0c4a5",
        "fbb40e7e48e4acab78dc45be459b7ee50b1ee31bee6b0f0ce3dff9b70fad41c4",
    ),
    ("full", 2): (
        "707f6a8bbefe3db5509d50c68686c07f9e818261d47e38b7053f8e7f1e7a34d1",
        "46c663ea349de90e9f74e07c33ee8c9d0b771d2a3660702962a72a8eb9aa5b21",
    ),
    ("full", 3): (
        "d51c5879eb56a53759c1d18bf24f848ec6c541ca551e3da12ca827b972fd641d",
        "cf71b4490a4774c8ef103b99db105540cfb494343defea183641a21c2bd9110e",
    ),
    ("full", 4): (
        "de1327bc6bb190d2dd7fb2ff6cbce31976ad250793228c539920972885a8e577",
        "d9787fb7b14a3c31e5758ca9e7de1277f1e8e6fefadf8f501918e0a95d2ef072",
    ),
    ("full", 5): (
        "69b2d89f49036489168c53408b07b8ca22dbf47ad84c6d6c412c359f944cf4b2",
        "0ccb3c16fe690195240e0e02116c0062349ffe25a7090bc5028d0f66b414cee4",
    ),
    ("full", 6): (
        "d7e41fc9edb76736cbdbf84863e32631a4578acf0820cf4cfccaee09c3c2768e",
        "9df64e10427a193592bdd03b88105ef01c3eaa4c63c05aabe41480895833ccce",
    ),
    ("full", 7): (
        "d17d614b5fc280e7167e155c4ddd8c4ef1f413ca0b7f41f63260aed86c241352",
        "d3cf4327fa784eeb9e7e859363cc838880c3ad578110c0eb013ef7c96ea6aac8",
    ),
    ("full", 8): (
        "781e93eb08f491f7ec66df24fab16b3fb0d6676c8e9e0c98fead3aded57b0134",
        "7929beeae340aa3a44ce13a935bf9011c6781f867dadfbb6b473e95bf5cb7585",
    ),
    ("full", 9): (
        "69a5cea350e3376bc5a6b9ff93319495221f8519ff5622f8c7b6c5f59f35bc9e",
        "38a84567d736e32e13deee4b58831b1a6108cf9e763e1aed271b136370688800",
    ),
    ("full", 10): (
        "0013b1b5bd0baa63011fd486912bafb1d5a6be774819326a912a0b61d8b62f87",
        "690c5aaeb80227081b0ececf75aa9af616aa5949c3c139cae4cdbba45e900a98",
    ),
    ("full", 11): (
        "4b0239b8321bbc0e1134a0d96fde4e96c69522cebcb4c99393ed0255941d8739",
        "f4301dbacfd018847374023537da42cf2527dcce480f50cad1e4d08408ba01c0",
    ),
    ("delta", 0): (
        "18f5c27cd854b1c30876139ea075795fcb9e43f2943fa3e68f606f069bff7468",
        "87d913f387d8fb202d61bbc9eeaa4245417e593116928b4bdfffdabad1973a4b",
    ),
    ("delta", 1): (
        "4d33307259546a883cc32c9a570f10beb5ef0af5cb69cef6b09c6e686b18514d",
        "b0a2140510f1457239b7413329127809f41c1d72b1ffa136f3072f1e47760275",
    ),
    ("delta", 2): (
        "f65bee8fe15b06c24e3e60b3bd1574b45a3a46445514c7ef48606a81ca4a5aa0",
        "bc58b68e7877cc066b63f55760718106d04b468b555731229e21126a53747723",
    ),
    ("delta", 3): (
        "9078cd2d77de6bcd29122d94e585d10948613b8e673b3140a00972183ee2f226",
        "0f50235379f8fea67025547bbc731f3e300ebcfdd5f982383644cf0ff545dd60",
    ),
    ("delta", 4): (
        "9dcd5eacc0f589440be48074c6890bb4a1180a808807b36b7bc84230c8ff9098",
        "25986be9c537fe326771fa1566a21d9884e00a922ae1f6bac4190f3784df4627",
    ),
    ("delta", 5): (
        "26b290d43e0efc464ae4cd14a21d61cff73792134b82545c45b7c72e69510fea",
        "22dbe9a1cb8eaf0745e77fa17a9a1a0589565a14bfe4b173b8d93feaca83fa25",
    ),
    ("delta", 6): (
        "0abee58b16da3a0dd382291bf66eb57819ad6398234175190669730fd16f0ddc",
        "2a41c0754e2ec2679015b702b561ac8cb2c19aae0b623bb84154873419ac8191",
    ),
    ("delta", 7): (
        "f9bf3288c9f04a78ac58ad72d8ea67ee9ae137126f97db649f626923d7523828",
        "aed391533e088c305a73ce0b76cd5af8648ba7b75746562a17d96517ef4bd194",
    ),
    ("delta", 8): (
        "15b60dab48be6ac43fc5d7a356a9bda67c4f7bafbff2ef37cb8ccf30bc96401e",
        "8956254d71d56b686dd9100932cfaaf766c68010bbd460a1b37f8c3465da2bbd",
    ),
    ("delta", 9): (
        "2150a66df9ee610da55b41d59459b1a715f34f3f934cf060033f6fc0c1a13296",
        "5cfa2b42d359b54a48bcea358462ef7085344efbb70feae0b6e29e5c1fdf53c1",
    ),
    ("delta", 10): (
        "42ff53acebfe1adba0e3a0eca64d553d274dda11b79eda689126f384e00452c1",
        "4056f84bd8124b461cad6cc14f65c7f72fab41110e630398a52a28a3ce500b12",
    ),
    ("delta", 11): (
        "6292d7e363c2c252b4e97323c16b796e71a2d761201a6d2aaecb3ea4a84cf30c",
        "510ff12681688e30a23187c4b789ae04d38770dcf53fc1f9ade2ae5fccf68180",
    ),
    ("dce", 0): (
        "43447b6026483b6b693abea6a164fd53970e3463718f740dc0821487721471c1",
        "071c366a65041045a38b2be22b6d35d18e181ee37ccdb16f6938764d824a7917",
    ),
    ("dce", 1): (
        "240a20e08c9a01fc1c898a22fb5ccb2cea12f128e9ef1c758149003c81d0c4a5",
        "a996338423cb28573f432210c22f8ef5065ffdfaef2c40918394853f6bcb534e",
    ),
    ("dce", 2): (
        "707f6a8bbefe3db5509d50c68686c07f9e818261d47e38b7053f8e7f1e7a34d1",
        "bfdcc90c0812f73e5c90b70e3ecbd60a39a4608d359841ff39a4045330a4071d",
    ),
    ("dce", 3): (
        "d51c5879eb56a53759c1d18bf24f848ec6c541ca551e3da12ca827b972fd641d",
        "b9d3978682f3408dbc450152151e60c1b3c25520b3440d0af0155b4507b53b34",
    ),
    ("dce", 4): (
        "de1327bc6bb190d2dd7fb2ff6cbce31976ad250793228c539920972885a8e577",
        "95736b431cfc1948ae8e596a58c576518342622b62bdb6d10d44e16987206095",
    ),
    ("dce", 5): (
        "69b2d89f49036489168c53408b07b8ca22dbf47ad84c6d6c412c359f944cf4b2",
        "f4ac0d380e92323bdf7621537c47c8e58a9269e03231911076c4464dcb927e89",
    ),
    ("dce", 6): (
        "d7e41fc9edb76736cbdbf84863e32631a4578acf0820cf4cfccaee09c3c2768e",
        "cc83c3f4856067aa0bd76ec1f66248d0d9e36ee2193c194bf7acdb52e3ad7a1b",
    ),
    ("dce", 7): (
        "d17d614b5fc280e7167e155c4ddd8c4ef1f413ca0b7f41f63260aed86c241352",
        "2baa3995a5c7d5e8836f21ce0fb7a29528619640b806176dec66d58082aec88d",
    ),
    ("dce", 8): (
        "781e93eb08f491f7ec66df24fab16b3fb0d6676c8e9e0c98fead3aded57b0134",
        "640a7fd2269e3c1097c7c810e17abeb348542f707c45039eb501ad6e98a9a48c",
    ),
    ("dce", 9): (
        "69a5cea350e3376bc5a6b9ff93319495221f8519ff5622f8c7b6c5f59f35bc9e",
        "ebdcb9b978428fd4dd767af4e45637953b82427893c704c4d81d13185a4ec661",
    ),
    ("dce", 10): (
        "0013b1b5bd0baa63011fd486912bafb1d5a6be774819326a912a0b61d8b62f87",
        "1324a3b6dd3491b8898f4548353d077e977ed4a0699d8b3397b4bcf14cf5bb2d",
    ),
    ("dce", 11): (
        "4b0239b8321bbc0e1134a0d96fde4e96c69522cebcb4c99393ed0255941d8739",
        "09d05bb835f698416aa7110ee4be40652aa14270cc3ac848fbe8057fd8126652",
    ),
}


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
SHAPE_DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "e993ed32b4fd105fb1e42a95b17715c1d13c36bca6ca735664dd132f57233dd3",
        "2ebcef4e961fbeec44374d512e5081d635019d658e0ac8b252db666035ae7849",
    ),
    ("modern", "full", 1): (
        "ac1157f474056958bb9f03be0f6ad113eb3f3df5586d7fe5e59a44513c120235",
        "87c744cb169610d342e81c95534ab15d9147bf591c659dc29dcac0ec9ba6238a",
    ),
    ("modern", "full", 2): (
        "0a3d1d3cb8c02108595e48c81be8542c445dd5234aa11a7887c9c6f0168ad281",
        "996e0d07404f363c746a4b6a21ab189c0fb1a64a2125076f075252b1ca84f791",
    ),
    ("modern", "delta", 0): (
        "e993ed32b4fd105fb1e42a95b17715c1d13c36bca6ca735664dd132f57233dd3",
        "8c507f590f6885be99e34846ff0b148ad2cdd324c5d608fd15764cbb6747b486",
    ),
    ("modern", "delta", 1): (
        "ac1157f474056958bb9f03be0f6ad113eb3f3df5586d7fe5e59a44513c120235",
        "157a8537efe41b29a1ac921de5fdf7a77e712cb78ced4a76a0401148952dfdaf",
    ),
    ("modern", "delta", 2): (
        "0a3d1d3cb8c02108595e48c81be8542c445dd5234aa11a7887c9c6f0168ad281",
        "8b0a258f6ba2b011f651737404ae80d07806484fa4b81a1dc5b2e46ae79c7409",
    ),
    ("modern", "dce", 0): (
        "e993ed32b4fd105fb1e42a95b17715c1d13c36bca6ca735664dd132f57233dd3",
        "2ebcef4e961fbeec44374d512e5081d635019d658e0ac8b252db666035ae7849",
    ),
    ("modern", "dce", 1): (
        "ac1157f474056958bb9f03be0f6ad113eb3f3df5586d7fe5e59a44513c120235",
        "87c744cb169610d342e81c95534ab15d9147bf591c659dc29dcac0ec9ba6238a",
    ),
    ("modern", "dce", 2): (
        "0a3d1d3cb8c02108595e48c81be8542c445dd5234aa11a7887c9c6f0168ad281",
        "996e0d07404f363c746a4b6a21ab189c0fb1a64a2125076f075252b1ca84f791",
    ),
    ("legacy", "full", 0): (
        "b6b85955e14cf4ec4c0859041202ab5f7f0d9844028e49200ed94ccc4fd2ae5f",
        "4f04da189831da46a8e92eb1dd8a22dc331b198b4128c0d11363c14176ed0b00",
    ),
    ("legacy", "full", 1): (
        "91c9d39eb222f60b0a4ec49642ab0c7e68df80cc52e31fb40a7747eb09ff2f4c",
        "b01ac24a656e24846fb50ed21f274d4107867e08de74f20e1b812f273e5ac221",
    ),
    ("legacy", "full", 2): (
        "ce12d70fc495b8b01d051fdac2ea93ba38df15780132bdd3d9f649a02cfe76f9",
        "6bf596f1af8fc879793ae8c616e76ea3b11745afaae5fb202b18bee5bac923b6",
    ),
    ("legacy", "delta", 0): (
        "b6b85955e14cf4ec4c0859041202ab5f7f0d9844028e49200ed94ccc4fd2ae5f",
        "5e2421ba5a0525150ae9c3a4a1c41f42be690838f994eedd60903bcdf01d14c5",
    ),
    ("legacy", "delta", 1): (
        "91c9d39eb222f60b0a4ec49642ab0c7e68df80cc52e31fb40a7747eb09ff2f4c",
        "d6f0ce4ff897fbf2cfb1ac8353574a8865fdcdabd467f06ac3f7206d55d8c9b7",
    ),
    ("legacy", "delta", 2): (
        "ce12d70fc495b8b01d051fdac2ea93ba38df15780132bdd3d9f649a02cfe76f9",
        "5c3653185b5fb109abc3fc142a7af99272e78372ad2177b645363a73c12a80d7",
    ),
    ("legacy", "dce", 0): (
        "b6b85955e14cf4ec4c0859041202ab5f7f0d9844028e49200ed94ccc4fd2ae5f",
        "4f04da189831da46a8e92eb1dd8a22dc331b198b4128c0d11363c14176ed0b00",
    ),
    ("legacy", "dce", 1): (
        "91c9d39eb222f60b0a4ec49642ab0c7e68df80cc52e31fb40a7747eb09ff2f4c",
        "b01ac24a656e24846fb50ed21f274d4107867e08de74f20e1b812f273e5ac221",
    ),
    ("legacy", "dce", 2): (
        "ce12d70fc495b8b01d051fdac2ea93ba38df15780132bdd3d9f649a02cfe76f9",
        "6bf596f1af8fc879793ae8c616e76ea3b11745afaae5fb202b18bee5bac923b6",
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
