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

The table below pins a SHA-256 of both bodies per case. A change that
moves any byte of either fails here; a change of the wire format on
purpose regenerates the table with ``python -m tests.test_wire_digests``
and says so. The caller"s restored state is checked against a local call
as well, so a table regenerated over a broken encoder cannot pass.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import pytest

from repro.bench.mutators import TreeService
from repro.bench.trees import generate_workload
from repro.core.copy_restore import RestoreEngine
from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.core.semantics import PassingMode, resolve_modes
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

SCENARIO = "III"
NODES = 64
SPARSE_FRACTION = 0.05
SEEDS = range(12)
POLICIES = ("full", "delta", "dce")
#: Profile → the implementation (accessor) an endpoint pairs it with.
PROFILES = {"modern": "optimized", "legacy": "portable"}


def call_bodies(
    seed: int, policy_name: str, profile_name: str, schema: Optional[tuple] = None
) -> Tuple[bytes, bytes]:
    """One call"s (request body, reply body); asserts the caller ends up
    where a local call leaves it. *schema* is a connection"s
    ``(SchemaTxCache, SchemaRxCache)`` pair; the definitions the request
    carried count as confirmed once the server has decoded it."""
    schema_tx, schema_rx = schema or (None, None)
    profile = profile_by_name(profile_name)
    accessor = accessor_by_name(PROFILES[profile_name])
    delta = policy_name == "delta"

    def arguments(tree):
        if delta:
            return (tree.root, seed, SPARSE_FRACTION)
        return (SCENARIO, tree.root, seed)

    method = "mutate_sparse" if delta else "mutate"
    tree = generate_workload(SCENARIO, NODES, seed)
    args = arguments(tree)
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
    result = getattr(TreeService(), method)(*server_args)
    reply = policy.build_response(result, context, snapshot)

    client = ClientRestoreContext(
        originals=originals, profile=profile,
        engine=RestoreEngine(accessor=accessor, opaque=is_opaque_remote),
    )
    restored, _stats = policy.parse_response(reply, client)
    local = generate_workload(SCENARIO, NODES, seed)
    expected = getattr(TreeService(), method)(*arguments(local))
    assert (restored, tree.visible_data()) == (expected, local.visible_data())
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


def _schema_table() -> Dict[Tuple[str, int], Tuple[str, str]]:
    return {
        (policy, seed): tuple(map(_sha, schema_call_bodies(seed, policy)))
        for policy in POLICIES
        for seed in SEEDS
    }


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "30c607488dc2b8aca872a9d349de2231373d954aeab9bbc1794bdd19fc62d05a",
        "011fb51a94145fa761db1de20e30ed4c4d17bac8363a8074cf95d62d5fe0823a",
    ),
    ("modern", "full", 1): (
        "5878670dfe3f6798da7b071c516ff1f32a5058f4a575d28db5c08c2878dd2c53",
        "85de948eac52d0a18c85edd8019c50ce8ec036ff0b75cbdd1162eaa59cbbce04",
    ),
    ("modern", "full", 2): (
        "d395c55a341853d8737e5d8531305b9edb0536b2d34b57b638338454418635cd",
        "86988c322db91c9e50685ef86b36c1a2fba64be61b0ec4c68fcc4855acedac0c",
    ),
    ("modern", "full", 3): (
        "e5049158aa000370bdb5ca80796a86cf5d50b43fed2f2a98e8ec04325f2beb1f",
        "05176b9fcdee811d34f63f4f823c8e4548e756d7e18db509ebbb65cdcb2aca4a",
    ),
    ("modern", "full", 4): (
        "b7d464b24722abe56ae77950bd75c6681378ddccaa8df855582fbbcb28e0c68c",
        "e018952f44cf706b82e6ed862c71c55e03f5ff9dd28d94558c6e0e1ca9551d1e",
    ),
    ("modern", "full", 5): (
        "41aac67c26fcbbae95f1256506310b3a862b7ea296a2fdd11b4464a844dfa24c",
        "19feba37c5ac3b8a70c3086307eab15f159a5eee4bd403c023ed1bf4c627da3a",
    ),
    ("modern", "full", 6): (
        "62041d7b0021e8b1e419607d56f9eec89da3958098c37e784a70103ff791cae1",
        "9d601dd877941db69a8fbfa02b64b5477c6c0cb59f387a20d70f91094bdd8ed7",
    ),
    ("modern", "full", 7): (
        "232c35ed8d1485c874bc400a891ef0a9f301eac62df0045f85d36ee7e5b1360b",
        "72c30be89ad9ae17c444f547aace1a727118acba79bfd0f958e5d4579fbcac83",
    ),
    ("modern", "full", 8): (
        "898dbca83172e3a9919a91d79292487bfbf082353f8493e19ce6d9c6da4931e5",
        "cdb5fe9d43f84a37afd0ef4e9d4f559d59b49d385175952475a010af3d6c28cf",
    ),
    ("modern", "full", 9): (
        "508fc2691ee705f1f50018bdb2961d14687b2d902246e2486abbfb029f3fc354",
        "d4f3036cab35589238323b4f6b49b4d9938711b73c39161bbd776a1d8b14ab9b",
    ),
    ("modern", "full", 10): (
        "09294f4b060587624006303727705a700cf366558e263eeda97ddd5f392cf241",
        "1503fcc85bcea8548ff89237b8c40bdde6fea09391e65b87ee6c6962bfb61f2d",
    ),
    ("modern", "full", 11): (
        "a2735f85e0966cde4195075d051b516d2d24740fba5b38239e9e90dbee6854c8",
        "fecb9569fda23fe05563dedf653a238596ae75be21230d95116acf8b98e58f71",
    ),
    ("modern", "delta", 0): (
        "ab9ddfd6f34aded84b9142b28dec44aabd20a801e5892260bffd856bc92b9100",
        "c6d15eff913511ce90b1f429d4149ee50c163dd40e46e04a8ea9700fbd2e5417",
    ),
    ("modern", "delta", 1): (
        "0519dc4910b2e7bd6fc59c1c1c7ea27927169c0a51a622450104b3f504bc4162",
        "eb4360eb9635daae176ed60ac922e9937e4e76bde88cb716130f84515c11005b",
    ),
    ("modern", "delta", 2): (
        "9f2230e30ffd7755a55b03a4008332b2d8e061e1b2228df43052fba500c580b0",
        "374ec587dbb8b4221106fd401d70fdf64404a4ca08c39e99c2a20eb844741731",
    ),
    ("modern", "delta", 3): (
        "a9c17de79d6f61edf4d9d2128504a3bf9482522fe1d9bb4a3436f96debfc26ab",
        "5eef997b10f39ff183feda79cd21fc722362883361ffbeccd72f40b12fd23411",
    ),
    ("modern", "delta", 4): (
        "e7c1cedc3bdbee949193d171f7aadc24118a8eeb75bbda1edb92b44a9f6a695f",
        "44811793259dc08953954095107ffd0db863e791bc66021b38a6e14c2d89b9d4",
    ),
    ("modern", "delta", 5): (
        "79569c670c450b10f691c563c77c25469dab71480adeea3735edceb0df4ed940",
        "34067a688645fab900dab7cdf1188d08ccd36ea4ed3516b173d46782d846929d",
    ),
    ("modern", "delta", 6): (
        "84a13835e64b18eaf3f3bc4a99c694d111d4d019ca01ef18c8d6a3c1744e8c23",
        "8aad351ab3d53e8706d0fcd94fd4e965a7a28b4c8a784752fd69df25c6b79367",
    ),
    ("modern", "delta", 7): (
        "0fb69405670309e33baf2bff0657072c73206556178f22273447c9dbddcdb3d1",
        "a321e1c1abead540b7a343cb91738a82440e8ca7071d2adb908010d92bb58539",
    ),
    ("modern", "delta", 8): (
        "a87c14edb7ae3cd0a85192fc1dc902b41fd060427fc5c5d0ff0374df75c41886",
        "2caf593d807c7ea4db84da1cc6f368b729087b5b1a26381e6bca003e94113cba",
    ),
    ("modern", "delta", 9): (
        "7115205b5bb54e3edfe67ae4b8eeda932cf98265bf616f97caad1221cd64c06f",
        "e65e2c5727bd2e7a38c61281b0dfb8c39b8c81b763430d0caba17f98e8bd481f",
    ),
    ("modern", "delta", 10): (
        "b085eb49c1ebe2464e7e63c4ae2f55d5cac2210320e50754436353e785ceb553",
        "f34c38774149d0d9c84543cf3c5f880fcedee6151e97850883027ece65e0be6b",
    ),
    ("modern", "delta", 11): (
        "ad95d8aa3226d18aab0e5ea7f3eb006cc8bc5fefc80bd6b48d2e22b0168dd4e7",
        "e754aca7644ed704a7bf96987b8a03a5036a6dea546327c48f5cd4b9a5f16994",
    ),
    ("modern", "dce", 0): (
        "30c607488dc2b8aca872a9d349de2231373d954aeab9bbc1794bdd19fc62d05a",
        "34faaa1f0aa6901797f29d7520bd42c98fa0a88a941eb143578cbf6f706b8a93",
    ),
    ("modern", "dce", 1): (
        "5878670dfe3f6798da7b071c516ff1f32a5058f4a575d28db5c08c2878dd2c53",
        "07cd65594253b89a4eaf564742e921914a769ef26367034816272d8ea7a04bef",
    ),
    ("modern", "dce", 2): (
        "d395c55a341853d8737e5d8531305b9edb0536b2d34b57b638338454418635cd",
        "2262877a01ff50cd1ec387cced4eb379f777d19b9da3afa1bed7c856e0232882",
    ),
    ("modern", "dce", 3): (
        "e5049158aa000370bdb5ca80796a86cf5d50b43fed2f2a98e8ec04325f2beb1f",
        "c2a05054d8fec5527e6223606dc25808fd1159eab7ac88135a81c6a4aca55fa5",
    ),
    ("modern", "dce", 4): (
        "b7d464b24722abe56ae77950bd75c6681378ddccaa8df855582fbbcb28e0c68c",
        "2632543f39acf2e7b6e8198c36b8ba56c0fa564864715412001732afe149c16c",
    ),
    ("modern", "dce", 5): (
        "41aac67c26fcbbae95f1256506310b3a862b7ea296a2fdd11b4464a844dfa24c",
        "14eaa2dbb0e02039e541778ff48d15472ea2997d56ba571dc6e8b7ead28e6f67",
    ),
    ("modern", "dce", 6): (
        "62041d7b0021e8b1e419607d56f9eec89da3958098c37e784a70103ff791cae1",
        "0df0bb64bb34b9b07d412e8064bf0f263bbf5e671766ede500e47994d6bbd84d",
    ),
    ("modern", "dce", 7): (
        "232c35ed8d1485c874bc400a891ef0a9f301eac62df0045f85d36ee7e5b1360b",
        "dc1cf1eca296aaa2c1557ef31e1b6e78f4f22c5c74b518456d6079cf3eb53f18",
    ),
    ("modern", "dce", 8): (
        "898dbca83172e3a9919a91d79292487bfbf082353f8493e19ce6d9c6da4931e5",
        "e81bcab1674998d6e1d07a940ef718b5e466f999b27e780335cf59178fb14a43",
    ),
    ("modern", "dce", 9): (
        "508fc2691ee705f1f50018bdb2961d14687b2d902246e2486abbfb029f3fc354",
        "96e174e254d652fb6f7dbd40fe3381fa97920d34613b6c07cc4657b78b8fce95",
    ),
    ("modern", "dce", 10): (
        "09294f4b060587624006303727705a700cf366558e263eeda97ddd5f392cf241",
        "7e9704a74b388cedf5d420b21fec7466ced95277401d147f2ce7bcb105994412",
    ),
    ("modern", "dce", 11): (
        "a2735f85e0966cde4195075d051b516d2d24740fba5b38239e9e90dbee6854c8",
        "398da3b2938639d379de142349730267b95ec0a99f45844e5568d131e2353b48",
    ),
    ("legacy", "full", 0): (
        "c8e3e6224fcf4125773aa8749d92e4123076fb4883c64f5ce0a36e06fbb2580a",
        "e5754ea9a3c6240c16feffa48c59c079abee9e7693f8740b96208d2c238e3298",
    ),
    ("legacy", "full", 1): (
        "88fa4fe1a96d192c5c6f4affc72f0ff4ea44f6ab1e379f93bee367b720975070",
        "aa6fa93fe01b746a88315369f1b9dc7c1199e573cc5dea55c4eba833dbcfc212",
    ),
    ("legacy", "full", 2): (
        "ecd75e07f95a856bbd877cfe608a1d41f9e910190c59367181c9e9b012818d14",
        "766524256337fba89e0e87fc869780ee2d30082d242e06f4563705f5bb29d6ee",
    ),
    ("legacy", "full", 3): (
        "ebf7dbb9bcf13dd994ecfc212cb7025744b9a276a2b18963d705a17288ddf922",
        "e53e049a0795de1fab872df07844afecea9b7bb355b14bd52766dee386e93dd6",
    ),
    ("legacy", "full", 4): (
        "49b164b10f7d51185072dd786187d806aa52820ff116ff9369b68528da344e1a",
        "04e509bc1515893f59f4968ce882992c507c24feb432a24732fea46a2cb98286",
    ),
    ("legacy", "full", 5): (
        "cdb3f51e940aba0bb8a3eda5bfb128659d95c5af170bb86fe9ee0508099e4f27",
        "774aab586c43bb4a0fc56510a4f814c977757dac38266049827c5c4bba295711",
    ),
    ("legacy", "full", 6): (
        "7b4255ade165a18d262fff412113027c533f52fb2f64502625db9a607f50f1c5",
        "c9117f6b97ba37acf866fb2f211f8f9ff87925b34e9571d9b58abf2d939b45db",
    ),
    ("legacy", "full", 7): (
        "0ddb586ece7abec3fb2ee912087bd8a97ba7a25d79f3e44461653f301bad0ed5",
        "4efa493c8b0f67b8f65a9dda0b03705cd3c0f747cf170f14e89909689a9b7abf",
    ),
    ("legacy", "full", 8): (
        "65a8c72f2b6f27a962a1ffeebc68c6d3ecb3719405be9bee95c72522988fc71f",
        "6b1ac38dbcbec7b3b2cf9f4fcc48b59544de13f7007d70ba1e7e196c028f4c14",
    ),
    ("legacy", "full", 9): (
        "df3a86915679c3857c7be807113baedc074cb31cb4695cb39998d53a66815835",
        "3906894fa7ea4cde496fdc6e2d01f13910621103a14db96227d89a489bb7ce79",
    ),
    ("legacy", "full", 10): (
        "25d3012ee6ca0fec0fefdd5c1fd008dfc09021165d79d25dc7481f735aff91bc",
        "bbd3100fbdfe9ca1759daa7480a46b4b8618ff0750c35fdc1fb64e9e804898e4",
    ),
    ("legacy", "full", 11): (
        "3ec0c3e2dcc9515695f2a2905c660ed6687c300dccf3118e481a9fe85b9ca642",
        "daba07b29766f8c5df13628f9d6508328751a6f57e6f7fc4cc4f07deaa4a6223",
    ),
    ("legacy", "delta", 0): (
        "e79a8b70046d523fd531cb5abcdfd43080144bc534940871d5436b7f75d71d72",
        "96ffd057c2e407148db58878a0b145428c2259e1425b790e5a8ec31446204723",
    ),
    ("legacy", "delta", 1): (
        "4097fbf953842251d236ac3960e6aae0b3b99a3384a8867fccc1f836e67585ed",
        "403c71eabef7e4197112459ca99f073bcddbdd29286fcf45976d2809ee7cf777",
    ),
    ("legacy", "delta", 2): (
        "2ec5d86223d2485d26c09b651d03202f248a54cf376ff95186718a0d067497d8",
        "4c200cffa44da956bcf56b7fbe7f149c5692c7d454f44254eddf49f453f6c886",
    ),
    ("legacy", "delta", 3): (
        "e23e456bc3bb39f7d730bcd69bb06bdba0851775383fa4a3e4eebad363852f25",
        "d9e59874548eeb05b32386fc967b0e9639ef2b4d9d02415303203f1ada8988ba",
    ),
    ("legacy", "delta", 4): (
        "6feb3afe6d724b0e3c01b1dec8708d204b36c30894849b3aa74ddaa82b901148",
        "0902413d07f9cee7684fe935b6d5e057403f35985d269a14fd1a0d0b10cdb453",
    ),
    ("legacy", "delta", 5): (
        "c913ee859238f2610e5f2f771a1ca3aae31c56832b7bbb2e44da188f45abc6d0",
        "6130babc5f6a604507667876ea6e0b24b452b6e2e4f39e05679bc581ca3084c4",
    ),
    ("legacy", "delta", 6): (
        "a1a100743a7615b9fb3c82ee40ca4d24eeabbd83e4af4532ee27b89712297aef",
        "ada7ddafaa7277ef090f6fb76899a105a82e2b715904b5bf54b9e366a7b832ab",
    ),
    ("legacy", "delta", 7): (
        "f66e11c6b0ba6ef1f3fe0a9d22416ad85d072ab57c6e5b9ad1ec812e70ce9044",
        "53f2b4bdfac7faa42b74d2f2f8b6ffda75970219d020e4af056484d538b5fdd3",
    ),
    ("legacy", "delta", 8): (
        "45322bdaf491830fa315f9d42b1c0e0a6d942755df226b1c8058809afd9b16e2",
        "65245d3642f2bfdd44815d8eb877d017147f33368baa5eb79d87b3bfc1dee127",
    ),
    ("legacy", "delta", 9): (
        "a4b0daf8974d7b0e77b0617bd85a433bfd00abca98e067baac52455dc9b7ca65",
        "4ed69652145d10507e35ab26f463d5773d931c894034398eb6845065c94655b0",
    ),
    ("legacy", "delta", 10): (
        "cd0ad31e8d506bec2b3f778aa0fd31269e86224ad1732a5ff217d3e2b6c1bf53",
        "b18ea2991a035e2adc014e30245636422f8ddbbb035c308e6f83ed0d15b4f649",
    ),
    ("legacy", "delta", 11): (
        "d2c6ec482ba2f98e0bf43b1b2414c317fed3a44db31f2087306ceac7e381658c",
        "e754aca7644ed704a7bf96987b8a03a5036a6dea546327c48f5cd4b9a5f16994",
    ),
    ("legacy", "dce", 0): (
        "c8e3e6224fcf4125773aa8749d92e4123076fb4883c64f5ce0a36e06fbb2580a",
        "8b46b85c81b7836f557e0ad8e34ece2e47758a2975d595eda3694178a4334c0f",
    ),
    ("legacy", "dce", 1): (
        "88fa4fe1a96d192c5c6f4affc72f0ff4ea44f6ab1e379f93bee367b720975070",
        "b789d495af89de74483e9b06b29fd2b505fe42f085a3f0407f9ce9fc9a1fa340",
    ),
    ("legacy", "dce", 2): (
        "ecd75e07f95a856bbd877cfe608a1d41f9e910190c59367181c9e9b012818d14",
        "12946a33b7d20f285773e6a729d75ae0d52aceb51bd5768685c837e1337c5578",
    ),
    ("legacy", "dce", 3): (
        "ebf7dbb9bcf13dd994ecfc212cb7025744b9a276a2b18963d705a17288ddf922",
        "446b690da41b7bae6b9a50b47aafba1751f4ef86da7192ac8f5e0289bb5d3fd2",
    ),
    ("legacy", "dce", 4): (
        "49b164b10f7d51185072dd786187d806aa52820ff116ff9369b68528da344e1a",
        "f2d52ae9f6811a8aaabcbbc17c895d2bd69fbbf665e066dc25a5c1cdc23272c7",
    ),
    ("legacy", "dce", 5): (
        "cdb3f51e940aba0bb8a3eda5bfb128659d95c5af170bb86fe9ee0508099e4f27",
        "f9823ac7783ad40c2e85e0ef57d13e4a5b9260d363abd0055236c303bbeafec2",
    ),
    ("legacy", "dce", 6): (
        "7b4255ade165a18d262fff412113027c533f52fb2f64502625db9a607f50f1c5",
        "050a327aaf1292c667f04b5871b32f26a4d6f57b67b539c57a389494f90b6cd1",
    ),
    ("legacy", "dce", 7): (
        "0ddb586ece7abec3fb2ee912087bd8a97ba7a25d79f3e44461653f301bad0ed5",
        "161fdda3a5cfdf5e912a493330011a85501354ea45ef8f88b709c2bfafb7123c",
    ),
    ("legacy", "dce", 8): (
        "65a8c72f2b6f27a962a1ffeebc68c6d3ecb3719405be9bee95c72522988fc71f",
        "db20a8d433fc4da3662ea6ac5cd5ff9426776816c39e9edcc3a5d7a520a46e7e",
    ),
    ("legacy", "dce", 9): (
        "df3a86915679c3857c7be807113baedc074cb31cb4695cb39998d53a66815835",
        "fb4d42a6a5d2a9df1b798efe1a77114e6de97d762cb9001b9ebbff3a595cd077",
    ),
    ("legacy", "dce", 10): (
        "25d3012ee6ca0fec0fefdd5c1fd008dfc09021165d79d25dc7481f735aff91bc",
        "adeceaad4f400453afa11f57eb7e047666bf348aeada0d00eee5349cc84e6818",
    ),
    ("legacy", "dce", 11): (
        "3ec0c3e2dcc9515695f2a2905c660ed6687c300dccf3118e481a9fe85b9ca642",
        "7f90b2976e423eedde6061267b68ad0e038ef193852d932c6bed98297fa89e0f",
    ),
}

#: (policy, seed) → the schema-on second call's (request, reply) sha256.
SCHEMA_DIGESTS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("full", 0): (
        "2581f39706151787a6816fb62b26b456bc9b896a27d220827b25f7c4712082e8",
        "011fb51a94145fa761db1de20e30ed4c4d17bac8363a8074cf95d62d5fe0823a",
    ),
    ("full", 1): (
        "3c823d4132704389f3e667b44a637bd9d0e1b95462daa28bf015c5ab128458fa",
        "85de948eac52d0a18c85edd8019c50ce8ec036ff0b75cbdd1162eaa59cbbce04",
    ),
    ("full", 2): (
        "3a586ff69b3d9338b33e1a6724628945ed4256907b8fb8335eac41b6d44c82e0",
        "86988c322db91c9e50685ef86b36c1a2fba64be61b0ec4c68fcc4855acedac0c",
    ),
    ("full", 3): (
        "5f2511199a21a2e455434646f8cd54a3eabe760c6d1f8e17d8319c6d190a0b61",
        "05176b9fcdee811d34f63f4f823c8e4548e756d7e18db509ebbb65cdcb2aca4a",
    ),
    ("full", 4): (
        "9644db277d0a9f7a31e015b239cfe9c8c50dcee1ef4c1ec1f8af228e32ea6801",
        "e018952f44cf706b82e6ed862c71c55e03f5ff9dd28d94558c6e0e1ca9551d1e",
    ),
    ("full", 5): (
        "07936546a8b3965e5f6e5d83ad87e644955bb2b8c3bf6c5b266072d3bed5ca72",
        "19feba37c5ac3b8a70c3086307eab15f159a5eee4bd403c023ed1bf4c627da3a",
    ),
    ("full", 6): (
        "f005365e379ed319a41822b5363a4da76c1d35e25e844811fbbbc61861720a91",
        "9d601dd877941db69a8fbfa02b64b5477c6c0cb59f387a20d70f91094bdd8ed7",
    ),
    ("full", 7): (
        "8127e5daf539f34e063b5419b07e7db84916d4702572c99b82aecafc2a4ca61b",
        "72c30be89ad9ae17c444f547aace1a727118acba79bfd0f958e5d4579fbcac83",
    ),
    ("full", 8): (
        "7a0c2ae48f78f841f07e695cafde67238f250dd53e5257db32d5bb1e434dfda4",
        "cdb5fe9d43f84a37afd0ef4e9d4f559d59b49d385175952475a010af3d6c28cf",
    ),
    ("full", 9): (
        "b7915cee7f36784e01e872f29384b1de8ae797098898aaf4e2ec39ce92be5868",
        "d4f3036cab35589238323b4f6b49b4d9938711b73c39161bbd776a1d8b14ab9b",
    ),
    ("full", 10): (
        "976fe063eed5bdd5802d881faf91bd1b08b5e296679c279c07bde76992bb6976",
        "1503fcc85bcea8548ff89237b8c40bdde6fea09391e65b87ee6c6962bfb61f2d",
    ),
    ("full", 11): (
        "c23661e98cfd3333c37635641703136e304540bf903279138dddce29c4592751",
        "fecb9569fda23fe05563dedf653a238596ae75be21230d95116acf8b98e58f71",
    ),
    ("delta", 0): (
        "b6eadec5a689a3886e36b8d815975a2b17bc8c2ebec6379813d3771b69a8d4a5",
        "c6d15eff913511ce90b1f429d4149ee50c163dd40e46e04a8ea9700fbd2e5417",
    ),
    ("delta", 1): (
        "c8a92f1c65304e08d2a8d7f86c3b3fd3bb3aad1508383ff36037d9aa75af656d",
        "eb4360eb9635daae176ed60ac922e9937e4e76bde88cb716130f84515c11005b",
    ),
    ("delta", 2): (
        "e523b00d5ff81f7a9b0758d89f59675e4f57ef3614e44d7310b54a447263f84d",
        "374ec587dbb8b4221106fd401d70fdf64404a4ca08c39e99c2a20eb844741731",
    ),
    ("delta", 3): (
        "564244fbb1028c580093d148bdb9bf9179fab4beb93b49d72fd495aa8f48d289",
        "5eef997b10f39ff183feda79cd21fc722362883361ffbeccd72f40b12fd23411",
    ),
    ("delta", 4): (
        "ade8c65f89bc143a3433bff9beb63daac748ef631a4b1901e79b60bbf5dff63c",
        "44811793259dc08953954095107ffd0db863e791bc66021b38a6e14c2d89b9d4",
    ),
    ("delta", 5): (
        "2653fb5a01ce8d2c5fdbdc09f58d56ecba531f184150d69943f03de796e18eb3",
        "34067a688645fab900dab7cdf1188d08ccd36ea4ed3516b173d46782d846929d",
    ),
    ("delta", 6): (
        "280fbf1eb31409687fdd7318546842ef08888d6658e6d6d39b3332c8531c02a9",
        "8aad351ab3d53e8706d0fcd94fd4e965a7a28b4c8a784752fd69df25c6b79367",
    ),
    ("delta", 7): (
        "e91a5cc378f5d91cb3548f481e78d79c9b67eb8afeabb269be377771bf85e580",
        "a321e1c1abead540b7a343cb91738a82440e8ca7071d2adb908010d92bb58539",
    ),
    ("delta", 8): (
        "c8d1595c685dc71cb46cd3c1e804b5053b1dfd92a0d8512af566ac44464620e5",
        "2caf593d807c7ea4db84da1cc6f368b729087b5b1a26381e6bca003e94113cba",
    ),
    ("delta", 9): (
        "322c2f37b06cac0f239fb54c5d25ea1d5c3dca84840b3f9afc4727cce0799f21",
        "e65e2c5727bd2e7a38c61281b0dfb8c39b8c81b763430d0caba17f98e8bd481f",
    ),
    ("delta", 10): (
        "12773dd78005bd1788e8cf6a128a0f5f6de3abca2c76089f9fe157baa639ac63",
        "f34c38774149d0d9c84543cf3c5f880fcedee6151e97850883027ece65e0be6b",
    ),
    ("delta", 11): (
        "ae169993edcb0766fb23f90ca4453aa8dd173ec690c183e6456057b5574786de",
        "e754aca7644ed704a7bf96987b8a03a5036a6dea546327c48f5cd4b9a5f16994",
    ),
    ("dce", 0): (
        "2581f39706151787a6816fb62b26b456bc9b896a27d220827b25f7c4712082e8",
        "34faaa1f0aa6901797f29d7520bd42c98fa0a88a941eb143578cbf6f706b8a93",
    ),
    ("dce", 1): (
        "3c823d4132704389f3e667b44a637bd9d0e1b95462daa28bf015c5ab128458fa",
        "07cd65594253b89a4eaf564742e921914a769ef26367034816272d8ea7a04bef",
    ),
    ("dce", 2): (
        "3a586ff69b3d9338b33e1a6724628945ed4256907b8fb8335eac41b6d44c82e0",
        "2262877a01ff50cd1ec387cced4eb379f777d19b9da3afa1bed7c856e0232882",
    ),
    ("dce", 3): (
        "5f2511199a21a2e455434646f8cd54a3eabe760c6d1f8e17d8319c6d190a0b61",
        "c2a05054d8fec5527e6223606dc25808fd1159eab7ac88135a81c6a4aca55fa5",
    ),
    ("dce", 4): (
        "9644db277d0a9f7a31e015b239cfe9c8c50dcee1ef4c1ec1f8af228e32ea6801",
        "2632543f39acf2e7b6e8198c36b8ba56c0fa564864715412001732afe149c16c",
    ),
    ("dce", 5): (
        "07936546a8b3965e5f6e5d83ad87e644955bb2b8c3bf6c5b266072d3bed5ca72",
        "14eaa2dbb0e02039e541778ff48d15472ea2997d56ba571dc6e8b7ead28e6f67",
    ),
    ("dce", 6): (
        "f005365e379ed319a41822b5363a4da76c1d35e25e844811fbbbc61861720a91",
        "0df0bb64bb34b9b07d412e8064bf0f263bbf5e671766ede500e47994d6bbd84d",
    ),
    ("dce", 7): (
        "8127e5daf539f34e063b5419b07e7db84916d4702572c99b82aecafc2a4ca61b",
        "dc1cf1eca296aaa2c1557ef31e1b6e78f4f22c5c74b518456d6079cf3eb53f18",
    ),
    ("dce", 8): (
        "7a0c2ae48f78f841f07e695cafde67238f250dd53e5257db32d5bb1e434dfda4",
        "e81bcab1674998d6e1d07a940ef718b5e466f999b27e780335cf59178fb14a43",
    ),
    ("dce", 9): (
        "b7915cee7f36784e01e872f29384b1de8ae797098898aaf4e2ec39ce92be5868",
        "96e174e254d652fb6f7dbd40fe3381fa97920d34613b6c07cc4657b78b8fce95",
    ),
    ("dce", 10): (
        "976fe063eed5bdd5802d881faf91bd1b08b5e296679c279c07bde76992bb6976",
        "7e9704a74b388cedf5d420b21fec7466ced95277401d147f2ce7bcb105994412",
    ),
    ("dce", 11): (
        "c23661e98cfd3333c37635641703136e304540bf903279138dddce29c4592751",
        "398da3b2938639d379de142349730267b95ec0a99f45844e5568d131e2353b48",
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


if __name__ == "__main__":
    print("DIGESTS")
    for (profile, policy, seed), (request_sha, reply_sha) in _table().items():
        print(f'    ("{profile}", "{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
    print("SCHEMA_DIGESTS")
    for (policy, seed), (request_sha, reply_sha) in _schema_table().items():
        print(f'    ("{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
