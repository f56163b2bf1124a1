"""Golden wire digests: the bytes of a call"s request and reply bodies.

Every case is one call on a 64-node scenario-III tree, taken apart the
way the server"s ``handle_call`` runs it: the caller marshals the
arguments (the *request body*), the server unmarshals them — with the
fused state capture when the policy is ``delta`` — computes the retained
set, runs the method and builds the reply (the *reply body*, what follows
the applied-policy byte). ``full`` and ``dce`` cases call
``TreeService.mutate``; ``delta`` cases call ``mutate_sparse`` at 5 %
and answer with a delta-slots reply. Streams carry inline class
descriptors (no session schema cache).

The table below pins a SHA-256 of both bodies per case. A change that
moves any byte of either fails here; a change of the wire format on
purpose regenerates the table with ``python -m tests.test_wire_digests``
and says so. The caller"s restored state is checked against a local call
as well, so a table regenerated over a broken encoder cannot pass.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

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
from repro.serde.writer import ObjectWriter

SCENARIO = "III"
NODES = 64
SPARSE_FRACTION = 0.05
SEEDS = range(12)
POLICIES = ("full", "delta", "dce")
#: Profile → the implementation (accessor) an endpoint pairs it with.
PROFILES = {"modern": "optimized", "legacy": "portable"}


def call_bodies(seed: int, policy_name: str, profile_name: str) -> Tuple[bytes, bytes]:
    """One call"s (request body, reply body); asserts the caller ends up
    where a local call leaves it."""
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

    writer = ObjectWriter(profile=profile)
    for arg in args:
        writer.write_root(arg)
    request = writer.getvalue()
    roots = [arg for arg, mode in zip(args, modes) if mode is PassingMode.BY_COPY_RESTORE]
    originals = compute_retained(writer.linear_map, roots, accessor)

    reader = ObjectReader(
        request, profile=profile, digest_accessor=accessor if delta else None
    )
    server_args = [reader.read_root() for _ in args]
    reader.expect_end()
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


def _table() -> Dict[Tuple[str, str, int], Tuple[str, str]]:
    return {
        (profile, policy, seed): tuple(map(_sha, call_bodies(seed, policy, profile)))
        for profile in PROFILES
        for policy in POLICIES
        for seed in SEEDS
    }


#: (profile, policy, seed) → (sha256 of the request body, of the reply body).
DIGESTS: Dict[Tuple[str, str, int], Tuple[str, str]] = {
    ("modern", "full", 0): (
        "7f6db3829c3e9ac81707f30ce9910b7b9489aca44f35df2d8e45494beed5bbab",
        "cd0974a2cd37b5397d84d127af0086c24d9a6a134ba5be6ebb21f3281976e4d4",
    ),
    ("modern", "full", 1): (
        "ee3ce74ac8f78e53d0474f484c9384f6e7ef6e2b2adbb2f6b98a9e50b42c1406",
        "8670d70795ac491951f5378bac93e4d0fbb3c2e57e439410fb6957ff30d76b16",
    ),
    ("modern", "full", 2): (
        "9e8dbf8ac4d2ea236b6ea402b37c61a8c2de14d0a752991be6d64f9795668f00",
        "8de8e257683ab66addfb86ff9283b86e7c524ec41b70a39c78c60118bf30cd2e",
    ),
    ("modern", "full", 3): (
        "45df4fcd4da036e5a288f28f5b00553ed5bc670eade3cd5dad2bf7c61b899370",
        "7e91099c31a69fdf906ceb471d93dc95a148beeee86fffc0c6d0e80423aa804c",
    ),
    ("modern", "full", 4): (
        "c963c99c4a7856f7a60a7079c7959e6239e7f18983dd1c126265dd746101527a",
        "e48e5f6a6584a7f64bdddd3f781cf3c5e88db3cedc7db8c3e5e8014b308ddb52",
    ),
    ("modern", "full", 5): (
        "6b5c8ee9164a4e099742674806ca83f5d819db01fd9c86bdb112c1db5371115f",
        "f086a6d5e0e994c309593ec6ed37a06d6c5dc158e6bbaa23d2b73ba601766d01",
    ),
    ("modern", "full", 6): (
        "d9b7f100a365582209d21c71f9c21cd6f2022444d3716d43c65d365a6b661672",
        "16715ab8ec8bf69849896ee970e6747ef42b125101332fb42c4e90c19915f223",
    ),
    ("modern", "full", 7): (
        "ec10098844d27f4885129675cb761719bd746e0339b0d16166c66efb98d9ca1e",
        "3bcf5127ddf2b034922d2585063e882f3b91b9319ea752e85975cace5fbaad7a",
    ),
    ("modern", "full", 8): (
        "1a9f628bc3e10685a40840bef24e0db78d899481e584d7ca0edb1a2c423c52da",
        "6b19aa9024eae5765274770c9f1fd6bf75b80f2b0c3347b57d64b5d62af110ac",
    ),
    ("modern", "full", 9): (
        "46809688c162b9a439acbf2535d96f8132751b8b4622c4e51bb517b416d5f98b",
        "a715d7b41ac218d53d9a9b023d2ec046ef1e193dfbb28f524e32bdb1f1ad6269",
    ),
    ("modern", "full", 10): (
        "d38bdb7b8c943c661a704bd5493c131155dc15b6d29706009b0d8271261e1dd4",
        "8ac9aee38f4276308c6f4bc9ec92467672698605bc8ee8abbde07a64f9158b49",
    ),
    ("modern", "full", 11): (
        "c905defc2d7ec3fb6467b0759ae69ba2c162970bd9ce78dc29b19f6300ada964",
        "d9ab6533dd53dd938da83e001a0ebd09426e570784f7e9a132d62ff8384302ce",
    ),
    ("modern", "delta", 0): (
        "fa763ca4fff547e7b38d70485e5a7bc0d04ffb6b098ac021b5d11b06d4bbc1d6",
        "2002bdc9b35305404aa15513100dfb2e623bbce50ab550c6b160a793a563fdb5",
    ),
    ("modern", "delta", 1): (
        "000d99382130d8aba992cfb29034c33c360a69ef51cdfd8274852e7d6aee2e03",
        "44824c27742ef2a006e3ab678446509e8ba251156bd3ccde2cba3735ea874359",
    ),
    ("modern", "delta", 2): (
        "fcd057efb58d164df8ad6fa22063bb83c53733d6db17ac15c288976160429525",
        "3830a9e2e8198463c1212877301f52347029d566e5dd4675c3d847578e130d39",
    ),
    ("modern", "delta", 3): (
        "6964306ef8ec1d282f1cc80079bce19f5a6a3d728ff82accd2699c44d2af668c",
        "463d284dc46d30d01197f5ba17f92650f70be1997d60bf4ea70f3682451e906d",
    ),
    ("modern", "delta", 4): (
        "9d096037353517f326a18b7a7dedaff48565f4740694ee5cc99ae12a9a5e4cd1",
        "2f58df1a2ab80a6f6fb98c3966e720e307e1ef12d31ca6e5d0e3df6c1f7aaa1f",
    ),
    ("modern", "delta", 5): (
        "0bf8fb35daca45e1f727f8a082eec4635164b41831c0c6d1550441416b58980b",
        "f794fd01de3fd1d9721e5a6593520436e10c9e8bfa145f894c5af8ef7cd94d1a",
    ),
    ("modern", "delta", 6): (
        "6d70c4d920ee1989cc43afead4ee6ed668d7b58500245d70e899e784f8a57408",
        "c27fb6012baf62354ba7ddc83233c3ec12488b2ba384eed97e1a66870dc276d2",
    ),
    ("modern", "delta", 7): (
        "f0ac9bc00cb58e65cb3d3121acc046f33a12643a293be177f207285c5011f263",
        "52ac09c6f14b4788f6f99452d38e9fbe6662d1f4f2625cc37a690764e18d771c",
    ),
    ("modern", "delta", 8): (
        "72906949208cd191d29a7b92f2a82818e35cf9d2ba3751b83c928befbe0ef244",
        "3e310e21f337a40f99bba640fa2595ca8537db416d1b7b91c6b50af44d4f7a19",
    ),
    ("modern", "delta", 9): (
        "ddbf1fa04eb4bf29d43874cbf74a9b4b697eb2ab700aa74ecae2d1238f6975fd",
        "0c6f5bad1b88098decfd405882d749413007ad902cceb35c057d3bf83ca60787",
    ),
    ("modern", "delta", 10): (
        "d70f91335d2ed3bce956294ee046eabec25e84d6610389ca18144e4292d9c4a3",
        "7639a9f884c1f01747408256eb9f9e19c1804f3329228bd100726792746f9275",
    ),
    ("modern", "delta", 11): (
        "76d76133fbf0931ee88a20251093f16279e0b8798733b1ce478da3e8828c837f",
        "4c086636e75d7fb2fa55c99c7dbd4e578bdc0adc93ed135bd1ac18ddb445e6b1",
    ),
    ("modern", "dce", 0): (
        "7f6db3829c3e9ac81707f30ce9910b7b9489aca44f35df2d8e45494beed5bbab",
        "d5d3d71cc1754eefa01ae4c1fe894b5d1daa67c2dc630253d40754644ef54b5b",
    ),
    ("modern", "dce", 1): (
        "ee3ce74ac8f78e53d0474f484c9384f6e7ef6e2b2adbb2f6b98a9e50b42c1406",
        "6fdd9224f9d51467c09bcf065a125c155068654c86cf61701820347bd97701f0",
    ),
    ("modern", "dce", 2): (
        "9e8dbf8ac4d2ea236b6ea402b37c61a8c2de14d0a752991be6d64f9795668f00",
        "6154bad88945bb7fb86534f95008aad516dc6a66c9052996c939fea6449f762a",
    ),
    ("modern", "dce", 3): (
        "45df4fcd4da036e5a288f28f5b00553ed5bc670eade3cd5dad2bf7c61b899370",
        "9952fcb33128505666b0afc95e03798b46d2c3e3056c9447585859d47dae7877",
    ),
    ("modern", "dce", 4): (
        "c963c99c4a7856f7a60a7079c7959e6239e7f18983dd1c126265dd746101527a",
        "f0d5aebb2e365f4447a627856c575dd9c5780dfff7894cbcc2dddc5cc6e42baf",
    ),
    ("modern", "dce", 5): (
        "6b5c8ee9164a4e099742674806ca83f5d819db01fd9c86bdb112c1db5371115f",
        "8de8af4d785c094c3b82e156cd6161cb1a41c662e7f5ea9484a072d182aeb483",
    ),
    ("modern", "dce", 6): (
        "d9b7f100a365582209d21c71f9c21cd6f2022444d3716d43c65d365a6b661672",
        "e349ccd63159d451fde94b407860efcd21d3f25e437e432f72ea0081ee1084f1",
    ),
    ("modern", "dce", 7): (
        "ec10098844d27f4885129675cb761719bd746e0339b0d16166c66efb98d9ca1e",
        "9430d6da7d98b88c689d972995c1ce5b9cfd7feb6f19a46b2d282e0ea6d0af6c",
    ),
    ("modern", "dce", 8): (
        "1a9f628bc3e10685a40840bef24e0db78d899481e584d7ca0edb1a2c423c52da",
        "3fed90829aa9b24ac019419caa9b5c4b7fd50a95bef0caeda5b3f07ce255ad4e",
    ),
    ("modern", "dce", 9): (
        "46809688c162b9a439acbf2535d96f8132751b8b4622c4e51bb517b416d5f98b",
        "bc308a2d40174f70380c11e89aac7085fea8b6ce49da095765bc723fc78c2461",
    ),
    ("modern", "dce", 10): (
        "d38bdb7b8c943c661a704bd5493c131155dc15b6d29706009b0d8271261e1dd4",
        "6b140b7fffdd3eb378107b529025ff5271b1188c67c9797b421a715704e69b69",
    ),
    ("modern", "dce", 11): (
        "c905defc2d7ec3fb6467b0759ae69ba2c162970bd9ce78dc29b19f6300ada964",
        "56bf520b5eb1373f71b1ea6516a9b9a5f4b382349cfbc8b9cc1e84f3b196cc86",
    ),
    ("legacy", "full", 0): (
        "b3a310a632dc75c64dd96ae176a8ffedc4b5d704ad2492645c9b0ae303627f50",
        "3f7daa1805b197802f6d0ffd86c17c2f5e8d55b612256c88c277bc01bd49f0ea",
    ),
    ("legacy", "full", 1): (
        "f012f670ed8544944ca56404fddb6e6dfaac91754b3116b6f9309f460f343288",
        "0bf28a7c4464969083d1ab4385cd08145f654f04c628ee54e0df4665c29258dd",
    ),
    ("legacy", "full", 2): (
        "3aebd3c0e41d4436d898750be18e6b1c3885ac7b3e4ffe17116b81118beb4ae0",
        "253cd31c357c66c34bdefdfb8bd0521e90c5dcd444e1475fe4fbd27a961a4a39",
    ),
    ("legacy", "full", 3): (
        "ceb44cdf5aa469f5862f9d47835dc5f2c040e90870f88416f2e1642db16683d1",
        "cc5d7eccd7ab1ba275ef76291d7cadb85f480b59c7d934495858b3081caa4e10",
    ),
    ("legacy", "full", 4): (
        "e17781a06603a06183ea5f6c66420e2d49443b6f78897173a66224324a6af6b7",
        "e2d04319e43e8efb86c75776e4b88f4032339eab96dcf39086f9601a44228aa7",
    ),
    ("legacy", "full", 5): (
        "89671814f394ba9d1fe30e4ee99016df10aef4f7ee1245bbb7ecc36ac2beb88b",
        "0b1e0c0a0d3074337e0d2fc57170f06be63421d657e9bc407d43f40d1f0aebb7",
    ),
    ("legacy", "full", 6): (
        "fda1fc98faeca6297e9b808c6836c22707dbc268bdb05dfd5e89770e23d73a69",
        "0a0f2e78fd75a5ad2e813f11a30d6d94d56d4a50ca441213f5e398e04ecf5e6c",
    ),
    ("legacy", "full", 7): (
        "0c9ebea89cdf63cff75f17fb02aedf9ba6b5ad433c0199a012210a17bcff543e",
        "5c9a08e597aec46df0d1b4de3955c25eedd20cd188c9eba241a072092ec139dc",
    ),
    ("legacy", "full", 8): (
        "3fda4513ade7f0ef26a81c5d377cbbdb63c5f1aeccdf0ad51652b61655d71c95",
        "d614b0f05b6a16027823c838ab12e12b045e11e1e417424db55f3719df6cb625",
    ),
    ("legacy", "full", 9): (
        "5e76225716f4e70d9d45fdae73cc242d54eede17bcf40cd13ad242ee1c46b736",
        "5d74fd75564e54b90ddb50fd95da875d2c0b312d739c3ae2a39e8bfe2d020499",
    ),
    ("legacy", "full", 10): (
        "8a26dd74cc334ef201b2d8574d1ceccf4ab4267a66cf741ef5f8e2b054bfa344",
        "c4b8d1d687b8c488c00a134fdb4496b17e26a1d3b4481c89ca8888a9f1a5e0a5",
    ),
    ("legacy", "full", 11): (
        "0d153a4b2373fe211e39fc3751d2befe72857e8d1d017b20e1b6e9c193d769d1",
        "4059c28972f2a4e0e3118c72a06a0fe8080e4f98388dd20a571bd846ea8c700d",
    ),
    ("legacy", "delta", 0): (
        "edefe0fc0e45c4b9d5b38d98116ce6603aa08701695046768649b9f63f9d27cb",
        "d292cc2e0892f4b527eae9af7f11b28e3e7f556b00d0684411e524fa54b86849",
    ),
    ("legacy", "delta", 1): (
        "71912222a743980d2489f4fe2655d0c4af6bdbcf8366b3079507640dd8f4906f",
        "8594f52cde6b07c646ae80903da9f3d14bac0dfd362b5592b1553e0650fec333",
    ),
    ("legacy", "delta", 2): (
        "3f34bff4d05cc285b74a84102338c9cfb7bdc7a233d38c2dd287d5b5fe6fa65e",
        "99e5e99149c160b778d4338292d88a9b2d8fc3898c2ca935aecbe36e90361949",
    ),
    ("legacy", "delta", 3): (
        "baf08d914c40e8d85ed4855ca8ad655fa40ee154e0a4825bbe14b05827d9e8b7",
        "f40c08bacf56b53cedc7b8fa6d5926ca1bb684a9a2bb991f5cbd2ebda7d0febc",
    ),
    ("legacy", "delta", 4): (
        "ac09d8a70633e16afd524eb0cc12e21034e9ee3eb9fd882c4696df4be007dfc4",
        "65aa381d5766969c78fb5609905f91d52cb75033dd05e122ce6d0d13066b5265",
    ),
    ("legacy", "delta", 5): (
        "0d4302400177d04a7c2bb81644ddeefdbb7d87b4b91d344c011debd0c8579387",
        "62059355b62dec35f2a4b23edb14f28be7e38c49e617baedee4a0518d1a8ac47",
    ),
    ("legacy", "delta", 6): (
        "c80a61497625ff79c771759994082defcc6db683abec8e5a2d0a036affb278ff",
        "972feed8df86d6fcf57823b286c2f6e1c0b5e2d55a02f84bca2901fb4e71b7cc",
    ),
    ("legacy", "delta", 7): (
        "3d786886f8a3fcc5ab55fcbab3643bbc09d6b2fbf46f6c7613e602507db2f85f",
        "e6fc52f592b006c906793d95562e904c6c7f30d9a129a3a7e4a7a72dce66a567",
    ),
    ("legacy", "delta", 8): (
        "a9cc675fed38094b422acf03a2a013562dc8e8ef8963c82243df659340ec0a58",
        "ccce8942222455a046ab56c6f0fd1a175b61d77239c222f2f8f7c6348e36addc",
    ),
    ("legacy", "delta", 9): (
        "e1e2f989e4fc658309a1aa9ac41ac766f3b5104f32f4359578e34689c63a5a02",
        "97c90c0405ec66fbd0548064c29af9846b6ed868a90cf572ce4856f0defa4fd6",
    ),
    ("legacy", "delta", 10): (
        "468188636a7bd366a4bd1e94e1f2ab90885f1c76517a502e2cf2c1f5ee915de5",
        "b1b4b44b81eb29da04df3e704294cd2992729094a5b701ec2b8c05463bdd7058",
    ),
    ("legacy", "delta", 11): (
        "fbaf1a4378bc8e71f662a6c2dd97767019000b5c0c864c1f45ac8eeb288cb27a",
        "4c086636e75d7fb2fa55c99c7dbd4e578bdc0adc93ed135bd1ac18ddb445e6b1",
    ),
    ("legacy", "dce", 0): (
        "b3a310a632dc75c64dd96ae176a8ffedc4b5d704ad2492645c9b0ae303627f50",
        "129217eecbb918e86fac1268738ee6e56a56f1556307e00eab9d0ba140c3a4fe",
    ),
    ("legacy", "dce", 1): (
        "f012f670ed8544944ca56404fddb6e6dfaac91754b3116b6f9309f460f343288",
        "be7a9d833ccead84b2fd9cf90d624ea636fb56bff9ccafae313d6d70233a9d2a",
    ),
    ("legacy", "dce", 2): (
        "3aebd3c0e41d4436d898750be18e6b1c3885ac7b3e4ffe17116b81118beb4ae0",
        "a8921744bdab6feb629034cd39364afb20ba1d99b0538802ce97d46920aff7d2",
    ),
    ("legacy", "dce", 3): (
        "ceb44cdf5aa469f5862f9d47835dc5f2c040e90870f88416f2e1642db16683d1",
        "28afb52b0d8dd0b6a0fad5b7e7acc4ed14de237a3d5b773106036e97dc980a3a",
    ),
    ("legacy", "dce", 4): (
        "e17781a06603a06183ea5f6c66420e2d49443b6f78897173a66224324a6af6b7",
        "946437ec0cc7492e03858dba6489f930158969ca7b935aac2106a12f5d89b69a",
    ),
    ("legacy", "dce", 5): (
        "89671814f394ba9d1fe30e4ee99016df10aef4f7ee1245bbb7ecc36ac2beb88b",
        "71d115e84b59fa08d82308fbad52686f037e76a919cccf8456c0efbcfea2d4da",
    ),
    ("legacy", "dce", 6): (
        "fda1fc98faeca6297e9b808c6836c22707dbc268bdb05dfd5e89770e23d73a69",
        "64ab2c6495bb72f9d7a24d17ac3e1d666aefaf039c28713c1443d592dfcd39d3",
    ),
    ("legacy", "dce", 7): (
        "0c9ebea89cdf63cff75f17fb02aedf9ba6b5ad433c0199a012210a17bcff543e",
        "c5f3248cda9f1aee6e253069974e99711d0d7c9ad462ad24c44ae268191ef2d7",
    ),
    ("legacy", "dce", 8): (
        "3fda4513ade7f0ef26a81c5d377cbbdb63c5f1aeccdf0ad51652b61655d71c95",
        "3172dcdde4f61b854f935dd11725226e98df1e08ef6e135392e12abed04cc882",
    ),
    ("legacy", "dce", 9): (
        "5e76225716f4e70d9d45fdae73cc242d54eede17bcf40cd13ad242ee1c46b736",
        "ffc799d0cc27375b933d521e1a5a0c33ed971b90d282e3c17dcf5f844ed4bc61",
    ),
    ("legacy", "dce", 10): (
        "8a26dd74cc334ef201b2d8574d1ceccf4ab4267a66cf741ef5f8e2b054bfa344",
        "a9ada97fa7bafdc16c41f08c169621f7acdf5e59cf1d4e240ca0b18037f93259",
    ),
    ("legacy", "dce", 11): (
        "0d153a4b2373fe211e39fc3751d2befe72857e8d1d017b20e1b6e9c193d769d1",
        "3b2fc995d01c7d37ec7f49bf93af15454fdb958522b1efad1e02261ac14b8b8f",
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


if __name__ == "__main__":
    for (profile, policy, seed), (request_sha, reply_sha) in _table().items():
        print(f'    ("{profile}", "{policy}", {seed}): (')
        print(f'        "{request_sha}",\n        "{reply_sha}",\n    ),')
