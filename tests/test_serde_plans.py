"""Generated serde plans: registry caching, invalidation, fallback, routing.

The generated per-class functions (:mod:`repro.serde.codegen`) must be
invisible on the wire: generated and generic encoding agree byte for
byte, and the registry's caches must follow ``__nrmi_version__`` — a
bumped version means a stale plan would stamp the wrong version into
class descriptors, so the registry recompiles. Generated source also
bakes descriptor blobs in, so the registry recompiles when the
process-wide schema epoch moves too.
"""

import datetime
from dataclasses import replace

import pytest

from repro.core.markers import Remote, Restorable, Serializable
from repro.nrmi.runtime import Endpoint
from repro.serde import codegen as codegen_mod
from repro.serde.codegen import (
    CodegenDecodePlan,
    CodegenEncodePlan,
    bail_counts,
    codegen_metrics,
)
from repro.serde.profiles import MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import ClassRegistry, global_registry
from repro.serde.schema import global_schema_table
from repro.serde.writer import ObjectWriter
from repro.transport.resolver import ChannelResolver

from tests.model_helpers import Box, Node, Pair

#: The generic frame machine on the modern wire format: the correctness
#: oracle the generated functions must match byte for byte.
MODERN_NO_PLANS = replace(
    MODERN_PROFILE, name="modern-noplans", use_compiled_plans=False
)


class Versioned(Serializable):
    __nrmi_version__ = 1

    def __init__(self, a=0, b=""):
        self.a = a
        self.b = b


class PlainRecord(Restorable):
    def __init__(self, x=None):
        self.x = x


class Uncompilable(Restorable):
    """Its generated encoder is forced to fail in the fallback tests."""

    def __init__(self, n=0):
        self.n = n


class _Renumber(Remote):
    def ping(self):
        return 0

    def renumber(self, box):
        for item in box.payload:
            item.n += 1000
        box.payload.append(Uncompilable(-1))
        return len(box.payload)


@pytest.fixture
def registry():
    reg = ClassRegistry()
    reg.register(Versioned, name="versioned")
    reg.register(PlainRecord, name="plain-record")
    return reg


def _fail_encoder_of(monkeypatch, cls):
    """Make codegen's encode-source builder raise for *cls* only."""
    build = codegen_mod._build_encode_source

    def failing(target, *args):
        if target is cls:
            raise RuntimeError("boom")
        return build(target, *args)

    monkeypatch.setattr(codegen_mod, "_build_encode_source", failing)


class TestPlanCache:
    def test_plans_are_cached_per_class(self, registry):
        first = registry.codegen_encode_plan_for(Versioned)
        second = registry.codegen_encode_plan_for(Versioned)
        assert isinstance(first, CodegenEncodePlan)
        assert first is second
        decode = registry.codegen_decode_plan_for(Versioned)
        assert isinstance(decode, CodegenDecodePlan)
        assert registry.codegen_decode_plan_for(Versioned) is decode

    def test_registries_do_not_share_plans(self, registry):
        other = ClassRegistry()
        other.register(Versioned, name="versioned")
        assert registry.codegen_encode_plan_for(
            Versioned
        ) is not other.codegen_encode_plan_for(Versioned)
        assert registry.codegen_decode_plan_for(
            Versioned
        ) is not other.codegen_decode_plan_for(Versioned)

    def test_plan_records_class_version(self, registry):
        assert registry.codegen_encode_plan_for(Versioned).version == 1
        assert registry.codegen_decode_plan_for(Versioned).version == 1
        assert registry.codegen_encode_plan_for(PlainRecord).version == 0

    def test_version_bump_invalidates_encode_and_decode_plans(self, registry):
        stale_encode = registry.codegen_encode_plan_for(Versioned)
        stale_decode = registry.codegen_decode_plan_for(Versioned)
        Versioned.__nrmi_version__ = 2
        try:
            fresh_encode = registry.codegen_encode_plan_for(Versioned)
            fresh_decode = registry.codegen_decode_plan_for(Versioned)
            assert fresh_encode is not stale_encode
            assert fresh_decode is not stale_decode
            assert fresh_encode.version == 2
            assert fresh_decode.version == 2
            # Stable until the version moves again.
            assert registry.codegen_encode_plan_for(Versioned) is fresh_encode
            assert registry.codegen_decode_plan_for(Versioned) is fresh_decode
        finally:
            Versioned.__nrmi_version__ = 1

    def test_bumped_version_reaches_the_wire(self, registry):
        """The recompiled plan stamps the new version into descriptors —
        the whole point of invalidation — and the reader sees it."""
        Versioned.__nrmi_version__ = 7
        try:
            writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
            writer.write_root(Versioned(a=5))
            reader = ObjectReader(
                writer.getvalue(), profile=MODERN_PROFILE, registry=registry
            )
            assert reader.read_root().a == 5
            assert reader._classes == [
                (Versioned, 7, registry.codegen_decode_plan_for(Versioned))
            ]
        finally:
            Versioned.__nrmi_version__ = 1

    def test_invalidate_plans_single_class(self, registry):
        versioned = registry.codegen_encode_plan_for(Versioned)
        plain = registry.codegen_encode_plan_for(PlainRecord)
        plain_decode = registry.codegen_decode_plan_for(PlainRecord)
        registry.invalidate_plans(Versioned)
        assert registry.codegen_encode_plan_for(Versioned) is not versioned
        assert registry.codegen_encode_plan_for(PlainRecord) is plain
        assert registry.codegen_decode_plan_for(PlainRecord) is plain_decode

    def test_invalidate_plans_all(self, registry):
        encode = registry.codegen_encode_plan_for(Versioned)
        decode = registry.codegen_decode_plan_for(Versioned)
        registry.invalidate_plans()
        assert registry.codegen_encode_plan_for(Versioned) is not encode
        assert registry.codegen_decode_plan_for(Versioned) is not decode

    def test_decode_plan_shape(self, registry):
        plan = registry.codegen_decode_plan_for(PlainRecord)
        assert isinstance(plan, CodegenDecodePlan)
        instance = plan.factory()
        assert type(instance) is PlainRecord
        assert plan.needs_resolve is False
        assert plan.has_upgrade is False
        assert plan.decode_fn is not None


class TestCodegenPlanCache:
    """Generated functions: epoch invalidation, counters, fallback."""

    def test_codegen_plans_cached_per_class(self, registry):
        """Writer and reader dispatch on the very plan objects the
        registry caches — no per-stream recompilation."""
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned(a=1, b="x"))
        reader = ObjectReader(
            writer.getvalue(), profile=MODERN_PROFILE, registry=registry
        )
        reader.read_root()
        assert writer._plan_cache[Versioned] is registry.codegen_encode_plan_for(
            Versioned
        )
        assert reader._classes[0][2] is registry.codegen_decode_plan_for(
            Versioned
        )

    def test_version_bump_recompiles_codegen_plans(self, registry):
        """A version bump recompiles the generated functions themselves,
        not just the plan records around them."""
        stale_encode = registry.codegen_encode_plan_for(Versioned)
        stale_decode = registry.codegen_decode_plan_for(Versioned)
        compiled = codegen_metrics.counter("serde.codegen.compiled")
        before = compiled.value
        Versioned.__nrmi_version__ = 2
        try:
            fresh_encode = registry.codegen_encode_plan_for(Versioned)
            fresh_decode = registry.codegen_decode_plan_for(Versioned)
        finally:
            Versioned.__nrmi_version__ = 1
        assert compiled.value == before + 2
        assert fresh_encode.encode is not stale_encode.encode
        assert fresh_decode.decode_fn is not stale_decode.decode_fn

    def test_bumped_version_reaches_the_codegen_wire(self, registry):
        """The recompiled generated encoder stamps the new version into
        its baked class blob — a stale function would ship version 1."""
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned())
        before = writer.getvalue()
        Versioned.__nrmi_version__ = 7
        try:
            writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
            writer.write_root(Versioned())
            after = writer.getvalue()
            # ... and it matches what the generic path says version 7
            # looks like.
            oracle = ObjectWriter(profile=MODERN_NO_PLANS, registry=registry)
            oracle.write_root(Versioned())
            assert after == oracle.getvalue()
        finally:
            Versioned.__nrmi_version__ = 1
        assert before != after

    def test_schema_epoch_bump_recompiles_codegen_plans(self, registry):
        """A :meth:`GlobalSchemaTable.reset` invalidates every generated
        function: their source bakes descriptor blobs in."""
        codegen_encode = registry.codegen_encode_plan_for(Versioned)
        codegen_decode = registry.codegen_decode_plan_for(Versioned)
        assert codegen_encode.epoch == global_schema_table.epoch
        global_schema_table.reset()
        fresh_encode = registry.codegen_encode_plan_for(Versioned)
        fresh_decode = registry.codegen_decode_plan_for(Versioned)
        assert fresh_encode is not codegen_encode
        assert fresh_decode is not codegen_decode
        assert fresh_encode.epoch == global_schema_table.epoch
        assert registry.codegen_encode_plan_for(Versioned) is fresh_encode

    def test_compiled_counter_counts_generated_functions(self, registry):
        before = codegen_metrics.counter("serde.codegen.compiled").value
        registry.codegen_encode_plan_for(Versioned)
        registry.codegen_decode_plan_for(Versioned)
        after = codegen_metrics.counter("serde.codegen.compiled").value
        assert after == before + 2
        # Cache hits don't recompile.
        registry.codegen_encode_plan_for(Versioned)
        assert codegen_metrics.counter("serde.codegen.compiled").value == after

    def test_compile_failure_falls_back_byte_identically(
        self, registry, monkeypatch
    ):
        """A codegen compile failure must degrade, not break: the class
        takes the writer's generic object path, the wire bytes are
        unchanged, and the failure is compiled (and counted) once."""
        _fail_encoder_of(monkeypatch, Versioned)
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks")
        before = fallbacks.value
        value = PlainRecord(x=[Versioned(a=11, b="degraded"), Versioned()])
        streams = []
        for _ in range(2):
            writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
            writer.write_root(value)
            streams.append(writer.getvalue())
            assert Versioned not in writer._plan_cache
            assert PlainRecord in writer._plan_cache
        assert fallbacks.value == before + 1
        assert registry.codegen_encode_plan_for(Versioned).encode is None
        monkeypatch.undo()
        registry.invalidate_plans(Versioned)
        oracle = ObjectWriter(profile=MODERN_NO_PLANS, registry=registry)
        oracle.write_root(value)
        assert streams == [oracle.getvalue()] * 2

    def test_compile_failure_round_trips_under_acked_schema_session(
        self, monkeypatch
    ):
        """A class whose encoder cannot compile still crosses a schema-mode
        channel: 100 instances go out through the generic path (inline
        class descriptor on a schema-flagged stream), come back restored,
        and the fallback is counted exactly once."""
        global_registry.invalidate_plans(Uncompilable)
        _fail_encoder_of(monkeypatch, Uncompilable)
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks")
        before = fallbacks.value
        resolver = ChannelResolver()
        server = Endpoint(name="fallback-srv", resolver=resolver)
        client = Endpoint(name="fallback-cli", resolver=resolver)
        try:
            server.bind("svc", _Renumber())
            svc = client.lookup(server.address, "svc")
            session = resolver.resolve(server.address).schema_session
            svc.ping()  # negotiate the session
            assert session.peer_ok
            for call in range(4):
                items = [Uncompilable(call * 25 + i) for i in range(25)]
                box = Box(payload=list(items))
                assert svc.renumber(box) == 26
                assert [item.n for item in items] == [
                    call * 25 + i + 1000 for i in range(25)
                ]
                assert box.payload[:25] == items
                assert box.payload[25].n == -1
            assert len(session.tx) >= 1
            assert fallbacks.value == before + 1
        finally:
            client.close()
            server.close()
            monkeypatch.undo()
            global_registry.invalidate_plans(Uncompilable)


def _bails_since(before):
    """The bail counters that moved since *before*, by how much."""
    after = bail_counts()
    return {r: after[r] - before[r] for r in after if after[r] != before[r]}


class TestBailRouting:
    """After a generated decoder bails, the frame machine finishes the
    object; a nested object in a later field goes back to its own
    generated decoder. An external does not bail: the generated decoder
    resolves it and goes on."""

    @pytest.mark.parametrize(
        "bail_value, dispatches, bails",
        [
            ([1, "two"], [0], {"decode.container": 1}),
            (datetime.datetime(2003, 5, 19, 12, 30), [], {}),
        ],
        ids=["list", "external"],
    )
    def test_later_nested_object_decodes_through_codegen(
        self, bail_value, dispatches, bails, monkeypatch
    ):
        plan = global_registry.codegen_decode_plan_for(Node)
        generated = plan.decode_fn
        calls = []

        def spy(reader, stack, wire_version, old=None):
            calls.append(wire_version)
            return generated(reader, stack, wire_version, old)

        monkeypatch.setattr(plan, "decode_fn", spy)
        graph = Pair(first=bail_value, second=Node(data=3, next=Node(data=4)))
        writer = ObjectWriter(profile=MODERN_PROFILE)
        writer.write_root(graph)
        reader = ObjectReader(writer.getvalue(), profile=MODERN_PROFILE)
        before = bail_counts()
        decoded = reader.read_root()
        reader.expect_end()
        assert decoded.first == bail_value
        assert decoded.second.data == 3
        assert decoded.second.next.data == 4
        assert len(reader.linear_map) == len(writer.linear_map)
        # After a bail, one dispatch for the outer Node (its same-class
        # child is unrolled inside the generated decoder); without one,
        # Pair's decoder recurses into Node's inner function directly.
        assert calls == dispatches
        assert _bails_since(before) == bails


class TestByteIdentity:
    """Compiled output must be indistinguishable from the generic encoder's."""

    def _encode(self, value, profile, registry=None):
        writer = ObjectWriter(profile=profile, registry=registry)
        writer.write_root(value)
        return writer.getvalue()

    @pytest.mark.parametrize(
        "value",
        [
            Versioned(a=-(2**40), b="hello"),
            PlainRecord(x=[1, 2.5, "s", b"b", None, True]),
            Versioned(a=2**70, b="big ints take the INT_BIG path"),
            PlainRecord(x={"k": Versioned(a=1, b="nested")}),
        ],
        ids=["scalars", "container", "int-big", "nested"],
    )
    def test_isolated_registry_byte_identity(self, registry, value):
        compiled = self._encode(value, MODERN_PROFILE, registry)
        generic = self._encode(value, MODERN_NO_PLANS, registry)
        assert compiled == generic

    def test_global_registry_shared_and_cyclic(self):
        shared = Node(data="shared")
        shared.next = shared  # self cycle
        graph = Pair(first=[shared, shared], second=Node(data=shared))
        compiled = self._encode(graph, MODERN_PROFILE)
        generic = self._encode(graph, MODERN_NO_PLANS)
        assert compiled == generic
        decoded = ObjectReader(compiled, profile=MODERN_PROFILE).read_root()
        assert decoded.first[0] is decoded.first[1]
        assert decoded.first[0].next is decoded.first[0]
        assert decoded.second.data is decoded.first[0]

    def test_writer_uses_cached_plan_from_registry(self, registry):
        # Prime the registry cache, then confirm the writer's fast path
        # consults it (same plan object, no recompilation).
        plan = registry.codegen_encode_plan_for(Versioned)
        writer = ObjectWriter(profile=MODERN_PROFILE, registry=registry)
        writer.write_root(Versioned(a=3, b="warm"))
        assert registry.codegen_encode_plan_for(Versioned) is plan
        assert writer._plan_cache[Versioned] is plan

    def test_memo_cap_matches_generic_path(self, registry):
        # Past the memo limit the compiled path must stop interning strings
        # exactly where the generic path does.
        values = PlainRecord(x=[f"s{i}" for i in range(64)] * 2)
        compiled_writer = ObjectWriter(
            profile=MODERN_PROFILE, registry=registry, memo_limit=16
        )
        compiled_writer.write_root(values)
        generic_writer = ObjectWriter(
            profile=MODERN_NO_PLANS, registry=registry, memo_limit=16
        )
        generic_writer.write_root(values)
        assert compiled_writer.getvalue() == generic_writer.getvalue()

    def test_global_registry_has_model_classes(self):
        # The property tests in test_property_serde.py rely on these.
        assert global_registry.is_registered(Node)
        assert global_registry.is_registered(Pair)


class _Echo(Remote):
    def echo(self, data):
        return data


class TestBenchmarkShapesStayCompiled:
    """The callpath workloads' call shapes, through a real in-process
    endpoint pair: every object of every request and reply, on both
    sides, is written and read by generated code — no bail, no fallback."""

    SEEDS = range(6)

    @pytest.mark.parametrize(
        "policy, method",
        [("full", "mutate"), ("delta", "mutate_sparse")],
        ids=["tree_full", "tree_sparse_delta"],
    )
    def test_tree_calls(self, make_endpoint_pair, policy, method):
        from repro.bench.mutators import TreeService
        from repro.bench.trees import generate_workload
        from repro.nrmi.config import NRMIConfig

        pair = make_endpoint_pair(client_config=NRMIConfig(policy=policy))
        service = pair.serve(TreeService())
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks")
        before, failed = bail_counts(), fallbacks.value
        for seed in self.SEEDS:
            tree = generate_workload("III", 256, seed)
            local = generate_workload("III", 256, seed)
            if policy == "delta":
                args, local_args = (tree.root, seed, 0.05), (local.root, seed, 0.05)
            else:
                args, local_args = ("III", tree.root, seed), ("III", local.root, seed)
            result = getattr(service, method)(*args)
            expected = getattr(TreeService(), method)(*local_args)
            assert (result, tree.visible_data()) == (expected, local.visible_data())
        assert _bails_since(before) == {}
        assert fallbacks.value == failed

    def test_echo64(self, make_endpoint_pair):
        pair = make_endpoint_pair()
        service = pair.serve(_Echo())
        before = bail_counts()
        for seed in self.SEEDS:
            payload = bytes([seed]) * 64
            assert service.echo(payload) == payload
        assert _bails_since(before) == {}
