"""Benchmark drivers: records, network accounting, the Table 6 failure."""

import itertools
import time
from dataclasses import replace

import pytest

from repro.bench.harness import (
    BenchRecord,
    CPU_SLOW_SCALE,
    run_local,
    run_manual_restore,
    run_nrmi,
    run_oneway,
    run_remote_ref,
)
from repro.bench.mutators import TreeService, mutator_for
from repro.bench.trees import TreeNode, generate_workload
from repro.nrmi.config import NRMIConfig
from repro.serde.codegen import codegen_metrics
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.registry import global_registry
from repro.serde.writer import ObjectWriter

#: The modern wire format on the generic frame machine (generated code off).
MODERN_GENERIC = replace(MODERN_PROFILE, use_compiled_plans=False)


class TestBenchRecord:
    def test_total_is_compute_plus_network(self):
        record = BenchRecord("5", "I", 16, "x", ms_compute=2.0, ms_network=3.0)
        assert record.ms_total == 5.0

    def test_cell_formats(self):
        fast = BenchRecord("1", "I", 16, "x", ms_compute=0.2)
        assert fast.cell() == "<1"
        slow = BenchRecord("1", "I", 16, "x", ms_compute=12.4)
        assert slow.cell() == "12"
        failed = BenchRecord("6", "I", 1024, "x", failed="leak")
        assert failed.cell() == "-"


class TestDrivers:
    def test_local_measures_compute_only(self):
        record = run_local("I", 32, reps=2)
        assert record.ms_network == 0.0
        assert record.ms_compute >= 0.0
        assert record.reps == 2

    def test_slow_machine_scaled(self, monkeypatch):
        # A clock that advances 2 ms per read makes every sample exactly
        # 2 ms, so both runs measure the same samples and only the
        # machine's scale factor tells them apart.
        ticks = itertools.count(step=0.002)
        monkeypatch.setattr(
            "repro.bench.harness.time.perf_counter", lambda: next(ticks)
        )
        fast = run_local("II", 64, reps=3, machine="fast", seed=5)
        slow = run_local("II", 64, reps=3, machine="slow", seed=5)
        assert fast.ms_compute == pytest.approx(2.0, rel=1e-9)
        assert slow.ms_compute == pytest.approx(
            fast.ms_compute * CPU_SLOW_SCALE, rel=1e-9
        )

    def test_oneway_ships_request_only(self):
        record = run_oneway("I", 32, reps=2)
        assert record.bytes_sent > record.bytes_received
        assert record.round_trips >= 2

    def test_manual_restore_ships_both_ways(self):
        record = run_manual_restore("III", 32, reps=2)
        assert record.bytes_received > 200  # tree + shadow coming back

    def test_manual_restore_local_machine_has_no_network(self):
        record = run_manual_restore("III", 32, reps=2, network=None)
        assert record.ms_network == 0.0
        assert record.table == "3"

    def test_nrmi_record(self):
        record = run_nrmi("III", 32, reps=2)
        assert record.table == "5"
        assert record.config == "nrmi-full/modern/optimized"
        assert record.ms_network > 0
        assert record.bytes_received > 0

    def test_nrmi_policies_accepted(self):
        for policy in ("full", "delta", "dce"):
            record = run_nrmi("II", 16, reps=1, policy=policy)
            assert record.reps == 1

    def test_network_cost_scales_with_size(self):
        small = run_nrmi("I", 16, reps=2, seed=3)
        middle = run_nrmi("I", 64, reps=2, seed=3)
        large = run_nrmi("I", 256, reps=2, seed=3)
        # Per-message latency dominates tiny trees.
        assert large.ms_network > small.ms_network
        assert large.bytes_sent > small.bytes_sent
        # Bytes grow ~linearly: each size step is 4x the nodes, so it adds
        # ~4x the bytes of the step before, whatever the fixed per-call
        # bytes are.
        growth = (large.bytes_sent - middle.bytes_sent) / (
            middle.bytes_sent - small.bytes_sent
        )
        assert 3.5 <= growth <= 4.5, (small, middle, large)


class TestShapes:
    """The qualitative claims of Section 5.3.3, at reduced scale, and the
    serde and reply-size ratios behind them, each taken within one run."""

    def test_nrmi_ships_more_than_oneway(self):
        oneway = run_oneway("II", 64, reps=2)
        nrmi = run_nrmi("II", 64, reps=2)
        assert nrmi.bytes_received > oneway.bytes_received

    def test_manual_scenario_iii_ships_more_than_nrmi(self):
        """The shadow tree costs more bytes than the restore payload."""
        manual = run_manual_restore("III", 128, reps=2)
        nrmi = run_nrmi("III", 128, reps=2)
        assert manual.bytes_received > nrmi.bytes_received

    def test_legacy_profile_slower_than_modern(self):
        legacy = run_oneway("II", 256, profile="legacy", reps=3)
        modern = run_oneway("II", 256, profile="modern", reps=3)
        assert modern.ms_compute < legacy.ms_compute

    def test_remote_ref_order_of_magnitude_worse(self):
        nrmi = run_nrmi("II", 64, reps=2)
        remote_ref = run_remote_ref("II", 64, reps=2)
        assert remote_ref.ms_total > nrmi.ms_total * 5
        assert remote_ref.round_trips > nrmi.round_trips * 10

    @pytest.mark.bench_smoke
    def test_generated_serde_three_times_faster_than_generic(self):
        """Generated encode and decode each beat the generic frame
        machine 3x on the scenario III 256-node tree. Both sides come
        from one run, so the box's speed state cancels out; 2-vCPU Xeon
        runs read 3.7-7x, and a generated path that stopped engaging
        reads 1.0."""
        for _ in range(2):  # one re-measure before failing, for noise spikes
            modern = _serde_micro(MODERN_PROFILE)
            generic = _serde_micro(MODERN_GENERIC)
            slow = [
                op for op in ("encode_us", "decode_us")
                if modern[op] * 3.0 > generic[op]
            ]
            if not slow:
                break
        assert not slow, (slow, modern, generic)

    @pytest.mark.bench_smoke
    def test_modern_decode_within_one_and_a_half_encodes(self):
        """Generated decoders keep modern decode at parity with encode
        (0.7-1.0x on a 2-vCPU Xeon box)."""
        for _ in range(2):  # one re-measure before failing, for noise spikes
            modern = _serde_micro(MODERN_PROFILE)
            if modern["decode_us"] <= 1.5 * modern["encode_us"]:
                break
        assert modern["decode_us"] <= 1.5 * modern["encode_us"], modern

    def test_modern_writes_fewer_bytes_than_legacy(self):
        root = generate_workload("III", 256, 7).root
        assert len(_encode(root, MODERN_PROFILE)) < len(_encode(root, LEGACY_PROFILE))

    def test_codegen_engages_without_fallbacks(self):
        global_registry.invalidate_plans(TreeNode)
        compiled = codegen_metrics.counter("serde.codegen.compiled")
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks")
        compiled_before, fallbacks_before = compiled.value, fallbacks.value
        payload = _encode(generate_workload("III", 256, 7).root, MODERN_PROFILE)
        ObjectReader(payload, profile=MODERN_PROFILE).read_root()
        assert compiled.value == compiled_before + 2  # one encoder, one decoder
        assert fallbacks.value == fallbacks_before

    def test_sparse_delta_reply_four_times_smaller_than_full(
        self, make_endpoint_pair
    ):
        """At 1 % mutation of a 64-node tree a delta reply carries 0-2
        dirty slots; under 4x smaller than the full map means clean slots
        are leaking into it."""
        reply_bytes = {}
        for policy in ("full", "delta"):
            config = NRMIConfig(policy=policy)
            pair = make_endpoint_pair(server_config=config, client_config=config)
            service = pair.serve(TreeService())
            root = generate_workload("III", 64, 7).root
            # Fresh seeds: a repeated one rewrites the same values, and
            # every slot would digest clean.
            seeds = itertools.count(7)
            for _ in range(3):  # settle the session's schema cache
                service.mutate_sparse(root, next(seeds), 0.01)
            stats = pair.resolver.resolve(pair.server.address).stats
            stats.reset()
            for _ in range(5):
                service.mutate_sparse(root, next(seeds), 0.01)
            reply_bytes[policy] = stats.snapshot()["bytes_received"]
        assert reply_bytes["delta"] * 4 <= reply_bytes["full"], reply_bytes


class TestTable6Failure:
    def test_1024_nodes_fail_by_leak(self):
        record = run_remote_ref("III", 1024, reps=3)
        assert record.failed is not None
        assert "leak" in record.failed
        assert record.cell() == "-"

    def test_small_sizes_complete(self):
        record = run_remote_ref("II", 16, reps=2)
        assert record.failed is None
        assert record.ms_total > 0


class TestNrmiOracle:
    """Every benchmark configuration must uphold the semantics invariant."""

    @pytest.mark.parametrize("scenario", ["I", "II", "III"])
    def test_nrmi_call_matches_local(self, make_endpoint_pair, scenario):
        pair = make_endpoint_pair()
        service = pair.serve(TreeService(), name="trees")
        seed = 31
        remote_workload = generate_workload(scenario, 64, seed)
        service.mutate(scenario, remote_workload.root, seed)

        local_workload = generate_workload(scenario, 64, seed)
        mutator_for(scenario)(local_workload.root, seed)
        assert remote_workload.visible_data() == local_workload.visible_data()

    @pytest.mark.parametrize("scenario", ["I", "II", "III"])
    def test_remote_pointer_call_matches_local(self, make_endpoint_pair, scenario):
        config = NRMIConfig(policy="none")
        pair = make_endpoint_pair(server_config=config, client_config=config)
        service = pair.serve(TreeService(), name="trees")
        seed = 37
        remote_workload = generate_workload(scenario, 32, seed)
        pointer = pair.client.pointer_to(remote_workload.root)
        service.mutate(scenario, pointer, seed)

        local_workload = generate_workload(scenario, 32, seed)
        mutator_for(scenario)(local_workload.root, seed)
        # Remote pointers mutate the client's own nodes; spliced-in nodes
        # are remote — compare only data visible through plain traversal.
        assert _pointer_view(remote_workload.root) == _pointer_view(
            local_workload.root
        )


def _pointer_view(root):
    """Preorder data view that tolerates RemotePointer children."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append(None)
            continue
        out.append(node.data)
        stack.append(node.right)
        stack.append(node.left)
    return out


def _encode(root, profile):
    writer = ObjectWriter(profile=profile)
    writer.write_root(root)
    return writer.getvalue()


def _best_us(fn, rounds=5, iterations=10):
    """Best per-call time of *fn* in µs over *rounds* timed loops."""
    fn()  # warm generated code and caches outside the timed region
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iterations * 1e6


def _serde_micro(profile):
    """Encode and decode µs of the scenario III 256-node tree."""
    root = generate_workload("III", 256, 7).root
    payload = _encode(root, profile)
    return {
        "encode_us": _best_us(lambda: _encode(root, profile)),
        "decode_us": _best_us(
            lambda: ObjectReader(payload, profile=profile).read_root()
        ),
    }
