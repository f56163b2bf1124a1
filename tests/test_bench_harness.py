"""Benchmark drivers: records, network accounting, the Table 6 failure."""

import itertools

import pytest

from repro.bench.harness import (
    BenchRecord,
    CPU_SLOW_SCALE,
    PAPER_NETWORK,
    run_local,
    run_manual_restore,
    run_nrmi,
    run_oneway,
    run_remote_ref,
)
from repro.bench.mutators import TreeService, mutator_for
from repro.bench.trees import generate_workload
from repro.nrmi.config import NRMIConfig


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
        large = run_nrmi("I", 256, reps=2, seed=3)
        # Per-message latency dominates tiny trees; bytes grow ~linearly.
        assert large.ms_network > small.ms_network
        assert large.bytes_sent > small.bytes_sent * 8


class TestShapes:
    """The qualitative claims of Section 5.3.3, at reduced scale."""

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
