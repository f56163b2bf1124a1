"""CI bench-smoke step: the benchmark-regression runner stays healthy.

Layers:

* run ``repro.bench.regress --quick`` end to end (into a temp file, so the
  committed full-size ``BENCH_pr6.json`` at the repo root is not clobbered
  by quick-mode numbers) and validate the report it writes — including
  that codegen actually engaged under the modern profile and beat the
  interpreted-plan baseline measured in the same run;
* re-measure the full-size serde micro encode AND decode in-process and
  hold the generated code to a same-run ratio over the interpreted plans
  (no recorded microsecond is compared with a live one);
* hold the plan-driven decode fast path to its defining property: modern
  decode stays within 1.5x of modern encode;
* replay scenario III with a 1%-mutation mutator so the sparse
  dirty-slot reply path is regression-gated alongside the dense one.
"""

import json
from pathlib import Path

import pytest

from repro.bench import regress

REPO_ROOT = Path(__file__).resolve().parents[1]

# In-suite re-measures run short windows: enough samples for a stable
# p50, without stretching the smoke step.
SMOKE_WINDOWS = 2
SMOKE_WINDOW_SECONDS = 0.2


@pytest.mark.bench_smoke
def test_regress_quick_runs_clean(tmp_path):
    output = tmp_path / "bench_smoke.json"
    rc = regress.main(["--quick", "--output", str(output)])
    assert rc == 0
    report = json.loads(output.read_text())
    assert report["meta"]["quick"] is True
    assert report["meta"]["size"] == regress.QUICK_SIZE
    assert report["meta"]["git_rev"]  # stamped, "unknown" at worst
    for profile in ("modern", "modern-interp", "legacy"):
        row = report["serde_micro"][profile]
        assert row["encode_us"] > 0
        assert row["decode_us"] > 0
        assert row["encode_us"] <= row["encode_p90_us"] <= row["encode_p99_us"]
        assert row["decode_us"] <= row["decode_p90_us"] <= row["decode_p99_us"]
        assert row["window_samples"] > 0
        assert row["bytes"] > 0
    # The profile gap must keep the paper's shape: legacy does strictly
    # more work and writes strictly more bytes.
    assert (
        report["serde_micro"]["modern"]["bytes"]
        < report["serde_micro"]["legacy"]["bytes"]
    )
    # Codegen must actually be engaged under the modern profile ...
    assert report["codegen"]["compiled"] > 0
    # ... and pay for itself against the interpreted plans in the same
    # run (dedicated full runs show ~1.5x; even quick windows clear 1.1x).
    modern = report["serde_micro"]["modern"]
    interp = report["serde_micro"]["modern-interp"]
    assert modern["encode_us"] < interp["encode_us"]
    assert modern["decode_us"] < interp["decode_us"]
    # The transport round-trip section is present with sane timings.
    assert report["transport_rt"]["tcp"]["rt_us"] > 0
    for scheme in ("uds", "shm"):
        row = report["transport_rt"][scheme]
        assert row.get("skipped") or row["rt_us"] > 0
    # The transport × payload × framing matrix: every cell the platform
    # can measure carries ordered percentiles and a sample count.
    matrix = report["transport_matrix"]
    assert matrix["meta"]["payload_bytes"] == list(
        regress._MATRIX_PAYLOADS_QUICK
    )
    for scheme in regress._MATRIX_SCHEMES:
        scheme_rows = matrix[scheme]
        if "skipped" in scheme_rows:
            continue
        assert set(scheme_rows) == set(regress._MATRIX_MODES)
        for mode_rows in scheme_rows.values():
            assert set(mode_rows) == {
                f"{size}B" for size in regress._MATRIX_PAYLOADS_QUICK
            }
            for cell in mode_rows.values():
                assert cell["rt_us"] > 0
                assert cell["rt_us"] <= cell["rt_p90_us"] <= cell["rt_p99_us"]
                assert cell["window_samples"] > 0
    assert report["gate"]["passed"] is True
    # The delta ablation must be present and keep its defining shape: a
    # sparse mutator's dirty-slot reply is smaller than the full map.
    sparse = report["delta_restore"]["sparse"]
    assert sparse["delta"]["reply_bytes"] < sparse["full"]["reply_bytes"]


@pytest.mark.bench_smoke
def test_compiled_serde_beats_interpreted_plans_in_the_same_run():
    """Modern (codegen) encode and decode each stay at least 1.2x faster
    than the interpreted plans measured by the same call (full size).

    Both sides of each ratio come from one ``run_serde_micro`` call, so
    the box's speed state cancels out and no recorded microsecond is
    read. Dedicated runs show 1.4-2.4x; a ratio under 1.2 means the
    generated code stopped engaging (falling back to the interpreted
    plans reads 1.0) — a structural regression, not noise.
    """
    for _ in range(2):  # one re-measure before failing, for noise spikes
        serde = regress.run_serde_micro(
            regress.FULL_SIZE, SMOKE_WINDOWS, SMOKE_WINDOW_SECONDS
        )
        modern, interp = serde["modern"], serde["modern-interp"]
        slow = [
            side
            for side in ("encode_us", "decode_us")
            if modern[side] > interp[side] / 1.2
        ]
        if not slow:
            break
    assert not slow, (slow, modern, interp)


@pytest.mark.bench_smoke
def test_modern_decode_fast_path_within_encode_budget():
    """Modern decode must stay within 1.5x of modern encode (full size).

    Before the plan-driven decode fast path, decode ran ~3.5x slower than
    encode on the scenario III micro (the per-object frame machine); the
    direct subtree loop brought it under encode. A decode/encode ratio
    above 1.5 means the fast path stopped engaging (e.g. plans no longer
    report dict-safe stores) — a structural regression, not noise, since
    both sides of the ratio are measured in the same process.
    """
    for _ in range(2):  # one re-measure before failing, for noise spikes
        serde = regress.run_serde_micro(
            regress.FULL_SIZE, SMOKE_WINDOWS, SMOKE_WINDOW_SECONDS
        )
        modern = serde["modern"]
        if modern["decode_us"] <= 1.5 * modern["encode_us"]:
            break
    assert modern["decode_us"] <= 1.5 * modern["encode_us"], modern


@pytest.mark.bench_smoke
def test_sparse_one_percent_mutator_delta_gate():
    """Scenario III, 1% mutation: dirty-slot replies must stay sparse.

    Gates the sparse reply path the way the encode gate protects serde:
    if digesting or the oldref encoding regresses into shipping clean
    slots, the ratio collapses well below the floor asserted here.
    """
    result = regress.run_delta_restore(
        regress.QUICK_SIZE, rounds=2, iterations=3, mutations={"one_pct": 0.01}
    )
    row = result["one_pct"]
    assert row["mutate_fraction"] == 0.01
    # At 1% mutation of a 64-node tree a reply carries ~0-2 dirty slots;
    # anything under 4x means clean slots are leaking into the reply.
    assert row["reply_bytes_ratio"] >= 4.0, row
    assert row["delta"]["reply_bytes"] < row["full"]["reply_bytes"] / 4.0


@pytest.mark.bench_smoke
def test_recorded_shm_beats_uds_on_co_located_round_trips():
    """The committed full run must record the shm transport winning.

    This is the PR's headline claim — removing the socket layer from
    co-located round trips — gated on the recorded report rather than a
    live re-measure, which under full-suite load would gate on scheduler
    noise instead of the transport.
    """
    report = regress._load_previous(REPO_ROOT / "BENCH_pr8.json")
    assert report is not None, "BENCH_pr8.json missing at the repo root"
    # The gated claim is the echo workload's smallest plain cell: the
    # regime where transport cost dominates marshalling.
    matrix = report["transport_matrix"]
    assert matrix["shm_vs_uds_speedup_64B"] >= 1.0
    shm_cell = matrix["shm"]["plain"]["64B"]
    uds_cell = matrix["uds"]["plain"]["64B"]
    assert shm_cell["rt_us"] <= uds_cell["rt_us"]
    # The recorded PING row carries the same ordering (the report is
    # static, so this is a check on the committed artifact, not a
    # re-measure that could gate on scheduler noise).
    rt = report["transport_rt"]
    assert rt["shm"]["rt_us"] <= rt["uds"]["rt_us"]
    assert rt["shm_vs_uds_speedup"] >= 1.0


@pytest.mark.bench_smoke
def test_compare_mode_reports_deltas(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    meta = {"size": regress.QUICK_SIZE}
    old.write_text(json.dumps({
        "meta": meta,
        "serde_micro": {"modern": {"encode_us": 100.0, "bytes": 500}},
    }))
    new.write_text(json.dumps({
        "meta": meta,
        "serde_micro": {"modern": {"encode_us": 110.0, "bytes": 500}},
    }))
    assert regress.run_compare(old, new) == 0
    out = capsys.readouterr().out
    assert "serde_micro.modern.encode_us" in out
    assert "+10.0%" in out

    # Beyond the gate: time-like metrics regress the exit status, and the
    # exit message names each failing metric ...
    new.write_text(json.dumps({
        "meta": meta,
        "serde_micro": {"modern": {"encode_us": 200.0, "bytes": 500}},
    }))
    assert regress.run_compare(old, new) == 1
    err = capsys.readouterr().err
    assert "compare failed: 1 metric(s) regressed" in err
    assert "serde_micro.modern.encode_us" in err
    # ... but byte counts are informational only.
    new.write_text(json.dumps({
        "meta": meta,
        "serde_micro": {"modern": {"encode_us": 100.0, "bytes": 5000}},
    }))
    assert regress.run_compare(old, new) == 0


@pytest.mark.bench_smoke
def test_compare_degrades_gracefully_on_missing_sections(tmp_path, capsys):
    """A pre-matrix baseline diffs cleanly against a report that has one.

    Sections and rows only one side measured (an older report without
    ``transport_matrix``, a platform that skipped shm) must be listed as
    skipped — never crash the diff, never count as a regression.
    """
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    meta = {"size": regress.QUICK_SIZE}
    old.write_text(json.dumps({
        "meta": meta,
        "transport_rt": {"tcp": {"rt_us": 60.0}},
    }))
    new.write_text(json.dumps({
        "meta": meta,
        "transport_rt": {
            "tcp": {"rt_us": 61.0},
            "shm": {"rt_us": 50.0},
        },
        "transport_matrix": {
            "tcp": {"plain": {"64B": {"rt_us": 100.0}}},
            "shm": {"plain": {"64B": {"rt_us": 80.0}}},
            "shm_vs_uds_speedup_64B": 1.2,
        },
    }))
    assert regress.run_compare(old, new) == 0
    out = capsys.readouterr().out
    assert "transport_rt.tcp.rt_us" in out  # the shared metric diffs
    assert "transport_rt.shm.rt_us  (only in new report, skipped)" in out
    assert (
        "transport_matrix.shm.plain.64B.rt_us  (only in new report, skipped)"
        in out
    )


@pytest.mark.bench_smoke
def test_recorded_zero_copy_beats_staged_shm():
    """The committed full run must record the zero-copy path winning.

    Gated on the recorded ``BENCH_pr10.json`` rather than a live
    re-measure (same rationale as the shm-vs-uds gate): under full-suite
    load a re-measure gates on scheduler noise, not on the two staging
    copies this PR deleted. The claim: at the payload sizes where copy
    cost is visible (4 KiB, 64 KiB), in-place encode + borrowed decode
    round trips are no slower than the staged copy path, and the
    headline ratio grows with payload size.
    """
    report = regress._load_previous(REPO_ROOT / "BENCH_pr10.json")
    assert report is not None, "BENCH_pr10.json missing at the repo root"
    zc = report["zero_copy_matrix"]
    assert "skipped" not in zc, zc
    ratios = zc["shm_zerocopy_vs_shm"]
    for cell in ("4096B", "65536B"):
        copy_cell = zc["copy"][cell]
        zerocopy_cell = zc["zerocopy"][cell]
        assert zerocopy_cell["rt_us"] <= copy_cell["rt_us"], (
            cell, zerocopy_cell, copy_cell,
        )
        assert ratios[cell] >= 1.0
    # The acceptance floor: a clear win at the ring-wrapping payload.
    assert ratios["65536B"] >= 1.10, ratios
