"""BENCHMARK.json against the code, and a --quick smoke of both passes:
the last stdout line must carry exactly the metric names the contract
lists, and no server child may outlive the run."""

import json
import os
import subprocess
import sys
import time

from checkout import BENCH_DIR, ROOT, load_contract
from workloads import WORKLOADS

CONTRACT = load_contract()


def test_contract_names_match_the_code():
    assert {w["name"] for w in CONTRACT["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert CONTRACT["paths"] == [str(BENCH_DIR.relative_to(ROOT))]
    gated = {m["name"]: m for m in CONTRACT["end_to_end"]}
    assert gated["setup_s"]["unit"] == "s" and gated["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in gated.values())
    assert all("bound" not in m for m in CONTRACT["per_layer"])


def _server_children():
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"callpath/server_child.py" in handle.read():
                    found.append(int(pid))
        except OSError:
            continue
    return found


def _quick(trace, workload, tmp_path):
    out = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--workload", workload,
            "--seed", "7", "--trace", str(trace), "--output", str(tmp_path / "report.json"),
        ],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1]), json.load(open(tmp_path / "report.json"))


def test_quick_smoke_prints_the_contract_shape(tmp_path):
    started = time.monotonic()
    before = set(_server_children())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line, report = _quick(trace, "echo64_shm", tmp_path)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {n: v["unit"] for n, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        result = report["sets"][0]["echo64_shm"][section]
        assert result["mismatches"] == 0 and result["errors"] == {}
        assert result["pinned"] is (os.cpu_count() > 1)
        assert {"nproc", "python", "git_rev"} <= set(report["environment"])
    assert set(_server_children()) <= before, "a server child outlived its run"
    assert time.monotonic() - started < 20


def test_traced_tree_call_is_attributed(tmp_path):
    line, report = _quick(1, "tree_sparse_delta_tcp", tmp_path)
    assert line["correct"] is True
    metrics = {n: v["value"] for n, v in line["metrics"].items()}
    # 256 nodes go out, about one in twenty comes back dirty, and the
    # dirty-slot reply ships nothing that did not change.
    assert metrics["serde.objects_per_call"] == 256
    assert 0 < metrics["core.restored_objects"] < 64
    assert metrics["core.reply_dirty_ratio"] == 1.0
    assert metrics["transport.reply_bytes"] < metrics["transport.request_bytes"] / 4
    spans = report["sets"][0]["tree_sparse_delta_tcp"]["per_layer"]["spans"]
    assert spans["rmi.handle"]["self_p50_us"] < spans["rmi.handle"]["p50_us"]


def test_check_mode_and_missing_source(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--check", "--workload", "tree_full_tcp"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0 and "50 calls, 0 mismatches" in out.stdout
    # A directory with the benchmark but not the program is an error.
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(BENCH_DIR), str(bare / "benchmarks" / "callpath")], check=True)
    subprocess.run(["cp", str(ROOT / "BENCHMARK.json"), str(bare)], check=True)
    out = subprocess.run(
        [sys.executable, str(bare / "benchmarks/callpath/run.py"), "--workload", "echo64_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and "src/repro" in out.stderr
