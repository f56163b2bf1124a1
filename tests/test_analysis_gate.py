"""Tier-1 gate: the repo's own sources must lint clean.

Runs ``nrmi-lint`` over ``src/`` and ``examples/`` and fails on ANY
finding — errors *and* warnings. New middleware code that trips a rule
must either be fixed or carry an inline ``# nrmi: disable=CODE --
reason`` suppression; naked suppressions are findings themselves, so
every exception stays justified.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

from repro.analysis import analyze_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_repo_sources_lint_clean():
    result = analyze_paths([str(ROOT / "src"), str(ROOT / "examples")])
    rendered = "\n".join(f.render() for f in result.findings)
    assert not result.findings, f"nrmi-lint findings in repo sources:\n{rendered}"
    assert result.files > 80  # the walk really covered the tree


def test_concurrency_rules_engage_on_repo():
    """NRMI04x must actually run over the staged core and shm ring: the
    suppression in netloop.py proves NRMI041 engaged, and the ring rule
    must pass over the real producer/consumer split WITHOUT suppressions.
    """
    result = analyze_paths(
        [str(ROOT / "src"), str(ROOT / "examples")],
        select=["NRMI041", "NRMI042", "NRMI043", "NRMI044", "NRMI045", "NRMI046"],
    )
    assert result.findings == []
    suppressed = {(f.code, pathlib.Path(f.path).name) for f in result.suppressed}
    assert ("NRMI041", "netloop.py") in suppressed
    assert not any(code == "NRMI043" for code, _ in suppressed)


@pytest.mark.bench_smoke
def test_full_repo_lint_wall_time():
    """Full-repo lint stays under 10s — the gate that keeps the rule
    catalogue from slowing tier-1."""
    start = time.perf_counter()
    result = analyze_paths(
        [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "examples")]
    )
    elapsed = time.perf_counter() - start
    assert result.files > 100
    assert elapsed < 10.0, f"full-repo lint took {elapsed:.2f}s"


def test_cli_gate_over_repo(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "--json",
            str(ROOT / "src"),
            str(ROOT / "examples"),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["summary"]["findings"] == 0
    assert payload["summary"]["exit_code"] == 0
