"""Interleaved A/B of two revisions on one callpath workload.

    python3 tools/ab_callpath.py REV_A REV_B --workload W [--pairs 10]

REV_A is the parent, REV_B the change. Both are exported with
``git archive`` into a temporary directory (committed files only, each in
a directory of its own — what the driver of ``BENCHMARK.json`` does; no
worktree metadata is left in ``.git``), and every run executes that
export's *own* ``benchmarks/callpath/run.py --workload W --trace 0
--seed S``, so each side is measured by the benchmark it shipped with.

The box this repository is measured on drifts by tens of percent within
the hour (``benchmarks/callpath/README.md``), so the two sides alternate:
pair *i* runs A then B when *i* is even and B then A when it is odd, both
with seed ``--seed + i``; run length is whatever each ``run.py`` takes
from ``BENCHMARK.json``. The tool prints the claimed metric
(``call_p50_us``) of every pair, then per end-to-end metric the wins,
both medians and quartiles, and the verdict of the choosing-metrics rule:
the change wins at least nine tenths of the pairs (ties count for
neither) **and** the medians differ by more than the distance between
the parent's quartiles. Exit 0 means a gain on the claimed metric with no
larger share of failed calls. No network; reports go to the temporary
directory, nothing is written under ``benchmarks/callpath``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

#: Share of the pairs the change must win.
WIN_SHARE = 0.9

#: The metric whose verdict is the exit code (0 = gain); the others are
#: printed. Run length is the benchmark's own (``BENCHMARK.json``).
CLAIMED_METRIC = "call_p50_us"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, object]:
    """Apply the pairing rule to one metric's per-pair values.

    ``better`` is ``"lower"`` or ``"higher"``. Returns wins, losses, ties,
    both sides' quartiles, the parent's interquartile distance and the
    verdict: ``"gain"`` (rule met), ``"regression"`` (rule met the other
    way round) or ``"unresolved"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on both sides")
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (b - a) for a, b in zip(parent, change)]
    wins = sum(1 for g in gains if g > 0)
    losses = sum(1 for g in gains if g < 0)
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    gap = sign * (cq[1] - pq[1])
    needed = WIN_SHARE * len(parent)
    if wins >= needed and gap > iqr:
        verdict = "gain"
    elif losses >= needed and -gap > iqr:
        verdict = "regression"
    else:
        verdict = "unresolved"
    return {
        "wins": wins, "losses": losses, "ties": len(gains) - wins - losses,
        "parent": pq, "change": cq, "parent_iqr": iqr, "median_gap": gap,
        "verdict": verdict,
    }


def _slashed(values: Sequence[float]) -> str:
    return "/".join(f"{value:.4g}" for value in values)


def export(repo: str, rev: str, into: str) -> str:
    """``git archive REV`` unpacked under *into*; returns the resolved rev."""
    resolved = subprocess.run(
        ["git", "-C", repo, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    os.makedirs(into)
    archive = subprocess.Popen(
        ["git", "-C", repo, "archive", "--format=tar", resolved], stdout=subprocess.PIPE
    )
    unpack = subprocess.run(["tar", "-xf", "-", "-C", into], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        raise SystemExit(f"ab_callpath: could not export {rev}")
    return resolved


def run_once(checkout: str, workload: str, seed: int, report: str) -> dict:
    """One ``run.py --trace 0`` in *checkout*; returns its result line."""
    command = [
        sys.executable, os.path.join("benchmarks", "callpath", "run.py"),
        "--workload", workload, "--trace", "0", "--seed", str(seed), "--output", report,
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"ab_callpath: run failed in {checkout} (exit {done.returncode})\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("rev_a", metavar="REV_A", help="the parent revision")
    parser.add_argument("rev_b", metavar="REV_B", help="the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="pair i uses seed + i on both sides")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    repo = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}

    runs: Dict[str, List[dict]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="ab-callpath-") as tmp:
        sides = {
            "a": os.path.join(tmp, "a"),
            "b": os.path.join(tmp, "b"),
        }
        revs = {
            "a": export(repo, args.rev_a, sides["a"]),
            "b": export(repo, args.rev_b, sides["b"]),
        }
        print(f"A (parent) {revs['a'][:12]}   B (change) {revs['b'][:12]}   "
              f"workload {args.workload}, {args.pairs} pairs")
        for pair in range(args.pairs):
            order = "ab" if pair % 2 == 0 else "ba"
            for side in order:
                report = os.path.join(tmp, f"{side}-{pair}.json")
                runs[side].append(
                    run_once(sides[side], args.workload, args.seed + pair, report)
                )
            a, b = runs["a"][-1], runs["b"][-1]
            print(
                f"pair {pair:>2} ({order}) seed {args.seed + pair}: {CLAIMED_METRIC} "
                f"A {a['metrics'][CLAIMED_METRIC]['value']:.1f}  "
                f"B {b['metrics'][CLAIMED_METRIC]['value']:.1f}   "
                f"failed A {a['failed']}/{a['attempted']} B {b['failed']}/{b['attempted']}",
                flush=True,
            )

    verdicts = {}
    print(f"\n{'metric':<22}{'wins':>5}{'loss':>5}  {'A q1/med/q3':>32}  {'B q1/med/q3':>32}  "
          f"{'gap':>10} {'A iqr':>9}  verdict")
    for name, direction in better.items():
        a_values = [run["metrics"][name]["value"] for run in runs["a"]]
        b_values = [run["metrics"][name]["value"] for run in runs["b"]]
        verdict = verdicts[name] = judge(a_values, b_values, direction)
        print(
            f"{name:<22}{verdict['wins']:>5}{verdict['losses']:>5}  "
            f"{_slashed(verdict['parent']):>32}  {_slashed(verdict['change']):>32}  "
            f"{verdict['median_gap']:>10.4g} {verdict['parent_iqr']:>9.4g}  {verdict['verdict']}"
        )
    failed = {
        side: sum(run["failed"] for run in runs[side])
        / max(sum(run["attempted"] for run in runs[side]), 1)
        for side in runs
    }
    print(f"failed share of calls: A {failed['a']:.2e}  B {failed['b']:.2e}")
    claimed = verdicts[CLAIMED_METRIC]["verdict"]
    print(f"claim on {CLAIMED_METRIC}: {claimed} "
          f"(needs >= {WIN_SHARE:.0%} of pairs and a median gap above the parent's IQR)")
    return 0 if claimed == "gain" and failed["b"] <= failed["a"] else 1


if __name__ == "__main__":
    sys.exit(main())
