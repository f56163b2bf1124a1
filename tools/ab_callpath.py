"""Interleaved A/B of two revisions on callpath workloads.

    python3 tools/ab_callpath.py REV_A REV_B --workload W [--workload W2 ...]
        [--claim WORKLOAD:METRIC] [--pairs 10]

REV_A is the parent, REV_B the change. Both are exported with
``git archive`` into a temporary directory (committed files only, each in
a directory of its own — what the driver of ``BENCHMARK.json`` does; no
worktree metadata is left in ``.git``), and every run executes that
export's *own* ``benchmarks/callpath/run.py --workload W --trace 0
--seed S``, so each side is measured by the benchmark it shipped with.

The box this repository is measured on drifts by tens of percent within
the hour (``benchmarks/callpath/README.md``), so the two sides alternate:
pair *i* runs A then B when *i* is even and B then A when it is odd, both
with seed ``--seed + i``, and every pair visits each workload in turn;
run length is whatever each ``run.py`` takes from ``BENCHMARK.json``.
The tool prints one metric of every pair (the claimed one, else
``call_p50_us``), then one table per workload: per end-to-end metric the
wins, both medians and quartiles, and the verdict of the choosing-metrics
rule — the change wins at least nine tenths of the pairs (ties count for
neither) **and** the medians differ by more than the distance between
the parent's quartiles.

``--claim WORKLOAD:METRIC`` names the gain the change claims, if any.
Exit 0 means that claim (when given) is a gain, and on every workload no
larger share of failed calls and no metric whose median got worse by
more than its ``BENCHMARK.json`` bound, whatever its verdict (a steady
1 % on a metric bounded at 10 % reads ``regression`` and still passes; a
30 % move that lost only eight pairs reads ``unresolved`` and still
blocks). Without a claim only those two checks decide. No network;
reports go to the temporary directory, nothing is written under
``benchmarks/callpath``.
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

#: The metric each pair's progress line shows when nothing is claimed.
PROGRESS_METRIC = "call_p50_us"


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


def beyond_bound(verdict: Dict[str, object], bound: float) -> bool:
    """The change's median is worse than the parent's by more than
    *bound* (a fraction of the parent's median), whatever the verdict:
    a wide spread makes a large move ``unresolved``, not harmless."""
    worse = -verdict["median_gap"]
    if worse <= 0:
        return False
    base = abs(verdict["parent"][1])
    return base == 0 or worse / base > bound


def blockers(
    verdicts: Dict[str, Dict[str, Dict[str, object]]],
    bounds: Dict[str, float],
    failed: Dict[str, Tuple[float, float]],
    claim: Optional[Tuple[str, str]] = None,
) -> List[str]:
    """Why the change does not pass; empty when it does.

    *verdicts* maps workload → metric → :func:`judge` result; *failed*
    maps workload → (parent, change) share of failed calls; *claim* is
    the ``(workload, metric)`` claimed as a gain, or None.
    """
    reasons = []
    if claim is not None:
        workload, metric = claim
        verdict = verdicts[workload][metric]["verdict"]
        if verdict != "gain":
            reasons.append(f"{workload}: {metric} is {verdict}, not a gain")
    for workload, table in verdicts.items():
        for name, verdict in table.items():
            if beyond_bound(verdict, bounds[name]):
                reasons.append(
                    f"{workload}: {name} got worse beyond its {bounds[name]:.1%} bound"
                )
        parent_failed, change_failed = failed[workload]
        if change_failed > parent_failed:
            reasons.append(f"{workload}: a larger share of calls failed")
    return reasons


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


def parse_claim(text: str) -> Tuple[str, str]:
    """``WORKLOAD:METRIC`` → ``(workload, metric)``."""
    workload, sep, metric = text.rpartition(":")
    if not sep or not workload or not metric:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {text!r}")
    return workload, metric


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("rev_a", metavar="REV_A", help="the parent revision")
    parser.add_argument("rev_b", metavar="REV_B", help="the change")
    parser.add_argument(
        "--workload", action="append", required=True,
        help="repeatable; every one is held to its BENCHMARK.json bounds",
    )
    parser.add_argument(
        "--claim", type=parse_claim, default=None, metavar="WORKLOAD:METRIC",
        help="the gain the change claims, if any (exit 1 unless it is one)",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="pair i uses seed + i on both sides")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    workloads = list(dict.fromkeys(args.workload))

    repo = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
    ).stdout.strip()
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    claim = args.claim
    if claim is not None:
        if claim[0] not in workloads:
            parser.error(f"--claim names {claim[0]}, which no --workload runs")
        if claim[1] not in better:
            parser.error(f"--claim names {claim[1]}, not a BENCHMARK.json end-to-end metric")
    shown = claim[1] if claim is not None else PROGRESS_METRIC

    runs: Dict[str, Dict[str, List[dict]]] = {w: {"a": [], "b": []} for w in workloads}
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
              f"workloads {' '.join(workloads)}, {args.pairs} pairs")
        for pair in range(args.pairs):
            order = "ab" if pair % 2 == 0 else "ba"
            for workload in workloads:
                for side in order:
                    report = os.path.join(tmp, f"{workload}-{side}-{pair}.json")
                    runs[workload][side].append(
                        run_once(sides[side], workload, args.seed + pair, report)
                    )
                a, b = runs[workload]["a"][-1], runs[workload]["b"][-1]
                print(
                    f"pair {pair:>2} ({order}) seed {args.seed + pair} {workload}: "
                    f"{shown} A {a['metrics'][shown]['value']:.1f}  "
                    f"B {b['metrics'][shown]['value']:.1f}   "
                    f"failed A {a['failed']}/{a['attempted']} B {b['failed']}/{b['attempted']}",
                    flush=True,
                )

    verdicts: Dict[str, Dict[str, Dict[str, object]]] = {}
    failed: Dict[str, Tuple[float, float]] = {}
    for workload in workloads:
        table = verdicts[workload] = {}
        print(f"\n{workload}")
        print(f"{'metric':<22}{'wins':>5}{'loss':>5}  {'A q1/med/q3':>32}  "
              f"{'B q1/med/q3':>32}  {'gap':>10} {'A iqr':>9}  verdict")
        for name, direction in better.items():
            a_values = [run["metrics"][name]["value"] for run in runs[workload]["a"]]
            b_values = [run["metrics"][name]["value"] for run in runs[workload]["b"]]
            verdict = table[name] = judge(a_values, b_values, direction)
            print(
                f"{name:<22}{verdict['wins']:>5}{verdict['losses']:>5}  "
                f"{_slashed(verdict['parent']):>32}  {_slashed(verdict['change']):>32}  "
                f"{verdict['median_gap']:>10.4g} {verdict['parent_iqr']:>9.4g}  "
                f"{verdict['verdict']}"
                + (" beyond bound" if beyond_bound(verdict, bounds[name]) else "")
            )
        shares = [
            sum(run["failed"] for run in runs[workload][side])
            / max(sum(run["attempted"] for run in runs[workload][side]), 1)
            for side in "ab"
        ]
        failed[workload] = (shares[0], shares[1])
        print(f"failed share of calls: A {shares[0]:.2e}  B {shares[1]:.2e}")
    reasons = blockers(verdicts, bounds, failed, claim)
    if claim is None:
        print("\nno claim: only the bounds and the failed shares decide")
    else:
        print(f"\nclaim on {claim[0]} {claim[1]}: {verdicts[claim[0]][claim[1]]['verdict']} "
              f"(needs >= {WIN_SHARE:.0%} of pairs and a median gap above the parent's IQR)")
    for reason in reasons:
        print(f"blocked: {reason}")
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
