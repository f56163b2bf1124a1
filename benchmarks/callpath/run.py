"""callpath — the repository's benchmark.

Four cross-process call workloads, each driven by one closed-loop client
thread against a real server child; eight end-to-end metrics a caller
would see, and an outside-in per-layer budget for the same call. Names,
units and regression bounds are fixed in the root BENCHMARK.json;
README.md beside this file says why each exists.

    python3 benchmarks/callpath/run.py                  # all workloads, both passes
    python3 benchmarks/callpath/run.py --workload echo64_shm --trace 0
    python3 benchmarks/callpath/run.py --check
    python3 benchmarks/callpath/run.py --trace 0 --repeat 2
    python3 benchmarks/callpath/run.py --compare A.json B.json

With one ``--workload`` and an explicit ``--trace``, the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

from checkout import OUT_DIR, ROOT, add_src_to_path, load_contract
from compare import compare_sets, format_rows

CHECK_CALLS = 50
#: A pass over one workload may take this long before its child is killed
#: and the workload reported as failed.
HARD_TIMEOUT_S = 150.0


def parse_args(argv: Optional[List[str]], contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="measuring time of one pass over one workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end pass only; 1: traced per-layer pass only; omitted: both",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="0.3 s windows, one launch (smoke test)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"{CHECK_CALLS} fully verified calls per workload; exit 1 on any failure",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="measure this many full sets and compare the first two",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two reports instead of measuring",
    )
    parser.add_argument("--output", help="report path (default: out/ beside this file)")
    parser.add_argument(
        "--spans", help="also write every span of the last traced pass, one JSON per line"
    )
    return parser.parse_args(argv)


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def print_metrics(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.4f} {units.get(name, '')}")


def compare_and_print(first: dict, second: dict, contract: dict) -> int:
    rows = compare_sets(first, second, contract)
    print(format_rows(rows))
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


def pin(workload, cpus: List[int]) -> Optional[int]:
    """Pin this process as *workload* wants it; returns the server's CPU
    (None when the client could not be pinned: then neither is)."""
    from launch import pick_cpus, pin_self

    client_cpu, server_cpu = pick_cpus(cpus, workload.split_cpus)
    return server_cpu if pin_self(client_cpu) else None


def run_check(workloads, cpus: List[int]) -> int:
    from launch import Launch
    from measure import Tally, call_failed, call_seeds

    bad = 0
    for workload in workloads:
        tally = Tally()
        seeds = call_seeds(0)
        with Launch(workload, pin(workload, cpus), HARD_TIMEOUT_S) as launch:
            for _ in range(CHECK_CALLS):
                seed = next(seeds)
                args, observe = workload.build(seed)
                tally.attempted += 1
                try:
                    result = getattr(launch.stub, workload.method)(*args)
                except Exception as exc:  # noqa: BLE001 - reported below
                    call_failed(launch, tally, exc)
                    continue
                if observe(result) != workload.expected(seed):
                    tally.mismatch(seed)
        print(
            f"check {workload.name:<22} {tally.attempted} calls, "
            f"{tally.mismatches} mismatches, errors {dict(tally.errors)} {tally.examples}"
        )
        bad += tally.failed
    return 1 if bad else 0


def measure_pass(
    workload, traced: int, args: argparse.Namespace, cpus: List[int]
) -> dict:
    """One pass over one workload; ``metrics`` holds every metric of the
    pass's kind by its BENCHMARK.json name."""
    from layers import TracedPass
    from measure import Plan, run_launches

    cpu = pin(workload, cpus)
    if args.quick:
        plan = Plan.quick(bool(traced))
    else:
        plan = (Plan.traced if traced else Plan.end_to_end)(args.seconds)
    if not traced:
        return run_launches(workload, args.seed, plan, cpu, HARD_TIMEOUT_S)
    tracer = TracedPass()
    result = run_launches(
        workload, args.seed, plan, cpu, HARD_TIMEOUT_S, body=tracer.body
    )
    result["metrics"] = tracer.metrics(result["metrics"])
    result["spans"] = tracer.summary()
    if args.spans:
        tracer.recorder.dump(args.spans)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    args = parse_args(argv, contract)
    if args.compare:
        first, second = (
            json.load(open(path, encoding="utf-8"))["sets"][0] for path in args.compare
        )
        return compare_and_print(first, second, contract)

    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Client and server hash identically, and identically on every run.
        os.execve(
            sys.executable, [sys.executable] + sys.argv,
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    add_src_to_path()
    from launch import WorkloadFailed, usable_cpus
    from workloads import WORKLOADS

    if {w["name"] for w in contract["workloads"]} != set(WORKLOADS):
        raise SystemExit("callpath: BENCHMARK.json and workloads.py name different workloads")
    selected = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    cpus = usable_cpus()
    if args.check:
        return run_check(selected, cpus)

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    passes = [0, 1] if args.trace is None else [args.trace]
    sets: List[Dict[str, dict]] = []
    status = 0
    result: Optional[dict] = None
    for _ in range(args.repeat):
        results: Dict[str, dict] = {}
        for workload in selected:
            for traced in passes:
                kind = "per_layer" if traced else "end_to_end"
                try:
                    result = measure_pass(workload, traced, args, cpus)
                except WorkloadFailed as exc:
                    print(f"{workload.name} [{kind}]: FAILED — {exc}")
                    status = 1
                    result = None
                    continue
                results.setdefault(workload.name, {})[kind] = result
                print_metrics(
                    f"{workload.name} [{kind}]: {result['attempted']} calls, "
                    f"{result['failed']} failed",
                    result["metrics"], units,
                )
                if result["failed"]:
                    status = 1
        sets.append(results)

    report = {
        "benchmark": "callpath",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "environment": {
            "nproc": os.cpu_count(),
            "usable_cpus": cpus,
            "python": platform.python_version(),
            "git_rev": git_rev(),
        },
        "sets": sets,
    }
    output = args.output
    if output is None:
        os.makedirs(OUT_DIR, exist_ok=True)
        scope = args.workload or "all"
        mode = "both" if args.trace is None else f"trace{args.trace}"
        output = os.path.join(OUT_DIR, f"callpath-{scope}-seed{args.seed}-{mode}.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"report: {output}")

    if args.repeat > 1:
        status |= compare_and_print(sets[0], sets[1], contract)
    if args.workload and args.trace is not None and args.repeat == 1 and result is not None:
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                for m in contract["per_layer" if args.trace else "end_to_end"]
            },
        }))
        # A wrong answer is reported in the line above, not by the exit code.
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
