"""Two sets of runs, one row per (workload, end-to-end metric).

The verdict rule is the choosing-metrics one: a metric is ``worse`` when
the second set's value is worse than the first's by more than the bound
the benchmark fixes; when either set's own spread is wider than the
bound, the row is ``unresolved`` rather than ``ok`` — unless every launch
of the second set reads better than every launch of the first, which no
amount of noise explains away.

A set's spread is the gap between its two best launches. A run reports
the best window any launch reached, so what makes its value trustworthy
is a second launch getting close to it; how far the worst launch fell
behind says how long a neighbour was busy, not how good the floor is.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def confirmation_gap(launches: Sequence[float], better: str) -> float:
    """Distance from the best launch value to the second best, as a share
    of the best; 0 for a single value."""
    if len(launches) < 2:
        return 0.0
    ordered = sorted(launches, reverse=better == "higher")
    return abs(ordered[1] - ordered[0]) / abs(ordered[0]) if ordered[0] else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def verdict(
    first: float, second: float, first_launches: Sequence[float],
    second_launches: Sequence[float], better: str, bound: float,
) -> str:
    noise = max(
        confirmation_gap(first_launches, better), confirmation_gap(second_launches, better)
    )
    if better == "lower":
        all_better = max(second_launches) <= min(first_launches)
        all_worse = min(second_launches) > max(first_launches)
    else:
        all_better = min(second_launches) >= max(first_launches)
        all_worse = max(second_launches) < min(first_launches)
    if worse_by(first, second, better) > bound:
        return "worse" if noise <= bound or all_worse else "unresolved"
    return "ok" if noise <= bound or all_better else "unresolved"


def compare_sets(first: dict, second: dict, contract: dict) -> List[Dict[str, object]]:
    """Rows for every (workload, end-to-end metric) both sets measured."""
    rows: List[Dict[str, object]] = []
    for workload in (w["name"] for w in contract["workloads"]):
        a = first.get(workload, {}).get("end_to_end")
        b = second.get(workload, {}).get("end_to_end")
        if not a or not b:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a_value, b_value = a["metrics"][name], b["metrics"][name]
            # Run-level shares have no per-launch values: no spread.
            a_launches = [l[name] for l in a["launches"] if name in l] or [a_value]
            b_launches = [l[name] for l in b["launches"] if name in l] or [b_value]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "first": a_value,
                "second": b_value,
                "ratio": b_value / a_value if a_value else float("nan"),
                "bound": metric["bound"],
                "spread": max(
                    confirmation_gap(a_launches, metric["better"]),
                    confirmation_gap(b_launches, metric["better"]),
                ),
                "verdict": verdict(
                    a_value, b_value, a_launches, b_launches,
                    metric["better"], metric["bound"],
                ),
            })
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':<22} {'metric':<20} {'first':>12} {'second':>12} "
        f"{'second/first':>12} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<22} {row['metric']:<20} {row['first']:>12.4g} "
            f"{row['second']:>12.4g} {row['ratio']:>12.3f} {row['bound']:>6.2f} "
            f"{row['spread']:>7.3f}  {row['verdict']} ({row['unit']})"
        )
    return "\n".join(lines)
