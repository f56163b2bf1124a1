"""The arithmetic behind every reported number.

A *window* reduces its per-call latencies to percentiles; a *run* reduces
its windows (three launches' worth) to one value per metric: the **best
any window reached** — the lowest of a lower-is-better metric, the
highest of a higher-is-better one. This is the Queueing-style "stable
window" ``repro.bench.regress`` uses, taken over the whole run.

Why the best and not the middle: noise on a shared box only ever adds
time, and this box switches between speed states on a scale of seconds
(a 256-node tree call reads ≈ 6.6 ms per window in the fast state and
≈ 8.3 ms in the slow one; busy hours add slower ones still). What share
of a run falls in which state varies freely, and every quantile of the
windows follows it — over ten quiet-hour runs of ``tree_full_tcp`` the
quartile spread of the lower quartile was 17 %, of the median 17 %, of
the minimum 2 %. A window is a median over a hundred calls or more, so
no single lucky call can set the floor; and with 21 windows a fast state
that holds one window in ten is still seen by nine runs in ten.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def best(values: Sequence[float], better: str) -> float:
    """The best of per-window *values*, in the metric's *better* direction."""
    return min(values) if better == "lower" else max(values)


def spread(values: Sequence[float]) -> float:
    """max ÷ min of positive values (1.0 = identical)."""
    low = min(values)
    return max(values) / low if low > 0 else math.inf
