"""The end-to-end pass: a single closed-loop client against a live child.

RMI stubs block on their reply, so callers *are* a closed loop. Input
generation and result checking sit between calls, outside the timed and
CPU-accounted section.

A run is a few launches of several equal windows each. Every timing
metric is computed per window and the run reports the **best value any
window reached** (``stats.py`` says why).
"""

from __future__ import annotations

import itertools
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Callable, Dict, Iterator, List, Optional

from launch import Launch, WorkloadFailed, peak_rss_kib, reset_own_peak_rss
from repro.errors import ServerBusyError
from stats import best, percentile, spread
from workloads import Workload

#: A launch whose machine-wide steal share exceeds this is measured again
#: (once per run: the time cap has no room for more).
STEAL_RERUN_SHARE = 0.05
#: Windows per launch in the end-to-end pass, after one warm-up window.
WINDOWS = 7
#: --quick: windows this long and a single launch.
QUICK_WINDOW_S = 0.3
#: Per-window metrics and the direction in which each is better.
WINDOW_METRICS = {
    "call_p50_us": "lower",
    "call_p90_us": "lower",
    "calls_per_s": "higher",
    "cpu_us_per_call": "lower",
    "e2e.client_cpu_us_per_call": "lower",
    "e2e.server_cpu_us_per_call": "lower",
}


@dataclass(frozen=True)
class Plan:
    """How one run's ``--seconds`` are spent: every launch is one
    warm-up window, *windows* measured windows and, in the traced pass,
    *traced_s* seconds of traced iterations."""

    launches: int
    windows: int
    window_s: float
    traced_s: float = 0.0

    @classmethod
    def end_to_end(cls, seconds: float, launches: int = 3) -> "Plan":
        # 24 s → 3 launches × (1 s warm-up + 7 windows × 1 s).
        return cls(launches, WINDOWS, seconds / (launches * (1 + WINDOWS)))

    @classmethod
    def traced(cls, seconds: float, launches: int = 2) -> "Plan":
        # 24 s → 2 launches × (0.5 s warm-up + 4 reference windows × 0.5 s
        # + 9.5 s of traced iterations).
        per_launch = seconds / launches
        window_s = per_launch / 24
        return cls(launches, 4, window_s, traced_s=per_launch - 5 * window_s)

    @classmethod
    def quick(cls, traced: bool) -> "Plan":
        """One launch of ``QUICK_WINDOW_S`` windows (smoke tests)."""
        if traced:
            return cls.traced(QUICK_WINDOW_S * 24, launches=1)
        return cls.end_to_end(QUICK_WINDOW_S * (1 + WINDOWS), launches=1)


@dataclass
class Tally:
    """Every call the run issued, and how the bad ones went wrong."""

    attempted: int = 0
    mismatches: int = 0
    errors: Counter = field(default_factory=Counter)
    #: The first few failures in full, for the report.
    examples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.mismatches + sum(self.errors.values())

    def error(self, exc: BaseException) -> None:
        self.errors[type(exc).__name__] += 1
        self._example(repr(exc))

    def mismatch(self, seed: int) -> None:
        self.mismatches += 1
        self._example(f"wrong result for call seed {seed}")

    def _example(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)


def call_failed(launch: Launch, tally: Tally, exc: BaseException) -> None:
    """Count a per-call exception and get ready for the next call: a dead
    child ends the workload, anything but a BUSY reply re-opens the channel."""
    tally.error(exc)
    launch.require_alive()
    if not isinstance(exc, ServerBusyError):
        launch.reopen_channel()


def call_seeds(seed: int) -> Iterator[int]:
    """The run's call seeds; 0 is kept for the set-up call."""
    return itertools.count(seed * 2**32 + 1)


def run_window(
    launch: Launch, workload: Workload, seeds: Iterator[int], duration_s: float,
    tally: Tally,
) -> Optional[Dict[str, float]]:
    """Issue calls back to back for *duration_s* and reduce the good ones
    to the window's metrics; ``None`` when no call succeeded."""
    latencies: List[int] = []
    client_cpu_ns = 0
    verify_every = workload.verify_every
    stub, method = launch.stub, workload.method
    server_cpu0 = launch.server_cpu_s()
    end = perf_counter() + duration_s
    while perf_counter() < end:
        seed = next(seeds)
        args, observe = workload.build(seed)
        tally.attempted += 1
        cpu0 = process_time_ns()
        t0 = perf_counter_ns()
        try:
            result = getattr(stub, method)(*args)
        except Exception as exc:  # noqa: BLE001 - counted, then the loop goes on
            call_failed(launch, tally, exc)
            continue
        t1 = perf_counter_ns()
        cpu1 = process_time_ns()
        if tally.attempted % verify_every == 0 and observe(result) != workload.expected(seed):
            tally.mismatch(seed)
            continue
        latencies.append(t1 - t0)
        client_cpu_ns += cpu1 - cpu0
    if not latencies:
        return None
    calls = len(latencies)
    client_cpu_us = client_cpu_ns / 1e3 / calls
    server_cpu_us = (launch.server_cpu_s() - server_cpu0) * 1e6 / calls
    return {
        "call_p50_us": percentile(latencies, 50) / 1e3,
        "call_p90_us": percentile(latencies, 90) / 1e3,
        "calls_per_s": calls / (sum(latencies) / 1e9),
        "cpu_us_per_call": client_cpu_us + server_cpu_us,
        "e2e.client_cpu_us_per_call": client_cpu_us,
        "e2e.server_cpu_us_per_call": server_cpu_us,
        "e2e.call_p99_us": percentile(latencies, 99) / 1e3,
        "calls": calls,
    }


def reduce_windows(windows: List[Dict[str, float]]) -> Dict[str, float]:
    """The best any of *windows* reached, per metric."""
    return {
        name: best([w[name] for w in windows], better)
        for name, better in WINDOW_METRICS.items()
    }


def measure_launch(
    launch: Launch, workload: Workload, seeds: Iterator[int], plan: Plan, tally: Tally,
    after_window: Optional[Callable[[], None]] = None,
) -> dict:
    """Warm up, run the windows; returns the launch's windows and the
    numbers that exist once per launch. *after_window* runs between
    windows (the traced pass interleaves its live calls there)."""
    run_window(launch, workload, seeds, plan.window_s, tally)
    steal0, jiffies0 = launch.steal_jiffies()
    wire_bytes = 0
    windows = []
    for _ in range(plan.windows):
        bytes0 = launch.channel_bytes()
        window = run_window(launch, workload, seeds, plan.window_s, tally)
        wire_bytes += launch.channel_bytes() - bytes0
        if window:
            windows.append(window)
        if after_window is not None:
            after_window()
    launch.require_alive()
    if not windows:
        raise WorkloadFailed(f"{workload.name}: no call succeeded in a whole launch")
    steal1, jiffies1 = launch.steal_jiffies()
    return {
        "windows": windows,
        "values": reduce_windows(windows),
        "wire_bytes": wire_bytes,
        "setup_s": launch.setup_s,
        "server_rss_kib": launch.server_peak_rss_kib(),
        "retries": launch.client.metrics.counter("calls.retries").value,
        "steal_share": (steal1 - steal0) / max(jiffies1 - jiffies0, 1),
        "window_spread": spread([w["call_p50_us"] for w in windows]),
        "pinned": launch.server_pinned,
    }


def reduce_run(launches: List[dict], tally: Tally) -> Dict[str, float]:
    """One run's metrics from its launches' windows."""
    windows = [w for launch in launches for w in launch["windows"]]
    calls = sum(w["calls"] for w in windows)
    client_peak_kib = peak_rss_kib()
    server_peak_kib = statistics.median(l["server_rss_kib"] for l in launches)
    failed_share = tally.failed / max(tally.attempted, 1)
    metrics = reduce_windows(windows)
    metrics.update({
        "wire_bytes_per_call": sum(l["wire_bytes"] for l in launches) / calls,
        "ok_share": 1.0 - failed_share,
        "rss_mb": (client_peak_kib + server_peak_kib) / 1024.0,
        "setup_s": statistics.median(l["setup_s"] for l in launches),
        "e2e.call_p99_us": statistics.median(w["e2e.call_p99_us"] for w in windows),
        "e2e.failed_share": failed_share,
        "e2e.retry_share": sum(l["retries"] for l in launches) / max(tally.attempted, 1),
        "e2e.window_spread": statistics.median(l["window_spread"] for l in launches),
        "e2e.launch_spread": spread([l["values"]["call_p50_us"] for l in launches]),
        "e2e.steal_share": statistics.median(l["steal_share"] for l in launches),
    })
    return metrics


def run_launches(
    workload: Workload, seed: int, plan: Plan, cpu: Optional[int],
    hard_timeout_s: float,
    body: Callable[[Launch, Workload, Iterator[int], Plan, Tally], dict] = measure_launch,
) -> dict:
    """All launches of one run; *body* is what happens inside a launch.
    *hard_timeout_s* bounds the whole run: whichever child is alive when
    it expires is killed and the workload fails."""
    tally = Tally()
    seeds = call_seeds(seed)
    launches: List[dict] = []
    reruns_left = 1
    reset_own_peak_rss()
    deadline = perf_counter() + hard_timeout_s
    while len(launches) < plan.launches:
        with Launch(workload, cpu, max(deadline - perf_counter(), 1.0)) as launch:
            measured = body(launch, workload, seeds, plan, tally)
        if measured["steal_share"] > STEAL_RERUN_SHARE and reruns_left:
            reruns_left -= 1
            continue
        launches.append(measured)
    return {
        "metrics": reduce_run(launches, tally),
        # Per-launch values: what --compare holds its bounds against.
        "launches": [
            dict(l["values"], setup_s=l["setup_s"]) for l in launches
        ],
        "window_p50s_us": [[w["call_p50_us"] for w in l["windows"]] for l in launches],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches,
        "errors": dict(tally.errors),
        "examples": tally.examples,
        "pinned": all(l["pinned"] for l in launches),
    }
