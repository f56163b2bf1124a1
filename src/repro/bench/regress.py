"""Benchmark-regression runner: ``python -m repro.bench.regress``.

Replays the serde micro-benchmark (``bench_serde_micro``: encode/decode of
scenario III trees under the legacy, modern, and modern-interp — codegen
disabled — profiles), a tcp/uds/shm transport round-trip comparison, a
transport × payload × framing **matrix** (echo calls carrying 64 B–64 KiB
byte payloads over plain and pipelined channels, one windowed-percentile
row per cell), Table-5-style NRMI copy-restore calls, the delta-restore
ablation (full-map vs dirty-slot replies under sparse and dense
mutators), and a concurrency sweep (the staged event-loop server vs the
thread-per-connection baseline under 8/32/128 simultaneous echo clients:
pooled p50/p99 latency, throughput, and the BUSY shed rate), a
**zero-copy × payload** ladder over shm (the staged copy path vs
in-place ring encode/borrowed decode, headline
``shm_zerocopy_vs_shm`` ratio per payload size), and writes the
measurements to ``BENCH_pr10.json`` at the repository root (override
with ``--out``).

Serde-micro and transport timings use **windowed percentiles**: the
operation runs back-to-back inside fixed wall-clock windows (1 s each in
full mode), the *stable window* — the one with the lowest median — is
selected, and its p50/p90/p99 are reported. The p50 of the stable window
is the headline number (``encode_us``/``decode_us``/``rt_us``) the
regression gate compares; it is as robust as min-of-rounds against
background load but additionally exposes tail behaviour. The Table-5 call
replay and the delta ablation keep the classic min-of-rounds timer.

The run doubles as a regression gate: when the output file already exists,
the new serde-micro **encode and decode** p50s are compared against the
recorded ones and the process exits non-zero if either profile regressed
by more than ``MAX_ENCODE_REGRESSION_PCT``. CI runs ``--quick`` (small
trees, short windows — a smoke test, not a stable measurement); local
runs without flags produce the full-size numbers.

``--compare OLD.json NEW.json`` instead diffs two recorded reports: it
prints a per-metric delta table and exits non-zero — naming every failing
metric in the final exit message — if any time-like metric (``*_us``)
regressed by more than ``MAX_ENCODE_REGRESSION_PCT``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import socket as _socket
import subprocess
import sys
import threading
import time
from dataclasses import replace as _dc_replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench.trees import generate_workload
from repro.core.markers import Remote
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.serde.codegen import codegen_metrics
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter
from repro.transport.reliability import RetryPolicy
from repro.transport.resolver import ChannelResolver
from repro.transport.shm import shm_supported

SCENARIO = "III"
SEED = 7
FULL_SIZE = 256
QUICK_SIZE = 64

#: Wall-clock length of one measurement window in full mode. Quick mode
#: shrinks it (see :func:`main`) — quick numbers are a smoke signal only.
WINDOW_SECONDS = 1.0
#: Windows measured per operation; the one with the lowest p50 wins.
WINDOW_COUNT = 3

#: Fail the gate when a serde-micro timing (encode or decode) is this
#: much slower than the previously recorded run. The name predates the
#: decode gate; it is kept because tooling and tests reference it.
MAX_ENCODE_REGRESSION_PCT = 25.0

#: Serde-micro metrics the gate holds to the recorded run (stable-window
#: p50s; the tail percentiles are reported but too noisy to gate on).
_GATED_OPS = ("encode_us", "decode_us")

#: Pre-PR timings (µs) for the serde micro-benchmark, recorded on the
#: development machine immediately before the compiled-plan/zero-copy
#: work landed. Indicative only — the regression gate compares against the
#: locally recorded JSON, never against these cross-machine numbers.
PRE_PR_BASELINE_US = {
    256: {
        "modern": {"encode_us": 3067.0, "decode_us": 2887.0},
        "legacy": {"encode_us": 4933.0, "decode_us": 4412.0},
    },
    64: {
        "modern": {"encode_us": 1293.0, "decode_us": 1032.0},
        "legacy": {"encode_us": 2097.0, "decode_us": 1646.0},
    },
}

#: Serde-micro profile matrix. "modern-interp" is the modern wire format
#: with exec-codegen disabled — the PR 5 configuration — kept as a
#: measured row so the codegen speedup is visible inside one report.
_PROFILES = {
    "modern": MODERN_PROFILE,
    "modern-interp": _dc_replace(MODERN_PROFILE, use_codegen=False),
    "legacy": LEGACY_PROFILE,
}

# Table-5 configurations exercised by the call replay (the paper's JDK 1.3
# cell and its fastest JDK 1.4 cell).
_TABLE5_CONFIGS = {
    "legacy-portable": NRMIConfig(profile="legacy", implementation="portable"),
    "modern-optimized": NRMIConfig(profile="modern", implementation="optimized"),
}

# Concurrency-sweep grid: simultaneous echo connections per server kind.
# Full mode reaches 128 connections — the regime where a thread per
# connection costs 128 server threads while the staged core still runs
# one net thread plus a fixed worker pool.
_SWEEP_CONNECTIONS_FULL = (8, 32, 128)
_SWEEP_CONNECTIONS_QUICK = (4, 16)
_SWEEP_WORKERS = 8
_SWEEP_PAYLOAD = b"x" * 64

# Mutation densities for the delta-restore ablation: "sparse" touches ~5%
# of the nodes per call (the regime dirty-slot replies are built for),
# "dense" touches every node (the worst case, where a delta reply carries
# the whole map plus index overhead and must stay near full-map cost).
_DELTA_MUTATIONS = {"sparse": 0.05, "dense": 1.0}


def _min_of_rounds(fn, rounds: int, iterations: int) -> float:
    """Best per-iteration time in µs across *rounds* timed loops."""
    fn()  # warm caches and compiled plans outside the timed region
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best * 1e6


# ------------------------------------------------------ windowed percentiles


def _percentile(samples_sorted: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    index = max(0, math.ceil(q * len(samples_sorted)) - 1)
    return samples_sorted[index]


def _windowed_stats(
    fn: Callable[[], object],
    windows: int = WINDOW_COUNT,
    window_seconds: float = WINDOW_SECONDS,
) -> Dict[str, float]:
    """p50/p90/p99 (µs) of *fn* from its most stable measurement window.

    Runs *fn* back-to-back for *windows* fixed wall-clock windows,
    timing each call individually, then picks the window with the lowest
    median — one transient background spike (a GC, another process's
    scheduling burst) poisons one window, not the whole measurement —
    and reads the percentiles off that window alone.
    """
    fn()  # warm caches, compiled plans, and generated functions
    best_window: Optional[List[float]] = None
    best_p50 = float("inf")
    for _ in range(windows):
        samples: List[float] = []
        deadline = time.perf_counter() + window_seconds
        while True:
            start = time.perf_counter()
            if start >= deadline:
                break
            fn()
            samples.append(time.perf_counter() - start)
        if not samples:  # pathological: one call outlasted the window
            continue
        samples.sort()
        p50 = _percentile(samples, 0.50)
        if p50 < best_p50:
            best_p50 = p50
            best_window = samples
    if best_window is None:
        raise RuntimeError("no measurement window collected any samples")
    return {
        "p50": _percentile(best_window, 0.50) * 1e6,
        "p90": _percentile(best_window, 0.90) * 1e6,
        "p99": _percentile(best_window, 0.99) * 1e6,
        "samples": float(len(best_window)),
    }


def run_serde_micro(
    size: int, windows: int, window_seconds: float
) -> Dict[str, Dict]:
    """Encode + decode percentiles per profile for one scenario III tree."""
    root = generate_workload(SCENARIO, size, SEED).root
    results: Dict[str, Dict] = {}
    for name, profile in _PROFILES.items():
        def encode() -> bytes:
            writer = ObjectWriter(profile=profile)
            writer.write_root(root)
            return writer.getvalue()

        payload = encode()

        def decode():
            return ObjectReader(payload, profile=profile).read_root()

        enc = _windowed_stats(encode, windows, window_seconds)
        dec = _windowed_stats(decode, windows, window_seconds)
        results[name] = {
            "encode_us": round(enc["p50"], 1),
            "encode_p90_us": round(enc["p90"], 1),
            "encode_p99_us": round(enc["p99"], 1),
            "decode_us": round(dec["p50"], 1),
            "decode_p90_us": round(dec["p90"], 1),
            "decode_p99_us": round(dec["p99"], 1),
            "window_samples": int(min(enc["samples"], dec["samples"])),
            "bytes": len(payload),
        }
    return results


def _transport_unavailable(scheme: str) -> Optional[str]:
    """Why *scheme* cannot run on this platform, or ``None`` if it can."""
    if scheme in ("uds", "shm") and not hasattr(_socket, "AF_UNIX"):
        return "platform lacks AF_UNIX"
    if scheme == "shm" and not shm_supported():
        return "platform lacks shm prerequisites (memfd/shm_open + send_fds)"
    return None


def run_transport_rt(windows: int, window_seconds: float) -> Dict[str, Dict]:
    """Framed round-trip percentiles: TCP loopback vs Unix sockets vs shm.

    The probe is a PING — the smallest framed exchange the protocol has —
    so the numbers isolate transport cost (syscalls and the TCP/IP stack,
    a kernel byte copy, or two shared-memory ring writes) from
    marshalling. Rows whose transport the platform cannot provide report
    ``skipped``.
    """
    results: Dict[str, Dict] = {}
    for scheme in ("tcp", "uds", "shm"):
        unavailable = _transport_unavailable(scheme)
        if unavailable:
            results[scheme] = {"skipped": unavailable}
            continue
        resolver = ChannelResolver()
        # Sequential framing on purpose: the pipelined channel adds a
        # reader-thread handoff per call, which on a loaded machine is
        # scheduler noise comparable to the transport cost under test.
        config = NRMIConfig(transport=scheme, tcp_pipelined=False)
        server = Endpoint(
            name=f"rt-server-{scheme}", config=config, resolver=resolver
        )
        client = Endpoint(
            name=f"rt-client-{scheme}", config=config, resolver=resolver
        )
        try:
            address = server.serve_remote()

            def call():
                client.ping(address)

            stats = _windowed_stats(call, windows, window_seconds)
            results[scheme] = {
                "rt_us": round(stats["p50"], 1),
                "rt_p90_us": round(stats["p90"], 1),
                "rt_p99_us": round(stats["p99"], 1),
                "window_samples": int(stats["samples"]),
            }
        finally:
            client.close()
            server.close()
            resolver.close_all()
    tcp_p50 = results.get("tcp", {}).get("rt_us")
    uds_p50 = results.get("uds", {}).get("rt_us")
    shm_p50 = results.get("shm", {}).get("rt_us")
    if tcp_p50 and uds_p50:
        results["uds_vs_tcp_speedup"] = round(tcp_p50 / uds_p50, 2)
    if uds_p50 and shm_p50:
        results["shm_vs_uds_speedup"] = round(uds_p50 / shm_p50, 2)
    return results


#: Transport-matrix payload ladder: 64 B rides inside one sendmsg
#: coalesce / TCP segment, 4 KiB is one ring record / socket buffer
#: chunk, 64 KiB forces the shm ring to wrap and chunk mid-message.
_MATRIX_PAYLOADS_FULL = (64, 4096, 65536)
_MATRIX_PAYLOADS_QUICK = (64, 4096)
_MATRIX_SCHEMES = ("tcp", "uds", "shm")
_MATRIX_MODES = ("plain", "pipelined")


class _MatrixEchoService(Remote):
    """Echoes a bytes payload — the smallest *marshalled* exchange.

    Unlike :func:`run_transport_rt`'s raw PING, the matrix goes through
    lookup/dispatch and serde with a primitive payload, so cells measure
    the full call path with payload size as the controlled variable.
    """

    def echo(self, data: bytes) -> bytes:
        return data


def run_transport_matrix(
    windows: int,
    window_seconds: float,
    payload_sizes=_MATRIX_PAYLOADS_FULL,
) -> Dict[str, Dict]:
    """Transport × payload × framing grid of echo-call percentiles.

    One row per (scheme, channel mode, payload size) cell:
    ``results[scheme][mode]["64B"] == {"rt_us": ..., "rt_p99_us": ...}``.
    ``plain`` is the sequential framed channel, ``pipelined`` the
    multi-call-in-flight variant (a reader-thread handoff per call).
    Unavailable transports collapse to a ``skipped`` row, so reports
    from platforms without shm still diff cleanly under ``--compare``.
    The headline cross-transport ratios (``shm_vs_uds_speedup_64B``,
    ``uds_vs_tcp_speedup_64B``) come from the plain 64 B cells — the
    cells where transport cost dominates marshalling.
    """
    results: Dict[str, Dict] = {
        "meta": {
            "payload_bytes": [int(size) for size in payload_sizes],
            "workload": "echo(bytes) via lookup/dispatch + serde",
        }
    }
    for scheme in _MATRIX_SCHEMES:
        unavailable = _transport_unavailable(scheme)
        if unavailable:
            results[scheme] = {"skipped": unavailable}
            continue
        scheme_rows: Dict[str, Dict] = {}
        for mode in _MATRIX_MODES:
            resolver = ChannelResolver()
            config = NRMIConfig(
                transport=scheme, tcp_pipelined=(mode == "pipelined")
            )
            server = Endpoint(
                name=f"matrix-server-{scheme}-{mode}",
                config=config,
                resolver=resolver,
            )
            client = Endpoint(
                name=f"matrix-client-{scheme}-{mode}",
                config=config,
                resolver=resolver,
            )
            mode_rows: Dict[str, Dict] = {}
            try:
                # serve_remote() is what moves the endpoint's address off
                # inproc:// and onto the scheme under test — without it
                # every cell would silently measure direct dispatch.
                address = server.serve_remote()
                server.bind("echo", _MatrixEchoService())
                service = client.lookup(address, "echo")
                for size in payload_sizes:
                    payload = b"x" * size

                    def call():
                        service.echo(payload)

                    stats = _windowed_stats(call, windows, window_seconds)
                    mode_rows[f"{size}B"] = {
                        "rt_us": round(stats["p50"], 1),
                        "rt_p90_us": round(stats["p90"], 1),
                        "rt_p99_us": round(stats["p99"], 1),
                        "window_samples": int(stats["samples"]),
                    }
            finally:
                client.close()
                server.close()
                resolver.close_all()
            scheme_rows[mode] = mode_rows
        results[scheme] = scheme_rows

    def _plain_64(scheme: str) -> Optional[float]:
        return (
            results.get(scheme, {})
            .get("plain", {})
            .get("64B", {})
            .get("rt_us")
        )

    tcp_p50, uds_p50, shm_p50 = (
        _plain_64("tcp"), _plain_64("uds"), _plain_64("shm")
    )
    if tcp_p50 and uds_p50:
        results["uds_vs_tcp_speedup_64B"] = round(tcp_p50 / uds_p50, 2)
    if uds_p50 and shm_p50:
        results["shm_vs_uds_speedup_64B"] = round(uds_p50 / shm_p50, 2)
    return results


def run_zero_copy_matrix(
    windows: int,
    window_seconds: float,
    payload_sizes=_MATRIX_PAYLOADS_FULL,
) -> Dict[str, Dict]:
    """Zero-copy × payload ladder over the shm transport.

    Two rows per payload size: ``copy`` takes the client's staged route
    (selected by allowing one resend, ``RetryPolicy(max_attempts=2)``:
    encode into a pooled buffer, write_frame copies it into the ring,
    recv copies the reply out) and ``zerocopy`` lets the client encode
    straight into the ring reservation and decode the reply off a
    borrowed ring slice. The server borrows the request record in place
    in both rows. Wire bytes are identical; the ladder isolates what the
    client's two staging copies cost at each size. The headline
    ``shm_zerocopy_vs_shm`` ratios are copy-p50 / zerocopy-p50 per cell
    (> 1.0 means zero-copy wins). Sequential framing on purpose, same
    rationale as :func:`run_transport_rt`.
    """
    results: Dict[str, Dict] = {
        "meta": {
            "payload_bytes": [int(size) for size in payload_sizes],
            "workload": "echo(bytes) via lookup/dispatch + serde, shm plain",
        }
    }
    unavailable = _transport_unavailable("shm")
    if unavailable:
        results["skipped"] = unavailable
        return results
    staged = RetryPolicy(max_attempts=2)
    for label, retry in (("copy", staged), ("zerocopy", RetryPolicy())):
        resolver = ChannelResolver()
        config = NRMIConfig(transport="shm", tcp_pipelined=False, retry=retry)
        server = Endpoint(
            name=f"zc-server-{label}", config=config, resolver=resolver
        )
        client = Endpoint(
            name=f"zc-client-{label}", config=config, resolver=resolver
        )
        rows: Dict[str, Dict] = {}
        try:
            address = server.serve_remote()
            server.bind("echo", _MatrixEchoService())
            service = client.lookup(address, "echo")
            for size in payload_sizes:
                payload = b"x" * size

                def call():
                    service.echo(payload)

                stats = _windowed_stats(call, windows, window_seconds)
                rows[f"{size}B"] = {
                    "rt_us": round(stats["p50"], 1),
                    "rt_p90_us": round(stats["p90"], 1),
                    "rt_p99_us": round(stats["p99"], 1),
                    "window_samples": int(stats["samples"]),
                }
        finally:
            client.close()
            server.close()
            resolver.close_all()
        results[label] = rows
    ratios: Dict[str, float] = {}
    for size in payload_sizes:
        cell = f"{size}B"
        copy_p50 = results.get("copy", {}).get(cell, {}).get("rt_us")
        zc_p50 = results.get("zerocopy", {}).get(cell, {}).get("rt_us")
        if copy_p50 and zc_p50:
            ratios[cell] = round(copy_p50 / zc_p50, 3)
    if ratios:
        results["shm_zerocopy_vs_shm"] = ratios
    return results


def run_table5_calls(size: int, rounds: int, iterations: int) -> Dict[str, Dict]:
    """NRMI copy-restore round trips (no simulated network) per config."""
    results: Dict[str, Dict] = {}
    for name, config in _TABLE5_CONFIGS.items():
        resolver = ChannelResolver()
        server = Endpoint(name=f"regress-server-{name}", config=config, resolver=resolver)
        client = Endpoint(name=f"regress-client-{name}", config=config, resolver=resolver)
        try:
            from repro.bench.mutators import TreeService

            server.bind("svc", TreeService())
            service = client.lookup(server.address, "svc")
            workload = generate_workload(SCENARIO, size, SEED)

            def call():
                service.mutate(SCENARIO, workload.root, SEED)

            results[name] = {
                "call_us": round(_min_of_rounds(call, rounds, iterations), 1)
            }
        finally:
            client.close()
            server.close()
            resolver.close_all()
    return results


def run_delta_restore(
    size: int,
    rounds: int,
    iterations: int,
    mutations: Optional[Dict[str, float]] = None,
) -> Dict[str, Dict]:
    """Full-map vs dirty-slot replies under sparse and dense mutators.

    Every call mutates under a *fresh* seed: with a repeated seed the
    deterministic mutator would rewrite the same values into an
    already-mutated tree, every slot would digest clean, and the delta
    numbers would measure an unrealistically empty reply.
    """
    from repro.bench.mutators import TreeService

    results: Dict[str, Dict] = {}
    for label, fraction in (mutations or _DELTA_MUTATIONS).items():
        row: Dict[str, object] = {"mutate_fraction": fraction}
        for policy in ("full", "delta"):
            config = NRMIConfig(policy=policy)
            resolver = ChannelResolver()
            server = Endpoint(
                name=f"delta-server-{label}-{policy}",
                config=config,
                resolver=resolver,
            )
            client = Endpoint(
                name=f"delta-client-{label}-{policy}",
                config=config,
                resolver=resolver,
            )
            try:
                server.bind("svc", TreeService())
                service = client.lookup(server.address, "svc")
                workload = generate_workload(SCENARIO, size, SEED)
                seeds = itertools.count(SEED)

                def call():
                    service.mutate_sparse(workload.root, next(seeds), fraction)

                call_us = _min_of_rounds(call, rounds, iterations)
                channel = resolver.resolve(server.address)
                channel.stats.reset()
                probes = max(iterations, 5)
                for _ in range(probes):
                    call()
                snap = channel.stats.snapshot()
                row[policy] = {
                    "call_us": round(call_us, 1),
                    "request_bytes": round(snap["bytes_sent"] / probes, 1),
                    "reply_bytes": round(snap["bytes_received"] / probes, 1),
                }
            finally:
                client.close()
                server.close()
                resolver.close_all()
        full_reply = row["full"]["reply_bytes"]
        delta_reply = row["delta"]["reply_bytes"]
        row["reply_bytes_ratio"] = round(full_reply / max(delta_reply, 1.0), 2)
        results[label] = row
    return results


def _sweep_one_server(server, connections: int, window_seconds: float) -> Dict:
    """Pooled latency percentiles for *connections* echo clients.

    Each client thread owns one framed socket and issues back-to-back
    echo round trips until the window closes. BUSY frames (the staged
    server shedding under overload) are counted separately and excluded
    from the latency pool — a 2-byte rejection is not a round trip.
    """
    from repro.rmi.protocol import Status
    from repro.transport.framing import read_frame, write_frame

    latencies: List[float] = []
    busy_total = 0
    lock = threading.Lock()
    barrier = threading.Barrier(connections + 1)
    stop = threading.Event()

    def client() -> None:
        nonlocal busy_total
        sock = _socket.create_connection(
            (server.host, server.port), timeout=10.0
        )
        local: List[float] = []
        local_busy = 0
        try:
            barrier.wait()
            while not stop.is_set():
                start = time.perf_counter()
                write_frame(sock, _SWEEP_PAYLOAD)
                response = read_frame(sock, timeout=10.0)
                elapsed = time.perf_counter() - start
                if len(response) == 2 and response[0] == Status.BUSY:
                    local_busy += 1
                else:
                    local.append(elapsed)
        finally:
            sock.close()
            with lock:
                latencies.extend(local)
                busy_total += local_busy

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(window_seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)

    latencies.sort()
    calls = len(latencies)
    if not calls:
        return {"connections": connections, "calls": 0, "busy": busy_total}
    total = busy_total + calls
    return {
        "connections": connections,
        "p50_us": round(_percentile(latencies, 0.50) * 1e6, 1),
        "p99_us": round(_percentile(latencies, 0.99) * 1e6, 1),
        "calls": calls,
        "calls_per_sec": round(calls / window_seconds, 1),
        "busy": busy_total,
        "shed_rate": round(busy_total / total, 4),
    }


def run_concurrency_sweep(
    connection_counts=_SWEEP_CONNECTIONS_FULL,
    window_seconds: float = 0.5,
) -> Dict[str, Dict]:
    """Staged event-loop server vs thread-per-connection baseline.

    Echo handler (no marshalling) so the numbers isolate the server
    core: accept/framing/dispatch architecture, not serde. Each row is
    ``connections`` simultaneous clients hammering one server; the
    staged rows run the default shed policy, so under overload they
    trade a bounded queue for explicit BUSY rejections, which the sweep
    reports as ``shed_rate``.
    """
    from repro.transport.tcp import TcpServer, ThreadedTcpServer

    def echo(request, session=None):
        return bytes(request)

    results: Dict[str, Dict] = {
        "meta": {
            "payload_bytes": len(_SWEEP_PAYLOAD),
            "window_seconds": window_seconds,
            "staged_workers": _SWEEP_WORKERS,
        }
    }
    for kind in ("staged", "threaded"):
        rows: Dict[str, Dict] = {}
        for connections in connection_counts:
            if kind == "staged":
                server = TcpServer(
                    echo,
                    workers=_SWEEP_WORKERS,
                    queue_capacity=max(64, 2 * connections),
                )
            else:
                server = ThreadedTcpServer(echo)
            try:
                rows[f"c{connections}"] = _sweep_one_server(
                    server, connections, window_seconds
                )
            finally:
                server.stop(grace=2.0)
        results[kind] = rows
    return results


# ------------------------------------------------------------- comparison

#: Report sections whose numeric leaves are comparable measurements.
_COMPARE_SECTIONS = (
    "serde_micro",
    "transport_rt",
    "transport_matrix",
    "zero_copy_matrix",
    "table5_calls_us",
    "delta_restore",
    "concurrency_sweep",
)


def _flatten_metrics(report: dict) -> Dict[str, float]:
    """Numeric leaves of the measurement sections as dotted paths."""
    flat: Dict[str, float] = {}

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix] = float(node)

    for section in _COMPARE_SECTIONS:
        if section in report:
            walk(section, report[section])
    return flat


def run_compare(old_path: Path, new_path: Path) -> int:
    """Per-metric delta table between two reports; non-zero on regression.

    Only time-like metrics (``*_us``, lower is better) gate the exit
    status; byte counts and ratios are printed for context. The final
    exit message names every metric that failed the gate.
    """
    try:
        old_report = json.loads(old_path.read_text())
        new_report = json.loads(new_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load reports: {exc}", file=sys.stderr)
        return 2

    old_size = old_report.get("meta", {}).get("size")
    new_size = new_report.get("meta", {}).get("size")
    if old_size != new_size:
        print(
            f"warning: reports measure different tree sizes "
            f"({old_size} vs {new_size}); timings are not comparable",
            file=sys.stderr,
        )

    old_metrics = _flatten_metrics(old_report)
    new_metrics = _flatten_metrics(new_report)
    shared = sorted(set(old_metrics) & set(new_metrics))
    if not shared:
        print("no shared metrics between the two reports", file=sys.stderr)
        return 2

    width = max(len(name) for name in shared)
    print(f"{'metric':<{width}}  {'old':>12}  {'new':>12}  {'delta':>8}")
    failed_metrics: List[str] = []
    failures: List[str] = []
    for name in shared:
        old_value, new_value = old_metrics[name], new_metrics[name]
        delta_pct = (
            (new_value - old_value) / old_value * 100.0 if old_value else 0.0
        )
        gated = name.endswith("_us")
        marker = ""
        if gated and delta_pct > MAX_ENCODE_REGRESSION_PCT:
            marker = "  REGRESSION"
            failed_metrics.append(name)
            failures.append(
                f"{name} regressed {delta_pct:.1f}% "
                f"({old_value:.1f} -> {new_value:.1f}, "
                f"limit {MAX_ENCODE_REGRESSION_PCT:.0f}%)"
            )
        print(
            f"{name:<{width}}  {old_value:>12.1f}  {new_value:>12.1f}  "
            f"{delta_pct:>+7.1f}%{marker}"
        )
    for name in sorted(set(old_metrics) ^ set(new_metrics)):
        side = "old" if name in old_metrics else "new"
        print(f"{name:<{width}}  (only in {side} report, skipped)")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        print(
            f"compare failed: {len(failed_metrics)} metric(s) regressed "
            f"beyond {MAX_ENCODE_REGRESSION_PCT:.0f}%: "
            + ", ".join(failed_metrics),
            file=sys.stderr,
        )
        return 1
    return 0


def _load_previous(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_gate(
    previous: Optional[dict],
    serde: Dict[str, Dict],
    size: int,
    limit_pct: float = MAX_ENCODE_REGRESSION_PCT,
) -> List[str]:
    """Regressions of serde-micro encode/decode vs the recorded run.

    ``limit_pct`` lets callers re-measuring under load (the bench-smoke
    test inside a full pytest run) use a looser budget than the dedicated
    runner's default.
    """
    failures: List[str] = []
    if previous is None:
        return failures
    if previous.get("meta", {}).get("size") != size:
        # A quick run and a full run measure different trees; their
        # timings are not comparable.
        return failures
    recorded = previous.get("serde_micro", {})
    for profile_name, row in serde.items():
        for op in _GATED_OPS:
            old = recorded.get(profile_name, {}).get(op)
            if not old:
                continue
            new = row[op]
            regression_pct = (new - old) / old * 100.0
            if regression_pct > limit_pct:
                failures.append(
                    f"serde-micro {profile_name} {op[:-3]} regressed "
                    f"{regression_pct:.1f}% ({old:.1f}us -> {new:.1f}us, "
                    f"limit {limit_pct:.0f}%)"
                )
    return failures


def _git_rev() -> str:
    """The repository HEAD this report measured, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _codegen_counters() -> Dict[str, int]:
    return {
        "compiled": codegen_metrics.counter("serde.codegen.compiled").value,
        "fallbacks": codegen_metrics.counter("serde.codegen.fallbacks").value,
    }


def _default_output() -> Path:
    # src/repro/bench/regress.py -> repository root.
    return Path(__file__).resolve().parents[3] / "BENCH_pr10.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress", description=__doc__
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trees, short windows (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        "--out",
        dest="output",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_pr10.json at the repo root)",
    )
    parser.add_argument(
        "--no-calls",
        action="store_true",
        help="skip the Table-5 call replay, delta ablation, transport "
        "round trips, transport matrix, and concurrency sweep "
        "(serde micro only)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("OLD", "NEW"),
        default=None,
        help="diff two recorded reports instead of measuring; exits "
        "non-zero (naming the failing metrics) if a *_us metric "
        "regressed beyond the gate",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        return run_compare(args.compare[0], args.compare[1])

    size = QUICK_SIZE if args.quick else FULL_SIZE
    windows = 2 if args.quick else WINDOW_COUNT
    window_seconds = 0.1 if args.quick else WINDOW_SECONDS
    rounds = 3 if args.quick else 8
    call_iterations = 3 if args.quick else 10
    output = args.output if args.output is not None else _default_output()

    previous = _load_previous(output)

    serde = run_serde_micro(size, windows, window_seconds)
    transport = {} if args.no_calls else run_transport_rt(windows, window_seconds)
    matrix = (
        {}
        if args.no_calls
        else run_transport_matrix(
            windows,
            window_seconds,
            _MATRIX_PAYLOADS_QUICK if args.quick else _MATRIX_PAYLOADS_FULL,
        )
    )
    zero_copy = (
        {}
        if args.no_calls
        else run_zero_copy_matrix(
            windows,
            window_seconds,
            _MATRIX_PAYLOADS_QUICK if args.quick else _MATRIX_PAYLOADS_FULL,
        )
    )
    table5 = (
        {} if args.no_calls else run_table5_calls(size, rounds, call_iterations)
    )
    delta = (
        {}
        if args.no_calls
        else run_delta_restore(size, rounds, call_iterations)
    )
    sweep = (
        {}
        if args.no_calls
        else run_concurrency_sweep(
            _SWEEP_CONNECTIONS_QUICK if args.quick else _SWEEP_CONNECTIONS_FULL,
            window_seconds=0.15 if args.quick else 0.5,
        )
    )

    baseline = PRE_PR_BASELINE_US.get(size)
    speedups = {}
    if baseline:
        for profile_name, row in serde.items():
            if profile_name not in baseline:
                continue
            for op in ("encode_us", "decode_us"):
                old = baseline[profile_name][op]
                speedups[f"{profile_name}_{op[:-3]}"] = round(old / row[op], 2)

    failures = _check_gate(previous, serde, size)

    report = {
        "meta": {
            "script": "repro.bench.regress",
            "quick": args.quick,
            "scenario": SCENARIO,
            "size": size,
            "seed": SEED,
            "python": sys.version.split()[0],
            "git_rev": _git_rev(),
            "timer": (
                "windowed p50/p90/p99, stable-window selection "
                f"({windows}x{window_seconds:g}s windows); table5/delta "
                "min-of-rounds perf_counter"
            ),
        },
        "serde_micro": serde,
        "transport_rt": transport,
        "transport_matrix": matrix,
        "zero_copy_matrix": zero_copy,
        "table5_calls_us": table5,
        "delta_restore": delta,
        "concurrency_sweep": sweep,
        "codegen": _codegen_counters(),
        "pre_pr_baseline_us": baseline or {},
        "speedup_vs_pre_pr": speedups,
        "gate": {
            "max_encode_regression_pct": MAX_ENCODE_REGRESSION_PCT,
            "compared_to": "previous run" if previous is not None else "none",
            "passed": not failures,
            "failures": failures,
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")

    for profile_name, row in serde.items():
        print(
            f"serde/{profile_name}: encode {row['encode_us']:.1f}us "
            f"(p99 {row['encode_p99_us']:.1f}) "
            f"decode {row['decode_us']:.1f}us "
            f"(p99 {row['decode_p99_us']:.1f}) ({row['bytes']} bytes)"
        )
    for scheme in _MATRIX_SCHEMES:
        row = transport.get(scheme)
        if not row:
            continue
        if "skipped" in row:
            print(f"transport/{scheme}: skipped ({row['skipped']})")
        else:
            print(
                f"transport/{scheme}: rt {row['rt_us']:.1f}us "
                f"(p99 {row['rt_p99_us']:.1f})"
            )
    for scheme in _MATRIX_SCHEMES:
        scheme_rows = matrix.get(scheme)
        if not scheme_rows:
            continue
        if "skipped" in scheme_rows:
            print(f"matrix/{scheme}: skipped ({scheme_rows['skipped']})")
            continue
        for mode, mode_rows in scheme_rows.items():
            for cell, row in mode_rows.items():
                print(
                    f"matrix/{scheme}/{mode}/{cell}: "
                    f"rt {row['rt_us']:.1f}us (p99 {row['rt_p99_us']:.1f})"
                )
    for ratio_key in ("uds_vs_tcp_speedup_64B", "shm_vs_uds_speedup_64B"):
        if ratio_key in matrix:
            print(f"matrix/{ratio_key}: {matrix[ratio_key]:.2f}x")
    if "skipped" in zero_copy:
        print(f"zerocopy: skipped ({zero_copy['skipped']})")
    for label in ("copy", "zerocopy"):
        for cell, row in zero_copy.get(label, {}).items():
            print(
                f"zerocopy/{label}/{cell}: rt {row['rt_us']:.1f}us "
                f"(p99 {row['rt_p99_us']:.1f})"
            )
    for cell, ratio in zero_copy.get("shm_zerocopy_vs_shm", {}).items():
        print(f"zerocopy/shm_zerocopy_vs_shm/{cell}: {ratio:.3f}x")
    for config_name, row in table5.items():
        print(f"table5/{config_name}: {row['call_us']:.1f}us per call")
    for label, row in delta.items():
        print(
            f"delta/{label}: full {row['full']['call_us']:.1f}us "
            f"{row['full']['reply_bytes']:.0f}B reply, "
            f"delta {row['delta']['call_us']:.1f}us "
            f"{row['delta']['reply_bytes']:.0f}B reply "
            f"({row['reply_bytes_ratio']:.1f}x fewer reply bytes)"
        )
    for kind in ("staged", "threaded"):
        for row in sweep.get(kind, {}).values():
            if row.get("calls"):
                print(
                    f"sweep/{kind}/c{row['connections']}: "
                    f"p50 {row['p50_us']:.1f}us p99 {row['p99_us']:.1f}us "
                    f"{row['calls_per_sec']:.0f} calls/s "
                    f"shed {row['shed_rate'] * 100:.1f}%"
                )
    print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
