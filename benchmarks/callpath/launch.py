"""One launch: a fresh server child plus a fresh client endpoint.

Everything a measurement needs to hold still lives here — CPU pinning,
``PYTHONHASHSEED=0``, a private channel resolver — and so does
everything that must not leak out of it: the child runs in its own
process group and is reaped in ``close`` whatever happened, and a
watchdog kills it at the hard deadline so a hung server fails the
workload instead of hanging the benchmark.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import uuid
from typing import Any, List, Optional, Tuple

from checkout import BENCH_DIR, RUN_DIR
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.transport.resolver import ChannelResolver
from workloads import Workload

#: sun_path holds ~108 bytes; a rendezvous path longer than this cannot
#: be bound, so the launch falls back to the transport's default name
#: (a socket under the system temp dir).
_SUN_PATH_BUDGET = 90
_READY_TIMEOUT_S = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class WorkloadFailed(RuntimeError):
    """The workload cannot produce a number: dead child, hard timeout."""


def usable_cpus() -> List[int]:
    """The CPUs this process may run on — read before it pins itself."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pick_cpus(cpus: List[int], split: bool) -> Tuple[Optional[int], Optional[int]]:
    """(client CPU, server CPU) out of the usable *cpus*, or (None, None)
    to leave both unpinned when there are fewer than two.

    Default, *split* false — both on the **same** CPU. One client thread
    blocking on one server is serial work: the two never compute at
    once, so a second core adds no capacity, only a cross-CPU wake-up
    per thread hand-off, four per tcp echo. On this hypervisor that
    wake-up is bistable (a pipe ping-pong between two pinned processes
    reads 46 µs across CPUs and 4 µs on one; ≈25 µs per wake-up while
    the host still halt-polls the idle vCPU, 100 µs and more once it has
    let go), which moved an ``echo64_tcp`` p50 between 500 and 1000 µs
    from one run to the next with nothing changed. Sharing a CPU turns
    each hand-off into a context switch and keeps that CPU clocked up.

    *split* true — one CPU each, for a transport whose waiting side
    **spins**: over shm the client polls the ring for its reply and the
    server's net thread hot-polls for the next request, so no wake-up is
    involved, and on a shared CPU each spinner would burn the time the
    other needs (p50 flips between 107 and 140 µs by the window).

    The highest CPUs are used: interrupts and daemons favour CPU 0.
    """
    if len(cpus) < 2:
        return None, None
    return (cpus[-2], cpus[-1]) if split else (cpus[-1], cpus[-1])


def pin_self(cpu: Optional[int]) -> bool:
    """Pin this process to *cpu*; False when there is nothing to pin to
    or the platform refuses."""
    if cpu is None:
        return False
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


def peak_rss_kib(pid: Any = "self") -> int:
    """``VmHWM`` of *pid* (default: this process) in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_own_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so a pass
    reports its own peak and not an earlier workload's (best effort)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's whole process group, if it is still there."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            proc.kill()


class Launch:
    """Context manager owning one server child and one client endpoint."""

    def __init__(
        self, workload: Workload, cpu: Optional[int], hard_timeout_s: float
    ) -> None:
        self.workload = workload
        self._cpu = cpu
        self._hard_timeout_s = hard_timeout_s
        self._proc: Optional[subprocess.Popen] = None
        self._watchdog: Optional[threading.Timer] = None
        self._dir: Optional[str] = None
        self._closed_channel_bytes = 0
        self.timed_out = False
        self.client: Optional[Endpoint] = None
        self.resolver = ChannelResolver()
        self.address = ""
        self.raw_address = ""
        self.server_pinned = False
        self.setup_s = 0.0
        self.stub: Any = None

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Launch":
        started = time.perf_counter()
        try:
            self._spawn()
            self.client = Endpoint(
                name=f"callpath-client-{uuid.uuid4().hex[:8]}",
                config=NRMIConfig(**self.workload.config),
                resolver=self.resolver,
            )
            self.stub = self.client.lookup(self.address, self.workload.service)
            # "First successful call" is part of set-up: it pays the
            # connection, the codegen compile and the schema negotiation.
            seed = 0
            args, observe = self.workload.build(seed)
            result = getattr(self.stub, self.workload.method)(*args)
            if observe(result) != self.workload.expected(seed):
                raise WorkloadFailed(f"{self.workload.name}: first call returned a wrong result")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _spawn(self) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "server_child.py"),
            "--transport", self.workload.transport,
        ]
        if self._cpu is not None:
            command += ["--cpu", str(self._cpu)]
        if self.workload.transport == "shm":
            self._dir = os.path.join(RUN_DIR, uuid.uuid4().hex[:8])
            stem = os.path.join(self._dir, "s")
            if len(stem) <= _SUN_PATH_BUDGET:
                os.makedirs(self._dir, exist_ok=True)
                command += ["--shm-name", stem]
            else:
                self._dir = None
        env = dict(os.environ, PYTHONHASHSEED="0")
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, start_new_session=True,
        )
        self._watchdog = threading.Timer(self._hard_timeout_s, self._on_deadline)
        self._watchdog.daemon = True
        self._watchdog.start()
        ready, _, _ = select.select([self._proc.stdout], [], [], _READY_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else b""
        if not line:
            raise WorkloadFailed(
                f"{self.workload.name}: server child did not come up "
                f"(exit code {self._proc.poll()})"
            )
        hello = json.loads(line)
        self.address = hello["address"]
        self.raw_address = hello["raw_address"]
        self.server_pinned = bool(hello["pinned"])

    def _on_deadline(self) -> None:
        # Killing the child is what unblocks a caller stuck in recv: the
        # measuring loop then sees a dead server and fails the workload.
        self.timed_out = True
        if self._proc is not None:
            _kill_group(self._proc)

    def close(self) -> None:
        """Stop the client, then the child: EOF → terminate → kill."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self.client is not None:
            self.client.close()
            self.client = None
        self.resolver.close_all()
        proc, self._proc = self._proc, None
        if proc is not None:
            try:
                proc.stdin.close()  # EOF: the child's clean-exit signal
                proc.wait(timeout=3.0)
            except (OSError, subprocess.TimeoutExpired):
                proc.terminate()
                try:
                    proc.wait(timeout=3.0)
                except subprocess.TimeoutExpired:
                    pass
            finally:
                _kill_group(proc)
                proc.wait()
                proc.stdout.close()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    # ------------------------------------------------------------- probing

    def require_alive(self) -> None:
        """Raise when the child is gone: no further call can succeed."""
        proc = self._proc
        if proc is None or proc.poll() is not None:
            reason = "hit the hard timeout" if self.timed_out else "died"
            raise WorkloadFailed(f"{self.workload.name}: server child {reason}")

    def reopen_channel(self) -> None:
        """Drop the pooled connection so the next call dials afresh."""
        self._closed_channel_bytes = self.channel_bytes()
        self.resolver.drop(self.address)

    def steal_jiffies(self) -> Tuple[int, int]:
        """(steal, total) jiffies so far: of the pinned CPU's /proc/stat
        line, or of the whole machine's when nothing is pinned."""
        label = "cpu" if self._cpu is None else f"cpu{self._cpu}"
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                for line in handle:
                    name, *fields = line.split()
                    if name == label:
                        values = [int(x) for x in fields[:8]]
                        return (values[7] if len(values) > 7 else 0), sum(values)
        except (OSError, ValueError):
            pass
        return 0, 0

    def server_cpu_s(self) -> float:
        """utime + stime of the child, all threads, in seconds."""
        with open(f"/proc/{self._proc.pid}/stat", encoding="ascii") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th fields of the whole line.
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def server_peak_rss_kib(self) -> int:
        return peak_rss_kib(self._proc.pid)

    def channel_bytes(self) -> int:
        """Bytes sent + received so far on the channel to the server."""
        snap = self.client.channel_to(self.address).stats.snapshot()
        return self._closed_channel_bytes + snap["bytes_sent"] + snap["bytes_received"]
