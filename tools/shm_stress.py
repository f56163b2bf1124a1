"""Cross-process shm stress: 64 B echoes against a server in another
process, with retry off, counting every call that fails.

    python3 tools/shm_stress.py [--seconds 6] [--channel plain|pipelined]
        [--src DIR]

Starts ``tests/shm_echo_child.py`` (an echo endpoint served over
``shm://`` in a child process), then calls its ``echo`` with a 64-byte
payload that changes on every call, for ``--seconds`` of wall time, over
``ShmChannel`` (``--channel plain``) or ``PipelinedShmChannel``
(``--channel pipelined``, the default config's channel). The client's
``RetryPolicy(max_attempts=1)`` never resends, so a fault on the ring
shows up as a failed call instead of being hidden by a retry. A reply
that differs from its request counts as a failure too.

Prints one JSON line: ``calls`` (attempted), ``failures``, ``errors``
(failures grouped by exception type and message), and the child's exit
code and job counters. Exits 1 when any call failed or the child did not
exit cleanly. ``--src`` points it (and the child) at another checkout's
``src``, so the same file measures another revision.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "tests", "shm_echo_child.py")
PAYLOAD_BYTES = 64


def _start_child(src: str, announce: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return subprocess.Popen(
        [sys.executable, CHILD, announce],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _await_address(child: subprocess.Popen, announce: str) -> str:
    deadline = time.monotonic() + 30
    while not os.path.exists(announce):
        if child.poll() is not None:
            raise RuntimeError(f"shm child died:\n{child.stderr.read()}")
        if time.monotonic() > deadline:
            raise RuntimeError("shm child never announced its address")
        time.sleep(0.05)
    with open(announce, encoding="utf-8") as handle:
        return handle.read()


def _drive(address: str, channel: str, seconds: float) -> dict:
    from repro.nrmi.config import NRMIConfig
    from repro.nrmi.runtime import Endpoint
    from repro.transport.reliability import RetryPolicy
    from repro.transport.resolver import ChannelResolver

    resolver = ChannelResolver()
    client = Endpoint(
        name="shm-stress-client",
        config=NRMIConfig(
            tcp_pipelined=channel == "pipelined",
            retry=RetryPolicy(max_attempts=1),
        ),
        resolver=resolver,
    )
    calls = 0
    errors: collections.Counter = collections.Counter()
    try:
        service = client.lookup(address, "echo")
        stop = time.monotonic() + seconds
        while time.monotonic() < stop:
            payload = calls.to_bytes(8, "little") * (PAYLOAD_BYTES // 8)
            calls += 1
            try:
                reply = service.echo(payload)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                errors[f"{type(exc).__name__}: {exc}"] += 1
                continue
            if reply != payload:
                errors["echo mismatch"] += 1
    finally:
        client.close()
        resolver.close_all()
    return {
        "calls": calls,
        "failures": sum(errors.values()),
        "errors": dict(errors),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--channel", choices=("plain", "pipelined"), default="plain")
    parser.add_argument("--src", default=None, help="the src directory to import")
    options = parser.parse_args(argv)
    src = os.path.abspath(options.src or os.path.join(ROOT, "src"))
    sys.path.insert(0, src)

    with tempfile.TemporaryDirectory(prefix="shm-stress-") as scratch:
        announce = os.path.join(scratch, "address")
        child = _start_child(src, announce)
        try:
            address = _await_address(child, announce)
            result = _drive(address, options.channel, options.seconds)
            out, err = child.communicate(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
    result["channel"] = options.channel
    result["seconds"] = options.seconds
    result["child_exit"] = child.returncode
    lines = out.strip().splitlines()
    result["child_jobs"] = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    if child.returncode != 0:
        result["child_stderr"] = err[-2000:]
    print(json.dumps(result, sort_keys=True), flush=True)
    return 1 if result["failures"] or child.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
