"""The server side of a launch: one process, one endpoint, two listeners.

Started by ``launch.py`` with its own session (process group). Serves

* the NRMI endpoint (``echo`` and ``trees`` bound) on ``--transport``;
* a *raw* server of the same kind whose handler returns the frame it was
  given — the staged server core without rmi, for ``netloop.raw_rt_us``.

Prints one JSON line when both accept, then lives until stdin reaches EOF
or SIGTERM arrives: a parent that dies without cleaning up closes the
pipe, so the child can never be orphaned.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from checkout import add_src_to_path


def _exit_on_sigterm(_signum, _frame) -> None:
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", choices=("tcp", "shm"), required=True)
    parser.add_argument("--cpu", type=int, default=None, help="CPU to pin to")
    parser.add_argument("--shm-name", default=None, help="rendezvous socket path stem")
    args = parser.parse_args()

    pinned = False
    if args.cpu is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {args.cpu})
            pinned = True
        except OSError:
            pass

    add_src_to_path()
    from repro.nrmi.config import NRMIConfig
    from repro.nrmi.runtime import Endpoint
    from repro.transport.shm import ShmServer
    from repro.transport.tcp import TcpServer
    from workloads import SERVICES

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    endpoint = Endpoint(name="callpath-server", config=NRMIConfig())
    raw = None
    try:
        for name, service in SERVICES.items():
            endpoint.bind(name, service())
        if args.transport == "shm":
            address = endpoint.serve_shm(name=args.shm_name)
            raw = ShmServer(bytes, name=args.shm_name and args.shm_name + "-raw")
        else:
            address = endpoint.serve_tcp()
            raw = TcpServer(bytes)
        print(json.dumps({
            "address": address, "raw_address": raw.address,
            "pid": os.getpid(), "pinned": pinned,
        }), flush=True)
        sys.stdin.read()
        return 0
    finally:
        if raw is not None:
            raw.stop()
        endpoint.close()


if __name__ == "__main__":
    sys.exit(main())
