"""An echo endpoint served over shared memory, in a process of its own.

    python tests/shm_echo_child.py ANNOUNCE_PATH

Binds an echo service, exposes it with ``Endpoint.serve_shm``, writes the
``shm://`` address to ANNOUNCE_PATH and serves until its stdin closes.
It then prints the server's job counters as one JSON line and exits, so
the parent can tell which path executed its calls.
"""

import json
import os
import sys

from repro.core.markers import Remote
from repro.nrmi.runtime import Endpoint


class Echo(Remote):
    def echo(self, data):
        return data


def main(announce: str) -> None:
    endpoint = Endpoint(name="shm-echo-child")
    endpoint.bind("echo", Echo())
    address = endpoint.serve_shm()
    partial = announce + ".tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(address)
    os.replace(partial, announce)
    sys.stdin.read()  # the parent closes stdin to stop us
    endpoint.close()
    counters = {
        name: endpoint.metrics.counter(f"server.jobs.{name}").value
        for name in ("submitted", "completed", "inline")
    }
    print(json.dumps(counters), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
