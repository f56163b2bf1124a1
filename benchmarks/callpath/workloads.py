"""The four workloads: what is called, over what, with which inputs.

Every input is made here from a call seed; the program only ever sees the
generated objects. A workload's *why* lives beside its name in the root
``BENCHMARK.json`` (and at length in README.md).

All four use the modern profile, the optimized implementation and the
default ``NRMIConfig`` except for the overrides listed per workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.bench.mutators import TreeService
from repro.bench.trees import generate_workload
from repro.core.markers import Remote
from repro.transport.reliability import RetryPolicy

ECHO_BYTES = 64
TREE_NODES = 256
TREE_SCENARIO = "III"
SPARSE_FRACTION = 0.05

#: What one call needs: its arguments, and a function turning the call's
#: result into everything the caller can observe afterwards.
Call = Tuple[Tuple[Any, ...], Callable[[Any], Any]]


class EchoService(Remote):
    """Returns its payload: the smallest marshalled exchange."""

    def echo(self, data: bytes) -> bytes:
        return data


#: Registry name → service class; the server child and the in-process
#: replay endpoint bind the same table in the same order.
SERVICES = {"echo": EchoService, "trees": TreeService}


def _echo_call(seed: int) -> Call:
    payload = hashlib.blake2b(
        seed.to_bytes(16, "little"), digest_size=ECHO_BYTES
    ).digest()
    return (payload,), bytes


def _tree_call(extra: Callable[[Any, int], Tuple[Any, ...]]) -> Callable[[int], Call]:
    def build(seed: int) -> Call:
        tree = generate_workload(TREE_SCENARIO, TREE_NODES, seed)
        # visible_data() covers the aliases too: an alias into a subtree
        # the server detached must still see what a local call would show.
        return extra(tree.root, seed), lambda result: (result, tree.visible_data())

    return build


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str  # "tcp" | "shm": what the server child listens on
    service: str  # key of SERVICES
    method: str
    build: Callable[[int], Call]
    #: One call in this many is checked against a local replay inside the
    #: measured loop (every call under --check).
    verify_every: int
    #: NRMIConfig overrides on the client endpoint.
    config: Dict[str, Any] = field(default_factory=dict)
    #: Client and server on a CPU each instead of sharing one
    #: (``launch.pick_cpus`` says when and why).
    split_cpus: bool = False

    def expected(self, seed: int) -> Any:
        """What a *local* call on identically generated input shows."""
        args, observe = self.build(seed)
        return observe(getattr(SERVICES[self.service](), self.method)(*args))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("echo64_tcp", "tcp", "echo", "echo", _echo_call, verify_every=1),
        # tcp_pipelined=False selects plain ShmChannel (PipelinedShmChannel
        # kills the server's net thread within seconds). One resend is
        # allowed because, between two processes, about one shm call in
        # 700 000 hits a torn ring counter at this commit (README, Known
        # failures) — one 21 s run in eight would report a failed call.
        # The price: client_call takes the _zero_copy_call fork only with
        # retry off, so this measures the staged path over the ring. Drop
        # the retry override once the ring publishes its counters atomically.
        Workload(
            "echo64_shm", "shm", "echo", "echo", _echo_call, verify_every=1,
            config={"tcp_pipelined": False, "retry": RetryPolicy(max_attempts=2)},
            split_cpus=True,
        ),
        Workload(
            "tree_full_tcp", "tcp", "trees", "mutate",
            _tree_call(lambda root, seed: (TREE_SCENARIO, root, seed)),
            verify_every=16, config={"policy": "full"},
        ),
        Workload(
            "tree_sparse_delta_tcp", "tcp", "trees", "mutate_sparse",
            _tree_call(lambda root, seed: (root, seed, SPARSE_FRACTION)),
            verify_every=16, config={"policy": "delta"},
        ),
    )
}
