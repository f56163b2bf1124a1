"""In-process stage probe of the Table-5 call: where a ``full`` or a
``delta`` call spends its serde and restore time, with no transport in
the way.

    PYTHONPATH=src python3 tools/table5_stages.py [--policy full|delta]
        [--seeds 100] [--first 0] [--sets 1] [--count] [--src DIR]

Each seed is one call on a fresh 256-node aliased tree of scenario III,
split into the halves of a remote call and run in one process. With
``--policy full`` (the default) the call has ``tree_full_tcp``'s shape,
``TreeService.mutate`` under policy ``full``; with ``--policy delta`` it
has ``tree_sparse_delta_tcp``'s, ``TreeService.mutate_sparse`` on 5 % of
the payloads, the arguments decoded with the fused state capture and a
delta-slots reply. The stages:

``encode``          client: marshal the arguments (``ObjectWriter``)
``decode``          server: unmarshal them (``ObjectReader``; for delta,
                    with the "before" states captured on the way)
``build_response``  server: encode the return value and the retained map
                    (for delta: the dirty scan and the dirty slots)
``reply_decode``    client: decode the reply alone, nothing applied to the
                    caller's originals
``restore``         client: ``parse_response`` minus ``reply_decode`` of the
                    same call — the apply of the decoded slot states (on
                    a wire-version-2 revision: match, overwrite, convert)

The method itself and the retained-set bookkeeping run untimed. Every
call's caller-visible state (return value and ``visible_data()``, aliases
included) is checked against a local call on an identically generated
tree; any mismatch exits 1. Streams carry inline class descriptors (no
session schema cache), so ``encode`` and ``decode`` read slightly higher
than the benchmark's traced ``serde.*`` spans.

The probe prints, per set of ``--seeds`` calls, the median of each stage
in microseconds and the median per-call sum, then the same as a JSON last
line; its ``"bytes"`` key holds each set's mean request and reply body
sizes, which depend on the seeds alone. ``--count`` replaces the clock by a count of function calls, Python
and built-in, as ``sys.setprofile`` reports them, and prints each stage's
mean per call: a figure that repeats exactly on fixed seeds, whatever the
machine is doing. The probe uses only interfaces older revisions share:
``--src`` points it at another checkout's ``src`` to measure that
revision with this file. The first calls of a process compile codegen
plans, so each set starts with a few unmeasured warm-up calls on seeds
from 1 000 000 up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter_ns
from typing import Any, Dict, List, Tuple

STAGES = ("encode", "decode", "build_response", "reply_decode", "restore")
SCENARIO = "III"
NODES = 256
SPARSE_FRACTION = 0.05
WARMUP = 8
WARMUP_SEED = 1_000_000
# The externalizer name of an old-object reference in a wire-version-2
# delta-slots reply.
OLDREF = "nrmi.oldref"


class Clock:
    """Microseconds between ``begin`` and ``end``."""

    def begin(self) -> None:
        self._start = perf_counter_ns()

    def end(self) -> float:
        return (perf_counter_ns() - self._start) / 1e3


class CallCounter:
    """Function calls between ``begin`` and ``end``: every ``call`` and
    ``c_call`` event ``sys.setprofile`` reports, ``end``'s own
    ``sys.setprofile(None)`` included."""

    def begin(self) -> None:
        self.calls = 0
        sys.setprofile(self._event)

    def _event(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1

    def end(self) -> int:
        sys.setprofile(None)
        return self.calls


def _arguments(policy: str, root: Any, seed: int) -> Tuple[str, Tuple[Any, ...]]:
    """The remote method and its arguments, as the workload passes them."""
    if policy == "delta":
        return "mutate_sparse", (root, seed, SPARSE_FRACTION)
    return "mutate", (SCENARIO, root, seed)


def _decode_reply(reply: bytes, policy: str, originals: List[Any], api: Dict[str, Any]) -> None:
    """Decode a reply the way ``parse_response`` does, and restore nothing."""
    if api["WIRE_VERSION"] >= 3:
        # A slot stream decodes into the caller's heap; the definitions
        # wait on the reader's pending list.
        reader = api["ObjectReader"](reply, originals=originals)
        reader.read_root()
        reader.read_definitions()
        return
    if policy == "delta":
        header = api["BufferReader"](reply)
        header.read_uvarint()  # retained slots
        for _ in range(header.read_uvarint()):
            header.read_uvarint()  # dirty index gaps
        stream = header.read_view(header.remaining)

        def resolve(payload: bytes) -> Any:
            return originals[api["BufferReader"](payload).read_uvarint()]

        oldref = api["Externalizer"](OLDREF, lambda obj: False, lambda obj: b"", resolve)
        reader = api["ObjectReader"](stream, externalizers=(oldref,))
    else:
        reader = api["ObjectReader"](reply)
    reader.read_root()
    reader.read_root()
    reader.expect_end()


def _one_call(
    seed: int, api: Dict[str, Any], policy_name: str, meter: Any,
    sizes: List[Tuple[int, int]] | None = None,
) -> Dict[str, float]:
    """One Table-5 call, split into stages; returns *meter*'s reading per
    stage and appends the call's (request, reply) body sizes to *sizes*.
    Raises AssertionError when the restored caller differs from a local
    call."""
    generate = api["generate_workload"]
    delta = policy_name == "delta"
    tree = generate(SCENARIO, NODES, seed)
    method, args = _arguments(policy_name, tree.root, seed)
    modes = api["resolve_modes"](args)
    accessor = api["accessor"]
    policy = api["policy_by_name"]("delta-slots" if delta else "full")
    copy_restore = api["BY_COPY_RESTORE"]

    order = api["wire_order"](modes)
    meter.begin()
    writer = api["ObjectWriter"]()
    for index in order:
        writer.write_root(args[index])
    request = writer.getvalue()
    encode = meter.end()
    roots = [arg for arg, mode in zip(args, modes) if mode is copy_restore]
    originals = api["compute_retained"](writer.linear_map, roots, accessor)

    meter.begin()
    reader = api["ObjectReader"](request, digest_accessor=accessor if delta else None)
    server_args = [None] * len(args)
    for index in order:
        server_args[index] = reader.read_root()
    reader.expect_end()
    decode = meter.end()
    server_roots = [arg for arg, mode in zip(server_args, modes) if mode is copy_restore]
    retained, indices = api["compute_retained_indexed"](
        reader.linear_map, server_roots, accessor
    )
    context = api["ServerRestoreContext"](
        retained=retained, restore_roots=server_roots, accessor=accessor,
        stop=api["is_opaque_remote"],
        predigested=reader.digest_table(indices) if delta else None,
    )
    snapshot = policy.snapshot(context)
    result = getattr(api["TreeService"](), method)(*server_args)

    meter.begin()
    reply = policy.build_response(result, context, snapshot)
    build_response = meter.end()

    meter.begin()
    _decode_reply(reply, policy_name, originals, api)
    reply_decode = meter.end()

    client_context = api["ClientRestoreContext"](
        originals=originals, engine=api["engine"]
    )
    meter.begin()
    restored, _stats = policy.parse_response(reply, client_context)
    parse = meter.end()

    local = generate(SCENARIO, NODES, seed)
    local_result = getattr(api["TreeService"](), method)(*_arguments(policy_name, local.root, seed)[1])
    if (restored, tree.visible_data()) != (local_result, local.visible_data()):
        raise AssertionError(f"seed {seed}: remote call differs from the local call")
    if sizes is not None:
        sizes.append((len(request), len(reply)))

    return {
        "encode": encode,
        "decode": decode,
        "build_response": build_response,
        "reply_decode": reply_decode,
        "restore": parse - reply_decode,
    }


def _load_api() -> Dict[str, Any]:
    from repro.bench.mutators import TreeService
    from repro.bench.trees import generate_workload
    from repro.core.copy_restore import RestoreEngine
    from repro.core.restore_protocol import (
        ClientRestoreContext,
        ServerRestoreContext,
        policy_by_name,
    )
    from repro.core.semantics import PassingMode, resolve_modes
    from repro.nrmi import invocation
    from repro.rmi.remote_ref import is_opaque_remote
    from repro.serde.accessors import OPTIMIZED_ACCESSOR
    from repro.serde.reader import ObjectReader
    from repro.serde.registry import Externalizer
    from repro.serde.tags import WIRE_VERSION
    from repro.serde.writer import ObjectWriter
    from repro.util.buffers import BufferReader

    try:
        engine = RestoreEngine(accessor=OPTIMIZED_ACCESSOR, opaque=is_opaque_remote)
    except TypeError:  # wire version 3: the engine converts nothing
        engine = RestoreEngine(accessor=OPTIMIZED_ACCESSOR)
    return {
        "TreeService": TreeService,
        "generate_workload": generate_workload,
        "ClientRestoreContext": ClientRestoreContext,
        "ServerRestoreContext": ServerRestoreContext,
        "policy_by_name": policy_by_name,
        "resolve_modes": resolve_modes,
        "BY_COPY_RESTORE": PassingMode.BY_COPY_RESTORE,
        "compute_retained": invocation.compute_retained,
        "compute_retained_indexed": invocation.compute_retained_indexed,
        # Before wire version 4 every argument went in call order.
        "wire_order": getattr(
            invocation, "wire_order", lambda modes: list(range(len(modes)))
        ),
        "is_opaque_remote": is_opaque_remote,
        "accessor": OPTIMIZED_ACCESSOR,
        "engine": engine,
        "WIRE_VERSION": WIRE_VERSION,
        "ObjectReader": ObjectReader,
        "ObjectWriter": ObjectWriter,
        "Externalizer": Externalizer,
        "BufferReader": BufferReader,
    }


def run_set(
    seeds: List[int], api: Dict[str, Any], policy: str = "full", count: bool = False
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Medians of every stage (and of the per-call sum) over *seeds*; with
    *count*, the mean number of function calls instead. Also the mean
    request and reply body bytes of those calls."""
    meter = CallCounter() if count else Clock()
    for seed in range(WARMUP_SEED, WARMUP_SEED + WARMUP):
        _one_call(seed, api, policy, meter)
    sizes: List[Tuple[int, int]] = []
    samples = [_one_call(seed, api, policy, meter, sizes) for seed in seeds]
    sums = [sum(s[stage] for stage in STAGES) for s in samples]
    body_bytes = {
        "request": statistics.fmean(request for request, _ in sizes),
        "reply": statistics.fmean(reply for _, reply in sizes),
    }
    average = statistics.fmean if count else statistics.median
    table = {stage: average(s[stage] for s in samples) for stage in STAGES}
    table["sum"] = average(sums)
    return table, body_bytes


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="calls per set")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--sets", type=int, default=1, help="sets, each on fresh seeds")
    parser.add_argument(
        "--policy", choices=("full", "delta"), default="full",
        help="the call's shape: tree_full_tcp's or tree_sparse_delta_tcp's",
    )
    parser.add_argument(
        "--count", action="store_true",
        help="count function calls per stage (mean per call) instead of timing",
    )
    parser.add_argument("--src", default=None, help="the src directory to import")
    options = parser.parse_args(argv)
    src = options.src or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    sys.path.insert(0, os.path.abspath(src))
    api = _load_api()

    unit = "mean calls" if options.count else "median us"
    sets = []
    set_bytes = []
    print("set  " + "  ".join(f"{name:>14}" for name in STAGES + ("sum",)) + f"   ({unit})")
    for number in range(options.sets):
        first = options.first + number * options.seeds
        try:
            table, body_bytes = run_set(
                list(range(first, first + options.seeds)), api,
                options.policy, options.count,
            )
        except AssertionError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        sets.append(table)
        set_bytes.append(body_bytes)
        print(f"{number:>3}  " + "  ".join(
            f"{table[name]:>14.1f}" for name in STAGES + ("sum",)
        ) + f"   request {body_bytes['request']:.1f} B, reply {body_bytes['reply']:.1f} B")
    print(json.dumps({
        "policy": options.policy, "unit": unit, "seeds_per_set": options.seeds,
        "first": options.first, "sets": sets, "bytes": set_bytes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
