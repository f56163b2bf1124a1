"""In-process stage probe of the Table-5 call: where a ``full`` call spends
its serde and restore time, with no transport in the way.

    PYTHONPATH=src python3 tools/table5_stages.py [--seeds 100] [--first 0]
        [--sets 1] [--src DIR]

Each seed is one call of ``tree_full_tcp``'s shape (a fresh 256-node
aliased tree of scenario III, ``TreeService.mutate`` under policy
``full``), split into the halves of a remote call and run in one process:

``encode``          client: marshal the arguments (``ObjectWriter``)
``decode``          server: unmarshal them (``ObjectReader``)
``build_response``  server: encode the return value and the retained map
``reply_decode``    client: decode the reply alone, nothing restored
``restore``         client: ``parse_response`` minus ``reply_decode`` of the
                    same call — match, overwrite and convert

The method itself and the retained-set bookkeeping run untimed. Every
call's caller-visible state (return value and ``visible_data()``, aliases
included) is checked against a local call on an identically generated
tree; any mismatch exits 1. Streams carry inline class descriptors (no
session schema cache), so ``encode`` and ``decode`` read slightly higher
than the benchmark's traced ``serde.*`` spans.

The probe prints, per set of ``--seeds`` calls, the median of each stage
in microseconds and the median per-call sum, then the same as a JSON last
line. It uses only interfaces older revisions share: ``--src`` points it
at another checkout's ``src`` to measure that revision with this file.
The first calls of a process compile codegen plans, so each set starts
with a few untimed warm-up calls on seeds from 1 000 000 up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter_ns
from typing import Any, Dict, List

STAGES = ("encode", "decode", "build_response", "reply_decode", "restore")
SCENARIO = "III"
NODES = 256
WARMUP = 8
WARMUP_SEED = 1_000_000


def _one_call(seed: int, api: Dict[str, Any]) -> Dict[str, float]:
    """One Table-5 call, split into stages; returns microseconds per stage.
    Raises AssertionError when the restored caller differs from a local
    call."""
    generate = api["generate_workload"]
    tree = generate(SCENARIO, NODES, seed)
    args = (SCENARIO, tree.root, seed)
    modes = api["resolve_modes"](args)
    accessor = api["accessor"]
    policy = api["policy_by_name"]("full")
    copy_restore = api["BY_COPY_RESTORE"]

    t0 = perf_counter_ns()
    writer = api["ObjectWriter"]()
    for arg in args:
        writer.write_root(arg)
    request = writer.getvalue()
    t1 = perf_counter_ns()
    roots = [arg for arg, mode in zip(args, modes) if mode is copy_restore]
    originals = api["compute_retained"](writer.linear_map, roots, accessor)

    t2 = perf_counter_ns()
    reader = api["ObjectReader"](request)
    server_args = [reader.read_root() for _ in args]
    reader.expect_end()
    t3 = perf_counter_ns()
    server_roots = [arg for arg, mode in zip(server_args, modes) if mode is copy_restore]
    retained = api["compute_retained"](reader.linear_map, server_roots, accessor)
    context = api["ServerRestoreContext"](
        retained=retained, restore_roots=server_roots, accessor=accessor,
        stop=api["is_opaque_remote"],
    )
    snapshot = policy.snapshot(context)
    result = api["TreeService"]().mutate(*server_args)

    t4 = perf_counter_ns()
    reply = policy.build_response(result, context, snapshot)
    t5 = perf_counter_ns()

    t6 = perf_counter_ns()
    probe = api["ObjectReader"](reply)
    probe.read_root()
    probe.read_root()
    probe.expect_end()
    t7 = perf_counter_ns()

    client_context = api["ClientRestoreContext"](
        originals=originals, engine=api["engine"]
    )
    t8 = perf_counter_ns()
    restored, _stats = policy.parse_response(reply, client_context)
    t9 = perf_counter_ns()

    local = generate(SCENARIO, NODES, seed)
    local_result = api["TreeService"]().mutate(SCENARIO, local.root, seed)
    if (restored, tree.visible_data()) != (local_result, local.visible_data()):
        raise AssertionError(f"seed {seed}: remote call differs from the local call")

    reply_decode = (t7 - t6) / 1e3
    return {
        "encode": (t1 - t0) / 1e3,
        "decode": (t3 - t2) / 1e3,
        "build_response": (t5 - t4) / 1e3,
        "reply_decode": reply_decode,
        "restore": (t9 - t8) / 1e3 - reply_decode,
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
    from repro.nrmi.invocation import compute_retained
    from repro.rmi.remote_ref import is_opaque_remote
    from repro.serde.accessors import OPTIMIZED_ACCESSOR
    from repro.serde.reader import ObjectReader
    from repro.serde.writer import ObjectWriter

    return {
        "TreeService": TreeService,
        "generate_workload": generate_workload,
        "ClientRestoreContext": ClientRestoreContext,
        "ServerRestoreContext": ServerRestoreContext,
        "policy_by_name": policy_by_name,
        "resolve_modes": resolve_modes,
        "BY_COPY_RESTORE": PassingMode.BY_COPY_RESTORE,
        "compute_retained": compute_retained,
        "is_opaque_remote": is_opaque_remote,
        "accessor": OPTIMIZED_ACCESSOR,
        "engine": RestoreEngine(accessor=OPTIMIZED_ACCESSOR, opaque=is_opaque_remote),
        "ObjectReader": ObjectReader,
        "ObjectWriter": ObjectWriter,
    }


def run_set(seeds: List[int], api: Dict[str, Any]) -> Dict[str, float]:
    """Medians of every stage (and of the per-call sum) over *seeds*."""
    for seed in range(WARMUP_SEED, WARMUP_SEED + WARMUP):
        _one_call(seed, api)
    samples = [_one_call(seed, api) for seed in seeds]
    medians = {stage: statistics.median(s[stage] for s in samples) for stage in STAGES}
    medians["sum"] = statistics.median(sum(s[stage] for stage in STAGES) for s in samples)
    return medians


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="calls per set")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--sets", type=int, default=1, help="sets, each on fresh seeds")
    parser.add_argument("--src", default=None, help="the src directory to import")
    options = parser.parse_args(argv)
    src = options.src or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    sys.path.insert(0, os.path.abspath(src))
    api = _load_api()

    sets = []
    print("set  " + "  ".join(f"{name:>14}" for name in STAGES + ("sum",)) + "   (median us)")
    for number in range(options.sets):
        first = options.first + number * options.seeds
        try:
            medians = run_set(list(range(first, first + options.seeds)), api)
        except AssertionError as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        sets.append(medians)
        print(f"{number:>3}  " + "  ".join(
            f"{medians[name]:>14.1f}" for name in STAGES + ("sum",)
        ))
    print(json.dumps({"seeds_per_set": options.seeds, "first": options.first, "sets": sets}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
