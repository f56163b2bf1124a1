"""Microbenchmarks of the serialization substrate itself.

Isolates the costs every configuration shares: encoding and decoding
object graphs under each profile, and the linear-map bookkeeping. These
are the quantities that explain the table-level differences (legacy vs
modern ≈ JDK 1.3 vs 1.4; copy-restore's extra decode+restore pass).
"""

import pytest

from repro.bench.mutators import mutate_structure
from repro.bench.trees import generate_workload
from repro.core.copy_restore import RestoreEngine
from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.serde.accessors import OPTIMIZED_ACCESSOR, PORTABLE_ACCESSOR
from repro.serde.profiles import LEGACY_PROFILE, MODERN_PROFILE, profile_by_name
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

from benchmarks.conftest import ROUNDS

SIZES = (64, 1024)
PROFILES = ("legacy", "modern")


def encode(root, profile):
    writer = ObjectWriter(profile=profile)
    writer.write_root(root)
    return writer.getvalue(), writer.linear_map


@pytest.mark.parametrize("profile_name", PROFILES)
@pytest.mark.parametrize("size", SIZES)
def test_encode_tree(benchmark, profile_name, size):
    benchmark.group = f"serde/encode/{size}"
    profile = profile_by_name(profile_name)
    root = generate_workload("III", size, 7).root

    benchmark.pedantic(
        lambda: encode(root, profile), rounds=ROUNDS, iterations=3, warmup_rounds=1
    )


@pytest.mark.parametrize("profile_name", PROFILES)
@pytest.mark.parametrize("size", SIZES)
def test_decode_tree(benchmark, profile_name, size):
    benchmark.group = f"serde/decode/{size}"
    profile = profile_by_name(profile_name)
    payload, _map = encode(generate_workload("III", size, 7).root, profile)

    def decode():
        reader = ObjectReader(payload, profile=profile)
        reader.read_root()
        return reader.linear_map

    benchmark.pedantic(decode, rounds=ROUNDS, iterations=3, warmup_rounds=1)


@pytest.mark.parametrize("accessor_name", ["portable", "optimized"])
def test_restore_engine_only(benchmark, accessor_name):
    """The caller's half of a ``full`` call in isolation: decode the reply
    into the caller's heap and apply the slot definitions
    (``parse_response``), on a restructured 256-node tree."""
    benchmark.group = "serde/restore-engine"
    accessor = PORTABLE_ACCESSOR if accessor_name == "portable" else OPTIMIZED_ACCESSOR
    engine = RestoreEngine(accessor=accessor)
    policy = policy_by_name("full")
    payload, original_map = encode(generate_workload("III", 256, 11).root, MODERN_PROFILE)
    reader = ObjectReader(payload)
    root = reader.read_root()
    server = ServerRestoreContext(retained=list(reader.linear_map), restore_roots=[root])
    mutate_structure(root, 11)
    reply = policy.build_response(None, server, None)
    originals = list(original_map)

    def run():
        # Re-applying the same reply leaves the originals as the first did.
        policy.parse_response(reply, ClientRestoreContext(originals=originals, engine=engine))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)


def test_modern_profile_encodes_fewer_bytes():
    root = generate_workload("III", 256, 13).root
    legacy_payload, _ = encode(root, LEGACY_PROFILE)
    modern_payload, _ = encode(root, MODERN_PROFILE)
    assert len(modern_payload) < len(legacy_payload) * 0.7
