"""True multi-process distribution: server in a subprocess, TCP between.

This is the configuration the paper actually measures — two separate
runtimes — and the strongest end-to-end evidence: copy-restore working
across a real process boundary and a real socket.
"""

import contextlib
import json
import pathlib
import subprocess
import sys
import time

import pytest

from repro.bench.mutators import mutate_sparse, mutator_for
from repro.bench.trees import generate_workload
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.nrmi.server_main import parse_binding
from repro.transport.reliability import RetryPolicy
from repro.transport.resolver import ChannelResolver


@pytest.fixture(scope="module")
def server_process(tmp_path_factory):
    announce = tmp_path_factory.mktemp("mp") / "address"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.nrmi.server_main",
            "--bind",
            "trees=repro.bench.mutators:TreeService",
            "--announce",
            str(announce),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 30
    while not announce.exists() or not announce.read_text().strip():
        if process.poll() is not None:
            raise RuntimeError(f"server died:\n{process.stdout.read()}")
        if time.time() > deadline:
            process.kill()
            raise RuntimeError("server never announced its address")
        time.sleep(0.05)
    yield announce.read_text().strip()
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()


class TestBindingSpec:
    def test_parse(self):
        assert parse_binding("svc=pkg.mod:Cls") == ("svc", "pkg.mod", "Cls")

    @pytest.mark.parametrize("bad", ["svc", "=pkg:Cls", "svc=pkg", "svc=:Cls", "svc=pkg:"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_binding(bad)


class TestAcrossProcesses:
    def test_copy_restore_across_process_boundary(self, server_process):
        resolver = ChannelResolver()
        client = Endpoint(name="mp-client", resolver=resolver)
        try:
            service = client.lookup(server_process, "trees")
            seed = 99
            remote_workload = generate_workload("III", 64, seed)
            service.mutate("III", remote_workload.root, seed)

            local_workload = generate_workload("III", 64, seed)
            mutator_for("III")(local_workload.root, seed)
            assert remote_workload.visible_data() == local_workload.visible_data()
        finally:
            client.close()
            resolver.close_all()

    def test_many_sequential_calls(self, server_process):
        resolver = ChannelResolver()
        client = Endpoint(name="mp-client2", resolver=resolver)
        try:
            service = client.lookup(server_process, "trees")
            for seed in range(5):
                workload = generate_workload("II", 32, seed)
                local = generate_workload("II", 32, seed)
                service.mutate("II", workload.root, seed)
                mutator_for("II")(local.root, seed)
                assert workload.visible_data() == local.visible_data()
        finally:
            client.close()
            resolver.close_all()

    def test_sparse_delta_across_process_boundary(self, server_process):
        """policy="delta": the server child decides what changed and ships
        only that; the aliased tree must read as after a local call."""
        resolver = ChannelResolver()
        client = Endpoint(
            name="mp-client-delta", config=NRMIConfig(policy="delta"), resolver=resolver
        )
        try:
            service = client.lookup(server_process, "trees")
            for seed in (7, 8, 9):  # the later calls ride negotiated schemas
                workload = generate_workload("III", 64, seed)
                local = generate_workload("III", 64, seed)
                assert workload.aliases  # scenario III: aliases into the tree
                changed = service.mutate_sparse(workload.root, seed, 0.1)
                assert changed == mutate_sparse(local.root, seed, 0.1) > 0
                assert workload.visible_data() == local.visible_data()
            assert client.metrics.counter("delta.slot_replies").value == 3
        finally:
            client.close()
            resolver.close_all()

    def test_remote_error_across_processes(self, server_process):
        from repro.errors import RemoteError, RemoteInvocationError

        resolver = ChannelResolver()
        client = Endpoint(name="mp-client3", resolver=resolver)
        try:
            service = client.lookup(server_process, "trees")
            with pytest.raises((RemoteError, RemoteInvocationError)):
                service.no_such_method()
        finally:
            client.close()
            resolver.close_all()

    def test_unbound_name_across_processes(self, server_process):
        from repro.errors import RemoteInvocationError

        resolver = ChannelResolver()
        client = Endpoint(name="mp-client4", resolver=resolver)
        try:
            with pytest.raises(RemoteInvocationError):
                client.lookup(server_process, "no-such-service")
        finally:
            client.close()
            resolver.close_all()


@contextlib.contextmanager
def _shm_echo_child(tmp_path):
    """Run ``shm_echo_child.py``; yields (its ``shm://`` address, a dict
    that holds the child's job counters once the block exits)."""
    from repro.transport.shm import shm_supported

    if not shm_supported():
        pytest.skip("platform lacks AF_UNIX fd passing for shm")
    announce = tmp_path / "address"
    child = subprocess.Popen(
        [
            sys.executable,
            str(pathlib.Path(__file__).with_name("shm_echo_child.py")),
            str(announce),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    counters = {}
    try:
        deadline = time.time() + 30
        while not announce.exists():
            if child.poll() is not None:
                raise RuntimeError(f"shm child died:\n{child.stderr.read()}")
            if time.time() > deadline:
                raise RuntimeError("shm child never announced its address")
            time.sleep(0.05)
        yield announce.read_text(), counters
        out, err = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, err
    counters.update(json.loads(out.strip().splitlines()[-1]))


class TestShmAcrossProcesses:
    def test_echo_over_a_ring_shared_with_a_child(self, tmp_path):
        """A ring pair between two real processes: the child serves echo
        over shm, 2 000 calls come back intact, and the child's server
        ran them on its net thread's inline path. The client config is
        the one the echo64_shm benchmark workload uses."""
        with _shm_echo_child(tmp_path) as (address, counters):
            resolver = ChannelResolver()
            client = Endpoint(
                name="mp-shm-client",
                config=NRMIConfig(
                    tcp_pipelined=False, retry=RetryPolicy(max_attempts=2)
                ),
                resolver=resolver,
            )
            try:
                service = client.lookup(address, "echo")
                for index in range(2000):
                    payload = index.to_bytes(8, "little") * 8
                    assert service.echo(payload) == payload
            finally:
                client.close()
                resolver.close_all()
        assert counters["completed"] == counters["submitted"] >= 2000
        assert counters["inline"] > 0

    @pytest.mark.parametrize("pipelined", [False, True], ids=["plain", "pipelined"])
    def test_ring_wraps_and_spans_records_without_a_resend(
        self, tmp_path, pipelined
    ):
        """The copying ring path both sides take, across two processes
        with retry off: payloads of 0 B to 70 000 B wrap the 1 MiB rings
        many times, large frames span several records, every echo comes
        back intact on the first attempt, and the child completes every
        call it was sent."""
        sizes = (0, 1, 64, 4096, 70_000)
        calls = 1000
        with _shm_echo_child(tmp_path) as (address, counters):
            resolver = ChannelResolver()
            client = Endpoint(
                name="mp-shm-wrap-client",
                config=NRMIConfig(
                    tcp_pipelined=pipelined, retry=RetryPolicy(max_attempts=1)
                ),
                resolver=resolver,
            )
            try:
                service = client.lookup(address, "echo")
                for index in range(calls):
                    size = sizes[index % len(sizes)]
                    payload = (index.to_bytes(4, "little") * (size // 4 + 1))[:size]
                    assert service.echo(payload) == payload
            finally:
                client.close()
                resolver.close_all()
        assert counters["completed"] == counters["submitted"] >= calls
