"""Shared-memory transport: ring primitives, shm:// duplex, lifecycle.

The ring tests drive :mod:`repro.util.ring` directly over a plain
bytearray — wrap-around at every (aligned) offset, full-ring
backpressure, the doorbell waiting flags, and a two-thread byte-exact
stress run. The transport tests stand up real :class:`ShmServer`
instances: round trips plain and pipelined, frames larger than the ring,
park/wake when the client outlasts its spin budget, idle-CPU parking,
and the rendezvous-socket lifecycle (live-server refusal, stale-socket
reclaim, unlink-on-stop, and the inode guard that keeps a late-stopping
predecessor from unlinking its successor).
"""

import errno
import itertools
import os
import random
import socket
import struct
import threading
import time

import pytest

from repro.core.markers import Remote
from repro.errors import TransportError
from repro.transport.resolver import ChannelResolver
from repro.transport.shm import (
    PipelinedShmChannel,
    ShmChannel,
    ShmServer,
    handshake_path,
    shm_supported,
)
from repro.util.ring import (
    CTRL_BYTES,
    RECORD_HEADER,
    consumer_view,
    init_ring,
    producer_view,
    ring_region_size,
    yield_cpu,
)

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="platform lacks AF_UNIX fd passing"
)


def make_ring(capacity: int):
    buffer = bytearray(ring_region_size(capacity))
    init_ring(buffer, 0, capacity)
    return producer_view(buffer, 0, capacity), consumer_view(buffer, 0, capacity)


def read_all(rx, chunk: int = 4096) -> bytes:
    out = bytearray()
    buf = bytearray(chunk)
    while True:
        got = rx.try_read_into(buf)
        if not got:
            return bytes(out)
        out += buf[:got]


class TestRingPrimitives:
    def test_simple_roundtrip(self):
        tx, rx = make_ring(256)
        assert tx.try_write(b"hello ring") == 10
        assert rx.readable()
        assert read_all(rx) == b"hello ring"
        assert not rx.readable()

    def test_empty_ring_reads_nothing(self):
        _, rx = make_ring(256)
        assert not rx.readable()
        assert rx.pending_bytes() == 0
        assert rx.try_read_into(bytearray(16)) == 0

    def test_capacity_must_be_power_of_two(self):
        for bad in (0, 63, 100, 257):
            with pytest.raises(ValueError):
                make_ring(bad)

    def test_wraparound_at_every_aligned_offset(self):
        """March head/tail past the buffer edge at every 8-aligned
        position a record can start from; the stream must stay exact."""
        capacity = 256
        tx, rx = make_ring(capacity)
        rng = random.Random(7)
        written = bytearray()
        echoed = bytearray()
        # Odd-sized chunks so record padding shifts the start offset by
        # every multiple of the alignment over enough iterations.
        for step in range(400):
            chunk = bytes([step & 0xFF]) * rng.randrange(1, 61)
            assert tx.try_write(chunk) == len(chunk)
            written += chunk
            echoed += read_all(rx)
        assert echoed == written

    def test_full_ring_backpressure_and_drain(self):
        capacity = 256
        tx, rx = make_ring(capacity)
        blob = b"z" * 1024
        accepted = tx.try_write(blob)
        # The ring takes what fits (minus headers), never more.
        assert 0 < accepted < capacity
        assert tx.try_write(b"more") == 0
        assert not tx.writable()
        assert read_all(rx) == blob[:accepted]
        assert tx.writable()
        assert tx.try_write(b"more") == 4
        assert read_all(rx) == b"more"

    def test_large_stream_chunks_through_small_ring(self):
        tx, rx = make_ring(128)
        payload = bytes(range(256)) * 64  # 16 KiB through a 128 B ring
        out = bytearray()
        sent = 0
        view = memoryview(payload)
        while len(out) < len(payload):
            sent += tx.try_write(view[sent:])
            out += read_all(rx)
        assert bytes(out) == payload

    def test_pending_bytes_is_an_upper_bound(self):
        tx, rx = make_ring(256)
        assert rx.pending_bytes() == 0
        tx.try_write(b"abc")
        # 3 payload bytes, but the bound counts header + padding too.
        assert rx.pending_bytes() >= 3
        assert rx.pending_bytes() <= 3 + RECORD_HEADER + 8
        got = bytearray(1)
        rx.try_read_into(got)  # partially consume the record
        assert rx.pending_bytes() >= 2
        assert read_all(rx) == b"bc"
        assert rx.pending_bytes() == 0

    def test_pending_bytes_rejects_a_tail_past_capacity(self):
        """A tail further ahead of the head than the ring holds is a torn
        read, like a tail behind the head: ``OSError(EIO)``, not a size
        to allocate a read buffer by."""
        tx, rx = make_ring(256)
        tx.try_write(b"abc")
        assert read_all(rx) == b"abc"
        (head,) = struct.unpack_from("<Q", rx._ctrl, 64)
        struct.pack_into("<Q", rx._ctrl, 0, head + rx.capacity + 1)
        with pytest.raises(OSError) as info:
            rx.pending_bytes()
        assert info.value.errno == errno.EIO
        struct.pack_into("<Q", rx._ctrl, 0, head + rx.capacity)
        assert rx.pending_bytes() == rx.capacity

    def test_waiting_flags_cross_sides(self):
        tx, rx = make_ring(256)
        assert not tx.peer_waiting and not rx.peer_waiting
        rx.set_waiting()
        assert tx.peer_waiting  # producer must ring the doorbell now
        rx.clear_waiting()
        assert not tx.peer_waiting
        tx.set_waiting()
        assert rx.peer_waiting  # consumer must ring back on free space
        tx.clear_waiting()
        assert not rx.peer_waiting

    def test_two_thread_byte_exact_stress(self):
        capacity = 4096
        tx, rx = make_ring(capacity)
        rng = random.Random(99)
        payload = bytes(rng.randrange(256) for _ in range(200_000))
        received = bytearray()
        failures = []
        abort = threading.Event()

        def producer():
            view = memoryview(payload)
            sent = 0
            try:
                while sent < len(view) and not abort.is_set():
                    wrote = tx.try_write(view[sent : sent + rng.randrange(1, 7000)])
                    if wrote:
                        sent += wrote
                    else:
                        yield_cpu()
            except Exception as exc:  # pragma: no cover - debug aid
                failures.append(exc)
                abort.set()

        def consumer():
            buf = bytearray(1500)
            try:
                while len(received) < len(payload) and not abort.is_set():
                    got = rx.try_read_into(buf)
                    if got:
                        received.extend(buf[:got])
                    else:
                        yield_cpu()
            except Exception as exc:  # pragma: no cover - debug aid
                failures.append(exc)
                abort.set()

        threads = [
            threading.Thread(target=producer),
            threading.Thread(target=consumer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not failures
        assert not any(thread.is_alive() for thread in threads)
        assert bytes(received) == payload

    def test_corrupt_record_length_detected(self):
        """A record length no producer can write (torn cross-process read
        or trampled control block) must fail the read, not desync or
        spin the consumer."""
        capacity = 256
        buffer = bytearray(ring_region_size(capacity))
        init_ring(buffer, 0, capacity)
        tx = producer_view(buffer, 0, capacity)
        rx = consumer_view(buffer, 0, capacity)
        tx.try_write(b"hello")
        # Trample the record's length field (first u32 of the data area).
        for bogus in (0, capacity, 0x7FFFFFFF):
            struct.pack_into("<I", buffer, CTRL_BYTES, bogus)
            with pytest.raises(OSError, match="corrupt record length"):
                rx.try_read_into(bytearray(16))


def duplex_pair(capacity: int = 4096):
    """Two in-process ``_RingDuplex`` ends over one bytearray segment."""
    from repro.transport.shm import _RingDuplex

    region = ring_region_size(capacity)
    buffer = bytearray(2 * region)
    init_ring(buffer, 0, capacity)
    init_ring(buffer, region, capacity)
    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    sender = _RingDuplex(
        buffer,
        left,
        consumer_view(buffer, region, capacity),
        producer_view(buffer, 0, capacity),
    )
    receiver = _RingDuplex(
        buffer,
        right,
        consumer_view(buffer, 0, capacity),
        producer_view(buffer, region, capacity),
    )
    return sender, receiver


def plant_tail_behind_head(duplex) -> None:
    """Write a tail eight bytes behind the head into *duplex*'s tx
    control block, as a torn cross-process tail read would see it."""
    ctrl = duplex._tx._ctrl
    (head,) = struct.unpack_from("<Q", ctrl, 64)
    assert head >= 8
    struct.pack_into("<Q", ctrl, 0, head - 8)


def plant_tail_past_capacity(duplex) -> None:
    """Write a tail one byte further ahead of the head than the ring
    holds into *duplex*'s tx control block: a torn read in the other
    direction, small enough that a reader sizing a buffer by it
    allocates no more than one ring's worth."""
    ctrl = duplex._tx._ctrl
    (head,) = struct.unpack_from("<Q", ctrl, 64)
    struct.pack_into("<Q", ctrl, 0, head + duplex._tx.capacity + 1)


def echo_handler(request: bytes) -> bytes:
    return b"echo:" + bytes(request)


class TestShmTransport:
    def test_roundtrip(self):
        with ShmServer(echo_handler) as server:
            channel = ShmChannel(server.name)
            try:
                assert channel.request(b"ping") == b"echo:ping"
                for index in range(50):
                    payload = f"msg-{index}".encode()
                    assert channel.request(payload) == b"echo:" + payload
            finally:
                channel.close()

    def test_frame_larger_than_ring_flows_under_backpressure(self):
        # 64 KiB rings, a 1 MiB frame: both directions must chunk the
        # stream into records and move it under flow control.
        with ShmServer(echo_handler, capacity=1 << 16) as server:
            channel = ShmChannel(server.name)
            try:
                payload = os.urandom(1 << 20)
                assert channel.request(payload) == b"echo:" + payload
            finally:
                channel.close()

    def test_pipelined_concurrent_callers(self):
        with ShmServer(echo_handler) as server:
            channel = PipelinedShmChannel(server.name)
            errors = []

            def worker(worker_id: int):
                try:
                    for index in range(25):
                        payload = f"w{worker_id}-{index}".encode()
                        reply = channel.request(payload)
                        assert reply == b"echo:" + payload
                except Exception as exc:  # pragma: no cover - debug aid
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not errors
            finally:
                channel.close()

    def test_client_parks_on_doorbell_and_wakes(self):
        # The handler outlasts any realistic spin budget, so the client
        # must park on the doorbell fd and be woken by the reply's byte.
        def slow(request: bytes) -> bytes:
            time.sleep(0.08)
            return b"late:" + bytes(request)

        with ShmServer(slow) as server:
            channel = ShmChannel(server.name, spin=10)
            try:
                assert channel.request(b"x") == b"late:x"
            finally:
                channel.close()

    def test_reconnect_after_channel_close(self):
        with ShmServer(echo_handler) as server:
            first = ShmChannel(server.name)
            assert first.request(b"one") == b"echo:one"
            first.close()
            second = ShmChannel(server.name)
            try:
                assert second.request(b"two") == b"echo:two"
            finally:
                second.close()

    def test_idle_connection_burns_no_cpu(self):
        """After the linger window expires both sides must be parked in
        select — near-zero process CPU while the connection idles."""
        from repro.transport.netloop import StagedStreamServer

        with ShmServer(echo_handler) as server:
            channel = ShmChannel(server.name)
            try:
                assert channel.request(b"warm") == b"echo:warm"
                # Let the net thread's linger poll expire and re-park.
                time.sleep(10 * StagedStreamServer.DOORBELL_LINGER_SECONDS + 0.05)
                cpu_before = time.process_time()
                wall_before = time.monotonic()
                time.sleep(0.8)
                cpu_spent = time.process_time() - cpu_before
                wall = time.monotonic() - wall_before
                # Generous budget for suite noise; a busy-polling loop
                # would burn ~100% of the window, not a few percent.
                assert cpu_spent < 0.25 * wall, (
                    f"idle shm connection used {cpu_spent:.3f}s CPU "
                    f"over {wall:.3f}s wall"
                )
                # Still alive after re-parking.
                assert channel.request(b"again") == b"echo:again"
            finally:
                channel.close()

    def test_client_vanishing_mid_handshake_keeps_server_alive(self):
        """A client that connects and dies before reading the segment fd
        makes ``send_fds`` fail mid-handshake; that must reject only the
        one connection — not escape (e.g. as ``BufferError`` from
        closing a still-viewed mmap) and kill the net thread."""
        with ShmServer(echo_handler) as server:
            for _ in range(5):
                ghost = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                ghost.connect(server.path)
                ghost.close()  # gone before the handshake lands
            time.sleep(0.1)  # let the net thread chew through the ghosts
            channel = ShmChannel(server.name)
            try:
                assert channel.request(b"survivor") == b"echo:survivor"
            finally:
                channel.close()

    def test_recv_caps_at_bufsize(self):
        """The non-blocking ``recv`` obeys socket semantics: at most
        *bufsize* bytes per call, residue delivered by later calls."""
        sender, receiver = duplex_pair()
        try:
            payload = bytes(range(256)) * 8  # 2 KiB across several records
            sender.sendall(payload)
            got = bytearray()
            while len(got) < len(payload):
                chunk = receiver.recv(64)
                assert 0 < len(chunk) <= 64
                got += chunk
            assert bytes(got) == payload
            with pytest.raises(BlockingIOError):
                receiver.recv(64)
        finally:
            sender.close()
            receiver.close()

    def test_recv_on_tail_behind_head_raises_eio(self):
        """A torn tail read (tail behind head) is a corrupt ring: ``recv``
        fails with ``OSError(EIO)``, which the net loop turns into a
        closed connection, not an escaping ``ValueError``."""
        sender, receiver = duplex_pair()
        try:
            sender.sendall(b"x" * 40)
            assert receiver.recv(64) == b"x" * 40
            plant_tail_behind_head(sender)
            with pytest.raises(OSError) as info:
                receiver.recv(64)
            assert info.value.errno == errno.EIO
        finally:
            sender.close()
            receiver.close()

    def test_corrupt_ring_closes_only_its_connection(self):
        """One connection's torn tail closes that connection; the loop
        owner survives and keeps serving the other one."""
        with ShmServer(echo_handler) as server:
            healthy = ShmChannel(server.name, timeout=5.0)
            # Pipelined framing reads through the copying ``recv`` path.
            corrupt = PipelinedShmChannel(server.name, timeout=5.0)
            try:
                assert healthy.request(b"a") == b"echo:a"
                assert corrupt.request(b"b") == b"echo:b"
                assert server.live_connections == 2
                duplex = corrupt._sock
                plant_tail_behind_head(duplex)
                duplex._ring_peer()
                deadline = time.monotonic() + 5.0
                while server.live_connections > 1:
                    assert time.monotonic() < deadline, "connection not closed"
                    time.sleep(0.01)
                assert healthy.request(b"after") == b"echo:after"
            finally:
                corrupt.close()
                healthy.close()

    def test_tail_past_capacity_closes_only_its_connection(self):
        """A tail further ahead of the head than the ring's capacity is a
        torn read too: it closes that connection, and the loop owner
        keeps serving the other one."""
        with ShmServer(echo_handler) as server:
            healthy = ShmChannel(server.name, timeout=5.0)
            corrupt = PipelinedShmChannel(server.name, timeout=5.0)
            try:
                assert healthy.request(b"a") == b"echo:a"
                assert corrupt.request(b"b") == b"echo:b"
                assert server.live_connections == 2
                duplex = corrupt._sock
                plant_tail_past_capacity(duplex)
                duplex._ring_peer()
                deadline = time.monotonic() + 5.0
                while server.live_connections > 1:
                    assert time.monotonic() < deadline, "connection not closed"
                    time.sleep(0.01)
                assert healthy.request(b"after") == b"echo:after"
            finally:
                corrupt.close()
                healthy.close()

    def test_lost_doorbell_backstop_recovers(self, monkeypatch):
        """With every doorbell byte suppressed (the worst case of the
        cross-process store→load race) a round trip must still complete
        via the bounded-park re-checks, just slower."""
        from repro.transport.shm import _RingDuplex

        with ShmServer(echo_handler) as server:
            monkeypatch.setattr(_RingDuplex, "_ring_peer", lambda self: None)
            channel = ShmChannel(server.name, timeout=5.0, spin=10)
            try:
                assert channel.request(b"quiet") == b"echo:quiet"
            finally:
                channel.close()


class TestShmLifecycle:
    def test_live_server_refuses_rebind(self):
        with ShmServer(echo_handler) as server:
            with pytest.raises(TransportError, match="in use"):
                ShmServer(echo_handler, name=server.name)

    def test_stop_unlinks_rendezvous_socket(self):
        server = ShmServer(echo_handler)
        path = server.path
        assert os.path.exists(path)
        server.stop(grace=2.0)
        assert not os.path.exists(path)

    def test_stale_socket_is_reclaimed(self):
        name = "stale-reclaim-test"
        path = handshake_path(name)
        # A dead predecessor's leftover: a bound socket nobody listens on.
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            leftover.bind(path)
        finally:
            leftover.close()
        assert os.path.exists(path)
        server = ShmServer(echo_handler, name=name)
        try:
            channel = ShmChannel(name)
            try:
                assert channel.request(b"hi") == b"echo:hi"
            finally:
                channel.close()
        finally:
            server.stop(grace=2.0)
        assert not os.path.exists(path)

    def test_successor_rebinds_after_stop(self):
        name = "successor-test"
        first = ShmServer(echo_handler, name=name)
        first.stop(grace=2.0)
        second = ShmServer(echo_handler, name=name)
        try:
            channel = ShmChannel(name)
            try:
                assert channel.request(b"hello") == b"echo:hello"
            finally:
                channel.close()
        finally:
            second.stop(grace=2.0)

    def test_late_stop_never_unlinks_successor(self):
        """Inode guard: a predecessor stopping *after* its path was
        reclaimed and rebound must leave the successor's socket alone."""
        name = "inode-guard-test"
        first = ShmServer(echo_handler, name=name)
        # Simulate the crashed-predecessor path going stale + reclaimed:
        # the successor rebinds the same path with a fresh inode.
        os.unlink(first.path)
        second = ShmServer(echo_handler, name=name)
        try:
            first.stop(grace=2.0)  # late stop; must not unlink
            assert os.path.exists(second.path)
            channel = ShmChannel(name)
            try:
                assert channel.request(b"still here") == b"echo:still here"
            finally:
                channel.close()
        finally:
            second.stop(grace=2.0)

    def test_bind_waits_for_endpoint_lock(self):
        """Reclaim-and-bind runs under the endpoint lock, so concurrent
        starters serialize instead of racing probe→unlink→bind (which
        could orphan the winner's listener)."""
        fcntl = pytest.importorskip("fcntl")
        name = "lock-serialize-test"
        path = handshake_path(name)
        lock_fd = os.open(path + ".lock", os.O_RDWR | os.O_CREAT, 0o600)
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
        started = threading.Event()
        server_box = {}

        def start_server():
            server_box["server"] = ShmServer(echo_handler, name=name)
            started.set()

        thread = threading.Thread(target=start_server)
        thread.start()
        try:
            assert not started.wait(0.3), "bind did not wait for the lock"
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            assert started.wait(5.0), "bind never acquired the freed lock"
        finally:
            os.close(lock_fd)
            thread.join(timeout=5.0)
            server = server_box.get("server")
            if server is not None:
                server.stop(grace=2.0)

    def test_capacity_validation(self):
        with pytest.raises(TransportError, match="power of two"):
            ShmServer(echo_handler, capacity=5000)

    def test_resolver_opens_shm_scheme(self):
        with ShmServer(echo_handler) as server:
            resolver = ChannelResolver()
            try:
                channel = resolver.resolve(server.address)
                assert channel.request(b"via-resolver") == b"echo:via-resolver"
                # Cached: same channel object on re-resolve.
                assert resolver.resolve(server.address) is channel
            finally:
                resolver.close_all()

    def test_resolver_rejects_malformed_shm_address(self):
        resolver = ChannelResolver()
        with pytest.raises(TransportError, match="malformed shm"):
            resolver.resolve("shm://")


class _ShmProbeService(Remote):
    """Exercises values whose encode touches every writer primitive."""

    def echo(self, data: bytes) -> bytes:
        return data

    def combine(self, items, scale: float):
        return {
            "items": list(items),
            "scale": scale * 2,
            "text": "résultat ☃",
            "blob": b"\x00\x01" * 64,
        }


class TestStagedShmEndToEnd:
    """Endpoint calls over plain ``ShmChannel``: every call goes through
    the staged ``request`` whatever the retry and breaker settings, and
    the server's copying ring read and one-record reply serve them all."""

    @staticmethod
    def _world(name, **client_overrides):
        from repro.nrmi.config import NRMIConfig
        from repro.nrmi.runtime import Endpoint

        resolver = ChannelResolver()
        server = Endpoint(
            name=f"shm-e2e-server-{name}",
            config=NRMIConfig(transport="shm", tcp_pipelined=False),
            resolver=resolver,
        )
        client = Endpoint(
            name=f"shm-e2e-client-{name}",
            config=NRMIConfig(
                transport="shm", tcp_pipelined=False, **client_overrides
            ),
            resolver=resolver,
        )
        # Same call ids on every run, so request frames compare bytewise.
        client.next_call_id = itertools.count(1).__next__
        return resolver, server, client

    @pytest.mark.parametrize("setting", ["retry-off", "retry-on", "breaker"])
    def test_every_call_enters_request_once(self, monkeypatch, setting):
        """Retry off, retry on, breaker set: one call is one
        ``ShmChannel.request``."""
        from repro.transport.reliability import CircuitBreakerPolicy, RetryPolicy

        overrides = {
            "retry-off": {},
            "retry-on": {"retry": RetryPolicy(max_attempts=2)},
            "breaker": {"breaker": CircuitBreakerPolicy()},
        }[setting]
        calls = []
        original = ShmChannel.request

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShmChannel, "request", spy)
        resolver, server, client = self._world(f"route-{setting}", **overrides)
        try:
            address = server.serve_remote()
            server.bind("probe", _ShmProbeService())
            service = client.lookup(address, "probe")
            calls.clear()
            assert service.echo(b"route") == b"route"
        finally:
            client.close()
            server.close()
            resolver.close_all()
        assert len(calls) == 1

    def _call_matrix(self, name, **client_overrides):
        """(values the caller saw, request frames the server received)."""
        resolver, server, client = self._world(name, **client_overrides)
        requests = []
        handle = server.dispatcher.handle

        def recording(request, session=None):
            requests.append(bytes(request))
            return handle(request, session=session)

        recording.wants_session = True
        server.dispatcher.handle = recording
        try:
            address = server.serve_remote()
            server.bind("probe", _ShmProbeService())
            service = client.lookup(address, "probe")
            results = []
            for size in (0, 1, 64, 4096, 70_000):
                payload = bytes((i * 7) & 0xFF for i in range(size))
                results.append(service.echo(payload))
            results.append(service.combine([1, "two", 3.5, None], 1.25))
            return results, requests
        finally:
            client.close()
            server.close()
            resolver.close_all()

    def test_results_match_across_retry_and_breaker(self):
        from repro.transport.reliability import CircuitBreakerPolicy, RetryPolicy

        default, default_requests = self._call_matrix("default")
        retry, _requests = self._call_matrix(
            "retry", retry=RetryPolicy(max_attempts=2)
        )
        assert retry == default
        # A breaker, unlike retry, leaves the schema cache engaged, so
        # its frames compare with the default's byte for byte.
        breaker, breaker_requests = self._call_matrix(
            "breaker", breaker=CircuitBreakerPolicy()
        )
        assert breaker == default
        assert breaker_requests == default_requests
        # Sanity on the shared shape, not just cross-equality.
        assert default[-1]["scale"] == 2.5
        assert default[-2] == bytes((i * 7) & 0xFF for i in range(70_000))

    def test_staged_calls_survive_many_iterations(self):
        """Sequential calls through the server's copying ring reads and
        writes: no ring desync, wraps included (payload > ring slack)."""
        from repro.nrmi.config import NRMIConfig
        from repro.nrmi.runtime import Endpoint

        resolver = ChannelResolver()
        config = NRMIConfig(transport="shm", tcp_pipelined=False)
        server = Endpoint(name="shm-iter-server", config=config, resolver=resolver)
        client = Endpoint(name="shm-iter-client", config=config, resolver=resolver)
        try:
            address = server.serve_remote()
            server.bind("probe", _ShmProbeService())
            service = client.lookup(address, "probe")
            for index in range(200):
                payload = bytes([index & 0xFF]) * (17 * index % 3000)
                assert service.echo(payload) == payload
        finally:
            client.close()
            server.close()
            resolver.close_all()
