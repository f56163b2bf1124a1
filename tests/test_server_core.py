"""The staged server core: bounded queue, shedding, drain, reaping.

These tests drive :class:`repro.transport.netloop.StagedStreamServer`
through its TCP/UDS bindings with plain ``bytes -> bytes`` handlers and
raw sockets, below the RMI stack — the chaos matrix covers the same
behaviours end-to-end through proxies and retries.
"""

import queue
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.markers import Remote
from repro.errors import RetryableError, ServerBusyError, TransportError
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.rmi.protocol import Status, busy_response, raise_if_busy
from repro.transport.framing import read_frame, write_frame
from repro.transport.netloop import StagedStreamServer, _take_payload
from repro.transport.resolver import ChannelResolver
from repro.transport.tcp import PipelinedTcpChannel, TcpChannel, TcpServer
from repro.util.metrics import MetricsRegistry

_LEN = struct.Struct(">I")

BUSY_QUEUE_FULL = bytes(busy_response(ServerBusyError.QUEUE_FULL))
BUSY_DRAINING = bytes(busy_response(ServerBusyError.DRAINING))


def echo(request):
    return bytes(request)


class GatedHandler:
    """Blocks every request until released; counts executions."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.executions = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        self.started.set()
        self.release.wait(10.0)
        with self._lock:
            self.executions += 1
        return bytes(request)


def dial(server, timeout=5.0):
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestBusyShedding:
    def test_constructor_validates_options(self):
        with pytest.raises(ValueError):
            TcpServer(echo, workers=0)
        with pytest.raises(ValueError):
            TcpServer(echo, queue_capacity=0)
        with pytest.raises(ValueError):
            TcpServer(echo, max_inflight_per_conn=0)
        with pytest.raises(ValueError):
            TcpServer(echo, overload_policy="panic")

    def test_queue_full_answers_busy_frame_immediately(self):
        """workers=1, queue=1, handler gated shut: the 3rd request meets
        a full queue and gets the 2-byte BUSY frame at once."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        with TcpServer(
            handler, workers=1, queue_capacity=1, metrics=metrics
        ) as server:
            occupier = dial(server)  # fills the worker
            write_frame(occupier, b"a")
            assert handler.started.wait(5.0)
            queued = dial(server)  # fills the queue
            write_frame(queued, b"b")
            deadline = time.monotonic() + 5.0
            while (
                metrics.gauge("server.queue_depth").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)

            shed = dial(server)
            started = time.monotonic()
            write_frame(shed, b"c")
            response = bytes(read_frame(shed, timeout=5.0))
            elapsed = time.monotonic() - started

            assert response == BUSY_QUEUE_FULL
            assert response[0] == int(Status.BUSY)
            assert elapsed < 1.0  # shed without waiting for the worker
            assert metrics.counter("server.shed.queue_full").value >= 1

            handler.release.set()
            assert bytes(read_frame(occupier, timeout=5.0)) == b"a"
            assert bytes(read_frame(queued, timeout=5.0)) == b"b"
            assert handler.executions == 2  # the shed request never ran
            for sock in (occupier, queued, shed):
                sock.close()

    def test_channel_surfaces_busy_as_retryable_error(self):
        handler = GatedHandler()
        with TcpServer(handler, workers=1, queue_capacity=1) as server:
            occupier = dial(server)
            write_frame(occupier, b"a")
            assert handler.started.wait(5.0)
            queued = dial(server)
            write_frame(queued, b"b")
            time.sleep(0.05)

            channel = TcpChannel(server.host, server.port, timeout=5.0)
            raw = channel.request(b"c")
            with pytest.raises(ServerBusyError) as excinfo:
                raise_if_busy(raw)
            assert isinstance(excinfo.value, RetryableError)
            assert excinfo.value.reason == ServerBusyError.QUEUE_FULL
            handler.release.set()
            channel.close()
            occupier.close()
            queued.close()

    def test_block_policy_backpressures_instead_of_shedding(self):
        """overload_policy="block" parks the frame and pauses reads; once
        the worker frees up everything completes, nothing is shed."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        with TcpServer(
            handler,
            workers=1,
            queue_capacity=1,
            overload_policy="block",
            metrics=metrics,
        ) as server:
            socks = [dial(server) for _ in range(3)]
            for index, sock in enumerate(socks):
                write_frame(sock, bytes([index]))
            assert handler.started.wait(5.0)
            handler.release.set()
            for index, sock in enumerate(socks):
                assert bytes(read_frame(sock, timeout=5.0)) == bytes([index])
            assert metrics.counter("server.shed.queue_full").value == 0
            assert handler.executions == 3
            for sock in socks:
                sock.close()


class TestDrain:
    def test_stop_answers_backlog_with_busy_draining(self):
        """Frames parsed but not yet submitted when drain starts are
        answered with BUSY(DRAINING), not silently dropped."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        server = TcpServer(
            handler,
            workers=1,
            queue_capacity=1,
            metrics=metrics,
        )
        occupier = dial(server)
        write_frame(occupier, b"a")
        assert handler.started.wait(5.0)
        queued = dial(server)
        write_frame(queued, b"b")
        deadline = time.monotonic() + 5.0
        while (
            metrics.gauge("server.queue_depth").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        # A plain connection executes one frame at a time, so the second
        # frame on the occupier's connection sits in its backlog.
        write_frame(occupier, b"backlogged")

        stopper = threading.Thread(target=server.stop, args=(5.0,))
        time.sleep(0.05)  # let the backlog frame reach the net loop
        stopper.start()
        time.sleep(0.1)
        handler.release.set()
        stopper.join(timeout=10.0)

        assert bytes(read_frame(occupier, timeout=5.0)) == b"a"
        assert bytes(read_frame(occupier, timeout=5.0)) == BUSY_DRAINING
        assert bytes(read_frame(queued, timeout=5.0)) == b"b"
        assert metrics.counter("server.drain.graceful").value == 1
        assert metrics.counter("server.shed.draining").value >= 1
        occupier.close()
        queued.close()

    def test_grace_expiry_forces_and_rejects_queued_work(self):
        """A handler that never finishes: stop(grace) must still return,
        count a forced drain, and BUSY the queued-but-unstarted job."""
        handler = GatedHandler()
        metrics = MetricsRegistry()
        server = TcpServer(
            handler, workers=1, queue_capacity=4, metrics=metrics
        )
        occupier = dial(server)
        write_frame(occupier, b"a")
        assert handler.started.wait(5.0)
        queued = dial(server)
        write_frame(queued, b"b")
        time.sleep(0.05)

        started = time.monotonic()
        server.stop(grace=0.2)
        assert time.monotonic() - started < 5.0
        assert metrics.counter("server.drain.forced").value == 1
        assert metrics.counter("server.drain.rejected").value >= 1
        assert bytes(read_frame(queued, timeout=5.0)) == BUSY_DRAINING
        handler.release.set()
        occupier.close()
        queued.close()

    def test_stop_is_idempotent(self):
        server = TcpServer(echo, workers=1)
        server.stop(grace=1.0)
        server.stop(grace=1.0)  # second call returns without error

    def test_new_connections_refused_after_stop(self):
        server = TcpServer(echo, workers=1)
        host, port = server.host, server.port
        server.stop(grace=1.0)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_uds_socket_unlinked_only_after_listener_closed(self):
        import os

        from repro.transport.uds import UdsServer

        if not hasattr(socket, "AF_UNIX"):
            pytest.skip("platform lacks AF_UNIX")
        server = UdsServer(echo, workers=1)
        path = server.path
        assert os.path.exists(path)
        server.stop(grace=1.0)
        assert not os.path.exists(path)
        # A successor can immediately reclaim the path.
        successor = UdsServer(echo, path=path, workers=1)
        assert os.path.exists(path)
        successor.stop(grace=1.0)
        assert not os.path.exists(path)


class TestSlowLoris:
    def test_partial_frame_reaped_after_deadline(self):
        metrics = MetricsRegistry()
        with TcpServer(
            echo, workers=1, partial_read_timeout=0.2, metrics=metrics
        ) as server:
            healthy = dial(server)
            write_frame(healthy, b"ok")
            assert bytes(read_frame(healthy, timeout=5.0)) == b"ok"

            loris = dial(server)
            loris.sendall(_LEN.pack(1000)[:3])  # 3 bytes of a 4-byte header
            deadline = time.monotonic() + 5.0
            while (
                metrics.counter("server.connections.reaped_stalled").value < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert (
                metrics.counter("server.connections.reaped_stalled").value
                == 1
            )
            # The healthy connection (no partial frame) is untouched.
            write_frame(healthy, b"still-ok")
            assert bytes(read_frame(healthy, timeout=5.0)) == b"still-ok"
            healthy.close()
            loris.close()

    def test_fault_channel_stall_mode_leaves_pool_clean(self):
        from repro.transport.fault import FaultInjectingChannel

        with TcpServer(echo, workers=1) as server:
            channel = TcpChannel(server.host, server.port, timeout=5.0)
            fault = FaultInjectingChannel(
                channel, mode="stall", fail_on_calls={1}, stall_after_bytes=6
            )
            with pytest.raises(RetryableError):
                fault.request(b"stalled-call")
            assert fault.stalled_connections == 1
            # The pooled connection was never poisoned: the retry works.
            assert fault.request(b"retried-call") == b"retried-call"
            fault.release_stalled()
            assert fault.stalled_connections == 0
            fault.close()


class TestContract:
    def test_live_connections_tracks_peers(self):
        with TcpServer(echo, workers=1) as server:
            assert server.live_connections == 0
            sock = dial(server)
            write_frame(sock, b"x")
            assert bytes(read_frame(sock, timeout=5.0)) == b"x"
            assert server.live_connections == 1
            sock.close()
            deadline = time.monotonic() + 5.0
            while server.live_connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.live_connections == 0

    def test_handler_exception_drops_connection_only(self):
        def bad(request):
            raise RuntimeError("protocol bug")

        with TcpServer(bad, workers=1) as server:
            sock = dial(server)
            write_frame(sock, b"x")
            with pytest.raises(TransportError):
                read_frame(sock, timeout=5.0)
            sock.close()
            # The server survives and serves the next connection... with
            # the same failing handler the accept machinery still works.
            replacement = dial(server)
            write_frame(replacement, b"y")
            with pytest.raises(TransportError):
                read_frame(replacement, timeout=5.0)
            replacement.close()

    def test_frames_reach_the_handler_as_bytes(self):
        seen = []

        def record(request):
            seen.append(type(request))
            return bytes(request)

        bodies = [b"a", b"b" * 300, b"c" * 70_000]
        with TcpServer(record, workers=1) as server:
            sock = dial(server)
            # One send: the net loop cuts every frame out of one buffer.
            sock.sendall(b"".join(_LEN.pack(len(body)) + body for body in bodies))
            for body in bodies:
                assert bytes(read_frame(sock, timeout=5.0)) == body
            sock.close()
        assert seen == [bytes] * len(bodies)

    def test_take_payload_leaves_the_buffer_resizable(self):
        buf = bytearray(_LEN.pack(3) + b"abc" + b"rest")
        payload = _take_payload(buf, _LEN.size, _LEN.size + 3)
        assert type(payload) is bytes and payload == b"abc"
        assert buf == b"rest"
        buf += b"!"  # BufferError if a view of buf were still exported
        assert buf == b"rest!"

    def test_staged_server_requires_subclass_address(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        server = StagedStreamServer(echo, sock, label="raw", workers=1)
        try:
            with pytest.raises(NotImplementedError):
                _ = server.address
        finally:
            server.stop(grace=1.0)


class TestWorkerWrittenReplies:
    """On socket connections workers send their own replies; the net
    thread only hears about it when it has something to do."""

    def test_sequential_calls_never_wake_the_net_thread(self):
        with TcpServer(echo, workers=2) as server:
            calls = {"_wake": 0, "_queue_reply": 0, "_flush_conn": 0}
            for name in calls:
                original = getattr(server, name)

                def counted(*args, _name=name, _original=original):
                    calls[_name] += 1
                    return _original(*args)

                setattr(server, name, counted)
            sock = dial(server)
            try:
                for index in range(100):
                    payload = b"call-%d" % index
                    write_frame(sock, payload)
                    assert bytes(read_frame(sock, timeout=5.0)) == payload
            finally:
                sock.close()
            # No waker byte, and no reply went through the net thread's
            # queue or its send path: each worker sent its own, in full.
            assert calls == {"_wake": 0, "_queue_reply": 0, "_flush_conn": 0}

    def test_pipelined_shedding_never_interleaves_frames(self):
        """Net-thread BUSY frames and worker replies share one socket:
        every caller gets exactly its reply or BUSY, every frame parses."""

        def jittery(request):
            time.sleep(0.0005 * (request[-1] % 3))
            return b"echo:" + bytes(request)

        metrics = MetricsRegistry()
        with TcpServer(
            jittery,
            workers=2,
            queue_capacity=2,
            overload_policy="shed",
            metrics=metrics,
        ) as server:
            channel = PipelinedTcpChannel(server.host, server.port, timeout=10.0)
            outcomes = {"ok": 0, "busy": 0}
            errors = []
            lock = threading.Lock()

            def caller(caller_id):
                for index in range(40):
                    payload = b"%d-%d" % (caller_id, index)
                    try:
                        reply = bytes(channel.request(payload))
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(exc)
                        return
                    with lock:
                        if reply == BUSY_QUEUE_FULL:
                            outcomes["busy"] += 1
                        elif reply == b"echo:" + payload:
                            outcomes["ok"] += 1
                        else:
                            errors.append((payload, reply))

            threads = [threading.Thread(target=caller, args=(n,)) for n in range(16)]
            # Frequent GIL hand-offs interleave worker and net-thread sends.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
                channel.close()
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert outcomes["ok"] + outcomes["busy"] == 16 * 40
            assert outcomes["ok"] > 0 and outcomes["busy"] > 0
            assert metrics.counter("server.shed.queue_full").value == outcomes["busy"]

    def test_replies_larger_than_the_socket_buffer_stay_whole(self):
        """Replies far larger than a (shrunk) send buffer: workers send
        part, leave the tail to the net thread, and replies finished
        meanwhile queue behind it — every one still arrives whole."""

        class SmallSendBufferServer(TcpServer):
            def _configure_connection(self, conn):
                super()._configure_connection(conn)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        blob = bytes(range(256)) * 256  # 64 KiB

        def big(request):
            return bytes(request) + blob

        with SmallSendBufferServer(big, workers=4) as server:
            flushes = []
            flush_conn = server._flush_conn

            def counted_flush(connection):
                flushes.append(connection)
                return flush_conn(connection)

            server._flush_conn = counted_flush
            channel = PipelinedTcpChannel(server.host, server.port, timeout=10.0)
            errors = []

            def caller(caller_id):
                for index in range(8):
                    payload = b"%d-%d" % (caller_id, index)
                    if bytes(channel.request(payload)) != payload + blob:
                        errors.append(payload)

            threads = [threading.Thread(target=caller, args=(n,)) for n in range(4)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                channel.close()
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert flushes  # tails really were left to the net thread


@pytest.mark.soak
class TestSaturationSoak:
    def test_bounded_queue_under_sustained_overload(self):
        """Short saturation soak: hammer workers=2/queue=2 from 8
        threads for ~1.5s. The queue depth stays within its bound the
        whole time (bounded memory), BUSY replies are immediate, and
        every admitted request is answered exactly once."""

        def slowish(request):
            time.sleep(0.002)
            return bytes(request)

        metrics = MetricsRegistry()
        capacity = 2
        with TcpServer(
            slowish,
            workers=2,
            queue_capacity=capacity,
            metrics=metrics,
        ) as server:
            stop = threading.Event()
            depth_violations = []
            outcomes = {"ok": 0, "busy": 0}
            lock = threading.Lock()

            def sample_depth():
                gauge = metrics.gauge("server.queue_depth")
                while not stop.is_set():
                    if gauge.value > capacity:
                        depth_violations.append(gauge.value)
                    time.sleep(0.001)

            def hammer(seed):
                sock = dial(server)
                ok = busy = 0
                try:
                    while not stop.is_set():
                        payload = bytes([seed]) * (1 + seed)
                        write_frame(sock, payload)
                        response = bytes(read_frame(sock, timeout=10.0))
                        if response == BUSY_QUEUE_FULL:
                            busy += 1
                        else:
                            assert response == payload
                            ok += 1
                finally:
                    sock.close()
                    with lock:
                        outcomes["ok"] += ok
                        outcomes["busy"] += busy

            sampler = threading.Thread(target=sample_depth)
            sampler.start()
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)
            sampler.join(timeout=5.0)

            assert not depth_violations  # bounded memory: depth <= capacity
            assert outcomes["ok"] > 0
            assert outcomes["busy"] > 0  # overload actually shed
            submitted = metrics.counter("server.jobs.submitted").value
            completed = metrics.counter("server.jobs.completed").value
            assert completed == submitted  # every admitted job answered
            shed = metrics.counter("server.shed.queue_full").value
            assert shed == outcomes["busy"]  # sheds and BUSYs reconcile


TRANSPORTS = ["tcp", "uds", "shm"]


def skip_unsupported(transport):
    if transport == "uds" and not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform lacks AF_UNIX")
    if transport == "shm":
        from repro.transport.shm import shm_supported

        if not shm_supported():
            pytest.skip("platform lacks AF_UNIX fd passing for shm")


def staged_server(transport, handler, **options):
    """(server, plain-channel factory, pipelined-channel factory)."""
    skip_unsupported(transport)
    if transport == "tcp":
        server = TcpServer(handler, **options)
        return (
            server,
            lambda: TcpChannel(server.host, server.port, timeout=5.0),
            lambda: PipelinedTcpChannel(server.host, server.port, timeout=5.0),
        )
    if transport == "uds":
        from repro.transport.uds import PipelinedUdsChannel, UdsChannel, UdsServer

        server = UdsServer(handler, **options)
        return (
            server,
            lambda: UdsChannel(server.path, timeout=5.0),
            lambda: PipelinedUdsChannel(server.path, timeout=5.0),
        )
    from repro.transport.shm import PipelinedShmChannel, ShmChannel, ShmServer

    server = ShmServer(handler, **options)
    return (
        server,
        lambda: ShmChannel(server.name, timeout=5.0),
        lambda: PipelinedShmChannel(server.name, timeout=5.0),
    )


class Rendezvous:
    """``take`` blocks until another call's ``put:<item>`` arrives;
    counts executions."""

    def __init__(self):
        self.items = queue.Queue()
        self.taking = threading.Event()
        self.executions = 0
        self._lock = threading.Lock()

    def __call__(self, request):
        request = bytes(request)
        with self._lock:
            self.executions += 1
        if request == b"take":
            self.taking.set()
            return self.items.get(timeout=5.0)
        self.items.put(request[len(b"put:"):])
        return b"ok"


class Relay(Remote):
    """One hop of a re-entrant chain: calls *peer* back with one hop
    fewer, until the count runs out."""

    def bounce(self, peer, hops):
        if hops == 0:
            return [threading.current_thread().name]
        return peer.bounce(self, hops - 1) + [threading.current_thread().name]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestInlineExecution:
    """A lone frame runs on the net thread that read it; a call that
    outlives the switch interval hands the loop to the watchdog worker,
    so blocking handlers still make progress."""

    def test_sequential_calls_all_run_inline(self, transport):
        metrics = MetricsRegistry()
        server, plain, _ = staged_server(transport, echo, metrics=metrics)
        inline = metrics.counter("server.jobs.inline")
        submitted = metrics.counter("server.jobs.submitted")
        with server:
            channel = plain()
            try:
                assert bytes(channel.request(b"warm")) == b"warm"
                inline_before, submitted_before = inline.value, submitted.value
                for index in range(50):
                    payload = b"call-%d" % index
                    assert bytes(channel.request(payload)) == payload
            finally:
                channel.close()
            assert inline.value - inline_before == 50
            assert submitted.value - submitted_before == 50
        assert (
            metrics.counter("server.jobs.completed").value == submitted.value
        )

    def _rendezvous(self, transport, pipelined):
        handler = Rendezvous()
        metrics = MetricsRegistry()
        server, plain, piped = staged_server(transport, handler, metrics=metrics)
        results = {}
        with server:
            if pipelined:
                shared = piped()
                channels = (shared, shared)
            else:
                channels = (plain(), plain())

            def call(key, channel, payload):
                results[key] = bytes(channel.request(payload))

            started = time.monotonic()
            taker = threading.Thread(
                target=call, args=("take", channels[0], b"take")
            )
            taker.start()
            try:
                assert handler.taking.wait(2.0)
                call("put", channels[1], b"put:item")
                taker.join(timeout=2.0)
                elapsed = time.monotonic() - started
            finally:
                for channel in set(channels):
                    channel.close()
            assert not taker.is_alive()
            assert results == {"take": b"item", "put": b"ok"}
            assert elapsed < 2.0
        assert metrics.counter("server.inline.takeovers").value >= 1
        assert handler.executions == len(results)
        assert (
            metrics.counter("server.jobs.completed").value
            == metrics.counter("server.jobs.submitted").value
        )

    def test_blocked_inline_call_is_released_by_another_connection(
        self, transport
    ):
        self._rendezvous(transport, pipelined=False)

    def test_blocked_inline_call_is_released_on_its_own_pipelined_channel(
        self, transport
    ):
        self._rendezvous(transport, pipelined=True)

    def test_reentrant_callback_chain_completes(self, transport):
        skip_unsupported(transport)
        resolver = ChannelResolver()
        config = NRMIConfig(transport=transport)
        a = Endpoint(name="relay-a", config=config, resolver=resolver)
        b = Endpoint(name="relay-b", config=config, resolver=resolver)
        try:
            a.serve_remote()
            b.serve_remote()
            relay_a = Relay()
            a.bind("relay", relay_a)
            b.bind("relay", Relay())
            remote_b = a.lookup(b.address, "relay")
            # A→B→A→B: B's net thread blocks in the first hop while A's
            # call back into B needs reading — only a takeover reads it.
            outcome = {}
            caller = threading.Thread(
                target=lambda: outcome.setdefault(
                    "trail", remote_b.bounce(relay_a, 3)
                )
            )
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive()
            assert len(outcome["trail"]) == 4
            assert b.metrics.counter("server.inline.takeovers").value >= 1
        finally:
            a.close()
            b.close()
            resolver.close_all()

    def test_second_open_connection_keeps_the_worker_hand_off(self, transport):
        metrics = MetricsRegistry()
        server, plain, _ = staged_server(transport, echo, metrics=metrics)
        inline = metrics.counter("server.jobs.inline")
        with server:
            idle, busy = plain(), plain()
            try:
                assert bytes(idle.request(b"open")) == b"open"
                assert bytes(busy.request(b"warm")) == b"warm"
                inline_before = inline.value
                for index in range(20):
                    payload = b"call-%d" % index
                    assert bytes(busy.request(payload)) == payload
            finally:
                idle.close()
                busy.close()
            assert inline.value == inline_before
        assert metrics.counter("server.inline.takeovers").value == 0

    def test_peer_that_overlaps_its_calls_keeps_the_worker_hand_off(
        self, transport
    ):
        started = threading.Event()

        def handler(request):
            request = bytes(request)
            if request == b"slow":
                started.set()
                time.sleep(0.1)
            return request

        metrics = MetricsRegistry()
        server, _, piped = staged_server(transport, handler, metrics=metrics)
        inline = metrics.counter("server.jobs.inline")
        interval = sys.getswitchinterval()
        with server:
            shared = piped()
            replies = {}
            slow = threading.Thread(
                target=lambda: replies.setdefault("slow", bytes(shared.request(b"slow")))
            )
            # No takeover: the second frame must meet the inline call.
            sys.setswitchinterval(1.0)
            try:
                slow.start()
                assert started.wait(5.0)
                replies["fast"] = bytes(shared.request(b"fast"))
                slow.join(timeout=5.0)
            finally:
                sys.setswitchinterval(interval)
            try:
                assert replies == {"slow": b"slow", "fast": b"fast"}
                assert inline.value == 1  # the slow call only
                for index in range(10):
                    payload = b"call-%d" % index
                    assert bytes(shared.request(payload)) == payload
                assert inline.value == 1
            finally:
                shared.close()
        assert metrics.counter("server.inline.takeovers").value == 0

    def test_takeover_storm_loses_no_call(self, transport):
        """A switch interval of 100 µs makes the watchdog take over from
        almost every inline call that sleeps, while other threads keep
        calling on the same pipelined connection and fresh connections
        come and go: replies, executions and the job counters must still
        reconcile exactly."""
        executions = []
        lock = threading.Lock()

        def handler(request):
            request = bytes(request)
            if request == b"lone":
                time.sleep(0.05)
            elif request[-1] % 3 == 0:
                time.sleep(0.002)
            with lock:
                executions.append(request)
            return b"re:" + request

        metrics = MetricsRegistry()
        server, plain, piped = staged_server(
            transport, handler, workers=3, queue_capacity=64, metrics=metrics
        )
        errors = []

        def caller(channel, caller_id):
            for index in range(30):
                payload = b"%d-%d" % (caller_id, index)
                try:
                    if channel is None:
                        # A connection of its own for this one call.
                        own = plain()
                        try:
                            reply = bytes(own.request(payload))
                        finally:
                            own.close()
                    else:
                        reply = bytes(channel.request(payload))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return
                if reply != b"re:" + payload:
                    errors.append((payload, reply))
                time.sleep(0.001 * (index % 3))  # lets lone calls run inline

        interval = sys.getswitchinterval()
        with server:
            shared = piped()
            threads = [
                threading.Thread(target=caller, args=(channel, n))
                for n, channel in enumerate([shared] * 5 + [None, None])
            ]
            sys.setswitchinterval(1e-4)
            try:
                # One call alone first: it runs inline and is taken over
                # for sure, whatever the storm's timing then does.
                assert bytes(shared.request(b"lone")) == b"re:lone"
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
                shared.close()
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(executions) == len(set(executions)) == 7 * 30 + 1
        assert metrics.counter("server.inline.takeovers").value >= 1
        submitted = metrics.counter("server.jobs.submitted").value
        assert submitted == len(executions)
        assert metrics.counter("server.jobs.completed").value == submitted
        assert metrics.counter("server.jobs.inline").value <= submitted

    def test_stop_waits_for_a_blocked_inline_call(self, transport):
        handler = GatedHandler()
        metrics = MetricsRegistry()
        server, plain, _ = staged_server(transport, handler, metrics=metrics)
        channel = plain()
        reply = {}
        caller = threading.Thread(
            target=lambda: reply.setdefault("value", bytes(channel.request(b"held")))
        )
        caller.start()
        try:
            assert handler.started.wait(5.0)
            assert metrics.counter("server.jobs.inline").value == 1
            stopper = threading.Thread(target=server.stop, args=(5.0,))
            stopper.start()
            # The watchdog hands the loop over, and the new owner drains.
            takeovers = metrics.counter("server.inline.takeovers")
            deadline = time.monotonic() + 5.0
            while takeovers.value < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            assert stopper.is_alive()  # the drain waits for the call
            handler.release.set()
            stopper.join(timeout=10.0)
            caller.join(timeout=5.0)
        finally:
            handler.release.set()
            channel.close()
        assert not stopper.is_alive()
        assert reply == {"value": b"held"}
        assert metrics.counter("server.inline.takeovers").value == 1
        assert metrics.counter("server.drain.graceful").value == 1
        assert metrics.counter("server.jobs.completed").value == 1
