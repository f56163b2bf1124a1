"""Transport layer: framing, in-process channel, TCP, simnet, resolver."""

import os
import random
import select
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import DeadlineExceededError, RetryableError, TransportError
from repro.transport.base import ChannelStats
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    PIPELINE_PREAMBLE,
    read_frame,
    read_frame_corr,
    recv_exact,
    write_frame,
    write_frame_corr,
)
from repro.transport.inproc import InProcChannel
from repro.transport.resolver import ChannelResolver
from repro.transport.simnet import LOOPBACK_MODEL, NetworkModel, SimulatedChannel
from repro.transport.tcp import PipelinedTcpChannel, TcpChannel, TcpServer
from repro.transport.uds import PipelinedUdsChannel, UdsChannel, UdsServer


def echo_handler(request: bytes) -> bytes:
    return b"echo:" + request


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, b"hello")
            assert read_frame(b) == b"hello"
        finally:
            a.close()
            b.close()

    def test_empty_frame(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, b"")
            assert read_frame(b) == b""
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                write_frame(a, f"frame-{i}".encode())
            for i in range(5):
                assert read_frame(b) == f"frame-{i}".encode()
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(TransportError):
            read_frame(b)
        b.close()

    def test_partial_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10only-8-bytes")  # announce 16, send 12
            a.close()
            with pytest.raises(TransportError, match="mid-frame"):
                read_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(TransportError, match="oversized"):
                read_frame(b)
        finally:
            a.close()
            b.close()


class TestInProc:
    def test_request_response(self):
        channel = InProcChannel(echo_handler)
        assert channel.request(b"ping") == b"echo:ping"

    def test_stats_recorded(self):
        channel = InProcChannel(echo_handler)
        channel.request(b"abcd")
        snap = channel.stats.snapshot()
        assert snap == {"requests": 1, "bytes_sent": 4, "bytes_received": 9}

    def test_closed_channel_raises(self):
        channel = InProcChannel(echo_handler)
        channel.close()
        with pytest.raises(TransportError):
            channel.request(b"x")


class TestTcp:
    def test_request_response_over_sockets(self):
        with TcpServer(echo_handler) as server:
            channel = TcpChannel(server.host, server.port)
            try:
                assert channel.request(b"over-tcp") == b"echo:over-tcp"
            finally:
                channel.close()

    def test_many_requests_one_connection(self):
        with TcpServer(echo_handler) as server:
            channel = TcpChannel(server.host, server.port)
            try:
                for i in range(50):
                    assert channel.request(f"{i}".encode()) == f"echo:{i}".encode()
            finally:
                channel.close()

    def test_concurrent_clients(self):
        with TcpServer(echo_handler) as server:
            errors = []

            def worker(worker_id: int):
                channel = TcpChannel(server.host, server.port)
                try:
                    for i in range(20):
                        expected = f"echo:{worker_id}-{i}".encode()
                        if channel.request(f"{worker_id}-{i}".encode()) != expected:
                            errors.append((worker_id, i))
                finally:
                    channel.close()

            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []

    def test_large_payload(self):
        with TcpServer(echo_handler) as server:
            channel = TcpChannel(server.host, server.port)
            try:
                blob = bytes(range(256)) * 4096  # 1 MiB
                assert channel.request(blob) == b"echo:" + blob
            finally:
                channel.close()

    def test_connection_refused(self):
        channel = TcpChannel("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(TransportError):
            channel.request(b"x")

    def test_address_property(self):
        with TcpServer(echo_handler) as server:
            assert server.address == f"tcp://{server.host}:{server.port}"

    def test_reconnect_after_server_side_drop(self):
        """A fresh request after an idle drop retries on a new socket."""
        with TcpServer(echo_handler) as server:
            channel = TcpChannel(server.host, server.port)
            try:
                assert channel.request(b"one") == b"echo:one"
                channel._drop_connection()  # simulate idle-out
                assert channel.request(b"two") == b"echo:two"
            finally:
                channel.close()


class TestCorrelatedFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            write_frame_corr(a, 7, b"hello")
            assert read_frame_corr(b) == (7, b"hello")
        finally:
            a.close()
            b.close()

    def test_interleaved_ids_preserved(self):
        a, b = socket.socketpair()
        try:
            for corr_id in (3, 1, 2):
                write_frame_corr(a, corr_id, f"p{corr_id}".encode())
            seen = [read_frame_corr(b) for _ in range(3)]
            assert seen == [(3, b"p3"), (1, b"p1"), (2, b"p2")]
        finally:
            a.close()
            b.close()

    def test_preamble_cannot_be_a_legal_plain_frame(self):
        """The detection trick: the magic, read as a length header, must
        announce an illegally oversized frame."""
        announced = int.from_bytes(PIPELINE_PREAMBLE[:4], "big")
        assert announced > MAX_FRAME_BYTES

    def test_short_write_finishes_over_views_without_copying(self):
        """A sendmsg that takes 5 bytes (mid correlation id): the rest goes
        out as slices of the original segments — the payload included —
        never as a joined copy."""

        class ShortWriteSocket:
            def __init__(self):
                self.sent = []

            def sendmsg(self, buffers):
                self.sent.append(bytes(b"".join(buffers))[:5])
                return 5

            def sendall(self, data):
                self.sent.append(data)

        sock = ShortWriteSocket()
        payload = bytearray(b"payload-bytes")
        write_frame_corr(sock, 0x01020304, payload)
        head, *rest = sock.sent
        wire = head + b"".join(bytes(part) for part in rest)
        assert wire == (
            len(payload).to_bytes(4, "big") + bytes([1, 2, 3, 4]) + payload
        )
        assert all(isinstance(part, memoryview) for part in rest)
        assert rest[-1].obj is payload  # a view over the caller's buffer


class TestPipelinedTcp:
    def test_request_response(self):
        with TcpServer(echo_handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            try:
                assert channel.request(b"piped") == b"echo:piped"
                assert channel.in_flight == 0
            finally:
                channel.close()

    def test_many_requests_one_connection(self):
        with TcpServer(echo_handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            try:
                for i in range(50):
                    assert channel.request(f"{i}".encode()) == f"echo:{i}".encode()
            finally:
                channel.close()

    def test_concurrent_callers_demuxed_correctly(self):
        with TcpServer(echo_handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            errors = []

            def worker(worker_id: int):
                for i in range(20):
                    payload = f"{worker_id}-{i}".encode()
                    if channel.request(payload) != b"echo:" + payload:
                        errors.append((worker_id, i))

            try:
                threads = [
                    threading.Thread(target=worker, args=(n,)) for n in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert errors == []
                assert channel.max_in_flight >= 2  # calls really overlapped
                assert server.live_connections == 1  # on ONE connection
            finally:
                channel.close()

    def test_fast_reply_overtakes_slow_call(self):
        """The head-of-line-blocking fix: a fast call completes while a
        slow one is still in flight on the same connection."""

        def handler(request: bytes) -> bytes:
            if request == b"slow":
                time.sleep(0.3)
            return b"echo:" + request

        with TcpServer(handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            try:
                slow = threading.Thread(target=channel.request, args=(b"slow",))
                slow.start()
                deadline = time.monotonic() + 2.0
                while channel.in_flight == 0 and time.monotonic() < deadline:
                    time.sleep(0.001)  # wait for the slow send to land
                started = time.monotonic()
                assert channel.request(b"fast") == b"echo:fast"
                elapsed = time.monotonic() - started
                slow.join()
                assert elapsed < 0.25  # did not wait behind the slow reply
                assert channel.max_in_flight == 2
            finally:
                channel.close()

    def test_deadline_abandons_call_but_keeps_connection(self):
        def handler(request: bytes) -> bytes:
            if request == b"stall":
                time.sleep(0.5)
            return b"echo:" + request

        with TcpServer(handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            try:
                with pytest.raises(DeadlineExceededError):
                    channel.request(b"stall", timeout=0.05)
                assert channel.in_flight == 0
                # The late reply is dropped by the reader; the connection
                # keeps serving subsequent calls.
                assert channel.request(b"after") == b"echo:after"
            finally:
                channel.close()

    def test_broken_connection_fails_pending_and_reconnects(self):
        with TcpServer(echo_handler) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            try:
                assert channel.request(b"one") == b"echo:one"
                with channel._state_lock:
                    sock = channel._sock
                sock.shutdown(socket.SHUT_RDWR)  # simulate a mid-life break
                deadline = time.monotonic() + 2.0
                while channel._sock is not None and time.monotonic() < deadline:
                    time.sleep(0.001)
                # A fresh request transparently reconnects (the retry
                # layer, not the channel, decides about resending).
                assert channel.request(b"two") == b"echo:two"
            finally:
                channel.close()

    def test_send_failure_raises_retryable(self):
        channel = PipelinedTcpChannel("127.0.0.1", 1)  # nothing listens
        with pytest.raises(RetryableError):
            channel.request(b"x")

    def test_plain_and_pipelined_share_one_server(self):
        """Framing auto-detect: both client framings against one port."""
        with TcpServer(echo_handler) as server:
            plain = TcpChannel(server.host, server.port)
            piped = PipelinedTcpChannel(server.host, server.port)
            try:
                assert plain.request(b"a") == b"echo:a"
                assert piped.request(b"b") == b"echo:b"
                assert plain.request(b"c") == b"echo:c"
            finally:
                plain.close()
                piped.close()

    def test_resolver_caches_framings_separately(self):
        with TcpServer(echo_handler) as server:
            resolver = ChannelResolver()
            try:
                plain = resolver.resolve(server.address)
                piped = resolver.resolve(server.address, pipelined=True)
                assert isinstance(plain, TcpChannel)
                assert isinstance(piped, PipelinedTcpChannel)
                assert resolver.resolve(server.address, pipelined=True) is piped
                assert resolver.resolve(server.address) is plain
            finally:
                resolver.close_all()

    def test_pipelined_flag_ignored_off_tcp(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        channel = resolver.resolve(address, pipelined=True)
        assert isinstance(channel, InProcChannel)
        assert resolver.resolve(address) is channel


class _RawPipelinedServer:
    """A one-thread pipelined peer scripted by the test: *script* gets
    each accepted socket (preamble already consumed) and the listener."""

    def __init__(self, script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.error = None
        self._thread = threading.Thread(target=self._run, args=(script,))
        self._thread.start()

    def _run(self, script):
        try:
            script(self)
        except Exception as exc:  # noqa: BLE001 - reported by join()
            self.error = exc

    def accept(self):
        conn, _peer = self.listener.accept()
        conn.settimeout(5.0)
        assert bytes(recv_exact(conn, len(PIPELINE_PREAMBLE))) == PIPELINE_PREAMBLE
        return conn

    def join(self):
        self._thread.join(timeout=10.0)
        self.listener.close()
        assert self.error is None, self.error


class TestPipelinedCallerReads:
    """The pipelined channel starts no thread: callers read replies."""

    def test_concurrent_callers_each_get_their_own_reply(self):
        def jittery(request: bytes) -> bytes:
            time.sleep(random.uniform(0.0, 0.002))
            return b"echo:" + request

        with TcpServer(jittery) as server:
            channel = PipelinedTcpChannel(server.host, server.port)
            errors = []

            def worker(worker_id: int):
                for i in range(50):
                    payload = f"{worker_id}-{i}".encode()
                    reply = channel.request(payload)
                    if reply != b"echo:" + payload:
                        errors.append((payload, reply))

            # Frequent GIL hand-offs shake out lost reader-role wake-ups.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=worker, args=(n,)) for n in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert channel.in_flight == 0
                assert channel.max_in_flight >= 2
                assert server.live_connections == 1
                assert not [
                    t.name for t in threading.enumerate()
                    if t.name.endswith("-pipe-reader")
                ]
            finally:
                sys.setswitchinterval(interval)
                channel.close()

    def test_deadline_mid_frame_keeps_the_stream_in_step(self):
        """The reader times out with half a reply frame read; those bytes
        stay buffered, so the next call on the channel still frames the
        stream correctly and gets its own reply."""
        stalled = threading.Event()

        def script(server):
            conn = server.accept()
            with conn:
                corr_id, request = read_frame_corr(conn)
                assert bytes(request) == b"first"
                reply = b"late:first"
                frame = struct.pack(">II", len(reply), corr_id) + reply
                conn.sendall(frame[: len(frame) // 2])
                assert stalled.wait(5.0)  # the caller gave up meanwhile
                conn.sendall(frame[len(frame) // 2 :])
                corr_id, request = read_frame_corr(conn)
                write_frame_corr(conn, corr_id, b"echo:" + bytes(request))

        server = _RawPipelinedServer(script)
        channel = PipelinedTcpChannel("127.0.0.1", server.port)
        try:
            with pytest.raises(DeadlineExceededError):
                channel.request(b"first", timeout=0.2)
            stalled.set()
            assert channel.request(b"second") == b"echo:second"
            assert channel.in_flight == 0
        finally:
            stalled.set()
            channel.close()
            server.join()

    def test_connection_closed_by_peer_reconnects_without_retry(self):
        """The server answers one call per connection, then closes it:
        each next call (no retry layer) goes out on a fresh connection."""
        closed = threading.Event()

        def script(server):
            for index in range(2):
                conn = server.accept()
                with conn:
                    corr_id, request = read_frame_corr(conn)
                    write_frame_corr(conn, corr_id, b"echo:" + bytes(request))
                    conn.shutdown(socket.SHUT_RDWR)
                closed.set()

        server = _RawPipelinedServer(script)
        channel = PipelinedTcpChannel("127.0.0.1", server.port)
        try:
            assert channel.request(b"one") == b"echo:one"
            assert closed.wait(5.0)
            first = channel._sock
            ready, _, _ = select.select([first], [], [], 5.0)
            assert ready  # the peer's FIN has landed
            assert channel.request(b"two") == b"echo:two"
            assert channel._sock is not first
        finally:
            channel.close()
            server.join()


class TestSimulatedChannel:
    def test_accounts_transfer_time(self):
        model = NetworkModel(
            bandwidth_bits_per_s=8_000, latency_s=0.5, protocol_overhead_bytes=0
        )
        channel = SimulatedChannel(InProcChannel(echo_handler), model)
        channel.request(b"x" * 1000)  # 1000 bytes up, 1005 down
        # Each direction: 0.5 latency + bytes*8/8000 = 0.5 + bytes/1000.
        expected = (0.5 + 1.0) + (0.5 + 1.005)
        assert channel.simulated_seconds == pytest.approx(expected)

    def test_loopback_model_costs_nothing(self):
        channel = SimulatedChannel(InProcChannel(echo_handler), LOOPBACK_MODEL)
        channel.request(b"payload")
        assert channel.simulated_seconds == 0.0

    def test_reset_account(self):
        channel = SimulatedChannel(InProcChannel(echo_handler), NetworkModel())
        channel.request(b"x")
        assert channel.simulated_seconds > 0
        channel.reset_account()
        assert channel.simulated_seconds == 0.0

    def test_accumulates_across_requests(self):
        model = NetworkModel(latency_s=0.1, bandwidth_bits_per_s=float("inf"),
                             protocol_overhead_bytes=0)
        channel = SimulatedChannel(InProcChannel(echo_handler), model)
        channel.request(b"a")
        channel.request(b"b")
        assert channel.simulated_seconds == pytest.approx(0.4)

    def test_payload_passes_through(self):
        channel = SimulatedChannel(InProcChannel(echo_handler), NetworkModel())
        assert channel.request(b"data") == b"echo:data"


class TestResolver:
    def test_inproc_registration_and_resolve(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        assert address == "inproc://svc"
        assert resolver.resolve(address).request(b"q") == b"echo:q"

    def test_channel_cached(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        assert resolver.resolve(address) is resolver.resolve(address)

    def test_unknown_inproc_raises(self):
        with pytest.raises(TransportError):
            ChannelResolver().resolve("inproc://ghost")

    def test_unregister(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        resolver.unregister_inproc("svc")
        with pytest.raises(TransportError):
            resolver.resolve(address)

    def test_malformed_addresses(self):
        resolver = ChannelResolver()
        for bad in ("tcp://nohost", "tcp://host:notaport", "udp://x", "plain"):
            with pytest.raises(TransportError):
                resolver.resolve(bad)

    def test_wrapper_applied(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        resolver.set_wrapper(
            address, lambda inner: SimulatedChannel(inner, NetworkModel())
        )
        channel = resolver.resolve(address)
        assert isinstance(channel, SimulatedChannel)

    def test_wrapper_removal(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        resolver.set_wrapper(address, lambda inner: SimulatedChannel(inner, NetworkModel()))
        resolver.set_wrapper(address, None)
        assert isinstance(resolver.resolve(address), InProcChannel)

    def test_tcp_resolution(self):
        with TcpServer(echo_handler) as server:
            resolver = ChannelResolver()
            channel = resolver.resolve(server.address)
            try:
                assert channel.request(b"via-resolver") == b"echo:via-resolver"
            finally:
                resolver.close_all()

    def test_drop_closes_channel(self):
        resolver = ChannelResolver()
        address = resolver.register_inproc("svc", echo_handler)
        channel = resolver.resolve(address)
        resolver.drop(address)
        with pytest.raises(TransportError):
            channel.request(b"x")


class TestChannelStats:
    def test_record_and_reset(self):
        stats = ChannelStats()
        stats.record(sent=10, received=20)
        stats.record(sent=1, received=2)
        assert stats.snapshot() == {
            "requests": 2,
            "bytes_sent": 11,
            "bytes_received": 22,
        }
        stats.reset()
        assert stats.snapshot()["requests"] == 0


requires_af_unix = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="platform lacks AF_UNIX"
)


@requires_af_unix
class TestUds:
    def test_request_response_over_socket(self):
        with UdsServer(echo_handler) as server:
            channel = UdsChannel(server.path)
            try:
                assert channel.request(b"over-uds") == b"echo:over-uds"
            finally:
                channel.close()

    def test_address_property_and_unlink_on_stop(self):
        server = UdsServer(echo_handler)
        assert server.address == f"uds://{server.path}"
        assert os.path.exists(server.path)
        server.stop()
        assert not os.path.exists(server.path)

    def test_explicit_path_and_stale_socket_reclaimed(self, tmp_path):
        path = str(tmp_path / "ep.sock")
        with UdsServer(echo_handler, path=path) as server:
            assert server.path == path
        # A crashed predecessor leaves the file behind; binding again
        # must reclaim it rather than fail with EADDRINUSE.
        open(path, "w").close()
        with UdsServer(echo_handler, path=path) as server:
            channel = UdsChannel(server.path)
            try:
                assert channel.request(b"again") == b"echo:again"
            finally:
                channel.close()

    def test_connection_refused(self):
        channel = UdsChannel("/nonexistent/nrmi-test.sock")
        with pytest.raises(RetryableError):
            channel.request(b"x")

    def test_plain_and_pipelined_share_one_server(self):
        with UdsServer(echo_handler) as server:
            plain = UdsChannel(server.path)
            piped = PipelinedUdsChannel(server.path)
            try:
                assert plain.request(b"plain") == b"echo:plain"
                assert piped.request(b"piped") == b"echo:piped"
                assert plain.request(b"plain2") == b"echo:plain2"
            finally:
                plain.close()
                piped.close()

    def test_pipelined_concurrent_callers(self):
        with UdsServer(echo_handler) as server:
            channel = PipelinedUdsChannel(server.path)
            errors = []

            def worker(worker_id: int):
                for i in range(10):
                    expected = f"echo:{worker_id}-{i}".encode()
                    if channel.request(f"{worker_id}-{i}".encode()) != expected:
                        errors.append((worker_id, i))

            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            channel.close()
            assert errors == []


class TestUdsResolution:
    @requires_af_unix
    def test_resolver_parses_uds_addresses(self):
        with UdsServer(echo_handler) as server:
            resolver = ChannelResolver()
            try:
                plain = resolver.resolve(server.address)
                piped = resolver.resolve(server.address, pipelined=True)
                assert isinstance(plain, UdsChannel)
                assert isinstance(piped, PipelinedUdsChannel)
                assert plain.path == server.path
                assert resolver.resolve(server.address) is plain
                assert resolver.resolve(server.address, pipelined=True) is piped
                assert plain.request(b"via-resolver") == b"echo:via-resolver"
            finally:
                resolver.close_all()

    @requires_af_unix
    def test_malformed_uds_address_rejected(self):
        resolver = ChannelResolver()
        with pytest.raises(TransportError, match="malformed uds address"):
            resolver.resolve("uds://")

    def test_non_posix_platform_gets_clear_error(self, monkeypatch):
        """Without AF_UNIX the resolver must say so, not crash obscurely."""
        import repro.transport.uds as uds_mod

        monkeypatch.delattr(uds_mod.socket, "AF_UNIX", raising=False)
        resolver = ChannelResolver()
        with pytest.raises(TransportError, match="requires AF_UNIX"):
            resolver.resolve("uds:///tmp/never.sock")
