"""Shared machinery for byte-stream transports (TCP, Unix sockets).

Everything above the socket — the pooled client channel, the
multi-call-in-flight pipelined channel, and the server core — is
identical whether bytes travel over ``AF_INET`` or ``AF_UNIX``. This
module holds that machinery once; :mod:`repro.transport.tcp` and
:mod:`repro.transport.uds` supply only the endpoint-specific pieces: how
a listener is bound, how a client socket is opened, how the endpoint is
named in addresses and errors.

The server core is the **staged** design in
:mod:`repro.transport.netloop` (re-exported here as ``StreamServer``):
one selector-based net thread detects each connection's framing and
frames its requests, a bounded job queue feeds N worker threads, and
overload behaviour (BUSY shedding, in-flight caps, graceful
drain-then-force-close shutdown) is explicit policy.

The plain client channel keeps one connection and serializes requests
over it with a lock; the pipelined channel keeps many calls in flight on
one connection, demultiplexed by correlation id. It starts no thread:
the callers themselves take turns reading — whoever holds the reader
role hands every reply it frames to its caller and passes the role on
when its own reply arrives. Neither channel ever resends on
its own: a broken exchange surfaces as
:class:`~repro.errors.RetryableError` and only the retry layer
(:mod:`repro.transport.reliability`), which stamps a call ID the server
can deduplicate, may send the same request twice.
"""

from __future__ import annotations

import itertools
import select
import socket
import struct
import threading
import time
from typing import Dict, Optional

from repro.errors import DeadlineExceededError, RetryableError, TransportError
from repro.serde.schema import SchemaSession
from repro.transport.base import Channel
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    PIPELINE_PREAMBLE,
    read_frame,
    write_frame,
    write_frame_corr,
)
from repro.transport.netloop import StagedStreamServer as StreamServer
from repro.util.metrics import Gauge

__all__ = [
    "StreamServer",
    "StreamChannel",
    "PipelinedStreamChannel",
]

#: Pipelined frame head: u32 length, then u32 correlation id.
_PIPE_HEAD = struct.Struct(">II")

#: Bytes one reader ``recv`` asks for: a small reply arrives whole in one
#: call, and a large one streams through a fixed-size scratch buffer.
_READ_CHUNK = 64 * 1024

#: Non-consuming, non-blocking read: the idle-connection liveness probe.
_PEEK_FLAGS = socket.MSG_PEEK | getattr(socket, "MSG_DONTWAIT", 0)


def _wait_readable(sock, timeout: float) -> bool:
    """Whether *sock* has bytes, EOF or an error within *timeout* s."""
    if not hasattr(select, "poll"):  # pragma: no cover - platforms without poll
        return bool(select.select((sock,), (), (), timeout)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(timeout * 1000))  # ms; fractions round up


class StreamChannel(Channel):
    """Client channel over a single pooled stream connection.

    Subclasses implement :meth:`_open_socket` (dial the endpoint and
    apply per-socket options) and :meth:`_describe` (the endpoint as it
    should read in error messages).
    """

    def __init__(self, timeout: Optional[float] = 30.0) -> None:
        super().__init__()
        self._timeout = timeout
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        # Schema-cache negotiation state; reset whenever the pooled
        # connection drops so the next connection renegotiates from zero.
        self.schema_session = SchemaSession()

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        """A connected socket, or :class:`DeadlineExceededError` /
        :class:`RetryableError` describing why dialing failed."""
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError

    def _connect(self, timeout: Optional[float] = None) -> socket.socket:
        if self._sock is None:
            connect_timeout = timeout if timeout is not None else self._timeout
            sock = self._open_socket(connect_timeout)
            # Dialing may leave the connect timeout on the socket;
            # per-request deadlines are applied by the framing layer.
            sock.settimeout(self._timeout)
            self._sock = sock
        return self._sock

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One request/response exchange; *never* resends on failure.

        A broken pooled connection surfaces as
        :class:`~repro.errors.RetryableError` — the connection is dropped
        so the next attempt reconnects, but resending is the retry
        layer's decision (it attaches a call ID so the server can
        deduplicate). A blind resend here would silently run
        non-idempotent methods twice.
        """
        with self._lock:
            sock = self._connect(timeout)
            try:
                write_frame(sock, payload, timeout=timeout)
                response = read_frame(sock, timeout=timeout)
            except TransportError:
                self._drop_connection()
                raise
            finally:
                if timeout is not None and self._sock is not None:
                    # Restore the pooled connection's default timeout so a
                    # later deadline-free request does not inherit ours.
                    try:
                        self._sock.settimeout(self._timeout)
                    except OSError:
                        pass
            self.stats.record(sent=len(payload), received=len(response))
            return response

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            # The server's per-connection schema cache died with the
            # socket: forget ours too so nothing references stale ids.
            self.schema_session.reset()

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


class _PendingReply:
    """One in-flight call's rendezvous with whichever caller reads its
    reply (itself, when it holds the reader role)."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        #: Created only when the caller parks because someone else is
        #: reading; set when its reply or error lands, or when the reader
        #: role is passed to it.
        self.event: Optional[threading.Event] = None
        self.response: Optional[bytearray] = None
        self.error: Optional[Exception] = None


class PipelinedStreamChannel(Channel):
    """A stream channel keeping many calls in flight on one connection.

    Where :class:`StreamChannel` serializes callers behind a lock for the
    whole request/response exchange, this channel only serializes the
    *send*; replies are demultiplexed by the correlation id every frame
    carries. No thread of the channel's own reads them: after sending, a
    caller takes the **reader role** if nobody holds it (a non-blocking
    lock acquire), frames whatever arrives, hands each reply to its
    caller, and once its own reply is in passes the role to one caller
    still waiting. A lone caller thus reads its own reply with no thread
    hand-off, and concurrent callers still share one connection without
    head-of-line blocking — a sparse delta reply overtakes a bulky
    full-map reply still streaming out of the server.

    Deadlines: the reader waits no longer than its own call's remaining
    budget, and the bytes of a frame it has half read stay in the
    connection's buffer for the next reader, so a timed-out call never
    desynchronises the stream. Liveness: before a call goes out on an
    idle connection (nothing in flight) the channel probes it without
    blocking, and reconnects if the peer has closed it.

    Correlation ids are a transport concern and deliberately distinct
    from the RMI layer's at-most-once call IDs: they tag *frames* on one
    connection (every operation, PING and FIELD_GET included), while call
    IDs identify *calls* across connections and retries.

    Failure semantics match :class:`StreamChannel`: a broken connection
    fails every pending call with :class:`~repro.errors.RetryableError`
    and the next request reconnects; this channel never resends.

    Subclasses implement :meth:`_open_socket` / :meth:`_describe` as for
    :class:`StreamChannel`, plus *label* for gauge naming; a carrier that
    is not a kernel socket also overrides :meth:`_recv_into` and
    :meth:`_peer_closed`.
    """

    def __init__(self, label: str, timeout: Optional[float] = 30.0) -> None:
        super().__init__()
        self._timeout = timeout
        self._state_lock = threading.Lock()
        self._send_lock = threading.Lock()
        #: The reader role: held by the one caller currently reading
        #: replies off the connection on everyone's behalf.
        self._read_lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        #: Bytes read off ``_sock`` but not yet handed out as frames. Each
        #: connection gets a fresh buffer, so a partial frame of a dead
        #: connection never prefixes the next one.
        self._inbuf = bytearray()
        #: The reader's recv target (only the reader-role holder uses it).
        self._scratch = memoryview(bytearray(_READ_CHUNK))
        self._pending: Dict[int, _PendingReply] = {}
        self._corr = itertools.count(1)
        # Schema-cache negotiation state; reset whenever the shared
        # connection fails so the next connection renegotiates from zero.
        self._schema_session = SchemaSession()
        #: Peak number of simultaneously in-flight calls (observability).
        self.max_in_flight = 0
        #: Live gauge of calls currently awaiting replies.
        self.in_flight_gauge = Gauge(f"{label}.pipelined.in_flight")

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError

    def _recv_into(self, sock, view: memoryview, deadline: Optional[float]) -> int:
        """Read at least one byte of *sock* into *view* (0: the peer
        closed), waiting no later than the monotonic *deadline* (None: no
        bound); raises :class:`DeadlineExceededError` past it.

        The socket stays blocking — senders share it — so the deadline
        is a poll on the remaining budget, never a socket timeout.
        """
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not _wait_readable(sock, remaining):
                raise DeadlineExceededError("reply wait timed out")
        return sock.recv_into(view)

    def _peer_closed(self, sock) -> bool:
        """Non-blocking, non-consuming: has the peer closed *sock*?"""
        if not _wait_readable(sock, 0.0):
            return False  # nothing pending: open and idle
        try:
            return not sock.recv(1, _PEEK_FLAGS)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True

    @property
    def schema_session(self) -> SchemaSession:
        """The connection's schema-cache negotiation state.

        The invocation layer reads it just before it encodes a call, so
        this is where an idle connection the peer has closed is noticed:
        the session resets and the call is encoded for a fresh connection
        instead of referencing schema ids the dead one negotiated.
        """
        self._probe_idle()
        return self._schema_session

    def _probe_idle(self) -> None:
        """Drop the connection if nothing is in flight and the peer has
        closed it, so the next call reconnects instead of failing."""
        with self._state_lock:
            sock = self._sock
            if sock is None or self._pending or not self._peer_closed(sock):
                return
            self._sock = None
            self._schema_session.reset()
        sock.close()

    def _register(self, waiter: _PendingReply, timeout: Optional[float]):
        """Enter *waiter* under a fresh correlation id, connecting first
        if need be; returns ``(sock, inbuf, corr_id)``."""
        self._probe_idle()
        with self._state_lock:
            sock = self._sock
            if sock is None:
                sock = self._sock = self._connect(timeout)
                self._inbuf = bytearray()
            corr_id = next(self._corr) & 0xFFFFFFFF
            self._pending[corr_id] = waiter
            in_flight = len(self._pending)
            self.in_flight_gauge.set(in_flight)
            if in_flight > self.max_in_flight:
                self.max_in_flight = in_flight
            return sock, self._inbuf, corr_id

    def _connect(self, timeout: Optional[float]) -> socket.socket:
        """Dial and send the preamble; the caller, holding the state
        lock, installs the socket."""
        connect_timeout = timeout if timeout is not None else self._timeout
        sock = self._open_socket(connect_timeout)
        # Blocking, no socket timeout: senders and the reader share the
        # socket, so per-call deadlines are enforced by the reader's poll.
        sock.settimeout(None)
        try:
            sock.sendall(PIPELINE_PREAMBLE)
        except OSError as exc:
            try:
                sock.close()
            except OSError:
                pass
            raise RetryableError(f"pipeline handshake failed: {exc}") from exc
        return sock

    def _fail_connection(self, sock, exc: Exception) -> None:
        """Fail every call pending on *sock* and drop it. A no-op for the
        calls of a connection already replaced: they failed with it."""
        events = []
        with self._state_lock:
            if self._sock is sock:
                self._sock = None
                for waiter in self._pending.values():
                    waiter.error = RetryableError(f"pipelined connection lost: {exc}")
                    if waiter.event is not None:
                        events.append(waiter.event)
                self._pending.clear()
                self.in_flight_gauge.set(0)
                self._schema_session.reset()
        try:
            # Shut down before closing: that wakes a reader blocked in
            # poll or recv on this socket, which a bare close would not.
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
        for event in events:
            event.set()

    def request(self, payload: bytes, timeout: Optional[float] = None) -> bytes:
        """One call over the shared connection; safe to invoke from many
        threads concurrently. Never resends (see :class:`StreamChannel`)."""
        waiter = _PendingReply()
        sock, inbuf, corr_id = self._register(waiter, timeout)
        try:
            with self._send_lock:
                write_frame_corr(sock, corr_id, payload)
        except TransportError as exc:
            with self._state_lock:
                self._pending.pop(corr_id, None)
            self._fail_connection(sock, exc)
            raise
        budget = timeout if timeout is not None else self._timeout
        deadline = None if budget is None else time.monotonic() + budget
        try:
            response = self._await_reply(sock, inbuf, waiter, deadline)
        except DeadlineExceededError:
            with self._state_lock:
                if self._pending.pop(corr_id, None) is not None:
                    self.in_flight_gauge.set(len(self._pending))
            # A parked caller handed the reader role may be giving up
            # right here: pass the role on, or nobody reads.
            self._pass_read_role()
            raise DeadlineExceededError(
                f"no reply from {self._describe()} within {budget}s"
            ) from None
        self.stats.record(sent=len(payload), received=len(response))
        return response

    def _await_reply(self, sock, inbuf: bytearray, waiter: _PendingReply, deadline):
        """Read replies as the reader, or park until the reader hands
        over this call's reply or the reader role itself."""
        event = None
        while True:
            if event is not None:
                event.clear()
            if waiter.response is not None:
                return waiter.response
            if waiter.error is not None:
                raise waiter.error
            if self._read_lock.acquire(blocking=False):
                try:
                    self._read_replies(sock, inbuf, waiter, deadline)
                finally:
                    self._read_lock.release()
                    self._pass_read_role()
            elif event is None:
                # Somebody else reads. Create the event where a departing
                # reader will look for it, then try the role once more
                # before parking — the reader may have left meanwhile.
                with self._state_lock:
                    if waiter.response is None and waiter.error is None:
                        event = waiter.event = threading.Event()
            elif not event.wait(
                None if deadline is None else deadline - time.monotonic()
            ):
                raise DeadlineExceededError("reply wait timed out")

    def _read_replies(self, sock, inbuf: bytearray, waiter: _PendingReply, deadline) -> None:
        """The reader role: frame replies off *sock*, hand each to its
        caller, and return once *waiter* has its own (or the connection
        failed). A frame cut off by the deadline stays in *inbuf*."""
        view = self._scratch
        while True:
            try:
                self._hand_out(inbuf)
                if waiter.response is not None or waiter.error is not None:
                    return
                received = self._recv_into(sock, view, deadline)
            except DeadlineExceededError:
                raise
            except (OSError, TransportError) as exc:
                self._fail_connection(sock, exc)
                return
            if not received:
                self._fail_connection(sock, RetryableError("connection closed by peer"))
                return
            inbuf += view[:received]

    def _hand_out(self, inbuf: bytearray) -> None:
        """Hand every complete frame in *inbuf* to its waiting caller."""
        head = _PIPE_HEAD.size
        while len(inbuf) >= head:
            length, corr_id = _PIPE_HEAD.unpack_from(inbuf)
            if length > MAX_FRAME_BYTES:
                raise TransportError(f"peer announced oversized frame: {length} bytes")
            end = head + length
            if len(inbuf) < end:
                return
            frame = inbuf[head:end]
            del inbuf[:end]
            with self._state_lock:
                waiter = self._pending.pop(corr_id, None)
                if waiter is None:
                    # Its caller timed out and abandoned the wait: drop it.
                    continue
                self.in_flight_gauge.set(len(self._pending))
                waiter.response = frame
                event = waiter.event
            if event is not None:
                event.set()

    def _pass_read_role(self) -> None:
        """Wake one parked caller to take over reading, unless somebody
        already reads. A caller that parks later re-tries the role itself
        after creating its event, so no wake-up is lost."""
        if not self._pending or self._read_lock.locked():
            return
        with self._state_lock:
            for waiter in self._pending.values():
                if waiter.event is not None:
                    waiter.event.set()
                    return

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return len(self._pending)

    def close(self) -> None:
        with self._state_lock:
            sock = self._sock
        if sock is not None:
            # Fails whatever is still pending, waking a blocked reader.
            self._fail_connection(sock, RetryableError("channel closed"))
