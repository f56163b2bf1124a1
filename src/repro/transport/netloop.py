"""The staged event-loop server core: net loop → bounded queue → workers.

One selector-driven **net thread** owns every read: it accepts
connections, reads bytes without blocking, assembles frames (plain and
pipelined framing auto-detected per connection), and submits them.

A frame that is the loop's only ready work — the only frame a round of
events (or of the linger poll) yields, on the only open connection,
from a peer that has never sent a frame while one of its calls ran
inline, with nothing parked, queued or executing — runs **inline**: the net
thread executes it itself and writes the reply as a worker would, so a
short call wakes one server thread instead of two. The budget is
enforced, not predicted: while inline calls happen one idle worker is
the watchdog, waiting on the queue with a timeout of
``sys.getswitchinterval()`` instead of forever; a call still running at
its tick is handed over — that worker takes over the net loop, and the
relieved thread joins the pool once its handler returns.

Everything else executes on N **worker threads** that block on a
bounded job queue. On a socket
connection the worker then writes its own reply — one gather
``sendmsg`` under the connection's write lock — unless output is
already queued there, in which case the reply joins the queue through
the net thread (the Queueing rule: a worker finishes processing *and
sending* a reply before it takes the next job). Either way the worker
posts a completion record, which keeps in-flight accounting and drain
on the net thread, but it rings the wake pipe only when the net thread
has to act on that record: queued frames or parked connections waiting
for capacity, a reply (or its unsent tail) left for the net thread to
write, or a drain in progress. Doorbell (shm) connections keep the
original path: every reply, inline or not, is written by the thread
that owns the loop, so each ring keeps exactly one producer.

At rest nothing busy-polls: the net thread blocks in ``select`` and
workers block in the queue's condition variable (the Queueing design —
one net thread, bounded workers, blocking waits); the watchdog parks
after a tick with no inline start. The one bounded
exception is doorbell connections: after traffic the net thread
*linger-polls* their rings for a short window — clearing the
consumer-waiting flag so active clients skip the doorbell syscall
entirely — and re-parks in ``select`` once the window passes quiet.

Overload behaviour is explicit policy, not an accident of threading:

* **bounded queue** — at most ``queue_capacity`` requests wait for a
  worker. Under ``overload_policy="shed"`` a request arriving at a full
  queue is answered immediately with the two-byte BUSY frame — the
  payload is never deserialized, so shedding stays O(1) however large
  the rejected call was. Under ``"block"`` the frame waits at its
  connection and the net thread stops *reading* that connection once its
  backlog fills, pushing backpressure into the kernel socket buffers.
* **per-connection in-flight cap** — a pipelined client may keep at most
  ``max_inflight_per_conn`` calls executing; beyond that its frames
  queue locally and reads pause, so one aggressive client cannot occupy
  every worker.
* **graceful drain** — ``stop(grace)`` closes the listener, stops
  reading, answers already-parsed-but-unsubmitted frames with BUSY, and
  lets queued/executing work finish and flush within the grace budget;
  at the deadline the remainder is rejected with BUSY and connections
  are force-closed. The drain outcome is deterministic: every accepted
  connection ends with a reply, a BUSY, or a clean close.
* **partial-frame deadline** — a connection sitting on an incomplete
  frame (slow-loris) longer than ``partial_read_timeout`` is reaped.

The BUSY frame is the one protocol byte this layer emits itself
(:func:`repro.rmi.protocol.busy_response` — status ``BUSY`` + reason),
the transport-level analogue of an HTTP 503 sent by the listener.

Net-thread discipline: every method reachable from the ``select`` loop
must be non-blocking — no handler execution, no ``time.sleep``, no
blocking frame reads, no blocking queue waits. ``nrmi-lint`` rule
NRMI034 enforces this statically. The one exception is the handler call
of an inline run (:meth:`StagedStreamServer._run_inline`), whose budget
the watchdog takeover enforces; it carries the rule's only suppression.
The locks the net thread shares with workers — a connection's write
lock and the job queue's — are held only around non-blocking work.
"""

from __future__ import annotations

import collections
import itertools
import selectors
import socket
import struct
import sys
import threading
import time
from typing import Deque, Dict, Optional, Tuple

from repro.errors import ServerBusyError, TransportError
from repro.rmi.protocol import busy_response
from repro.transport.base import (
    RequestHandler,
    TransportSession,
    call_handler,
)
from repro.transport.framing import (
    MAX_FRAME_BYTES,
    PIPELINE_MAGIC,
    PIPELINE_VERSION,
)
from repro.util.metrics import MetricsRegistry
from repro.util.ring import yield_cpu as _yield_cpu

_LEN = struct.Struct(">I")
_HEADER_SIZE = _LEN.size
#: Pipelined reply head: u32 length, then u32 correlation id.
_CORR_HEAD = struct.Struct(">II")

#: Most queued segments one gather ``sendmsg`` carries (well under any
#: platform's IOV_MAX).
_SEND_BATCH = 64

#: Bytes pulled off a readable socket per event — large enough to drain a
#: pipelined burst in few syscalls, small enough to bound per-event work.
_RECV_CHUNK = 256 * 1024

_BUSY_QUEUE_FULL = busy_response(ServerBusyError.QUEUE_FULL)
_BUSY_DRAINING = busy_response(ServerBusyError.DRAINING)

#: Selector-key sentinels for the two non-connection file objects.
_LISTENER = object()
_WAKER = object()


def _take_payload(buf: bytearray, start: int, end: int) -> bytes:
    """Cut ``buf[start:end]`` out as ``bytes`` and drop ``buf[:end]``.

    One copy: the slice is taken through a view, which is released
    before the buffer shrinks (a resize with a live export raises).
    """
    with memoryview(buf) as view:
        payload = bytes(view[start:end])
    del buf[:end]
    return payload


class _FramingViolation(Exception):
    """Peer sent bytes no framing accepts (oversized length, bad magic)."""


class _Connection:
    """Per-connection state, owned by the net thread except for the
    write side of socket connections.

    Workers write replies to socket connections themselves, so the
    socket and its output queue (``sock``, ``out``) are shared there:
    every send, every touch of ``out`` and the close of ``sock`` happen
    under ``write_lock`` — closing under it means no worker can write to
    the fd once it is closed (nor to a new connection reusing its
    number). ``out_offset`` is the net thread's alone (a worker only
    ever queues onto an empty ``out``). Doorbell (shm) connections never
    see a worker write and take no lock. Every other field is read and
    written only on the net thread.
    """

    __slots__ = (
        "sock",
        "fd",
        "session",
        "framing",
        "inbuf",
        "backlog",
        "inflight",
        "out",
        "out_offset",
        "write_lock",
        "registered",
        "closed",
        "last_progress",
        "doorbell",
        "hot_until",
        "overlapped",
    )

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.write_lock = threading.Lock()
        #: Duplexes that signal write space via doorbell *reads* (shm).
        self.doorbell = bool(getattr(sock, "doorbell_interest", False))
        #: Monotonic deadline of this connection's linger-poll window
        #: (doorbell duplexes only; 0.0 = not currently hot).
        self.hot_until = 0.0
        #: The peer sent a frame while one of its calls ran inline: it
        #: overlaps its calls, so none of them runs inline again.
        self.overlapped = False
        # Schema rx cache etc.: dies with the socket, shared by every
        # worker executing this connection's frames (thread-safe inside).
        self.session = TransportSession()
        self.framing: Optional[str] = None  # None until auto-detected
        self.inbuf = bytearray()
        #: Parsed frames not yet submitted: (corr_id or None, payload).
        self.backlog: Deque[Tuple[Optional[int], bytes]] = collections.deque()
        #: Frames submitted to the queue / executing, reply not yet queued.
        self.inflight = 0
        #: Outbound byte segments awaiting write, FIFO (under
        #: ``write_lock`` on socket connections).
        self.out: Deque[memoryview] = collections.deque()
        self.out_offset = 0
        #: Current selector interest mask (0 = not registered).
        self.registered = 0
        self.closed = False
        self.last_progress = now


#: What :meth:`_BoundedJobQueue.pop` hands the watching worker whose
#: inline call outlived its budget: run the net loop from now on.
_TAKEOVER = ("takeover",)


class _BoundedJobQueue:
    """The stage boundary: net thread pushes without blocking, workers
    block to pop. Capacity is the overload-policy knob, not a guess.

    It also keeps the books of the net thread's *inline* calls (a lone
    request the net thread executes itself): :meth:`begin_inline` and
    :meth:`end_inline` bracket one, and while they happen one idle worker
    is the watchdog — it waits with a timeout of one switch interval
    instead of forever, and a call still running at its next tick is
    handed over (:data:`_TAKEOVER`). Both sides take this queue's lock, so
    no inline call runs unwatched and a takeover is decided exactly once.
    """

    def __init__(self, capacity: int, depth_gauge, active_gauge) -> None:
        self._capacity = capacity
        self._items: Deque[tuple] = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._active = 0
        #: An inline call is executing on the loop owner.
        self._inline = False
        #: Inline calls begun so far: the watchdog tells calls apart by it.
        self._inline_seq = 0
        #: Inline calls happened since the watchdog last parked: some
        #: worker is, or is about to be, the watchdog.
        self._watch = False
        #: A worker holds the watchdog role.
        self._watching = False
        self._depth_gauge = depth_gauge
        self._active_gauge = active_gauge

    def try_push(self, job: tuple) -> bool:
        """Admit *job* unless the queue is full or closed; never blocks."""
        with self._lock:
            if self._closed or len(self._items) >= self._capacity:
                return False
            self._items.append(job)
            self._depth_gauge.set(len(self._items))
            self._not_empty.notify()
            return True

    def pop(self) -> Optional[tuple]:
        """Blocking take for workers: a job, :data:`_TAKEOVER`, or None
        once closed and empty."""
        with self._not_empty:
            while not self._items and not self._closed:
                if not self._watch or self._watching:
                    self._not_empty.wait()
                    continue
                # Watchdog duty: tick every switch interval — the bound
                # CPython already puts on any thread holding the GIL —
                # while inline calls keep starting; park after a quiet
                # tick. One call running across a whole tick becomes an
                # executing job, and this worker takes the loop over.
                self._watching = True
                seen = self._inline_seq
                while not self._items and not self._closed:
                    self._not_empty.wait(sys.getswitchinterval())
                    if self._inline_seq != seen:
                        seen = self._inline_seq
                        continue
                    if self._inline:
                        self._inline = False
                        self._active += 1
                        self._active_gauge.set(self._active)
                        self._watching = self._watch = False
                        return _TAKEOVER
                    break
                # However the watch ends, the next inline start re-arms it.
                self._watching = self._watch = False
            if not self._items:
                return None
            job = self._items.popleft()
            self._active += 1
            self._depth_gauge.set(len(self._items))
            self._active_gauge.set(self._active)
            return job

    def idle(self) -> bool:
        """Nothing queued and no worker executing (inline eligibility)."""
        with self._lock:
            return not self._items and not self._active and not self._closed

    def begin_inline(self) -> None:
        """The loop owner starts executing a job itself; arms the
        watchdog with one ``notify`` when it is parked."""
        with self._lock:
            self._inline = True
            self._inline_seq += 1
            if not self._watch:
                self._watch = True
                self._not_empty.notify()

    def end_inline(self) -> bool:
        """The inline call returned. True when its thread still owns the
        loop; False when the watchdog took the loop over meanwhile — the
        call is then an executing job the caller finishes as a worker
        does (:meth:`task_done` included)."""
        with self._lock:
            if self._inline:
                self._inline = False
                return True
            return False

    def task_done(self) -> None:
        with self._lock:
            self._active -= 1
            self._active_gauge.set(self._active)

    def drain(self) -> list:
        """Remove and return every not-yet-started job (drain rejection)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._depth_gauge.set(0)
            return items

    def close(self) -> None:
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def outstanding(self) -> int:
        """Jobs queued plus jobs executing, inline call included
        (drain-completion condition)."""
        with self._lock:
            return len(self._items) + self._active + self._inline

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class StagedStreamServer:
    """Serves a request handler over a stream socket until stopped.

    Subclasses pass an already-bound, listening socket plus a *label*
    used for thread naming, and implement :attr:`address` (the string a
    resolver can dial) plus optionally :meth:`_configure_connection`
    (per-accepted-socket options) and :meth:`_on_stop` (endpoint
    cleanup, e.g. unlinking a Unix socket path — called only after the
    listener and net thread are fully down, so a successor reclaiming
    the endpoint can never be unlinked by a late stop).
    """

    #: Default seconds ``stop()`` lets in-flight work drain.
    STOP_GRACE_SECONDS = 2.0
    #: Default worker threads executing requests.
    DEFAULT_WORKERS = 8
    #: Default bounded job-queue capacity (requests awaiting a worker).
    DEFAULT_QUEUE_CAPACITY = 64
    #: Default cap on frames admitted but not yet answered per connection.
    DEFAULT_MAX_INFLIGHT_PER_CONN = 64
    #: Default seconds a partial frame may sit before the conn is reaped.
    DEFAULT_PARTIAL_READ_TIMEOUT = 30.0
    #: Seconds a doorbell (shm) connection stays in the linger poll after
    #: its last traffic. Long enough to cover a sequential caller's
    #: think-time between round trips, short enough that an idle
    #: connection is back to costing zero CPU within a few milliseconds.
    DOORBELL_LINGER_SECONDS = 0.002
    #: Linger-poll rounds between selector services: bounds how long an
    #: accept or doorbell EOF can wait behind ring polling.
    POLL_ROUNDS = 32
    #: Longest the net thread sleeps in ``select`` while any doorbell
    #: connection exists. The doorbell handshake (peer publishes, then
    #: loads our waiting flag; we set the flag, then re-check the ring)
    #: is a store→load pattern pure Python cannot fence — cross-process
    #: on a weakly-ordered CPU the two sides can cross and the wakeup
    #: byte is never sent. Waking on this bound and re-checking the
    #: rings (:meth:`_doorbell_backstop`) turns that lost wakeup into a
    #: bounded latency blip; a few wakeups per second of pure-memory
    #: probes keeps idle CPU effectively zero.
    DOORBELL_BACKSTOP_SECONDS = 0.25

    OVERLOAD_POLICIES = ("shed", "block")

    def __init__(
        self,
        handler: RequestHandler,
        sock: socket.socket,
        label: str,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        max_inflight_per_conn: int = DEFAULT_MAX_INFLIGHT_PER_CONN,
        overload_policy: str = "shed",
        partial_read_timeout: Optional[float] = DEFAULT_PARTIAL_READ_TIMEOUT,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_inflight_per_conn < 1:
            raise ValueError(
                f"max_inflight_per_conn must be >= 1, got {max_inflight_per_conn}"
            )
        if overload_policy not in self.OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {self.OVERLOAD_POLICIES}, "
                f"got {overload_policy!r}"
            )
        self._handler = handler
        self._sock = sock
        self._label = label
        self._max_inflight = max_inflight_per_conn
        self._overload_policy = overload_policy
        self._partial_read_timeout = partial_read_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._shed_counter = self.metrics.counter("server.shed.queue_full")
        self._drain_shed_counter = self.metrics.counter("server.shed.draining")
        self._jobs_counter = self.metrics.counter("server.jobs.submitted")
        self._completed_counter = self.metrics.counter("server.jobs.completed")
        self._inline_counter = self.metrics.counter("server.jobs.inline")
        self._takeover_counter = self.metrics.counter("server.inline.takeovers")

        self._jobs = _BoundedJobQueue(
            queue_capacity,
            self.metrics.gauge("server.queue_depth"),
            self.metrics.gauge("server.workers.active"),
        )
        #: Finished work travelling worker → net thread: (conn, corr_id,
        #: response bytes, handler_failed, written) — *written* when the
        #: worker already sent the reply (or queued its unsent tail on
        #: ``conn.out``). Plain deque — append/popleft are atomic, no
        #: lock needed.
        self._completions: Deque[tuple] = collections.deque()

        self._conns: Dict[int, _Connection] = {}
        #: Every live doorbell connection, by fd (backstop re-check set).
        self._doorbells: Dict[int, _Connection] = {}
        #: Doorbell connections currently in the linger poll, by fd.
        self._hot: Dict[int, _Connection] = {}
        #: True while the net thread is polling instead of blocking in
        #: ``select`` — workers skip the waker syscall when set (the
        #: loop drains completions every iteration anyway).
        self._net_polling = False
        #: Connections whose head frame met a full queue under the
        #: "block" policy; re-pumped when completions free queue space.
        self._parked: set = set()
        #: True while the loop reads a round's events (or polls its hot
        #: rings) with nothing parked, until the round's first frame is
        #: stashed: that frame may run inline (:meth:`_admit`).
        self._solo = False
        #: The round's lone frame, stashed for :meth:`_run_inline`.
        self._inline_job: Optional[tuple] = None
        self._stopping = threading.Event()
        self._force_stop = threading.Event()
        self._drained = threading.Event()
        self._draining = False
        self._stop_lock = threading.Lock()
        self._stop_called = False

        sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ, _LISTENER)
        self._wake_rx, self._wake_tx = socket.socketpair()
        self._wake_rx.setblocking(False)
        self._wake_tx.setblocking(False)
        self._selector.register(self._wake_rx, selectors.EVENT_READ, _WAKER)

        def serve(owns_loop: bool) -> None:
            # A thread switches role only at a takeover: the watchdog
            # worker becomes the net thread, and the net thread it
            # relieved becomes a worker once its inline call returns.
            while self._net_loop() if owns_loop else self._worker_loop():
                owns_loop = not owns_loop

        self._threads = [
            threading.Thread(
                target=serve,
                args=(False,),
                name=f"{label}-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        self._threads.append(
            threading.Thread(
                target=serve, args=(True,), name=f"{label}-net", daemon=True
            )
        )
        for thread in self._threads:
            thread.start()

    # --------------------------------------------------- subclass surface

    @property
    def address(self) -> str:
        raise NotImplementedError

    def _configure_connection(self, conn: socket.socket) -> None:
        """Per-connection socket options (e.g. TCP_NODELAY); default none."""

    def _wrap_accepted(self, conn: socket.socket):
        """Turn a freshly accepted socket into the connection's duplex.

        The default serves the socket itself; a non-socket carrier (the
        shm transport) overrides this to run its handshake and return a
        socket-shaped duplex instead. Must not block: it runs on the net
        thread. Raise ``OSError`` to reject the connection.
        """
        self._configure_connection(conn)
        conn.setblocking(False)
        return conn

    def _on_stop(self) -> None:
        """Endpoint cleanup after the listener closes; default none."""

    @property
    def live_connections(self) -> int:
        """Connections currently being served (reaped handles excluded)."""
        return len(self._conns)

    # ------------------------------------------------------- worker stage

    def _worker_loop(self) -> bool:
        """Execute queued jobs until the queue closes (False), or until
        this worker, as the inline watchdog, takes the net loop over
        (True)."""
        jobs = self._jobs
        handler = self._handler
        while True:
            job = jobs.pop()
            if job is None:
                return False
            if job is _TAKEOVER:
                self._takeover_counter.add()
                return True
            conn, corr_id, payload = job
            try:
                response = call_handler(handler, payload, conn.session)
                failed = False
            except Exception:  # noqa: BLE001 - handler must not kill server
                # The RMI dispatcher encodes application errors itself;
                # anything escaping to here is a protocol bug, and the
                # only safe move is dropping the connection.
                response, failed = b"", True
            self._finish_job(conn, corr_id, response, failed)

    def _finish_job(self, conn: _Connection, corr_id, response, failed) -> None:
        """Deliver a finished job off the loop: a worker's, or an inline
        call whose thread lost the loop to a takeover meanwhile."""
        # Counted before the reply can leave: a caller holding its
        # reply must find the job counted.
        self._completed_counter.add()
        # Either way the completion is published BEFORE task_done: the
        # net thread's drain condition is "outstanding == 0 and no
        # completions pending" — the other order could close a
        # connection under a reply that was finished but not yet
        # visible.
        if failed or conn.doorbell:
            self._completions.append((conn, corr_id, response, failed, False))
            wake = True
        else:
            wake = self._send_reply(conn, corr_id, response)
        self._jobs.task_done()
        # The record is posted before this test, so a backlog or a
        # parked connection the test misses was queued after it: the
        # net thread drains completions after every round of events.
        if (
            wake
            or conn.backlog  # frames waiting for this in-flight slot
            or self._parked  # connections waiting for queue space
            or self._stopping.is_set()  # drain counts completions
        ):
            self._wake()

    def _send_reply(self, connection: _Connection, corr_id, payload) -> bool:
        """Worker side of a socket connection: post the completion and
        send the reply frame with one gather ``sendmsg``.

        Returns True when the net thread must act on the completion now:
        a tail the kernel did not take (queued on ``connection.out``), or
        a reply it must write itself — output already queued (the reply
        must not overtake it) or an oversized reply.
        """
        length = len(payload)
        if corr_id is None:
            header = _LEN.pack(length)
        else:
            header = _CORR_HEAD.pack(length, corr_id & 0xFFFFFFFF)
        with connection.write_lock:
            writable = not connection.out and length <= MAX_FRAME_BYTES
            # Posted before the reply can reach the peer, so its next
            # request finds this one's in-flight slot already free and
            # the net thread need not be woken to free it. The write lock
            # keeps the next reply behind this one all the same.
            self._completions.append((connection, corr_id, payload, False, writable))
            if not writable:
                return True
            try:
                sent = connection.sock.sendmsg((header, payload))
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                return False  # broken or closed: the net thread's read sees it
            if sent == len(header) + length:
                return False
            for segment in (header, payload):
                size = len(segment)
                if sent >= size:
                    sent -= size
                    continue
                connection.out.append(memoryview(segment)[sent:])
                sent = 0
            return True

    def _wake(self) -> None:
        if self._net_polling:
            # The net thread is linger-polling, not parked in ``select``;
            # it drains completions every loop iteration, so the waker
            # byte would be a wasted syscall. The loop clears the flag
            # *before* its post-poll completion drain, and the GIL orders
            # that store against this read: a worker that saw the flag
            # set appended its completion before the drain that follows.
            return
        try:
            self._wake_tx.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full or closed: a wakeup is already pending / moot

    # ---------------------------------------------------------- net stage

    def _net_loop(self) -> bool:
        """Own the event loop until the server stops (False), or until
        the watchdog takes it over while this thread runs an inline call
        (True: this thread is a worker from then on)."""
        handed_off = False
        try:
            handed_off = self._run_loop()
        finally:
            if not handed_off:
                self._shutdown_loop()
        return handed_off

    def _run_loop(self) -> bool:
        # A takeover starts here, on the state the last owner left when
        # its inline call began. The selector is level-triggered, so any
        # events it had not handled come back on the next ``select``;
        # frames it had already parsed are no longer in the kernel, so
        # every backlog is pumped now.
        self._net_polling = False  # nrmi: disable=NRMI041 -- the relieved owner may have left it set mid-poll; clearing it only makes the next worker wake send its byte
        for connection in list(self._conns.values()):
            if connection.backlog:
                self._pump_conn(connection)
        while not self._force_stop.is_set():
            if self._stopping.is_set() and not self._draining:
                self._begin_drain()
            if self._draining and self._drain_complete():
                break
            events = self._selector.select(self._select_timeout())
            # Completions first: workers usually post theirs without
            # a wake, and the next request of a plain connection must
            # find the previous one's in-flight slot already free.
            self._drain_completions()
            self._solo = not self._parked
            for key, mask in events:
                if key.data is _LISTENER:
                    self._handle_accept()
                elif key.data is _WAKER:
                    self._drain_waker()
                else:
                    connection = key.data
                    if mask & selectors.EVENT_READ:
                        self._handle_read(connection)
                    if mask & selectors.EVENT_WRITE and not connection.closed:
                        self._handle_write(connection)
            self._solo = False
            if self._inline_job is not None and not self._run_inline():
                return True
            if self._doorbells:
                self._doorbell_backstop()
            if self._hot:
                # Amortize the selector service: many poll rounds per
                # ``select(0)``. Each round drains completions too, so
                # replies never wait on the outer loop; accepts and
                # doorbell EOFs wait at most POLL_ROUNDS yield-rounds.
                self._net_polling = True  # nrmi: disable=NRMI041 -- single boolean flag: workers only read it in _wake to skip the waker write, and a stale read merely costs one redundant doorbell byte (see the disarm-ordering comment below)
                for _ in range(self.POLL_ROUNDS):
                    self._solo = not self._parked
                    self._poll_hot()
                    self._solo = False
                    if self._inline_job is not None and not self._run_inline():
                        return True
                    self._drain_completions()
                    self._pump_parked()
                    if not self._hot:
                        break
            # Order matters: disarm waker suppression BEFORE the
            # completion drain, so any worker that skipped the waker
            # has its completion collected before ``select`` blocks.
            self._net_polling = bool(self._hot)
            self._drain_completions()
            self._pump_parked()
            if self._partial_read_timeout is not None:
                self._reap_stalled()
        return False

    def _admit(self, connection: _Connection, corr_id, payload, alone: bool) -> bool:
        """Take a parsed frame into execution, counted as submitted.

        A round's first frame, when its read yielded just this one
        (*alone*), its connection is the only one open and has never
        overlapped its calls, and nothing is queued or executing, is
        stashed for :meth:`_run_inline`; anything else is pushed to the
        job queue. Where another frame could arrive while the call runs —
        on a second connection, or from a peer that overlaps its calls —
        it would wait for the call, so that traffic keeps the worker
        hand-off. A second frame in the same round means the stash was
        not the only ready work after all: it goes to the queue first —
        which was idle, so it fits — and the new frame follows it. False
        when the queue is full; the caller applies the overload policy.
        """
        if self._inline_job is not None and self._jobs.try_push(self._inline_job):
            self._inline_job = None
        if (
            self._solo
            and alone
            and not connection.overlapped
            and len(self._conns) == 1
            and self._jobs.idle()
        ):
            # Only this thread pushes, so the queue stays idle until the
            # stash runs: begin_inline need not check again.
            self._solo = False
            self._inline_job = (connection, corr_id, payload)
        elif not self._jobs.try_push((connection, corr_id, payload)):
            return False
        connection.inflight += 1
        self._jobs_counter.add()
        return True

    def _run_inline(self) -> bool:
        """Execute the stashed lone frame on this thread, which read it:
        no queue hand-off and no worker wake.

        The handler may block. The watchdog (see
        :class:`_BoundedJobQueue`) bounds how long that can stall the
        other connections: a call still running at its tick is handed
        over, another thread runs the loop from then on, and this
        thread — touching no loop state after the handler returns —
        delivers the reply as a worker does and returns False.
        """
        connection, corr_id, payload = self._inline_job
        self._inline_job = None
        self._inline_counter.add()
        self._jobs.begin_inline()
        try:
            response = call_handler(self._handler, payload, connection.session)  # nrmi: disable=NRMI034 -- budget enforced by the watchdog takeover
            failed = False
        except Exception:  # noqa: BLE001 - handler must not kill server
            response, failed = b"", True
        if not self._jobs.end_inline():
            self._finish_job(connection, corr_id, response, failed)
            return False
        self._completed_counter.add()
        # Read before the reply leaves: bytes already here were sent
        # while the call ran, which a peer waiting for its reply cannot do.
        early = self._early_bytes(connection)
        if early is not None:
            connection.overlapped = True
        if failed or connection.doorbell:
            # Doorbell rings keep one producer: the loop writes the reply.
            self._completions.append((connection, corr_id, response, failed, False))
        else:
            self._send_reply(connection, corr_id, response)
        if early is not None:
            self._ingest(connection, early)
            if connection.doorbell and not connection.closed:
                self._mark_hot(connection)
        return True

    def _early_bytes(self, connection: _Connection) -> Optional[bytes]:
        """What a pipelined connection sent while its inline call ran, or
        None. Plain framing has one request in flight by protocol, and a
        read error or EOF stays for the next read to find."""
        if connection.framing != "pipelined":
            return None
        sock = connection.sock
        try:
            data = (sock.recv_ring if connection.doorbell else sock.recv)(_RECV_CHUNK)
        except OSError:  # BlockingIOError included: nothing was sent
            return None
        return data or None

    def _select_timeout(self) -> Optional[float]:
        """Block indefinitely when idle; tick only while a deadline is
        armed (drain in progress, a partial frame that may stall, or a
        doorbell connection whose wakeup byte could have been lost)."""
        if self._hot:
            return 0.0  # linger-polling doorbell rings: never block
        timeout: Optional[float] = None
        if self._draining:
            timeout = 0.05
        elif self._partial_read_timeout is not None and any(
            connection.inbuf for connection in self._conns.values()
        ):
            timeout = min(0.1, self._partial_read_timeout)
        if self._doorbells:
            backstop = self.DOORBELL_BACKSTOP_SECONDS
            timeout = backstop if timeout is None else min(timeout, backstop)
        return timeout

    def _doorbell_backstop(self) -> None:
        """Re-check every parked doorbell ring (lost-wakeup safety net).

        A peer commit whose doorbell byte was elided by the store→load
        race (see :attr:`DOORBELL_BACKSTOP_SECONDS`) shows up here as a
        readable ring — or pending output whose space-freed wakeup went
        missing — and re-enters the linger poll, which reads/flushes it.
        Pure memory probes, no syscalls: safe on the net thread.
        """
        for connection in list(self._doorbells.values()):
            if connection.closed or connection.fd in self._hot:
                continue
            if connection.sock.poll_ready() or (
                # Pending output re-enters the poll only when the ring
                # can accept bytes — a stalled peer must not convert the
                # backstop into a busy-poll on its full ring.
                connection.out
                and connection.sock.poll_send_ready()
            ):
                self._mark_hot(connection)

    def _drain_waker(self) -> None:
        # A short read means the pipe is empty: stop without paying a
        # second syscall (and an exception) just to see EAGAIN.
        try:
            while len(self._wake_rx.recv(4096)) == 4096:
                pass
        except (BlockingIOError, OSError):
            pass

    def _handle_accept(self) -> None:
        while True:
            try:
                conn, _peer = self._sock.accept()
            except (BlockingIOError, OSError):
                return  # drained, or listener closed during shutdown
            if self._draining or self._stopping.is_set():
                # Drain starts by closing the listener, so this race
                # window is one already-queued accept: give it a clean
                # close instead of serving half a connection.
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            try:
                sock_like = self._wrap_accepted(conn)
            except OSError:
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            connection = _Connection(sock_like, time.monotonic())
            self._conns[connection.fd] = connection
            if connection.doorbell:
                self._doorbells[connection.fd] = connection
            self.metrics.counter("server.connections.accepted").add()
            self._update_interest(connection)

    def _handle_read(self, connection: _Connection) -> None:
        if connection.closed:
            return
        if connection.out and connection.doorbell:
            # The doorbell byte may mean "write space freed": flush the
            # pending output first, then fall through to read.
            self._flush_conn(connection)
            if connection.closed:
                return
        try:
            data = connection.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(connection)
            return
        self._ingest(connection, data)
        if connection.doorbell and not connection.closed:
            self._mark_hot(connection)

    def _ingest(self, connection: _Connection, data) -> None:
        """Feed freshly read bytes through framing into the backlog."""
        if not data:
            self._close_conn(connection)  # peer closed; replies are moot
            return
        connection.inbuf += data
        connection.last_progress = time.monotonic()
        try:
            self._parse_frames(connection)
        except _FramingViolation:
            self._close_conn(connection)
            return
        self._pump_conn(connection)

    # ------------------------------------------------- doorbell linger poll

    def _mark_hot(self, connection: _Connection) -> None:
        """(Re)open a doorbell connection's linger-poll window.

        While hot, the duplex's consumer-waiting flag stays clear, so
        the peer's request path is two ring writes and zero syscalls;
        the net thread polls the ring directly instead of sleeping in
        ``select`` waiting for a doorbell byte.
        """
        connection.hot_until = time.monotonic() + self.DOORBELL_LINGER_SECONDS
        if connection.fd not in self._hot:
            self._hot[connection.fd] = connection
            connection.sock.unpark_rx()

    def _poll_hot(self) -> None:
        """One poll round over hot connections; expire quiet ones.

        Yields the core when nothing is ready: on a loaded single core a
        tight poll would hold the GIL and starve the very peers and
        workers whose progress it is polling for.
        """
        now = time.monotonic()
        progressed = False
        for fd, connection in list(self._hot.items()):
            if connection.closed:
                self._hot.pop(fd, None)
                continue
            if connection.out:
                self._flush_conn(connection)
                if connection.closed:
                    self._hot.pop(fd, None)
                    continue
            if connection.sock.poll_ready():
                self._read_ring(connection)
                if connection.closed:
                    self._hot.pop(fd, None)
                    continue
                connection.hot_until = now + self.DOORBELL_LINGER_SECONDS
                progressed = True
            elif now >= connection.hot_until:
                if connection.sock.park_rx():
                    # Bytes slipped in while the flag went up: the peer
                    # may or may not have rung; poll once more either way.
                    connection.hot_until = now + self.DOORBELL_LINGER_SECONDS
                else:
                    connection.hot_until = 0.0
                    self._hot.pop(fd, None)
        if not progressed and self._hot:
            _yield_cpu()

    def _read_ring(self, connection: _Connection) -> None:
        """Ring-only read for the linger poll (no doorbell drain)."""
        try:
            data = connection.sock.recv_ring(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(connection)
            return
        self._ingest(connection, data)

    def _parse_frames(self, connection: _Connection) -> None:
        """Move complete frames from the byte buffer into the backlog.

        Framing auto-detect, incremental edition: a pipelined client
        opens with the 8-byte preamble; interpreted as a length header
        its first four bytes would announce an illegally oversized
        frame, so plain clients can never collide with it.
        """
        buf = connection.inbuf
        while True:
            if connection.framing is None:
                if len(buf) < _HEADER_SIZE:
                    return
                if bytes(buf[:_HEADER_SIZE]) == PIPELINE_MAGIC:
                    if len(buf) < 2 * _HEADER_SIZE:
                        return
                    if (
                        bytes(buf[_HEADER_SIZE : 2 * _HEADER_SIZE])
                        != PIPELINE_VERSION
                    ):
                        raise _FramingViolation("unknown pipeline revision")
                    del buf[: 2 * _HEADER_SIZE]
                    connection.framing = "pipelined"
                    continue
                connection.framing = "plain"
            if connection.framing == "plain":
                if len(buf) < _HEADER_SIZE:
                    return
                (length,) = _LEN.unpack_from(buf, 0)
                if length > MAX_FRAME_BYTES:
                    raise _FramingViolation("oversized frame announced")
                end = _HEADER_SIZE + length
                if len(buf) < end:
                    return
                payload = _take_payload(buf, _HEADER_SIZE, end)
                connection.backlog.append((None, payload))
            else:
                if len(buf) < 2 * _HEADER_SIZE:
                    return
                (length,) = _LEN.unpack_from(buf, 0)
                if length > MAX_FRAME_BYTES:
                    raise _FramingViolation("oversized frame announced")
                (corr_id,) = _LEN.unpack_from(buf, _HEADER_SIZE)
                end = 2 * _HEADER_SIZE + length
                if len(buf) < end:
                    return
                payload = _take_payload(buf, 2 * _HEADER_SIZE, end)
                connection.backlog.append((corr_id, payload))

    def _pump_conn(self, connection: _Connection) -> None:
        """Submit backlog frames within the caps; apply overload policy."""
        while connection.backlog and not connection.closed:
            if connection.inflight >= self._conn_inflight_cap(connection):
                break
            corr_id, payload = connection.backlog[0]
            if self._draining:
                connection.backlog.popleft()
                self._drain_shed_counter.add()
                self._queue_reply(connection, corr_id, _BUSY_DRAINING)
                continue
            if self._admit(
                connection, corr_id, payload, len(connection.backlog) == 1
            ):
                connection.backlog.popleft()
                continue
            if self._overload_policy == "shed":
                # Load shedding: the payload is never deserialized; the
                # two-byte BUSY frame is the entire cost of rejection.
                connection.backlog.popleft()
                self._shed_counter.add()
                self._queue_reply(connection, corr_id, _BUSY_QUEUE_FULL)
                continue
            # "block": park the frame; the next completion frees queue
            # space and re-pumps parked connections.
            self._parked.add(connection)
            break
        self._update_interest(connection)

    def _pump_parked(self) -> None:
        """Retry connections whose head frame was parked on a full queue."""
        if not self._parked:
            return
        for connection in list(self._parked):
            self._parked.discard(connection)
            if not connection.closed:
                self._pump_conn(connection)

    def _conn_inflight_cap(self, connection: _Connection) -> int:
        # Plain framing has no correlation ids: replies must leave in
        # request order, so at most one frame executes at a time (the
        # backlog preserves arrival order for the rest).
        if connection.framing == "plain":
            return 1
        return self._max_inflight

    def _drain_completions(self) -> None:
        while self._completions:
            connection, corr_id, response, failed, written = (
                self._completions.popleft()
            )
            connection.inflight -= 1
            if connection.closed:
                continue
            if failed:
                self._close_conn(connection)
                continue
            if not written:
                self._queue_reply(connection, corr_id, response)
            else:
                # The worker may still be sending: its lock says when it
                # is done, and whether it left a tail behind.
                with connection.write_lock:
                    tail = bool(connection.out)
                if tail:
                    self._flush_conn(connection)
            self._pump_conn(connection)

    def _queue_reply(self, connection: _Connection, corr_id, payload) -> None:
        if connection.closed:
            return
        length = len(payload)
        if length > MAX_FRAME_BYTES:
            self._close_conn(connection)
            return
        if corr_id is None:
            header = _LEN.pack(length)
        else:
            header = _CORR_HEAD.pack(length, corr_id & 0xFFFFFFFF)
        if connection.doorbell:
            # One segment, so the reply leaves as one ring record (when
            # the ring has the contiguous room) and rings the peer once.
            connection.out.append(memoryview(header + payload))
        else:
            segments = (
                (memoryview(header), memoryview(payload))
                if length
                else (memoryview(header),)
            )
            with connection.write_lock:
                connection.out.extend(segments)
        self._flush_conn(connection)

    def _handle_write(self, connection: _Connection) -> None:
        self._flush_conn(connection)

    def _flush_conn(self, connection: _Connection) -> None:
        if connection.doorbell:
            broken = self._send_ring_out(connection)
        else:
            with connection.write_lock:
                broken = self._send_socket_out(connection)
        if broken:
            self._close_conn(connection)
            return
        self._update_interest(connection)

    def _send_ring_out(self, connection: _Connection) -> bool:
        """Write a doorbell connection's queued output, one ``send`` per
        segment; True when the duplex broke."""
        try:
            while connection.out:
                head = connection.out[0]
                offset = connection.out_offset
                sent = connection.sock.send(head[offset:] if offset else head)
                offset += sent
                if offset >= len(head):
                    connection.out.popleft()
                    connection.out_offset = 0
                else:
                    connection.out_offset = offset
        except (BlockingIOError, InterruptedError):
            pass  # ring full: the peer's doorbell byte finishes the job
        except OSError:
            return True
        return False

    def _send_socket_out(self, connection: _Connection) -> bool:
        """Write a socket connection's queued output as gather ``sendmsg``
        calls (caller holds ``write_lock``); True when the socket broke."""
        out = connection.out
        while out:
            segments = list(itertools.islice(out, _SEND_BATCH))
            offset = connection.out_offset
            if offset:
                segments[0] = segments[0][offset:]
            try:
                sent = connection.sock.sendmsg(segments)
            except (BlockingIOError, InterruptedError):
                return False  # kernel buffer full: EVENT_WRITE finishes
            except OSError:
                return True
            if not sent:
                return False
            sent += offset
            while out and sent >= len(out[0]):
                sent -= len(out.popleft())
            connection.out_offset = sent
        return False

    def _update_interest(self, connection: _Connection) -> None:
        if connection.closed:
            return
        mask = 0
        if (
            not self._draining
            and len(connection.backlog) < self._max_inflight
        ):
            mask |= selectors.EVENT_READ
        if connection.out:
            mask |= selectors.EVENT_WRITE
        if mask and connection.doorbell:
            # Doorbell duplexes signal *everything* — new data and freed
            # write space alike — as a readable doorbell byte, and their
            # fd is always writable, so EVENT_WRITE would spin the loop.
            mask = selectors.EVENT_READ
        if mask == connection.registered:
            return
        try:
            if connection.registered == 0:
                self._selector.register(connection.sock, mask, connection)
            elif mask == 0:
                self._selector.unregister(connection.sock)
            else:
                self._selector.modify(connection.sock, mask, connection)
        except (KeyError, ValueError, OSError):
            self._close_conn(connection)
            return
        connection.registered = mask

    def _close_conn(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        if connection.registered:
            try:
                self._selector.unregister(connection.sock)
            except (KeyError, ValueError, OSError):
                pass
            connection.registered = 0
        if connection.doorbell:
            self._close_sock(connection)
        else:
            # Under the write lock: a worker mid-send finishes first, and
            # every later worker send fails on the closed socket object
            # instead of reaching whatever reuses the fd number.
            with connection.write_lock:
                self._close_sock(connection)
        self._parked.discard(connection)
        self._conns.pop(connection.fd, None)
        self._doorbells.pop(connection.fd, None)
        self._hot.pop(connection.fd, None)

    @staticmethod
    def _close_sock(connection: _Connection) -> None:
        try:
            connection.sock.close()
        except OSError:
            pass

    def _reap_stalled(self) -> None:
        deadline = self._partial_read_timeout
        now = time.monotonic()
        stalled = [
            connection
            for connection in self._conns.values()
            if connection.inbuf and now - connection.last_progress > deadline
        ]
        for connection in stalled:
            self.metrics.counter("server.connections.reaped_stalled").add()
            self._close_conn(connection)

    # ------------------------------------------------------ drain machine

    def _begin_drain(self) -> None:
        """Drain step 1: stop accepting and reading; BUSY the backlog.

        A connection with work still executing keeps its backlog for
        now: plain framing matches replies to requests by order, so its
        BUSY rejections must queue *after* the in-flight replies —
        ``_pump_conn`` (run on each completion) rejects them then.
        """
        self._draining = True
        self._parked.clear()
        try:
            self._selector.unregister(self._sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        for connection in list(self._conns.values()):
            if connection.inflight == 0:
                self._reject_backlog(connection)
            self._update_interest(connection)

    def _reject_backlog(self, connection: _Connection) -> None:
        while connection.backlog:
            corr_id, _payload = connection.backlog.popleft()
            self._drain_shed_counter.add()
            self._queue_reply(connection, corr_id, _BUSY_DRAINING)

    def _drain_complete(self) -> bool:
        """Drain step 2 exit test: no queued/executing work, no pending
        completions, every reply flushed."""
        if self._jobs.outstanding or self._completions:
            return False
        return all(
            not connection.out and not connection.backlog
            for connection in self._conns.values()
        )

    def _shutdown_loop(self) -> None:
        """Final net-thread cleanup, shared by graceful and forced exits."""
        forced = self._force_stop.is_set()
        if not self._draining:
            self._begin_drain()
        if forced:
            # Grace expired: reject every not-yet-started job with BUSY.
            rejected = self._jobs.drain()
            for connection, corr_id, _payload in rejected:
                connection.inflight -= 1
                self._drain_shed_counter.add()
                self._queue_reply(connection, corr_id, _BUSY_DRAINING)
            if rejected:
                self.metrics.counter("server.drain.rejected").add(len(rejected))
        # Late completions from still-running workers, then one last
        # best-effort flush so BUSY/replies reach peers before close.
        self._drain_completions()
        for connection in list(self._conns.values()):
            self._reject_backlog(connection)
            self._flush_conn(connection)
        for connection in list(self._conns.values()):
            self._close_conn(connection)
        self.metrics.counter(
            "server.drain.forced" if forced else "server.drain.graceful"
        ).add()
        try:
            self._selector.close()
        except OSError:
            pass
        for waker in (self._wake_rx, self._wake_tx):
            try:
                waker.close()
            except OSError:
                pass
        self._drained.set()

    # ------------------------------------------------------------- stop

    def stop(self, grace: Optional[float] = None) -> None:
        """Stop accepting, drain in-flight work, then force-close.

        In-flight and queued requests get *grace* seconds (default
        :attr:`STOP_GRACE_SECONDS`) to finish and flush; whatever is
        still queued at the deadline is rejected with BUSY, and any
        connection still open is closed. The UDS-path unlink (and any
        other :meth:`_on_stop` cleanup) runs strictly after the listener
        and net thread are down.
        """
        if grace is None:
            grace = self.STOP_GRACE_SECONDS
        with self._stop_lock:
            first = not self._stop_called
            self._stop_called = True
        if not first:
            self._drained.wait(grace)
            return
        self._stopping.set()
        self._wake()
        if not self._drained.wait(grace):
            self._force_stop.set()
            self._wake()
            self._drained.wait(5.0)
        try:
            self._sock.close()  # idempotent; the net loop normally did it
        except OSError:
            pass
        self._jobs.close()
        for thread in self._threads:
            # Whichever thread owns the loop is past ``_drained`` and
            # exits at once. Workers stuck in a runaway handler are
            # daemons; don't hang shutdown on them.
            thread.join(timeout=0.5)
        self._on_stop()

    def __enter__(self) -> "StagedStreamServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# Re-exported for callers that want to assert on the exact shed frames.
BUSY_QUEUE_FULL_FRAME = _BUSY_QUEUE_FULL
BUSY_DRAINING_FRAME = _BUSY_DRAINING

# TransportError is imported for the module's public exception surface
# (framing violations close the connection rather than raising to callers).
__all__ = [
    "StagedStreamServer",
    "BUSY_QUEUE_FULL_FRAME",
    "BUSY_DRAINING_FRAME",
    "TransportError",
]
