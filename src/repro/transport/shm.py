"""Shared-memory ring transport: the framed stream without the kernel.

``uds://`` removed the TCP/IP stack from co-located round trips; this
transport removes the socket layer itself. CALL/REPLY frames flow over a
pair of mmap'd single-producer/single-consumer rings
(:mod:`repro.util.ring`) — client→server and server→client — so a
request is two user-space ``memcpy``s plus, at most, one doorbell byte.

Connection setup rides a tiny Unix-socket handshake: the server listens
on a rendezvous socket derived from the ``shm://<name>`` address; on
accept it creates a fresh anonymous segment (``memfd_create``, falling
back to an unlinked temp file), maps it, and ships the descriptor to the
client with ``SCM_RIGHTS``. Nothing is ever named on the filesystem
except the rendezvous socket, so segments can not leak: the memory dies
with the last map, and either process crashing surfaces as EOF on the
handshake socket, which stays open as the *doorbell*.

The doorbell carries no data — any byte means "re-check your rings".
Each side sends one only when the peer has declared itself parked via
the waiting flags in the ring control block, so a spinning client pays
zero syscalls on the reply path and an idle connection burns no CPU
(both sides sleep in ``select`` on the doorbell fd).

Everything above the carrier is untouched: :class:`_RingDuplex` exposes
the socket-shaped subset the framing layer uses (``sendmsg`` /
``sendall`` / ``recv_into`` / ``recv`` / ``settimeout`` / ``fileno``),
so the plain and pipelined channels, framing auto-detect,
``TransportSession`` machinery, and the staged server core from
:mod:`repro.transport.netloop` all run unmodified over the rings.
"""

from __future__ import annotations

import errno
import mmap
import os
import select
import socket
import struct
import tempfile
import time
import uuid
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX; shm is gated anyway
    fcntl = None  # type: ignore[assignment]

from repro.errors import DeadlineExceededError, RetryableError, TransportError
from repro.transport.base import RequestHandler
from repro.transport.stream import (
    PipelinedStreamChannel,
    StreamChannel,
    StreamServer,
)
from repro.util.ring import (
    CTRL_BYTES,
    RingConsumer,
    RingProducer,
    consumer_view,
    producer_view,
    yield_cpu as _yield_cpu,
)

#: Per-direction ring data size. 1 MiB holds a 64 KiB benchmark frame
#: with room to spare; larger frames are chunked into records and flow
#: under backpressure.
DEFAULT_RING_CAPACITY = 1 << 20

#: Busy-spin iterations before a blocked client parks on the doorbell.
#: A reply typically lands well inside this budget (~tens of µs), so the
#: hot path never selects; idle or slow peers park and burn no CPU. The
#: spin yields the core between re-checks (``sched_yield``): under
#: CPython a tight spin would hold the GIL and starve a same-process
#: peer — the common benchmark topology — of the very cycles it needs
#: to produce the reply being awaited.
DEFAULT_SPIN = 2000

_MAGIC = b"NRMISHM1"
_VERSION = 1
#: Handshake header: magic, version, ring capacity.
_HS = struct.Struct("!8sII")
#: Segment layout: one header page, then the two rings back to back.
_HEADER_BYTES = 4096

_DOORBELL_BYTE = b"\x00"

#: Longest a parked side sleeps before re-checking its ring unprompted.
#: The flag handshake ("set waiting, re-check, park" vs "publish, see
#: flag, ring") is a Dekker-style store→load pattern that pure Python
#: cannot fence; cross-process on a weakly-ordered CPU the two sides can
#: cross and the doorbell byte is never sent (see ``repro.util.ring``).
#: The bounded park turns that lost wakeup from a hang into a latency
#: blip; on the hot path it costs nothing — a rung doorbell still wakes
#: the sleeper immediately, and an idle connection ticks a few times a
#: second, far below measurable CPU.
PARK_BACKSTOP_SECONDS = 0.25


def shm_supported() -> bool:
    """Whether this platform can run the shm transport (``AF_UNIX`` plus
    ``SCM_RIGHTS`` fd passing via ``socket.send_fds``)."""
    return (
        hasattr(socket, "AF_UNIX")
        and hasattr(socket, "send_fds")
        and hasattr(socket, "recv_fds")
    )


def _require_shm() -> None:
    if not shm_supported():
        raise TransportError(
            "shm:// transport requires AF_UNIX with SCM_RIGHTS fd passing "
            "(socket.send_fds/recv_fds); this platform lacks it"
        )


def default_segment_name() -> str:
    """A fresh, collision-free shm endpoint name."""
    return uuid.uuid4().hex[:12]


def handshake_path(name: str) -> str:
    """The rendezvous-socket path for ``shm://<name>``.

    An absolute *name* is used verbatim; a bare name lands under the
    system temp dir (kept short — ``sun_path`` caps at ~108 bytes).
    """
    if name.startswith("/"):
        return name
    return os.path.join(tempfile.gettempdir(), f"nrmi-shm-{name}.sock")


def segment_size(capacity: int) -> int:
    return _HEADER_BYTES + 2 * (CTRL_BYTES + capacity)


def _c2s_offset(capacity: int) -> int:
    return _HEADER_BYTES


def _s2c_offset(capacity: int) -> int:
    return _HEADER_BYTES + CTRL_BYTES + capacity


def _create_segment_fd(size: int) -> int:
    """An anonymous file descriptor of *size* bytes backing a segment.

    ``memfd_create`` when the platform has it; otherwise an already-
    unlinked temp file — either way there is no filesystem name to
    reclaim, the segment lives exactly as long as its maps and fds.
    """
    try:
        fd = os.memfd_create("nrmi-shm-ring")
    except (AttributeError, OSError):
        tmp = tempfile.TemporaryFile(prefix="nrmi-shm-")
        try:
            fd = os.dup(tmp.fileno())
        finally:
            tmp.close()
    try:
        os.ftruncate(fd, size)
    except OSError:
        os.close(fd)
        raise
    return fd


class _RingDuplex:
    """Socket-shaped duplex over one ring pair plus the doorbell socket.

    Implements exactly the subset of the socket API the framing layer
    and the staged server touch. Client duplexes are *blocking*: reads
    and writes busy-spin briefly, then park on the doorbell honouring
    ``settimeout``. Server duplexes are non-blocking: ``recv``/``send``
    return what is ready and raise ``BlockingIOError`` otherwise, and
    ``fileno()`` hands the selector the doorbell fd.
    """

    #: Tells the net loop that write readiness is signalled by doorbell
    #: *reads* (the doorbell socket itself is always writable).
    doorbell_interest = True

    def __init__(
        self,
        segment: mmap.mmap,
        doorbell: socket.socket,
        rx: RingConsumer,
        tx: RingProducer,
        *,
        spin: int = DEFAULT_SPIN,
    ) -> None:
        self._segment = segment
        self._sock = doorbell
        self._rx = rx
        self._tx = tx
        self._spin = spin
        self._timeout: Optional[float] = None
        self._eof = False
        self._closed = False
        doorbell.setblocking(False)

    # ------------------------------------------------------ socket facade

    def fileno(self) -> int:
        return self._sock.fileno()

    def settimeout(self, timeout: Optional[float]) -> None:
        self._timeout = timeout

    def gettimeout(self) -> Optional[float]:
        return self._timeout

    def setblocking(self, flag: bool) -> None:
        # Ring readiness is explicit per call; only the doorbell socket
        # has kernel blocking state, and it must stay non-blocking.
        pass

    def shutdown(self, how: int) -> None:
        """Shut the doorbell down: the peer and any thread parked on it
        here wake to EOF, while the rings stay readable."""
        self._sock.shutdown(how)

    def close(self) -> None:
        """Idempotent. Shuts the doorbell down first so a peer (and any
        thread parked in ``select`` here) wakes immediately; the segment
        itself is reclaimed by refcounting once the ring views die."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ---------------------------------------------------------- doorbell

    def _ring_peer(self) -> None:
        try:
            self._sock.send(_DOORBELL_BYTE)
        except (BlockingIOError, InterruptedError):
            pass  # bytes already queued will wake the peer
        except OSError:
            pass  # peer gone; the read path surfaces it

    def _drain_doorbell(self) -> None:
        # A short read means the buffer is empty: stop without paying a
        # second syscall just to see EAGAIN.
        while True:
            try:
                chunk = self._sock.recv(4096)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._eof = True
                return
            if not chunk:
                self._eof = True
                return
            if len(chunk) < 4096:
                return

    def _park(self, waiter, deadline: Optional[float], what: str) -> None:
        """Declare *waiter* (our rx or tx side) parked, re-check, then
        sleep on the doorbell. Raises ``socket.timeout`` past *deadline*.
        """
        waiter.set_waiting()
        try:
            if self._recheck(waiter):
                return
            if deadline is None:
                timeout = PARK_BACKSTOP_SECONDS
            else:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise socket.timeout(f"shm {what} timed out")
                timeout = min(timeout, PARK_BACKSTOP_SECONDS)
            try:
                ready, _, _ = select.select([self._sock], [], [], timeout)
            except (OSError, ValueError):
                self._eof = True
                return
            if ready:
                self._drain_doorbell()
            elif deadline is not None and time.monotonic() >= deadline:
                raise socket.timeout(f"shm {what} timed out")
        finally:
            waiter.clear_waiting()

    @staticmethod
    def _recheck(waiter) -> bool:
        if isinstance(waiter, RingConsumer):
            return waiter.readable()
        return waiter.writable()

    # ----------------------------------------------- blocking client path

    def recv_into(self, buffer, nbytes: int = 0, flags: int = 0) -> int:
        """Blocking read of at least one byte (0 on EOF), like a socket."""
        view = memoryview(buffer)
        want = nbytes or len(view)
        rx = self._rx
        got = rx.try_read_into(view, want)
        if got:
            if rx.peer_waiting:
                self._ring_peer()
            return got
        deadline = (
            None if self._timeout is None else time.monotonic() + self._timeout
        )
        return self._recv_wait(view, want, deadline)

    def recv_into_by(self, buffer, deadline: Optional[float]) -> int:
        """:meth:`recv_into` bounded by a monotonic *deadline* (None: no
        bound) instead of the duplex-wide ``settimeout`` value, which a
        concurrent sender on the same duplex also reads."""
        view = memoryview(buffer)
        return self._recv_wait(view, len(view), deadline)

    def _recv_wait(self, view: memoryview, want: int, deadline: Optional[float]) -> int:
        rx = self._rx
        spin = self._spin
        while True:
            if self._closed:
                raise OSError(errno.EBADF, "shm duplex closed")
            got = rx.try_read_into(view, want)
            if got:
                if rx.peer_waiting:
                    self._ring_peer()
                return got
            if self._eof:
                return 0
            if spin > 0:
                spin -= 1
                _yield_cpu()
                continue
            self._park(rx, deadline, "recv")
            spin = self._spin

    def peer_closed(self) -> bool:
        """Non-consuming EOF probe for an idle client duplex: swallows
        doorbell bytes (they carry no data) and leaves the rings alone."""
        if not (self._closed or self._eof):
            self._drain_doorbell()
        return self._closed or self._eof

    def recv(self, bufsize: int, flags: int = 0):
        """Non-blocking net-thread read, socket semantics: at most
        *bufsize* bytes, ``BlockingIOError`` when nothing is pending.

        Bytes beyond *bufsize* stay in the ring with no doorbell byte to
        announce them; that is safe because every caller that sees this
        duplex treats it as a doorbell connection and follows a read
        with the linger poll, whose :meth:`poll_ready` /
        :meth:`park_rx` re-checks find the residue without a wakeup.
        """
        self._drain_doorbell()
        return self._recv_pending(bufsize)

    def recv_ring(self, bufsize: int, flags: int = 0):
        """:meth:`recv` for the linger poll: ring-only, no doorbell drain.

        The poll already knows readiness from :meth:`poll_ready`, so the
        drain syscall would be pure overhead; doorbell bytes and EOF
        detection stay with the selector path, which keeps running.
        """
        return self._recv_pending(bufsize)

    def _recv_pending(self, bufsize: int):
        rx = self._rx
        if not rx.readable():
            if self._eof:
                return b""
            raise BlockingIOError(errno.EAGAIN, "no shm data ready")
        # Size the buffer to what is actually pending (bounded): zeroing
        # a fixed 64 KiB bytearray per read would dwarf a small frame.
        size = min(bufsize, 1 << 16, rx.pending_bytes())
        out = bytearray(size)
        got = rx.try_read_into(out)
        if got < size:
            del out[got:]
        else:
            while len(out) < bufsize:
                size = min(size, bufsize - len(out))
                chunk = bytearray(size)
                more = rx.try_read_into(chunk)
                if not more:
                    break
                out += chunk[:more] if more < size else chunk
        if rx.peer_waiting:
            self._ring_peer()
        return out

    def sendmsg(self, buffers, ancdata=(), flags: int = 0) -> int:
        """Scatter-gather blocking send; always writes every buffer.

        One doorbell byte per call, not per buffer: a frame's header and
        payload commit together, then the peer is rung once.
        """
        parts = buffers if isinstance(buffers, list) else list(buffers)
        total = 0
        for part in parts:
            total += len(part)
        if len(parts) > 1 and total <= 4096:
            # A small frame's header + payload collapse into one record:
            # the join is nanoseconds, the saved ring record is not.
            self._sendall_ring(b"".join(parts), ring_after=False)
        else:
            for part in parts:
                self._sendall_ring(part, ring_after=False)
        if total and self._tx.peer_waiting:
            self._ring_peer()
        return total

    def sendall(self, data) -> None:
        self._sendall_ring(data, ring_after=True)

    def _sendall_ring(self, data, ring_after: bool) -> None:
        view = data if isinstance(data, memoryview) else memoryview(data)
        tx = self._tx
        length = len(view)
        sent = tx.try_write(view)
        if sent < length:
            deadline = (
                None if self._timeout is None else time.monotonic() + self._timeout
            )
            spin = self._spin
            while sent < length:
                if self._eof or self._closed:
                    raise OSError(errno.EPIPE, "shm peer closed")
                wrote = tx.try_write(view[sent:])
                if wrote:
                    sent += wrote
                    spin = self._spin
                    continue
                if spin > 0:
                    spin -= 1
                    _yield_cpu()
                    continue
                # About to wait for space: commit what's in the ring to
                # the peer first, or it may never free any.
                if tx.peer_waiting:
                    self._ring_peer()
                self._park(tx, deadline, "send")
                spin = self._spin
        if ring_after and length and tx.peer_waiting:
            self._ring_peer()

    # ------------------------------------------- non-blocking server path

    def send(self, data) -> int:
        """Non-blocking net-thread write; ``BlockingIOError`` on a full
        ring *after* flagging the peer to ring back when space frees."""
        view = data if isinstance(data, memoryview) else memoryview(data)
        tx = self._tx
        wrote = tx.try_write(view)
        if not wrote:
            if self._eof:
                raise OSError(errno.EPIPE, "shm peer closed")
            tx.set_waiting()
            wrote = tx.try_write(view)  # re-check closes the park race
            if not wrote:
                raise BlockingIOError(errno.EAGAIN, "shm ring full")
        tx.clear_waiting()
        if tx.peer_waiting:
            self._ring_peer()
        return wrote

    # ------------------------------------------ net-thread linger polling

    def poll_ready(self) -> bool:
        """Ring-only readability probe — no syscall."""
        return self._rx.readable()

    def poll_send_ready(self) -> bool:
        """Ring-only writability probe — no syscall."""
        return self._tx.writable()

    def unpark_rx(self) -> None:
        """Enter polling mode: with the consumer-waiting flag clear, the
        peer skips the doorbell send entirely — its request path becomes
        two ring writes and zero syscalls."""
        self._rx.clear_waiting()

    def park_rx(self) -> bool:
        """Leave polling mode. Sets the consumer-waiting flag, then
        re-checks the ring once; ``True`` means bytes slipped in during
        the transition and the caller should keep polling."""
        self._rx.set_waiting()
        return self._rx.readable()


def _read_exact_handshake(sock: socket.socket) -> tuple:
    """The fd-bearing handshake header; loops out short reads."""
    msg, fds, _flags, _addr = socket.recv_fds(sock, _HS.size, 1)
    msg = bytearray(msg)
    while 0 < len(msg) < _HS.size:
        more = sock.recv(_HS.size - len(msg))
        if not more:
            break
        msg += more
    return bytes(msg), fds


def _dial_shm(name: str, timeout: Optional[float], spin: int) -> _RingDuplex:
    """Connect to ``shm://<name>``: rendezvous, receive the segment fd,
    map it, and hand back a blocking duplex over the rings."""
    _require_shm()
    path = handshake_path(name)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    fds = []
    try:
        sock.connect(path)
        msg, fds = _read_exact_handshake(sock)
        if len(msg) != _HS.size or not fds:
            raise TransportError(
                f"shm handshake with {name!r} returned no segment"
            )
        magic, version, capacity = _HS.unpack(msg)
        if magic != _MAGIC or version != _VERSION:
            raise TransportError(
                f"shm handshake with {name!r}: unknown segment revision"
            )
        segment = mmap.mmap(fds[0], segment_size(capacity))
    except socket.timeout as exc:
        sock.close()
        raise DeadlineExceededError(f"connect to {path} timed out: {exc}") from exc
    except OSError as exc:
        sock.close()
        raise RetryableError(f"cannot connect to {path}: {exc}") from exc
    except TransportError:
        sock.close()
        raise
    finally:
        for fd in fds:
            try:
                os.close(fd)
            except OSError:
                pass
    tx = producer_view(segment, _c2s_offset(capacity), capacity)
    rx = consumer_view(segment, _s2c_offset(capacity), capacity)
    return _RingDuplex(segment, sock, rx, tx, spin=spin)


class ShmServer(StreamServer):
    """Serves a request handler over shared-memory rings until stopped.

    Each accepted client gets its own fresh segment (a ring pair), so
    connections never contend on ring state. Usable as a context
    manager, exactly like the TCP/UDS servers::

        with ShmServer(handler) as server:
            channel = ShmChannel(server.name)

    Binding probes the rendezvous path first: a live server answers the
    probe and the bind fails with "in use"; a dead one leaves the
    connect refused, and the stale socket is reclaimed. ``stop()``
    unlinks the path only after the listener has closed — and only if it
    is still *our* socket — so a successor can rebind immediately and is
    never unlinked by a late-stopping predecessor.

    Keyword *server_options* pass through to the staged stream server:
    ``workers``, ``queue_capacity``, ``max_inflight_per_conn``,
    ``overload_policy``, ``partial_read_timeout``, ``metrics``.
    """

    def __init__(
        self,
        handler: RequestHandler,
        name: Optional[str] = None,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        **server_options: object,
    ) -> None:
        _require_shm()
        if capacity < 4096 or capacity & (capacity - 1):
            raise TransportError(
                f"shm ring capacity must be a power of two >= 4096: {capacity}"
            )
        self.name = name if name is not None else default_segment_name()
        self.path = handshake_path(self.name)
        self._capacity = capacity
        # The probe→unlink→bind→listen sequence below is a TOCTOU unless
        # serialized: two servers starting on the same name could both
        # judge the path stale, both unlink, and the second bind would
        # silently orphan the first's listener. An exclusive flock on a
        # sibling lock file (held through listen(); also taken around the
        # stop-time unlink) makes reclaim-and-bind atomic. The lock file
        # itself is never unlinked — removing it would let a third
        # starter lock a fresh inode while a waiter holds the old one.
        lock_fd = self._lock_endpoint()
        try:
            self._reclaim_stale()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(self.path)
            except OSError as exc:
                sock.close()
                raise TransportError(
                    f"cannot bind shm rendezvous socket {self.path!r}: {exc}"
                ) from exc
            try:
                self._bound_ino: Optional[int] = os.stat(self.path).st_ino
            except OSError:
                self._bound_ino = None
            sock.listen(128)
        finally:
            self._unlock_endpoint(lock_fd)
        super().__init__(handler, sock, label="shm", **server_options)

    def _lock_endpoint(self) -> Optional[int]:
        """Exclusive advisory lock on the endpoint's sibling lock file;
        returns the holding fd (None when flock is unavailable)."""
        if fcntl is None:
            return None
        try:
            fd = os.open(self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o600)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            os.close(fd)
            return None
        return fd

    @staticmethod
    def _unlock_endpoint(fd: Optional[int]) -> None:
        if fd is None:
            return
        try:
            os.close(fd)  # closing drops the flock
        except OSError:
            pass

    def _reclaim_stale(self) -> None:
        """Distinguish a live predecessor (error out) from a dead one's
        leftover rendezvous socket (unlink and take over)."""
        if not os.path.exists(self.path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(self.path)
        except OSError:
            try:
                os.unlink(self.path)  # stale: nobody is listening
            except OSError:
                pass
            return
        finally:
            probe.close()
        raise TransportError(
            f"shm endpoint {self.name!r} is in use: a live server answers "
            f"on {self.path!r}"
        )

    @property
    def address(self) -> str:
        return f"shm://{self.name}"

    def _wrap_accepted(self, conn: socket.socket):
        """Per-connection handshake, run inline on the net thread.

        It is strictly one-way — create segment, ship fd, never read —
        so it cannot block the loop on a slow or dead client.
        """
        size = segment_size(self._capacity)
        fd = _create_segment_fd(size)
        try:
            segment = mmap.mmap(fd, size)
        except OSError:
            os.close(fd)
            raise
        rx = tx = None
        try:
            segment[: len(_MAGIC)] = _MAGIC
            rx = consumer_view(
                segment, _c2s_offset(self._capacity), self._capacity
            )
            tx = producer_view(
                segment, _s2c_offset(self._capacity), self._capacity
            )
            # The net thread is permanently selector-parked: every client
            # commit must arrive as a doorbell byte. Declared *before*
            # the fd ships, so even the client's first frame sees it.
            rx.set_waiting()
            socket.send_fds(
                conn, [_HS.pack(_MAGIC, _VERSION, self._capacity)], [fd]
            )
        except OSError:
            # A client that vanished mid-handshake (EPIPE/ECONNRESET from
            # send_fds) must stay an OSError to the accept path: closing
            # the mmap while ring views are still exported over it raises
            # BufferError, which would escape and kill the net thread —
            # so release the views first.
            for side in (rx, tx):
                if side is not None:
                    side.detach()
            try:
                segment.close()
            except BufferError:  # pragma: no cover - detach released all
                pass
            raise
        finally:
            os.close(fd)
        conn.setblocking(False)
        return _RingDuplex(segment, conn, rx, tx)

    def _on_stop(self) -> None:
        # Runs only after the listener closed and the net thread exited.
        # The inode guard keeps a late stop() from unlinking a successor
        # that already reclaimed and rebound the path; the endpoint lock
        # serializes the stat+unlink against a successor's reclaim-and-
        # bind so the guard cannot race it.
        lock_fd = self._lock_endpoint()
        try:
            try:
                if (
                    self._bound_ino is not None
                    and os.stat(self.path).st_ino != self._bound_ino
                ):
                    return
            except OSError:
                return
            try:
                os.unlink(self.path)
            except OSError:
                pass
        finally:
            self._unlock_endpoint(lock_fd)


class ShmChannel(StreamChannel):
    """Client channel over a single pooled shared-memory connection."""

    def __init__(
        self,
        name: str,
        timeout: Optional[float] = 30.0,
        *,
        spin: int = DEFAULT_SPIN,
    ) -> None:
        super().__init__(timeout=timeout)
        self.name = name
        self._spin = spin

    def _open_socket(self, timeout: Optional[float]) -> _RingDuplex:
        return _dial_shm(self.name, timeout, self._spin)

    def _describe(self) -> str:
        return self.name


class PipelinedShmChannel(PipelinedStreamChannel):
    """A shared-memory channel keeping many calls in flight on one ring
    pair; see :class:`repro.transport.stream.PipelinedStreamChannel`."""

    def __init__(
        self,
        name: str,
        timeout: Optional[float] = 30.0,
        *,
        spin: int = DEFAULT_SPIN,
    ) -> None:
        super().__init__(label="shm", timeout=timeout)
        self.name = name
        self._spin = spin

    def _open_socket(self, timeout: Optional[float]) -> _RingDuplex:
        return _dial_shm(self.name, timeout, self._spin)

    def _describe(self) -> str:
        return self.name

    def _recv_into(self, sock: _RingDuplex, view, deadline: Optional[float]) -> int:
        # The doorbell fd's readability says nothing about the rings, so
        # no poll: the duplex spins and parks up to the deadline itself.
        try:
            return sock.recv_into_by(view, deadline)
        except socket.timeout as exc:
            raise DeadlineExceededError(f"shm recv timed out: {exc}") from exc

    def _peer_closed(self, sock: _RingDuplex) -> bool:
        # _RingDuplex.recv consumes ring bytes; this probe does not.
        return sock.peer_closed()
