"""Near-misses for the NRMI04x concurrency family: zero findings.

The twin of ``concurrency_bad.py``: the same thread-role shapes — a
selector net loop, a spawned worker, an SPSC ring, serializable state —
but every sharing is disciplined (common lock, sanctioned atomic, ring
ownership split, publish-before-start, transient primitives).
``# near-miss: CODE`` markers claim the line that skirts each rule; the
meta-test asserts no finding of that code lands there.
"""

import selectors
import threading
from collections import deque


class Serializable:
    """Stands in for repro.core.markers.Serializable (matched by name)."""


class Remote:
    """Stands in for repro.core.markers.Remote (matched by base name)."""


class TidyStagedServer:
    """Cross-role sharing done right: one lock, atomic handoffs."""

    def __init__(self, ring):
        self._selector = selectors.DefaultSelector()
        self._ring = ring
        self._lock = threading.Lock()
        self._mode = "cold"
        self._spin_rounds = 0
        self._conns = {}
        self._inbox = deque()
        self._ready = True  # near-miss: NRMI045
        self._thread = threading.Thread(target=self._worker_loop)
        self._thread.start()

    def _net_loop(self):
        while True:
            events = self._selector.select(0.1)
            for _key, _mask in events:
                with self._lock:
                    self._mode = "hot"  # near-miss: NRMI041
            with self._lock:
                for conn in list(self._conns):
                    conn.flush()
            while self._inbox:
                self._inbox.popleft()

    def _worker_loop(self):
        while self._ready:
            with self._lock:
                if self._mode != "hot":
                    continue
                self._spin_rounds += 1  # near-miss: NRMI042
                self._conns.pop("stale", None)  # near-miss: NRMI044
            self._inbox.append("job")  # near-miss: NRMI042

    def audited_reset(self):
        # The alias shape RLock callers use for re-entrant sections: the
        # guard matcher must treat `with lock:` as `with self._lock:`.
        lock = self._lock
        with lock:
            self._mode = "cold"  # near-miss: NRMI031


class _Link:
    """A peer record: slotted, owns a lock, shared by reference."""

    __slots__ = ("sock", "pending", "closed", "write_lock")

    def __init__(self, sock):
        self.sock = sock
        self.pending = []
        self.closed = False
        self.write_lock = threading.Lock()


class TidyLinkServer:
    """Peer-record sharing done right: both roles hold the link's lock."""

    def __init__(self):
        self._selector = selectors.DefaultSelector()
        self._jobs = []
        self._thread = threading.Thread(target=self._reply_worker)
        self._thread.start()

    def _net_loop(self):
        while True:
            for key, _mask in self._selector.select(0.1):
                link = key.data
                with link.write_lock:
                    link.closed = True  # near-miss: NRMI041
                    link.pending.append(key)  # near-miss: NRMI044

    def _reply_worker(self):
        while True:
            link = self._jobs.pop()
            with link.write_lock:
                if not link.closed:
                    for frame in link.pending:
                        link.sock.sendall(frame)


class SplitDuplex:
    """SPSC ownership respected: net produces tx, worker consumes rx."""

    def __init__(self, tx_ring, rx_ring):
        self._selector = selectors.DefaultSelector()
        self._tx = tx_ring
        self._rx = rx_ring
        self._pump = threading.Thread(target=self._pump_loop)
        self._pump.start()

    def _net_loop(self):
        while True:
            events = self._selector.select(0)
            for key, _mask in events:
                self._tx.try_write(key.data)  # near-miss: NRMI043

    def _pump_loop(self, buffer=b""):
        self._rx.try_read_into(bytearray(64))


class TidyHandle(Serializable):
    """Primitives stay transient even when they flow through aliases."""

    __nrmi_transient__ = ("_guard", "_hook")

    def __init__(self):
        guard = threading.Lock()
        self._guard = guard  # near-miss: NRMI046
        self._hook = lambda: None  # noqa: E731
        self.path = "/tmp/handle"


class ReportService(Remote):
    """Replies carry plain data; closures that cross capture no locks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._rows = {}

    def snapshot(self):
        with self._lock:
            return dict(self._rows)

    def formatter(self):
        def render(value):
            return str(value)

        return render  # near-miss: NRMI046
