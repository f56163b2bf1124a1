"""Seeded cross-thread races for the NRMI04x concurrency family.

Parsed by the analyzer, never imported; ``# expect: CODE`` markers pin
the expected findings to exact lines. Each class isolates one rule:
roles come from the same inference the real staged server gets —
``_net_loop`` calls ``selector.select`` (net-loop role), ``__init__``
spawns ``Thread(target=...)`` (worker role), remaining public methods
default to client-caller.
"""

import selectors
import threading


class Serializable:
    """Stands in for repro.core.markers.Serializable (matched by name)."""


class Remote:
    """Stands in for repro.core.markers.Remote (matched by base name)."""


class RacyStagedServer:
    """041/042/044/045 baits: one field per rule, no shared locks."""

    def __init__(self, ring):
        self._selector = selectors.DefaultSelector()
        self._ring = ring
        self._mode = "cold"
        self._spin_rounds = 0
        self._started = False
        self._conns = {}
        self._thread = threading.Thread(target=self._worker_loop)
        self._thread.start()
        self._ready = True  # expect: NRMI045

    def _net_loop(self):
        while True:
            events = self._selector.select(0.1)
            for _key, _mask in events:
                self._mode = "hot"  # expect: NRMI041
            for conn in self._conns:
                conn.flush()
            if self._started:
                self._dispatch()

    def _dispatch(self):
        self._spin_rounds += 1  # expect: NRMI042

    def _worker_loop(self):
        while self._ready:
            if self._mode == "hot":
                self._conns.pop("stale", None)  # expect: NRMI044
            if not self._started:
                self._started = True  # expect: NRMI042
            if self._spin_rounds > 1000:
                return


class _Link:
    """A peer record: slotted, owns a lock, shared by reference."""

    __slots__ = ("sock", "pending", "closed", "write_lock")

    def __init__(self, sock):
        self.sock = sock
        self.pending = []
        self.closed = False
        self.write_lock = threading.Lock()


class RacyLinkServer:
    """041/044 baits on peer-record fields: the net loop and a worker
    reach one link's state through locals, and neither takes its lock."""

    def __init__(self):
        self._selector = selectors.DefaultSelector()
        self._jobs = []
        self._thread = threading.Thread(target=self._reply_worker)
        self._thread.start()

    def _net_loop(self):
        while True:
            for key, _mask in self._selector.select(0.1):
                link = key.data
                link.closed = True  # expect: NRMI041
                link.pending.append(key)  # expect: NRMI044

    def _reply_worker(self):
        while True:
            link = self._jobs.pop()
            if not link.closed:
                for frame in link.pending:
                    link.sock.sendall(frame)


class DualProducerBridge:
    """043-A bait: ``try_write`` reachable from net-loop AND worker."""

    def __init__(self, ring):
        self._selector = selectors.DefaultSelector()
        self._ring = ring
        self._pump = threading.Thread(target=self._pump_loop)
        self._pump.start()

    def _net_loop(self):
        while True:
            events = self._selector.select(0)
            for key, _mask in events:
                self._ring.try_write(key.data)

    def _pump_loop(self):
        self._ring.try_write(b"heartbeat")  # expect: NRMI043


class ConfusedDuplex:
    """043-C bait: one role consumes the ring it also produces."""

    def __init__(self, ring):
        self._ring = ring

    def exchange(self, payload, buffer):
        self._ring.try_write(payload)
        return self._ring.try_read_into(buffer)  # expect: NRMI043


class HandleWithLock(Serializable):
    """046 baits: primitives flowing into serialized state via aliases
    and closures — the shapes NRMI011's constructor match cannot see."""

    __nrmi_transient__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()
        guard = threading.Lock()
        self.guard_field = guard  # expect: NRMI046
        notify = lambda: self._lock.acquire()  # noqa: E731
        self.callback = notify  # expect: NRMI046


class CallbackService(Remote):
    """046 bait: a Remote reply is serialized too — returning a closure
    over a lock ships the lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def subscribe(self):
        def waiter():
            with self._lock:
                return self._hits

        return waiter  # expect: NRMI046
