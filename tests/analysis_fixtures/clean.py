"""A violation-free module packed with near-misses.

Every pattern here skirts the edge of a rule without crossing it; the
analyzer must report zero findings. Parsed, never imported.
"""

import threading


class Serializable:
    """Stands in for repro.core.markers.Serializable (matched by name)."""


class Restorable(Serializable):
    """Stands in for repro.core.markers.Restorable (matched by name)."""


class Remote:
    """Stands in for repro.core.markers.Remote (matched by base name)."""


def no_restore(fn):
    return fn


def restore_policy(name):
    def decorate(fn):
        return fn

    return decorate


class Session(Serializable):
    """Transient code-like fields are fine: they never hit the wire."""

    __nrmi_transient__ = ("lock", "log")

    def __init__(self, path):
        self.lock = threading.Lock()  # near-miss: NRMI011
        self.log = open(path, "a")
        self.path = path

    def __nrmi_resolve__(self):
        self.lock = threading.Lock()
        self.log = open(self.path, "a")


class TidySlots(Serializable):
    __slots__ = ("left", "right")  # near-miss: NRMI012

    def __init__(self):
        self.left = None
        self.right = None


class Versioned(Serializable):
    __nrmi_version__ = 2  # near-miss: NRMI033

    def __nrmi_upgrade__(self, wire_version):
        if wire_version < 2:
            self.extra = None


class ValueKey(Serializable):
    """Value equality on a by-copy type: identity matching only governs
    Restorable (copy-restore) classes, so this must not be flagged."""

    def __init__(self, path):
        self.path = path

    def __eq__(self, other):  # near-miss: NRMI013
        return isinstance(other, ValueKey) and other.path == self.path

    def __hash__(self):
        return hash(self.path)


class StoreContract:  # near-miss: NRMI001, NRMI003
    def put(self, record): ...

    def get(self, key): ...


class StoreService(Remote):  # near-miss: NRMI004
    def __init__(self):
        self._lock = threading.Lock()
        self._rows = {}

    def put(self, record):
        with self._lock:
            self._rows[record.key] = record.value  # near-miss: NRMI022, NRMI031
        return record.key

    def get(self, key, default=None):  # near-miss: NRMI023
        with self._lock:
            return self._rows.get(key, default)

    @no_restore
    def count(self, table):
        return len(table.rows)  # near-miss: NRMI021

    @restore_policy("delta")
    def touch(self, table):
        table.rows[0]["seen"] = True
        return 1


def wire(endpoint):
    endpoint.bind("store", StoreService(), interface=StoreContract)  # near-miss: NRMI002
