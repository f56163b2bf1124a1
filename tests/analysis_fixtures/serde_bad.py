"""Seeded serializability violations (NRMI011–NRMI013, NRMI033).

Parsed by the analyzer, never imported; ``# expect: CODE`` markers pin
the expected findings to exact lines.
"""

import threading


class Serializable:
    """Stands in for repro.core.markers.Serializable (matched by name)."""


class Restorable(Serializable):
    """Stands in for repro.core.markers.Restorable (matched by name)."""


class Session(Serializable):
    def __init__(self, path):
        self.lock = threading.Lock()  # expect: NRMI011
        self.parse = lambda s: s.split()  # expect: NRMI011
        self.log = open(path, "a")  # expect: NRMI011
        self.path = path


class Spooky(Serializable):
    def __getattr__(self, name):  # expect: NRMI012
        return 0


class WobblySlots(Serializable):
    __slots__ = tuple("ab")  # expect: NRMI012


class Node(Restorable):
    def __init__(self, key):
        self.key = key

    def __eq__(self, other):  # expect: NRMI013
        return isinstance(other, Node) and other.key == self.key

    def __hash__(self):  # expect: NRMI013
        return hash(self.key)


class Evolved(Serializable):
    def __nrmi_upgrade__(self, wire_version):  # expect: NRMI033
        self.migrated = True


class BadVersion(Serializable):
    __nrmi_version__ = "2"  # expect: NRMI033
