"""Transport substrate: how request/response frames move between endpoints.

Interchangeable channels behind one interface:

* :mod:`repro.transport.inproc` — direct in-process dispatch (Baseline 3's
  "no network" configuration, and the carrier the simulated network wraps);
* :mod:`repro.transport.tcp` — a real TCP server (the staged core of
  :mod:`repro.transport.netloop`) with length-prefixed framing
  (integration tests exercise the full stack over sockets);
* :mod:`repro.transport.uds` — the same stream machinery
  (:mod:`repro.transport.stream`) over Unix domain sockets, the low-
  latency single-host carrier;
* :mod:`repro.transport.shm` — the same framed stream over mmap'd
  shared-memory rings (Unix-socket handshake, then no kernel in the
  data path), the fastest co-located carrier;
* :mod:`repro.transport.simnet` — a deterministic network model
  (bandwidth, per-message latency, per-host CPU scale) layered over the
  in-process channel; it *accounts* simulated transfer time instead of
  sleeping, so benchmark runs are fast and reproducible.

Addressing and channel caching live in :mod:`repro.transport.resolver`;
failure policy (retry/backoff, deadlines, circuit breaking, the reply
cache behind at-most-once) in :mod:`repro.transport.reliability`.
"""

from repro.transport.base import Channel, ChannelStats, RequestHandler
from repro.transport.framing import read_frame, write_frame
from repro.transport.inproc import InProcChannel
from repro.transport.reliability import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ReplyCache,
    RetryPolicy,
)
from repro.transport.resolver import (
    ChannelResolver,
    global_resolver,
    register_scheme,
    supported_schemes,
    unregister_scheme,
)
from repro.transport.shm import ShmChannel, ShmServer
from repro.transport.simnet import NetworkModel, SimulatedChannel
from repro.transport.tcp import TcpChannel, TcpServer
from repro.transport.uds import UdsChannel, UdsServer

__all__ = [
    "Channel",
    "ChannelStats",
    "RequestHandler",
    "read_frame",
    "write_frame",
    "InProcChannel",
    "ChannelResolver",
    "global_resolver",
    "register_scheme",
    "supported_schemes",
    "unregister_scheme",
    "NetworkModel",
    "SimulatedChannel",
    "ShmChannel",
    "ShmServer",
    "TcpChannel",
    "TcpServer",
    "UdsChannel",
    "UdsServer",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "ReplyCache",
    "RetryPolicy",
]
