"""NRMI runtime configuration.

The paper evaluates a matrix of configurations; this dataclass is how the
reproduction spells each of them:

===========================  =========================================
paper configuration          NRMIConfig
===========================  =========================================
RMI, JDK 1.3                 profile="legacy",  policy="none"
RMI, JDK 1.4                 profile="modern",  policy="none"
NRMI portable (1.3 or 1.4)   implementation="portable", policy="full"
NRMI optimized (1.4 only)    implementation="optimized", policy="full",
                             profile="modern"
NRMI + delta (future work)   policy="delta"
DCE RPC semantics            policy="dce"
===========================  =========================================

The session schema cache is not an option: it engages on every
connection that keeps a schema session and changes no behaviour, so
there is nothing to choose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.reliability import (
    DEFAULT_RETRY_POLICY,
    CircuitBreakerPolicy,
    RetryPolicy,
)

_VALID_PROFILES = ("legacy", "modern")
_VALID_IMPLEMENTATIONS = ("portable", "optimized")
_VALID_POLICIES = ("none", "full", "delta", "dce")


@dataclass(frozen=True)
class NRMIConfig:
    """How an endpoint marshals, restores, and accounts.

    ``profile``
        Serialization substrate: ``legacy`` (JDK 1.3-like: the generic
        frame machine) or ``modern`` (JDK 1.4-like: generated per-class
        serde, :mod:`repro.serde.codegen`).
    ``implementation``
        Field-access machinery used by the restore engine and reachability
        computation: ``portable`` (reflective, uncached) or ``optimized``
        (cached per-class slot layouts) — the paper's two NRMI
        implementations.
    ``policy``
        Restore policy applied when a call has restorable parameters.
    ``leak_budget``
        Optional cap on live remotely-referenced exports; exceeding it
        raises :class:`~repro.errors.DistributedLeakError` (models the
        paper's 1 GB heap limit in the Table 6 experiment).
    """

    profile: str = "modern"
    implementation: str = "optimized"
    policy: str = "full"
    leak_budget: int | None = None
    # Ablation of the paper's optimization 5.2.4 #1: transmit the linear
    # map explicitly instead of reconstructing it during deserialization.
    # Always off in the paper's NRMI; exists here for the ablation bench.
    ship_linear_map: bool = False
    # DGC lease duration for exported references (None = no leases; refs
    # live until released). Java RMI's default is 10 minutes.
    lease_seconds: float | None = None
    # Failure policy for outgoing calls: attempts, backoff, per-call
    # deadline. The default is one attempt and no deadline — identical
    # behaviour to a stack without the reliability layer. Retries are
    # at-most-once safe: every call carries an ID the server's reply
    # cache deduplicates.
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    # Per-address circuit breaking for outgoing calls (None = disabled).
    breaker: CircuitBreakerPolicy | None = None
    # Bound on the server-side reply cache backing at-most-once dedup
    # (entries, LRU-evicted). 0 disables caching — callers retrying
    # against such an endpoint fall back to at-least-once semantics.
    reply_cache_size: int = 256
    # Use the pipelined TCP channel (multiple in-flight calls on one
    # connection, replies demuxed by correlation id) for tcp:// peers.
    # Servers accept both framings regardless of this knob.
    tcp_pipelined: bool = True
    # Socket transport ``serve_remote()`` exposes: "tcp" (cross-host),
    # "uds" (Unix domain socket — single host, lower latency), or "shm"
    # (shared-memory rings — single host, no kernel in the data path).
    # Servers accept both framings on any; this picks the listener.
    transport: str = "tcp"
    # Staged-server sizing: worker threads executing requests, and the
    # bounded job-queue capacity between the net loop and the workers.
    # The queue bound is the overload knob — see overload_policy.
    server_workers: int = 8
    queue_capacity: int = 64
    # Cap on frames one connection may have admitted-but-unanswered; a
    # pipelined client past the cap has its reads paused, so one client
    # cannot monopolize every worker.
    max_inflight_per_conn: int = 64
    # What the server does when the job queue is full: "shed" answers
    # immediately with the fast BUSY frame (client retries with backoff);
    # "block" pauses reading and lets kernel socket buffers backpressure.
    overload_policy: str = "shed"

    def __post_init__(self) -> None:
        if self.profile not in _VALID_PROFILES:
            raise ValueError(
                f"profile must be one of {_VALID_PROFILES}, got {self.profile!r}"
            )
        if self.implementation not in _VALID_IMPLEMENTATIONS:
            raise ValueError(
                "implementation must be one of "
                f"{_VALID_IMPLEMENTATIONS}, got {self.implementation!r}"
            )
        if self.policy not in _VALID_POLICIES:
            raise ValueError(
                f"policy must be one of {_VALID_POLICIES}, got {self.policy!r}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.breaker is not None and not isinstance(
            self.breaker, CircuitBreakerPolicy
        ):
            raise ValueError(
                "breaker must be a CircuitBreakerPolicy or None, got "
                f"{type(self.breaker).__name__}"
            )
        if self.transport not in ("tcp", "uds", "shm"):
            raise ValueError(
                f"transport must be 'tcp', 'uds', or 'shm', got {self.transport!r}"
            )
        if self.reply_cache_size < 0:
            raise ValueError(
                f"reply_cache_size must be >= 0, got {self.reply_cache_size}"
            )
        if self.server_workers < 1:
            raise ValueError(
                f"server_workers must be >= 1, got {self.server_workers}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_inflight_per_conn < 1:
            raise ValueError(
                "max_inflight_per_conn must be >= 1, got "
                f"{self.max_inflight_per_conn}"
            )
        if self.overload_policy not in ("shed", "block"):
            raise ValueError(
                "overload_policy must be 'shed' or 'block', got "
                f"{self.overload_policy!r}"
            )
        if self.implementation == "optimized" and self.profile == "legacy":
            # The paper's optimized NRMI exists only on JDK 1.4; mirror that
            # constraint so configurations stay meaningful.
            raise ValueError(
                "the optimized implementation requires the modern profile "
                "(the paper's optimized NRMI is JDK 1.4-only)"
            )
