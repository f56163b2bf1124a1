"""Restore policies: what travels back after the remote method returns.

Four policies, all sharing the request-side machinery (one stream, one
handle table, linear map recorded on both endpoints):

``none``
    Plain call-by-copy: only the return value travels back (Java RMI).

``full``
    NRMI as implemented in the paper: the whole retained linear map travels
    back along with the return value (Section 5.2.2).

``delta``
    The paper's future-work optimization (Section 5.2.4 #2): the server
    captures each retained object's shallow state while unmarshalling
    (:mod:`repro.serde.digest`) and ships back only the slots that
    changed, plus new objects (reply kind 4, ``delta-slots``). A
    reference to an *unchanged* old object is a back reference to the
    caller's original, so passing an object by copy-restore and not
    changing it costs almost the same as passing it by copy.

``dce``
    The DCE RPC semantics baseline (Section 4.2): only objects still
    *reachable from the parameters after the call* are restored. Changes to
    data that became unreachable are silently lost — the behaviour the
    paper's Figure 9 illustrates with Microsoft RPC.

The three restoring policies share one reply grammar, a *slot stream*
(:mod:`repro.serde.tags`): handles ``0 … n-1`` are the caller's retained
objects, and the reply *defines* a slot the first time it meets one it
restores. They differ only in which slots they define — ``full`` all of
them, ``delta`` the dirty ones, ``dce`` the reachable ones. The caller
decodes the reply into its own heap and applies the definitions only
once the whole reply has decoded (:mod:`repro.core.copy_restore`).

A policy runs on both endpoints: ``snapshot``/``build_response`` on the
server, ``parse_response`` on the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.copy_restore import RestoreEngine, RestoreStats
from repro.errors import LinearMapMismatchError
from repro.serde.digest import SlotDigestTable, digest_slots
from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.reader import ObjectReader
from repro.serde.registry import ClassRegistry
from repro.serde.walker import reachable
from repro.serde.writer import ObjectWriter
from repro.serde.profiles import MODERN_PROFILE, SerializationProfile
from repro.util.identity import IdentitySet


@dataclass
class ServerRestoreContext:
    """Everything the server side of a policy needs."""

    retained: List[Any]
    restore_roots: List[Any]
    profile: SerializationProfile = MODERN_PROFILE
    registry: Optional[ClassRegistry] = None
    accessor: FieldAccessor = OPTIMIZED_ACCESSOR
    externalizers: Tuple = ()
    # Reachability stop predicate (remote stubs/pointers are leaves).
    stop: Optional[Any] = None
    # Optional MetricsRegistry: the delta policy records dirty/clean counts.
    metrics: Optional[Any] = None
    # "Before" slot states captured *during* argument deserialization (the
    # fused decode+capture pass). When present, a delta policy's snapshot
    # uses them directly instead of re-walking the retained linear map.
    predigested: Optional[SlotDigestTable] = None


@dataclass
class ClientRestoreContext:
    """Everything the caller side of a policy needs."""

    originals: List[Any]
    profile: SerializationProfile = MODERN_PROFILE
    registry: Optional[ClassRegistry] = None
    engine: RestoreEngine = field(default_factory=RestoreEngine)
    externalizers: Tuple = ()
    # Filled by parse_response with reply-shape facts (kind, dirty/total
    # slot counts), which the caller records in its delta metrics.
    reply_info: Dict[str, Any] = field(default_factory=dict)


class RestorePolicy:
    """Interface both endpoints agree on (the name travels in the request)."""

    name = "abstract"

    def snapshot(self, context: ServerRestoreContext) -> Any:
        """Capture pre-execution state on the server (default: nothing)."""
        return None

    def build_response(
        self, result: Any, context: ServerRestoreContext, snapshot: Any
    ) -> bytes:
        raise NotImplementedError

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        """Apply the restore on the caller; return (result, stats)."""
        raise NotImplementedError


class NoRestorePolicy(RestorePolicy):
    """Plain call-by-copy: the return value is the whole response."""

    name = "none"

    def build_response(
        self, result: Any, context: ServerRestoreContext, snapshot: Any
    ) -> bytes:
        writer = ObjectWriter(
            profile=context.profile,
            registry=context.registry,
            externalizers=context.externalizers,
        )
        writer.write_root(result)
        return writer.getvalue()

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        reader = ObjectReader(
            payload,
            profile=context.profile,
            registry=context.registry,
            externalizers=context.externalizers,
        )
        result = reader.read_root()
        reader.expect_end()
        return result, None


class FullRestorePolicy(RestorePolicy):
    """NRMI: ship the whole retained linear map back (paper Section 5.2.2)."""

    name = "full"

    def build_response(
        self, result: Any, context: ServerRestoreContext, snapshot: Any
    ) -> bytes:
        return _write_reply(result, context, None)

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        result, stats, _defined = _read_reply(payload, context, complete=True)
        return result, stats


def _write_reply(
    result: Any, context: ServerRestoreContext, defined: Optional[List[int]]
) -> bytes:
    """A slot stream: the return value, then every slot in *defined*
    (all of them when ``None``) it did not reach, in slot order. Slots
    outside *defined* are bound, not written: a reference to one is a
    back reference to the caller's original."""
    writer = ObjectWriter(
        profile=context.profile,
        registry=context.registry,
        externalizers=context.externalizers,
        slots=context.retained,
        defined=defined,
    )
    writer.write_root(result)
    writer.write_slots()
    return writer.getvalue()


def _read_reply(
    payload: bytes, context: ClientRestoreContext, complete: bool
) -> Tuple[Any, RestoreStats, int]:
    """Steps 4-6: decode a slot stream into the caller's heap, check that
    it defined every slot when *complete*, then apply the pending states.
    Returns ``(result, stats, slots defined)``. Any error before the
    apply leaves every original untouched."""
    originals = context.originals
    reader = ObjectReader(
        payload,
        profile=context.profile,
        registry=context.registry,
        externalizers=context.externalizers,
        originals=originals,
    )
    defined = reader.definitions
    if complete and defined != len(originals):
        raise LinearMapMismatchError(expected=len(originals), received=defined)
    result = reader.read_root()
    reader.read_definitions()
    stats = context.engine.apply(
        reader.pending, reader.fills, len(reader.linear_map), len(reader.immutables)
    )
    return result, stats, defined


class DeltaRestorePolicy(RestorePolicy):
    """Dirty-slot replies: capture every retained slot's state at
    deserialization time, compare at reply-encode time, and define only
    the slots whose state changed; a reference to a clean slot is a back
    reference to the caller's original.

    The reply is kind 4 (``delta-slots``). A caller requests ``delta`` and
    advertises :data:`repro.rmi.protocol.CAP_DELTA_SLOTS`; a server that
    does not see the bit answers with a full-map reply instead. Both
    names resolve to this class.
    """

    name = "delta"

    def snapshot(self, context: ServerRestoreContext) -> SlotDigestTable:
        # The "before" picture every slot is compared against at reply
        # time. The invocation pipeline usually captures it *during*
        # argument deserialization (the fused decode+capture pass), so the
        # retained map is not walked a second time here; the explicit
        # walk remains for callers that decode without fusion (shipped
        # maps, direct policy use in tests).
        if context.predigested is not None:
            return context.predigested
        return digest_slots(context.retained, context.accessor)

    def build_response(
        self, result: Any, context: ServerRestoreContext, snapshot: Any
    ) -> bytes:
        retained = context.retained
        dirty = snapshot.dirty_indices(digest_slots(retained, context.accessor))
        metrics = context.metrics
        if metrics is not None:
            metrics.counter("delta.slots_dirty").add(len(dirty))
            metrics.counter("delta.slots_clean").add(len(retained) - len(dirty))
            if retained:
                metrics.distribution("delta.dirty_ratio").record(
                    len(dirty) / len(retained)
                )
        return _write_reply(result, context, dirty)

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        result, stats, dirty = _read_reply(payload, context, complete=False)
        context.reply_info.update(
            kind="delta-slots", dirty=dirty, total=len(context.originals)
        )
        return result, stats


class DceRestorePolicy(RestorePolicy):
    """DCE RPC semantics: restore only what the parameters still reach.

    Old objects that became unreachable from the parameters keep their
    *original* (stale) values on the caller — the Figure 9 behaviour.
    """

    name = "dce"

    def build_response(
        self, result: Any, context: ServerRestoreContext, snapshot: Any
    ) -> bytes:
        still_reachable = IdentitySet()
        for obj in reachable(
            list(context.restore_roots),
            context.accessor,
            mutable_only=True,
            stop=context.stop,
        ):
            still_reachable.add(obj)
        kept = [
            index
            for index, obj in enumerate(context.retained)
            if obj in still_reachable
        ]
        return _write_reply(result, context, kept)

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        result, stats, _defined = _read_reply(payload, context, complete=False)
        return result, stats


_POLICIES: Dict[str, Type[RestorePolicy]] = {
    policy.name: policy
    for policy in (
        NoRestorePolicy,
        FullRestorePolicy,
        DeltaRestorePolicy,
        DceRestorePolicy,
    )
}
# The name of reply kind 4; a request names the same policy "delta".
_POLICIES["delta-slots"] = DeltaRestorePolicy


def policy_by_name(name: str) -> RestorePolicy:
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown restore policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
