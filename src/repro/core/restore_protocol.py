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
    changed, plus new objects (reply kind 4, ``delta-slots``). References
    to *unchanged* old objects are encoded as their position in the
    caller's retained list, so passing an object by copy-restore and not
    changing it costs almost the same as passing it by copy.

``dce``
    The DCE RPC semantics baseline (Section 4.2): only objects still
    *reachable from the parameters after the call* are restored. Changes to
    data that became unreachable are silently lost — the behaviour the
    paper's Figure 9 illustrates with Microsoft RPC.

A policy runs on both endpoints: ``snapshot``/``build_response`` on the
server, ``parse_response`` on the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.core.copy_restore import RestoreEngine, RestoreStats
from repro.core.matching import match_maps, match_sparse
from repro.errors import RestoreError
from repro.serde.digest import SlotDigestTable, digest_slots
from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.reader import ObjectReader
from repro.serde.registry import ClassRegistry, Externalizer
from repro.serde.walker import reachable
from repro.serde.writer import ObjectWriter
from repro.serde.profiles import MODERN_PROFILE, SerializationProfile
from repro.serde.tags import OLDREF_EXTERNALIZER
from repro.util.buffers import BufferReader, BufferWriter
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
        writer = ObjectWriter(
            profile=context.profile,
            registry=context.registry,
            externalizers=context.externalizers,
        )
        writer.write_root(result)
        writer.write_root(context.retained)
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
        modifieds = reader.read_root()
        reader.expect_end()
        if not isinstance(modifieds, list):
            raise RestoreError("full-restore payload root is not a list")
        table = match_maps(context.originals, modifieds)
        return _restore_decoded(reader, table, result, context)


def _restore_decoded(
    reader: ObjectReader, table: Dict[int, Any], result: Any,
    context: ClientRestoreContext,
) -> Tuple[Any, RestoreStats]:
    """Steps 5-6 over everything *reader* decoded.

    Every reply root after the first (the return value) is the policy's
    own list — the retained objects, or the slot indices — and not part
    of the caller's heap, so it is cut from the decoded objects. A list
    root sits at the start of its span when the stream built it there; a
    root that is a back reference built nothing to cut.
    """
    objects = reader.linear_map.objects
    cuts = [
        start
        for root, start, end in reader.linear_map.spans[1:]
        if start < end and objects[start] is root
    ]
    decoded = objects
    if cuts:
        decoded = list(objects)
        for start in reversed(cuts):
            del decoded[start]
    return context.engine.restore(
        table, decoded, result, reader.immutables, reader.resolved
    )


def _encode_index(index: int) -> bytes:
    """An old-object reference's payload; ``ObjectWriter`` writes the
    same bytes from its oldref table."""
    writer = BufferWriter()
    writer.write_uvarint(index)
    return writer.getvalue()


def _decode_index(payload: bytes) -> int:
    reader = BufferReader(payload)
    index = reader.read_uvarint()
    reader.expect_end()
    return index


class DeltaRestorePolicy(RestorePolicy):
    """Dirty-slot replies: capture every retained slot's state at
    deserialization time, compare at reply-encode time, and ship only the
    slots whose state changed (plus all new objects reachable from them
    and the return value). References to clean slots travel as their
    position in the caller's retained list.

    The reply is kind 4 (``delta-slots``): a header of delta-coded dirty
    indices followed by one serde stream. A caller requests ``delta`` and
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
        # Clean slots travel as their index: the writer's oldref table,
        # keyed by identity. ``retained`` keeps every key alive while the
        # writer runs, and holds each object once (a linear-map subset).
        oldrefs = dict(zip(map(id, retained), range(len(retained))))
        for index in dirty:
            del oldrefs[id(retained[index])]
        writer = ObjectWriter(
            profile=context.profile,
            registry=context.registry,
            externalizers=context.externalizers,
            oldrefs=oldrefs,
        )
        header = BufferWriter()
        header.write_uvarint(len(retained))
        header.write_uvarint(len(dirty))
        previous = -1
        for index in dirty:
            header.write_uvarint(index - previous - 1)
            previous = index
        writer.write_root(result)
        writer.write_root([retained[i] for i in dirty])
        metrics = context.metrics
        if metrics is not None:
            metrics.counter("delta.slots_dirty").add(len(dirty))
            metrics.counter("delta.slots_clean").add(len(retained) - len(dirty))
            if retained:
                metrics.distribution("delta.dirty_ratio").record(
                    len(dirty) / len(retained)
                )
        return header.getvalue() + writer.getvalue()

    def parse_response(
        self, payload: bytes, context: ClientRestoreContext
    ) -> Tuple[Any, Optional[RestoreStats]]:
        originals = context.originals
        header = BufferReader(payload)
        total = header.read_uvarint()
        if total != len(originals):
            raise RestoreError(
                f"delta-slots reply covers {total} slots, caller retained "
                f"{len(originals)}"
            )
        dirty_count = header.read_uvarint()
        dirty_indices: List[int] = []
        previous = -1
        for _ in range(dirty_count):
            index = previous + 1 + header.read_uvarint()
            dirty_indices.append(index)
            previous = index
        stream = header.read_view(header.remaining)

        def resolve(raw: bytes) -> Any:
            # An external: the original joins the decoded graph as a
            # value, outside the reader's linear map, so the engine
            # neither overwrites it nor adopts it.
            index = _decode_index(raw)
            try:
                return originals[index]
            except IndexError:
                raise RestoreError(
                    f"delta-slots payload references old object {index}"
                ) from None

        oldref = Externalizer(
            name=OLDREF_EXTERNALIZER,
            claims=lambda obj: False,  # never used on the caller
            replace=lambda obj: b"",
            resolve=resolve,
        )
        reader = ObjectReader(
            stream,
            profile=context.profile,
            registry=context.registry,
            externalizers=(oldref,) + tuple(context.externalizers),
        )
        result = reader.read_root()
        dirty_objects = reader.read_root()
        reader.expect_end()
        if not isinstance(dirty_objects, list):
            raise RestoreError("delta-slots payload root is not a list")
        table = match_sparse(originals, dirty_indices, dirty_objects)
        result, stats = _restore_decoded(reader, table, result, context)
        context.reply_info.update(
            kind="delta-slots", dirty=dirty_count, total=total
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
        kept_indices = [
            index
            for index, obj in enumerate(context.retained)
            if obj in still_reachable
        ]
        writer = ObjectWriter(
            profile=context.profile,
            registry=context.registry,
            externalizers=context.externalizers,
        )
        writer.write_root(result)
        writer.write_root(kept_indices)
        writer.write_root([context.retained[i] for i in kept_indices])
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
        kept_indices = reader.read_root()
        kept_objects = reader.read_root()
        reader.expect_end()
        if not isinstance(kept_indices, list) or not isinstance(kept_objects, list):
            raise RestoreError("dce payload index or object root is not a list")
        table = match_sparse(context.originals, kept_indices, kept_objects)
        return _restore_decoded(reader, table, result, context)


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
