"""The invocation pipeline: both halves of a remote call.

Client side (:func:`client_call`):

1. resolve each argument's passing mode from its type;
2. marshal all arguments into **one** stream (one handle table → aliasing
   across arguments preserved), recording the linear map as a side effect;
3. keep the subset of the map reachable from the copy-restore arguments —
   "create a linear map ... keep a reference to it" (algorithm step 1).
   Like the map itself, the subset falls out of step 2: the writer
   records per root the span of map positions first reached under it,
   and the copy-restore roots' spans *are* the subset. The graph is
   walked a second time only when a by-copy argument put mutable objects
   into the map ahead of a copy-restore root (that root may reach into
   them), and then the walk sees what the stream carried — no transient
   fields, ``__nrmi_replace__`` stand-ins instead of their originals;
4. send; on reply, hand the payload to the agreed restore policy, which
   matches maps and applies steps 4-6 of the algorithm.

Server side (:func:`handle_call`):

1. unmarshal the arguments, reconstructing the linear map during
   deserialization (the paper's optimization — the map never crosses the
   wire);
2. retain the same subset, computed by the same deterministic rule — the
   reader records the same spans over its index-aligned map — so the two
   endpoints' retained lists are index-aligned by construction;
3. run the method at full speed — no read/write barriers, no traffic;
4. let the policy build the response (return value + restore payload in
   one stream, so the return value shares structure with restored data).
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.core.semantics import PassingMode, resolve_modes
from repro.errors import (
    RemoteError,
    RemoteInvocationError,
    UnmarshalError,
)
from repro.nrmi.annotations import effective_policy
from repro.rmi.protocol import (
    CAP_DELTA_SLOTS,
    CAP_SCHEMA_CACHE,
    REPLY_FLAG_SCHEMA_ACK,
    CallRequest,
    Status,
    decode_call,
    encode_call,
    encode_call_header,
    exception_response,
    ok_response,
    policy_from_wire,
    policy_wire_id,
    raise_if_busy,
    set_attempt,
    split_response,
)
from repro.transport.reliability import call_with_retry
from repro.rmi.remote_ref import RemoteDescriptor, is_opaque_remote
from repro.serde.accessors import FieldAccessor
from repro.serde.linear_map import LinearMap
from repro.serde.profiles import profile_by_name
from repro.serde.reader import ObjectReader
from repro.serde.walker import reachable
from repro.serde.writer import ObjectWriter
from repro.util.buffers import BufferReader
from repro.util.identity import IdentitySet
from repro.util.logging import get_logger

logger = get_logger("nrmi.invocation")


class ReplyPolicyChooser:
    """Resolves the per-call ``auto`` restore policy from observed traffic.

    Tracks an exponentially-weighted dirty-slot ratio per remote address
    (fed by delta-slots replies). Sparse mutators keep the ratio low and
    ``auto`` keeps choosing ``delta``; once a peer's methods dirty most of
    the map, full replies are cheaper (no per-slot header, no state
    captures) and the chooser switches to ``full`` — probing ``delta``
    periodically so it can switch back when the workload changes.
    """

    #: Above this EWMA dirty ratio, full-map replies win.
    DENSE_THRESHOLD = 0.6
    #: While in full mode, retry delta every this many calls.
    PROBE_EVERY = 16
    #: EWMA weight of the newest observation.
    ALPHA = 0.3

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ratio: dict = {}       # address -> EWMA dirty ratio
        self._full_streak: dict = {} # address -> calls since last delta probe

    def choose(self, address: str) -> str:
        with self._lock:
            ratio = self._ratio.get(address)
            if ratio is None or ratio <= self.DENSE_THRESHOLD:
                return "delta"
            streak = self._full_streak.get(address, 0) + 1
            if streak >= self.PROBE_EVERY:
                self._full_streak[address] = 0
                return "delta"
            self._full_streak[address] = streak
            return "full"

    def observe(self, address: str, dirty: int, total: int) -> None:
        if total <= 0:
            return
        sample = dirty / total
        with self._lock:
            previous = self._ratio.get(address)
            if previous is None:
                self._ratio[address] = sample
            else:
                self._ratio[address] = (
                    previous + self.ALPHA * (sample - previous)
                )


def _retained_prefix(linear_map: LinearMap, roots: Sequence[Any]) -> Optional[int]:
    """Length of the map prefix the copy-restore roots' spans cover, or
    ``None`` when only a walk can tell.

    A root's span is what the serializer first reached under it, so the
    roots' spans are the retained set unless a root can reach into a span
    that is not one of theirs. That takes a by-copy argument that put
    mutable objects into the map *before* some copy-restore root was
    traversed; a trailing one holds only what no root reached. Spans that
    do not tile the map (a hand-built or shipped map, objects appended
    between roots) or roots that were never traversed as stream roots
    decide nothing either.
    """
    root_ids = {id(root) for root in roots}
    traversed = set()
    covered = retained_end = 0
    by_copy_objects = False
    for root, start, end in linear_map.spans:
        if start != covered:
            return None
        covered = end
        if id(root) in root_ids:
            if by_copy_objects:
                return None
            traversed.add(id(root))
            retained_end = end
        elif end > start:
            by_copy_objects = True
    if covered != len(linear_map) or traversed != root_ids:
        return None
    return retained_end


def compute_retained_indexed(
    linear_map: LinearMap, roots: Sequence[Any], accessor: FieldAccessor
) -> Tuple[List[Any], List[int]]:
    """The retained subset plus each member's position in the linear map.

    The subset is the part of the map reachable from the copy-restore
    roots *as the serializer traversed them*. Normally that is read off
    the spans ``write_root``/``read_root`` recorded, with no second pass
    over the graph; both endpoints hold the same spans over index-aligned
    maps, so position *i* on one side corresponds to position *i* on the
    other — the invariant that makes step 4's match-up positional. The
    positions let the server look up states captured per linear-map slot
    during deserialization without re-walking anything.

    When the spans cannot decide (see :func:`_retained_prefix`) the graph
    is walked, seeing what the stream carried: transient fields are not
    followed and ``__nrmi_replace__`` stand-ins are.
    """
    if not roots:
        return [], []
    prefix = _retained_prefix(linear_map, roots)
    if prefix is not None:
        return linear_map.objects[:prefix], list(range(prefix))
    reach = IdentitySet()
    for obj in reachable(
        list(roots), accessor, mutable_only=True, stop=is_opaque_remote,
        written=linear_map.replacements,
    ):
        reach.add(obj)
    retained: List[Any] = []
    indices: List[int] = []
    for index, obj in enumerate(linear_map):
        if obj in reach:
            retained.append(obj)
            indices.append(index)
    return retained, indices


def compute_retained(
    linear_map: LinearMap, roots: Sequence[Any], accessor: FieldAccessor
) -> List[Any]:
    """The subset of the linear map reachable from the copy-restore roots."""
    return compute_retained_indexed(linear_map, roots, accessor)[0]


def _restore_roots(args: Sequence[Any], modes: Sequence[PassingMode]) -> List[Any]:
    return [
        arg
        for arg, mode in zip(args, modes)
        if mode is PassingMode.BY_COPY_RESTORE
    ]


class PreparedCall:
    """A marshalled request plus the caller-side state its reply needs.

    When the endpoint owns a buffer pool, ``request`` is a ``memoryview``
    over a pooled encode buffer; :meth:`release` returns that storage to
    the pool once the frame has been sent. Unreleased buffers simply fall
    to the garbage collector — release is an optimization, not a safety
    requirement.
    """

    __slots__ = (
        "request", "originals", "descriptor", "method", "_pool", "_buffer",
        "schema_session", "schemas_defined", "schema_flagged",
    )

    def __init__(
        self,
        request: bytes,
        originals: List[Any],
        descriptor: RemoteDescriptor,
        method: str,
        pool: Any = None,
        buffer: Any = None,
        schema_session: Any = None,
        schemas_defined: Sequence[Any] = (),
        schema_flagged: bool = False,
    ) -> None:
        self.request = request
        self.originals = originals
        self.descriptor = descriptor
        self.method = method
        self._pool = pool
        self._buffer = buffer
        # Schema-cache state the reply hands back to the session: the
        # channel's session (when the cap was advertised), the pending
        # definitions this stream carried, and whether the stream was
        # actually encoded in schema mode.
        self.schema_session = schema_session
        self.schemas_defined = schemas_defined
        self.schema_flagged = schema_flagged

    def release(self) -> None:
        """Return the pooled request buffer; idempotent, safe without a pool."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        if type(self.request) is memoryview:
            self.request.release()
        pool.release(self._buffer)
        self._buffer = None


class _CallPlan:
    """Everything about one call that is decided *before* marshalling."""

    __slots__ = (
        "args", "modes", "policy_name", "kwarg_names", "caps",
        "schema_session", "use_schema", "ship_map",
    )


def _plan_call(
    endpoint: Any,
    descriptor: RemoteDescriptor,
    args: Tuple[Any, ...],
    policy_name: str | None,
    kwargs: dict | None,
    channel: Any,
) -> _CallPlan:
    """Resolve modes, restore policy, capability bits, and schema-cache
    participation — shared by the staged and zero-copy encode paths."""
    plan = _CallPlan()
    kwarg_items = tuple((kwargs or {}).items())
    plan.kwarg_names = tuple(name for name, _value in kwarg_items)
    plan.args = tuple(args) + tuple(value for _name, value in kwarg_items)
    plan.modes = resolve_modes(plan.args)
    has_restorable = any(
        mode is PassingMode.BY_COPY_RESTORE for mode in plan.modes
    )
    if not has_restorable:
        policy_name = "none"
    elif policy_name is None:
        policy_name = endpoint.config.policy
    if policy_name == "auto":
        # "auto" never crosses the wire: resolve it here from the per-
        # address dirty-ratio history (delta while replies stay sparse,
        # full once this peer's methods dirty most of the map).
        chooser = getattr(endpoint, "reply_chooser", None)
        policy_name = (
            chooser.choose(descriptor.address) if chooser is not None else "delta"
        )
    plan.policy_name = policy_name
    # Advertise that complete_call decodes the dirty-slot reply frame; the
    # server only uses it for "delta" calls, so the bit is harmless on
    # every other policy.
    caps = CAP_DELTA_SLOTS

    plan.schema_session = None
    plan.use_schema = False
    if endpoint.config.schema_cache and channel is not None:
        schema_session = getattr(channel, "schema_session", None)
        if schema_session is not None:
            plan.schema_session = schema_session
            caps |= CAP_SCHEMA_CACHE
            # Flag the stream only once (a) the peer has acked the
            # capability and (b) schema references are safe: either no
            # retries (each frame is sent on at most one connection) or a
            # transport whose sessions cannot silently change between
            # attempts. A defs-only stream would be a net byte loss, so
            # the flag itself waits for the same conditions as refs.
            plan.use_schema = schema_session.peer_ok and (
                not endpoint.config.retry.enabled or channel.stable_sessions
            )
    plan.caps = caps
    plan.ship_map = endpoint.config.ship_linear_map and policy_name != "none"
    return plan


def prepare_call(
    endpoint: Any,
    descriptor: RemoteDescriptor,
    method: str,
    args: Tuple[Any, ...],
    policy_name: str | None = None,
    kwargs: dict | None = None,
    channel: Any = None,
) -> PreparedCall:
    """Marshal one call into a request, recording the retained originals.

    When *channel* is given and carries a schema session, the call takes
    part in the session-cached wire schema negotiation: the capability is
    advertised, and once the peer has acked, argument streams are encoded
    against the connection's schema cache.
    """
    plan = _plan_call(endpoint, descriptor, args, policy_name, kwargs, channel)
    args = plan.args
    modes = plan.modes
    policy_name = plan.policy_name
    kwarg_names = plan.kwarg_names
    caps = plan.caps
    schema_session = plan.schema_session
    use_schema = plan.use_schema
    ship_map = plan.ship_map
    profile = endpoint.profile
    externalizers = endpoint.externalizers()
    # Steady-state calls allocate no fresh write buffers: the argument
    # stream and the request envelope are both built in recycled pool
    # storage, and the args bytes flow into the envelope through a view.
    pool = getattr(endpoint, "buffer_pool", None)
    args_buffer = pool.acquire() if pool is not None else None
    envelope_buffer = None
    args_payload = None
    writer = ObjectWriter(
        profile=profile, externalizers=externalizers, buffer=args_buffer,
        schema_tx=schema_session.tx if use_schema else None,
    )
    try:
        for arg in args:
            writer.write_root(arg)
        if ship_map:
            # Ablation: transmit the map as an extra root. Its entries are all
            # back references, so this costs ~2 bytes per reachable object plus
            # an extra encode/decode pass — the cost optimization 5.2.4 #1 avoids.
            writer.write_root(list(writer.linear_map.objects))
        args_payload = writer.view() if pool is not None else writer.getvalue()

        originals: List[Any] = []
        if policy_name != "none":
            originals = compute_retained(
                writer.linear_map, _restore_roots(args, modes), endpoint.accessor
            )

        envelope_buffer = pool.acquire() if pool is not None else None
        request = encode_call(
            CallRequest(
                object_id=descriptor.object_id,
                method=method,
                policy=policy_name,
                profile=profile.name,
                modes=modes,
                args_payload=args_payload,
                ship_map=ship_map,
                kwarg_names=kwarg_names,
                # Every call gets an at-most-once identity: should any layer
                # (retry, a duplicated frame) deliver this request twice, the
                # server's reply cache collapses it to one execution.
                call_id=endpoint.next_call_id(),
                caps=caps,
            ),
            buffer=envelope_buffer,
        )
    except BaseException:
        # Failed marshal/encode: hand every pooled buffer back (and drop
        # the writer's memo pins) instead of leaking them until GC — a
        # chaos run injecting encode faults would otherwise drain the pool.
        if args_payload is not None and type(args_payload) is memoryview:
            args_payload.release()
        writer.discard(pool, args_buffer)
        if pool is not None:
            pool.release(envelope_buffer)
        raise
    if pool is not None:
        # The args stream has been copied into the envelope; its buffer
        # can go straight back to the pool.
        args_payload.release()
        pool.release(args_buffer)
    return PreparedCall(
        request=request,
        originals=originals,
        descriptor=descriptor,
        method=method,
        pool=pool,
        buffer=envelope_buffer,
        schema_session=schema_session,
        schemas_defined=writer.schemas_defined,
        schema_flagged=use_schema,
    )


def complete_call(endpoint: Any, prepared: PreparedCall, response: bytes) -> Any:
    """Apply one reply: raise remote errors or run the restore phase."""
    descriptor = prepared.descriptor
    method = prepared.method
    profile = endpoint.profile
    externalizers = endpoint.externalizers()
    status, reader = split_response(response)
    session = prepared.schema_session
    if status is Status.EXCEPTION:
        # No schema confirmation here: the server may have raised before
        # decoding the arguments (bad method, missing export), in which
        # case any definitions this stream carried were never registered.
        exc_type = reader.read_str()
        message = reader.read_str()
        remote_tb = reader.read_str()
        raise RemoteInvocationError(exc_type, message, remote_tb)
    if status is Status.PROTOCOL_ERROR:
        if session is not None and prepared.schema_flagged:
            # A schema-mode stream the server could not decode — e.g. a
            # reference to an id its connection state no longer holds.
            # Renegotiating from scratch self-heals the next call.
            session.reset()
        raise RemoteError(f"protocol error from {descriptor.address}: {reader.read_str()}")

    # The response leads with the policy the SERVER actually applied: a
    # method-level @restore_policy/@no_restore annotation may have
    # overridden the caller's request (never upgrading from 'none').
    # Its high bit is the schema-cache acknowledgement.
    applied = reader.read_u8()
    applied_policy_name = policy_from_wire(applied & 0x7F)
    if applied_policy_name == "delta":
        # Requests name "delta"; replies to it are kind 4 or a full map.
        raise UnmarshalError(f"reply for {method!r} uses the retired delta kind 2")
    if session is not None:
        if applied & REPLY_FLAG_SCHEMA_ACK:
            session.record_ack()
        # An OK reply proves the server decoded this stream's arguments,
        # so any schema definitions it carried are registered over there:
        # later streams on this connection may reference them.
        session.confirm(prepared.schemas_defined)
    # Zero-copy: the restore payload is parsed in place from the response
    # frame (parse_response consumes it synchronously).
    payload = reader.read_view(reader.remaining)
    policy = policy_by_name(applied_policy_name)
    context = ClientRestoreContext(
        originals=prepared.originals,
        profile=profile,
        engine=endpoint.engine,
        externalizers=externalizers,
    )
    try:
        result, stats = policy.parse_response(payload, context)
    except RemoteError:
        raise
    except Exception as exc:
        raise UnmarshalError(f"failed to unmarshal reply for {method!r}: {exc}") from exc
    endpoint.record_restore_stats(stats)
    info = context.reply_info
    if info.get("kind") == "delta-slots":
        dirty, total = info.get("dirty", 0), info.get("total", 0)
        metrics = endpoint.metrics
        metrics.counter("delta.slot_replies").add()
        if total:
            metrics.distribution("delta.reply_dirty_ratio").record(dirty / total)
        chooser = getattr(endpoint, "reply_chooser", None)
        if chooser is not None:
            chooser.observe(descriptor.address, dirty, total)
    return result


def _zero_copy_call(
    endpoint: Any,
    channel: Any,
    descriptor: RemoteDescriptor,
    method: str,
    args: Tuple[Any, ...],
    policy_name: str | None,
    kwargs: dict | None,
) -> Any:
    """One remote call with both client-side payload copies deleted.

    Instead of marshalling into a pooled staging buffer and handing the
    channel a finished frame, the envelope header and the argument
    stream are encoded *through* the channel, directly into its tx-ring
    reservation (spilling to a pooled buffer only when the frame
    outgrows the contiguous span). The reply is decoded off a borrowed
    rx-ring slice inside the channel's exchange — ``complete_call``
    materializes every decoded value, so nothing aliases ring memory
    once the borrow is consumed. Wire bytes are identical to the staged
    path's.
    """
    plan = _plan_call(endpoint, descriptor, args, policy_name, kwargs, channel)
    profile = endpoint.profile
    externalizers = endpoint.externalizers()
    request = CallRequest(
        object_id=descriptor.object_id,
        method=method,
        policy=plan.policy_name,
        profile=profile.name,
        modes=plan.modes,
        args_payload=b"",  # encoded in place, after the header
        ship_map=plan.ship_map,
        kwarg_names=plan.kwarg_names,
        call_id=endpoint.next_call_id(),
        caps=plan.caps,
    )
    originals: List[Any] = []
    schemas_defined: Sequence[Any] = ()

    def encode(writer: Any) -> None:
        nonlocal originals, schemas_defined
        encode_call_header(writer, request)
        obj_writer = ObjectWriter(
            profile=profile,
            externalizers=externalizers,
            schema_tx=plan.schema_session.tx if plan.use_schema else None,
            out=writer,
        )
        try:
            for arg in plan.args:
                obj_writer.write_root(arg)
            if plan.ship_map:
                obj_writer.write_root(list(obj_writer.linear_map.objects))
            if plan.policy_name != "none":
                originals = compute_retained(
                    obj_writer.linear_map,
                    _restore_roots(plan.args, plan.modes),
                    endpoint.accessor,
                )
        except BaseException:
            # The channel rolls the ring reservation back; dropping the
            # writer's memo pins here keeps the failed encode leak-free.
            obj_writer.discard()
            raise
        schemas_defined = obj_writer.schemas_defined

    def consume(response: Any) -> Any:
        prepared = PreparedCall(
            request=b"",
            originals=originals,
            descriptor=descriptor,
            method=method,
            schema_session=plan.schema_session,
            schemas_defined=schemas_defined,
            schema_flagged=plan.use_schema,
        )
        return complete_call(endpoint, prepared, response)

    return channel.request_zero_copy(
        encode, consume, pool=getattr(endpoint, "buffer_pool", None)
    )


def client_call(
    endpoint: Any,
    descriptor: RemoteDescriptor,
    method: str,
    args: Tuple[Any, ...],
    policy_name: str | None = None,
    kwargs: dict | None = None,
) -> Any:
    """Perform one remote call through *endpoint*; returns the result.

    Keyword arguments travel as trailing named roots; their passing modes
    resolve from their types exactly like positional arguments.

    Transport failures are handled per the endpoint's
    :class:`~repro.transport.reliability.RetryPolicy`: transient errors
    are retried with exponential backoff (the request's call ID lets the
    server deduplicate an attempt that already executed), the per-call
    deadline bounds all attempts together, and a per-address circuit
    breaker fails fast when the target keeps breaking.

    Raises :class:`RemoteInvocationError` if the remote method raised, and
    transport/marshalling errors for middleware failures.
    """
    # Resolved before marshalling: the channel's schema session decides
    # whether the argument stream may use the connection's schema cache.
    channel = endpoint.channel_to(descriptor.address)
    retry = endpoint.config.retry
    if (
        not retry.enabled
        and endpoint.breaker_for(descriptor.address) is None
        and getattr(channel, "supports_zero_copy", False)
        and endpoint.config.shm_zero_copy
        # Chunked-buffer profiles (legacy) build their stream in chunks
        # and cannot target an external sink; they keep the staged path.
        and not endpoint.profile.chunked_buffers
    ):
        # Hot path over shm: encode straight into the tx ring and decode
        # the reply off a borrowed rx-ring slice. Reliability machinery
        # is incompatible by construction — a resend needs a retained
        # frame to re-stamp, which is exactly the copy this path deletes.
        return _zero_copy_call(
            endpoint, channel, descriptor, method, args, policy_name, kwargs
        )
    prepared = prepare_call(
        endpoint, descriptor, method, args, policy_name=policy_name,
        kwargs=kwargs, channel=channel,
    )
    breaker = endpoint.breaker_for(descriptor.address)
    try:
        if breaker is None and not retry.enabled:
            # Hot path: reliability machinery fully disabled.
            response = channel.request(prepared.request)
        else:
            metrics = endpoint.metrics
            frame = prepared.request
            if not (
                isinstance(frame, bytearray)
                or (isinstance(frame, memoryview) and not frame.readonly)
            ):
                # Immutable frame (legacy no-pool path): one mutable copy
                # so the attempt counter can be re-stamped across resends.
                frame = bytearray(frame)

            def send(attempt: int, remaining: float | None) -> bytes:
                if attempt:
                    # Pooled frames are writable views: the attempt byte
                    # sits at a fixed offset, so resends re-stamp it
                    # without re-marshalling the arguments.
                    set_attempt(frame, attempt)
                    metrics.counter("calls.retries").add()
                response = channel.request(frame, timeout=remaining)
                # A BUSY shed must surface *inside* the retry boundary:
                # to the transport it is a successful exchange, but to
                # the call it is a retryable failure (the request never
                # executed), so backoff-and-retry applies.
                raise_if_busy(response)
                return response

            def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
                logger.debug(
                    "retrying %s on %s (attempt %d) after %s: backoff %.3fs",
                    method,
                    descriptor.address,
                    attempt,
                    exc,
                    delay,
                )

            try:
                response = call_with_retry(
                    send,
                    retry,
                    rng=endpoint.retry_rng,
                    breaker=breaker,
                    on_retry=on_retry,
                )
            except Exception as exc:
                from repro.errors import (
                    CircuitOpenError,
                    DeadlineExceededError,
                    ServerBusyError,
                )

                if isinstance(exc, DeadlineExceededError):
                    metrics.counter("calls.deadline_exceeded").add()
                elif isinstance(exc, CircuitOpenError):
                    metrics.counter("calls.breaker_rejected").add()
                elif isinstance(exc, ServerBusyError):
                    # Every retry attempt was shed: the server stayed
                    # saturated (or draining) through the whole backoff
                    # schedule.
                    metrics.counter("calls.server_busy").add()
                raise
    finally:
        prepared.release()
    return complete_call(endpoint, prepared, response)


def handle_call(
    endpoint: Any, reader: BufferReader, call_id: int = 0, attempt: int = 0,
    session: Any = None,
) -> bytes:
    """Server half: decode, retain, execute, build the restore response.

    *session* is the transport's per-connection state (None for
    session-less carriers): it holds the receive side of the schema-cache
    negotiation, and its presence is what lets this endpoint acknowledge
    the client's :data:`CAP_SCHEMA_CACHE` advertisement.
    """
    request = decode_call(reader, call_id=call_id, attempt=attempt)
    profile = profile_by_name(request.profile)
    externalizers = endpoint.externalizers()

    # Method resolution and policy negotiation run BEFORE the arguments
    # are decoded: the effective policy decides whether the decoder
    # captures slot states as it traverses (the fused decode+capture
    # pass), and a bad method is rejected without paying for a decode.
    impl = endpoint.exports.get(request.object_id)
    if request.method.startswith("_"):
        raise RemoteError(f"refusing to dispatch private method {request.method!r}")
    allowed = endpoint.exports.allowed_methods(request.object_id)
    if allowed is not None and request.method not in allowed:
        raise RemoteError(
            f"method {request.method!r} is outside the remote interface "
            f"of object {request.object_id}"
        )
    target = getattr(impl, request.method, None)
    if not callable(target):
        raise RemoteError(
            f"{type(impl).__name__} has no remote method {request.method!r}"
        )

    policy_name = effective_policy(request.policy, target)
    if policy_name == "delta":
        # A caller that can decode dirty-slot frames gets reply kind 4;
        # any other caller gets a full-map reply, which every client
        # decodes. Legal because the reply leads with the policy applied.
        policy_name = "delta-slots" if request.caps & CAP_DELTA_SLOTS else "full"
    policy = policy_by_name(policy_name)

    # Delta calls capture every slot's state as its frame finishes — the
    # paper's "keep a reference to the map" walk and the delta snapshot
    # collapse into the decode traversal, so the retained map is never
    # re-walked before the method runs.
    fuse_digest = policy_name == "delta-slots" and not request.ship_map
    args_reader = ObjectReader(
        request.args_payload,
        profile=profile,
        externalizers=externalizers,
        schema_rx=session.schema_rx if session is not None else None,
        digest_accessor=endpoint.accessor if fuse_digest else None,
    )
    args = [args_reader.read_root() for _ in request.modes]
    shipped_map: List[Any] | None = None
    if request.ship_map:
        shipped_map = args_reader.read_root()
    args_reader.expect_end()

    roots = _restore_roots(args, request.modes)
    retained: List[Any] = []
    predigested = None
    if policy_name != "none":
        if shipped_map is not None:
            # Ablation path: trust the transmitted map instead of the one
            # reconstructed during deserialization.
            retained = compute_retained(
                LinearMap(shipped_map), roots, endpoint.accessor
            )
        else:
            retained, retained_indices = compute_retained_indexed(
                args_reader.linear_map, roots, endpoint.accessor
            )
            if fuse_digest:
                predigested = args_reader.digest_table(retained_indices)

    context = ServerRestoreContext(
        retained=retained,
        restore_roots=roots,
        profile=profile,
        accessor=endpoint.accessor,
        externalizers=externalizers,
        stop=is_opaque_remote,
        metrics=endpoint.metrics,
        predigested=predigested,
    )
    snapshot = policy.snapshot(context)

    positional = args
    keyword = {}
    if request.kwarg_names:
        split = len(args) - len(request.kwarg_names)
        positional = args[:split]
        keyword = dict(zip(request.kwarg_names, args[split:]))
    try:
        result = target(*positional, **keyword)
    except Exception as exc:  # noqa: BLE001 - becomes the remote exception
        logger.debug(
            "remote method %s.%s raised %s: %s",
            type(impl).__name__,
            request.method,
            type(exc).__name__,
            exc,
        )
        return exception_response(
            type(exc).__name__, str(exc), traceback.format_exc()
        )

    response_payload = policy.build_response(result, context, snapshot)
    applied = policy_wire_id(policy_name)
    if (
        session is not None
        and request.caps & CAP_SCHEMA_CACHE
        and endpoint.config.schema_cache
    ):
        # Acknowledge the schema-cache capability on the applied-policy
        # byte's high bit: this connection keeps per-session decode state,
        # so the client may start encoding against its schema cache.
        applied |= REPLY_FLAG_SCHEMA_ACK
    return ok_response(bytes([applied]) + response_payload)
