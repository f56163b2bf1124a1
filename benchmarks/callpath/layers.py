"""The traced pass: where one call's time goes, layer by layer.

Nothing inside ``src/repro`` is instrumented. Each iteration makes the
same call four ways on identically generated inputs, with a span around
every call into a public function:

1. **live** — ``prepare_call`` → ``Channel.request`` against the server
   child → ``complete_call``: the three nested children of the root
   ``call`` span, i.e. exactly what a stub does minus ``client_call``'s
   own branching;
2. **in-process** — the same three steps against a replay endpoint in
   this process, with ``Dispatcher.handle`` standing where the wire was;
   ``rmi.handle`` hangs under the live ``transport.request`` so that
   request − handle is what the transport and server core cost;
3. **replays** — what prepare, handle and complete do *inside*
   (``ObjectWriter``, ``ObjectReader``, the policy's ``snapshot`` /
   ``build_response`` / ``parse_response``, the bound method), called
   directly and hung under the span they explain;
4. **stub** — ``stub.method(...)`` over ``inproc://``, whose excess over
   prepare + handle + complete is the stub/``client_call`` overhead.

All four must leave the caller seeing the same thing, and the same thing
a local call shows; any disagreement is a failed call.
"""

from __future__ import annotations

import socket
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from launch import Launch
from measure import Plan, Tally, call_failed, measure_launch
from repro.core.restore_protocol import (
    ClientRestoreContext,
    ServerRestoreContext,
    policy_by_name,
)
from repro.core.semantics import PassingMode, resolve_modes
from repro.nrmi.config import NRMIConfig
from repro.nrmi.invocation import (
    complete_call,
    compute_retained,
    compute_retained_indexed,
    prepare_call,
)
from repro.nrmi.runtime import Endpoint
from repro.rmi.protocol import (
    CAP_DELTA_SLOTS,
    CAP_SCHEMA_CACHE,
    REPLY_FLAG_SCHEMA_ACK,
    Status,
    decode_call,
    policy_from_wire,
    policy_wire_id,
    raise_if_busy,
    read_call_header,
    set_attempt,
    split_response,
)
from repro.rmi.remote_ref import RemoteDescriptor, is_opaque_remote
from repro.serde.codegen import codegen_metrics
from repro.serde.digest import digest_slots
from repro.serde.profiles import profile_by_name
from repro.serde.reader import ObjectReader
from repro.serde.schema import SchemaSession
from repro.serde.writer import ObjectWriter
from repro.transport.base import TransportSession
from repro.transport.framing import read_frame, write_frame
from repro.transport.reliability import call_with_retry
from repro.transport.shm import ShmChannel
from repro.util.buffers import BufferReader
from repro.util.ring import consumer_view, init_ring, producer_view, ring_region_size
from spans import Recorder
from stats import percentile
from workloads import ECHO_BYTES, SERVICES, Workload

_RING_CAPACITY = 4096
#: Untraced in-process calls before tracing starts: the replay link
#: negotiates its schema cache exactly as the live channel did in warm-up.
_LINK_WARMUP_CALLS = 4
#: Share of a launch's traced seconds spent on live calls; taking one
#: apart costs about three calls' worth of in-process work.
_LIVE_SHARE = 0.22
_PROBE_ROUNDS = 300


class ReplayLink:
    """Both halves of one connection's negotiated state, benchmark-owned.

    ``prepare_call`` reads ``schema_session`` (and ``stable_sessions``)
    off whatever it is handed as the channel; ``Dispatcher.handle`` takes
    the server-side session. Holding the pair here keeps the two in step
    without a channel in between, so the in-process requests carry the
    same schema references the live ones do.
    """

    stable_sessions = True

    def __init__(self) -> None:
        self.schema_session = SchemaSession()
        self.server_session = TransportSession()


class RawLink:
    """A framed byte pipe to the child's raw server (no rmi, no channel
    demux): ``write_frame``/``read_frame`` on a socket for tcp, and for
    shm the plain ``ShmChannel`` — the public way to a ring duplex."""

    def __init__(self, address: str) -> None:
        scheme, _, rest = address.partition("://")
        self._sock: Optional[socket.socket] = None
        self._channel: Optional[ShmChannel] = None
        if scheme == "shm":
            self._channel = ShmChannel(rest)
        else:
            host, _, port = rest.rpartition(":")
            self._sock = socket.create_connection((host, int(port)), timeout=30.0)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def round_trip(self, payload: bytes) -> bytes:
        if self._channel is not None:
            return self._channel.request(payload)
        write_frame(self._sock, payload)
        return read_frame(self._sock)

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
        if self._sock is not None:
            self._sock.close()


class TracedLaunch:
    """The traced iterations of one launch."""

    def __init__(self, launch: Launch, workload: Workload, recorder: Recorder) -> None:
        self.launch = launch
        self.workload = workload
        self.rec = recorder
        self.client = launch.client
        self.channel = self.client.channel_to(launch.address)
        self.descriptor: RemoteDescriptor = launch.stub.descriptor
        # The replay endpoint: same config, same bindings in the same
        # order as the child, so object ids line up.
        self.replay = Endpoint(
            name=f"callpath-replay-{id(self):x}", config=NRMIConfig(),
            resolver=launch.resolver,
        )
        for name, service in SERVICES.items():
            self.replay.bind(name, service())
        self.replay_stub = self.client.lookup(self.replay.address, workload.service)
        object_id = self.replay_stub.descriptor.object_id
        if object_id != self.descriptor.object_id:
            raise RuntimeError("replay endpoint exported the service under another id")
        self.replay_descriptor = RemoteDescriptor(self.replay.address, object_id)
        self.impl = self.replay.exports.get(object_id)
        self.link = ReplayLink()
        self.raw = RawLink(launch.raw_address)
        ring = bytearray(ring_region_size(_RING_CAPACITY))
        init_ring(ring, 0, _RING_CAPACITY)
        self.ring_tx = producer_view(ring, 0, _RING_CAPACITY)
        self.ring_rx = consumer_view(ring, 0, _RING_CAPACITY)
        self.ring_out = bytearray(ECHO_BYTES)
        self.busy = 0
        self._taken_apart = 0
        self._link_warm = False
        #: seed → ((prepare, request, complete) span ids, what the caller
        #: saw) for every live call that succeeded.
        self.live: Dict[int, Tuple[Tuple[int, int, int], Any]] = {}

    def close(self) -> None:
        self.raw.close()
        self.replay.close()

    # ----------------------------------------------------------- iterations

    def live_calls(self, seeds: Iterator[int], duration_s: float, tally: Tally) -> None:
        """Phase 1: live calls, back to back as in the untraced loop, with
        the root span's three children around the public functions a stub
        goes through."""
        rec, method, build = self.rec, self.workload.method, self.workload.build
        end = perf_counter() + duration_s
        while perf_counter() < end:
            seed = rec.trace = next(seeds)
            args, observe = build(seed)
            tally.attempted += 1
            try:
                with rec.span("call"):
                    with rec.span("nrmi.prepare") as prepare_id:
                        prepared = prepare_call(
                            self.client, self.descriptor, method, args,
                            channel=self.channel,
                        )
                    with rec.span("transport.request") as request_id:
                        response = self._request(prepared.request)
                    rec.count("transport.request_bytes", len(prepared.request))
                    rec.count("transport.reply_bytes", len(response))
                    prepared.release()
                    if response[0] == Status.BUSY:
                        self.busy += 1
                    with rec.span("nrmi.complete") as complete_id:
                        result = complete_call(self.client, prepared, response)
            except Exception as exc:  # noqa: BLE001 - counted, then the loop goes on
                call_failed(self.launch, tally, exc)
                self.channel = self.client.channel_to(self.launch.address)
                continue
            self.live[seed] = (prepare_id, request_id, complete_id), observe(result)

    def _request(self, frame: Any) -> bytes:
        """``Channel.request`` the way ``client_call`` issues it: bare
        when the client's retry policy is off, otherwise under
        ``call_with_retry`` with the attempt byte re-stamped on a resend."""
        retry = self.client.config.retry
        if not retry.enabled:
            return self.channel.request(frame)

        def send(attempt: int, remaining: Optional[float]) -> bytes:
            if attempt:
                set_attempt(frame, attempt)
            response = self.channel.request(frame, timeout=remaining)
            raise_if_busy(response)
            return response

        return call_with_retry(send, retry, rng=self.client.retry_rng)

    def take_apart(self, seeds: Iterator[int], deadline: float, tally: Tally) -> None:
        """Phase 2: take every live call made so far apart in-process,
        back to back, so a layer is timed as warm as it runs in the
        untraced loop. Calls still waiting at *deadline* are dropped."""
        if not self._link_warm:
            discard = Recorder()
            for _ in range(_LINK_WARMUP_CALLS):
                args, _observe = self.workload.build(next(seeds))
                self._in_process(discard, self.workload.method, args)
            self._link_warm = True
        live, self.live = self.live, {}
        for seed, (span_ids, seen) in live.items():
            if perf_counter() >= deadline:
                break
            self.rec.trace = seed
            if not self._take_apart(seed, span_ids, seen):
                tally.mismatch(seed)

    def probe_transport(self, tally: Tally) -> None:
        """Phase 3: PING through the channel, a raw framed round trip
        below it, and one ring record, each in its own tight loop."""
        tally.attempted += 1
        try:
            if not self._probe_transport():
                tally.mismatch(-1)
        except Exception as exc:  # noqa: BLE001 - the probes count as one call
            call_failed(self.launch, tally, exc)

    def _take_apart(self, seed: int, span_ids: Tuple[int, int, int], seen: Any) -> bool:
        """The in-process trio, the replays and the stub call for *seed*;
        False when any of them shows the caller something else than the
        live call did, or than a local call does."""
        rec, workload, method = self.rec, self.workload, self.workload.method
        prepare_id, request_id, complete_id = span_ids
        views = [seen]

        def stub_call() -> None:
            args, observe = workload.build(seed)
            with rec.span("inproc.stub_call"):
                result = getattr(self.replay_stub, method)(*args)
            views.append(observe(result))

        # Whichever of the stub call and the trio runs second runs warmer;
        # alternating the order keeps that out of their difference.
        self._taken_apart += 1
        stub_first = self._taken_apart % 2 == 0
        if stub_first:
            stub_call()
        args, observe = workload.build(seed)
        request, reply, handle_id, result = self._in_process(rec, method, args, request_id)
        views.append(observe(result))
        if not stub_first:
            stub_call()

        body, dirtied = self._replay_server(request, handle_id)
        if bytes(reply[1:]) != body:
            # The replay no longer does what Dispatcher.handle does: the
            # per-layer numbers would describe some other program.
            return False
        args, observe = workload.build(seed)
        views.append(observe(
            self._replay_client(args, reply, dirtied, prepare_id, complete_id)
        ))
        expected = workload.expected(seed)
        return all(view == expected for view in views)

    def _probe_transport(self) -> bool:
        rec = self.rec
        probe = bytes(range(ECHO_BYTES))
        ok = True
        for _ in range(_PROBE_ROUNDS):
            with rec.span("transport.ping"):
                ok &= self.client.ping(self.launch.address)
        for _ in range(_PROBE_ROUNDS):
            with rec.span("netloop.raw_rt"):
                echoed = self.raw.round_trip(probe)
            ok &= bytes(echoed) == probe
        for _ in range(_PROBE_ROUNDS):
            with rec.span("util.ring_record"):
                self.ring_tx.try_write(probe)
                self.ring_rx.try_read_into(self.ring_out)
            ok &= bytes(self.ring_out) == probe
        return ok

    def _in_process(
        self, rec: Recorder, method: str, args: Tuple[Any, ...],
        request_id: Optional[int] = None,
    ) -> Tuple[bytes, bytes, int, Any]:
        """prepare → Dispatcher.handle → complete against the replay
        endpoint; returns (request, reply, handle span, result)."""
        with rec.span("inproc.prepare"):
            prepared = prepare_call(
                self.client, self.replay_descriptor, method, args, channel=self.link
            )
        request = bytes(prepared.request)
        prepared.release()
        with rec.span("rmi.handle", parent=request_id) as handle_id:
            reply = self.replay.dispatcher.handle(
                request, session=self.link.server_session
            )
        with rec.span("inproc.complete"):
            result = complete_call(self.client, prepared, reply)
        return request, reply, handle_id, result

    def _replay_server(self, frame: bytes, handle_id: int) -> Tuple[bytes, int]:
        """What ``handle_call`` does with *frame*, one public call at a
        time; returns the reply body (applied-policy byte + payload) and
        how many retained slots the method really dirtied."""
        rec, endpoint = self.rec, self.replay
        reader = BufferReader(frame)
        reader.read_u8()  # Op.CALL
        call_id, attempt = read_call_header(reader)
        request = decode_call(reader, call_id=call_id, attempt=attempt)
        profile = profile_by_name(request.profile)
        externalizers = endpoint.externalizers()
        policy_name = request.policy
        if policy_name == "delta" and request.caps & CAP_DELTA_SLOTS:
            policy_name = "delta-slots"
        policy = policy_by_name(policy_name)
        fused = policy_name == "delta-slots"

        with rec.span("serde.decode_args", parent=handle_id):
            args_reader = ObjectReader(
                request.args_payload, profile=profile, externalizers=externalizers,
                schema_rx=self.link.server_session.schema_rx,
                digest_accessor=endpoint.accessor if fused else None,
            )
            args = [args_reader.read_root() for _ in request.modes]
            args_reader.expect_end()
        roots = [
            arg for arg, mode in zip(args, request.modes)
            if mode is PassingMode.BY_COPY_RESTORE
        ]
        retained: List[Any] = []
        predigested = None
        if policy_name != "none":
            retained, indices = compute_retained_indexed(
                args_reader.linear_map, roots, endpoint.accessor
            )
            if fused:
                predigested = args_reader.digest_table(indices)
        context = ServerRestoreContext(
            retained=retained, restore_roots=roots, profile=profile,
            accessor=endpoint.accessor, externalizers=externalizers,
            stop=is_opaque_remote, metrics=endpoint.metrics, predigested=predigested,
        )
        before = digest_slots(retained, endpoint.accessor) if retained else None
        with rec.span("core.snapshot", parent=handle_id):
            snapshot = policy.snapshot(context)
        with rec.span("rmi.service", parent=handle_id):
            result = getattr(self.impl, request.method)(*args)
        with rec.span("core.build_response", parent=handle_id):
            payload = policy.build_response(result, context, snapshot)
        dirtied = 0
        if before is not None:
            dirtied = len(before.dirty_indices(digest_slots(retained, endpoint.accessor)))
        applied = policy_wire_id(policy_name)
        if request.caps & CAP_SCHEMA_CACHE:
            applied |= REPLY_FLAG_SCHEMA_ACK
        return bytes([applied]) + payload, dirtied

    def _replay_client(
        self, args: Tuple[Any, ...], reply: bytes, dirtied: int,
        prepare_id: int, complete_id: int,
    ) -> Any:
        """The serde and restore halves of prepare/complete on *args*;
        *dirtied* is the server replay's count of really changed slots."""
        rec, client = self.rec, self.client
        externalizers = client.externalizers()
        session = self.link.schema_session
        pool = client.buffer_pool
        buffer = pool.acquire()
        with rec.span("serde.encode_args", parent=prepare_id):
            writer = ObjectWriter(
                profile=client.profile, externalizers=externalizers, buffer=buffer,
                schema_tx=session.tx if session.peer_ok else None,
            )
            for arg in args:
                writer.write_root(arg)
            encoded = writer.view()
        rec.count("serde.args_bytes", len(encoded))
        rec.count("serde.objects_per_call", len(writer.linear_map))
        encoded.release()
        roots = [
            arg for arg, mode in zip(args, resolve_modes(args))
            if mode is PassingMode.BY_COPY_RESTORE
        ]
        originals = (
            compute_retained(writer.linear_map, roots, client.accessor) if roots else []
        )
        pool.release(buffer)

        _status, reader = split_response(reply)
        policy = policy_by_name(policy_from_wire(reader.read_u8() & 0x7F))
        context = ClientRestoreContext(
            originals=originals, profile=client.profile, engine=client.engine,
            externalizers=externalizers,
        )
        body = reader.read_view(reader.remaining)
        with rec.span("core.parse_response", parent=complete_id):
            result, stats = policy.parse_response(body, context)
        rec.count(
            "core.restored_objects",
            stats.old_overwritten + stats.new_adopted if stats is not None else 0,
        )
        if context.reply_info.get("kind") == "delta-slots":
            shipped = context.reply_info["dirty"]
        else:
            shipped = len(originals)
        rec.count("core.reply_dirty_ratio", dirtied / shipped if shipped else 1.0)
        return result


class TracedPass:
    """All traced launches of a run, reduced to the per-layer metrics."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.busy = 0
        self._reference_p50s: List[float] = []

    def body(
        self, launch: Launch, workload: Workload, seeds: Iterator[int],
        plan: Plan, tally: Tally,
    ) -> dict:
        """One launch: the untraced reference windows, then the traced
        iterations on the same child."""
        traced = TracedLaunch(launch, workload, self.recorder)
        try:
            # Reference windows and live traced calls alternate, so the
            # budget is held against a figure taken at the same time of
            # day, not before a neighbour woke up.
            slice_s = plan.traced_s * _LIVE_SHARE / plan.windows
            measured = measure_launch(
                launch, workload, seeds, plan, tally,
                after_window=lambda: traced.live_calls(seeds, slice_s, tally),
            )
            # Taking a call apart costs one to three calls' worth of
            # in-process work, depending on the workload: go round until
            # the launch's traced seconds are used up.
            deadline = perf_counter() + plan.traced_s * (1 - _LIVE_SHARE)
            traced.take_apart(seeds, deadline, tally)
            while deadline - perf_counter() > 2 * slice_s:
                traced.live_calls(seeds, slice_s, tally)
                traced.take_apart(seeds, deadline, tally)
            traced.probe_transport(tally)
        finally:
            traced.close()
        self.busy += traced.busy
        self._reference_p50s += [w["call_p50_us"] for w in measured["windows"]]
        return measured

    def metrics(self, reference: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics; *reference* is the same run's untraced
        end-to-end reduction, which supplies the ``e2e.*`` diagnostics."""
        rec = self.recorder

        def p50(name: str) -> float:
            return percentile(rec.durations(name), 50) / 1e3

        def self_p50(name: str) -> float:
            return percentile(rec.self_times(name), 50) / 1e3

        def count_p50(name: str) -> float:
            return percentile(rec.counts[name], 50)

        stub = rec.by_trace("inproc.stub_call")
        parts = [rec.by_trace(n) for n in ("inproc.prepare", "rmi.handle", "inproc.complete")]
        stub_overhead = [
            stub[t] - sum(part[t] for part in parts)
            for t in stub if all(t in part for part in parts)
        ]
        compiled = codegen_metrics.counter("serde.codegen.compiled").value
        fallbacks = codegen_metrics.counter("serde.codegen.fallbacks").value
        requests = len(rec.durations("transport.request"))
        # Median against median: the attributed spans are medians over
        # all traced calls, so they are held against the median untraced
        # window, not against the best window the gated metric reports.
        attributed = p50("nrmi.prepare") + p50("transport.request") + p50("nrmi.complete")
        untraced_p50 = percentile(self._reference_p50s, 50)
        ratios = rec.counts["core.reply_dirty_ratio"]
        out = {
            "nrmi.prepare_us": p50("nrmi.prepare"),
            "nrmi.prepare_self_us": self_p50("nrmi.prepare"),
            "nrmi.complete_us": p50("nrmi.complete"),
            "nrmi.complete_self_us": self_p50("nrmi.complete"),
            "nrmi.stub_overhead_us": percentile(stub_overhead, 50) / 1e3,
            "serde.encode_args_us": p50("serde.encode_args"),
            "serde.decode_args_us": p50("serde.decode_args"),
            "serde.args_bytes": count_p50("serde.args_bytes"),
            "serde.objects_per_call": count_p50("serde.objects_per_call"),
            "serde.codegen_fallbacks": fallbacks / max(compiled + fallbacks, 1),
            "core.snapshot_us": p50("core.snapshot"),
            "core.build_response_us": p50("core.build_response"),
            "core.parse_response_us": p50("core.parse_response"),
            "core.restored_objects": count_p50("core.restored_objects"),
            "core.reply_dirty_ratio": sum(ratios) / len(ratios),
            "rmi.handle_us": p50("rmi.handle"),
            "rmi.handle_self_us": self_p50("rmi.handle"),
            "rmi.service_us": p50("rmi.service"),
            "transport.request_us": p50("transport.request"),
            "transport.wire_us": self_p50("transport.request"),
            "transport.ping_us": p50("transport.ping"),
            "transport.request_bytes": count_p50("transport.request_bytes"),
            "transport.reply_bytes": count_p50("transport.reply_bytes"),
            "transport.busy_share": self.busy / max(requests, 1),
            "netloop.raw_rt_us": p50("netloop.raw_rt"),
            "transport.channel_overhead_us": p50("transport.ping") - p50("netloop.raw_rt"),
            "util.ring_record_us": p50("util.ring_record"),
            "e2e.budget_residual_share": 1.0 - attributed / untraced_p50,
        }
        out.update({k: v for k, v in reference.items() if k.startswith("e2e.")})
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """count / p50 / self p50 per span name, for the report file."""
        rec = self.recorder
        return {
            name: {
                "count": len(rec.durations(name)),
                "p50_us": percentile(rec.durations(name), 50) / 1e3,
                "self_p50_us": percentile(rec.self_times(name), 50) / 1e3,
            }
            for name in rec.names()
        }
