"""The endpoint runtime: one NRMI/RMI node.

An :class:`Endpoint` is a peer — simultaneously server (export table,
dispatcher, registry) and client (stubs, pointers, channels). That
symmetry matters for the paper's call-by-reference experiment, where the
*client* exports its tree nodes and the server calls back into them.

Endpoints are reachable through ``inproc://`` addresses by default (each
registers itself with the resolver); :meth:`Endpoint.serve_tcp` also
exposes the same dispatcher over real sockets.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import uuid
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Iterator, Optional, Tuple

from repro.core.copy_restore import RestoreEngine, RestoreStats
from repro.core.markers import Remote
from repro.errors import RemoteError, TransportError
from repro.nrmi.config import NRMIConfig
from repro.nrmi.invocation import ReplyPolicyChooser, client_call
from repro.rmi.dispatcher import Dispatcher
from repro.rmi.export import ExportTable
from repro.rmi.protocol import (
    Status,
    encode_dgc_release,
    encode_dgc_renew,
    encode_field_get,
    encode_field_set,
    encode_ping,
    split_response,
)
from repro.rmi.registry import REGISTRY_OBJECT_ID, RegistryService
from repro.rmi.remote_ref import (
    POINTER_EXT,
    POINTER_VALUE_TYPES,
    REMOTE_EXT,
    RemoteDescriptor,
    RemotePointer,
    RemoteStub,
    is_opaque_remote,
)
from repro.serde.accessors import accessor_by_name
from repro.serde.profiles import profile_by_name
from repro.serde.reader import ObjectReader
from repro.serde.registry import Externalizer
from repro.serde.writer import ObjectWriter
from repro.transport.base import Channel
from repro.transport.reliability import BreakerRegistry, CircuitBreaker
from repro.transport.resolver import ChannelResolver, global_resolver
from repro.transport.shm import ShmServer
from repro.transport.stream import StreamServer
from repro.transport.tcp import TcpServer
from repro.transport.uds import UdsServer
from repro.util.rng import DeterministicRandom
from repro.util.buffers import BufferPool, BufferReader, BufferWriter
from repro.util.metrics import MetricsRegistry
from repro.errors import RemoteInvocationError


class Endpoint:
    """One middleware node: exports objects, makes and serves remote calls."""

    def __init__(
        self,
        name: Optional[str] = None,
        config: Optional[NRMIConfig] = None,
        resolver: ChannelResolver = global_resolver,
    ) -> None:
        self.config = config if config is not None else NRMIConfig()
        self.resolver = resolver
        self.profile = profile_by_name(self.config.profile)
        self.accessor = accessor_by_name(self.config.implementation)
        self.engine = RestoreEngine(accessor=self.accessor, opaque=is_opaque_remote)
        self.exports = ExportTable(
            leak_budget=self.config.leak_budget,
            lease_seconds=self.config.lease_seconds,
        )
        self.registry_service = RegistryService()
        registry_id = self.exports.export(self.registry_service, pin=True)
        if registry_id != REGISTRY_OBJECT_ID:  # pragma: no cover - invariant
            raise RemoteError("registry must receive the well-known object id")
        self.metrics = MetricsRegistry()
        # Recycled encode-buffer storage for the invocation pipeline:
        # steady-state calls marshal into pooled bytearrays instead of
        # allocating fresh write buffers per call.
        self.buffer_pool = BufferPool()
        self.dispatcher = Dispatcher(self)
        self.name = name or f"ep-{uuid.uuid4().hex[:10]}"
        # At-most-once identity: call IDs are unique per endpoint lifetime
        # (random 32-bit session prefix + sequence) so a reply cached for
        # one call can never answer a different one.
        self._call_id_prefix = (uuid.uuid4().int & 0x7FFFFFFF) or 1
        self._call_id_seq = itertools.count(1)
        # Backoff jitter draws from a stream seeded by the endpoint name:
        # deterministic under test, decorrelated across endpoints.
        self.retry_rng = DeterministicRandom(zlib.crc32(self.name.encode("utf-8")))
        # Resolves the "auto" restore policy per call from the dirty-slot
        # ratios observed in this endpoint's delta replies.
        self.reply_chooser = ReplyPolicyChooser()
        self._breakers = BreakerRegistry(
            self.config.breaker, on_transition=self._record_breaker_transition
        )
        self.address = resolver.register_inproc(self.name, self.dispatcher.handle)
        self._tcp_server: Optional[TcpServer] = None
        self._uds_server: Optional[StreamServer] = None
        self._shm_server: Optional[StreamServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self._stats_lock = threading.Lock()
        self.last_restore_stats: Optional[RestoreStats] = None
        self._externalizers = (
            self._make_remote_externalizer(),
            self._make_pointer_externalizer(),
        )

    # ------------------------------------------------------------ lifecycle

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Additionally expose this endpoint over TCP; returns the address.

        Stubs minted after this call carry the TCP address, so they stay
        valid for peers in other processes.
        """
        if self._tcp_server is None:
            self._tcp_server = TcpServer(
                self.dispatcher.handle,
                host=host,
                port=port,
                **self._server_options(),
            )
            self.address = self._tcp_server.address
        return self._tcp_server.address

    def _server_options(self) -> dict:
        """Staged-server sizing and overload policy from the config."""
        return {
            "workers": self.config.server_workers,
            "queue_capacity": self.config.queue_capacity,
            "max_inflight_per_conn": self.config.max_inflight_per_conn,
            "overload_policy": self.config.overload_policy,
            "metrics": self.metrics,
            # Only shm duplexes are zero-copy capable; socket transports
            # accept and ignore the knob.
            "zero_copy": self.config.shm_zero_copy,
        }

    def serve_uds(self, path: Optional[str] = None) -> str:
        """Additionally expose this endpoint over a Unix domain socket.

        Returns the ``uds://<path>`` address (a fresh temp-dir socket
        when *path* is omitted). Stubs minted after this call carry the
        UDS address, so they stay valid for other processes on this
        host. Raises :class:`~repro.errors.TransportError` on platforms
        without ``AF_UNIX``.
        """
        if self._uds_server is None:
            self._uds_server = UdsServer(
                self.dispatcher.handle, path=path, **self._server_options()
            )
            self.address = self._uds_server.address
        return self._uds_server.address

    def serve_shm(self, name: Optional[str] = None) -> str:
        """Additionally expose this endpoint over shared-memory rings.

        Returns the ``shm://<name>`` address (a fresh name when omitted).
        Stubs minted after this call carry the shm address, so they stay
        valid for co-located processes. Raises
        :class:`~repro.errors.TransportError` on platforms without
        ``AF_UNIX`` + ``SCM_RIGHTS`` fd passing.
        """
        if self._shm_server is None:
            self._shm_server = ShmServer(
                self.dispatcher.handle, name=name, **self._server_options()
            )
            self.address = self._shm_server.address
        return self._shm_server.address

    def serve_remote(self, **kwargs: Any) -> str:
        """Expose this endpoint over the socket transport the config picks.

        ``config.transport == "tcp"`` forwards *kwargs* to
        :meth:`serve_tcp` (host/port), ``"uds"`` to :meth:`serve_uds`
        (path), ``"shm"`` to :meth:`serve_shm` (name); returns the
        resulting address either way.
        """
        if self.config.transport == "uds":
            return self.serve_uds(**kwargs)
        if self.config.transport == "shm":
            return self.serve_shm(**kwargs)
        return self.serve_tcp(**kwargs)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.resolver.unregister_inproc(self.name)
        if self._tcp_server is not None:
            self._tcp_server.stop()
        if self._uds_server is not None:
            self._uds_server.stop()
        if self._shm_server is not None:
            self._shm_server.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        sweeper_stop = getattr(self, "_sweeper_stop", None)
        if sweeper_stop is not None:
            sweeper_stop.set()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------- externalizers

    def externalizers(self) -> Tuple[Externalizer, ...]:
        """Per-call serialization hooks giving remote objects by-reference
        semantics on this endpoint."""
        return self._externalizers

    def _make_remote_externalizer(self) -> Externalizer:
        def claims(obj: Any) -> bool:
            return isinstance(obj, (Remote, RemoteStub))

        def replace(obj: Any) -> bytes:
            if isinstance(obj, RemoteStub):
                return obj.descriptor.encode()
            object_id = self.exports.export_marshalled(obj)
            return RemoteDescriptor(self.address, object_id).encode()

        def resolve(payload: bytes) -> Any:
            descriptor = RemoteDescriptor.decode(payload)
            if descriptor.address == self.address:
                return self.exports.get(descriptor.object_id)
            return RemoteStub(self, descriptor)

        return Externalizer(REMOTE_EXT, claims, replace, resolve, type_based=True)

    def _make_pointer_externalizer(self) -> Externalizer:
        def claims(obj: Any) -> bool:
            return isinstance(obj, RemotePointer)

        def replace(obj: Any) -> bytes:
            return obj.descriptor.encode()

        def resolve(payload: bytes) -> Any:
            descriptor = RemoteDescriptor.decode(payload)
            if descriptor.address == self.address:
                return self.exports.get(descriptor.object_id)
            return RemotePointer(self, descriptor)

        return Externalizer(POINTER_EXT, claims, replace, resolve, type_based=True)

    # ------------------------------------------------------------- client

    def channel_to(self, address: str) -> Channel:
        return self.resolver.resolve(address, pipelined=self.config.tcp_pipelined)

    # ---------------------------------------------------------- reliability

    def next_call_id(self) -> int:
        """A fresh at-most-once call ID (non-zero, unique per endpoint)."""
        return (self._call_id_prefix << 32) | next(self._call_id_seq)

    def breaker_for(self, address: str) -> Optional[CircuitBreaker]:
        """The circuit breaker guarding *address* (None when disabled)."""
        return self._breakers.breaker_for(address)

    def breaker_states(self) -> dict:
        """Current breaker state per address (observability surface)."""
        return self._breakers.states()

    def _record_breaker_transition(self, address: str, old: str, new: str) -> None:
        self.metrics.counter(f"breaker.to_{new}").add()
        self.metrics.gauge(f"breaker.state.{address}").set(
            {
                CircuitBreaker.CLOSED: 0,
                CircuitBreaker.OPEN: 1,
                CircuitBreaker.HALF_OPEN: 2,
            }[new]
        )

    def invoke(
        self,
        descriptor: RemoteDescriptor,
        method: str,
        args: Tuple[Any, ...],
        policy: Optional[str] = None,
        kwargs: Optional[dict] = None,
    ) -> Any:
        """Invoke *method* on the remote object behind *descriptor*."""
        self.metrics.counter("calls.outgoing").add()
        return client_call(
            self, descriptor, method, args, policy_name=policy, kwargs=kwargs
        )

    def invoke_async(
        self,
        descriptor: RemoteDescriptor,
        method: str,
        args: Tuple[Any, ...],
        policy: Optional[str] = None,
    ) -> "Future[Any]":
        """Invoke without blocking; returns a Future.

        The restore phase runs on the worker thread just before the future
        resolves, so a multi-threaded caller must not read the restorable
        arguments until ``result()`` returns — the caveat Section 4.1 of
        the paper raises for multi-threaded clients generally.
        """
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=8, thread_name_prefix=f"nrmi-{self.name}"
                )
            executor = self._executor
        return executor.submit(self.invoke, descriptor, method, args, policy)

    def batch(self) -> "CallBatch":
        """Start a call batch: queue calls, flush them in one round trip
        per target endpoint (use as a context manager)."""
        from repro.nrmi.batch import CallBatch

        return CallBatch(self)

    def lookup(self, address: str, name: str) -> Any:
        """Look *name* up in the registry of the endpoint at *address*."""
        registry_stub = RemoteStub(
            self, RemoteDescriptor(address, REGISTRY_OBJECT_ID)
        )
        return registry_stub.lookup(name)

    def lookup_registry_names(self, address: str) -> list:
        """List the names bound at the endpoint at *address*."""
        registry_stub = RemoteStub(
            self, RemoteDescriptor(address, REGISTRY_OBJECT_ID)
        )
        return registry_stub.list_names()

    def ping(self, address: str) -> bool:
        response = self.channel_to(address).request(encode_ping())
        status, _reader = split_response(response)
        return status is Status.OK

    def record_restore_stats(self, stats: Optional[RestoreStats]) -> None:
        with self._stats_lock:
            self.last_restore_stats = stats
        if stats is not None:
            self.metrics.counter("restore.old_overwritten").add(stats.old_overwritten)
            self.metrics.counter("restore.new_adopted").add(stats.new_adopted)

    # ------------------------------------------------------------- server

    def bind(self, name: str, service: Any, interface: Optional[type] = None) -> None:
        """Bind *service* in this endpoint's registry (must be Remote).

        With *interface*, the implementation is validated against the
        contract and remote dispatch is restricted to its methods.
        """
        if not isinstance(service, Remote):
            raise RemoteError(
                f"cannot bind {type(service).__name__}: services passed "
                "by reference must subclass repro.core.Remote"
            )
        object_id = self.exports.export(service, pin=True)
        if interface is not None:
            from repro.nrmi.interfaces import validate_implementation
            from repro.rmi.activation import Activatable

            if isinstance(service, Activatable) and isinstance(
                service._factory, type
            ):
                # Validate the factory class so binding stays lazy.
                methods = validate_implementation(service._factory, interface)
            else:
                methods = validate_implementation(service, interface)
            self.exports.set_allowed_methods(object_id, methods)
        self.registry_service.rebind(name, service)

    def unbind(self, name: str) -> None:
        self.registry_service.unbind(name)

    # ------------------------------------------------- remote pointers (Fig 3)

    def pointer_to(self, obj: Any) -> RemotePointer:
        """Export *obj* and return a pointer handing out by-reference access.

        This is the naive call-by-reference of the paper's Figure 3: give
        the pointer to a remote method and every field access it performs
        becomes a round trip back here.
        """
        object_id = self.exports.export_marshalled(obj)
        return RemotePointer(self, RemoteDescriptor(self.address, object_id))

    def pointer_field_get(self, descriptor: RemoteDescriptor, name: str) -> Any:
        request = encode_field_get(descriptor.object_id, name)
        response = self.channel_to(descriptor.address).request(request)
        reader = self._require_ok(descriptor, response)
        return self.decode_pointer_value(reader.read_bytes(reader.remaining))

    def pointer_field_set(
        self, descriptor: RemoteDescriptor, name: str, value: Any
    ) -> None:
        request = encode_field_set(
            descriptor.object_id, name, self.encode_pointer_value(value)
        )
        response = self.channel_to(descriptor.address).request(request)
        self._require_ok(descriptor, response)

    def _require_ok(
        self, descriptor: RemoteDescriptor, response: bytes
    ) -> BufferReader:
        status, reader = split_response(response)
        if status is Status.EXCEPTION:
            exc_type = reader.read_str()
            message = reader.read_str()
            remote_tb = reader.read_str()
            raise RemoteInvocationError(exc_type, message, remote_tb)
        if status is Status.PROTOCOL_ERROR:
            raise RemoteError(
                f"protocol error from {descriptor.address}: {reader.read_str()}"
            )
        return reader

    def encode_pointer_value(self, value: Any) -> bytes:
        """By-reference value coding: primitives by value, the rest as pointers."""
        writer = BufferWriter()
        if isinstance(value, RemotePointer):
            writer.write_u8(1)
            writer.write_bytes(value.descriptor.encode())
        elif type(value) in POINTER_VALUE_TYPES or value is None:
            writer.write_u8(0)
            inner = ObjectWriter(profile=self.profile)
            inner.write_root(value)
            writer.write_bytes(inner.getvalue())
        else:
            object_id = self.exports.export_marshalled(value)
            writer.write_u8(1)
            writer.write_bytes(RemoteDescriptor(self.address, object_id).encode())
        return writer.getvalue()

    def decode_pointer_value(self, payload: bytes) -> Any:
        reader = BufferReader(payload)
        kind = reader.read_u8()
        body = reader.read_bytes(reader.remaining)
        if kind == 0:
            inner = ObjectReader(body, profile=self.profile)
            value = inner.read_root()
            inner.expect_end()
            return value
        descriptor = RemoteDescriptor.decode(body)
        if descriptor.address == self.address:
            return self.exports.get(descriptor.object_id)
        return RemotePointer(self, descriptor)

    # ----------------------------------------------------------------- DGC

    def renew(self, ref: Any) -> bool:
        """Renew the lease on a remote reference at its owner.

        Returns False when the owner no longer holds the object (the
        lease already expired, or it was released).
        """
        descriptor = self._descriptor_of(ref)
        request = encode_dgc_renew([descriptor.object_id])
        try:
            response = self.channel_to(descriptor.address).request(request)
        except TransportError:
            return False
        status, reader = split_response(response)
        if status is not Status.OK or reader.remaining < 1:
            return False
        return bool(reader.read_u8())

    def sweep_leases(self) -> list:
        """Drop expired leases on this endpoint's exports (server side)."""
        return self.exports.dgc.expire_leases()

    def start_lease_sweeper(self, interval_seconds: float = 30.0) -> None:
        """Run :meth:`sweep_leases` periodically on a daemon thread.

        Idempotent; the thread stops when the endpoint closes.
        """
        if getattr(self, "_sweeper_thread", None) is not None:
            return
        stop_event = threading.Event()
        self._sweeper_stop = stop_event

        def sweep_loop() -> None:
            while not stop_event.wait(interval_seconds):
                self.sweep_leases()

        thread = threading.Thread(
            target=sweep_loop, name=f"nrmi-sweeper-{self.name}", daemon=True
        )
        self._sweeper_thread = thread
        thread.start()

    @staticmethod
    def _descriptor_of(ref: Any) -> RemoteDescriptor:
        if isinstance(ref, (RemoteStub, RemotePointer)):
            return ref.descriptor
        if isinstance(ref, RemoteDescriptor):
            return ref
        raise RemoteError(f"not a remote reference: {type(ref).__name__}")

    def release(self, ref: Any, count: int = 1) -> None:
        """Tell a reference's owner we dropped *count* references to it."""
        if isinstance(ref, (RemoteStub, RemotePointer)):
            descriptor = ref.descriptor
        elif isinstance(ref, RemoteDescriptor):
            descriptor = ref
        else:
            raise RemoteError(f"cannot release {type(ref).__name__}")
        request = encode_dgc_release([(descriptor.object_id, count)])
        try:
            response = self.channel_to(descriptor.address).request(request)
        except TransportError:
            return  # owner gone: nothing to release
        split_response(response)


_default_endpoint: Optional[Endpoint] = None
_default_lock = threading.Lock()


def default_endpoint() -> Endpoint:
    """The process-wide client endpoint, created lazily."""
    global _default_endpoint
    with _default_lock:
        if _default_endpoint is None or _default_endpoint._closed:
            _default_endpoint = Endpoint(name="default")
        return _default_endpoint


@contextlib.contextmanager
def serve(
    service: Any,
    name: str,
    config: Optional[NRMIConfig] = None,
    tcp: bool = False,
) -> Iterator[Endpoint]:
    """Run *service* under *name* on a fresh endpoint (context manager)."""
    endpoint = Endpoint(config=config)
    try:
        endpoint.bind(name, service)
        if tcp:
            endpoint.serve_tcp()
        yield endpoint
    finally:
        endpoint.close()


def lookup(address: str, name: str, client: Optional[Endpoint] = None) -> Any:
    """Convenience lookup through *client* (default process endpoint)."""
    caller = client if client is not None else default_endpoint()
    return caller.lookup(address, name)


def async_call(stub: RemoteStub, method: str, *args: Any) -> "Future[Any]":
    """Invoke ``stub.method(*args)`` without blocking; returns a Future."""
    if not isinstance(stub, RemoteStub):
        raise RemoteError(
            f"async_call needs a remote stub, got {type(stub).__name__}"
        )
    endpoint = stub.__dict__["_endpoint"]
    return endpoint.invoke_async(stub.descriptor, method, tuple(args))
