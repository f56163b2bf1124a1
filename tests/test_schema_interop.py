"""Session schema-cache interop: negotiation matrix + invalidation.

The schema cache is a negotiated, per-connection layer (CAP_SCHEMA_CACHE
on calls, the ack bit on OK replies): class descriptors and field-name
tables ship once, then collapse to compact ids. Every cell of the matrix
— cache on/off x modern/legacy profile x all four transports — must
restore the client heap byte-identically to running the same mutation
locally; the cache must *engage* only where it should (modern profile,
both sides opted in), and a mid-connection ``__nrmi_version__`` bump must
renegotiate a fresh schema id without dropping the connection.

Also here: the fused decode+digest traversal-count assertions and the
reader's dangling-id error paths for handcrafted hostile streams.
"""

import pytest

from repro.core.markers import Remote, Restorable
from repro.errors import WireFormatError
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.serde import digest
from repro.serde.hooks import class_version
from repro.serde.reader import ObjectReader
from repro.serde.registry import global_registry
from repro.serde.schema import (
    CKEY_SCHEMA_REF,
    CKEY_STREAM_BASE,
    STREAM_FLAG_SCHEMA_CACHE,
    SchemaRxCache,
)
from repro.serde.tags import Tag, WIRE_MAGIC, WIRE_VERSION
from repro.transport.resolver import ChannelResolver
from repro.transport.simnet import NetworkModel, SimulatedChannel
from repro.util.buffers import BufferWriter

from tests.model_helpers import Box, Node, heap_fingerprint

# "tcp" and "pipelined" hit the same server (it auto-detects framing per
# connection); the client config selects the channel. The "uds" pair is
# the same split over a Unix domain socket, and the "shm" pair over a
# shared-memory ring pair with a Unix-socket doorbell.
TRANSPORTS = (
    "inproc",
    "simnet",
    "tcp",
    "pipelined",
    "uds",
    "uds-pipelined",
    "shm",
    "shm-pipelined",
)

PROFILES = {
    # profile name -> (profile, implementation) config arguments
    "modern": ("modern", "optimized"),
    "legacy": ("legacy", "portable"),
}


class ScrambleService(Remote):
    """Sparse mutation over an aliased heap (same shape as delta interop)."""

    def scramble(self, box):
        first = box.payload[0]
        first.data = ("touched", first.data)
        fresh = Node("fresh")
        fresh.next = first
        box.payload.append(fresh)
        return fresh


def make_heap(width=8):
    nodes = [Node(i) for i in range(width)]
    for left, right in zip(nodes, nodes[1:]):
        left.next = right
    box = Box(list(nodes))
    box.alias = nodes[3]
    return box


def local_fingerprint():
    box = make_heap()
    result = ScrambleService().scramble(box)
    return heap_fingerprint([box, result])


def client_config(transport, **kwargs):
    kwargs.setdefault(
        "tcp_pipelined",
        transport in ("pipelined", "uds-pipelined", "shm-pipelined"),
    )
    return NRMIConfig(**kwargs)


class SchemaWorld:
    """One client/server pair over the requested transport."""

    def __init__(self, transport, server_config=None, client_config=None,
                 service=None):
        self.resolver = ChannelResolver()
        self.server = Endpoint(
            name="schema-server", config=server_config, resolver=self.resolver
        )
        self.client = Endpoint(
            name="schema-client", config=client_config, resolver=self.resolver
        )
        self.server.bind("svc", service if service is not None else ScrambleService())
        address = self.server.address
        if transport in ("tcp", "pipelined"):
            address = self.server.serve_tcp()
        elif transport in ("uds", "uds-pipelined"):
            address = self.server.serve_uds()
        elif transport in ("shm", "shm-pipelined"):
            address = self.server.serve_shm()
        elif transport == "simnet":
            self.resolver.set_wrapper(
                address,
                lambda inner: SimulatedChannel(inner, NetworkModel()),
            )
        self.address = address
        self.service = self.client.lookup(address, "svc")

    @property
    def channel(self):
        """The channel the client's calls actually travel (framing-aware)."""
        return self.client.channel_to(self.address)

    def scramble_fingerprint(self):
        box = make_heap()
        result = self.service.scramble(box)
        return heap_fingerprint([box, result])

    def close(self):
        self.client.close()
        self.server.close()
        self.resolver.close_all()


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


# --------------------------------------------------------------- the matrix


@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("cache_on", (True, False), ids=("cache", "nocache"))
def test_matrix_round_trips_byte_identically(transport, profile_name, cache_on):
    profile, implementation = PROFILES[profile_name]
    world = SchemaWorld(
        transport,
        server_config=NRMIConfig(profile=profile, implementation=implementation),
        client_config=client_config(
            transport,
            profile=profile,
            implementation=implementation,
            schema_cache=cache_on,
        ),
    )
    try:
        expected = local_fingerprint()
        # Three calls so the cache (when on) walks the whole negotiation:
        # unflagged + ack, then definitions, then steady-state references.
        for _ in range(3):
            assert world.scramble_fingerprint() == expected
        session = world.channel.schema_session
        if not cache_on:
            # The client never advertised; the session never engages.
            assert session.peer_ok is False
            assert len(session.tx) == 0
        else:
            # The server acked the capability on the first OK reply.
            assert session.peer_ok is True
            if profile_name == "modern":
                assert len(session.tx) > 0
            else:
                # Legacy streams don't intern descriptors, so the writer
                # downgrades to classic unflagged streams: negotiated but
                # never engaged, and the peer never sees schema-mode bytes.
                assert len(session.tx) == 0
    finally:
        world.close()


def test_client_against_legacy_server(transport):
    """A server with the cache disabled never acks: the client keeps
    sending classic streams forever and everything still round-trips."""
    world = SchemaWorld(
        transport,
        server_config=NRMIConfig(schema_cache=False),
        client_config=client_config(transport),
    )
    try:
        expected = local_fingerprint()
        for _ in range(3):
            assert world.scramble_fingerprint() == expected
        session = world.channel.schema_session
        assert session.peer_ok is False
        assert len(session.tx) == 0
    finally:
        world.close()


def test_schema_cache_shrinks_steady_state_requests():
    """Steady-state request frames are strictly smaller with the cache on
    (class descriptors and field names have collapsed to ids)."""
    sizes = {}
    for cache_on in (True, False):
        world = SchemaWorld(
            "inproc", client_config=NRMIConfig(schema_cache=cache_on)
        )
        try:
            for _ in range(3):
                world.scramble_fingerprint()
            channel = world.resolver.resolve(world.address)
            channel.stats.reset()
            world.scramble_fingerprint()
            sizes[cache_on] = channel.stats.snapshot()["bytes_sent"]
        finally:
            world.close()
    assert sizes[True] < sizes[False]


# ------------------------------------------------------- cache invalidation


class Counter(Restorable):
    __nrmi_version__ = 1

    def __init__(self):
        self.count = 0
        self.label = "counter"


class BumpService(Remote):
    def bump(self, counter):
        counter.count += 1
        return counter.count


def test_version_bump_renegotiates_mid_connection():
    """Bumping ``__nrmi_version__`` mid-connection allocates a fresh
    schema id (ids are never reused) and keeps round-tripping."""
    world = SchemaWorld("inproc", service=BumpService())
    try:
        for _ in range(3):
            counter = Counter()
            assert world.service.bump(counter) == 1
            assert counter.count == 1  # restored in place on the caller
        session = world.channel.schema_session
        assert session.peer_ok is True
        assert len(session.tx) == 1
        server_rx = world.resolver.resolve(world.address)._session.schema_rx
        assert len(server_rx) == 1
        old_id = session.tx._entries[Counter].schema_id
        original_version = Counter.__nrmi_version__
        try:
            Counter.__nrmi_version__ = original_version + 1
            for _ in range(2):  # def on the first call, ref on the second
                counter = Counter()
                assert world.service.bump(counter) == 1
                assert counter.count == 1
        finally:
            Counter.__nrmi_version__ = original_version
        assert len(session.tx) == 1  # same class, replaced entry ...
        assert session.tx._entries[Counter].schema_id != old_id
        assert len(server_rx) == 2  # ... but the old id stays resolvable
    finally:
        world.close()


# ---------------------------------------------------- fused digest traversal


def test_fused_delta_slots_call_walks_linear_map_once():
    """The decode-time capture replaces the post-decode snapshot walk:
    a warm delta-slots call digests the linear map exactly once (at reply
    time), not twice."""
    world = SchemaWorld("inproc", client_config=NRMIConfig(policy="delta"))
    try:
        world.scramble_fingerprint()  # warm: negotiation, plans, metrics
        before = digest.walk_count
        assert world.scramble_fingerprint() == local_fingerprint()
        assert digest.walk_count - before == 1
        # It really was the delta-slots path both times.
        assert world.client.metrics.counter("delta.slot_replies").value == 2
    finally:
        world.close()


def test_shipped_map_ablation_still_walks_twice():
    """The ship-linear-map ablation bypasses decode-time reconstruction,
    so there is nothing to fuse into: both walks remain."""
    world = SchemaWorld(
        "inproc",
        client_config=NRMIConfig(policy="delta", ship_linear_map=True),
    )
    try:
        world.scramble_fingerprint()
        before = digest.walk_count
        assert world.scramble_fingerprint() == local_fingerprint()
        assert digest.walk_count - before == 2
    finally:
        world.close()


# ------------------------------------------------- dangling-id error paths


def _stream(flags, build_body):
    buf = BufferWriter()
    buf.write_bytes(WIRE_MAGIC)
    buf.write_u8(WIRE_VERSION)
    buf.write_u8(flags)
    build_body(buf)
    return buf.getvalue()


def test_dangling_field_name_id_is_rejected():
    def body(buf):
        buf.write_u8(Tag.OBJECT)
        buf.write_uvarint(0)  # inline class descriptor
        buf.write_str(global_registry.name_of(Node))
        buf.write_uvarint(class_version(Node))
        buf.write_uvarint(1)  # one field ...
        buf.write_uvarint(5)  # ... whose name back-references nothing

    reader = ObjectReader(_stream(0, body))
    with pytest.raises(WireFormatError, match="dangling name id 5"):
        reader.read_root()


def test_dangling_class_id_is_rejected():
    def body(buf):
        buf.write_u8(Tag.OBJECT)
        buf.write_uvarint(4)  # back reference, but no class was interned

    reader = ObjectReader(_stream(0, body))
    with pytest.raises(WireFormatError, match="dangling class id 4"):
        reader.read_root()


def test_dangling_schema_id_is_rejected():
    def body(buf):
        buf.write_u8(Tag.OBJECT)
        buf.write_uvarint(CKEY_SCHEMA_REF)
        buf.write_uvarint(9)  # never defined on this connection

    reader = ObjectReader(
        _stream(STREAM_FLAG_SCHEMA_CACHE, body), schema_rx=SchemaRxCache()
    )
    with pytest.raises(WireFormatError, match="dangling schema id 9"):
        reader.read_root()


def test_dangling_stream_backref_on_schema_stream_is_rejected():
    def body(buf):
        buf.write_u8(Tag.OBJECT)
        buf.write_uvarint(CKEY_STREAM_BASE)  # stream class 0: none interned

    reader = ObjectReader(
        _stream(STREAM_FLAG_SCHEMA_CACHE, body), schema_rx=SchemaRxCache()
    )
    with pytest.raises(WireFormatError, match="dangling class id"):
        reader.read_root()


def test_flagged_stream_without_session_cache_is_rejected():
    """A schema-mode stream handed to a stateless decode (no per-connection
    rx cache) must fail loudly, not misparse class keys."""
    data = _stream(STREAM_FLAG_SCHEMA_CACHE, lambda buf: buf.write_u8(Tag.NONE))
    with pytest.raises(WireFormatError, match="without a session schema"):
        ObjectReader(data)
