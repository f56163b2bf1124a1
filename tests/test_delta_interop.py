"""Delta/full interop: the capability negotiation across transports.

A delta-requesting client that advertises ``CAP_DELTA_SLOTS`` gets the
dirty-slot reply frame from a capable server; either side lacking the
capability transparently falls back to a classic reply (full map from a
"full-only" server, legacy object delta to a non-advertising client).
Every combination, over every transport, must restore the client heap
byte-identically to running the same mutation locally.
"""

import pytest

from repro.core.markers import Remote
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.transport.resolver import ChannelResolver
from repro.transport.simnet import NetworkModel, SimulatedChannel

from tests.model_helpers import Box, Node, heap_fingerprint

TRANSPORTS = ("inproc", "simnet", "tcp", "uds", "shm")


class ScrambleService(Remote):
    """A sparse mutation: touches one node, allocates one, keeps the rest."""

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
    box.alias = nodes[3]  # alias into the middle: restore must preserve it
    return box


def local_fingerprint():
    box = make_heap()
    result = ScrambleService().scramble(box)
    return heap_fingerprint([box, result])


class InteropWorld:
    """One client/server pair over the requested transport."""

    def __init__(self, transport, server_config=None, client_config=None):
        self.resolver = ChannelResolver()
        self.server = Endpoint(
            name="interop-server", config=server_config, resolver=self.resolver
        )
        self.client = Endpoint(
            name="interop-client", config=client_config, resolver=self.resolver
        )
        self.server.bind("svc", ScrambleService())
        address = self.server.address
        if transport == "tcp":
            address = self.server.serve_tcp()
        elif transport == "uds":
            address = self.server.serve_uds()
        elif transport == "shm":
            address = self.server.serve_shm()
        elif transport == "simnet":
            self.resolver.set_wrapper(
                address,
                lambda inner: SimulatedChannel(inner, NetworkModel()),
            )
        self.address = address
        self.service = self.client.lookup(address, "svc")

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


def test_both_capable_speak_dirty_slot_frames(transport):
    world = InteropWorld(transport, client_config=NRMIConfig(policy="delta"))
    try:
        assert world.scramble_fingerprint() == local_fingerprint()
        # The reply really was the dirty-slot frame, on both ends.
        assert world.client.metrics.counter("delta.slot_replies").value == 1
        assert world.server.metrics.counter("delta.slots_clean").value > 0
        assert world.server.metrics.counter("delta.slots_dirty").value > 0
    finally:
        world.close()


def test_delta_client_against_full_only_server(transport):
    world = InteropWorld(
        transport,
        server_config=NRMIConfig(delta_replies=False),
        client_config=NRMIConfig(policy="delta"),
    )
    try:
        assert world.scramble_fingerprint() == local_fingerprint()
        # The server downgraded to a full-map reply; no delta frames flowed.
        assert world.client.metrics.counter("delta.slot_replies").value == 0
        assert world.server.metrics.counter("delta.slots_dirty").value == 0
    finally:
        world.close()


def test_non_advertising_client_against_delta_server(transport):
    world = InteropWorld(
        transport,
        client_config=NRMIConfig(policy="delta", delta_reply_frames=False),
    )
    try:
        assert world.scramble_fingerprint() == local_fingerprint()
        # Without the capability bit the server answers with the legacy
        # object-delta reply, never the dirty-slot frame.
        assert world.client.metrics.counter("delta.slot_replies").value == 0
        assert world.server.metrics.counter("delta.slots_dirty").value == 0
    finally:
        world.close()


def test_full_policy_client_unaffected_by_capability(transport):
    world = InteropWorld(transport, client_config=NRMIConfig(policy="full"))
    try:
        assert world.scramble_fingerprint() == local_fingerprint()
        assert world.client.metrics.counter("delta.slot_replies").value == 0
    finally:
        world.close()


def test_dirty_slot_reply_is_smaller_than_full_map():
    """Same mutation, same transport: the negotiated delta reply moves
    fewer bytes than the full-map reply it replaces."""
    sizes = {}
    for policy in ("full", "delta"):
        world = InteropWorld("inproc", client_config=NRMIConfig(policy=policy))
        try:
            channel = world.resolver.resolve(world.server.address)
            channel.stats.reset()
            world.scramble_fingerprint()
            sizes[policy] = channel.stats.snapshot()["bytes_received"]
        finally:
            world.close()
    assert sizes["delta"] < sizes["full"]


# ------------------------------------------- one dirtiness, both reply kinds
#
# A write that ``==`` cannot see is still a write the caller can see. Both
# delta reply kinds must ship it; the local call is the reference.


class OverwriteService(Remote):
    def overwrite(self, node, value):
        node.data = value


@pytest.mark.parametrize(
    "old, new",
    [(0.0, -0.0), (1, True), (1, 1.0), (2.5, float("nan"))],
    ids=["signed-zero", "int-to-bool", "int-to-float", "nan"],
)
@pytest.mark.parametrize("frames", [True, False], ids=["slot-frames", "object-delta"])
@pytest.mark.parametrize("carrier", ["inproc", "tcp"])
def test_writes_equality_cannot_see_are_restored(carrier, frames, old, new):
    world = InteropWorld(
        carrier,
        client_config=NRMIConfig(policy="delta", delta_reply_frames=frames),
    )
    try:
        world.server.bind("overwrite", OverwriteService())
        service = world.client.lookup(world.address, "overwrite")
        local, remote = Node(old, next=Node("kept")), Node(old, next=Node("kept"))
        OverwriteService().overwrite(local, new)
        service.overwrite(remote, new)
        assert repr(remote.data) == repr(local.data)
        assert remote.next.data == "kept"
        assert world.client.metrics.counter("delta.slot_replies").value == int(frames)
    finally:
        world.close()
