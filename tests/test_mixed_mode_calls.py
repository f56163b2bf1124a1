"""Mixed passing modes through real endpoints.

One call takes a value argument, then a by-copy ``Catalog``, then the
copy-restore root, whose graph reaches into nodes the catalog holds too,
and whose transient field points at a node only the catalog holds. The
stream carries the root ahead of the catalog (``wire_order``), so the
retained set is the map prefix the root's span covers and no call walks
the graph to find it. Every case must leave the caller's heap where a
local call leaves it, over ``full``/``delta``/``dce`` on both profiles,
in-process and over ``tcp://``, with the root passed positionally or as
a keyword, and with the linear map shipped (the ablation).
"""

from __future__ import annotations

import sys

import pytest

from repro.core.markers import Remote, Restorable, Serializable
from repro.core.verify import fingerprint
from repro.nrmi.config import NRMIConfig
from repro.nrmi.runtime import Endpoint
from repro.serde import walker
from repro.transport.resolver import ChannelResolver

from tests.model_helpers import Node

PROFILES = {"modern": "optimized", "legacy": "portable"}
POLICIES = ("full", "delta", "dce")
VARIANTS = ("positional", "keyword", "ship_map")


class Catalog(Serializable):
    """The by-copy argument: it shares nodes with the copy-restore root."""

    def __init__(self, nodes, index) -> None:
        self.nodes = nodes
        self.index = index


class Shelf(Restorable):
    """The copy-restore root; ``memo`` never travels."""

    __nrmi_transient__ = ("memo",)

    def __init__(self, nodes, memo) -> None:
        self.nodes = nodes
        self.memo = memo
        self.alias = nodes[-1]


class Reorganizer(Remote):
    def reorganize(self, label, catalog, shelf):
        """Mutate only what the root reaches, partly through the catalog."""
        shared = catalog.index["b"]  # also shelf.nodes[0]
        shared.data = (label, shared.data)
        fresh = Node("fresh", next=catalog.nodes[2])
        shelf.nodes.append(fresh)
        shelf.alias = shared
        shelf.nodes[1].next = fresh
        return fresh


def world():
    """``(args, held)``: the call's arguments and everything the caller
    keeps a reference to."""
    nodes = [Node(name) for name in "abcde"]
    catalog = Catalog(list(nodes), {"b": nodes[1], "e": nodes[4]})
    shelf = Shelf([nodes[1], nodes[2], nodes[4]], memo=nodes[0])
    return ("moved", catalog, shelf), [catalog, shelf, nodes]


def local_fingerprint():
    args, held = world()
    result = Reorganizer().reorganize(*args)
    return fingerprint(held + [result])


def forbid_walks(monkeypatch):
    """Make every binding of ``walker.reachable`` under ``repro`` raise."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a full or delta call walked the graph")

    original = walker.reachable
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "reachable", None) is original:
            monkeypatch.setattr(module, "reachable", refuse)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("policy", POLICIES)
def test_mixed_call_matches_a_local_call(policy, profile, variant, transport, monkeypatch):
    config = NRMIConfig(
        profile=profile, implementation=PROFILES[profile], policy=policy,
        ship_linear_map=variant == "ship_map",
    )
    resolver = ChannelResolver()
    server = Endpoint(name="mixed-server", config=config, resolver=resolver)
    client = Endpoint(name="mixed-client", config=config, resolver=resolver)
    try:
        server.bind("svc", Reorganizer())
        address = server.serve_tcp() if transport == "tcp" else server.address
        service = client.lookup(address, "svc")
        if policy != "dce":
            forbid_walks(monkeypatch)
        args, held = world()
        memo = args[2].memo
        if variant == "keyword":
            label, catalog, shelf = args
            result = service.reorganize(label, catalog, shelf=shelf)
        else:
            result = service.reorganize(*args)
        assert fingerprint(held + [result]) == local_fingerprint()
        assert args[2].memo is memo
        assert args[2].alias is held[2][1]
    finally:
        client.close()
        server.close()
        resolver.close_all()
