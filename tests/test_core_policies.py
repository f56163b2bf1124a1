"""Restore policies end-to-end at the payload level (no transport)."""

import pytest

from repro.core.restore_protocol import (
    ClientRestoreContext,
    DceRestorePolicy,
    DeltaRestorePolicy,
    FullRestorePolicy,
    NoRestorePolicy,
    ServerRestoreContext,
    policy_by_name,
)
from repro.errors import RestoreError
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Box, Node, heap_fingerprint


def simulate_call(policy, build_args, mutate, result_of=lambda *a: None):
    """Run the marshal → execute → restore cycle for one root argument."""
    client_root = build_args()
    writer = ObjectWriter()
    writer.write_root(client_root)
    client_map = list(writer.linear_map)

    reader = ObjectReader(writer.getvalue())
    server_root = reader.read_root()
    retained = list(reader.linear_map)

    server_context = ServerRestoreContext(retained=retained, restore_roots=[server_root])
    snapshot = policy.snapshot(server_context)
    mutate(server_root)
    result = result_of(server_root)
    payload = policy.build_response(result, server_context, snapshot)

    client_context = ClientRestoreContext(originals=client_map)
    restored_result, stats = policy.parse_response(payload, client_context)
    return client_root, restored_result, stats, len(payload)


class TestPolicyRegistry:
    @pytest.mark.parametrize("name", ["none", "full", "delta", "dce"])
    def test_lookup(self, name):
        assert policy_by_name(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            policy_by_name("magic")

    def test_reply_kind_name_resolves_to_the_delta_policy(self):
        assert type(policy_by_name("delta-slots")) is DeltaRestorePolicy
        assert type(policy_by_name("delta")) is DeltaRestorePolicy

    def test_fresh_instance_per_lookup(self):
        assert policy_by_name("full") is not policy_by_name("full")


class TestNoRestore:
    def test_result_returned_mutations_dropped(self):
        root, result, stats, _bytes = simulate_call(
            NoRestorePolicy(),
            build_args=lambda: Node(1),
            mutate=lambda node: setattr(node, "data", 99),
            result_of=lambda node: node.data,
        )
        assert result == 99
        assert root.data == 1  # call-by-copy: caller unchanged
        assert stats is None


class TestFullRestore:
    def test_mutation_restored(self):
        root, _result, stats, _bytes = simulate_call(
            FullRestorePolicy(),
            build_args=lambda: Node(1),
            mutate=lambda node: setattr(node, "data", 41),
        )
        assert root.data == 41
        assert stats.old_overwritten == 1

    def test_result_identity_joins_restored_graph(self):
        root, result, _stats, _bytes = simulate_call(
            FullRestorePolicy(),
            build_args=lambda: Node("x"),
            mutate=lambda node: None,
            result_of=lambda node: node,  # server returns the param
        )
        assert result is root

    def test_unreachable_changes_restored(self):
        def build():
            keep = Node("keep")
            return Node("root", next=keep)

        def mutate(node):
            node.next.data = "changed"
            node.next = None  # detach

        root, _result, _stats, _bytes = simulate_call(
            FullRestorePolicy(), build, mutate
        )
        assert root.next is None  # detach restored... and the old child?
        # The old child was only reachable via root; the caller held no
        # alias here, so nothing further to observe. Covered with aliases
        # in the integration tests.


class TestDeltaRestore:
    def test_equivalent_to_full_when_everything_changes(self):
        def build():
            return Node(1, next=Node(2))

        def mutate(node):
            node.data = 10
            node.next.data = 20

        root_full, _r, _s, _b = simulate_call(FullRestorePolicy(), build, mutate)
        root_delta, _r, _s, _b = simulate_call(DeltaRestorePolicy(), build, mutate)
        assert heap_fingerprint([root_full]) == heap_fingerprint([root_delta])

    def test_no_change_ships_almost_nothing(self):
        def build():
            return Box([Node(i) for i in range(60)])

        _root, _result, _stats, full_bytes = simulate_call(
            FullRestorePolicy(), build, mutate=lambda box: None
        )
        _root, _result, _stats, delta_bytes = simulate_call(
            DeltaRestorePolicy(), build, mutate=lambda box: None
        )
        assert delta_bytes < full_bytes / 5

    def test_partial_change_restores_only_that(self):
        def build():
            return Box([Node(i) for i in range(10)])

        def mutate(box):
            box.payload[3].data = 999

        root, _result, stats, _bytes = simulate_call(
            DeltaRestorePolicy(), build, mutate
        )
        assert root.payload[3].data == 999
        assert [n.data for n in root.payload[:3]] == [0, 1, 2]
        assert stats.old_overwritten == 1  # only the changed node shipped

    def test_new_object_referencing_unchanged_old(self):
        def build():
            return Box(Node("anchor"))

        def mutate(box):
            # New node points at an UNCHANGED old node.
            box.extra = Node("new", next=box.payload)

        root, _result, _stats, _bytes = simulate_call(
            DeltaRestorePolicy(), build, mutate
        )
        assert root.extra.data == "new"
        assert root.extra.next is root.payload  # resolved to the original

    def test_structural_change_detected(self):
        def build():
            return Box([1, 2, 3])

        def mutate(box):
            box.payload.append(4)

        root, _result, _stats, _bytes = simulate_call(
            DeltaRestorePolicy(), build, mutate
        )
        assert root.payload == [1, 2, 3, 4]


class TestDcePolicy:
    def test_reachable_changes_restored(self):
        root, _result, _stats, _bytes = simulate_call(
            DceRestorePolicy(),
            build_args=lambda: Node(1, next=Node(2)),
            mutate=lambda node: setattr(node.next, "data", 22),
        )
        assert root.next.data == 22

    def test_unreachable_changes_lost(self):
        def build():
            return Node("root", next=Node("child"))

        def mutate(node):
            node.next.data = "silently-lost"
            node.next = None

        client_detached = []

        def build_and_remember():
            root = build()
            client_detached.append(root.next)
            return root

        root, _result, _stats, _bytes = simulate_call(
            DceRestorePolicy(), build_and_remember, mutate
        )
        assert root.next is None
        assert client_detached[0].data == "child"  # the DCE data loss

    def test_smaller_payload_than_full_after_detach(self):
        def build():
            return Node("root", next=Node("big", next=Node("subtree")))

        def mutate(node):
            node.next = None  # orphan two nodes

        _r1, _r2, _s, full_bytes = simulate_call(FullRestorePolicy(), build, mutate)
        _r1, _r2, _s, dce_bytes = simulate_call(DceRestorePolicy(), build, mutate)
        assert dce_bytes < full_bytes


class TestPayloadValidation:
    def test_full_restore_rejects_non_list_payload(self):
        policy = FullRestorePolicy()
        writer = ObjectWriter()
        writer.write_root("result")
        writer.write_root("not-a-list")
        with pytest.raises(RestoreError):
            policy.parse_response(
                writer.getvalue(), ClientRestoreContext(originals=[])
            )

    def test_delta_rejects_out_of_range_oldref(self):
        def build():
            return Box(Node("x"))

        def mutate(box):
            box.marker = Node("new", next=box.payload)

        policy = DeltaRestorePolicy()
        client_root = build()
        writer = ObjectWriter()
        writer.write_root(client_root)
        reader = ObjectReader(writer.getvalue())
        server_root = reader.read_root()
        retained = list(reader.linear_map)
        context = ServerRestoreContext(retained=retained, restore_roots=[server_root])
        snap = policy.snapshot(context)
        mutate(server_root)
        payload = policy.build_response(None, context, snap)
        with pytest.raises(RestoreError):
            # Give the client FEWER originals than the payload references.
            policy.parse_response(payload, ClientRestoreContext(originals=[]))
