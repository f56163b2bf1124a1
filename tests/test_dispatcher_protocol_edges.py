"""Dispatcher and protocol corner cases: hostile and odd inputs."""

import pytest

from repro.core.markers import Remote
from repro.core.semantics import PassingMode
from repro.nrmi.invocation import PreparedCall, complete_call, compute_retained
from repro.rmi.protocol import (
    CAP_DELTA_SLOTS,
    CallRequest,
    Op,
    Status,
    encode_batch,
    encode_call,
    encode_ping,
    ok_response,
    policy_from_wire,
    policy_wire_id,
    split_response,
)
from repro.errors import RemoteError, UnmarshalError, WireFormatError
from repro.serde.writer import ObjectWriter
from repro.util.buffers import BufferReader, BufferWriter

from tests.model_helpers import Box, Node, heap_fingerprint


def raw_request(endpoint_pair, payload: bytes) -> bytes:
    return endpoint_pair.server.dispatcher.handle(payload)


class TestHostileFrames:
    def test_empty_request(self, endpoint_pair):
        status, _reader = split_response(raw_request(endpoint_pair, b""))
        assert status is Status.PROTOCOL_ERROR

    def test_unknown_op_byte(self, endpoint_pair):
        status, reader = split_response(raw_request(endpoint_pair, b"\x63"))
        assert status is Status.PROTOCOL_ERROR
        assert "unknown operation" in reader.read_str()

    def test_truncated_call(self, endpoint_pair):
        status, _reader = split_response(
            raw_request(endpoint_pair, bytes([Op.CALL, 0x80]))
        )
        assert status is Status.PROTOCOL_ERROR

    def test_garbage_args_payload(self, endpoint_pair):
        from repro.core.semantics import PassingMode
        from repro.rmi.protocol import CallRequest, encode_call

        request = encode_call(
            CallRequest(
                object_id=1,
                method="lookup",
                policy="none",
                profile="modern",
                modes=(PassingMode.BY_COPY,),
                args_payload=b"THIS IS NOT A STREAM",
            )
        )
        status, _reader = split_response(raw_request(endpoint_pair, request))
        assert status is Status.PROTOCOL_ERROR

    def test_call_to_unknown_object(self, endpoint_pair):
        from repro.rmi.protocol import CallRequest, encode_call
        from repro.serde.writer import ObjectWriter

        writer = ObjectWriter()
        request = encode_call(
            CallRequest(
                object_id=9999,
                method="anything",
                policy="none",
                profile="modern",
                modes=(),
                args_payload=writer.getvalue(),
            )
        )
        status, reader = split_response(raw_request(endpoint_pair, request))
        assert status is Status.EXCEPTION
        assert reader.read_str() == "NoSuchObjectError"

    def test_ping_direct(self, endpoint_pair):
        status, _reader = split_response(
            raw_request(endpoint_pair, encode_ping())
        )
        assert status is Status.OK

    def test_server_survives_hostile_burst(self, endpoint_pair):
        """A barrage of malformed frames must not wedge the dispatcher."""
        from repro.core.markers import Remote

        class Alive(Remote):
            def ok(self):
                return "still-here"

        service = endpoint_pair.serve(Alive())
        for garbage in (b"", b"\xff" * 64, bytes([Op.CALL]), b"\x01\x02\x03"):
            raw_request(endpoint_pair, garbage)
        assert service.ok() == "still-here"


class TestBatchProtocolEdges:
    def test_batch_of_pings(self, endpoint_pair):
        from repro.rmi.protocol import decode_batch_responses

        request = encode_batch([encode_ping(), encode_ping()])
        status, reader = split_response(raw_request(endpoint_pair, request))
        assert status is Status.OK
        subs = decode_batch_responses(reader)
        assert len(subs) == 2
        for sub in subs:
            sub_status, _r = split_response(sub)
            assert sub_status is Status.OK

    def test_batch_isolates_bad_sub_request(self, endpoint_pair):
        from repro.rmi.protocol import decode_batch_responses

        request = encode_batch([b"\x63garbage", encode_ping()])
        status, reader = split_response(raw_request(endpoint_pair, request))
        assert status is Status.OK
        first, second = decode_batch_responses(reader)
        assert split_response(first)[0] is Status.PROTOCOL_ERROR
        assert split_response(second)[0] is Status.OK

    def test_empty_batch(self, endpoint_pair):
        from repro.rmi.protocol import decode_batch_responses

        status, reader = split_response(
            raw_request(endpoint_pair, encode_batch([]))
        )
        assert status is Status.OK
        assert decode_batch_responses(reader) == []


class TestPolicyWireHelpers:
    @pytest.mark.parametrize("name", ["none", "full", "delta", "dce"])
    def test_roundtrip(self, name):
        assert policy_from_wire(policy_wire_id(name)) == name

    def test_unknown_name(self):
        with pytest.raises(WireFormatError):
            policy_wire_id("quantum")

    def test_unknown_id(self):
        with pytest.raises(WireFormatError):
            policy_from_wire(200)


class Toucher(Remote):
    def touch(self, box):
        box.payload[0].data = "touched"
        box.payload.append(Node("fresh", next=box.payload[1]))
        return box.payload[-1]


def make_box():
    nodes = [Node(i) for i in range(4)]
    box = Box(nodes)
    box.alias = nodes[2]
    return box


def delta_call(endpoint_pair, box, caps):
    """A hand-built ``delta`` CALL frame for ``Toucher.touch(box)``, sent
    through the server's dispatcher; returns (prepared call, reply)."""
    descriptor = endpoint_pair.serve(Toucher()).descriptor
    writer = ObjectWriter()
    writer.write_root(box)
    frame = encode_call(
        CallRequest(
            object_id=descriptor.object_id,
            method="touch",
            policy="delta",
            profile="modern",
            modes=(PassingMode.BY_COPY_RESTORE,),
            args_payload=writer.getvalue(),
            caps=caps,
        )
    )
    originals = compute_retained(
        writer.linear_map, [box], endpoint_pair.client.accessor
    )
    prepared = PreparedCall(frame, originals, descriptor, "touch")
    return prepared, raw_request(endpoint_pair, frame)


class TestDeltaReplyKinds:
    def test_non_advertising_delta_call_gets_full_reply(self, endpoint_pair):
        box = make_box()
        prepared, reply = delta_call(endpoint_pair, box, caps=0)
        status, reader = split_response(reply)
        assert status is Status.OK
        assert reader.read_u8() == policy_wire_id("full")
        result = complete_call(endpoint_pair.client, prepared, reply)

        local = make_box()
        local_result = Toucher().touch(local)
        assert heap_fingerprint([box, result]) == heap_fingerprint(
            [local, local_result]
        )
        assert box.alias is box.payload[2]

    def test_retired_object_delta_reply_is_rejected(self, endpoint_pair):
        box = make_box()
        before = heap_fingerprint([box])
        prepared, reply = delta_call(endpoint_pair, box, caps=CAP_DELTA_SLOTS)
        assert reply[1] == policy_wire_id("delta-slots")
        forged = bytearray(reply)
        forged[1] = policy_wire_id("delta")
        with pytest.raises((UnmarshalError, RemoteError)):
            complete_call(endpoint_pair.client, prepared, bytes(forged))
        assert heap_fingerprint([box]) == before
