"""Serialization hooks: transient fields, writeReplace/readResolve analogues."""

import pytest

from repro.core.markers import Remote, Restorable, Serializable
from repro.nrmi.config import NRMIConfig
from repro.serde.hooks import transient_fields
from repro.serde.reader import ObjectReader
from repro.serde.writer import ObjectWriter

from tests.model_helpers import Box


def roundtrip(value):
    writer = ObjectWriter()
    writer.write_root(value)
    reader = ObjectReader(writer.getvalue())
    result = reader.read_root()
    reader.expect_end()
    return result


class WithCache(Serializable):
    __nrmi_transient__ = ("cache", "session")

    def __init__(self, data):
        self.data = data
        self.cache = {"expensive": True}
        self.session = object()  # unserializable on purpose


class SubWithCache(WithCache):
    __nrmi_transient__ = ("extra_secret",)

    def __init__(self, data):
        super().__init__(data)
        self.extra_secret = "local-only"


class Money(Serializable):
    """writeReplace/readResolve pair: travels as its canonical cents form."""

    def __init__(self, cents):
        self.cents = cents

    def __nrmi_replace__(self):
        return MoneyWire(self.cents)


class MoneyWire(Serializable):
    def __init__(self, cents=0):
        self.cents = cents

    def __nrmi_resolve__(self):
        return Money(self.cents)


class Singleton(Serializable):
    INSTANCE = None

    def __nrmi_resolve__(self):
        return type(self).INSTANCE


Singleton.INSTANCE = Singleton()


class TestTransient:
    def test_transient_fields_not_serialized(self):
        result = roundtrip(WithCache("payload"))
        assert result.data == "payload"
        assert not hasattr(result, "cache")
        assert not hasattr(result, "session")

    def test_transient_makes_unserializable_fields_safe(self):
        # .session holds a bare object(); without transient this would
        # raise NotSerializableError.
        roundtrip(WithCache(1))

    def test_transient_union_along_mro(self):
        assert transient_fields(SubWithCache) == {"cache", "session", "extra_secret"}
        result = roundtrip(SubWithCache("d"))
        assert not hasattr(result, "extra_secret")

    def test_no_transients_by_default(self):
        assert transient_fields(Box) == frozenset()


class RestorableWithCache(Restorable):
    __nrmi_transient__ = ("view_handle",)

    def __init__(self, data):
        self.data = data
        self.view_handle = "client-gui-widget"


class Handle(Serializable):
    """Travels as a :class:`HandleWire` stand-in and stays one: there is
    no ``__nrmi_resolve__`` on the other side."""

    def __init__(self, x):
        self.x = x

    def __nrmi_replace__(self):
        return HandleWire(self.x)


class HandleWire(Serializable):
    def __init__(self, x=None):
        self.x = x


class BumpService(Remote):
    def bump(self, by_copy, obj):
        """Mutates both arguments; only *obj* is passed by copy-restore."""
        by_copy[0].append("server-only")
        obj.data += 1
        return len(by_copy[0])

    def bump_handle(self, obj):
        obj.data += 1
        obj.h.x.append("seen")

    def bump_handle_mixed(self, by_copy, obj):
        by_copy.append("server-only")
        self.bump_handle(obj)


@pytest.fixture(params=["inproc", "tcp"])
def transport(request):
    return request.param


@pytest.fixture(params=["full", "delta"])
def policy(request):
    return request.param


@pytest.fixture
def bump_service(make_endpoint_pair, transport, policy):
    pair = make_endpoint_pair(client_config=NRMIConfig(policy=policy))
    pair.server.bind("svc", BumpService())
    address = pair.server.serve_tcp() if transport == "tcp" else pair.server.address
    return pair.client.lookup(address, "svc")


class TestTransientUnderCopyRestore:
    def test_transient_alias_of_by_copy_argument(self, bump_service):
        """A transient field pointing into a by-copy argument never
        travels, so it must not pull that argument into the caller's
        retained set: the server cannot reach it the same way, and the two
        lists used to disagree ("linear map mismatch: caller recorded 2
        objects, restore payload carries 1")."""
        shared = [1, 2, 3]
        node = RestorableWithCache(10)
        node.view_handle = shared
        assert bump_service.bump((shared,), node) == 4
        assert node.data == 11
        assert node.view_handle is shared
        assert shared == [1, 2, 3]  # passed by copy: NOT restored

    def test_local_transient_value_survives_restore(self, endpoint_pair):
        class Service(Remote):
            def bump(self, obj):
                obj.data += 1
                obj.view_handle = "server-junk"  # set remotely; must not travel

        service = endpoint_pair.serve(Service())
        obj = RestorableWithCache(10)
        service.bump(obj)
        assert obj.data == 11
        assert obj.view_handle == "client-gui-widget"  # preserved locally


class TestReplaceResolve:
    def test_replace_and_resolve_roundtrip(self):
        result = roundtrip(Money(250))
        assert isinstance(result, Money)
        assert result.cents == 250

    def test_shared_instance_resolves_shared(self):
        money = Money(100)
        result = roundtrip([money, money])
        assert result[0] is result[1]
        assert isinstance(result[0], Money)

    def test_resolve_canonicalizes_singleton(self):
        result = roundtrip([Singleton(), Singleton.INSTANCE])
        assert result[0] is Singleton.INSTANCE
        assert result[1] is Singleton.INSTANCE

    def test_nested_replace(self):
        result = roundtrip(Box({"price": Money(999)}))
        assert isinstance(result.payload["price"], Money)
        assert result.payload["price"].cents == 999

    def test_linear_maps_stay_aligned_with_resolve_types(self):
        writer = ObjectWriter()
        writer.write_root([Money(1), Box("x"), Money(2)])
        reader = ObjectReader(writer.getvalue())
        reader.read_root()
        assert len(writer.linear_map) == len(reader.linear_map)
        for original, copy in zip(writer.linear_map, reader.linear_map):
            assert type(original) is type(copy)

    def test_hook_resizing_the_list_being_written(self):
        """A list is written as the elements it held when its count was:
        a hook that grows it mid-encode must not desynchronise the two."""
        items = []

        class Growing(Serializable):
            def __nrmi_replace__(self):
                items.append("late")
                return MoneyWire(1)

        items.extend([Growing(), "tail"])
        result = roundtrip(items)
        assert len(result) == 2 and result[1] == "tail"
        assert isinstance(result[0], Money)

    def test_replaced_field_inside_copy_restore_argument(self, bump_service):
        """The stream carries the stand-in, so the stand-in is what both
        retained lists hold (used to fail: "caller recorded 1 objects,
        restore payload carries 2")."""
        items = ["x"]
        node = RestorableWithCache(1)
        node.h = Handle(items)
        bump_service.bump_handle(node)
        assert node.data == 2
        # What the server saw and changed is what the caller now sees.
        assert isinstance(node.h, HandleWire)
        assert node.h.x is items
        assert items == ["x", "seen"]

    def test_replaced_field_beside_by_copy_argument(self, bump_service):
        """Same, on the path that walks: a by-copy container ahead of the
        root means the retained set is not simply the root's span, and
        the walk must follow the stand-in that was written."""
        by_copy, items = ["c"], ["x"]
        node = RestorableWithCache(1)
        node.h = Handle(items)
        bump_service.bump_handle_mixed(by_copy, node)
        assert node.data == 2
        assert isinstance(node.h, HandleWire)
        assert items == ["x", "seen"]
        assert by_copy == ["c"]

    def test_resolve_type_through_copy_restore_call(self, endpoint_pair):
        """Value-like resolve types pass through restorable graphs."""

        class PriceService(Remote):
            def discount(self, box):
                box.payload = Money(box.payload.cents // 2)

        service = endpoint_pair.serve(PriceService())
        box = Box(Money(400))
        service.discount(box)
        assert isinstance(box.payload, Money)
        assert box.payload.cents == 200
