"""The public API surface: imports, exports, and docstrings."""

import importlib

import pytest

import repro
from repro import nrmi


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.copy_restore",
    "repro.core.local",
    "repro.core.markers",
    "repro.core.restore_protocol",
    "repro.core.semantics",
    "repro.core.verify",
    "repro.nrmi",
    "repro.nrmi.annotations",
    "repro.nrmi.batch",
    "repro.nrmi.config",
    "repro.nrmi.interfaces",
    "repro.nrmi.invocation",
    "repro.nrmi.runtime",
    "repro.nrmi.server_main",
    "repro.rmi",
    "repro.rmi.activation",
    "repro.rmi.dgc",
    "repro.rmi.dispatcher",
    "repro.rmi.export",
    "repro.rmi.protocol",
    "repro.rmi.registry",
    "repro.rmi.remote_ref",
    "repro.serde",
    "repro.serde.accessors",
    "repro.serde.adapters",
    "repro.serde.dump",
    "repro.serde.hooks",
    "repro.serde.kinds",
    "repro.serde.linear_map",
    "repro.serde.profiles",
    "repro.serde.reader",
    "repro.serde.registry",
    "repro.serde.tags",
    "repro.serde.walker",
    "repro.serde.writer",
    "repro.transport",
    "repro.transport.base",
    "repro.transport.fault",
    "repro.transport.framing",
    "repro.transport.inproc",
    "repro.transport.reliability",
    "repro.transport.resolver",
    "repro.transport.simnet",
    "repro.transport.tcp",
    "repro.util",
    "repro.util.buffers",
    "repro.util.clock",
    "repro.util.identity",
    "repro.util.logging",
    "repro.util.metrics",
    "repro.util.rng",
    "repro.bench",
    "repro.bench.figures",
    "repro.bench.harness",
    "repro.bench.manual_restore",
    "repro.bench.mutators",
    "repro.bench.report",
    "repro.bench.structures",
    "repro.bench.tables",
    "repro.bench.trees",
    "repro.errors",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_version():
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_top_level_exports():
    assert set(repro.__all__) == {
        "__version__",
        "Restorable",
        "Serializable",
        "register_class",
    }


def test_nrmi_exports_resolve():
    for name in nrmi.__all__:
        assert getattr(nrmi, name) is not None


def test_all_public_classes_documented():
    from repro.nrmi.runtime import Endpoint
    from repro.core.copy_restore import RestoreEngine
    from repro.serde.writer import ObjectWriter
    from repro.serde.reader import ObjectReader
    from repro.rmi.remote_ref import RemotePointer, RemoteStub

    for cls in (Endpoint, RestoreEngine, ObjectWriter, ObjectReader,
                RemotePointer, RemoteStub):
        assert cls.__doc__, f"{cls.__name__} lacks a docstring"


def test_console_script_entry_point():
    from repro.bench.report import main

    assert callable(main)
