"""Class and externalizer registry.

Decoding instantiates only classes that were explicitly registered (or that
inherit one of the marker bases in :mod:`repro.core.markers`, which register
their subclasses automatically). This is the safety line that ``pickle``
lacks: a byte stream can never cause an import or run arbitrary code.

Externalizers let higher layers hijack serialization of special objects —
the RMI layer registers one so exported remote objects travel as remote
references (by-reference semantics), exactly as ``UnicastRemoteObject``
instances do in Java RMI.

Each registry also owns one cache of generated encode plans and one of
decode plans (:mod:`repro.serde.codegen`), so isolated registries never
share compiled code.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.errors import ClassNotRegisteredError, SerializationError
from repro.serde.codegen import compile_codegen_decode_plan, compile_codegen_encode_plan
from repro.serde.hooks import class_version
from repro.serde.schema import schema_epoch


def qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


class Externalizer:
    """Hook that replaces objects with opaque payloads on the wire.

    ``replace(obj)`` returns an encoded payload for objects the hook claims,
    or ``None`` to decline. ``resolve(payload)`` reverses it on the decoding
    side. Both sides must register the hook under the same name.

    ``type_based`` declares that ``claims`` is a pure function of
    ``type(obj)`` (true for every built-in hook: they are all ``isinstance``
    or exact-type checks). The modern profile's encoder caches claim
    decisions per class — and enables generated per-class encoders — only when
    every externalizer in play is type-based. The default is ``False``
    (instance-dependent claims stay correct); hooks whose claim only looks
    at the type should pass ``type_based=True`` to keep the fast path on.
    """

    def __init__(
        self,
        name: str,
        claims: Callable[[Any], bool],
        replace: Callable[[Any], bytes],
        resolve: Callable[[bytes], Any],
        type_based: bool = False,
    ) -> None:
        self.name = name
        self.claims = claims
        self.replace = replace
        self.resolve = resolve
        self.type_based = type_based


class ClassRegistry:
    """Thread-safe registry of serializable classes and externalizers."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._by_name: Dict[str, type] = {}
        self._names: Dict[type, str] = {}
        self._externalizers: Dict[str, Externalizer] = {}
        self._ext_order: Tuple[Externalizer, ...] = ()
        # Generated serde plans (repro.serde.codegen), keyed by class. Each
        # registry owns its caches so isolated registries never share plans.
        self._encode_plans: Dict[type, Any] = {}
        self._decode_plans: Dict[type, Any] = {}

    def register(self, cls: type, name: Optional[str] = None) -> type:
        """Register *cls* for serialization; returns *cls* (decorator use)."""
        if not isinstance(cls, type):
            raise SerializationError(f"can only register classes, got {cls!r}")
        reg_name = name or qualified_name(cls)
        with self._lock:
            existing = self._by_name.get(reg_name)
            if existing is not None and existing is not cls:
                raise SerializationError(
                    f"name {reg_name!r} already registered for a different class"
                )
            self._by_name[reg_name] = cls
            self._names[cls] = reg_name
        return cls

    def is_registered(self, cls: type) -> bool:
        with self._lock:
            return cls in self._names

    def name_of(self, cls: type) -> str:
        with self._lock:
            try:
                return self._names[cls]
            except KeyError:
                raise ClassNotRegisteredError(qualified_name(cls)) from None

    def class_for(self, name: str) -> type:
        with self._lock:
            try:
                return self._by_name[name]
            except KeyError:
                raise ClassNotRegisteredError(name) from None

    def register_externalizer(self, ext: Externalizer) -> None:
        with self._lock:
            self._externalizers[ext.name] = ext
            self._ext_order = tuple(self._externalizers.values())

    def externalizer_for(self, obj: Any) -> Optional[Externalizer]:
        for ext in self._ext_order:
            if ext.claims(obj):
                return ext
        return None

    def externalizers(self) -> Tuple[Externalizer, ...]:
        """Snapshot of registered externalizers, in registration order."""
        return self._ext_order

    def externalizer_named(self, name: str) -> Externalizer:
        with self._lock:
            try:
                return self._externalizers[name]
            except KeyError:
                raise SerializationError(
                    f"no externalizer named {name!r} registered on this side"
                ) from None

    def snapshot_classes(self) -> Dict[str, type]:
        with self._lock:
            return dict(self._by_name)

    def registered_names(self) -> FrozenSet[str]:
        """The wire names currently registered (introspection for tooling).

        The static analyzer and its tests use this to cross-check that
        marker subclasses seen in source really do auto-register.
        """
        with self._lock:
            return frozenset(self._by_name)

    # ---------------------------------------------- generated serde plans

    def codegen_encode_plan_for(self, cls: type):
        """The generated encode plan for *cls* (:mod:`repro.serde.codegen`).

        Recompiled when the class's ``__nrmi_version__`` moves *or* the
        process-wide schema epoch is bumped — generated source bakes
        descriptor blobs in. A failed compile is cached like a success.
        """
        return self._cached_plan(self._encode_plans, cls, compile_codegen_encode_plan)

    def codegen_decode_plan_for(self, cls: type):
        """The generated decode plan for *cls*, invalidated like
        :meth:`codegen_encode_plan_for`."""
        return self._cached_plan(self._decode_plans, cls, compile_codegen_decode_plan)

    def _cached_plan(self, cache: Dict[type, Any], cls: type, compile_plan):
        plan = cache.get(cls)
        if (
            plan is not None
            and plan.version == class_version(cls)
            and plan.epoch == schema_epoch()
        ):
            return plan
        with self._lock:
            plan = cache.get(cls)
            if (
                plan is None
                or plan.version != class_version(cls)
                or plan.epoch != schema_epoch()
            ):
                plan = compile_plan(cls, self.name_of(cls))
                cache[cls] = plan
            return plan

    def invalidate_plans(self, cls: Optional[type] = None) -> None:
        """Drop compiled plans for *cls* (or all classes when omitted)."""
        with self._lock:
            if cls is None:
                self._encode_plans.clear()
                self._decode_plans.clear()
            else:
                self._encode_plans.pop(cls, None)
                self._decode_plans.pop(cls, None)


#: Process-wide default registry. Tests that need isolation construct their
#: own ClassRegistry and pass it to the writer/reader explicitly.
global_registry = ClassRegistry()


def register_class(cls: type, name: Optional[str] = None) -> type:
    """Register a class with the process-wide registry (decorator-friendly).

    Example::

        @register_class
        class TreeNode:
            ...
    """
    return global_registry.register(cls, name)


def register_externalizer(ext: Externalizer) -> None:
    global_registry.register_externalizer(ext)
