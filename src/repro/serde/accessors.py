"""Field accessors: how the middleware reads and writes object state.

The paper's NRMI ships two implementations (Section 5.3.1):

* a **portable** one built on Java reflection — general and slow, with a
  security check paid on every field access;
* an **optimized** one built on the JVM's ``Unsafe`` direct-memory access —
  fast, but tied to JDK 1.4 internals.

The reproduction mirrors the split with two accessors sharing one interface:

* :class:`PortableAccessor` re-derives the field list on every call and
  routes each access through a per-field validation step (the analogue of
  reflection's security check);
* :class:`OptimizedAccessor` caches a per-class *field plan* (slot layout,
  instance factory) and reads ``__dict__`` in bulk.

Both handle ``__dict__`` classes, ``__slots__`` classes, and mixed
hierarchies. Instances are created without running ``__init__`` — the state
that matters is about to be overwritten anyway, and constructors of user
classes may have side effects middleware must not trigger.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import SerializationError

FieldState = List[Tuple[str, Any]]


def _collect_slot_names(cls: type) -> List[str]:
    """All ``__slots__`` names along the MRO, deduplicated in MRO order."""
    names: List[str] = []
    seen = set()
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in seen:
                continue
            seen.add(name)
            names.append(name)
    return names


class FieldAccessor:
    """Interface for reading/writing instance state and making instances."""

    name = "abstract"

    def get_state(self, obj: Any) -> FieldState:
        """Return the instance's fields as an ordered (name, value) list."""
        raise NotImplementedError

    def set_state(self, obj: Any, state: FieldState) -> None:
        """Overwrite the instance's fields from an ordered (name, value) list."""
        raise NotImplementedError

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        raise NotImplementedError

    def new_instance(self, cls: type) -> Any:
        """Allocate an instance of *cls* without running ``__init__``."""
        raise NotImplementedError


class PortableAccessor(FieldAccessor):
    """Reflection-style access: no caching, per-access validation.

    Every ``get_state`` walks the MRO afresh to discover slots, and every
    field read/write passes through :meth:`_check_access` — the stand-in for
    the per-field security check Java reflection imposes. This is the
    truthful cost model for the paper's "portable" implementation.
    """

    name = "portable"

    def _check_access(self, obj: Any, field_name: str) -> None:
        # Deliberately thorough: the legacy stack validates each access.
        if not isinstance(field_name, str) or not field_name:
            raise SerializationError(f"invalid field name {field_name!r}")
        if field_name.startswith("__") and field_name.endswith("__"):
            raise SerializationError(
                f"refusing to serialize dunder field {field_name!r} on "
                f"{type(obj).__name__}"
            )

    def get_state(self, obj: Any) -> FieldState:
        state: FieldState = []
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is not None:
            for field_name in instance_dict:
                self._check_access(obj, field_name)
                state.append((field_name, getattr(obj, field_name)))
        for field_name in _collect_slot_names(type(obj)):
            self._check_access(obj, field_name)
            try:
                state.append((field_name, getattr(obj, field_name)))
            except AttributeError:
                continue  # unset slot: absent from the wire, like Java transient
        return state

    def set_state(self, obj: Any, state: FieldState) -> None:
        for field_name, value in state:
            self._check_access(obj, field_name)
            object.__setattr__(obj, field_name, value)

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        self._check_access(obj, name)
        object.__setattr__(obj, name, value)

    def new_instance(self, cls: type) -> Any:
        return object.__new__(cls)


class _ClassPlan:
    """Cached per-class layout used by the optimized accessor."""

    __slots__ = ("cls", "slot_names", "has_dict", "factory")

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.slot_names: Tuple[str, ...] = tuple(_collect_slot_names(cls))
        self.has_dict = hasattr(cls, "__dict__") or not self.slot_names
        factory: Callable[[], Any] = object.__new__  # bound below
        self.factory = lambda: factory(cls)


class OptimizedAccessor(FieldAccessor):
    """Direct access with cached per-class plans (the "Unsafe" analogue)."""

    name = "optimized"

    def __init__(self) -> None:
        self._plans: Dict[type, _ClassPlan] = {}
        self._lock = threading.Lock()

    def _plan_for(self, cls: type) -> _ClassPlan:
        plan = self._plans.get(cls)
        if plan is None:
            with self._lock:
                plan = self._plans.get(cls)
                if plan is None:
                    plan = _ClassPlan(cls)
                    self._plans[cls] = plan
        return plan

    def get_state(self, obj: Any) -> FieldState:
        plan = self._plan_for(type(obj))
        instance_dict = obj.__dict__ if plan.has_dict and hasattr(obj, "__dict__") else None
        if instance_dict is not None and not plan.slot_names:
            return list(instance_dict.items())
        state: FieldState = list(instance_dict.items()) if instance_dict else []
        for field_name in plan.slot_names:
            try:
                state.append((field_name, getattr(obj, field_name)))
            except AttributeError:
                continue
        return state

    def set_state(self, obj: Any, state: FieldState) -> None:
        plan = self._plan_for(type(obj))
        if plan.has_dict and not plan.slot_names and hasattr(obj, "__dict__"):
            # Bulk path: replace the instance dict wholesale.
            obj.__dict__.clear()
            obj.__dict__.update(state)
            return
        for field_name, value in state:
            object.__setattr__(obj, field_name, value)

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        object.__setattr__(obj, name, value)

    def new_instance(self, cls: type) -> Any:
        return self._plan_for(cls).factory()

    def dict_only(self, cls: type) -> bool:
        """Whether instances of *cls* keep all their state in ``__dict__``,
        so a caller may read and replace that dict wholesale."""
        # __dictoffset__ is 0 exactly when instances carry no __dict__
        # (every class in the MRO declares __slots__, possibly empty).
        return not self._plan_for(cls).slot_names and cls.__dictoffset__ != 0


#: Shared default instances. The portable accessor is stateless; the
#: optimized accessor's cache is monotonic, so sharing is safe.
PORTABLE_ACCESSOR = PortableAccessor()
OPTIMIZED_ACCESSOR = OptimizedAccessor()


def accessor_by_name(name: str) -> FieldAccessor:
    if name == "portable":
        return PORTABLE_ACCESSOR
    if name == "optimized":
        return OPTIMIZED_ACCESSOR
    raise ValueError(f"unknown accessor {name!r}; expected 'portable' or 'optimized'")
