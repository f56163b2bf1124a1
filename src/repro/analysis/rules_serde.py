"""Serializability rules (NRMI011–NRMI013, NRMI033).

What the serde layer will reject (or silently mis-handle) at call time,
surfaced at lint time: code-like fields the kind table refuses, dynamic
attribute tricks the graph walker cannot see, and identity-semantics
overrides on linear-map node classes. The unserializable-constructor table is derived from
:func:`repro.serde.kinds.code_like_type_names` so the lint and the
runtime classifier can never drift apart.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import (
    ClassModel,
    ModuleModel,
    dotted_name,
    last_component,
)
from repro.analysis.rulebase import FAMILY_RUNTIME, FAMILY_SERDE, rule
from repro.serde.kinds import code_like_type_names

#: Constructor calls whose results the kind table classifies UNSUPPORTED
#: (or that hold OS state no peer can resurrect).
UNSERIALIZABLE_CONSTRUCTORS = frozenset(
    {
        "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Thread", "Timer",
        "open", "socket", "socketpair", "Popen", "compile",
        "ThreadPoolExecutor", "ProcessPoolExecutor", "Queue",
        "SimpleQueue", "LifoQueue", "PriorityQueue", "memoryview",
        "iter", "BytesIO", "StringIO", "TextIOWrapper",
    }
)

#: AST expression nodes that evaluate to code-like values outright.
_CODE_LIKE_EXPRS = (ast.Lambda, ast.GeneratorExp)


def _unserializable_reason(module: ModuleModel, value: ast.expr) -> Optional[str]:
    if isinstance(value, _CODE_LIKE_EXPRS):
        # A lambda evaluates to a `function`, a genexp to a `generator` —
        # both in the kind table's code-like set, always UNSUPPORTED.
        kind = "function" if isinstance(value, ast.Lambda) else "generator"
        if kind in code_like_type_names():
            return f"a {kind} is code-like: the kind table classifies it UNSUPPORTED"
    if isinstance(value, ast.Call):
        callee = last_component(dotted_name(value.func))
        if callee in UNSERIALIZABLE_CONSTRUCTORS:
            return f"{callee}() constructs a value the serde kind table cannot encode"
    if isinstance(value, ast.Name):
        target = value.id
        for cls in module.classes:
            if cls.name == target:
                return None  # a class *instance* would be fine; a class ref is not stored here
        assigned = module.module_assigns.get(target)
        if assigned is not None and isinstance(assigned, ast.Lambda):
            return f"{target} is a module-level lambda: code-like, never serializable"
    return None


@rule("NRMI011", "unserializable-field", FAMILY_SERDE, Severity.ERROR)
def unserializable_field(module: ModuleModel) -> Iterable[Finding]:
    """A Serializable/Restorable class storing a lock, file handle, lambda
    or other code-like value in a non-transient field dies at encode time
    on the first remote call that ships the instance."""
    for cls in module.classes:
        if not cls.is_serializable:
            continue
        transient = cls.transient_names()
        for method in cls.methods.values():
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    field_name = _self_field(target)
                    if field_name is None or field_name in transient:
                        continue
                    reason = _unserializable_reason(module, stmt.value)
                    if reason:
                        yield unserializable_field.at(
                            module.path,
                            stmt,
                            f"field {cls.name}.{field_name} holds an "
                            f"unserializable value: {reason}",
                            hint="declare it in __nrmi_transient__ (and "
                            "rebuild it in __nrmi_resolve__), or store "
                            "plain data instead",
                        )


def _self_field(target: ast.expr) -> Optional[str]:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


@rule("NRMI012", "dynamic-attr-serializable", FAMILY_SERDE, Severity.WARNING)
def dynamic_attr_serializable(module: ModuleModel) -> Iterable[Finding]:
    """The graph walker reads real storage (``__dict__``/``__slots__``);
    attributes synthesized by ``__getattr__``/``__getattribute__`` are
    silently dropped from the copy, and a computed ``__slots__`` defeats
    the compiled plan's slot layout."""
    for cls in module.classes:
        if not cls.is_serializable:
            continue
        for hook in ("__getattr__", "__getattribute__"):
            method = cls.methods.get(hook)
            if method is not None:
                yield dynamic_attr_serializable.at(
                    module.path,
                    method.node,
                    f"{cls.name} defines {hook} on a serializable class: "
                    "attributes it synthesizes are invisible to the serde "
                    "walker and will not travel",
                    hint="store the data in real fields, or exclude the "
                    "class from serialization",
                )
        slots = cls.class_assigns.get("__slots__")
        if slots is not None and not _is_static_slots(slots):
            yield dynamic_attr_serializable.at(
                module.path,
                slots,
                f"{cls.name}.__slots__ is not a literal tuple/list of "
                "strings: the compiled serde plan cannot derive a stable "
                "slot layout",
                hint="declare __slots__ as a literal tuple of field names",
            )


def _is_static_slots(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return True
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts
        )
    return False


@rule("NRMI013", "identity-override-restorable", FAMILY_SERDE, Severity.WARNING)
def identity_override_restorable(module: ModuleModel) -> Iterable[Finding]:
    """Copy-restore matches objects by *identity* (the linear map is keyed
    on ``id()``); a Restorable class overriding ``__eq__``/``__hash__``
    invites value-equality assumptions that restore will not honour —
    e.g. dict keys that compare equal but restore as distinct nodes."""
    for cls in module.classes:
        if not cls.is_restorable:
            continue
        for hook in ("__eq__", "__hash__"):
            method = cls.methods.get(hook)
            if method is not None:
                yield identity_override_restorable.at(
                    module.path,
                    method.node,
                    f"{cls.name} overrides {hook} but passes by "
                    "copy-restore, which matches nodes by identity, not "
                    "equality",
                    hint="drop the override, or pass the type by-copy "
                    "(Serializable) if value semantics are intended",
                )


@rule("NRMI033", "version-upgrade-drift", FAMILY_RUNTIME, Severity.ERROR)
def version_upgrade_drift(module: ModuleModel) -> Iterable[Finding]:
    """``__nrmi_version__`` and ``__nrmi_upgrade__`` must move together:
    an upgrade hook on a version-0 class is dead code (no wire version is
    ever older than 0), and a non-integer version breaks plan-cache
    invalidation."""
    for cls in module.classes:
        version_node = cls.class_assigns.get("__nrmi_version__")
        has_upgrade = "__nrmi_upgrade__" in cls.methods
        version: Optional[int] = None
        if version_node is not None:
            if isinstance(version_node, ast.Constant) and isinstance(
                version_node.value, int
            ) and not isinstance(version_node.value, bool):
                version = version_node.value
                if version < 0:
                    yield version_upgrade_drift.at(
                        module.path,
                        version_node,
                        f"{cls.name}.__nrmi_version__ is negative; versions "
                        "are unsigned on the wire",
                        hint="use a non-negative integer",
                    )
            else:
                yield version_upgrade_drift.at(
                    module.path,
                    version_node,
                    f"{cls.name}.__nrmi_version__ must be an integer "
                    "literal; anything else breaks serde plan invalidation",
                    hint="declare __nrmi_version__ = <int>",
                )
        if has_upgrade and (version is None or version == 0):
            yield version_upgrade_drift.at(
                module.path,
                cls.methods["__nrmi_upgrade__"].node,
                f"{cls.name} defines __nrmi_upgrade__ but declares no "
                "positive __nrmi_version__: the hook can never fire",
                hint="declare __nrmi_version__ = 1 (or higher) alongside "
                "the upgrade hook",
                severity=Severity.WARNING,
            )
