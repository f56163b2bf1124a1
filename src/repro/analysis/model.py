"""AST source model shared by every lint rule.

One :class:`ModuleModel` per parsed file captures what the rules need:
classes with their bases/decorators/methods, module-level names,
``bind(..., interface=...)`` sites, and the ``# nrmi:`` suppression
comments. A :class:`ProjectModel` groups the modules of one run for
the whole-program rules (the NRMI04x thread-role model).

The model is purely syntactic — nothing here imports the code under
analysis, so the linter can chew on broken, unimportable, or fixture
modules safely.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Marker base-class names selecting serialization semantics (matched on
#: the last component of a dotted base expression).
SERIALIZABLE_BASES = frozenset({"Serializable", "Restorable"})
RESTORABLE_BASES = frozenset({"Restorable"})
REMOTE_BASES = frozenset({"Remote"})

#: Name suffixes identifying remote-interface declarations even when the
#: class never appears in a ``bind(..., interface=...)`` call.
INTERFACE_SUFFIXES = ("Contract", "Interface")

_SUPPRESS_RE = re.compile(
    r"#\s*nrmi:\s*(?P<scope>disable(?:-file)?)"
    r"(?:=(?P<codes>[A-Z0-9, ]+))?"
    r"(?:\s*--\s*(?P<reason>.+))?\s*$"
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_component(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


@dataclass
class Suppression:
    """One ``# nrmi: disable[=CODES] -- reason`` directive."""

    line: int
    codes: Optional[frozenset]  # None means "all codes"
    reason: str
    file_level: bool

    def covers(self, code: str, line: int) -> bool:
        if not self.reason:
            return False  # naked suppressions are ineffective (NRMI008)
        if self.codes is not None and code not in self.codes:
            return False
        return self.file_level or line == self.line


@dataclass
class FunctionModel:
    """A def/async-def, with the facts rules ask about pre-extracted."""

    node: ast.AST
    name: str
    lineno: int
    decorators: List[Tuple[str, ast.AST]] = field(default_factory=list)
    is_method: bool = False

    @property
    def params(self) -> List[str]:
        """Positional/keyword parameter names, ``self``/``cls`` excluded."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        names.extend(a.arg for a in args.kwonlyargs)
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def positional_capacity(self) -> Tuple[int, Optional[int]]:
        """(min_required, max_allowed_or_None) positionals after self."""
        args = self.node.args
        positional = args.posonlyargs + args.args
        if self.is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        maximum: Optional[int] = len(positional)
        minimum = len(positional) - len(args.defaults)
        if args.vararg is not None:
            maximum = None
        return max(minimum, 0), maximum

    def decorator_names(self) -> List[str]:
        return [name for name, _ in self.decorators]

    def restore_policy(self) -> Optional[str]:
        """The policy pinned by ``@no_restore``/``@restore_policy(...)``."""
        for name, node in self.decorators:
            short = last_component(name)
            if short == "no_restore":
                return "none"
            if short == "restore_policy" and isinstance(node, ast.Call):
                if node.args and isinstance(node.args[0], ast.Constant):
                    value = node.args[0].value
                    if isinstance(value, str):
                        return value
        return None


@dataclass
class ClassModel:
    node: ast.ClassDef
    name: str
    lineno: int
    base_names: List[str] = field(default_factory=list)
    decorator_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionModel] = field(default_factory=dict)
    nested_classes: List[ast.ClassDef] = field(default_factory=list)
    class_assigns: Dict[str, ast.expr] = field(default_factory=dict)

    def base_shorts(self) -> Set[str]:
        return {last_component(b) for b in self.base_names}

    @property
    def is_remote(self) -> bool:
        return bool(self.base_shorts() & REMOTE_BASES)

    @property
    def is_serializable(self) -> bool:
        if self.base_shorts() & SERIALIZABLE_BASES:
            return True
        return any(
            last_component(d) == "register_class" for d in self.decorator_names
        )

    @property
    def is_restorable(self) -> bool:
        return bool(self.base_shorts() & RESTORABLE_BASES)

    def looks_like_interface(self) -> bool:
        return self.name.endswith(INTERFACE_SUFFIXES)

    def transient_names(self) -> frozenset:
        """Literal ``__nrmi_transient__`` declaration, if statically visible."""
        node = self.class_assigns.get("__nrmi_transient__")
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = [
                e.value
                for e in node.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            return frozenset(names)
        return frozenset()

    def public_method_names(self) -> List[str]:
        return [n for n in self.methods if not n.startswith("_")]


@dataclass
class BindSite:
    """One ``<endpoint>.bind(name, impl, interface=I)`` call."""

    node: ast.Call
    lineno: int
    interface_name: str
    impl_expr: Optional[ast.expr]


@dataclass
class ModuleModel:
    path: str
    source: str
    tree: ast.Module
    classes: List[ClassModel] = field(default_factory=list)
    module_assigns: Dict[str, ast.expr] = field(default_factory=dict)
    bind_sites: List[BindSite] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    naked_suppressions: List[int] = field(default_factory=list)

    def class_named(self, name: str) -> Optional[ClassModel]:
        short = last_component(name)
        for cls in self.classes:
            if cls.name == short:
                return cls
        return None

    def interface_classes(self) -> List[ClassModel]:
        """Classes used as contracts: named *Contract/*Interface or passed
        as ``interface=`` to a bind call in this module."""
        bound = {last_component(site.interface_name) for site in self.bind_sites}
        return [
            cls
            for cls in self.classes
            if cls.looks_like_interface() or cls.name in bound
        ]

    def is_suppressed(self, code: str, line: int) -> bool:
        return any(s.covers(code, line) for s in self.suppressions)

    def resolve_method(
        self, cls: ClassModel, name: str
    ) -> Optional[FunctionModel]:
        """Look *name* up on *cls*, walking same-module base classes."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            if name in current.methods:
                return current.methods[name]
            for base in current.base_names:
                parent = self.class_named(base)
                if parent is not None:
                    stack.append(parent)
        return None


@dataclass
class ProjectModel:
    modules: List[ModuleModel] = field(default_factory=list)


# ------------------------------------------------------------- construction


def _collect_function(node, is_method: bool) -> FunctionModel:
    decorators = [(dotted_name(d) or _call_name(d) or "", d) for d in node.decorator_list]
    return FunctionModel(
        node=node,
        name=node.name,
        lineno=node.lineno,
        decorators=decorators,
        is_method=is_method,
    )


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def _collect_class(node: ast.ClassDef) -> ClassModel:
    cls = ClassModel(
        node=node,
        name=node.name,
        lineno=node.lineno,
        base_names=[dotted_name(b) or "" for b in node.bases],
        decorator_names=[
            dotted_name(d) or _call_name(d) or "" for d in node.decorator_list
        ],
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = _collect_function(stmt, is_method=True)
        elif isinstance(stmt, ast.ClassDef):
            cls.nested_classes.append(stmt)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    cls.class_assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                cls.class_assigns[stmt.target.id] = stmt.value
    return cls


def _collect_bind_sites(tree: ast.Module) -> List[BindSite]:
    sites: List[BindSite] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func_name = dotted_name(node.func)
        if last_component(func_name) != "bind":
            continue
        interface = None
        for keyword in node.keywords:
            if keyword.arg == "interface":
                interface = dotted_name(keyword.value)
        if interface is None:
            continue
        impl = node.args[1] if len(node.args) >= 2 else None
        sites.append(
            BindSite(
                node=node,
                lineno=node.lineno,
                interface_name=interface,
                impl_expr=impl,
            )
        )
    return sites


def _collect_suppressions(source: str) -> Tuple[List[Suppression], List[int]]:
    directives: List[Suppression] = []
    naked: List[int] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return directives, naked
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = None
        if match.group("codes"):
            codes = frozenset(
                c.strip() for c in match.group("codes").split(",") if c.strip()
            )
        reason = (match.group("reason") or "").strip()
        if not reason:
            naked.append(line)
        directives.append(
            Suppression(
                line=line,
                codes=codes,
                reason=reason,
                file_level=match.group("scope") == "disable-file",
            )
        )
    return directives, naked


def build_module(path: str, source: str) -> ModuleModel:
    """Parse *source* into a ModuleModel. Raises SyntaxError on bad input."""
    tree = ast.parse(source, filename=path)
    module = ModuleModel(path=path, source=source, tree=tree)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            module.classes.append(_collect_class(stmt))
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.module_assigns[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                module.module_assigns[stmt.target.id] = stmt.value
    # Nested classes (inside functions / other classes) still matter for
    # marker-based rules: collect them too, flattened.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and all(
            node is not cls.node for cls in module.classes
        ):
            module.classes.append(_collect_class(node))
    module.bind_sites = _collect_bind_sites(tree)
    module.suppressions, module.naked_suppressions = _collect_suppressions(source)
    return module


# --------------------------------------------------- shared AST utilities


#: Constructors whose result is a mutual-exclusion primitive: a ``with``
#: block over one of these attributes counts as a guard.
LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def lock_attr_names(cls: ClassModel) -> Set[str]:
    """self attributes initialised to a threading lock in ``__init__``."""
    init = cls.methods.get("__init__")
    if init is None:
        return set()
    locks: Set[str] = set()
    for node in ast.walk(init.node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        callee = last_component(dotted_name(node.value.func))
        if callee not in LOCK_CONSTRUCTORS:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks.add(target.attr)
    return locks


def lock_aliases(method_node: ast.AST, lock_attrs: Set[str]) -> Dict[str, str]:
    """Local name → lock attribute for ``name = self.<lock>`` bindings.

    ``lock = self._lock`` followed by ``with lock:`` is the same guard as
    ``with self._lock:`` — RLock callers use the alias shape for re-entrant
    sections. Collected over the whole method (flow-insensitive): a name
    aliasing a lock anywhere in the method is treated as that lock, which
    over-approximates guarding but never invents a lock that isn't there.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(method_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and value.attr in lock_attrs
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = value.attr
    return aliases


def held_locks_of_with(
    node: ast.AST, lock_attrs: Set[str], aliases: Dict[str, str]
) -> Set[str]:
    """Lock attributes acquired by a ``with``/``async with`` statement."""
    held: Set[str] = set()
    for item in getattr(node, "items", ()):
        expr = item.context_expr
        # `with self._lock:` — possibly `with self._lock.acquire_timeout()`
        # style chains are NOT matched: only the bare attribute context.
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in lock_attrs
        ):
            held.add(expr.attr)
        elif isinstance(expr, ast.Name) and expr.id in aliases:
            held.add(aliases[expr.id])
    return held


#: Methods that mutate their receiver in place — used by the copy-restore
#: hazard rules to spot writes routed through a call.
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "setdefault", "popitem",
        "appendleft", "extendleft", "rotate", "__setitem__", "__delitem__",
    }
)


def root_name(node: ast.AST) -> Optional[str]:
    """The base Name of an attribute/subscript chain (``a`` in ``a.b[0].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None
