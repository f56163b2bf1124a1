"""Whole-program thread-role model for the concurrency rules.

The staged runtime is a small set of *thread roles*: one selector-driven
net thread, a pool of worker threads, a reader/demux thread where a
class spawns one, the external caller threads that enter through a
class's public surface, and whoever runs ``stop()``/``close()`` at the
end. The NRMI04x family
asks a question the per-method rules cannot: *which roles can execute
this statement, and what locks are they guaranteed to hold when they
do?*

This module answers it syntactically. :func:`concurrency_model` parses
nothing new — it reuses the :class:`~repro.analysis.model.ProjectModel`
built once per lint run — and derives, per class:

* an **effective method table** resolved across modules (a subclass in
  ``transport/shm.py`` inherits its net loop from
  ``transport/netloop.py`` and must be analysed with it);
* **role entry points**: methods calling ``self.<selector>.select(...)``
  (net-loop), targets of ``Thread(target=self.x)`` / ``pool.submit(
  self.x)`` spawn sites (worker, or reader-demux when the target name
  says it reads/receives/demuxes), ``stop``/``close``/``shutdown``/
  ``__exit__``/``__del__`` (stop-finalizer), and every remaining public
  method (client-caller);
* a **role-annotated call graph**: roles propagate along
  ``self.<method>()`` edges, and so do *locksets* — a method called only
  from inside ``with self._lock:`` blocks inherits that guard
  (intersection over all call paths, to a fixed point);
* per-field **access records** (read / write / rmw / mutate / iterate /
  ring ops) tagged with the roles that can reach them and the locks held
  when they run.

Happens-before assumptions baked in: ``__init__``/``__new__`` run before
any thread is spawned or any reference escapes, so construction-time
accesses carry no role (NRMI045 separately checks stores *after* a
``start()`` inside ``__init__``). Methods reachable only from
construction are likewise role-free.

The model is per-class, with one extension: **peer records**. A
slotted class that owns a lock in ``__init__`` (the staged server's
``_Connection``) is a record the roles share by reference. A method's
``<local>.<slot>`` touches of such a record — from the same module —
count as accesses of the field ``<Record>.<slot>``, and ``with
<local>.<lock>:`` holds the lock ``<Record>.<lock>``, so a worker and the
net thread sharing a connection's fields are checked like ``self``
state. Other state handed across objects (a field of another object
stored as ``self._jobs.<field> = ...``) is out of scope and documented
as an under-approximation in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.model import (
    MUTATING_METHODS,
    ClassModel,
    FunctionModel,
    ModuleModel,
    ProjectModel,
    held_locks_of_with,
    last_component,
    lock_aliases,
    lock_attr_names,
)

# ------------------------------------------------------------------ roles

ROLE_NET = "net-loop"
ROLE_WORKER = "worker"
ROLE_READER = "reader-demux"
ROLE_CLIENT = "client-caller"
ROLE_FINALIZER = "stop-finalizer"

#: Roles executed by threads the class itself spawns or drives. The
#: cross-role rules require one of these to be involved: concurrent
#: calls from *external* threads (client-caller vs stop-finalizer) are
#: assumed to be serialized by the caller — the lifecycle contract every
#: transport in this repo documents.
INTERNAL_ROLES = frozenset({ROLE_NET, ROLE_WORKER, ROLE_READER})

#: Method names that mean teardown when present on a class.
FINALIZER_NAMES = frozenset({"stop", "close", "shutdown", "__exit__", "__del__"})

#: A spawned target whose name says it reads/receives/demuxes is a
#: reader/demux thread, not a pool worker.
_READERISH = re.compile(r"read|recv|demux", re.IGNORECASE)

#: SPSC ring endpoint APIs (see util/ring.py): exactly one role may sit
#: on each end of a ring.
RING_PRODUCER_OPS = frozenset({"try_write"})
RING_CONSUMER_OPS = frozenset({"try_read_into"})

#: Access kinds recorded per ``self.<field>`` touch.
READ, WRITE, RMW, MUTATE, ITERATE = "read", "write", "rmw", "mutate", "iterate"


# ---------------------------------------------------------------- records


@dataclass
class FieldAccess:
    """One syntactic touch of ``self.<attr>`` inside a method body."""

    attr: str
    kind: str  # READ | WRITE | RMW | MUTATE | ITERATE
    node: ast.AST
    method: str
    locks: FrozenSet[str]  # locks held lexically at the access site
    #: WRITE lexically inside an ``if`` whose test reads the same field —
    #: the check-then-set half of a non-atomic read-modify-write.
    check_then_set: bool = False
    #: For MUTATE: the mutating method name (``append``, ``pop``, ...).
    op: str = ""


@dataclass
class RingOp:
    """A ``self.<field>.try_write(...)`` / ``try_read_into(...)`` call."""

    attr: str
    op: str
    node: ast.AST
    method: str


@dataclass
class SpawnSite:
    """A ``Thread(target=self.x)`` / ``submit(self.x)`` site."""

    target: str
    node: ast.AST
    method: str


@dataclass
class MethodScan:
    """Purely syntactic facts about one method body."""

    accesses: List[FieldAccess] = field(default_factory=list)
    #: (callee, locks held at the call site) for ``self.<callee>()``.
    self_calls: List[Tuple[str, FrozenSet[str]]] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    ring_ops: List[RingOp] = field(default_factory=list)
    calls_selector_select: bool = False


@dataclass
class PeerRecords:
    """The peer-record classes of one module (see the module docstring):
    slot name → field key and lock name → lock key. Names two such
    classes share are ambiguous syntactically and left out."""

    fields: Dict[str, str] = field(default_factory=dict)
    locks: Dict[str, str] = field(default_factory=dict)


def _literal_names(node: Optional[ast.AST]) -> List[str]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return []
    return [
        e.value for e in node.elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str)
    ]


def peer_records(module: ModuleModel) -> PeerRecords:
    """The slotted, lock-owning classes of *module* as peer records."""
    records = PeerRecords()
    owners: Dict[str, int] = {}
    for cls in module.classes:
        slots = _literal_names(cls.class_assigns.get("__slots__"))
        locks = lock_attr_names(cls)
        if not slots or not locks:
            continue
        for name in slots:
            owners[name] = owners.get(name, 0) + 1
            table = records.locks if name in locks else records.fields
            table[name] = f"{cls.name}.{name}"
    for name, count in owners.items():
        if count > 1:
            records.fields.pop(name, None)
            records.locks.pop(name, None)
    return records


def _is_self_name(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _self_attr(node: ast.AST) -> Optional[str]:
    """``x`` when *node* is exactly ``self.x``."""
    if isinstance(node, ast.Attribute) and _is_self_name(node.value):
        return node.attr
    return None


def _peer_name(node: ast.AST, names: Dict[str, str]) -> Optional[str]:
    """``names[x]`` when *node* is exactly ``<local>.x`` (not ``self``)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id != "self"
    ):
        return names.get(node.attr)
    return None


def _chain_root_attr(node: ast.AST, key_of) -> Optional[str]:
    """The field *key_of* names at the root of ``self.x[...]...`` or
    ``self.x.y...`` (deeper than the bare attribute — a store through it
    mutates x's value)."""
    seen_deeper = False
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        key = key_of(node) if isinstance(node, ast.Attribute) else None
        if key is not None:
            return key if seen_deeper else None
        seen_deeper = True
        node = node.value
    return None


def _spawn_targets_in(node: ast.AST, method_names: Set[str]) -> List[Tuple[str, ast.AST]]:
    """Spawn targets rooted at *node*: ``Thread(target=self.x)``,
    ``Thread(target=<nested def>)`` (each self-method the closure calls),
    and ``<pool>.submit(self.x, ...)``."""
    # Nested function definitions, so closure spawn targets resolve.
    nested: Dict[str, ast.AST] = {
        child.name: child
        for child in ast.walk(node)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        and child is not node
    }
    out: List[Tuple[str, ast.AST]] = []
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        callee = last_component(
            call.func.attr
            if isinstance(call.func, ast.Attribute)
            else getattr(call.func, "id", "")
        )
        target_expr: Optional[ast.AST] = None
        if callee == "Thread":
            for kw in call.keywords:
                if kw.arg == "target":
                    target_expr = kw.value
        elif callee == "submit" and isinstance(call.func, ast.Attribute):
            if call.args:
                target_expr = call.args[0]
        if target_expr is None:
            continue
        attr = _self_attr(target_expr)
        if attr is not None and attr in method_names:
            out.append((attr, call))
        elif isinstance(target_expr, ast.Name) and target_expr.id in nested:
            # Thread(target=<closure>): the closure runs on the spawned
            # thread, so every self-method it calls is an entry point.
            closure = nested[target_expr.id]
            for walked in ast.walk(closure):
                if (
                    isinstance(walked, ast.Call)
                    and isinstance(walked.func, ast.Attribute)
                    and _is_self_name(walked.func.value)
                    and walked.func.attr in method_names
                ):
                    out.append((walked.func.attr, call))
    return out


def scan_method(
    method_node: ast.AST,
    lock_attrs: Set[str],
    method_names: Set[str],
    peers: Optional[PeerRecords] = None,
) -> MethodScan:
    """One guarded recursive descent over a method body; *peers* are the
    defining module's peer records."""
    scan = MethodScan()
    aliases = lock_aliases(method_node, lock_attrs)
    peers = peers if peers is not None else PeerRecords()
    for target, node in _spawn_targets_in(method_node, method_names):
        scan.spawns.append(SpawnSite(target=target, node=node, method=method_node.name))

    def field_key(node: ast.AST) -> Optional[str]:
        """The tracked field *node* names: ``self.x`` or a peer slot."""
        attr = _self_attr(node)
        return attr if attr is not None else _peer_name(node, peers.fields)

    def peer_locks_of_with(node: ast.AST) -> Set[str]:
        return {
            key
            for key in (
                _peer_name(item.context_expr, peers.locks) for item in node.items
            )
            if key is not None
        }

    def record(attr: str, kind: str, node: ast.AST, locks: FrozenSet[str],
               checked: FrozenSet[str], op: str = "") -> None:
        if attr in lock_attrs or attr in method_names:
            return
        scan.accesses.append(
            FieldAccess(
                attr=attr,
                kind=kind,
                node=node,
                method=method_node.name,
                locks=locks,
                check_then_set=(kind == WRITE and attr in checked),
                op=op,
            )
        )

    def fields_read(node: ast.AST) -> FrozenSet[str]:
        return frozenset(
            a for a in (
                field_key(child) for child in ast.walk(node)
                if isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
            ) if a is not None
        )

    def visit(node: ast.AST, locks: FrozenSet[str], checked: FrozenSet[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs run on their own schedule / discipline
        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = locks | frozenset(held_locks_of_with(node, lock_attrs, aliases))
            held |= peer_locks_of_with(node)
            for item in node.items:
                visit(item.context_expr, locks, checked)
            for child in node.body:
                visit(child, held, checked)
            return
        if isinstance(node, ast.If):
            visit(node.test, locks, checked)
            branch_checked = checked | fields_read(node.test)
            for child in node.body:
                visit(child, locks, branch_checked)
            for child in node.orelse:
                visit(child, locks, branch_checked)
            return
        if isinstance(node, ast.Assign):
            targets: List[ast.AST] = []
            for target in node.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                else:
                    targets.append(target)
            for target in targets:
                attr = field_key(target)
                if attr is not None:
                    record(attr, WRITE, node, locks, checked)
                else:
                    root = _chain_root_attr(target, field_key)
                    if root is not None:
                        record(root, MUTATE, node, locks, checked, op="[]=")
            visit(node.value, locks, checked)
            return
        if isinstance(node, ast.AugAssign):
            attr = field_key(node.target)
            if attr is not None:
                record(attr, RMW, node, locks, checked)
            else:
                root = _chain_root_attr(node.target, field_key)
                if root is not None:
                    record(root, MUTATE, node, locks, checked, op="aug")
            visit(node.value, locks, checked)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                attr = field_key(target)
                if attr is not None:
                    record(attr, WRITE, node, locks, checked)
                else:
                    root = _chain_root_attr(target, field_key)
                    if root is not None:
                        record(root, MUTATE, node, locks, checked, op="del")
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for child in ast.walk(node.iter):
                attr = field_key(child)
                if attr is not None and isinstance(child.ctx, ast.Load):
                    record(attr, ITERATE, child, locks, checked)
            visit(node.iter, locks, checked)
            for child in node.body + node.orelse:
                visit(child, locks, checked)
            return
        if isinstance(node, ast.comprehension):
            for child in ast.walk(node.iter):
                attr = field_key(child)
                if attr is not None and isinstance(child.ctx, ast.Load):
                    record(attr, ITERATE, child, locks, checked)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver_attr = _self_attr(func.value)
                if (
                    receiver_attr is not None
                    and func.attr in RING_PRODUCER_OPS | RING_CONSUMER_OPS
                ):
                    scan.ring_ops.append(
                        RingOp(
                            attr=receiver_attr,
                            op=func.attr,
                            node=node,
                            method=method_node.name,
                        )
                    )
                receiver_key = field_key(func.value)
                if receiver_key is not None and func.attr in MUTATING_METHODS:
                    record(receiver_key, MUTATE, node, locks, checked,
                           op=func.attr)
                if _is_self_name(func.value) and func.attr in method_names:
                    scan.self_calls.append((func.attr, locks))
                if func.attr == "select" and _self_attr(func.value) is not None:
                    scan.calls_selector_select = True
        elif isinstance(node, ast.Attribute):
            attr = field_key(node)
            if attr is not None and isinstance(node.ctx, ast.Load):
                record(attr, READ, node, locks, checked)
        for child in ast.iter_child_nodes(node):
            visit(child, locks, checked)

    for child in method_node.body:
        visit(child, frozenset(), frozenset())
    return scan


# --------------------------------------------------------- class analysis


@dataclass
class ResolvedAccess:
    """A FieldAccess with roles and the full path-insensitive lockset."""

    access: FieldAccess
    roles: FrozenSet[str]
    locks: FrozenSet[str]
    path: str  # module the defining method lives in

    @property
    def kind(self) -> str:
        return self.access.kind

    @property
    def node(self) -> ast.AST:
        return self.access.node

    @property
    def method(self) -> str:
        return self.access.method


@dataclass
class ClassConcurrency:
    """Role/lockset view of one class (own methods, inherited entries)."""

    module: ModuleModel
    cls: ClassModel
    lock_attrs: Set[str] = field(default_factory=set)
    #: Effective method table: name → (defining module, FunctionModel,
    #: True when defined on this class rather than inherited).
    methods: Dict[str, Tuple[ModuleModel, FunctionModel, bool]] = field(
        default_factory=dict
    )
    scans: Dict[str, MethodScan] = field(default_factory=dict)
    roles: Dict[str, Set[str]] = field(default_factory=dict)
    #: Locks held on *every* path from an entry point to the method.
    entry_locks: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    spawns: List[SpawnSite] = field(default_factory=list)
    #: Fields whose ``__init__`` value is a sanctioned-atomic container
    #: (deque / util Counter / Gauge): their in-place ops are the
    #: GIL-atomic handoffs the runtime is built on.
    atomic_fields: Set[str] = field(default_factory=set)

    def roles_of(self, method: str) -> FrozenSet[str]:
        return frozenset(self.roles.get(method, ()))

    def has_multiple_roles(self) -> bool:
        seen: Set[str] = set()
        for roleset in self.roles.values():
            seen |= roleset
        return len(seen) > 1

    def reachable_from(self, entry: str) -> Set[str]:
        """Methods reachable from *entry* along self-call edges."""
        seen: Set[str] = set()
        frontier = [entry]
        while frontier:
            current = frontier.pop()
            if current in seen or current not in self.scans:
                continue
            seen.add(current)
            for callee, _ in self.scans[current].self_calls:
                frontier.append(callee)
        return seen

    def fields_read_by(self, methods: Set[str]) -> Set[str]:
        out: Set[str] = set()
        for name in methods:
            scan = self.scans.get(name)
            if scan is None:
                continue
            for access in scan.accesses:
                if access.kind in (READ, MUTATE, ITERATE, RMW):
                    out.add(access.attr)
        return out

    def field_accesses(self) -> Dict[str, List[ResolvedAccess]]:
        """attr → accesses in *own* methods with a role, construction
        excluded (``__init__`` happens-before every spawn/escape)."""
        out: Dict[str, List[ResolvedAccess]] = {}
        for name, (module, _fn, own) in self.methods.items():
            if not own or name in ("__init__", "__new__"):
                continue
            roleset = self.roles_of(name)
            if not roleset:
                continue  # reachable only from construction, or dead
            inherited_locks = self.entry_locks.get(name, frozenset())
            for access in self.scans[name].accesses:
                out.setdefault(access.attr, []).append(
                    ResolvedAccess(
                        access=access,
                        roles=roleset,
                        locks=access.locks | inherited_locks,
                        path=module.path,
                    )
                )
        return out

    def ring_ops_with_roles(self) -> List[Tuple[RingOp, FrozenSet[str], str]]:
        """(op, roles, path) for ring ops in own, role-bearing methods."""
        out: List[Tuple[RingOp, FrozenSet[str], str]] = []
        for name, (module, _fn, own) in self.methods.items():
            if not own or name in ("__init__", "__new__"):
                continue
            roleset = self.roles_of(name)
            if not roleset:
                continue
            for op in self.scans[name].ring_ops:
                out.append((op, roleset, module.path))
        return out


_ATOMIC_CONSTRUCTORS = frozenset({"deque", "counter", "gauge"})


def _atomic_fields_of(cc: ClassConcurrency) -> Set[str]:
    fields: Set[str] = set()
    for name, (_module, fn, _own) in cc.methods.items():
        if name != "__init__":
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            callee = last_component(
                node.value.func.attr
                if isinstance(node.value.func, ast.Attribute)
                else getattr(node.value.func, "id", "")
            )
            if callee.lower() not in _ATOMIC_CONSTRUCTORS:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    fields.add(attr)
    return fields


# -------------------------------------------------------- project analysis


@dataclass
class ProjectConcurrency:
    classes: List[ClassConcurrency] = field(default_factory=list)


def _class_index(project: ProjectModel) -> Dict[str, List[Tuple[ModuleModel, ClassModel]]]:
    index: Dict[str, List[Tuple[ModuleModel, ClassModel]]] = {}
    for module in project.modules:
        for cls in module.classes:
            index.setdefault(cls.name, []).append((module, cls))
    return index


def _resolve_base(
    module: ModuleModel,
    base_short: str,
    index: Dict[str, List[Tuple[ModuleModel, ClassModel]]],
) -> Optional[Tuple[ModuleModel, ClassModel]]:
    """Same module first; otherwise a unique cross-module match."""
    local = module.class_named(base_short)
    if local is not None:
        return module, local
    candidates = index.get(base_short, [])
    if len(candidates) == 1:
        return candidates[0]
    return None  # absent or ambiguous: stop walking this edge


def _effective_methods(
    module: ModuleModel,
    cls: ClassModel,
    index: Dict[str, List[Tuple[ModuleModel, ClassModel]]],
) -> Tuple[Dict[str, Tuple[ModuleModel, FunctionModel, bool]], Set[str]]:
    """MRO-flattened method table and the union of lock attrs."""
    methods: Dict[str, Tuple[ModuleModel, FunctionModel, bool]] = {}
    locks: Set[str] = set()
    seen: Set[int] = set()
    queue: deque = deque([(module, cls, True)])
    while queue:
        mod, current, own = queue.popleft()
        if id(current) in seen:
            continue
        seen.add(id(current))
        locks |= lock_attr_names(current)
        for name, fn in current.methods.items():
            if name not in methods:  # subclass definition wins
                methods[name] = (mod, fn, own)
        for base in current.base_names:
            resolved = _resolve_base(mod, last_component(base), index)
            if resolved is not None:
                queue.append((resolved[0], resolved[1], False))
    return methods, locks


def _build_class(
    module: ModuleModel,
    cls: ClassModel,
    index: Dict[str, List[Tuple[ModuleModel, ClassModel]]],
    peers: Dict[str, PeerRecords],
) -> ClassConcurrency:
    """*peers* caches :func:`peer_records` by module path."""
    cc = ClassConcurrency(module=module, cls=cls)
    cc.methods, cc.lock_attrs = _effective_methods(module, cls, index)
    names = set(cc.methods)
    for name, (mod, fn, _own) in cc.methods.items():
        if mod.path not in peers:
            peers[mod.path] = peer_records(mod)
        cc.scans[name] = scan_method(fn.node, cc.lock_attrs, names, peers[mod.path])
        cc.spawns.extend(cc.scans[name].spawns)
    cc.atomic_fields = _atomic_fields_of(cc)
    _infer_roles(cc)
    return cc


def _spawn_role(cc: ClassConcurrency, target: str) -> str:
    """Classify a spawned entry: a target whose reachable set runs the
    selector loop IS the net thread; a reader-ish name is the demux
    thread; everything else is a pool worker."""
    for name in cc.reachable_from(target):
        if cc.scans[name].calls_selector_select:
            return ROLE_NET
    if _READERISH.search(target):
        return ROLE_READER
    return ROLE_WORKER


def _infer_roles(cc: ClassConcurrency) -> None:
    entries: List[Tuple[str, str]] = []  # (method, role)
    for name, scan in cc.scans.items():
        if name in ("__init__", "__new__"):
            continue
        if scan.calls_selector_select:
            entries.append((name, ROLE_NET))
    spawn_targets = {site.target for site in cc.spawns}
    for target in sorted(spawn_targets):
        if target in cc.scans:
            entries.append((target, _spawn_role(cc, target)))
    entry_names = {name for name, _ in entries}
    for name in cc.methods:
        if name in FINALIZER_NAMES and name not in entry_names:
            entries.append((name, ROLE_FINALIZER))
            entry_names.add(name)
    for name in cc.methods:
        if (
            name not in entry_names
            and not name.startswith("_")
            and name not in ("__init__", "__new__")
        ):
            entries.append((name, ROLE_CLIENT))

    # Propagate (roles, entry lockset) along self-call edges to a fixed
    # point. entry_locks[m] is the *intersection* of locks held on every
    # path reaching m: a helper only ever called under self._lock is as
    # guarded as its callers.
    pending: deque = deque()

    def merge(name: str, roles: Set[str], locks: FrozenSet[str]) -> None:
        changed = False
        have = cc.roles.setdefault(name, set())
        if not roles <= have:
            have |= roles
            changed = True
        if name not in cc.entry_locks:
            cc.entry_locks[name] = locks
            changed = True
        else:
            narrowed = cc.entry_locks[name] & locks
            if narrowed != cc.entry_locks[name]:
                cc.entry_locks[name] = narrowed
                changed = True
        if changed:
            pending.append(name)

    for name, role in entries:
        merge(name, {role}, frozenset())
    while pending:
        current = pending.popleft()
        if current not in cc.scans:
            continue
        roles = set(cc.roles.get(current, ()))
        base_locks = cc.entry_locks.get(current, frozenset())
        for callee, site_locks in cc.scans[current].self_calls:
            if callee in ("__init__", "__new__"):
                continue
            merge(callee, roles, base_locks | site_locks)


def concurrency_model(project: ProjectModel) -> ProjectConcurrency:
    """Build (and cache on the project) the whole-program role model."""
    cached = getattr(project, "_concurrency_cache", None)
    if cached is not None:
        return cached
    index = _class_index(project)
    peers: Dict[str, PeerRecords] = {}
    model = ProjectConcurrency()
    for module in project.modules:
        for cls in module.classes:
            model.classes.append(_build_class(module, cls, index, peers))
    project._concurrency_cache = model
    return model
