"""Concurrency rules (NRMI041–NRMI046): shared-state race detection.

Built on the whole-program thread-role model in
:mod:`repro.analysis.project`. The family generalizes NRMI031's
per-method lock discipline to the question that actually bit during the
shm-ring hardening: *can two different thread roles reach this state,
and is there a lock both of them hold?*

* **NRMI041** — an instance field written by one role and touched by
  another with no common ``with self.<lock>:`` guard (lockset-style); a
  peer record's fields (see :mod:`repro.analysis.project`) count too.
* **NRMI042** — a non-atomic read-modify-write (``x += 1``,
  check-then-set) on a cross-role field outside any lock. ``deque`` and
  the ``util`` Counter/Gauge are the sanctioned atomics and exempt.
* **NRMI043** — SPSC ring ownership: ``try_write`` reachable from more
  than one role, ``try_read_into`` from more than one role, or one role
  consuming the ring it also produces.
* **NRMI044** — a collection iterated by one role while another role
  mutates it without a common lock.
* **NRMI045** — state published by plain store after a thread
  ``start()`` inside ``__init__``, where the spawned role reads it —
  outside the ``__init__``-before-``start()`` happens-before window.
* **NRMI046** — a ``threading`` primitive that *flows* into the wire: an
  aliased local stored in a Serializable field, or a closure capturing a
  lock that is stored/returned across the boundary (NRMI011 only sees
  direct constructor stores).

NRMI041–045 are project-scoped (roles may come from an inherited net
loop in another module); NRMI046 is module-scoped flow inside one class.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import (
    ClassModel,
    ModuleModel,
    ProjectModel,
    dotted_name,
    last_component,
    lock_attr_names,
)
from repro.analysis.project import (
    INTERNAL_ROLES,
    ITERATE,
    MUTATE,
    READ,
    RING_CONSUMER_OPS,
    RING_PRODUCER_OPS,
    RMW,
    WRITE,
    ClassConcurrency,
    ResolvedAccess,
    concurrency_model,
)
from repro.analysis.rulebase import FAMILY_CONCURRENCY, rule


def _roles_str(roles: Iterable[str]) -> str:
    return "/".join(sorted(set(roles)))


def _cross_role(accesses: List[ResolvedAccess]) -> Optional[FrozenSet[str]]:
    """The union of roles when the accesses span ≥2 roles, at least one
    of them an internal thread role; None otherwise (single-role state,
    or purely external callers, who are assumed to serialize lifecycle
    calls themselves)."""
    roles: Set[str] = set()
    for access in accesses:
        roles |= access.roles
    if len(roles) < 2 or not (roles & INTERNAL_ROLES):
        return None
    return frozenset(roles)


def _common_locks(accesses: List[ResolvedAccess]) -> FrozenSet[str]:
    common: Optional[FrozenSet[str]] = None
    for access in accesses:
        common = access.locks if common is None else common & access.locks
    return common if common is not None else frozenset()


@rule(
    "NRMI041",
    "cross-role-unguarded-field",
    FAMILY_CONCURRENCY,
    Severity.WARNING,
    scope="project",
)
def cross_role_unguarded_field(project: ProjectModel) -> Iterable[Finding]:
    """A field written by one thread role and read or written by another,
    with no lock common to every access, is the shape of every torn-state
    bug the staged core guards against. Locksets are interprocedural: a
    helper only ever called under ``with self._lock:`` counts as guarded.
    ``__init__`` is exempt (construction happens-before sharing);
    read-modify-write sites are NRMI042's to report."""
    for cc in concurrency_model(project).classes:
        if not cc.has_multiple_roles():
            continue
        for attr, accesses in sorted(cc.field_accesses().items()):
            roles = _cross_role(accesses)
            if roles is None:
                continue
            writes = [a for a in accesses if a.kind in (WRITE, RMW)]
            if not writes:
                continue
            if _common_locks(accesses):
                continue
            plain = sorted(
                (
                    a
                    for a in writes
                    if a.kind == WRITE and not a.locks and not a.access.check_then_set
                ),
                key=lambda a: a.node.lineno,
            )
            if not plain:
                continue  # rmw/check-then-set only: NRMI042 anchors there
            anchor = plain[0]
            others = _roles_str(roles - anchor.roles) or _roles_str(roles)
            yield cross_role_unguarded_field.at(
                anchor.path,
                anchor.node,
                f"{cc.cls.name}.{attr} is written in {anchor.method} "
                f"({_roles_str(anchor.roles)} role) and touched from the "
                f"{others} role with no common lock",
                hint="guard every access with one 'with self.<lock>:' (for "
                "a peer record's field, its own lock), or suppress with the "
                "ordering argument that makes it safe",
            )


@rule(
    "NRMI042",
    "non-atomic-cross-role-rmw",
    FAMILY_CONCURRENCY,
    Severity.WARNING,
    scope="project",
)
def non_atomic_cross_role_rmw(project: ProjectModel) -> Iterable[Finding]:
    """``self.x += 1`` and check-then-set are read-modify-write: two
    roles interleaving between the read and the write lose updates even
    under the GIL. Fields holding the sanctioned atomics — ``deque``
    (single-op append/popleft handoff) and the ``util`` Counter/Gauge —
    are exempt; everything else needs a lock around the whole RMW."""
    for cc in concurrency_model(project).classes:
        if not cc.has_multiple_roles():
            continue
        for attr, accesses in sorted(cc.field_accesses().items()):
            if attr in cc.atomic_fields:
                continue
            roles = _cross_role(accesses)
            if roles is None:
                continue
            if _common_locks(accesses):
                continue
            for access in sorted(accesses, key=lambda a: a.node.lineno):
                if access.locks:
                    continue
                is_rmw = access.kind == RMW or (
                    access.kind == WRITE and access.access.check_then_set
                )
                if not is_rmw:
                    continue
                shape = (
                    "augmented assignment"
                    if access.kind == RMW
                    else "check-then-set"
                )
                yield non_atomic_cross_role_rmw.at(
                    access.path,
                    access.node,
                    f"{cc.cls.name}.{attr} {shape} in {access.method} "
                    f"({_roles_str(access.roles)} role) is a non-atomic "
                    f"read-modify-write on state the "
                    f"{_roles_str(roles - access.roles) or _roles_str(roles)} "
                    f"role also touches",
                    hint="hold a lock across the read and the write, or use "
                    "a sanctioned atomic (util Counter/Gauge, deque handoff)",
                )


@rule(
    "NRMI043",
    "spsc-ring-ownership",
    FAMILY_CONCURRENCY,
    Severity.ERROR,
    scope="project",
)
def spsc_ring_ownership(project: ProjectModel) -> Iterable[Finding]:
    """The shm ring is single-producer/single-consumer: its memory model
    (monotonic head/tail, release-style control writes) is only sound
    when exactly one role sits on each end. Flags ``try_write`` reachable
    from two roles, ``try_read_into`` reachable from two roles, and a
    role consuming the same ring field it produces."""
    for cc in concurrency_model(project).classes:
        producers: Dict[str, Dict[str, Tuple]] = {}
        consumers: Dict[str, Dict[str, Tuple]] = {}
        for op, roles, path in cc.ring_ops_with_roles():
            table = producers if op.op in RING_PRODUCER_OPS else consumers
            for role in roles:
                table.setdefault(op.attr, {}).setdefault(role, (op, path))
        for attr in sorted(set(producers) | set(consumers)):
            prod = producers.get(attr, {})
            cons = consumers.get(attr, {})
            for side, table in (("producer", prod), ("consumer", cons)):
                if len(table) > 1:
                    op, path = sorted(
                        table.values(), key=lambda item: item[0].node.lineno
                    )[-1]
                    yield spsc_ring_ownership.at(
                        path,
                        op.node,
                        f"ring {cc.cls.name}.{attr}: {side} API {op.op} is "
                        f"reachable from roles {_roles_str(table)} — SPSC "
                        f"ownership allows exactly one {side} role",
                        hint="route the extra role's traffic through the "
                        "owning role (queue handoff), or give it its own ring",
                    )
            overlap = set(prod) & set(cons)
            for role in sorted(overlap):
                op, path = cons[role]
                yield spsc_ring_ownership.at(
                    path,
                    op.node,
                    f"ring {cc.cls.name}.{attr}: the {role} role consumes "
                    f"({op.op}) the same ring it produces — a duplex pairs "
                    f"one producer ring with a separate consumer ring",
                    hint="keep tx and rx as distinct ring fields per "
                    "direction (see transport/shm.py's _RingDuplex)",
                )


@rule(
    "NRMI044",
    "cross-role-iterate-mutate",
    FAMILY_CONCURRENCY,
    Severity.WARNING,
    scope="project",
)
def cross_role_iterate_mutate(project: ProjectModel) -> Iterable[Finding]:
    """Iterating a dict/list/set while another role mutates it raises
    ``RuntimeError: changed size during iteration`` at best and yields a
    torn snapshot at worst — deque's atomic handoff ops do not sanction
    cross-role *iteration* either. Flagged when the iterating and
    mutating accesses share no lock."""
    for cc in concurrency_model(project).classes:
        if not cc.has_multiple_roles():
            continue
        for attr, accesses in sorted(cc.field_accesses().items()):
            iters = [a for a in accesses if a.kind == ITERATE]
            mutates = [a for a in accesses if a.kind in (MUTATE, WRITE, RMW)]
            if not iters or not mutates:
                continue
            involved = iters + mutates
            roles = _cross_role(involved)
            if roles is None:
                continue
            iter_roles: Set[str] = set()
            for a in iters:
                iter_roles |= a.roles
            if _common_locks(involved):
                continue
            foreign = sorted(
                (a for a in mutates if not (a.roles <= iter_roles)),
                key=lambda a: a.node.lineno,
            )
            if not foreign:
                continue
            anchor = foreign[0]
            yield cross_role_iterate_mutate.at(
                anchor.path,
                anchor.node,
                f"{cc.cls.name}.{attr} is mutated in {anchor.method} "
                f"({_roles_str(anchor.roles)} role) while the "
                f"{_roles_str(iter_roles)} role iterates it, with no "
                f"common lock",
                hint="snapshot under a lock before iterating, or confine "
                "the collection to one role and hand off via a queue/deque",
            )


def _thread_field_targets(cc: ClassConcurrency, init_node: ast.AST) -> Dict[str, str]:
    """name → spawned self-method for Thread(...) values bound in
    ``__init__`` (covers ``self._t = Thread(target=self.x)``, locals, and
    list-comprehension worker pools)."""
    targets: Dict[str, str] = {}

    def thread_target_of(value: ast.AST) -> Optional[str]:
        for call in ast.walk(value):
            if not isinstance(call, ast.Call):
                continue
            callee = last_component(dotted_name(call.func) or "")
            if callee != "Thread":
                continue
            for kw in call.keywords:
                if kw.arg == "target":
                    target = kw.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in cc.methods
                    ):
                        return target.attr
        return None

    for node in ast.walk(init_node):
        if not isinstance(node, ast.Assign):
            continue
        spawned = thread_target_of(node.value)
        if spawned is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                targets[target.id] = spawned
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                targets["self." + target.attr] = spawned
    return targets


@rule(
    "NRMI045",
    "publish-after-start",
    FAMILY_CONCURRENCY,
    Severity.WARNING,
    scope="project",
)
def publish_after_start(project: ProjectModel) -> Iterable[Finding]:
    """``__init__`` happens-before the threads it spawns — but only up to
    the ``start()`` call. A plain field store *after* ``start()`` races
    the spawned thread's first reads: there is no release/acquire edge
    left to order it. Publish before starting, hold a lock, or hand the
    value over through a queue."""
    for cc in concurrency_model(project).classes:
        entry = cc.methods.get("__init__")
        if entry is None or not entry[2]:  # inherited __init__: base reports
            continue
        module, init_fn, _own = entry
        init_node = init_fn.node
        thread_targets = _thread_field_targets(cc, init_node)
        if not thread_targets:
            continue

        def started_target(call: ast.Call) -> Optional[str]:
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "start"):
                return None
            receiver = func.value
            if isinstance(receiver, ast.Name):
                # Covers loop vars too: `for t in self._workers: t.start()`
                # resolves through the field the loop iterates when the
                # name itself was never bound to a Thread.
                if receiver.id in thread_targets:
                    return thread_targets[receiver.id]
                return loop_var_targets.get(receiver.id)
            attr_key = (
                "self." + receiver.attr
                if isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                else None
            )
            if attr_key is not None:
                return thread_targets.get(attr_key)
            return None

        # Loop variables iterating a thread-holding field: `for t in
        # self._workers:` makes `t.start()` start that pool.
        loop_var_targets: Dict[str, str] = {}
        for node in ast.walk(init_node):
            if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                iter_attr = (
                    "self." + node.iter.attr
                    if isinstance(node.iter, ast.Attribute)
                    and isinstance(node.iter.value, ast.Name)
                    and node.iter.value.id == "self"
                    else None
                )
                if iter_attr in thread_targets:
                    loop_var_targets[node.target.id] = thread_targets[iter_attr]

        # Earliest start line per spawned target.
        started_at: Dict[str, int] = {}
        for node in ast.walk(init_node):
            if isinstance(node, ast.Call):
                spawned = started_target(node)
                if spawned is not None:
                    started_at[spawned] = min(
                        started_at.get(spawned, node.lineno), node.lineno
                    )
        if not started_at:
            continue

        reads_by_target = {
            spawned: cc.fields_read_by(cc.reachable_from(spawned))
            for spawned in started_at
        }
        init_scan = cc.scans.get("__init__")
        if init_scan is None:
            continue
        for access in sorted(init_scan.accesses, key=lambda a: a.node.lineno):
            if access.kind != WRITE or access.locks:
                continue
            for spawned, start_line in sorted(started_at.items()):
                if access.node.lineno <= start_line:
                    continue
                if access.attr not in reads_by_target[spawned]:
                    continue
                yield publish_after_start.at(
                    module.path,
                    access.node,
                    f"{cc.cls.name}.__init__ stores self.{access.attr} after "
                    f"starting the {spawned} thread, which reads it — the "
                    f"construction happens-before edge ended at start()",
                    hint="assign before start(), guard the store with the "
                    "lock the reader takes, or hand the value via a queue",
                )
                break  # one finding per store, not one per thread


# --------------------------------------------------- wire-crossing locks


_PRIMITIVE_CONSTRUCTORS = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Thread",
        "Timer",
    }
)


def _lock_locals(method_node: ast.AST) -> Set[str]:
    """Local names bound to a threading-primitive constructor result."""
    out: Set[str] = set()
    for node in ast.walk(method_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        callee = last_component(dotted_name(node.value.func) or "")
        if callee not in _PRIMITIVE_CONSTRUCTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _closure_locals(method_node: ast.AST) -> Dict[str, ast.AST]:
    """Local names bound to a lambda or nested def within the method."""
    out: Dict[str, ast.AST] = {}
    for node in ast.walk(method_node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not method_node:
                out[node.name] = node
    return out


def _captures_primitive(
    closure: ast.AST, lock_locals: Set[str], lock_attrs: Set[str]
) -> Optional[str]:
    """A description of the captured primitive, or None."""
    body = closure.body if isinstance(closure, ast.Lambda) else closure
    for node in ast.walk(body if isinstance(body, ast.AST) else closure):
        if isinstance(node, ast.Name) and node.id in lock_locals:
            return f"local threading primitive {node.id!r}"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in lock_attrs
        ):
            return f"self.{node.attr} (a lock attribute)"
    return None


@rule("NRMI046", "lock-crosses-the-wire", FAMILY_CONCURRENCY, Severity.ERROR)
def lock_crosses_the_wire(module: ModuleModel) -> Iterable[Finding]:
    """NRMI011 catches ``self.f = Lock()`` by constructor shape; this
    rule follows the *flow* it misses: a primitive aliased through a
    local before the store, and closures that capture a lock and then
    cross the wire — stored in a Serializable field, or returned from a
    Remote method (replies are serialized too). A thread primitive is
    process-local by definition: on the far side it is garbage."""
    for cls in module.classes:
        serializable = cls.is_serializable
        remote = cls.is_remote
        if not (serializable or remote):
            continue
        transient = cls.transient_names()
        lock_attrs = lock_attr_names(cls)
        for method in cls.methods.values():
            lock_locals = _lock_locals(method.node)
            closures = _closure_locals(method.node)
            capturing = {
                name: (closure, _captures_primitive(closure, lock_locals, lock_attrs))
                for name, closure in closures.items()
            }
            for node in ast.walk(method.node):
                if serializable and isinstance(node, ast.Assign):
                    for target in node.targets:
                        field_name = _field_of(target)
                        if field_name is None or field_name in transient:
                            continue
                        value = node.value
                        if isinstance(value, ast.Name) and value.id in lock_locals:
                            yield lock_crosses_the_wire.at(
                                module.path,
                                node,
                                f"field {cls.name}.{field_name} receives a "
                                f"threading primitive through local "
                                f"{value.id!r} — it cannot cross the wire",
                                hint="declare the field __nrmi_transient__ "
                                "and rebuild it in __nrmi_resolve__",
                            )
                        elif isinstance(value, ast.Name) and value.id in capturing:
                            _closure, captured = capturing[value.id]
                            if captured is not None:
                                yield lock_crosses_the_wire.at(
                                    module.path,
                                    node,
                                    f"field {cls.name}.{field_name} stores a "
                                    f"closure capturing {captured}; "
                                    f"serializing it ships the lock",
                                    hint="store plain data; rebuild "
                                    "callbacks on the receiving side",
                                )
                if remote and isinstance(node, ast.Return) and node.value is not None:
                    value = node.value
                    closure_node: Optional[ast.AST] = None
                    if isinstance(value, ast.Lambda):
                        closure_node = value
                    elif isinstance(value, ast.Name) and value.id in closures:
                        closure_node = closures[value.id]
                    if closure_node is None:
                        continue
                    captured = _captures_primitive(
                        closure_node, lock_locals, lock_attrs
                    )
                    if captured is not None:
                        yield lock_crosses_the_wire.at(
                            module.path,
                            node,
                            f"{cls.name}.{method.name} returns a closure "
                            f"capturing {captured}: the reply serializer "
                            f"will try to ship it to the caller",
                            hint="return plain data; keep locks on the "
                            "owning endpoint",
                        )


def _field_of(target: ast.AST) -> Optional[str]:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None
