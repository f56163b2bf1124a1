"""Runtime self-check rules (NRMI031, NRMI034, NRMI035).

These lint the middleware's *own* threaded and ring code:

* **NRMI031** — inconsistent lock discipline: an attribute that is
  written under ``with self._lock`` in one method but bare in another is
  either a race or a missing justification.
* **NRMI034** — blocking call on the net thread: any method reachable
  from a class's ``selector.select()`` loop must stay non-blocking
  (no handler execution, no ``time.sleep``, no blocking frame reads,
  no blocking queue waits) — one blocked callback stalls every
  connection the staged server owns.
* **NRMI035** — blocking call on a ring spin/poll path: any method
  reachable from a loop that re-probes a shared-memory ring
  (``try_read_into``/``try_write``/``readable``/``poll_ready``/...)
  must stay non-blocking — a sleep or blocking wait inside a
  microsecond-scale spin turns the shm transport's latency win into a
  scheduler round trip per call.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import (
    ClassModel,
    ModuleModel,
    dotted_name,
    held_locks_of_with,
    last_component,
    lock_aliases,
    lock_attr_names,
)
from repro.analysis.rulebase import FAMILY_RUNTIME, rule


def _lock_attrs(cls: ClassModel) -> Set[str]:
    """self attributes initialised to a threading lock in __init__."""
    return lock_attr_names(cls)


def _self_attr_of(node: ast.expr) -> Optional[str]:
    """``x`` for a store whose chain is rooted at ``self.x``."""
    while isinstance(node, (ast.Subscript,)):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _attr_stores(
    method_node: ast.AST, lock_attrs: Set[str]
) -> Iterable[Tuple[str, ast.AST, bool]]:
    """(attr, node, guarded) for every store to a ``self.`` attribute.

    *guarded* is True when the store sits inside ``with self.<lock>:`` for
    any of *lock_attrs* — including the alias shape ``lock = self._lock``
    then ``with lock:`` (the idiom RLock callers use for re-entrant
    sections). Implemented as a recursive descent carrying the guard
    state — ``ast.walk`` cannot express scoping.
    """
    aliases = lock_aliases(method_node, lock_attrs)

    def visit(node: ast.AST, guarded: bool):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            holds = guarded or bool(held_locks_of_with(node, lock_attrs, aliases))
            for item in node.items:
                yield from visit(item.context_expr, guarded)
            for child in node.body:
                yield from visit(child, holds)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs get their own discipline
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr_of(target)
                if attr is not None:
                    yield attr, node, guarded
        elif isinstance(node, ast.AugAssign):
            attr = _self_attr_of(node.target)
            if attr is not None:
                yield attr, node, guarded
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_attr_of(target)
                if attr is not None:
                    yield attr, node, guarded
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guarded)

    # Descend into the method's body directly: the visitor prunes nested
    # defs, and the method node itself is one.
    for child in ast.iter_child_nodes(method_node):
        yield from visit(child, False)


@rule("NRMI031", "inconsistent-lock-guard", FAMILY_RUNTIME, Severity.WARNING)
def inconsistent_lock_guard(module: ModuleModel) -> Iterable[Finding]:
    """An attribute written both under ``with self._lock`` and bare is the
    classic lost-update shape: either the bare store races, or it is
    single-threaded by construction and deserves a suppression that says
    why."""
    for cls in module.classes:
        locks = _lock_attrs(cls)
        if not locks:
            continue
        guarded_attrs: Set[str] = set()
        bare: List[Tuple[str, ast.AST, str]] = []
        for method in cls.methods.values():
            if method.name in ("__init__", "__new__"):
                continue  # construction happens-before sharing
            for attr, node, is_guarded in _attr_stores(method.node, locks):
                if attr in locks:
                    continue
                if is_guarded:
                    guarded_attrs.add(attr)
                else:
                    bare.append((attr, node, method.name))
        for attr, node, method_name in bare:
            if attr in guarded_attrs:
                yield inconsistent_lock_guard.at(
                    module.path,
                    node,
                    f"{cls.name}.{method_name} writes self.{attr} without "
                    f"holding the lock that guards it elsewhere in the class",
                    hint="take the lock, or suppress with a justification "
                    "if this path is single-threaded by construction",
                )


# ------------------------------------------- net-loop blocking discipline


#: Callables that block by design: executing a request via the dispatcher,
#: sleeping, or the blocking frame-read helpers (each loops in ``recv``
#: until a full frame arrives — unbounded waiting on peer bytes).
_BLOCKING_CALLABLES = frozenset(
    {
        "call_handler",
        "read_frame",
        "read_frame_corr",
        "recv_exact",
    }
)

#: Method names that mean a blocking wait when invoked on a queue-like
#: receiver (one whose name mentions queue/job); ``wait``/``join`` block
#: on any receiver (events, conditions, threads).
_BLOCKING_QUEUE_METHODS = frozenset({"get", "put", "pop"})
_BLOCKING_ANY_RECEIVER = frozenset({"wait", "join"})


def _self_method_calls(method_node: ast.AST, known: Set[str]) -> Set[str]:
    """Names of same-class methods invoked as ``self.<name>(...)``."""
    called: Set[str] = set()
    for node in ast.walk(method_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr in known
        ):
            called.add(node.func.attr)
    return called


def _calls_selector_select(method_node: ast.AST) -> bool:
    """True when the method calls ``self.<selector>.select(...)``."""
    for node in ast.walk(method_node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "select"
            and dotted_name(node.func.value).startswith("self.")
        ):
            return True
    return False


def _blocking_call_reason(node: ast.Call) -> Optional[str]:
    """Why this call blocks, or None when it is allowed on the net thread."""
    name = dotted_name(node.func)
    if name == "time.sleep" or name == "sleep":
        return "time.sleep (stalls the whole event loop)"
    callee = last_component(name)
    if callee in _BLOCKING_CALLABLES:
        if callee == "call_handler":
            return "call_handler (dispatcher execution belongs on a worker)"
        return f"{callee} (blocking read; the net loop must parse incrementally)"
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        receiver = last_component(dotted_name(node.func.value)).lower()
        if attr in _BLOCKING_ANY_RECEIVER:
            return f".{attr}() (blocking wait on the net thread)"
        if attr in _BLOCKING_QUEUE_METHODS and (
            "queue" in receiver or "job" in receiver
        ):
            return (
                f"{receiver}.{attr}() (blocking queue operation; use a "
                "non-blocking try variant)"
            )
    return None


@rule("NRMI034", "blocking-call-in-net-loop", FAMILY_RUNTIME, Severity.ERROR)
def blocking_call_in_net_loop(module: ModuleModel) -> Iterable[Finding]:
    """One net thread owns every socket of the staged server: a blocking
    call anywhere in its ``select()`` loop's reachable call graph freezes
    all connections at once. Flags dispatcher execution, sleeps, blocking
    frame reads, and blocking queue waits in any method reachable (via
    ``self.<method>()`` calls) from a method that calls
    ``self.<selector>.select(...)``. Worker-thread methods are naturally
    exempt: they are spawned as thread targets, not called."""
    for cls in module.classes:
        known = set(cls.methods)
        roots = {
            name
            for name, method in cls.methods.items()
            if _calls_selector_select(method.node)
        }
        if not roots:
            continue
        reachable = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for callee in _self_method_calls(cls.methods[current].node, known):
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        for name in sorted(reachable):
            for node in ast.walk(cls.methods[name].node):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_call_reason(node)
                if reason is not None:
                    yield blocking_call_in_net_loop.at(
                        module.path,
                        node,
                        f"{cls.name}.{name} runs on the net thread "
                        f"(reachable from its selector loop) but calls "
                        f"blocking {reason}",
                        hint="hand the work to a worker thread, or use a "
                        "non-blocking variant with selector readiness",
                    )


# --------------------------------------------- ring spin-path discipline


#: Non-blocking ring/duplex probes: a loop re-invoking one of these is a
#: spin/poll wait, and everything it reaches must stay non-blocking.
#: Deliberately excludes admission helpers like ``try_push`` — a loop
#: retrying queue admission is backpressure handling, not a spin wait.
_RING_POLL_METHODS = frozenset(
    {
        "try_read_into",
        "try_write",
        "readable",
        "writable",
        "poll_ready",
    }
)


def _loops_on_ring_poll(method_node: ast.AST) -> bool:
    """True when the method has a loop re-invoking a ring/duplex probe."""
    for loop in ast.walk(method_node):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RING_POLL_METHODS
            ):
                return True
    return False


@rule("NRMI035", "blocking-call-in-ring-spin", FAMILY_RUNTIME, Severity.ERROR)
def blocking_call_in_ring_spin(module: ModuleModel) -> Iterable[Finding]:
    """The shm transport's latency rests on its spin/poll paths staying
    syscall-lean: a loop re-probing a ring (``try_read_into`` /
    ``try_write`` / ``readable`` / ``poll_ready`` ...) is a wait measured
    in microseconds, and a blocking call anywhere in its reachable call
    graph — a sleep, a blocking frame read, a blocking queue wait —
    turns every round trip into a scheduler round trip. Parking on a
    selector after declaring intent (``select.select`` on the doorbell)
    is the sanctioned slow path and is not flagged; ``sched_yield``-style
    GIL donation is invisible to this rule by construction."""
    for cls in module.classes:
        known = set(cls.methods)
        roots = {
            name
            for name, method in cls.methods.items()
            if _loops_on_ring_poll(method.node)
        }
        if not roots:
            continue
        reachable = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for callee in _self_method_calls(cls.methods[current].node, known):
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        for name in sorted(reachable):
            for node in ast.walk(cls.methods[name].node):
                if not isinstance(node, ast.Call):
                    continue
                reason = _blocking_call_reason(node)
                if reason is not None:
                    yield blocking_call_in_ring_spin.at(
                        module.path,
                        node,
                        f"{cls.name}.{name} is on a ring spin/poll path "
                        f"but calls blocking {reason}",
                        hint="yield the core between probes and park on "
                        "the doorbell via select for the slow path",
                    )
