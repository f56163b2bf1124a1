"""Runtime self-check rules (NRMI031–NRMI036).

These lint the middleware's *own* threaded and protocol code:

* **NRMI031** — inconsistent lock discipline: an attribute that is
  written under ``with self._lock`` in one method but bare in another is
  either a race or a missing justification.
* **NRMI032** — protocol invariants: the constants that several modules
  must agree on (restore-policy/mode wire ids, capability bits, the
  pipelined-framing magic vs the frame-size limit, and the schema-cache
  class-key discriminators in ``serde/schema.py``) are cross-checked from
  source, so a drifting edit fails the lint gate before it ships a wire
  incompatibility.
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
* **NRMI036** — borrowed-view escape: a ``memoryview`` handed out by a
  ring borrow/reservation (``reserve``/``peek_record``/``recv_borrow``/
  ``recv_frame_borrow``) is only valid until the matching
  ``consume``/``consume_borrow``/``commit``/``abort``; storing it on
  ``self``, returning it to a caller, or touching it after the release
  reads recycled ring memory. The transport's sanctioned handoffs
  (methods whose contract is "caller must consume") carry explicit
  suppressions.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.model import (
    ClassModel,
    ModuleModel,
    ProjectModel,
    build_module,
    const_env,
    dotted_name,
    enum_values,
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


# ------------------------------------------------- protocol invariants


_PROTOCOL_SUFFIX = "rmi/protocol.py"
_FRAMING_SUFFIX = "transport/framing.py"
_SCHEMA_SUFFIX = "serde/schema.py"


def _load_counterpart(
    project: ProjectModel, anchor: ModuleModel, suffix: str
) -> Optional[ModuleModel]:
    """Find the sibling protocol source belonging to *anchor*'s tree.

    Resolution order: a scanned module under the same package root
    (…/rmi/protocol.py → …/<suffix>), then any scanned module with the
    suffix, then the file on disk beside the anchor. Keeping same-root
    matches first lets a fixture copy of the protocol trio be checked
    against *itself*, not against the real sources."""
    anchor_path = anchor.path.replace("\\", "/")
    root = anchor_path[: -len(_PROTOCOL_SUFFIX)]
    sibling = project.module_with_suffix(root + suffix)
    if sibling is not None:
        return sibling
    module = project.module_with_suffix(suffix)
    if module is not None:
        return module
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(anchor.path)))
    candidate = os.path.join(package_root, *suffix.split("/"))
    if os.path.isfile(candidate):
        try:
            with open(candidate, "r", encoding="utf-8") as handle:
                return build_module(candidate, handle.read())
        except (OSError, SyntaxError):
            return None
    return None


def _dict_literal_values(
    module: ModuleModel, name: str
) -> Optional[Tuple[ast.Dict, List[int]]]:
    node = module.module_assigns.get(name)
    if not isinstance(node, ast.Dict):
        return None
    values = [
        v.value
        for v in node.values
        if isinstance(v, ast.Constant) and isinstance(v.value, int)
    ]
    return node, values


@rule(
    "NRMI032",
    "protocol-invariant-drift",
    FAMILY_RUNTIME,
    Severity.ERROR,
    scope="project",
)
def protocol_invariant_drift(project: ProjectModel) -> Iterable[Finding]:
    """Cross-file consistency of the wire constants in ``rmi/protocol.py``,
    ``transport/framing.py`` and ``serde/schema.py``. Runs once per
    ``rmi/protocol.py`` in the scanned set (so a fixture tree is checked
    independently of the real one); counterpart modules are pulled from
    the same tree, the scan, or disk — in that order. Tag bytes need no
    cross-check: every module derives its plain-int copies from
    ``serde/tags.py``."""
    for protocol in list(project.modules):
        if protocol.path.replace("\\", "/").endswith(_PROTOCOL_SUFFIX):
            yield from _check_protocol_tree(project, protocol)


def _check_protocol_tree(
    project: ProjectModel, protocol: ModuleModel
) -> Iterable[Finding]:
    env = const_env(protocol)

    # 1. Wire-id tables must be injective (ids are decoded back to names).
    for table in ("_POLICY_TO_ID", "_MODE_TO_ID"):
        found = _dict_literal_values(protocol, table)
        if found is None:
            continue
        node, values = found
        duplicates = sorted({v for v in values if values.count(v) > 1})
        if duplicates:
            yield protocol_invariant_drift.at(
                protocol.path,
                node,
                f"{table} maps two entries to the same wire id(s) "
                f"{duplicates}: decoding cannot invert it",
                hint="assign each policy/mode a distinct id",
            )

    # 2. Op/Status enum values must be unique.
    for enum_name in ("Op", "Status"):
        cls = protocol.class_named(enum_name)
        if cls is None:
            continue
        values = enum_values(cls)
        dupes = sorted(
            {v for v in values.values() if list(values.values()).count(v) > 1}
        )
        if dupes:
            yield protocol_invariant_drift.at(
                protocol.path,
                cls.node,
                f"enum {enum_name} reuses wire value(s) {dupes}",
                hint="every operation/status needs a distinct byte",
            )

    # 3. Capability bits: distinct powers of two, one byte, clear of the
    #    ship_map flag bit.
    ship_map = env.get("_FLAG_SHIP_MAP")
    cap_bits: Dict[str, int] = {
        name: value
        for name, value in env.items()
        if name.startswith("CAP_") and isinstance(value, int)
    }
    used = ship_map if isinstance(ship_map, int) else 0
    for name in sorted(cap_bits):
        bit = cap_bits[name]
        node = protocol.module_assigns.get(name)
        where = node if node is not None else 1
        if bit <= 0 or bit > 0xFF or (bit & (bit - 1)) != 0:
            yield protocol_invariant_drift.at(
                protocol.path,
                where,
                f"capability {name} = {bit:#x} is not a single flag bit "
                "inside the one-byte flags field",
                hint="use a distinct power of two below 0x100",
            )
        elif used & bit:
            yield protocol_invariant_drift.at(
                protocol.path,
                where,
                f"capability {name} = {bit:#x} collides with an "
                "already-assigned flag bit",
                hint="pick an unused bit of the flags byte",
            )
        else:
            used |= bit

    # 4. Pipelined framing auto-detect: the magic, read as a length
    #    header, must exceed MAX_FRAME_BYTES or a legal plain frame could
    #    be mistaken for a pipelined preamble.
    framing = _load_counterpart(project, protocol, _FRAMING_SUFFIX)
    if framing is not None:
        fenv = const_env(framing)
        magic = fenv.get("PIPELINE_MAGIC")
        limit = fenv.get("MAX_FRAME_BYTES")
        magic_node = framing.module_assigns.get("PIPELINE_MAGIC")
        if isinstance(magic, bytes) and len(magic) != 4:
            yield protocol_invariant_drift.at(
                framing.path,
                magic_node or 1,
                f"PIPELINE_MAGIC must be exactly 4 bytes (got {len(magic)}): "
                "it doubles as a u32 length header during auto-detect",
                hint="keep the magic 4 bytes long",
            )
        if (
            isinstance(magic, bytes)
            and len(magic) == 4
            and isinstance(limit, int)
            and int.from_bytes(magic, "big") <= limit
        ):
            yield protocol_invariant_drift.at(
                framing.path,
                magic_node or 1,
                "PIPELINE_MAGIC decodes to a frame length within "
                "MAX_FRAME_BYTES: framing auto-detect can misread a legal "
                "plain frame as a pipelined preamble",
                hint="raise the magic's leading byte or lower MAX_FRAME_BYTES",
            )
        preamble = fenv.get("PIPELINE_PREAMBLE")
        version = fenv.get("PIPELINE_VERSION")
        if (
            isinstance(magic, bytes)
            and isinstance(version, bytes)
            and isinstance(preamble, bytes)
            and preamble != magic + version
        ):
            yield protocol_invariant_drift.at(
                framing.path,
                framing.module_assigns.get("PIPELINE_PREAMBLE") or 1,
                "PIPELINE_PREAMBLE is not PIPELINE_MAGIC + PIPELINE_VERSION",
                hint="derive the preamble from the two constants",
            )

    # 5. Session-cached wire schemas: the schema-mode class-key
    #    discriminators and the stream-header flag bit.
    schema = _load_counterpart(project, protocol, _SCHEMA_SUFFIX)
    if schema is not None:
        senv = const_env(schema)
        inline = senv.get("CKEY_INLINE")
        sdef = senv.get("CKEY_SCHEMA_DEF")
        sref = senv.get("CKEY_SCHEMA_REF")
        base = senv.get("CKEY_STREAM_BASE")

        def _at(name: str):
            return schema.module_assigns.get(name) or 1

        if isinstance(inline, int) and inline != 0:
            # Key 0 is "inline descriptor" in BOTH encodings; anything
            # else and a legacy stream's first class key changes meaning.
            yield protocol_invariant_drift.at(
                schema.path,
                _at("CKEY_INLINE"),
                f"CKEY_INLINE = {inline} but the classic class-key "
                "encoding reserves 0 for inline descriptors",
                hint="keep CKEY_INLINE == 0",
            )
        discriminators = {
            name: value
            for name, value in (
                ("CKEY_INLINE", inline),
                ("CKEY_SCHEMA_DEF", sdef),
                ("CKEY_SCHEMA_REF", sref),
            )
            if isinstance(value, int)
        }
        seen: Dict[int, str] = {}
        for name, value in discriminators.items():
            if value in seen:
                yield protocol_invariant_drift.at(
                    schema.path,
                    _at(name),
                    f"{name} = {value} collides with {seen[value]}: the "
                    "decoder cannot tell the two class-key forms apart",
                    hint="give every CKEY_* discriminator a distinct value",
                )
            else:
                seen[value] = name
        if isinstance(base, int) and any(
            base <= value for value in discriminators.values()
        ):
            yield protocol_invariant_drift.at(
                schema.path,
                _at("CKEY_STREAM_BASE"),
                f"CKEY_STREAM_BASE = {base} overlaps a CKEY_* "
                "discriminator: stream back-references would shadow "
                "schema defs/refs",
                hint="keep CKEY_STREAM_BASE above every discriminator",
            )
        flag = senv.get("STREAM_FLAG_SCHEMA_CACHE")
        if isinstance(flag, int) and (
            flag <= 0 or flag > 0xFF or (flag & (flag - 1)) != 0
        ):
            yield protocol_invariant_drift.at(
                schema.path,
                _at("STREAM_FLAG_SCHEMA_CACHE"),
                f"STREAM_FLAG_SCHEMA_CACHE = {flag:#x} is not a single "
                "flag bit inside the stream header's one-byte flags field",
                hint="use a distinct power of two below 0x100",
            )


# ------------------------------------------- net-loop blocking discipline


#: Callables that block by design: executing a request via the dispatcher,
#: sleeping, or the blocking frame-read helpers (each loops in ``recv``
#: until a full frame arrives — unbounded waiting on peer bytes).
_BLOCKING_CALLABLES = frozenset(
    {
        "call_handler",
        "read_frame",
        "read_frame_body",
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
        "try_recv",
        "try_send",
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


# --------------------------------------------- borrowed-view lifetime


#: Calls that hand out a memoryview over borrowed/reserved ring memory.
_BORROW_SOURCES = frozenset(
    {"reserve", "peek_record", "recv_borrow", "recv_frame_borrow"}
)

#: Calls that end the borrow/reservation and release the view.
_BORROW_RELEASES = frozenset(
    {"consume", "consume_borrow", "commit", "abort", "abort_frame", "close"}
)


def _borrow_source_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _BORROW_SOURCES
    )


def _call_base(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return dotted_name(func.value)
    return None


def _borrowed_operand(node: ast.expr, borrowed: Dict[str, str]) -> Optional[str]:
    """The borrowed name behind *node*: a direct reference or a slice of
    one (slices share the parent's lifetime without re-exporting it)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name) and node.id in borrowed:
        return node.id
    return None


def _walk_own(func_node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` pruned at nested function boundaries — closures get
    their own pass from the outer module walk, so visiting them here
    would double-report every escape inside them."""
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@rule("NRMI036", "borrowed-view-escape", FAMILY_RUNTIME, Severity.ERROR)
def borrowed_view_escape(module: ModuleModel) -> Iterable[Finding]:
    """A view from ``reserve``/``peek_record``/``recv_borrow``/
    ``recv_frame_borrow`` borrows mapped ring memory the producer will
    recycle the moment the borrow ends. Three escapes are flagged per
    function: storing the view on ``self`` (it outlives the borrow
    window), returning it (the releasing call invalidates what the
    caller holds — copy with ``bytes(view)`` instead, or document the
    handoff with a suppression), and touching it after the same object's
    ``consume``/``consume_borrow``/``commit``/``abort`` in straight-line
    code (the release already freed the span). The use-after-release
    check is per-block on purpose: a branch that releases and
    immediately returns does not poison the other paths."""
    for func_node in ast.walk(module.tree):
        if not isinstance(func_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # name -> base object the borrow came from (e.g. "self._rx").
        borrowed: Dict[str, str] = {}
        for node in _walk_own(func_node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if _borrow_source_call(node.value):
                    borrowed[name] = _call_base(node.value) or ""
                else:
                    parent = _borrowed_operand(node.value, borrowed)
                    if parent is not None and isinstance(
                        node.value, ast.Subscript
                    ):
                        borrowed[name] = borrowed[parent]
        has_source_call = any(
            _borrow_source_call(node) for node in _walk_own(func_node)
        )
        if not borrowed and not has_source_call:
            continue

        findings: List[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(
                borrowed_view_escape.at(
                    module.path,
                    node,
                    message,
                    hint="copy with bytes(view) before the borrow ends, "
                    "or keep the view's lifetime inside the "
                    "reserve/peek ... consume/commit window",
                )
            )

        for node in _walk_own(func_node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if _borrow_source_call(node.value) or (
                        _borrowed_operand(node.value, borrowed) is not None
                    ):
                        flag(
                            node,
                            f"borrowed ring view stored on self.{target.attr}"
                            " — it outlives the borrow window",
                        )
            elif isinstance(node, ast.Return) and node.value is not None:
                if _borrow_source_call(node.value):
                    flag(
                        node,
                        "borrowed ring view returned to the caller — the "
                        "borrow's release will invalidate it",
                    )
                else:
                    name = _borrowed_operand(node.value, borrowed)
                    if name is not None:
                        flag(
                            node,
                            f"borrowed ring view {name!r} returned to the "
                            "caller — the borrow's release will invalidate it",
                        )

        # Use-after-release, straight-line per block: once a statement
        # releases base B, later *sibling* statements must not touch a
        # view borrowed from B.
        def scan_block(body: List[ast.stmt]) -> None:
            released: Set[str] = set()
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # closures get their own pass
                if released:
                    for node in ast.walk(stmt):
                        if (
                            isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)
                            and borrowed.get(node.id) in released
                        ):
                            flag(
                                node,
                                f"borrowed ring view {node.id!r} used after "
                                "its borrow was released",
                            )
                # Only a release at THIS block level ends the view for the
                # statements that follow it here. A release buried in a
                # sub-block (e.g. an early-return fallback branch) does
                # not dominate the siblings — that branch's own scan
                # checks its tail.
                if isinstance(stmt, (ast.Expr, ast.Assign, ast.Return)):
                    for node in ast.walk(stmt):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in _BORROW_RELEASES
                        ):
                            base = _call_base(node)
                            if base is not None and base in borrowed.values():
                                released.add(base)
                for _field, value in ast.iter_fields(stmt):
                    if not (isinstance(value, list) and value):
                        continue
                    if isinstance(value[0], ast.stmt):
                        scan_block(value)
                    elif isinstance(value[0], ast.excepthandler):
                        for handler in value:
                            scan_block(handler.body)

        if borrowed:
            scan_block(func_node.body)
        yield from findings
