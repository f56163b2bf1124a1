"""Steps 5-6 of the algorithm: in-place overwrite and pointer conversion.

Given the match between original and modified linear-map entries (step 4),
the engine:

* **step 5** — for each old object, overwrites the *original* version's
  state with the *modified* version's state, converting any pointer to a
  modified-old object into a pointer to the corresponding original;
* **step 6** — for each new object (allocated by the server), converts its
  pointers to modified-old objects into pointers to the originals.

Both steps run in a single traversal of the modified graph, as the paper's
Section 5.2.3 describes. The only subtlety Python adds over Java is hashed
containers: overwriting an object that is a key in a dict (or member of a
set) can change its hash, so the engine applies rewrites in two waves —
field/sequence overwrites first, dict/set rebuilds last — so every key is
hashed exactly once, after its final state is in place.

Immutable containers (tuples, frozensets) cannot be overwritten; they are
rebuilt with converted elements, preserving sharing, and the *parents* get
the rebuilt value. This mirrors how Java treats Strings and boxed
primitives as values.

The traversal is one flat loop. What to do with an object is decided per
*class*, once per restore: a dispatch tag, and — with the optimized
accessor — its transient set and whether the accessor's cached layout
says instances keep all state in ``__dict__``; such a class is
overwritten with one ``clear()`` + ``update()`` and no per-object
reflection. That is the paper's portable -> optimized move (Section 5.3.1)
applied to restore; any other accessor keeps paying ``get_state`` /
``set_state`` / ``transient_fields`` per object, uncached.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.matching import MatchResult
from repro.serde.accessors import (
    OPTIMIZED_ACCESSOR,
    FieldAccessor,
    FieldState,
    OptimizedAccessor,
)
from repro.serde.hooks import transient_fields
from repro.serde.kinds import Kind, classify
from repro.util.identity import IdentitySet

# Dispatch tags: how the loop treats instances of one class.
_LEAF = 0  # primitive or unsupported shape: a value, nothing to descend
_TUPLE = 1
_FROZENSET = 2
_LIST = 3
_BYTEARRAY = 4
_OBJECT = 5  # fields read and written through the accessor
_DICT_OBJECT = 6  # all state in __dict__ (OptimizedAccessor.dict_only)
_DICT = 7
_SET = 8

_BUILTIN_TAGS: Dict[type, int] = {
    type(None): _LEAF,
    bool: _LEAF,
    int: _LEAF,
    float: _LEAF,
    complex: _LEAF,
    str: _LEAF,
    bytes: _LEAF,
    tuple: _TUPLE,
    frozenset: _FROZENSET,
    list: _LIST,
    bytearray: _BYTEARRAY,
    dict: _DICT,
    set: _SET,
}


class RestoreStats:
    """What a restore pass did — used by tests and the benchmark report."""

    __slots__ = ("old_overwritten", "new_adopted", "immutables_rebuilt")

    def __init__(self) -> None:
        self.old_overwritten = 0
        self.new_adopted = 0
        self.immutables_rebuilt = 0

    def __repr__(self) -> str:
        return (
            f"RestoreStats(old={self.old_overwritten}, new={self.new_adopted}, "
            f"immutables={self.immutables_rebuilt})"
        )


class RestoreEngine:
    """Applies the restore phase on the caller site.

    The engine is configured with a field accessor — the portable or the
    optimized one — which is the axis the paper's two NRMI implementations
    differ on (Section 5.3.1).
    """

    def __init__(
        self,
        accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
        opaque: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self._accessor = accessor
        # Objects the engine must treat as leaves: neither overwritten nor
        # descended into. The RMI layer marks remote stubs and pointers
        # opaque — they pass by reference and own no restorable state.
        self._opaque = opaque
        # Only the optimized accessor's cached layout may stand in for
        # its get_state/set_state; any other accessor is asked per object.
        self._optimized = isinstance(accessor, OptimizedAccessor)

    def restore(
        self,
        match: MatchResult,
        result: Any = None,
        skip: Optional[IdentitySet] = None,
    ) -> Tuple[Any, RestoreStats]:
        """Reproduce the server's mutations on the caller's originals.

        ``match`` pairs each original object with its returned modified
        version; ``result`` is the (deep-copied) return value, whose
        pointers into the structure are converted too so the caller's view
        is seamless; ``skip`` holds objects that are *already* originals
        (delta restore resolves unchanged objects directly) and must be
        neither overwritten nor descended into.

        Returns ``(converted_result, stats)``.
        """
        accessor = self._accessor
        opaque = self._opaque
        # Raw id()-keyed tables. Every key is an object of the modified
        # graph, all of which exist before this call and are pinned until
        # it returns (by ``match``, ``result`` and the captured states), so
        # no id can be recycled under a live entry.
        m2o_get = dict(zip(map(id, match.modifieds), match.originals)).get
        skip_ids = {id(obj) for obj in skip} if skip is not None else ()
        rebuilt: Dict[int, Any] = {}  # id(modified immutable) -> rebuilt
        tags = dict(_BUILTIN_TAGS)
        transients_of: Dict[type, FrozenSet[str]] = {}

        def convert(value: Any) -> Any:
            """Map a value in the modified graph to its caller-site value."""
            original = m2o_get(id(value))
            if original is not None:
                return original
            cls = type(value)
            if cls is tuple or cls is frozenset:
                cached = rebuilt.get(id(value))
                if cached is None:
                    cached = rebuilt[id(value)] = cls(map(convert, value))
                return cached
            # Primitive, new object (server-allocated) or already-original
            # object: keep identity; its own slots are fixed by the traversal.
            return value

        # ---- traversal of the modified graph, collecting rewrite actions
        # as (tag, target, state) — fields and sequences apart from hashed
        # containers, each list in visit order.
        sequence_actions: List[Tuple[int, Any, Any]] = []
        hashed_actions: List[Tuple[int, Any, Any]] = []
        old_overwritten = new_adopted = 0

        visited = set()
        stack: List[Any] = [result]
        stack.extend(reversed(match.modifieds))
        pop = stack.pop
        extend = stack.extend
        while stack:
            obj = pop()
            tag = tags.get(type(obj))
            if tag is None:
                tag = tags[type(obj)] = self._tag_for(obj, transients_of)
            if tag == _LEAF:
                continue
            obj_id = id(obj)
            if obj_id in visited or obj_id in skip_ids:
                continue
            if opaque is not None and opaque(obj):
                continue
            visited.add(obj_id)

            if tag == _TUPLE:
                # Not rewritable; just keep walking through it.
                extend(reversed(obj))
                continue
            if tag == _FROZENSET:
                extend(reversed(list(obj)))
                continue

            target = m2o_get(obj_id)
            if target is None:
                target = obj
                new_adopted += 1
            else:
                old_overwritten += 1

            if tag == _DICT_OBJECT:
                fields = obj.__dict__
                extend(reversed(fields.values()))
                sequence_actions.append((tag, target, fields))
            elif tag == _OBJECT:
                state = accessor.get_state(obj)
                extend(value for _name, value in reversed(state))
                sequence_actions.append((tag, target, state))
            elif tag == _LIST:
                extend(reversed(obj))
                sequence_actions.append((tag, target, obj))
            elif tag == _BYTEARRAY:
                sequence_actions.append((tag, target, obj))
            elif tag == _DICT:
                for key, value in reversed(obj.items()):
                    stack.append(value)
                    stack.append(key)
                hashed_actions.append((tag, target, obj))
            else:  # _SET: tags are exhaustive above
                items = list(obj)
                extend(reversed(items))
                hashed_actions.append((tag, target, items))

        # ---- apply: fields and sequences first, hashed containers last
        for tag, target, state in sequence_actions:
            if tag == _DICT_OBJECT:
                converted = {name: convert(value) for name, value in state.items()}
                fields = target.__dict__
                transients = transients_of[type(target)]
                if transients:
                    # Transient fields never travel, so the caller's local
                    # values must survive the overwrite untouched.
                    for name, value in fields.items():
                        if name in transients:
                            converted[name] = value
                # Names the modified version lacks go with the clear().
                fields.clear()
                fields.update(converted)
            elif tag == _OBJECT:
                self._overwrite_fields(
                    target,
                    [(name, convert(value)) for name, value in state],
                    transients_of.get(type(target)),
                )
            elif tag == _LIST:
                target[:] = list(map(convert, state))
            else:  # _BYTEARRAY
                target[:] = bytes(state)
        for tag, target, state in hashed_actions:
            if tag == _DICT:
                converted = [
                    (convert(key), convert(value)) for key, value in state.items()
                ]
            else:
                converted = list(map(convert, state))
            target.clear()
            target.update(converted)

        stats = RestoreStats()
        stats.old_overwritten = old_overwritten
        stats.new_adopted = new_adopted
        result = convert(result)
        stats.immutables_rebuilt = len(rebuilt)
        return result, stats

    def _tag_for(self, obj: Any, transients_of: Dict[type, FrozenSet[str]]) -> int:
        """The dispatch tag for ``type(obj)`` (exact builtins are pre-seeded),
        noting the class's transient set for the optimized accessor."""
        if classify(obj) is not Kind.OBJECT:
            return _LEAF  # primitive subclass or unsupported shape
        if not self._optimized:
            return _OBJECT
        cls = type(obj)
        transients_of[cls] = transient_fields(cls)
        return _DICT_OBJECT if self._accessor.dict_only(cls) else _OBJECT

    def _overwrite_fields(
        self,
        target: Any,
        new_state: FieldState,
        transients: Optional[FrozenSet[str]],
    ) -> None:
        """Field-by-field overwrite through the accessor: keep the target's
        transient fields, drop the names the modified version lacks.
        *transients* is ``None`` when the restore did not note it."""
        accessor = self._accessor
        if transients is None:
            transients = transient_fields(type(target))
        current = accessor.get_state(target)
        # Transient fields never travel, so the caller's local values
        # must survive the overwrite untouched.
        preserved = [(name, value) for name, value in current if name in transients]
        stale = {name for name, _ in current}
        stale.difference_update(name for name, _ in new_state)
        stale.difference_update(transients)
        accessor.set_state(target, new_state + preserved)
        for name in stale:
            try:
                object.__delattr__(target, name)
            except AttributeError:
                pass
