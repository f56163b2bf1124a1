"""The restore's independent oracle: steps 4-6 by walking the graph.

A reply decodes straight into the caller's heap and
:class:`repro.core.copy_restore.RestoreEngine` applies what it queued.
This module keeps the older way, which needs no reader: given the
server's modified copies of the caller's originals, walk the modified
graph from the return value and the modified linear map with a stack and
a visited set, collect the rewrite actions — converting every reference
to a modified old object into the original — then apply them in the
same two waves. Tests hold the reply path to it, on graphs built by hand
and on real replies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.copy_restore import RestoreStats
from repro.serde.accessors import (
    OPTIMIZED_ACCESSOR,
    FieldAccessor,
    FieldState,
    OptimizedAccessor,
)
from repro.serde.hooks import has_resolve, transient_fields
from repro.serde.kinds import Kind, classify

_LEAF = 0
_TUPLE = 1
_FROZENSET = 2
_LIST = 3
_BYTEARRAY = 4
_OBJECT = 5
_DICT_OBJECT = 6
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


class OracleRestoreEngine:
    """Steps 5-6 by a traversal of the modified graph."""

    def __init__(
        self,
        accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
        opaque: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self._accessor = accessor
        self._opaque = opaque
        self._optimized = isinstance(accessor, OptimizedAccessor)

    def restore(
        self,
        originals: List[Any],
        modifieds: List[Any],
        result: Any = None,
        skip: Iterable[Any] = (),
    ) -> Tuple[Any, RestoreStats]:
        """Overwrite *originals* from *modifieds* (index-aligned) and
        convert *result*; *skip* holds objects that must be neither
        overwritten nor descended into — originals themselves, or modified
        objects that stand for their originals."""
        accessor = self._accessor
        opaque = self._opaque
        m2o_get = dict(zip(map(id, modifieds), originals)).get
        skip_ids = {id(obj) for obj in skip}
        rebuilt: Dict[int, Any] = {}
        tags = dict(_BUILTIN_TAGS)
        transients_of: Dict[type, FrozenSet[str]] = {}

        def convert(value: Any) -> Any:
            original = m2o_get(id(value))
            if original is not None:
                return original
            cls = type(value)
            if cls is tuple or cls is frozenset:
                cached = rebuilt.get(id(value))
                if cached is None:
                    cached = rebuilt[id(value)] = cls(map(convert, value))
                return cached
            return value

        sequence_actions: List[Tuple[int, Any, Any]] = []
        hashed_actions: List[Tuple[int, Any, Any]] = []
        old_overwritten = new_adopted = 0

        visited = set()
        stack: List[Any] = [result]
        stack.extend(reversed(modifieds))
        while stack:
            obj = stack.pop()
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
                stack.extend(reversed(obj))
                continue
            if tag == _FROZENSET:
                stack.extend(reversed(list(obj)))
                continue

            target = m2o_get(obj_id)
            if target is None:
                target = obj
                # What ``__nrmi_resolve__`` returned is a canonical value,
                # not an object the reply built.
                if not has_resolve(type(obj)):
                    new_adopted += 1
            else:
                old_overwritten += 1

            if tag == _DICT_OBJECT:
                fields = obj.__dict__
                stack.extend(reversed(fields.values()))
                sequence_actions.append((tag, target, fields))
            elif tag == _OBJECT:
                state = accessor.get_state(obj)
                stack.extend(value for _name, value in reversed(state))
                sequence_actions.append((tag, target, state))
            elif tag == _LIST:
                stack.extend(reversed(obj))
                sequence_actions.append((tag, target, obj))
            elif tag == _BYTEARRAY:
                sequence_actions.append((tag, target, obj))
            elif tag == _DICT:
                for key, value in reversed(obj.items()):
                    stack.append(value)
                    stack.append(key)
                hashed_actions.append((tag, target, obj))
            else:
                items = list(obj)
                stack.extend(reversed(items))
                hashed_actions.append((tag, target, items))

        for tag, target, state in sequence_actions:
            if tag == _DICT_OBJECT:
                converted = {name: convert(value) for name, value in state.items()}
                fields = target.__dict__
                transients = transients_of[type(target)]
                if transients:
                    for name, value in fields.items():
                        if name in transients:
                            converted[name] = value
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
            else:
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
        if classify(obj) is not Kind.OBJECT:
            return _LEAF
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
        accessor = self._accessor
        if transients is None:
            transients = transient_fields(type(target))
        current = accessor.get_state(target)
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
