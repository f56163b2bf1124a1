"""Steps 5-6 of the algorithm: in-place overwrite and pointer conversion.

Given the match between original and modified linear-map entries (step 4,
an ``id(modified) -> original`` table), the engine:

* **step 5** — for each old object, overwrites the *original* version's
  state with the *modified* version's state, converting any pointer to a
  modified-old object into a pointer to the corresponding original;
* **step 6** — for each new object (allocated by the server), converts its
  pointers to modified-old objects into pointers to the originals.

The engine does not traverse the modified graph. The reply reader already
listed every object it decoded, once and in order: the mutable ones in
its linear map, the tuples and frozensets as they finished (inner before
outer), and what ``__nrmi_resolve__`` turned shells into. The engine runs
steps 5-6 over exactly those objects — one flat pass, no stack, no
visited set. An old object is one whose id is in the table; every other
decoded object is new.

Converting a value is one lookup in one table. Immutable containers
(tuples, frozensets) cannot be overwritten, so each is rebuilt from its
converted parts before anything else — inner ones first, so an outer one
finds its rebuilt parts — and entered in the same table; sharing is kept
because each is rebuilt once. This mirrors how Java treats Strings and
boxed primitives as values. A rebuilt frozenset hashes its members as they
are before any overwrite, so a member whose hash follows its own fields
should not sit in one.

The only subtlety Python adds over Java is hashed containers: overwriting
an object that is a key in a dict (or member of a set) can change its
hash, so the engine applies rewrites in two waves — field/sequence
overwrites first, dict/set rebuilds last — so every key is hashed exactly
once, after its final state is in place.

What to do with an object is decided per *class*, once per restore: a
dispatch tag, and — with the optimized accessor — its transient set and
whether the accessor's cached layout says instances keep all state in
``__dict__``; such a class is overwritten with one ``clear()`` +
``update()`` and no per-object reflection. That is the paper's portable
-> optimized move (Section 5.3.1) applied to restore; any other accessor
keeps paying ``get_state`` / ``set_state`` / ``transient_fields`` per
object, uncached.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.serde.accessors import (
    OPTIMIZED_ACCESSOR,
    FieldAccessor,
    FieldState,
    OptimizedAccessor,
)
from repro.serde.hooks import transient_fields
from repro.serde.kinds import Kind, classify

# Dispatch tags: how the pass treats instances of one class.
_LEAF = 0  # primitive, unsupported shape or opaque: nothing to restore
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
        # Classes the engine must treat as leaves: neither overwritten nor
        # adopted. The RMI layer marks remote stubs and pointers opaque —
        # they pass by reference and own no restorable state. Asked once
        # per class per restore, like the dispatch tag.
        self._opaque = opaque
        # Only the optimized accessor's cached layout may stand in for
        # its get_state/set_state; any other accessor is asked per object.
        self._optimized = isinstance(accessor, OptimizedAccessor)

    def restore(
        self,
        table: Dict[int, Any],
        decoded: Sequence[Any],
        result: Any = None,
        immutables: Sequence[Any] = (),
        resolved: Sequence[Any] = (),
    ) -> Tuple[Any, RestoreStats]:
        """Reproduce the server's mutations on the caller's originals.

        ``table`` maps ``id(modified)`` to its original
        (:func:`repro.core.matching.match_maps`); the engine adds the
        rebuilt immutables to it. ``decoded`` is every mutable object the
        reply decoded except the reply's own list roots — the reader's
        linear map, in stream order. ``immutables`` and ``resolved`` are
        the reader's lists of the same names. ``result`` is the decoded
        return value, converted too so the caller's view is seamless.
        Every id key must stay alive until this returns; the reader's
        lists pin them.

        Returns ``(converted_result, stats)``.
        """
        # Converting a value v is ``get(id(v), v)``: its table entry, or
        # v itself.
        get = table.get
        for value in immutables:
            table[id(value)] = type(value)([get(id(item), item) for item in value])

        objects: Any = decoded
        if resolved:
            # Resolved values are new objects whose fields are converted
            # too; one canonical object may stand for several shells, or
            # be a decoded object already listed.
            seen = set(map(id, decoded))
            extras = []
            for obj in resolved:
                if id(obj) not in seen:
                    seen.add(id(obj))
                    extras.append(obj)
            objects = chain(decoded, extras)

        accessor = self._accessor
        tags = dict(_BUILTIN_TAGS)
        transients_of: Dict[type, FrozenSet[str]] = {}
        # Hashed containers wait for the second wave, in decode order.
        hashed: List[Tuple[int, Any, Any]] = []
        old_overwritten = new_adopted = 0
        for obj in objects:
            cls = type(obj)
            tag = tags.get(cls)
            if tag is None:
                tag = tags[cls] = self._tag_for(obj, transients_of)
            if tag <= _FROZENSET:
                continue  # a leaf, or an immutable already rebuilt
            target = get(id(obj))
            if target is None:
                target = obj
                new_adopted += 1
            else:
                old_overwritten += 1

            # ---- first wave: fields and sequences
            if tag == _DICT_OBJECT:
                state = obj.__dict__
                fields = target.__dict__
                kept = None
                if target is not obj:
                    transients = transients_of[cls]
                    if transients:
                        # Transient fields never travel, so the caller's
                        # local values must survive the overwrite untouched.
                        kept = [
                            (name, fields[name]) for name in transients if name in fields
                        ]
                    # Names the modified version lacks go with the clear().
                    fields.clear()
                    fields.update(state)
                # Then convert, in place, the values that need it; a new
                # object's own dict is patched the same way.
                for name, value in state.items():
                    original = get(id(value))
                    if original is not None:
                        fields[name] = original
                if kept:
                    fields.update(kept)
            elif tag == _OBJECT:
                self._overwrite_fields(
                    target,
                    [
                        (name, get(id(value), value))
                        for name, value in accessor.get_state(obj)
                    ],
                    transients_of.get(cls),
                )
            elif tag == _LIST:
                target[:] = [get(id(item), item) for item in obj]
            elif tag == _BYTEARRAY:
                target[:] = bytes(obj)
            else:  # _DICT / _SET: tags are exhaustive above
                hashed.append((tag, target, obj))

        # ---- second wave: hashed containers, every key in its final state
        for tag, target, obj in hashed:
            if tag == _DICT:
                converted_items = [
                    (get(id(key), key), get(id(value), value))
                    for key, value in obj.items()
                ]
            else:
                converted_items = [get(id(item), item) for item in obj]
            target.clear()
            target.update(converted_items)

        stats = RestoreStats()
        stats.old_overwritten = old_overwritten
        stats.new_adopted = new_adopted
        stats.immutables_rebuilt = len(immutables)
        return get(id(result), result), stats

    def _tag_for(self, obj: Any, transients_of: Dict[type, FrozenSet[str]]) -> int:
        """The dispatch tag for ``type(obj)`` (exact builtins are pre-seeded),
        noting the class's transient set for the optimized accessor."""
        if classify(obj) is not Kind.OBJECT:
            return _LEAF  # primitive subclass or unsupported shape
        if self._opaque is not None and self._opaque(obj):
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
