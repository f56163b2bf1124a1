"""Steps 5-6 of the algorithm: overwrite the originals in place.

A reply is decoded straight into the caller's heap (steps 4-6 in one
pass, :mod:`repro.serde.reader`): every reference to a retained slot
decodes to the caller's original, so new objects, tuples and the return
value are built with the originals already in place and nothing is left
to convert. What the reader cannot do while decoding is write to an
original — a reply that fails partway must leave the heap untouched — so
each slot's new state is decoded into a scratch instance (or container)
and queued as ``(original, scratch)``. Once the whole reply has decoded,
the engine applies that list:

* **first wave** — each object's fields (transient fields keep the
  caller's values, names the scratch lacks are dropped), and each list
  and bytearray's contents;
* **second wave** — every dict and set, old and new, filled from the
  items the reply listed for it: a key may be an original whose hash
  follows its fields, and its fields are final only after the first
  wave. (A new dict or set is empty until then.) A frozenset is built as
  it decodes, so a member whose hash follows its own fields should not
  sit in one.

What to do with an object is decided per *class*, once per apply: with
the optimized accessor, whether its cached layout says instances keep all
state in ``__dict__`` (then an overwrite is one ``clear()`` + ``update()``
with no per-object reflection) and its transient set. That is the paper's
portable -> optimized move (Section 5.3.1) applied to restore; any other
accessor keeps paying ``get_state`` / ``set_state`` / ``transient_fields``
per object, uncached.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.serde.accessors import (
    OPTIMIZED_ACCESSOR,
    FieldAccessor,
    FieldState,
    OptimizedAccessor,
)
from repro.serde.hooks import transient_fields

# How the first wave treats a pending entry, by the original's class.
_FIELDS = 0  # fields read and written through the accessor
_PLAIN = 1  # all state in __dict__ (OptimizedAccessor.dict_only)
_SEQUENCE = 2  # list / bytearray: slice assignment
_HASHED = 3  # dict / set: second wave

_BUILTIN_MODES: Dict[type, Tuple[int, FrozenSet[str]]] = {
    list: (_SEQUENCE, frozenset()),
    bytearray: (_SEQUENCE, frozenset()),
    dict: (_HASHED, frozenset()),
    set: (_HASHED, frozenset()),
}


def _fill(container: Any, items: List[Any]) -> None:
    """Insert a dict's flat key/value items, or a set's members."""
    if container.__class__ is dict:
        pairs = iter(items)
        container.update(zip(pairs, pairs))
    else:
        container.update(items)


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
    """Applies a decoded reply's pending states on the caller site.

    The engine is configured with a field accessor — the portable or the
    optimized one — which is the axis the paper's two NRMI implementations
    differ on (Section 5.3.1).
    """

    def __init__(self, accessor: FieldAccessor = OPTIMIZED_ACCESSOR) -> None:
        self._accessor = accessor
        # Only the optimized accessor's cached layout may stand in for
        # its get_state/set_state; any other accessor is asked per object.
        self._optimized = isinstance(accessor, OptimizedAccessor)

    def apply(
        self,
        pending: Sequence[Tuple[Any, Any]],
        fills: Sequence[Tuple[Any, List[Any]]] = (),
        built: int = 0,
        immutables: int = 0,
    ) -> RestoreStats:
        """Overwrite each original in *pending* with its scratch state,
        then fill the new dicts and sets in *fills* — the reader's lists of
        those names. *built* and *immutables* count the mutable objects and
        the tuples and frozensets the reply created, for the stats.
        """
        accessor = self._accessor
        modes = dict(_BUILTIN_MODES)
        hashed: List[Tuple[Any, Any]] = []
        last_cls = None
        for original, state in pending:
            cls = original.__class__
            if cls is not last_cls:
                # Definitions of one class tend to come in runs.
                mode = modes.get(cls)
                if mode is None:
                    mode = modes[cls] = self._mode_for(cls)
                kind, transients = mode
                last_cls = cls
            if kind == _PLAIN:
                fields = original.__dict__
                if transients:
                    # Transient fields never travel, so the caller's local
                    # values must survive the overwrite untouched.
                    kept = [(name, fields[name]) for name in transients if name in fields]
                    fields.clear()
                    fields.update(state.__dict__)
                    fields.update(kept)
                else:
                    fields.clear()
                    fields.update(state.__dict__)
            elif kind == _SEQUENCE:
                original[:] = state
            elif kind == _HASHED:
                hashed.append((original, state))
            else:
                self._overwrite_fields(original, accessor.get_state(state), transients)

        # ---- second wave: hashed containers, every key in its final state
        for original, items in hashed:
            original.clear()
            _fill(original, items)
        for container, items in fills:
            _fill(container, items)

        stats = RestoreStats()
        stats.old_overwritten = len(pending)
        stats.new_adopted = built
        stats.immutables_rebuilt = immutables
        return stats

    def _mode_for(self, cls: type) -> Tuple[int, Optional[FrozenSet[str]]]:
        """How to overwrite instances of *cls*; the transient set is noted
        only for the optimized accessor."""
        if not self._optimized:
            return _FIELDS, None
        kind = _PLAIN if self._accessor.dict_only(cls) else _FIELDS
        return kind, transient_fields(cls)

    def _overwrite_fields(
        self,
        target: Any,
        new_state: FieldState,
        transients: Optional[FrozenSet[str]],
    ) -> None:
        """Field-by-field overwrite through the accessor: keep the target's
        transient fields, drop the names the new state lacks.
        *transients* is ``None`` when the apply did not note it."""
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
