"""Per-slot state for the delta reply protocols: which retained slots changed.

After the server deserializes a call's arguments, every retained
linear-map slot has its *state* captured: a pair ``(shape, values)`` whose
``values`` tuple holds strong references to whatever the slot's fields,
elements or keys and values refer to. When the reply is built the states
are captured again and compared — a slot whose state still matches is
**clean** and is elided from the reply; the rest are **dirty** and ship in
full. The guarantee is conservative: a clean verdict implies the slot is
unchanged, while a false "dirty" merely costs bytes, never correctness.

A slot nobody wrote still holds the very objects the decoder stored into
it, so the comparison is identity first (``is`` per value, at C speed).
Only a pair that is not identical is compared by value, and only where a
value can be *replaced by an equal one* without that being a change the
caller could observe: primitives (type-exact, floats bit for bit) and the
immutable containers built from them. Every other reference — mutable
objects, subclasses of primitives, remote stubs, deep immutables — is the
same only if it is the same object. Holding the references is also what
keeps that identity meaningful: nothing a state refers to can be freed,
and have its address reused, while the state is alive.

The public names still say *digest* (``digest_slots``, ``SlotDigestTable``,
the reader's ``digest_accessor`` / ``digest_table``, the context's
``predigested``): states replaced the byte tokens those names were coined
for, and ``benchmarks/callpath`` imports them as they are.
"""

from __future__ import annotations

import struct
from collections import Counter
from operator import is_
from typing import Any, Callable, List, Tuple

from repro.errors import RestoreError
from repro.serde.accessors import FieldAccessor, OptimizedAccessor
from repro.serde.kinds import Kind, classify

#: ``(shape, values)``: *shape* is the field-name tuple of an object, or a
#: marker for containers; *values* what the slot refers to, in slot order.
SlotState = Tuple[Any, Tuple[Any, ...]]

_MAX_IMMUTABLE_DEPTH = 16

# Shape of a set slot: its values carry no order.
_UNORDERED = "unordered"

# How a class's instances are captured, decided once per capture function.
_PLAIN = 0  # all state in __dict__ (OptimizedAccessor.dict_only)
_FIELDS = 1  # fields read through the accessor, per object
_LIST = 2
_DICT = 3
_SET = 4
_BYTEARRAY = 5

_BUILTIN_LAYOUTS = {list: _LIST, dict: _DICT, set: _SET, bytearray: _BYTEARRAY}

_BY_EQUALITY = frozenset({type(None), bool, int, str, bytes})
_REFERENCE = object()
_F64_BITS = struct.Struct(">d").pack

#: Number of full linear-map walks :func:`digest_slots` has performed in
#: this process. Test observability for the fused decode+capture pass: a
#: delta call whose "before" table was captured during decoding performs
#: exactly one walk (reply time) instead of two.
walk_count = 0


def captures_plain_dicts(accessor: FieldAccessor) -> bool:
    """Whether :func:`state_capture` reads a class that
    ``OptimizedAccessor.dict_only`` admits straight off its instance dict,
    as ``(tuple(d), tuple(d.values()))`` — the form generated decoders
    store themselves (:mod:`repro.serde.codegen`)."""
    return isinstance(accessor, OptimizedAccessor)


def state_capture(accessor: FieldAccessor) -> Callable[[Any], SlotState]:
    """Return ``capture(obj) -> SlotState`` for linear-map slots.

    With the optimized accessor a class that keeps all its state in
    ``__dict__`` is read straight off that dict; the accessor's cached
    layout is asked once per class for the life of the returned function.
    Any other accessor keeps paying ``get_state`` per object, which is the
    portable-vs-optimized axis of the paper's Tables 4-6.
    """
    layouts = dict(_BUILTIN_LAYOUTS)
    dict_only = accessor.dict_only if captures_plain_dicts(accessor) else None
    get_state = accessor.get_state

    def capture(obj: Any) -> SlotState:
        cls = type(obj)
        layout = layouts.get(cls)
        if layout is None:
            kind = classify(obj)
            if kind is not Kind.OBJECT:
                raise RestoreError(f"cannot capture linear-map slot of kind {kind}")
            plain = dict_only is not None and dict_only(cls)
            layout = layouts[cls] = _PLAIN if plain else _FIELDS
        if layout == _PLAIN:
            fields = obj.__dict__
            return tuple(fields), tuple(fields.values())
        if layout == _FIELDS:
            state = get_state(obj)
            return tuple([name for name, _ in state]), tuple([value for _, value in state])
        if layout == _LIST:
            return None, tuple(obj)
        if layout == _DICT:
            return None, (*obj, *obj.values())
        if layout == _SET:
            return _UNORDERED, tuple(obj)
        return None, (bytes(obj),)

    return capture


def _value_key(value: Any, depth: int = 0) -> tuple:
    """A hashable key equal for two values exactly when replacing one by
    the other changes nothing a caller could observe."""
    kind = type(value)
    if kind in _BY_EQUALITY:
        return kind, value
    if kind is float:
        return kind, _F64_BITS(value)  # -0.0 is not 0.0; a NaN is itself
    if kind is complex:
        return kind, _F64_BITS(value.real), _F64_BITS(value.imag)
    if depth < _MAX_IMMUTABLE_DEPTH:
        if kind is tuple:
            return kind, tuple([_value_key(item, depth + 1) for item in value])
        if kind is frozenset:
            return kind, _bag(value, depth + 1)
    # Both values are alive while they are compared, so ids are distinct.
    return _REFERENCE, id(value)


def _bag(values: Any, depth: int = 0) -> frozenset:
    """Order-free key of *values*: equal sets match whatever their
    iteration order."""
    return frozenset(Counter([_value_key(item, depth) for item in values]).items())


def same_value(old: Any, new: Any) -> bool:
    """Identity for references, type-exact value equality for primitives
    and the immutable containers made of them."""
    return old is new or _value_key(old) == _value_key(new)


def state_clean(before: SlotState, after: SlotState) -> bool:
    """Whether one slot's state is unchanged between two captures."""
    shape, old = before
    new_shape, new = after
    if shape != new_shape or len(old) != len(new):
        return False
    if all(map(is_, old, new)):
        return True
    if shape is _UNORDERED:
        return _bag(old) == _bag(new)
    return all(map(same_value, old, new))


class SlotDigestTable:
    """The captured states of one retained list, in its order."""

    __slots__ = ("states",)

    def __init__(self, states: List[SlotState]) -> None:
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def dirty_indices(self, current: "SlotDigestTable") -> List[int]:
        """Positions whose state changed between this table and *current*."""
        if len(current.states) != len(self.states):
            raise RestoreError(
                "digest tables cover different retained lists: "
                f"{len(self.states)} vs {len(current.states)} slots"
            )
        return [
            index
            for index, clean in enumerate(map(state_clean, self.states, current.states))
            if not clean
        ]


def digest_slots(slots: List[Any], accessor: FieldAccessor) -> SlotDigestTable:
    """Capture the state of every slot of a retained list (one walk)."""
    global walk_count
    walk_count += 1
    return SlotDigestTable(list(map(state_capture(accessor), slots)))
