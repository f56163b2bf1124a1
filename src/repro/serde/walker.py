"""Generic object-graph traversal.

Used by the ``dce`` restore policy (which old objects the copy-restore
roots still reach after the call) and by tests (heap-state assertions).
Traversal is iterative and identity-deduped.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional

from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.kinds import Kind, classify, is_mutable_kind
from repro.util.identity import IdentitySet


def iter_children(obj: Any, accessor: FieldAccessor = OPTIMIZED_ACCESSOR) -> Iterator[Any]:
    """Yield the objects directly referenced by *obj* (one level deep).

    For dicts both keys and values are children. Primitives (including str
    and bytes) have no children.
    """
    kind = classify(obj)
    if kind in (Kind.LIST, Kind.TUPLE, Kind.SET, Kind.FROZENSET):
        yield from obj
    elif kind is Kind.DICT:
        for key, value in obj.items():
            yield key
            yield value
    elif kind is Kind.OBJECT:
        for _name, value in accessor.get_state(obj):
            yield value


def reachable(
    roots: List[Any],
    accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
    mutable_only: bool = False,
    stop: Optional[Callable[[Any], bool]] = None,
) -> Iterator[Any]:
    """Iterate every object reachable from *roots*, each exactly once.

    Traversal is depth-first pre-order using an explicit stack, so depth is
    unbounded. Primitives (including str/bytes) are not yielded — they are
    values, not identity-bearing heap cells. When *stop* returns True for
    an object, the object is yielded but not descended into (used by the
    RMI layer to stop at remote references).
    """
    seen = IdentitySet()
    stack = list(reversed(roots))
    while stack:
        obj = stack.pop()
        kind = classify(obj)
        if kind is Kind.PRIMITIVE:
            continue
        if obj in seen:
            continue
        seen.add(obj)
        if not mutable_only or is_mutable_kind(kind):
            yield obj
        if stop is not None and stop(obj):
            continue
        children = list(iter_children(obj, accessor))
        stack.extend(reversed(children))
