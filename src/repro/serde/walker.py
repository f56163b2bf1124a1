"""Generic object-graph traversal.

Used by the copy-restore engine (classifying new vs old objects), the delta
encoder (change detection), the DGC (reachability of remote refs), and
tests (heap-state assertions). Traversal is iterative and identity-deduped.
"""

from __future__ import annotations

from typing import Any, Callable, Container, Dict, FrozenSet, Iterator, List, Optional

from repro.serde.accessors import FieldAccessor, OPTIMIZED_ACCESSOR
from repro.serde.hooks import transient_fields
from repro.serde.kinds import Kind, classify, is_mutable_kind
from repro.util.identity import IdentityMap, IdentitySet


def iter_children(
    obj: Any,
    accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
    transients: Container[str] = (),
) -> Iterator[Any]:
    """Yield the objects directly referenced by *obj* (one level deep).

    For dicts both keys and values are children. Primitives (including str
    and bytes) have no children. An object's fields named in *transients*
    are left out, as the serializer leaves ``__nrmi_transient__`` fields
    off the wire.
    """
    kind = classify(obj)
    if kind in (Kind.LIST, Kind.TUPLE, Kind.SET, Kind.FROZENSET):
        yield from obj
    elif kind is Kind.DICT:
        for key, value in obj.items():
            yield key
            yield value
    elif kind is Kind.OBJECT:
        if transients:
            for name, value in accessor.get_state(obj):
                if name not in transients:
                    yield value
        else:
            for _name, value in accessor.get_state(obj):
                yield value


def reachable(
    roots: List[Any],
    accessor: FieldAccessor = OPTIMIZED_ACCESSOR,
    mutable_only: bool = False,
    stop: Optional[Callable[[Any], bool]] = None,
    written: Optional[IdentityMap] = None,
) -> Iterator[Any]:
    """Iterate every object reachable from *roots*, each exactly once.

    Traversal is depth-first pre-order using an explicit stack, so depth is
    unbounded. Primitives (including str/bytes) are not yielded — they are
    values, not identity-bearing heap cells. When *stop* returns True for
    an object, the object is yielded but not descended into (used by the
    RMI layer to stop at remote references).

    *written* turns the walk from the heap to what a serializer put on the
    wire: pass the stream's ``LinearMap.replacements`` (empty for a decoded
    graph). Transient fields are then not followed, and an object the
    writer swapped through ``__nrmi_replace__`` gives way to its stand-in.
    """
    seen = IdentitySet()
    stack = list(reversed(roots))
    wire_view = written is not None
    stand_ins = written if written else None  # most streams swapped nothing
    transients_of: Dict[type, FrozenSet[str]] = {}  # one MRO walk per class
    while stack:
        obj = stack.pop()
        if stand_ins is not None:
            stand_in = stand_ins.get(obj)
            if stand_in is not None:
                # Back on the stack: a stand-in's own hook applies in turn.
                stack.append(stand_in)
                continue
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
        transients: Container[str] = ()
        if wire_view and kind is Kind.OBJECT:
            cls = type(obj)
            if cls not in transients_of:
                transients_of[cls] = transient_fields(cls)
            transients = transients_of[cls]
        children = list(iter_children(obj, accessor, transients))
        stack.extend(reversed(children))


def count_reachable(roots: List[Any], accessor: FieldAccessor = OPTIMIZED_ACCESSOR) -> int:
    """Number of distinct identity-bearing objects reachable from *roots*."""
    return sum(1 for _ in reachable(roots, accessor))
