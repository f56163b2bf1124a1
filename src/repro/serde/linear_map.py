"""The linear map: the data structure at the heart of copy-restore.

Paper, Section 3, step 1: *"Create a linear map of all objects reachable
from the reference parameter. Keep a reference to it."* The map is an
ordered list of every **mutable** object the serializer met, in handle
order. Because the decoder allocates objects in exactly the stream order the
encoder wrote them, both endpoints hold index-aligned maps without the map
itself ever crossing the wire (paper optimization 5.2.4 #1).

Index alignment is what makes step 4 ("match up the two linear maps")
trivial: ``original.objects[i]`` and ``modified.objects[i]`` are the two
versions of the same logical object.

The map also keeps what the traversal that filled it knew and a later walk
over the heap could only guess at: per root, the **span** of positions
first reached under it, and the stand-ins ``__nrmi_replace__`` put on the
wire. The invocation layer reads the retained subset of a call straight off
the spans (:func:`repro.nrmi.invocation.compute_retained_indexed`), so
which objects travel is decided in one place — the serializer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.identity import IdentityMap

#: ``(root, start, end)``: the root value as passed to ``write_root`` (or
#: returned by ``read_root``) and the half-open range of map positions
#: first reached while it was traversed.
RootSpan = Tuple[Any, int, int]


class LinearMap:
    """An ordered list of the mutable reachable objects, with an identity
    index built on demand.

    The encoder and decoder only append (each object once, which their own
    handle tables already guarantee), and nothing on the call path asks
    "where is this object?". So :meth:`append_new` is one list append, and
    the ``id -> position`` index is built the first time
    :meth:`position_of`, ``in`` or :meth:`append` needs it, then brought
    up to date with whatever was appended since.
    """

    __slots__ = ("_objects", "_index", "_indexed", "spans", "replacements")

    def __init__(self, objects: Optional[List[Any]] = None) -> None:
        self._objects: List[Any] = []
        # id(obj) -> first position, covering _objects[:_indexed]; the
        # list pins every object, so no id can be recycled under an entry.
        self._index: Dict[int, int] = {}
        self._indexed = 0
        #: One ``(root, start, end)`` per traversed root, in stream order.
        #: Empty for a map filled by :meth:`append` alone; the spans
        #: describe the whole map only when they tile ``0..len(self)``.
        self.spans: List[RootSpan] = []
        #: original -> stand-in for every object the writer swapped through
        #: ``__nrmi_replace__`` (the writer shares its cache; a decoded or
        #: hand-built map has none). A walk that must see what the stream
        #: carried follows these instead of the originals' own fields.
        self.replacements: IdentityMap[Any] = IdentityMap()
        if objects:
            for obj in objects:
                self.append(obj)

    def _synced_index(self) -> Dict[int, int]:
        """The identity index, extended over positions appended since the
        last query."""
        objects = self._objects
        index = self._index
        for position in range(self._indexed, len(objects)):
            index.setdefault(id(objects[position]), position)
        self._indexed = len(objects)
        return index

    def append(self, obj: Any) -> int:
        """Add *obj* and return its position; each object appears once."""
        existing = self._synced_index().get(id(obj))
        if existing is not None:
            return existing
        return self.append_new(obj)

    def append_new(self, obj: Any) -> int:
        """Unchecked append for objects known to be absent.

        The encoder's and decoder's case: the writer appends only on a
        handle-table miss, and every shell the reader registers is freshly
        allocated, so a membership probe would be wasted work on the
        hottest paths.
        """
        objects = self._objects
        position = len(objects)
        objects.append(obj)
        return position

    def close_span(self, root: Any, start: int) -> None:
        """Record that traversing *root* appended positions ``start..len``.

        Called once per root by the writer and the reader — two ``len()``
        reads per root, nothing per object.
        """
        self.spans.append((root, start, len(self._objects)))

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._objects)

    def __getitem__(self, position: int) -> Any:
        return self._objects[position]

    def __contains__(self, obj: object) -> bool:
        return id(obj) in self._synced_index()

    def position_of(self, obj: Any) -> Optional[int]:
        """The object's position, or None if it is not in the map."""
        return self._synced_index().get(id(obj))

    @property
    def objects(self) -> List[Any]:
        """The underlying ordered list (do not mutate)."""
        return self._objects

    def __repr__(self) -> str:
        return f"LinearMap({len(self)} objects)"
