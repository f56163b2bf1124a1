"""The linear map: the data structure at the heart of copy-restore.

Paper, Section 3, step 1: *"Create a linear map of all objects reachable
from the reference parameter. Keep a reference to it."* The map is an
ordered list of every **mutable** object the serializer met, in handle
order. Because the decoder allocates objects in exactly the stream order the
encoder wrote them, both endpoints hold index-aligned maps without the map
itself ever crossing the wire (paper optimization 5.2.4 #1).

Index alignment is what makes a reply positional: position *i* of the
server's map and position *i* of the caller's are the two versions of the
same logical object, so a reply names an old object by its position and
the caller decodes it straight into its original.

The map also records, per root, the **span** of positions first reached
under it. The copy-restore roots lead the argument stream
(:func:`repro.nrmi.invocation.wire_order`), so the retained subset of a
call is the prefix of the map their spans cover
(:func:`repro.nrmi.invocation.compute_retained_indexed`): which objects
travel is decided in one place — the serializer.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

#: ``(root, start, end)``: the root value as passed to ``write_root`` (or
#: returned by ``read_root``) and the half-open range of map positions
#: first reached while it was traversed.
RootSpan = Tuple[Any, int, int]


class LinearMap:
    """An ordered list of the mutable reachable objects.

    The encoder and decoder only append, each object once (their own
    handle tables already guarantee it), and nothing on the call path asks
    "where is this object?", so the map keeps no identity index.
    """

    __slots__ = ("_objects", "spans")

    def __init__(self) -> None:
        self._objects: List[Any] = []
        #: One ``(root, start, end)`` per traversed root, in stream order.
        self.spans: List[RootSpan] = []

    def append_new(self, obj: Any) -> int:
        """Append *obj*, known to be absent, and return its position.

        The writer appends only on a handle-table miss, and every shell
        the reader registers is freshly allocated, so no membership probe
        is needed on these hottest paths.
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

    @property
    def objects(self) -> List[Any]:
        """The underlying ordered list (do not mutate)."""
        return self._objects

    def __repr__(self) -> str:
        return f"LinearMap({len(self)} objects)"
