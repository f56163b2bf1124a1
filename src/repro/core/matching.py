"""Step 4 of the algorithm: match up the two linear maps.

The caller recorded the original linear map while marshalling; the restore
payload carries the modified versions of (a subset of) those objects, in
the same positional order. Matching is therefore index-wise; this module
validates the match and builds the table steps 5-6 consume:
``id(modified) -> original``, one entry per position, built and checked
in C-level passes with no Python loop per position.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Dict, List

from repro.errors import LinearMapMismatchError, RestoreError


def match_maps(originals: List[Any], modifieds: List[Any]) -> Dict[int, Any]:
    """Validate the positional match between map versions and return the
    ``id(modified) -> original`` table.

    Raises :class:`LinearMapMismatchError` when the lengths differ and
    :class:`RestoreError` when positions disagree on type — either means
    the server and client linear maps got out of sync, which the algorithm
    guarantees cannot happen unless the payload is corrupt. The table's
    keys are ids of objects the caller keeps alive (*modifieds*) for as
    long as it uses the table.
    """
    if len(originals) != len(modifieds):
        raise LinearMapMismatchError(expected=len(originals), received=len(modifieds))
    if not all(map(is_, map(type, originals), map(type, modifieds))):
        for position, (original, modified) in enumerate(zip(originals, modifieds)):
            if type(original) is not type(modified):
                raise RestoreError(
                    f"linear map position {position}: original is "
                    f"{type(original).__name__}, payload carries "
                    f"{type(modified).__name__}"
                )
    return dict(zip(map(id, modifieds), originals))


def match_sparse(
    originals: List[Any], indices: List[int], modifieds: List[Any]
) -> Dict[int, Any]:
    """Match only the transmitted positions of a sparse reply.

    ``indices`` are positions into the caller's full retained list, as
    the wire carried them (the dirty slots of a ``delta`` reply, the
    still-reachable ones of a ``dce`` reply); ``modifieds`` carries the
    server's versions of exactly those slots, in the same order. Every
    index must be an int in range, and the sequence strictly increasing.
    Positions not named never enter the table, so the restore engine does
    not touch (or even look at) their originals.
    """
    if len(indices) != len(modifieds):
        raise LinearMapMismatchError(expected=len(indices), received=len(modifieds))
    previous = -1
    for index in indices:
        if type(index) is not int:
            raise RestoreError(f"slot index {index!r} is not an int")
        if index < 0:
            raise RestoreError(f"negative slot index {index}")
        if index <= previous:
            raise RestoreError(f"slot indices not strictly increasing at {index}")
        if index >= len(originals):
            raise RestoreError(
                f"slot index {index} outside retained list of "
                f"{len(originals)} slots"
            )
        previous = index
    return match_maps([originals[i] for i in indices], modifieds)
