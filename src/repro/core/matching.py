"""Step 4 of the algorithm: match up the two linear maps.

The caller recorded the original linear map while marshalling; the restore
payload carries the modified versions of (a subset of) those objects, in
the same positional order. Matching is therefore index-wise; this module
validates the match and builds the identity mapping
``modified object -> original object`` that steps 5-6 consume.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import LinearMapMismatchError, RestoreError
from repro.util.identity import IdentityMap


class MatchResult:
    """The outcome of matching: aligned (original, modified) pairs."""

    __slots__ = ("originals", "modifieds")

    def __init__(self, originals: List[Any], modifieds: List[Any]) -> None:
        self.originals = originals
        self.modifieds = modifieds

    @property
    def modified_to_original(self) -> IdentityMap[Any]:
        """``modified object -> original object``, built on demand: the
        restore engine keys its own ``id()`` table off the two lists."""
        mapping: IdentityMap[Any] = IdentityMap()
        for original, modified in zip(self.originals, self.modifieds):
            mapping[modified] = original
        return mapping

    def __len__(self) -> int:
        return len(self.originals)

    def pairs(self):
        return zip(self.originals, self.modifieds)


def match_maps(originals: List[Any], modifieds: List[Any]) -> MatchResult:
    """Validate and build the positional match between map versions.

    Raises :class:`LinearMapMismatchError` when the lengths differ and
    :class:`RestoreError` when positions disagree on type — either means
    the server and client linear maps got out of sync, which the algorithm
    guarantees cannot happen unless the payload is corrupt.
    """
    if len(originals) != len(modifieds):
        raise LinearMapMismatchError(expected=len(originals), received=len(modifieds))
    for position, (original, modified) in enumerate(zip(originals, modifieds)):
        if original is modified:
            # Delta restore resolves unchanged objects straight to the
            # caller's originals; those positions are trivially matched.
            continue
        if type(original) is not type(modified):
            raise RestoreError(
                f"linear map position {position}: original is "
                f"{type(original).__name__}, payload carries "
                f"{type(modified).__name__}"
            )
    return MatchResult(originals, modifieds)


def match_sparse(
    originals: List[Any], dirty_indices: List[int], modifieds: List[Any]
) -> MatchResult:
    """Match only the transmitted dirty positions of a delta-slots reply.

    ``dirty_indices`` are positions into the caller's full retained list;
    ``modifieds`` carries the server's versions of exactly those slots, in
    the same order. Clean positions never enter the match, so the restore
    engine does not touch (or even look at) their originals — the
    overwrite work of steps 4-5 is skipped for them entirely.
    """
    if len(dirty_indices) != len(modifieds):
        raise LinearMapMismatchError(
            expected=len(dirty_indices), received=len(modifieds)
        )
    previous = -1
    for index in dirty_indices:
        if index <= previous:
            raise RestoreError(
                f"dirty indices not strictly increasing at {index}"
            )
        if index >= len(originals):
            raise RestoreError(
                f"dirty index {index} outside retained list of "
                f"{len(originals)} slots"
            )
        previous = index
    return match_maps([originals[i] for i in dirty_indices], modifieds)
