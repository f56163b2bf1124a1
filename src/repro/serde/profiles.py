"""Serialization runtime profiles.

The paper evaluates every configuration under two JDKs:

* **JDK 1.3** — RMI layered over slow general-purpose facilities: reflective
  field access with security checks and no descriptor caching;
* **JDK 1.4** — serialization flattened onto direct memory access
  ("Unsafe"), roughly 50-60% faster in the paper's LAN setting.

The reproduction models the pair as *profiles* of one wire format. A profile
bundles the field accessor, whether class/field descriptors are interned
(cached) in the stream, whether a per-object validation pass runs, and
whether registered classes go through generated per-class code
(:mod:`repro.serde.codegen`) or the generic frame machine. The
``legacy`` profile therefore does strictly more work and writes strictly
more bytes per object — the same mechanism, and hence the same *shape* of
speedup, as the JDK 1.3 to 1.4 transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serde.accessors import (
    FieldAccessor,
    OPTIMIZED_ACCESSOR,
    PORTABLE_ACCESSOR,
)


@dataclass(frozen=True)
class SerializationProfile:
    """Immutable bundle of serializer behaviour knobs."""

    name: str
    accessor: FieldAccessor
    intern_descriptors: bool
    per_object_validation: bool
    #: Encode and decode registered classes through generated per-class
    #: functions (repro.serde.codegen) and the zero-copy buffer fast path.
    #: The wire format is unchanged — only the implementation differs.
    use_compiled_plans: bool = False
    #: Route writes/reads through the chunk-list / slice-copy buffer classes
    #: that model the legacy stack's per-primitive allocation behaviour.
    chunked_buffers: bool = False

    def __repr__(self) -> str:
        return f"SerializationProfile({self.name!r})"


#: Models JDK 1.3-era RMI: reflective access, full descriptors per object,
#: per-object validation, allocation-heavy stream layer.
LEGACY_PROFILE = SerializationProfile(
    name="legacy",
    accessor=PORTABLE_ACCESSOR,
    intern_descriptors=False,
    per_object_validation=True,
    use_compiled_plans=False,
    chunked_buffers=True,
)

#: Models JDK 1.4-era RMI: generated per-class serde, interned descriptors,
#: single-buffer zero-copy stream layer.
MODERN_PROFILE = SerializationProfile(
    name="modern",
    accessor=OPTIMIZED_ACCESSOR,
    intern_descriptors=True,
    per_object_validation=False,
    use_compiled_plans=True,
    chunked_buffers=False,
)

_PROFILES = {p.name: p for p in (LEGACY_PROFILE, MODERN_PROFILE)}


def profile_by_name(name: str) -> SerializationProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; expected one of {sorted(_PROFILES)}"
        ) from None
