"""Serialization substrate: an alias- and cycle-preserving wire format.

This package plays the role Java Serialization plays for RMI/NRMI in the
paper. The design points that matter for the reproduction:

* **Handle table.** Every identity-bearing object gets a *handle* the first
  time the encoder meets it; later occurrences are written as back
  references. This preserves shared structure (aliases) and cycles within a
  single stream — and therefore across all parameters of one remote call,
  which is how NRMI answers the "copy-restore duplicates shared arguments"
  myth (paper Section 4.1).

* **Linear map for free** (paper Section 5.2.1). The ordered sequence of
  *mutable* objects assigned handles during encoding is exactly the linear
  map the copy-restore algorithm needs; the decoder rebuilds the same
  sequence in the same order while deserializing (paper optimization
  5.2.4 #1 — the map itself is never transmitted).

* **Profiles.** The same format can be written by a ``legacy`` profile
  (per-field reflective access, no descriptor caching, per-object validation
  — modelling JDK 1.3 RMI) or a ``modern`` profile (generated per-class
  encoders and decoders, interned descriptors — modelling JDK 1.4's
  flattened, "Unsafe"-based serialization).

* **Safety.** Unlike ``pickle``, decoding never imports or executes
  anything: only classes registered with :mod:`repro.serde.registry` can be
  instantiated, and instances are built without running ``__init__``.
"""

from repro.serde.registry import (
    ClassRegistry,
    global_registry,
    register_class,
    register_externalizer,
)
from repro.serde.accessors import FieldAccessor, PortableAccessor, OptimizedAccessor
from repro.serde.kinds import Kind, classify, is_mutable_kind
from repro.serde.linear_map import LinearMap
from repro.serde.profiles import (
    SerializationProfile,
    LEGACY_PROFILE,
    MODERN_PROFILE,
    profile_by_name,
)
from repro.serde.writer import ObjectWriter, encode_graph
from repro.serde.reader import ObjectReader, decode_graph
from repro.serde.adapters import install_default_adapters, register_value_adapter

# Both endpoints of this library always agree on the stdlib value types.
install_default_adapters()

__all__ = [
    "ClassRegistry",
    "global_registry",
    "register_class",
    "register_externalizer",
    "FieldAccessor",
    "PortableAccessor",
    "OptimizedAccessor",
    "Kind",
    "classify",
    "is_mutable_kind",
    "LinearMap",
    "SerializationProfile",
    "LEGACY_PROFILE",
    "MODERN_PROFILE",
    "profile_by_name",
    "ObjectWriter",
    "ObjectReader",
    "encode_graph",
    "decode_graph",
]
