"""Compiled per-class serialization plans (the modern profile's fast path).

The paper's "optimized" NRMI implementation (Section 5.3.1) wins by
flattening per-field reflection layers into direct access.  This module is
the reproduction's analogue: for each registered class it compiles a
specialized encode closure and a decode descriptor, so the steady-state
hot loop does no per-object reflection — no MRO walks for transients, no
``hasattr`` probes for hooks, no generic per-field dispatch.

An :class:`EncodePlan` captures, at compile time:

* the class's transient-field set, linear-map membership (``has_resolve``
  classes are value-like and stay out), and slot layout;
* the pre-encoded first-occurrence class descriptor blob
  (``uvarint(0) + name + version``) so interning a new class is a single
  buffer append;
* lazily pre-encoded field-name blobs, shared across all instances;
* an inline fast path for scalar field values (``None``/``bool``/``int``/
  ``float``/``str``/``bytes``) that writes tag bytes and varints straight
  into the writer's ``bytearray``; non-scalar values fall back to the
  writer's generic work-stack, preserving pre-order byte-for-byte.

A :class:`DecodePlan` caches the instance factory and hook flags the
reader would otherwise re-derive per object.

Plans are **cached on the class registry** (each :class:`ClassRegistry`
owns its own caches) and are invalidated when a class's declared
``__nrmi_version__`` changes — redefining a class with a bumped version
recompiles its plan on next use.

Compiled and uncompiled encoding produce **byte-identical** streams; the
wire format is untouched.  Plans are used only by profiles with
``use_compiled_plans`` set (the modern profile); the legacy profile keeps
its truthful per-object reflection cost model.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Any, Callable, Dict, Tuple

from repro.serde.hooks import class_version, has_resolve, has_upgrade, transient_fields

_F64 = struct.Struct(">d")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# Wire tag bytes, inlined as plain ints (enum attribute access is hot-loop
# overhead). Values mirror repro.serde.tags.Tag.
_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_INT_BIG = 0x04
_TAG_FLOAT = 0x05
_TAG_STR = 0x07
_TAG_BYTES = 0x08
_TAG_REF = 0x09
_TAG_OBJECT = 0x10

# Work-stack opcodes, mirrored from repro.serde.writer.
_EMIT_VALUE = 0
_EMIT_NAME = 1


def _uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _collect_slot_names(cls: type) -> Tuple[str, ...]:
    names = []
    seen = set()
    for klass in reversed(cls.__mro__):
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__") or name in seen:
                continue
            seen.add(name)
            names.append(name)
    return tuple(names)


class EncodePlan:
    """A compiled per-class encoder: ``plan.encode(writer, obj, stack)``."""

    __slots__ = ("cls", "version", "encode")

    def __init__(self, cls: type, version: int, encode: Callable) -> None:
        self.cls = cls
        self.version = version
        self.encode = encode


def _dict_store_safe(cls: type) -> bool:
    """Whether plain ``__dict__`` stores are equivalent to ``setattr``.

    True when no class in the MRO declares ``__slots__`` and no non-dunder
    class attribute is a data descriptor (its type defines ``__set__``) —
    then every attribute store lands in the instance dict, so the decode
    fast path may batch field stores with a single ``dict`` update.
    (Dunder names are skipped: every class carries ``__dict__`` and
    ``__weakref__`` getset descriptors, which are not field stores.)
    """
    for klass in cls.__mro__[:-1]:
        if "__slots__" in klass.__dict__:
            return False
        for name, attr in klass.__dict__.items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if hasattr(type(attr), "__set__"):
                return False
    return True


class DecodePlan:
    """Cached per-class decoding facts: factory and hook flags."""

    __slots__ = (
        "cls",
        "version",
        "factory",
        "needs_resolve",
        "has_upgrade",
        "use_dict",
        "decode_fn",
    )

    def __init__(self, cls: type, version: int) -> None:
        self.cls = cls
        self.version = version
        self.factory = partial(object.__new__, cls)
        self.needs_resolve = has_resolve(cls)
        self.has_upgrade = has_upgrade(cls)
        self.use_dict = _dict_store_safe(cls)
        # Optional generated decoder (repro.serde.codegen); None means the
        # reader's frame machine decodes this class from the plan facts.
        self.decode_fn = None


def compile_decode_plan(cls: type) -> DecodePlan:
    return DecodePlan(cls, class_version(cls))


def compile_encode_plan(cls: type, registered_name: str) -> EncodePlan:
    """Build the specialized encode closure for *cls*.

    *registered_name* is the class's name in the registry the plan is
    cached on (resolving it here means an unregistered class fails at
    compile time, exactly where the generic path would fail).
    """
    version = class_version(cls)
    transients = transient_fields(cls)
    mutable = not has_resolve(cls)
    slot_names = _collect_slot_names(cls)

    name_utf8 = registered_name.encode("utf-8")
    class_blob = (
        b"\x00" + _uvarint_bytes(len(name_utf8)) + name_utf8 + _uvarint_bytes(version)
    )
    name_blobs: Dict[str, bytes] = {}

    f64_pack = _F64.pack

    def encode(writer: Any, obj: Any, stack: list) -> None:
        buf = writer._buf.raw
        # -- handle allocation (mirrors ObjectWriter._alloc_handle) --------
        handle = writer._next_handle
        writer._next_handle = handle + 1
        writer._handles[obj] = handle
        if mutable:
            writer.linear_map.append_new(obj)
        # -- state extraction (mirrors OptimizedAccessor.get_state) --------
        instance_dict = getattr(obj, "__dict__", None)
        if slot_names:
            state = list(instance_dict.items()) if instance_dict else []
            for field_name in slot_names:
                try:
                    state.append((field_name, getattr(obj, field_name)))
                except AttributeError:
                    continue
        else:
            state = list(instance_dict.items()) if instance_dict else []
        if transients:
            state = [(n, v) for n, v in state if n not in transients]
        # -- object header --------------------------------------------------
        buf.append(_TAG_OBJECT)
        class_ids = writer._class_ids
        class_id = class_ids.get(cls)
        if class_id is None:
            class_ids[cls] = len(class_ids) + 1
            if writer._schema_tx is None:
                buf += class_blob
            else:
                # Session schema cache in force: emit a schema def/ref
                # instead of the inline descriptor (repro.serde.schema).
                writer._emit_schema_class(
                    cls, version, class_blob, registered_name,
                    [n for n, _ in state],
                )
        else:
            # Back references shift past the schema-mode discriminators
            # (offset 0 on classic streams).
            class_id += writer._class_key_offset
            while class_id > 0x7F:
                buf.append((class_id & 0x7F) | 0x80)
                class_id >>= 7
            buf.append(class_id)
        count = len(state)
        value = count
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)
        # -- fields ---------------------------------------------------------
        name_ids = writer._name_ids
        i = 0
        while i < count:
            field_name, value = state[i]
            name_id = name_ids.get(field_name)
            if name_id is None:
                name_ids[field_name] = len(name_ids) + 1
                blob = name_blobs.get(field_name)
                if blob is None:
                    encoded = field_name.encode("utf-8")
                    blob = b"\x00" + _uvarint_bytes(len(encoded)) + encoded
                    name_blobs[field_name] = blob
                buf += blob
            else:
                while name_id > 0x7F:
                    buf.append((name_id & 0x7F) | 0x80)
                    name_id >>= 7
                buf.append(name_id)
            value_cls = value.__class__
            if value is None:
                buf.append(_TAG_NONE)
            elif value_cls is bool:
                buf.append(_TAG_TRUE if value else _TAG_FALSE)
            elif value_cls is int:
                if _INT64_MIN <= value <= _INT64_MAX:
                    buf.append(_TAG_INT)
                    encoded = (value << 1) ^ (value >> 63)
                    while encoded > 0x7F:
                        buf.append((encoded & 0x7F) | 0x80)
                        encoded >>= 7
                    buf.append(encoded)
                else:
                    buf.append(_TAG_INT_BIG)
                    magnitude = -value if value < 0 else value
                    buf.append(1 if value < 0 else 0)
                    payload = magnitude.to_bytes(
                        (magnitude.bit_length() + 7) // 8, "big"
                    )
                    length = len(payload)
                    while length > 0x7F:
                        buf.append((length & 0x7F) | 0x80)
                        length >>= 7
                    buf.append(length)
                    buf += payload
            elif value_cls is float:
                buf.append(_TAG_FLOAT)
                buf += f64_pack(value)
            elif value_cls is str:
                memo = writer._str_memo.get(value)
                if memo is not None:
                    buf.append(_TAG_REF)
                    while memo > 0x7F:
                        buf.append((memo & 0x7F) | 0x80)
                        memo >>= 7
                    buf.append(memo)
                else:
                    str_handle = writer._next_handle
                    writer._next_handle = str_handle + 1
                    writer._handles[value] = str_handle
                    if len(writer._str_memo) < writer._memo_limit:
                        writer._str_memo[value] = str_handle
                    buf.append(_TAG_STR)
                    encoded = value.encode("utf-8")
                    length = len(encoded)
                    while length > 0x7F:
                        buf.append((length & 0x7F) | 0x80)
                        length >>= 7
                    buf.append(length)
                    buf += encoded
            elif value_cls is bytes:
                memo = writer._bytes_memo.get(value)
                if memo is not None:
                    buf.append(_TAG_REF)
                    while memo > 0x7F:
                        buf.append((memo & 0x7F) | 0x80)
                        memo >>= 7
                    buf.append(memo)
                else:
                    bytes_handle = writer._next_handle
                    writer._next_handle = bytes_handle + 1
                    writer._handles[value] = bytes_handle
                    if len(writer._bytes_memo) < writer._memo_limit:
                        writer._bytes_memo[value] = bytes_handle
                    buf.append(_TAG_BYTES)
                    length = len(value)
                    while length > 0x7F:
                        buf.append((length & 0x7F) | 0x80)
                        length >>= 7
                    buf.append(length)
                    buf += value
            else:
                # Non-scalar (container, nested object, subclassed scalar):
                # hand the remaining fields back to the generic work-stack in
                # exactly the order _emit_object would have pushed them.
                j = count - 1
                while j > i:
                    later_name, later_value = state[j]
                    stack.append((_EMIT_VALUE, later_value))
                    stack.append((_EMIT_NAME, later_name))
                    j -= 1
                stack.append((_EMIT_VALUE, value))
                return
            i += 1

    return EncodePlan(cls, version, encode)
