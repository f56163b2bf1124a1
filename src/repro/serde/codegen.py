"""exec-specialized per-class encoders and decoders: the modern profile's
serde.

The paper's "optimized" NRMI implementation (Section 5.3.1) wins by
flattening per-field reflection layers into direct access. This module is
the reproduction's analogue: for each registered class it ``exec``-builds
a source function specialized to the class's layout, so the steady-state
hot loop does no per-object reflection —

* field storage is baked in (plain ``__dict__`` stream, unrolled
  ``__slots__`` reads, or the generic mixed path); transient fields and
  linear-map membership (``has_resolve`` classes are value-like and stay
  out) are resolved once;
* an object's header is one layout lookup: the encoder probes the
  writer's layout table with ``(class, field names)`` and writes one
  short header byte, the decoder walks the layout's names tuple while
  it reads the values (a layout's first instance, and every other long
  form, goes through the writer's generic header method and the
  reader's generic layout methods);
* scalar fields write/read straight against the buffer's ``bytearray`` /
  ``memoryview`` with literal tag bytes;
* runs of float-valued slots collapse into a single
  ``struct.Struct(...).pack`` / ``unpack_from`` call;
* *nested objects of the same class are unrolled into an iterative
  loop* (a lightweight suspension list, no Python call per node, any
  depth), and nested generated-backed objects of *other* classes recurse
  directly (bounded by :data:`MAX_CODEGEN_DEPTH`), so a tree of objects
  serializes with no per-node stack/frame churn at all;
* externals stay in generated code: decoders resolve any ``EXTERNAL``
  (remote references, value adapters) in place;
* a reply's slot definitions stay in generated code too: encoders write
  a definition header for a slot the writer defines (short when it
  follows the previous definition, which writer and reader each keep
  in one attribute both paths share), and decoders read one into a
  scratch instance for the caller's original, queued on the reader's
  pending list;
* any shape the specialization does not cover **bails out** to the
  writer's and reader's generic machinery mid-object, preserving
  pre-order byte-for-byte: generated encode splices its remaining work
  under whatever the callee left on the writer's work stack, generated
  decode parks a fully-formed :class:`repro.serde.reader._Frame` for the
  frame machine to finish.

A class whose function fails to compile is encoded and decoded by that
generic machinery (counted once per class and registry on
``serde.codegen.fallbacks``). The generic machinery is also the legacy
profile's implementation and the correctness oracle: generated and
generic encoding are byte-identical and property-tested against each
other.

Compiled functions are cached per ``(class, registry)`` and invalidated
when the class's ``__nrmi_version__`` moves *or* the process-wide schema
epoch (:func:`repro.serde.schema.schema_epoch`) is bumped — a reset of
the global descriptor table means baked descriptor blobs must be rebuilt.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Dict, Tuple

from repro.errors import WireFormatError
from repro.serde.accessors import OPTIMIZED_ACCESSOR, _collect_slot_names
from repro.serde.hooks import (
    apply_resolve,
    apply_upgrade,
    class_version,
    has_resolve,
    has_upgrade,
    transient_fields,
)
from repro.serde.kinds import Kind, classify
from repro.serde.schema import schema_epoch
from repro.serde.tags import (
    INT2_BASE,
    INT2_LIMIT,
    INT3_BASE,
    INT3_END,
    INT3_LIMIT,
    SHORT_DEFINITION,
    SHORT_LAYOUTS,
    SHORT_OBJECT,
    Tag,
)
from repro.util.metrics import MetricsRegistry

#: Sentinel returned by a generated decode function when it has parked a
#: frame for the reader's machine instead of finishing the object itself.
BAIL = object()

#: Generated functions recurse into nested generated-backed objects up to
#: this depth; deeper graphs bail to the iterative machinery, which is
#: correct at any depth. Well under CPython's default recursion limit even
#: with the dispatcher's own frames on the C stack.
MAX_CODEGEN_DEPTH = 64

#: Module-wide codegen telemetry: ``serde.codegen.compiled`` counts
#: successfully generated functions, ``serde.codegen.fallbacks`` counts
#: classes whose function failed to compile (they take the generic path),
#: and ``serde.codegen.bails.<reason>`` counts each hand-over of an object
#: to the generic machinery mid-object, by the site that bailed.
codegen_metrics = MetricsRegistry()

#: The bail sites. ``depth``: a nested object past
#: :data:`MAX_CODEGEN_DEPTH`; ``uncompiled``: a nested object whose class
#: has no generated function at hand (not yet met by this writer, not
#: plan-safe, or failed to compile); ``container``: a list, tuple, set,
#: frozenset, dict or bytearray value; ``other``: any other value (big
#: ints, complex numbers, primitive subclasses, externalized values on
#: the encoder; an unknown tag on the decoder).
BAIL_REASONS = tuple(
    f"{side}.{site}"
    for side in ("encode", "decode")
    for site in ("depth", "uncompiled", "container", "other")
)
_BAILS = {
    reason: codegen_metrics.counter(f"serde.codegen.bails.{reason}")
    for reason in BAIL_REASONS
}


def bail_counts() -> Dict[str, int]:
    """Bails since the counters were last reset, by reason."""
    return {reason: counter.value for reason, counter in _BAILS.items()}


_CONTAINER_KINDS = frozenset(
    {Kind.LIST, Kind.TUPLE, Kind.SET, Kind.FROZENSET, Kind.DICT, Kind.BYTEARRAY}
)
_CONTAINER_TAGS = frozenset(
    int(tag)
    for tag in (Tag.LIST, Tag.TUPLE, Tag.SET, Tag.FROZENSET, Tag.DICT, Tag.BYTEARRAY)
)


def _note_encode_bail(value, plan_cache) -> None:
    if value.__class__ in plan_cache:
        reason = "encode.depth"
    else:
        kind = classify(value)
        if kind is Kind.OBJECT:
            reason = "encode.uncompiled"
        elif kind in _CONTAINER_KINDS:
            reason = "encode.container"
        else:
            reason = "encode.other"
    _BAILS[reason].add()


class _ResolveError(Exception):
    """Carries what an externalizer's ``resolve`` raised out of a
    generated decoder, past the handlers that turn the decoder's own
    ``IndexError`` and ``UnicodeDecodeError`` into ``WireFormatError``:
    both paths raise the same error for a malformed external."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(error)
        self.error = error


_F64 = struct.Struct(">d")

# Wire tag bytes, interpolated into generated source as int literals.
_TAG_NONE = int(Tag.NONE)
_TAG_TRUE = int(Tag.TRUE)
_TAG_FALSE = int(Tag.FALSE)
_TAG_INT = int(Tag.INT)
_TAG_INT_BIG = int(Tag.INT_BIG)
_TAG_FLOAT = int(Tag.FLOAT)
_TAG_STR = int(Tag.STR)
_TAG_BYTES = int(Tag.BYTES)
_TAG_REF = int(Tag.REF)
_TAG_OBJECT = int(Tag.OBJECT)
_TAG_EXTERNAL = int(Tag.EXTERNAL)
_TAG_OLD_OBJECT = int(Tag.OLD_OBJECT)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class CodegenEncodePlan:
    """A class's generated encoder, stamped with what it was compiled for.

    ``encode(writer, obj, stack)`` returns ``True`` when the object was
    written completely and ``False`` when it handed remaining work to the
    writer's stack; the writer's hot loop ignores the return value, only
    recursive generated callers look at it. ``encode`` is ``None`` when
    compilation failed: the writer then takes its generic object path.
    """

    __slots__ = ("version", "epoch", "encode", "encode_inner")

    def __init__(
        self, version: int, epoch: int, encode=None, encode_inner=None
    ) -> None:
        self.version = version
        self.epoch = epoch
        self.encode = encode
        #: ``encode_inner(writer, obj, stack, depth, ctx)`` — the recursion
        #: target generated parents call so the hot-internals tuple is
        #: unpacked once per root instead of once per object.
        self.encode_inner = encode_inner


class CodegenDecodePlan:
    """A class's decoding facts plus its generated decoder.

    ``decode_fn(reader, stack, wire_version, old=None)`` decodes the
    fields of the layout the caller just read (``reader._dispatch_layout``)
    and returns the object or :data:`BAIL`; with *old*, a slot's
    original, the fields go to a scratch instance queued on the reader's
    pending list and the object returned is *old*. ``None`` (compile
    failure) routes the class through the reader's frame machine, which
    builds shells from the facts here.
    """

    __slots__ = (
        "version",
        "epoch",
        "factory",
        "needs_resolve",
        "has_upgrade",
        "decode_fn",
        "decode_inner",
    )

    def __init__(self, cls: type, version: int, epoch: int) -> None:
        self.version = version
        self.epoch = epoch
        self.factory = partial(object.__new__, cls)
        self.needs_resolve = has_resolve(cls)
        self.has_upgrade = has_upgrade(cls)
        self.decode_fn = None
        #: ``decode_inner(reader, stack, wire_version, depth, ctx, pos,
        #: layout, old)`` returning ``(value, pos)`` — the recursion target
        #: generated parents call, threading the buffer cursor as a plain
        #: local and handing over the layout they read.
        self.decode_inner = None


def _dict_store_safe(cls: type) -> bool:
    """Whether plain ``__dict__`` stores are equivalent to ``setattr``.

    True when no class in the MRO declares ``__slots__`` and no non-dunder
    class attribute is a data descriptor (its type defines ``__set__``) —
    then every attribute store lands in the instance dict, so generated
    decoders may store fields straight into it. (Dunder names are skipped:
    every class carries ``__dict__`` and ``__weakref__`` getset
    descriptors, which are not field stores.)
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


def _instances_have_dict(cls: type) -> bool:
    return any("__slots__" not in klass.__dict__ for klass in cls.__mro__[:-1])


def _emit_uvarint_src(var: str, indent: int) -> str:
    p = " " * indent
    return (
        f"{p}while {var} > 0x7F:\n"
        f"{p}    buf.append(({var} & 0x7F) | 0x80)\n"
        f"{p}    {var} >>= 7\n"
        f"{p}buf.append({var})\n"
    )


def _read_uvarint_src(target: str, indent: int) -> str:
    p = " " * indent
    return (
        f"{p}byte = mv[pos]\n"
        f"{p}pos += 1\n"
        f"{p}if byte & 0x80:\n"
        f"{p}    {target} = byte & 0x7F\n"
        f"{p}    shift = 7\n"
        f"{p}    while True:\n"
        f"{p}        byte = mv[pos]\n"
        f"{p}        pos += 1\n"
        f"{p}        {target} |= (byte & 0x7F) << shift\n"
        f"{p}        if not byte & 0x80:\n"
        f"{p}            break\n"
        f"{p}        shift += 7\n"
        f"{p}        if shift > 70:\n"
        f"{p}            buf._pos = pos\n"
        f"{p}            raise _WireFormatError(\n"
        f'{p}                "uvarint too long (corrupt stream)"\n'
        f"{p}            )\n"
        f"{p}else:\n"
        f"{p}    {target} = byte\n"
    )


# --------------------------------------------------------------- encode


def _encode_field_body(indent: int, materialize: str) -> str:
    """One field value's emission; the object's layout key carries the
    field names.

    *materialize* is source that (re)builds ``values`` as an indexable
    list before a bail hands the fields after ``i`` to the writer's work
    stack — empty when ``values`` already exists.
    """
    p = " " * indent
    mat = ""
    if materialize:
        mat = f"{p}        {materialize}\n"
    mat_deep = ""
    if materialize:
        mat_deep = f"{p}                {materialize}\n"
    return (
        f"{p}value_cls = value.__class__\n"
        f"{p}if value is None:\n"
        f"{p}    buf.append({_TAG_NONE})\n"
        f"{p}elif value_cls is int:\n"
        f"{p}    if 0 <= value < {INT2_LIMIT}:\n"
        f"{p}        buf.append({INT2_BASE} + (value >> 8))\n"
        f"{p}        buf.append(value & 0xFF)\n"
        f"{p}    elif 0 <= value < {INT3_LIMIT}:\n"
        f"{p}        buf.append({INT3_BASE} + (value >> 16))\n"
        f"{p}        buf.append(value >> 8 & 0xFF)\n"
        f"{p}        buf.append(value & 0xFF)\n"
        f"{p}    elif {_INT64_MIN} <= value <= {_INT64_MAX}:\n"
        f"{p}        buf.append({_TAG_INT})\n"
        f"{p}        encoded = (value << 1) ^ (value >> 63)\n"
        + _emit_uvarint_src("encoded", indent + 8)
        + f"{p}    else:\n"
        f"{p}        buf.append({_TAG_INT_BIG})\n"
        f"{p}        magnitude = -value if value < 0 else value\n"
        f"{p}        buf.append(1 if value < 0 else 0)\n"
        f"{p}        payload = magnitude.to_bytes(\n"
        f"{p}            (magnitude.bit_length() + 7) // 8, \"big\"\n"
        f"{p}        )\n"
        f"{p}        length = len(payload)\n"
        + _emit_uvarint_src("length", indent + 8)
        + f"{p}        buf += payload\n"
        # Non-int, non-None: probe the plan cache next — nested objects
        # dominate homogeneous graphs, so they dispatch ahead of the
        # float/str/bytes/bool tail (a miss costs one dict probe).
        f"{p}else:\n"
        f"{p}    plan2 = plan_cache.get(value_cls)\n"
        f"{p}    if plan2 is not None and _depth < {MAX_CODEGEN_DEPTH}:\n"
        f"{p}        handle_entry = handles.get(id(value))\n"
        f"{p}        if handle_entry is not None:\n"
        f"{p}            ref = handle_entry[1]\n"
        f"{p}            buf.append({_TAG_REF})\n"
        + _emit_uvarint_src("ref", indent + 12)
        + f"{p}        else:\n"
        f"{p}            _base = len(stack)\n"
        f"{p}            if not plan2.encode_inner(\n"
        f"{p}                writer, value, stack, _depth + 1, ctx\n"
        f"{p}            ):\n"
        f"{mat_deep}"
        f"{p}                stack[_base:_base] = [\n"
        f"{p}                    (0, values[j]) for j in range(len(values) - 1, i, -1)\n"
        f"{p}                ]\n"
        f"{p}                return False\n"
        f"{p}    elif value_cls is float:\n"
        f"{p}        buf.append({_TAG_FLOAT})\n"
        f"{p}        buf += _f64_pack(value)\n"
        f"{p}    elif value_cls is str:\n"
        f"{p}        memo = str_memo.get(value)\n"
        f"{p}        if memo is not None:\n"
        f"{p}            buf.append({_TAG_REF})\n"
        + _emit_uvarint_src("memo", indent + 12)
        + f"{p}        else:\n"
        f"{p}            str_handle = writer._next_handle\n"
        f"{p}            writer._next_handle = str_handle + 1\n"
        f"{p}            handles[id(value)] = (value, str_handle)\n"
        f"{p}            if len(str_memo) < memo_limit:\n"
        f"{p}                str_memo[value] = str_handle\n"
        f"{p}            buf.append({_TAG_STR})\n"
        f'{p}            encoded = value.encode("utf-8")\n'
        f"{p}            length = len(encoded)\n"
        + _emit_uvarint_src("length", indent + 12)
        + f"{p}            buf += encoded\n"
        f"{p}    elif value_cls is bytes:\n"
        f"{p}        memo = bytes_memo.get(value)\n"
        f"{p}        if memo is not None:\n"
        f"{p}            buf.append({_TAG_REF})\n"
        + _emit_uvarint_src("memo", indent + 12)
        + f"{p}        else:\n"
        f"{p}            bytes_handle = writer._next_handle\n"
        f"{p}            writer._next_handle = bytes_handle + 1\n"
        f"{p}            handles[id(value)] = (value, bytes_handle)\n"
        f"{p}            if len(bytes_memo) < memo_limit:\n"
        f"{p}                bytes_memo[value] = bytes_handle\n"
        f"{p}            buf.append({_TAG_BYTES})\n"
        f"{p}            length = len(value)\n"
        + _emit_uvarint_src("length", indent + 12)
        + f"{p}            buf += value\n"
        f"{p}    elif value_cls is bool:\n"
        f"{p}        buf.append({_TAG_TRUE} if value else {_TAG_FALSE})\n"
        f"{p}    else:\n"
        f"{p}        _note_encode_bail(value, plan_cache)\n"
        f"{mat}"
        f"{p}        stack.extend(\n"
        f"{p}            [(0, values[j]) for j in range(len(values) - 1, i, -1)]\n"
        f"{p}        )\n"
        f"{p}        stack.append((0, value))\n"
        f"{p}        return False\n"
    )


def _build_encode_source(
    cls: type,
    mutable: bool,
    slot_names: Tuple[str, ...],
    transients: frozenset,
    stream_dict: bool,
    static_slots: bool,
    batch_n: int,
) -> str:
    lines = []
    add = lines.append
    # Wrapper: binds the hot-internals tuple once, then enters the inner
    # function; generated parents recurse straight into inner functions,
    # so the tuple is built/unpacked per *root*, not per object. Valid
    # because the writer only mutates these members in place; rebinding
    # paths (discard) null the cached tuple.
    add("def _encode(writer, obj, stack, _depth=0):")
    add("    ctx = writer._codegen_ctx")
    add("    if ctx is None:")
    add("        writer._codegen_ctx = ctx = (")
    add("            writer._buf.raw,")
    add("            writer._handles._entries,")
    add("            writer.linear_map._objects,")
    add("            writer._layout_ids,")
    add("            writer._name_ids,")
    add("            writer._str_memo,")
    add("            writer._bytes_memo,")
    add("            writer._plan_cache,")
    add("            writer._memo_limit,")
    add("            writer._defs,")
    add("        )")
    add("    return _encode_inner(writer, obj, stack, _depth, ctx)")
    add("")
    add("")
    add("def _encode_inner(writer, obj, stack, _depth, ctx):")
    add("    (buf, handles, lm_objects, layout_ids, name_ids,")
    add("     str_memo, bytes_memo, plan_cache, memo_limit, defs) = ctx")
    if mutable:
        # A slot the stream defines: bound to its slot, outside the
        # linear map; its header is a definition.
        add("    key_id = id(obj)")
        add("    if defs and key_id in defs:")
        add("        slot = defs[key_id]")
        add("        del defs[key_id]")
        add("        handles[key_id] = (obj, slot)")
        add("    else:")
        add("        slot = -1")
        add("        handle = writer._next_handle")
        add("        writer._next_handle = handle + 1")
        add("        handles[key_id] = (obj, handle)")
        # The object just missed the handle table, so it cannot be in the
        # linear map either: LinearMap.append_new, inlined.
        add("        lm_objects.append(obj)")
    else:
        add("    handle = writer._next_handle")
        add("    writer._next_handle = handle + 1")
        add("    handles[id(obj)] = (obj, handle)")
    # -- state extraction and layout key, specialized per class ----------
    # The key is (class, field names in write order), as the generic
    # writer builds it.
    usable = tuple(slot for slot in slot_names if slot not in transients)
    if stream_dict:
        if _instances_have_dict(cls):
            add("    instance_dict = obj.__dict__")
            add("    key = (_cls, tuple(instance_dict))")
        else:
            add('    instance_dict = getattr(obj, "__dict__", None)')
            add("    key = (_cls, tuple(instance_dict) if instance_dict else ())")
        materialize = "values = list(instance_dict.values())"
    elif static_slots:
        # Every slot set is the common case: one read per slot and a
        # prebuilt key. An unset slot is absent from the wire.
        add("    try:")
        add("        values = [" + ", ".join(f"obj.{slot}" for slot in usable) + "]")
        add("        key = _full_key")
        add("    except AttributeError:")
        add("        names = []")
        add("        values = []")
        for slot in usable:
            add("        try:")
            add(f"            values.append(obj.{slot})")
            add(f"            names.append({slot!r})")
            add("        except AttributeError:")
            add("            pass")
        add("        key = (_cls, tuple(names))")
        add("    count = len(values)")
        materialize = ""
    else:
        add('    instance_dict = getattr(obj, "__dict__", None)')
        add("    state = list(instance_dict.items()) if instance_dict else []")
        if slot_names:
            add("    for _fname in _slot_names:")
            add("        try:")
            add("            state.append((_fname, getattr(obj, _fname)))")
            add("        except AttributeError:")
            add("            continue")
        if transients:
            add("    state = [(n_, v_) for n_, v_ in state if n_ not in _transients]")
        add("    key = (_cls, tuple([n_ for n_, _v in state]))")
        add("    values = [v_ for _n, v_ in state]")
        add("    count = len(values)")
        materialize = ""
    # -- header: one layout lookup, one byte in the common case; the
    # writer's generic header method writes every other form ------------
    add("    layout_id = layout_ids.get(key)")
    add(f"    if layout_id is None or layout_id > {SHORT_LAYOUTS}:")
    add("        writer._write_object_header(key" + (", slot)" if mutable else ")"))
    if mutable:
        add("    elif slot < 0:")
        add(f"        buf.append({SHORT_OBJECT - 1} + layout_id)")
        add("    else:")
        add("        last = writer._last_def")
        add("        writer._last_def = slot")
        add("        if slot == last + 1:")
        add(f"            buf.append({SHORT_DEFINITION - 1} + layout_id)")
        add("        else:")
        add(f"            buf.append({_TAG_OLD_OBJECT})")
        lines.extend(_emit_uvarint_src("slot", 12).rstrip("\n").split("\n"))
        # A short-range layout key is a one-byte uvarint.
        add("            buf.append(layout_id)")
    else:
        add("    else:")
        add(f"        buf.append({SHORT_OBJECT - 1} + layout_id)")
    # -- float-run batch (static slot layouts only) ----------------------
    if batch_n:
        add(f"    if count == {batch_n}:")
        guard = " and ".join(
            f"values[{k}].__class__ is float" for k in range(batch_n)
        )
        add(f"        if {guard}:")
        args = ", ".join(f"{_TAG_FLOAT}, values[{k}]" for k in range(batch_n))
        add(f"            buf += _pack_batch({args})")
        add("            return True")
    # -- field loop ------------------------------------------------------
    if stream_dict:
        add("    if instance_dict:")
        add("        i = 0")
        add("        for value in instance_dict.values():")
        body = _encode_field_body(12, materialize)
        lines.extend(body.rstrip("\n").split("\n"))
        add("            i += 1")
    else:
        add("    i = 0")
        add("    while i < count:")
        add("        value = values[i]")
        body = _encode_field_body(8, materialize)
        lines.extend(body.rstrip("\n").split("\n"))
        add("        i += 1")
    add("    return True")
    return "\n".join(lines) + "\n"


def compile_codegen_encode_plan(
    cls: type, registered_name: str
) -> CodegenEncodePlan:
    """Generate the specialized encoder for *cls*.

    On any error the plan comes back with ``encode`` left ``None``, and
    the writer encodes the class through its generic object path.
    """
    epoch = schema_epoch()
    version = class_version(cls)
    try:
        transients = transient_fields(cls)
        mutable = not has_resolve(cls)
        slot_names = tuple(_collect_slot_names(cls))
        stream_dict = not slot_names and not transients
        static_slots = bool(slot_names) and not _instances_have_dict(cls)
        usable_slots = tuple(s for s in slot_names if s not in transients)
        batch_n = len(usable_slots) if static_slots and len(usable_slots) >= 2 else 0
        source = _build_encode_source(
            cls, mutable, slot_names, transients, stream_dict,
            static_slots, batch_n,
        )
        namespace = {
            "_cls": cls,
            "_full_key": (cls, usable_slots),
            "_f64_pack": _F64.pack,
            "_slot_names": slot_names,
            "_transients": transients,
            "_note_encode_bail": _note_encode_bail,
        }
        if batch_n:
            namespace["_pack_batch"] = struct.Struct(">" + "Bd" * batch_n).pack
        code = compile(
            source, f"<nrmi-codegen-encode:{registered_name}>", "exec"
        )
        exec(code, namespace)
    except Exception:
        codegen_metrics.counter("serde.codegen.fallbacks").add()
        return CodegenEncodePlan(version, epoch)
    codegen_metrics.counter("serde.codegen.compiled").add()
    return CodegenEncodePlan(
        version, epoch, namespace["_encode"], namespace["_encode_inner"]
    )


# --------------------------------------------------------------- decode


def _read_name_key_src(target: str, indent: int) -> str:
    """An externalizer name key: a back reference into the stream's name
    table, or 0 and the name inline (``_read_name``)."""
    p = " " * indent
    return (
        _read_uvarint_src("key", indent)
        + f"{p}if key:\n"
        f"{p}    try:\n"
        f"{p}        {target} = names[key - 1]\n"
        f"{p}    except IndexError:\n"
        f"{p}        buf._pos = pos\n"
        f"{p}        raise _WireFormatError(\n"
        f'{p}            f"dangling name id {{key}}"\n'
        f"{p}        ) from None\n"
        f"{p}else:\n"
        f"{p}    buf._pos = pos\n"
        f"{p}    {target} = buf.read_str()\n"
        f"{p}    pos = buf._pos\n"
        f"{p}    names.append({target})\n"
        f"{p}    if names_seen is not None:\n"
        f"{p}        names_seen.add({target})\n"
    )


def _decode_scalar_arms_head(p: str) -> str:
    """The hottest dispatch arms; the builder puts the OBJECT arm right
    after these, ahead of the string/ref/float tail. A two-byte int
    comes first: it carries most of a typical graph's scalars."""
    return (
        f"{p}if {INT2_BASE} <= tag < {INT3_BASE}:\n"
        f"{p}    value = (tag - {INT2_BASE}) << 8 | mv[pos]\n"
        f"{p}    pos += 1\n"
        f"{p}elif tag == {_TAG_INT}:\n"
        + _read_uvarint_src("raw", len(p) + 4)
        + f"{p}    value = (raw >> 1) ^ -(raw & 1)\n"
        f"{p}elif tag == {_TAG_NONE}:\n"
        f"{p}    value = None\n"
    )


def _decode_scalar_arms_tail(p: str) -> str:
    """The remaining scalar dispatch arms (all ``elif``)."""
    return (
        f"{p}elif {INT3_BASE} <= tag < {INT3_END}:\n"
        f"{p}    value = (tag - {INT3_BASE}) << 16 | mv[pos] << 8 | mv[pos + 1]\n"
        f"{p}    pos += 2\n"
        f"{p}elif tag == {_TAG_REF}:\n"
        + _read_uvarint_src("ref", len(p) + 4)
        + f"{p}    try:\n"
        f"{p}        value = handles[ref]\n"
        f"{p}    except IndexError:\n"
        f"{p}        buf._pos = pos\n"
        f'{p}        raise _WireFormatError(f"dangling handle {{ref}}") from None\n'
        f"{p}    if value is _NO_VALUE:\n"
        f"{p}        buf._pos = pos\n"
        f'{p}        raise _WireFormatError(f"forward reference to handle {{ref}}")\n'
        f"{p}elif tag == {_TAG_STR}:\n"
        + _read_uvarint_src("size", len(p) + 4)
        + f"{p}    end = pos + size\n"
        f"{p}    if end > length:\n"
        f"{p}        buf._pos = pos\n"
        f"{p}        raise _WireFormatError(\n"
        f'{p}            f"truncated stream: need {{size}} bytes at offset "\n'
        f'{p}            f"{{pos}}, have {{length - pos}}"\n'
        f"{p}        )\n"
        f'{p}    value = str(mv[pos:end], "utf-8")\n'
        f"{p}    pos = end\n"
        f"{p}    handles.append(value)\n"
        f"{p}elif tag == {_TAG_FLOAT}:\n"
        f"{p}    end = pos + 8\n"
        f"{p}    if end > length:\n"
        f"{p}        buf._pos = pos\n"
        f"{p}        raise _WireFormatError(\n"
        f'{p}            f"truncated stream: need 8 bytes at offset "\n'
        f'{p}            f"{{pos}}, have {{length - pos}}"\n'
        f"{p}        )\n"
        f"{p}    value = _unpack_f64(mv, pos)[0]\n"
        f"{p}    pos = end\n"
        f"{p}elif tag == {_TAG_TRUE}:\n"
        f"{p}    value = True\n"
        f"{p}elif tag == {_TAG_FALSE}:\n"
        f"{p}    value = False\n"
        f"{p}elif tag == {_TAG_BYTES}:\n"
        + _read_uvarint_src("size", len(p) + 4)
        + f"{p}    end = pos + size\n"
        f"{p}    if end > length:\n"
        f"{p}        buf._pos = pos\n"
        f"{p}        raise _WireFormatError(\n"
        f'{p}            f"truncated stream: need {{size}} bytes at offset "\n'
        f'{p}            f"{{pos}}, have {{length - pos}}"\n'
        f"{p}        )\n"
        f"{p}    value = bytes(mv[pos:end])\n"
        f"{p}    pos = end\n"
        f"{p}    handles.append(value)\n"
    )


def _emit_decode_alloc(indent: int, needs_resolve: bool, use_dict: bool) -> str:
    """Shell allocation + handle / linear-map registration.

    ``slot`` is the one position the object needs later: a resolving
    class's handle (the resolved value replaces the shell there); for
    every other class its linear-map position, which only the fused state
    capture reads — ``-1`` without one. A slot definition (``old`` is the
    caller's original, whose handle is bound already) decodes into a
    scratch shell queued on the pending list instead.
    """
    p = " " * indent
    if needs_resolve:
        src = (
            f"{p}shell = _new(_cls)\n"
            f"{p}slot = len(handles)\n"
            f"{p}handles.append(shell)\n"
        )
    else:
        # LinearMap.append_new, inlined: the shell is freshly allocated.
        src = (
            f"{p}shell = _new(_cls)\n"
            f"{p}if old is None:\n"
            f"{p}    handles.append(shell)\n"
            f"{p}    slot = -1 if slot_states is None else len(lm_objects)\n"
            f"{p}    lm_objects.append(shell)\n"
            f"{p}else:\n"
            f"{p}    pending.append((old, shell))\n"
            f"{p}    slot = -1\n"
        )
    if use_dict:
        src += f"{p}field_dict = shell.__dict__\n"
    return src


def _emit_decode_batch(indent: int, batch_n: int) -> str:
    """The float-run unpack batch (static slot layouts only): the layout
    is the class's full slot list and every value is a ``FLOAT``."""
    if not batch_n:
        return ""
    p = " " * indent
    span = 9 * batch_n
    src = (
        f"{p}if fnames == _batch_names and length - pos >= {span}:\n"
        f"{p}    _v = _unpack_batch(mv, pos)\n"
    )
    guard = " and ".join(f"_v[{2 * k}] == {_TAG_FLOAT}" for k in range(batch_n))
    src += f"{p}    if {guard}:\n"
    for k in range(batch_n):
        src += f"{p}        set_field(shell, _batch_names[{k}], _v[{2 * k + 1}])\n"
    src += f"{p}        pos += {span}\n"
    src += f"{p}        i = nf\n"
    return src


def _read_layout_key_src(indent: int) -> list:
    """An object's layout key into ``entry``: a layout of the stream's
    table, or its inline definition (``_read_layout``)."""
    p = " " * indent
    return (
        _read_uvarint_src("lkey", indent)
        + f"{p}if lkey:\n"
        f"{p}    try:\n"
        f"{p}        entry = layouts[lkey - 1]\n"
        f"{p}    except IndexError:\n"
        f"{p}        buf._pos = pos\n"
        f"{p}        raise _WireFormatError(\n"
        f'{p}            f"dangling layout id {{lkey}}"\n'
        f"{p}        ) from None\n"
        f"{p}else:\n"
        f"{p}    buf._pos = pos\n"
        f"{p}    entry = reader._read_layout_def()\n"
        f"{p}    pos = buf._pos\n"
    ).rstrip("\n").split("\n")


def _take_slot_src(indent: int) -> list:
    """A definition of slot ``oslot``: the checks and bookkeeping of the
    reader's ``_take_slot``; the caller's original into ``target``."""
    p = " " * indent
    return [
        f"{p}if oslot >= slot_count or defined[oslot]:",
        f"{p}    buf._pos = pos",
        f"{p}    reader._bad_slot(oslot)",
        f"{p}defined[oslot] = 1",
        f"{p}reader._last_def = oslot",
        f"{p}target = originals[oslot]",
    ]


def _object_dispatch_src(
    target: str, needs_resolve: bool, use_dict: bool, batch_n: int, work_push: str
) -> list:
    """Decode the object whose layout is ``entry``; *target* is the source
    of the slot's original, or ``None`` for a new object. Same class as
    this decoder: suspend the current node and continue iteratively — no
    Python call, no frame churn. Another class: recurse through its
    generated decoder, or park frames for the frame machine."""
    lines = [
        "                    if entry[2] is _plan and entry[1] == wire_version:",
        f"                        work.append({work_push})",
        f"                        old = {target}",
        "                        fnames = entry[3]",
        "                        nf = entry[4]",
        "                        i = 0",
    ]
    lines.extend(
        _emit_decode_alloc(24, needs_resolve, use_dict).rstrip("\n").split("\n")
    )
    if batch_n:
        lines.extend(_emit_decode_batch(24, batch_n).rstrip("\n").split("\n"))
    lines += [
        "                        continue",
        "                    plan2 = entry[2]",
        "                    if (plan2 is not None",
        "                            and plan2.decode_fn is not None",
        f"                            and _depth < {MAX_CODEGEN_DEPTH}):",
        "                        value, pos = plan2.decode_inner(",
        "                            reader, stack, entry[1], _depth + 1,",
        f"                            ctx, pos, entry, {target},",
        "                        )",
        "                        if value is BAIL:",
        "                            _park(reader, stack, base, work, shell,",
        "                                  slot, fnames, i, wire_version, old)",
        "                            return BAIL, pos",
        "                    else:",
        "                        _bails[",
        '                            "decode.uncompiled"',
        "                            if plan2 is None or plan2.decode_fn is None",
        '                            else "decode.depth"',
        "                        ].add()",
        "                        buf._pos = pos",
        f"                        child = reader._spawn_object_frame(entry, {target})",
        "                        _park(reader, stack, base, work, shell,",
        "                              slot, fnames, i, wire_version, old)",
        "                        stack.append(child)",
        "                        return BAIL, pos",
    ]
    return lines


def _build_decode_source(
    needs_resolve: bool,
    upgrade: bool,
    use_dict: bool,
    batch_n: int,
    plain: bool,
) -> str:
    store = (
        "field_dict[fnames[i]] = value"
        if use_dict
        else "set_field(shell, fnames[i], value)"
    )
    # The suspension tuple stays minimal: ``field_dict`` and ``nf`` are
    # recomputed from the shell and the names on resume rather than
    # carried per level.
    work_push = "(shell, slot, fnames, i, nf, old)"
    work_pop = "shell, slot, fnames, i, nf, old"
    park_unpack = "s_shell, s_slot, s_names, s_index, _s_nf, s_old"
    lines = []
    add = lines.append
    # Wrapper: binds the hot-internals tuple once (every member is bound
    # in the reader's __init__ and only mutated in place), then enters
    # the inner function. Generated parents recurse straight into inner
    # functions, threading the cursor as a local — the per-object cost of
    # re-reading ``buf._pos`` and re-unpacking the tuple disappears. The
    # inner function returns ``(value, new_pos)`` and has synced
    # ``buf._pos`` itself on every exit, so the wrapper just unwraps. The
    # caller has read the object's layout key and left the layout entry
    # in ``reader._dispatch_layout``.
    add("def _decode(reader, stack, wire_version, old=None):")
    add("    ctx = reader._codegen_ctx")
    add("    if ctx is None:")
    add("        reader._codegen_ctx = ctx = (")
    add("            reader._buf,")
    # bytes, not the memoryview: indexing a bytes object returns cached
    # small ints measurably faster, and the one-time copy is linear in
    # the payload the decoder is about to walk anyway. When the reader
    # already sits on real bytes (its _raw passthrough), even that copy
    # is skipped.
    add("            reader._buf._raw or bytes(reader._buf._mv),")
    add("            reader._buf._len,")
    add("            reader._handles,")
    add("            reader._names,")
    add("            reader._layouts,")
    add("            reader._set_field,")
    add("            reader._names_seen,")
    add("            reader.linear_map._objects,")
    add("            reader._slot_states,")
    add("            reader._plain_capture,")
    add("            reader._local_externalizers,")
    add("            reader._originals,")
    add("            reader._defined,")
    add("            len(reader._defined),")
    add("            reader.pending,")
    add("        )")
    add("    try:")
    add("        return _decode_inner(")
    add("            reader, stack, wire_version, 0, ctx, ctx[0]._pos,")
    add("            reader._dispatch_layout, old,")
    add("        )[0]")
    add("    except _ResolveError as escaped:")
    add("        raise escaped.error from None")
    add("")
    add("")
    add("def _decode_inner(reader, stack, wire_version, _depth, ctx, pos, layout,")
    add("                  old):")
    add("    (buf, mv, length, handles, names, layouts, set_field,")
    add("     names_seen, lm_objects, slot_states, plain_capture,")
    add("     local_externalizers, originals, defined, slot_count, pending) = ctx")
    add("    base = len(stack)")
    add("    work = []")
    add("    try:")
    lines.extend(
        _emit_decode_alloc(8, needs_resolve, use_dict).rstrip("\n").split("\n")
    )
    add("        fnames = layout[3]")
    add("        nf = layout[4]")
    add("        i = 0")
    if batch_n:
        lines.extend(_emit_decode_batch(8, batch_n).rstrip("\n").split("\n"))
    # Same-class children are unrolled into this loop: the node's locals
    # are pushed onto a lightweight ``work`` list and the loop re-enters
    # with the child's state — one Python frame for the whole homogeneous
    # subgraph, at any depth.
    add("        while True:")
    add("            while i < nf:")
    add("                tag = mv[pos]")
    add("                pos += 1")
    lines.extend(_decode_scalar_arms_head(" " * 16).rstrip("\n").split("\n"))
    # -- nested object (hot in homogeneous graphs, hence dispatched
    # ahead of the string/ref/float tail): a short header names a new
    # object's layout, or the layout of the next slot's definition -------
    add(f"                elif tag >= {SHORT_OBJECT}:")
    add(f"                    if tag < {SHORT_DEFINITION}:")
    add("                        target = None")
    add(f"                        lkey = tag - {SHORT_OBJECT - 1}")
    add("                    else:")
    add("                        oslot = reader._last_def + 1")
    lines.extend(_take_slot_src(24))
    add(f"                        lkey = tag - {SHORT_DEFINITION - 1}")
    add("                    try:")
    add("                        entry = layouts[lkey - 1]")
    add("                    except IndexError:")
    add("                        buf._pos = pos")
    add('                        raise _WireFormatError(f"dangling layout id {lkey}") from None')
    add("                    if target is not None and entry[0] is not target.__class__:")
    add("                        buf._pos = pos")
    add("                        reader._slot_class_mismatch(oslot, entry[0])")
    lines.extend(
        _object_dispatch_src("target", needs_resolve, use_dict, batch_n, work_push)
    )
    # -- the long headers: a layout key, after a definition's slot -------
    add(f"                elif tag == {_TAG_OBJECT} or tag == {_TAG_OLD_OBJECT}:")
    add(f"                    if tag == {_TAG_OBJECT}:")
    add("                        target = None")
    add("                    else:")
    lines.extend(_read_uvarint_src("oslot", 24).rstrip("\n").split("\n"))
    lines.extend(_take_slot_src(24))
    lines.extend(_read_layout_key_src(20))
    add("                    if target is not None and entry[0] is not target.__class__:")
    add("                        buf._pos = pos")
    add("                        reader._slot_class_mismatch(oslot, entry[0])")
    lines.extend(
        _object_dispatch_src("target", needs_resolve, use_dict, batch_n, work_push)
    )
    lines.extend(_decode_scalar_arms_tail(" " * 16).rstrip("\n").split("\n"))
    # -- externals: what _step's arm does, with the same errors ---------
    add(f"                elif tag == {_TAG_EXTERNAL}:")
    lines.extend(_read_name_key_src("ext_name", 20).rstrip("\n").split("\n"))
    lines.extend(_read_uvarint_src("size", 20).rstrip("\n").split("\n"))
    add("                    end = pos + size")
    add("                    if end > length:")
    add("                        buf._pos = pos")
    add("                        raise _WireFormatError(")
    add('                            f"truncated stream: need {size} bytes at offset "')
    add('                            f"{pos}, have {length - pos}"')
    add("                        )")
    add("                    payload = mv[pos:end]")
    add("                    pos = buf._pos = end")
    add("                    ext = local_externalizers.get(ext_name)")
    add("                    if ext is None:")
    add("                        ext = reader.registry.externalizer_named(ext_name)")
    add("                    try:")
    add("                        value = ext.resolve(payload)")
    add("                    except (IndexError, UnicodeDecodeError) as exc:")
    add("                        raise _ResolveError(exc) from None")
    add("                    handles.append(value)")
    # -- anything else: park frames and hand over ------------------------
    add("                else:")
    add("                    _bails[")
    add('                        "decode.container" if tag in _CONTAINER_TAGS')
    add('                        else "decode.other"')
    add("                    ].add()")
    add("                    pos -= 1")
    add("                    buf._pos = pos")
    add("                    _park(reader, stack, base, work, shell,")
    add("                          slot, fnames, i, wire_version, old)")
    add("                    return BAIL, pos")
    add(f"                {store}")
    add("                i += 1")
    # -- node complete ---------------------------------------------------
    if upgrade:
        add("            if wire_version != _version:")
        add("                _apply_upgrade(shell, wire_version)")
    if needs_resolve:
        add("            value = _apply_resolve(shell)")
        add("            handles[slot] = value")
        add("            reader._note_resolved(value)")
    else:
        # Fused state capture (repro.serde.digest.state_capture): a
        # dict-only class's "before" state is its instance dict's keys
        # and values, stored here without the two calls per object. When
        # the fields went straight into the dict and no upgrade hook
        # rewrote it, the keys are the layout's names tuple itself.
        add("            if slot_states is not None:")
        if plain:
            fields = "field_dict" if use_dict else "shell.__dict__"
            shape = "fnames" if use_dict and not upgrade else "tuple(fields)"
            add("                if plain_capture:")
            add(f"                    fields = {fields}")
            add("                    slot_states[slot] = (")
            add(f"                        {shape}, tuple(fields.values())")
            add("                    )")
            add("                else:")
            add("                    reader._capture_slot(slot, shell)")
        else:
            add("                reader._capture_slot(slot, shell)")
        add("            value = shell if old is None else old")
    add("            if work:")
    add(f"                {work_pop} = work.pop()")
    if use_dict:
        add("                field_dict = shell.__dict__")
    add(f"                {store}")
    add("                i += 1")
    add("                continue")
    add("            break")
    add("    except IndexError:")
    add("        buf._pos = min(pos, length)")
    add("        raise _WireFormatError(")
    add('            f"truncated stream: need 1 bytes at offset {length}, have 0"')
    add("        ) from None")
    add("    except UnicodeDecodeError as exc:")
    add("        buf._pos = pos")
    add('        raise _WireFormatError(f"invalid UTF-8 in string: {exc}") from exc')
    add("    buf._pos = pos")
    add("    return value, pos")
    add("")
    add("")
    # Bail helper: a frame in exactly the state the reader's frame machine
    # expects mid-object (the field being decoded at *index*, not yet
    # delivered), so _read_value finishes the object through
    # _step/_deliver.
    add("def _bail_frame(reader, shell, slot, fnames, index, wire_version, old):")
    add("    frame = _Frame(_F_OBJECT, len(fnames) - index)")
    add("    frame.shell = shell")
    add("    frame.old = old")
    add("    frame.names = fnames")
    add("    frame.index = index")
    if needs_resolve:
        add("    frame.handle_slot = slot")
        add("    frame.needs_resolve = True")
    else:
        add("    frame.linear_slot = slot")
    if upgrade:
        add("    if wire_version != _version:")
        add("        frame.wire_version = wire_version")
    add("    return frame")
    add("")
    add("")
    # Park the whole in-flight chain: suspended parents outermost-first
    # below the current node, all below anything a nested callee already
    # parked — the frame machine resumes innermost-first.
    add("def _park(reader, stack, base, work, shell, slot, fnames, index,")
    add("          wire_version, old):")
    add("    frames = []")
    add(f"    for {park_unpack} in work:")
    add("        frames.append(_bail_frame(reader, s_shell, s_slot, s_names,")
    add("                                  s_index, wire_version, s_old))")
    add("    frames.append(_bail_frame(reader, shell, slot, fnames, index,")
    add("                              wire_version, old))")
    add("    stack[base:base] = frames")
    return "\n".join(lines) + "\n"


def compile_codegen_decode_plan(
    cls: type, registered_name: str
) -> CodegenDecodePlan:
    """Generate the specialized decoder for *cls*.

    On any error the plan comes back with ``decode_fn`` left ``None``, and
    the reader's frame machine decodes the class from the plan's facts.
    """
    plan = CodegenDecodePlan(cls, class_version(cls), schema_epoch())
    try:
        from repro.serde.reader import _F_OBJECT, _Frame, _NO_VALUE

        slot_names = _collect_slot_names(cls)
        static_slots = bool(slot_names) and not _instances_have_dict(cls)
        usable_slots = tuple(s for s in slot_names if s not in transient_fields(cls))
        # Static slots rule out an instance dict: batches use set_field.
        batch_n = len(usable_slots) if static_slots and len(usable_slots) >= 2 else 0
        source = _build_decode_source(
            plan.needs_resolve,
            plan.has_upgrade,
            _dict_store_safe(cls),
            batch_n,
            OPTIMIZED_ACCESSOR.dict_only(cls),
        )
        namespace = {
            "_new": object.__new__,
            "_cls": cls,
            "_plan": plan,
            "_version": plan.version,
            "_Frame": _Frame,
            "_F_OBJECT": _F_OBJECT,
            "_NO_VALUE": _NO_VALUE,
            "_WireFormatError": WireFormatError,
            "BAIL": BAIL,
            "_apply_upgrade": apply_upgrade,
            "_apply_resolve": apply_resolve,
            "_unpack_f64": _F64.unpack_from,
            "_ResolveError": _ResolveError,
            "_bails": _BAILS,
            "_CONTAINER_TAGS": _CONTAINER_TAGS,
        }
        if batch_n:
            namespace["_batch_names"] = usable_slots
            namespace["_unpack_batch"] = struct.Struct(">" + "Bd" * batch_n).unpack_from
        code = compile(
            source, f"<nrmi-codegen-decode:{registered_name}>", "exec"
        )
        exec(code, namespace)
    except Exception:
        codegen_metrics.counter("serde.codegen.fallbacks").add()
        return plan
    plan.decode_fn = namespace["_decode"]
    plan.decode_inner = namespace["_decode_inner"]
    codegen_metrics.counter("serde.codegen.compiled").add()
    return plan
