"""exec-specialized per-class encoders and decoders: the modern profile's
serde.

The paper's "optimized" NRMI implementation (Section 5.3.1) wins by
flattening per-field reflection layers into direct access. This module is
the reproduction's analogue: for each registered class it ``exec``-builds
a source function specialized to the class's layout, so the steady-state
hot loop does no per-object reflection —

* field storage is baked in (plain ``__dict__`` stream, unrolled
  ``__slots__`` reads, or the generic mixed path); transient fields,
  linear-map membership (``has_resolve`` classes are value-like and stay
  out) and the first-occurrence class descriptor blob are resolved once;
* scalar fields write/read straight against the buffer's ``bytearray`` /
  ``memoryview`` with literal tag bytes;
* runs of float-valued slots collapse into a single
  ``struct.Struct(...).pack`` / ``unpack_from`` call;
* *nested objects of the same class are unrolled into an iterative
  loop* (a lightweight suspension list, no Python call per node, any
  depth), and nested generated-backed objects of *other* classes recurse
  directly (bounded by :data:`MAX_CODEGEN_DEPTH`), so a tree of objects
  serializes with no per-node stack/frame churn at all;
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

from repro.errors import WireFormatError
from repro.serde.accessors import _collect_slot_names
from repro.serde.hooks import (
    apply_resolve,
    apply_upgrade,
    class_version,
    has_resolve,
    has_upgrade,
    transient_fields,
)
from repro.serde.schema import CKEY_STREAM_BASE, _str_blob, _uvarint, schema_epoch
from repro.serde.tags import Tag
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
#: classes whose function failed to compile (they take the generic path).
codegen_metrics = MetricsRegistry()

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

    ``decode_fn(reader, stack, wire_version)`` returns the decoded object
    or :data:`BAIL`; ``None`` (compile failure) routes the class through
    the reader's frame machine, which builds shells from the facts here.
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
        #: ``decode_inner(reader, stack, wire_version, depth, ctx, pos)``
        #: returning ``(value, pos)`` — the recursion target generated
        #: parents call, threading the buffer cursor as a plain local.
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
    """One field's name + value emission.

    *materialize* is source that (re)builds ``state`` as an indexable
    ``(name, value)`` list before a bail hands leftover fields to the
    writer's work stack — empty when ``state`` already exists.
    """
    p = " " * indent
    mat = ""
    if materialize:
        mat = f"{p}        {materialize}\n"
    mat_deep = ""
    if materialize:
        mat_deep = f"{p}                {materialize}\n"
    return (
        f"{p}name_id = name_ids.get(field_name)\n"
        f"{p}if name_id is None:\n"
        f"{p}    name_ids[field_name] = len(name_ids) + 1\n"
        f"{p}    blob = _name_blobs.get(field_name)\n"
        f"{p}    if blob is None:\n"
        f'{p}        blob = b"\\x00" + _str_blob(field_name)\n'
        f"{p}        _name_blobs[field_name] = blob\n"
        f"{p}    buf += blob\n"
        f"{p}else:\n"
        + _emit_uvarint_src("name_id", indent + 4)
        + f"{p}value_cls = value.__class__\n"
        f"{p}if value is None:\n"
        f"{p}    buf.append({_TAG_NONE})\n"
        f"{p}elif value_cls is int:\n"
        f"{p}    if {_INT64_MIN} <= value <= {_INT64_MAX}:\n"
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
        f"{p}                pending = []\n"
        f"{p}                j = count - 1\n"
        f"{p}                while j > i:\n"
        f"{p}                    later_name, later_value = state[j]\n"
        f"{p}                    pending.append((0, later_value))\n"
        f"{p}                    pending.append((1, later_name))\n"
        f"{p}                    j -= 1\n"
        f"{p}                stack[_base:_base] = pending\n"
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
        f"{mat}"
        f"{p}        j = count - 1\n"
        f"{p}        while j > i:\n"
        f"{p}            later_name, later_value = state[j]\n"
        f"{p}            stack.append((0, later_value))\n"
        f"{p}            stack.append((1, later_name))\n"
        f"{p}            j -= 1\n"
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
    batch_fields: Tuple[str, ...],
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
    add("            writer._class_ids,")
    add("            writer._name_ids,")
    add("            writer._str_memo,")
    add("            writer._bytes_memo,")
    add("            writer._plan_cache,")
    add("            writer._memo_limit,")
    add("        )")
    add("    return _encode_inner(writer, obj, stack, _depth, ctx)")
    add("")
    add("")
    add("def _encode_inner(writer, obj, stack, _depth, ctx):")
    add("    (buf, handles, lm_objects, class_ids, name_ids,")
    add("     str_memo, bytes_memo, plan_cache, memo_limit) = ctx")
    add("    handle = writer._next_handle")
    add("    writer._next_handle = handle + 1")
    add("    handles[id(obj)] = (obj, handle)")
    if mutable:
        # The object just missed the handle table, so it cannot be in the
        # linear map either: LinearMap.append_new, inlined.
        add("    lm_objects.append(obj)")
    # -- state extraction, specialized per layout ------------------------
    if stream_dict:
        add('    instance_dict = getattr(obj, "__dict__", None)')
        add("    count = len(instance_dict) if instance_dict else 0")
        names_expr = "list(instance_dict) if instance_dict else []"
        materialize = "state = list(instance_dict.items())"
    elif static_slots:
        add("    state = []")
        add("    _append = state.append")
        for slot in slot_names:
            if slot in transients:
                continue
            add("    try:")
            add(f"        _append(({slot!r}, obj.{slot}))")
            add("    except AttributeError:")
            add("        pass")
        add("    count = len(state)")
        names_expr = "[n_ for n_, _v in state]"
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
        add("    count = len(state)")
        names_expr = "[n_ for n_, _v in state]"
        materialize = ""
    # -- object header ---------------------------------------------------
    add(f"    buf.append({_TAG_OBJECT})")
    add("    class_id = class_ids.get(_cls)")
    add("    if class_id is None:")
    add("        class_ids[_cls] = len(class_ids) + 1")
    add("        if writer._schema_tx is None:")
    add("            buf += _class_blob")
    add("        else:")
    add("            writer._emit_schema_class(")
    add(f"                _cls, _version, _class_blob, _rname, {names_expr}")
    add("            )")
    add("    else:")
    add("        class_id += writer._class_key_offset")
    lines.extend(_emit_uvarint_src("class_id", 8).rstrip("\n").split("\n"))
    add("    value = count")
    lines.extend(_emit_uvarint_src("value", 4).rstrip("\n").split("\n"))
    # -- float-run batch (static slot layouts only) ----------------------
    if batch_fields:
        n = len(batch_fields)
        add(f"    if count == {n}:")
        for k, field in enumerate(batch_fields):
            add(f"        nid_{k} = name_ids.get({field!r})")
            add(f"        v_{k} = state[{k}][1]")
        guard = " and ".join(
            f"nid_{k} is not None and nid_{k} < 128 "
            f"and v_{k}.__class__ is float"
            for k in range(n)
        )
        add(f"        if {guard}:")
        args = ", ".join(f"nid_{k}, {_TAG_FLOAT}, v_{k}" for k in range(n))
        add(f"            buf += _pack_batch({args})")
        add("            return True")
    # -- field loop ------------------------------------------------------
    if stream_dict:
        add("    if count:")
        add("        i = 0")
        add("        for field_name, value in instance_dict.items():")
        body = _encode_field_body(12, materialize)
        lines.extend(body.rstrip("\n").split("\n"))
        add("            i += 1")
    else:
        add("    i = 0")
        add("    while i < count:")
        add("        field_name, value = state[i]")
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
        batch_fields = usable_slots if static_slots and len(usable_slots) >= 2 else ()
        class_blob = b"\x00" + _str_blob(registered_name) + _uvarint(version)
        source = _build_encode_source(
            cls, mutable, slot_names, transients, stream_dict,
            static_slots, batch_fields,
        )
        namespace = {
            "_cls": cls,
            "_class_blob": class_blob,
            "_rname": registered_name,
            "_version": version,
            "_name_blobs": {},
            "_str_blob": _str_blob,
            "_f64_pack": _F64.pack,
            "_slot_names": slot_names,
            "_transients": transients,
        }
        if batch_fields:
            namespace["_pack_batch"] = struct.Struct(
                ">" + "BBd" * len(batch_fields)
            ).pack
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


def _decode_scalar_arms_head(p: str) -> str:
    """The hottest dispatch arms; the builder puts the OBJECT arm right
    after these, ahead of the string/ref/float tail."""
    return (
        f"{p}if tag == {_TAG_INT}:\n"
        + _read_uvarint_src("raw", len(p) + 4)
        + f"{p}    value = (raw >> 1) ^ -(raw & 1)\n"
        f"{p}elif tag == {_TAG_NONE}:\n"
        f"{p}    value = None\n"
    )


def _decode_scalar_arms_tail(p: str) -> str:
    """The remaining scalar dispatch arms (all ``elif``)."""
    return (
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
    """Shell allocation + handle / linear-map registration."""
    p = " " * indent
    src = (
        f"{p}shell = _new(_cls)\n"
        f"{p}handle_slot = len(handles)\n"
        f"{p}handles.append(shell)\n"
    )
    if needs_resolve:
        src += f"{p}slot = -1\n"
    else:
        # LinearMap.append_new, inlined: the shell is freshly allocated.
        src += (
            f"{p}slot = len(lm_objects)\n"
            f"{p}lm_objects.append(shell)\n"
        )
    if use_dict:
        src += f"{p}field_dict = shell.__dict__\n"
    return src


def _emit_decode_batch(indent: int, batch_n: int) -> str:
    """The float-run unpack batch (static slot layouts only)."""
    if not batch_n:
        return ""
    p = " " * indent
    span = 10 * batch_n
    src = (
        f"{p}if count == {batch_n} and length - pos >= {span}:\n"
        f"{p}    _v = _unpack_batch(mv, pos)\n"
        f"{p}    nlen = len(names)\n"
    )
    guard = " and ".join(
        f"_v[{3 * k + 1}] == {_TAG_FLOAT} and 0 < _v[{3 * k}] < 128 "
        f"and _v[{3 * k}] <= nlen"
        for k in range(batch_n)
    )
    src += f"{p}    if {guard}:\n"
    for k in range(batch_n):
        src += (
            f"{p}        set_field(shell, names[_v[{3 * k}] - 1], "
            f"_v[{3 * k + 2}])\n"
        )
    src += f"{p}        pos += {span}\n"
    src += f"{p}        count = 0\n"
    return src


def _build_decode_source(
    needs_resolve: bool,
    upgrade: bool,
    use_dict: bool,
    batch_n: int,
) -> str:
    store = (
        "field_dict[name] = value" if use_dict else "set_field(shell, name, value)"
    )
    # The suspension tuple stays minimal: ``field_dict`` is recomputed
    # from the shell on resume rather than carried per level.
    work_push = "(shell, handle_slot, slot, name, count)"
    work_pop = "shell, handle_slot, slot, name, count"
    park_unpack = "s_shell, s_hs, s_slot, s_name, s_count"
    lines = []
    add = lines.append
    # Wrapper: binds the hot-internals tuple once (every member is bound
    # in the reader's __init__ and only mutated in place), then enters
    # the inner function. Generated parents recurse straight into inner
    # functions, threading the cursor as a local — the per-object cost of
    # re-reading ``buf._pos`` and re-unpacking the tuple disappears. The
    # inner function returns ``(value, new_pos)`` and has synced
    # ``buf._pos`` itself on every exit, so the wrapper just unwraps.
    add("def _decode(reader, stack, wire_version, _depth=0):")
    add("    ctx = reader._codegen_ctx")
    add("    if ctx is None:")
    add("        reader._codegen_ctx = ctx = (")
    add("            reader._buf,")
    # bytes, not the memoryview: indexing a bytes object returns cached
    # small ints measurably faster, and the one-time copy is linear in
    # the payload the decoder is about to walk anyway. When the reader
    # already sits on real bytes (its _raw passthrough), even that copy
    # is skipped — the borrowed-ring path instead lands here with a
    # memoryview and pays the copy knowingly (leaf values must not
    # alias ring memory anyway).
    add("            reader._buf._raw or bytes(reader._buf._mv),")
    add("            reader._buf._len,")
    add("            reader._handles,")
    add("            reader._names,")
    add("            reader._classes,")
    add("            reader._set_field,")
    add("            reader._schema_rx,")
    add("            reader._names_seen,")
    add("            reader.linear_map._objects,")
    add("            reader._digest_accessor is not None,")
    add("        )")
    add("    return _decode_inner(")
    add("        reader, stack, wire_version, _depth, ctx, ctx[0]._pos")
    add("    )[0]")
    add("")
    add("")
    add("def _decode_inner(reader, stack, wire_version, _depth, ctx, pos):")
    add("    (buf, mv, length, handles, names, classes, set_field,")
    add("     schema_rx, names_seen, lm_objects, capture) = ctx")
    add("    base = len(stack)")
    add("    work = []")
    add("    try:")
    lines.extend(_read_uvarint_src("count", 8).rstrip("\n").split("\n"))
    lines.extend(
        _emit_decode_alloc(8, needs_resolve, use_dict).rstrip("\n").split("\n")
    )
    if batch_n:
        lines.extend(_emit_decode_batch(8, batch_n).rstrip("\n").split("\n"))
    # Same-class children are unrolled into this loop: the node's locals
    # are pushed onto a lightweight ``work`` list and the loop re-enters
    # with the child's state — one Python frame for the whole homogeneous
    # subgraph, at any depth.
    add("        while True:")
    add("            while count:")
    lines.extend(_read_uvarint_src("key", 16).rstrip("\n").split("\n"))
    add("                if key:")
    add("                    try:")
    add("                        name = names[key - 1]")
    add("                    except IndexError:")
    add("                        buf._pos = pos")
    add("                        raise _WireFormatError(")
    add('                            f"dangling name id {key}"')
    add("                        ) from None")
    add("                else:")
    add("                    buf._pos = pos")
    add("                    name = buf.read_str()")
    add("                    pos = buf._pos")
    add("                    names.append(name)")
    add("                    if names_seen is not None:")
    add("                        names_seen.add(name)")
    add("                tag = mv[pos]")
    add("                pos += 1")
    lines.extend(_decode_scalar_arms_head(" " * 16).rstrip("\n").split("\n"))
    # -- nested object (hot in homogeneous graphs, hence dispatched
    # ahead of the string/ref/float tail) --------------------------------
    add(f"                elif tag == {_TAG_OBJECT}:")
    lines.extend(_read_uvarint_src("ckey", 20).rstrip("\n").split("\n"))
    add("                    if schema_rx is None:")
    add("                        if ckey:")
    add("                            try:")
    add("                                entry = classes[ckey - 1]")
    add("                            except IndexError:")
    add("                                buf._pos = pos")
    add("                                raise _WireFormatError(")
    add('                                    f"dangling class id {ckey}"')
    add("                                ) from None")
    add("                        else:")
    add("                            buf._pos = pos")
    add("                            entry = reader._read_inline_class()")
    add("                            pos = buf._pos")
    add("                    elif ckey >= _CKEY_STREAM_BASE:")
    add("                        try:")
    add("                            entry = classes[ckey - _CKEY_STREAM_BASE]")
    add("                        except IndexError:")
    add("                            buf._pos = pos")
    add("                            raise _WireFormatError(")
    add('                                f"dangling class id {ckey}"')
    add("                            ) from None")
    add("                    else:")
    add("                        buf._pos = pos")
    add("                        entry = reader._read_schema_class_key(ckey)")
    add("                        pos = buf._pos")
    # Same class as this decoder: suspend the current node and continue
    # iteratively — no Python call, no frame churn.
    add("                    if entry[2] is _plan and entry[1] == wire_version:")
    lines.extend(_read_uvarint_src("count2", 24).rstrip("\n").split("\n"))
    add(f"                        work.append({work_push})")
    add("                        count = count2")
    lines.extend(
        _emit_decode_alloc(24, needs_resolve, use_dict).rstrip("\n").split("\n")
    )
    if batch_n:
        lines.extend(
            _emit_decode_batch(24, batch_n).rstrip("\n").split("\n")
        )
    add("                        continue")
    # Different class: recurse through the child's generated decoder.
    add("                    plan2 = entry[2]")
    add("                    if (plan2 is not None")
    add("                            and plan2.decode_fn is not None")
    add(f"                            and _depth < {MAX_CODEGEN_DEPTH}):")
    add("                        value, pos = plan2.decode_inner(")
    add("                            reader, stack, entry[1], _depth + 1,")
    add("                            ctx, pos,")
    add("                        )")
    add("                        if value is BAIL:")
    add("                            _park(reader, stack, base, work, shell,")
    add("                                  handle_slot, slot, name, count,")
    add("                                  wire_version)")
    add("                            return BAIL, pos")
    add("                    else:")
    lines.extend(_read_uvarint_src("count2", 24).rstrip("\n").split("\n"))
    add("                        buf._pos = pos")
    add("                        child = reader._spawn_object_frame(")
    add("                            entry, count2")
    add("                        )")
    add("                        _park(reader, stack, base, work, shell,")
    add("                              handle_slot, slot, name, count,")
    add("                              wire_version)")
    add("                        stack.append(child)")
    add("                        return BAIL, pos")
    lines.extend(_decode_scalar_arms_tail(" " * 16).rstrip("\n").split("\n"))
    # -- anything else: park frames and hand over ------------------------
    add("                else:")
    add("                    pos -= 1")
    add("                    buf._pos = pos")
    add("                    _park(reader, stack, base, work, shell,")
    add("                          handle_slot, slot, name, count,")
    add("                          wire_version)")
    add("                    return BAIL, pos")
    add(f"                {store}")
    add("                count -= 1")
    # -- node complete ---------------------------------------------------
    if upgrade:
        add("            if wire_version != _version:")
        add("                _apply_upgrade(shell, wire_version)")
    if needs_resolve:
        add("            value = _apply_resolve(shell)")
        add("            handles[handle_slot] = value")
        add("            reader._note_resolved(value)")
    else:
        add("            if capture:")
        add("                reader._capture_slot(slot, shell)")
        add("            value = shell")
    add("            if work:")
    add(f"                {work_pop} = work.pop()")
    if use_dict:
        add("                field_dict = shell.__dict__")
    add(f"                {store}")
    add("                count -= 1")
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
    # expects mid-object (current field's name parked, count not yet
    # decremented), so _read_value finishes the object through
    # _step/_deliver.
    add("def _bail_frame(reader, shell, handle_slot, slot, name, remaining,")
    add("                wire_version):")
    add("    frame = _Frame(_F_OBJECT, remaining)")
    add("    frame.shell = shell")
    add("    frame.handle_slot = handle_slot")
    add("    frame.pending_name = name")
    if needs_resolve:
        add("    frame.needs_resolve = True")
    else:
        add("    if reader._digest_accessor is not None:")
        add("        frame.linear_slot = slot")
    if upgrade:
        add("    if wire_version != _version:")
        add("        frame.wire_version = wire_version")
    add("    return frame")
    add("")
    add("")
    # Park the whole in-flight chain: suspended parents outermost-first
    # below the current node, all below anything a nested callee already
    # parked — the frame machine resumes innermost-first.
    add("def _park(reader, stack, base, work, shell, handle_slot, slot, name,")
    add("          count, wire_version):")
    add("    frames = []")
    add(f"    for {park_unpack} in work:")
    add("        frames.append(_bail_frame(reader, s_shell, s_hs, s_slot,")
    add("                                  s_name, s_count, wire_version))")
    add("    frames.append(_bail_frame(reader, shell, handle_slot, slot, name,")
    add("                              count, wire_version))")
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
        usable_slots = [s for s in slot_names if s not in transient_fields(cls)]
        # Static slots rule out an instance dict: batches use set_field.
        batch_n = len(usable_slots) if static_slots and len(usable_slots) >= 2 else 0
        source = _build_decode_source(
            plan.needs_resolve, plan.has_upgrade, _dict_store_safe(cls), batch_n
        )
        namespace = {
            "_new": object.__new__,
            "_cls": cls,
            "_plan": plan,
            "_version": plan.version,
            "_Frame": _Frame,
            "_F_OBJECT": _F_OBJECT,
            "_NO_VALUE": _NO_VALUE,
            "_CKEY_STREAM_BASE": CKEY_STREAM_BASE,
            "_WireFormatError": WireFormatError,
            "BAIL": BAIL,
            "_apply_upgrade": apply_upgrade,
            "_apply_resolve": apply_resolve,
            "_unpack_f64": _F64.unpack_from,
        }
        if batch_n:
            namespace["_unpack_batch"] = struct.Struct(
                ">" + "BBd" * batch_n
            ).unpack_from
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
