"""The encoder: serializes object graphs into the NRMI wire format.

The writer is **iterative** (explicit work stack) so arbitrarily deep
structures — a 100 000-node linked list, a degenerate tree — serialize
without touching the interpreter recursion limit. The traversal is
pre-order; the decoder replays the same order, which is what keeps the two
endpoints' handle tables (and therefore linear maps) index-aligned.

Profiles select the implementation, not the format:

* the **legacy** profile routes every byte through the chunk-list buffer
  that models JDK 1.3's allocation-heavy stream layer and re-derives all
  per-object facts reflectively;
* the **modern** profile writes into a single pooled ``bytearray`` and
  dispatches registered classes through generated per-class encoders
  (:mod:`repro.serde.codegen`) — same bytes, a fraction of the work. A
  class whose encoder failed to compile takes the generic object path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import NotSerializableError, SerializationError
from repro.serde.hooks import (
    apply_replace,
    class_version,
    has_replace,
    has_resolve,
    transient_fields,
)
from repro.serde.kinds import Kind, classify
from repro.serde.linear_map import LinearMap
from repro.serde.profiles import MODERN_PROFILE, SerializationProfile
from repro.serde.registry import ClassRegistry, global_registry
from repro.serde.schema import (
    CKEY_SCHEMA_REF,
    CKEY_STREAM_BASE,
    STREAM_FLAG_SCHEMA_CACHE,
    SchemaTxCache,
)
from repro.serde.tags import (
    INT2_BASE,
    INT2_LIMIT,
    INT3_BASE,
    INT3_LIMIT,
    SHORT_DEFINITION,
    SHORT_LAYOUTS,
    SHORT_OBJECT,
    STREAM_FLAG_SLOTS,
    Tag,
    WIRE_MAGIC,
    WIRE_VERSION,
)
from repro.util.buffers import BufferWriter, ChunkedBufferWriter
from repro.util.identity import IdentityMap

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# Work-stack task opcodes.
_EMIT_VALUE = 0
_EMIT_ITEMS = 1  # payload: iterator over the rest of a list's elements

# A plain int for the per-element loop (enum attribute access is not free).
_TAG_REF = int(Tag.REF)

# Exact scalar types _emit_primitive writes without touching the work stack.
_LEAF_TYPES = frozenset({int, float, complex, str, bytes})

_MISSING = object()

#: Default cap on the writer's string/bytes value memos. Memoization keeps
#: equal strings shared on the wire; the cap bounds memory for long-lived
#: writers streaming many distinct values. Past the cap, values are written
#: in full again — byte streams stay decodable, only dedup stops.
DEFAULT_MEMO_LIMIT = 4096


class ObjectWriter:
    """Serializes one or more root values into a single stream.

    All roots written through one ``ObjectWriter`` share one handle table,
    so aliasing *across* the parameters of a remote call is preserved — the
    property Section 4.1 of the paper calls out as wrongly believed
    impossible for copy-restore middleware.

    *buffer* lets callers (the invocation pipeline) supply recycled
    ``bytearray`` storage from a :class:`repro.util.buffers.BufferPool`;
    it is ignored for profiles that use the chunked legacy buffer.

    *slots* makes the stream a reply's slot stream: the server's copies
    of the caller's retained objects, which take handles ``0 … n-1``.
    The slots named in *defined* (increasing slot numbers; every slot
    when ``None``) are defined the first time the writer meets them
    (``OLD_OBJECT``, its short form, or ``OLD_CONTAINER``); the others
    are bound from the start, so every reference to them is a back
    reference. :meth:`write_slots` writes
    the defined slots the roots did not reach. *slots* holds each object
    once and stays alive while the writer runs.
    """

    def __init__(
        self,
        profile: SerializationProfile = MODERN_PROFILE,
        registry: Optional[ClassRegistry] = None,
        externalizers: Tuple = (),
        collect_stats: bool = False,
        buffer: Optional[bytearray] = None,
        memo_limit: int = DEFAULT_MEMO_LIMIT,
        schema_tx: Optional[SchemaTxCache] = None,
        slots: Optional[List[Any]] = None,
        defined: Optional[List[int]] = None,
    ) -> None:
        self.profile = profile
        self.registry = registry if registry is not None else global_registry
        self._local_externalizers = tuple(externalizers)
        #: Optional per-tag value counts (opt-in: costs one dict update
        #: per encoded value, so benchmarks leave it off).
        self.stats: Optional[Dict[str, int]] = {} if collect_stats else None
        self.linear_map = LinearMap()
        if profile.chunked_buffers:
            self._buf = ChunkedBufferWriter()
        else:
            self._buf = BufferWriter(buffer)
        self._handles: IdentityMap[int] = IdentityMap()
        self._str_memo: Dict[str, int] = {}
        self._bytes_memo: Dict[bytes, int] = {}
        self._memo_limit = memo_limit
        self._next_handle = 0
        self._class_ids: Dict[type, int] = {}
        self._name_ids: Dict[str, int] = {}
        #: ``(class, field names in write order)`` → layout key.
        self._layout_ids: Dict[Tuple[type, Tuple[str, ...]], int] = {}
        # writeReplace cache: sharing survives the swap.
        self._replacements: IdentityMap[Any] = IdentityMap()
        self._root_count = 0
        # Lazily-built tuple of hot internals (buffer storage, handle/memo
        # tables, linear-map internals) bound in one load by generated
        # encoders (repro.serde.codegen). Invalidated whenever any member
        # is *rebound* (discard); in-place mutation keeps it valid.
        self._codegen_ctx: Optional[tuple] = None
        # Generated-encoder fast path. Requires the generated code's baked-in
        # assumptions to hold: interned descriptors, no per-object
        # validation pass, and stats collection off (the fast path skips
        # per-value counting).
        if (
            profile.use_compiled_plans
            and profile.intern_descriptors
            and not profile.per_object_validation
            and self.stats is None
        ):
            self._plan_cache: Optional[Dict[type, Any]] = {}
        else:
            self._plan_cache = None
        # Per-class externalizer-claim cache, valid only while every
        # externalizer in play (writer-local and registry) declares its
        # claim a pure function of type.
        if self._plan_cache is not None and all(
            ext.type_based
            for ext in self._local_externalizers + self.registry.externalizers()
        ):
            self._ext_cache: Optional[Dict[type, Any]] = {}
        else:
            self._ext_cache = None
        # Session schema cache (repro.serde.schema): only engaged when the
        # generated-encoder pipeline is fully on — generated encoders are
        # where schema keys are emitted. On other configurations the stream goes
        # out unflagged and byte-identical to a session-less writer.
        if schema_tx is not None and self._ext_cache is not None:
            self._schema_tx: Optional[SchemaTxCache] = schema_tx
            self._class_key_offset = CKEY_STREAM_BASE - 1
        else:
            self._schema_tx = None
            self._class_key_offset = 0
        #: Schema definitions this stream carries (the caller confirms them
        #: once the peer provably decoded this stream).
        self.schemas_defined: List[Any] = []
        flags = STREAM_FLAG_SCHEMA_CACHE if self._schema_tx is not None else 0
        #: ``id(slot object) → slot`` for the slots this stream defines
        #: and has not met yet, in slot order.
        self._defs: Optional[Dict[int, int]] = None
        #: The slot of the stream's previous definition (-1 before the
        #: first), shared by the generic and the generated paths.
        self._last_def = -1
        if slots is not None:
            flags |= STREAM_FLAG_SLOTS
            self._bind_slots(slots, defined)
        self._buf.write_bytes(WIRE_MAGIC)
        self._buf.write_u8(WIRE_VERSION)
        self._buf.write_u8(flags)
        if slots is not None:
            self._buf.write_uvarint(len(slots))
            self._buf.write_uvarint(len(self._defs))

    # ------------------------------------------------------------------ API

    def write_root(self, value: Any) -> None:
        """Serialize one root value (appended after any previous roots).

        The linear-map positions first reached under *value* are recorded
        as its span (:attr:`LinearMap.spans`).
        """
        linear_map = self.linear_map
        start = len(linear_map)
        self._write_value(value)
        linear_map.close_span(value, start)
        self._root_count += 1

    def write_slots(self) -> None:
        """Write, as roots in slot order, every slot this stream defines
        and has not met yet. A definition owns no linear-map position, so
        these roots record no span."""
        defs = self._defs
        slots = self._slots
        write = self._write_value
        while defs:
            key = next(iter(defs))
            write(slots[defs[key]])
            if key in defs:
                # Its class's __nrmi_replace__ wrote a stand-in instead.
                raise SerializationError(f"slot {defs[key]} cannot be defined")

    @property
    def root_count(self) -> int:
        return self._root_count

    @property
    def bytes_written(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return self._buf.getvalue()

    def view(self) -> memoryview:
        """Zero-copy view of the stream (see ``BufferWriter.view``)."""
        return self._buf.view()

    def reset_memos(self) -> None:
        """Drop the string/bytes value memos (not the object handle table).

        Long-lived writers encoding many independent roots — e.g. a batch
        pipeline reusing one writer across entries — call this between
        roots to stop memo state accumulating across logically separate
        payloads. Streams written after a reset stay fully decodable.
        """
        self._str_memo.clear()
        self._bytes_memo.clear()

    def discard(self, pool: Optional[Any] = None, buffer: Optional[bytearray] = None) -> None:
        """Abandon a failed encode, returning pooled storage to *pool*.

        The error-path counterpart of the normal send-then-release flow:
        when marshalling raises mid-stream (an unregistered argument, an
        externalizer failure), the half-written pooled *buffer* and the
        writer's memo tables would otherwise leak until the garbage
        collector got around to them — under a chaos run injecting encode
        faults every call, that starves the pool. Clears the memo/handle
        state so the pinned objects are dropped immediately, then hands
        the buffer back.
        """
        self._str_memo.clear()
        self._bytes_memo.clear()
        self._handles = IdentityMap()
        self.linear_map = LinearMap()
        self._replacements = IdentityMap()
        self._codegen_ctx = None
        if pool is not None:
            pool.release(buffer)

    # ------------------------------------------------------------ internals

    def _bind_slots(self, slots: List[Any], defined: Optional[List[int]]) -> None:
        count = len(slots)
        self._slots = slots
        self._next_handle = count
        if defined is None:
            self._defs = dict(zip(map(id, slots), range(count)))
            return
        entries = self._handles._entries
        entries.update(zip(map(id, slots), zip(slots, range(count))))
        defs = self._defs = {}
        for slot in defined:
            key = id(slots[slot])
            del entries[key]
            defs[key] = slot

    def _take_handle(self, obj: Any) -> int:
        """Allocate *obj*'s handle and return -1 — or, for a slot this
        stream defines, bind the slot and return it."""
        defs = self._defs
        if defs and id(obj) in defs:
            slot = defs.pop(id(obj))
            self._handles[obj] = slot
            return slot
        self._alloc_handle(obj, mutable=True)
        return -1

    def _open_mutable(self, obj: Any, tag: int) -> None:
        """Allocate a container's handle and write its tag — or, for a
        slot this stream defines, its definition header first."""
        slot = self._take_handle(obj)
        if slot >= 0:
            self._last_def = slot
            self._buf.write_u8(Tag.OLD_CONTAINER)
            self._buf.write_uvarint(slot)
        self._buf.write_u8(tag)

    def _alloc_handle(self, obj: Any, mutable: bool) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._handles[obj] = handle
        if mutable:
            # Callers allocate only on a handle-table miss, so the object
            # cannot be in the map yet.
            self.linear_map.append_new(obj)
        return handle

    def _write_object_header(
        self, key: Tuple[type, Tuple[str, ...]], slot: int = -1
    ) -> None:
        """Write an object's header: for a new object (*slot* -1) or the
        definition of *slot*, its tag and its layout key. *key* is
        ``(class, field names in write order)``. A layout already in the
        stream's table among its first ``SHORT_LAYOUTS`` takes the short
        one-byte form, a definition only when *slot* follows the stream's
        previous one. Otherwise the long form: ``OBJECT``, or
        ``OLD_OBJECT`` and the slot, then a back reference into the
        layout table, or 0 and the layout's definition — class key, field
        count, one name key per field. Writers that intern no descriptors
        define every layout inline."""
        buf = self._buf
        layout_id = self._layout_ids.get(key)
        short = layout_id is not None and layout_id <= SHORT_LAYOUTS
        if slot >= 0:
            last = self._last_def
            self._last_def = slot
            if short and slot == last + 1:
                buf.write_u8(SHORT_DEFINITION - 1 + layout_id)
                return
            buf.write_u8(Tag.OLD_OBJECT)
            buf.write_uvarint(slot)
        elif short:
            buf.write_u8(SHORT_OBJECT - 1 + layout_id)
            return
        else:
            buf.write_u8(Tag.OBJECT)
        if layout_id is not None:
            buf.write_uvarint(layout_id)
            return
        if self.profile.intern_descriptors:
            self._layout_ids[key] = len(self._layout_ids) + 1
        cls, names = key
        buf.write_uvarint(0)
        self._write_class_key(cls, names)
        buf.write_uvarint(len(names))
        for name in names:
            self._write_name_key(name)

    def _write_class_key(self, cls: type, field_names: Tuple[str, ...]) -> None:
        """Write a class reference: interned id, or its first occurrence
        (0 + name + version; on a schema-mode stream, a schema key)."""
        if self.profile.intern_descriptors:
            class_id = self._class_ids.get(cls)
            if class_id is not None:
                # Schema-mode streams shift back references past the
                # def/ref discriminators (CKEY_STREAM_BASE); offset is 0
                # on classic streams.
                self._buf.write_uvarint(class_id + self._class_key_offset)
                return
            self._class_ids[cls] = len(self._class_ids) + 1
        name = self.registry.name_of(cls)
        version = class_version(cls)
        entry = None
        if self._schema_tx is not None:
            # None once the schema id space is exhausted: inline form.
            entry = self._schema_tx.lookup(cls, version, name, field_names)
        buf = self._buf
        if entry is None:
            buf.write_uvarint(0)
            buf.write_str(name)
            buf.write_uvarint(version)
            return
        # A reference when the peer provably holds the definition, the
        # (re)definition while confirmation is pending.
        if entry.confirmed:
            buf.write_uvarint(CKEY_SCHEMA_REF)
            buf.write_uvarint(entry.schema_id)
        else:
            buf.write_bytes(entry.def_blob)
            self.schemas_defined.append(entry)
        # Either form seeds the per-stream field-name table (the reader
        # mirrors this), so the layout's name keys are back references.
        name_ids = self._name_ids
        for field_name in entry.field_names:
            if field_name not in name_ids:
                name_ids[field_name] = len(name_ids) + 1

    def _write_name_key(self, name: str) -> None:
        """Write a field/externalizer name: interned id, or 0 + inline str."""
        if self.profile.intern_descriptors:
            name_id = self._name_ids.get(name)
            if name_id is not None:
                self._buf.write_uvarint(name_id)
                return
            self._name_ids[name] = len(self._name_ids) + 1
        self._buf.write_uvarint(0)
        self._buf.write_str(name)

    def _validate_object(self, obj: Any, state: List[Tuple[str, Any]]) -> None:
        """Legacy-profile per-object pass (models JDK 1.3 security checks)."""
        seen = set()
        for field_name, _value in state:
            if field_name in seen:
                raise SerializationError(
                    f"duplicate field {field_name!r} on {type(obj).__name__}"
                )
            seen.add(field_name)
        # The legacy stack also re-verifies registration on every object.
        self.registry.name_of(type(obj))

    def _count(self, label: str) -> None:
        if self.stats is not None:
            self.stats[label] = self.stats.get(label, 0) + 1

    def _write_value(self, root: Any) -> None:
        buf = self._buf
        plan_cache = self._plan_cache
        handles = self._handles
        stack: List[Tuple[int, Any]] = [(_EMIT_VALUE, root)]
        while stack:
            opcode, payload = stack.pop()
            if opcode == _EMIT_ITEMS:
                self._emit_list_items(payload, stack)
                continue
            obj = payload
            if self.stats is not None:
                self._count(type(obj).__name__)
            # --- scalars ------------------------------------------------
            if obj is None:
                buf.write_u8(Tag.NONE)
                continue
            if obj is True:
                buf.write_u8(Tag.TRUE)
                continue
            if obj is False:
                buf.write_u8(Tag.FALSE)
                continue
            # --- generated-encoder fast path -----------------------------
            # Classes land in the cache only after the generic path has
            # proven them plan-safe (registered object kind, no replace
            # hook, no externalizer claim), so dispatching here is exact.
            if plan_cache is not None:
                plan = plan_cache.get(obj.__class__)
                if plan is not None:
                    handle = handles.get(obj)
                    if handle is not None:
                        buf.write_u8(Tag.REF)
                        buf.write_uvarint(handle)
                        continue
                    plan.encode(self, obj, stack)
                    continue
            kind = classify(obj)
            if kind is Kind.OBJECT and has_replace(obj):
                # writeReplace analogue: serialize the designated stand-in.
                # Cached per identity so sharing survives the swap.
                replacement = self._replacements.get(obj)
                if replacement is None:
                    replacement = apply_replace(obj)
                    self._replacements[obj] = replacement
                stack.append((_EMIT_VALUE, replacement))
                continue
            if kind is Kind.PRIMITIVE:
                self._emit_primitive(obj)
                continue
            # --- memoized identities -------------------------------------
            handle = handles.get(obj)
            if handle is not None:
                buf.write_u8(Tag.REF)
                buf.write_uvarint(handle)
                continue
            if kind is Kind.LIST:
                self._open_mutable(obj, Tag.LIST)
                buf.write_uvarint(len(obj))
                if plan_cache is not None:
                    # A snapshot: hooks run between elements and may
                    # resize the list the count above was taken from.
                    self._emit_list_items(iter(tuple(obj)), stack)
                else:
                    stack.extend((_EMIT_VALUE, item) for item in reversed(obj))
            elif kind is Kind.TUPLE:
                self._alloc_handle(obj, mutable=False)
                buf.write_u8(Tag.TUPLE)
                buf.write_uvarint(len(obj))
                stack.extend((_EMIT_VALUE, item) for item in reversed(obj))
            elif kind is Kind.SET or kind is Kind.FROZENSET:
                if kind is Kind.SET:
                    self._open_mutable(obj, Tag.SET)
                else:
                    self._alloc_handle(obj, mutable=False)
                    buf.write_u8(Tag.FROZENSET)
                items = list(obj)
                buf.write_uvarint(len(items))
                stack.extend((_EMIT_VALUE, item) for item in reversed(items))
            elif kind is Kind.DICT:
                self._open_mutable(obj, Tag.DICT)
                buf.write_uvarint(len(obj))
                for key, value in reversed(list(obj.items())):
                    stack.append((_EMIT_VALUE, value))
                    stack.append((_EMIT_VALUE, key))
            elif kind is Kind.BYTEARRAY:
                self._open_mutable(obj, Tag.BYTEARRAY)
                buf.write_len_bytes(bytes(obj))
            elif kind is Kind.OBJECT:
                self._emit_object(obj, stack)
            else:
                # Unsupported shapes get one last chance: a value adapter
                # (datetime, Decimal, UUID, application-registered types).
                ext = self._find_externalizer(obj)
                if ext is None:
                    raise NotSerializableError(
                        obj, path=self._describe_context(stack)
                    )
                self._emit_external(obj, ext)
        # stack drained: root fully written

    def _emit_list_items(self, items: Iterator[Any], stack: List[Tuple[int, Any]]) -> None:
        """Write list elements straight off *items* while they need no
        generic work: scalars, back references to plan-backed objects
        already written — every element of the retained-map root of a
        ``full`` reply after its first — and other plan-backed objects,
        through their generated encoder (the dirty slots of a delta
        reply). An element of any other shape goes to the generic loop
        with the iterator parked beneath it, to resume here once that
        element's subtree is out: pre-order, and therefore bytes, are
        those of one ``(_EMIT_VALUE, item)`` task per element.
        Compiled-plan writers only (``_plan_cache`` says which classes
        the hot loop may reference by handle without further checks).
        """
        buf = self._buf
        raw = buf.raw
        plan_cache = self._plan_cache
        handles = self._handles._entries
        for item in items:
            if item is None:
                buf.write_u8(Tag.NONE)
                continue
            cls = item.__class__
            if cls in _LEAF_TYPES:
                self._emit_primitive(item)
                continue
            if cls is bool:
                buf.write_u8(Tag.TRUE if item else Tag.FALSE)
                continue
            if cls in plan_cache:
                entry = handles.get(id(item))
                if entry is not None:
                    handle = entry[1]
                    raw.append(_TAG_REF)
                    while handle > 0x7F:
                        raw.append((handle & 0x7F) | 0x80)
                        handle >>= 7
                    raw.append(handle)
                    continue
                # What the generic loop would do with the element, with
                # the rest of the list parked beneath anything the
                # encoder leaves on the stack.
                stack.append((_EMIT_ITEMS, items))
                if not plan_cache[cls].encode(self, item, stack):
                    return
                stack.pop()
                continue
            stack.append((_EMIT_ITEMS, items))
            stack.append((_EMIT_VALUE, item))
            return

    def _emit_primitive(self, obj: Any) -> None:
        buf = self._buf
        obj_type = type(obj)
        if obj_type is int or isinstance(obj, int):
            if 0 <= obj < INT2_LIMIT:
                buf.write_u8(INT2_BASE + (obj >> 8))
                buf.write_u8(obj & 0xFF)
            elif 0 <= obj < INT3_LIMIT:
                buf.write_u8(INT3_BASE + (obj >> 16))
                buf.write_u8(obj >> 8 & 0xFF)
                buf.write_u8(obj & 0xFF)
            elif _INT64_MIN <= obj <= _INT64_MAX:
                buf.write_u8(Tag.INT)
                buf.write_varint(int(obj))
            else:
                buf.write_u8(Tag.INT_BIG)
                magnitude = abs(int(obj))
                buf.write_u8(1 if obj < 0 else 0)
                buf.write_len_bytes(
                    magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
                )
        elif obj_type is float:
            buf.write_u8(Tag.FLOAT)
            buf.write_f64(obj)
        elif obj_type is complex:
            buf.write_u8(Tag.COMPLEX)
            buf.write_f64(obj.real)
            buf.write_f64(obj.imag)
        elif obj_type is str:
            memo = self._str_memo.get(obj)
            if memo is not None:
                buf.write_u8(Tag.REF)
                buf.write_uvarint(memo)
                return
            handle = self._alloc_handle(obj, mutable=False)
            if len(self._str_memo) < self._memo_limit:
                self._str_memo[obj] = handle
            buf.write_u8(Tag.STR)
            buf.write_str(obj)
        elif obj_type is bytes:
            memo = self._bytes_memo.get(obj)
            if memo is not None:
                buf.write_u8(Tag.REF)
                buf.write_uvarint(memo)
                return
            handle = self._alloc_handle(obj, mutable=False)
            if len(self._bytes_memo) < self._memo_limit:
                self._bytes_memo[obj] = handle
            buf.write_u8(Tag.BYTES)
            buf.write_len_bytes(obj)
        elif isinstance(obj, float):
            buf.write_u8(Tag.FLOAT)
            buf.write_f64(float(obj))
        else:
            # str/bytes subclasses degrade to their base value.
            if isinstance(obj, str):
                buf.write_u8(Tag.STR)
                self._alloc_handle(obj, mutable=False)
                buf.write_str(str(obj))
            elif isinstance(obj, bytes):
                buf.write_u8(Tag.BYTES)
                self._alloc_handle(obj, mutable=False)
                buf.write_len_bytes(bytes(obj))
            elif isinstance(obj, complex):
                buf.write_u8(Tag.COMPLEX)
                buf.write_f64(obj.real)
                buf.write_f64(obj.imag)
            else:  # pragma: no cover - classify() guarantees coverage above
                raise NotSerializableError(obj)

    def _find_externalizer(self, obj: Any):
        cache = self._ext_cache
        if cache is not None:
            cached = cache.get(type(obj), _MISSING)
            if cached is not _MISSING:
                return cached
        found = None
        for ext in self._local_externalizers:
            if ext.claims(obj):
                found = ext
                break
        if found is None:
            found = self.registry.externalizer_for(obj)
        if cache is not None and (found is None or found.type_based):
            cache[type(obj)] = found
        return found

    def _emit_external(self, obj: Any, ext) -> None:
        self._alloc_handle(obj, mutable=False)
        self._buf.write_u8(Tag.EXTERNAL)
        self._write_name_key(ext.name)
        self._buf.write_len_bytes(ext.replace(obj))

    def _emit_object(self, obj: Any, stack: List[Tuple[int, Any]]) -> None:
        ext = self._find_externalizer(obj)
        if ext is not None:
            self._emit_external(obj, ext)
            return
        cls = type(obj)
        if self._plan_cache is not None and self._ext_cache is not None:
            # First instance of a plan-safe class: compile (or fetch) the
            # generated encoder from the registry and cache it writer-locally
            # so later instances dispatch straight from the hot loop. A
            # class whose encoder failed to compile stays out of the cache
            # and takes the generic path below.
            plan = self.registry.codegen_encode_plan_for(cls)
            if plan.encode is not None:
                self._plan_cache[cls] = plan
                plan.encode(self, obj, stack)
                return
        accessor = self.profile.accessor
        state = accessor.get_state(obj)
        transients = transient_fields(cls)
        if transients:
            state = [(name, value) for name, value in state if name not in transients]
        if self.profile.per_object_validation:
            self._validate_object(obj, state)
        # readResolve classes are value-like: the decoded identity is not
        # the shell's, so they must stay out of the linear map on both
        # endpoints (the decoder applies the same rule).
        if has_resolve(cls):
            self._alloc_handle(obj, mutable=False)
            slot = -1
        else:
            slot = self._take_handle(obj)
        self._write_object_header((cls, tuple([name for name, _ in state])), slot)
        for _name, value in reversed(state):
            stack.append((_EMIT_VALUE, value))

    @staticmethod
    def _describe_context(stack: List[Tuple[int, Any]]) -> str:
        """Best-effort breadcrumb for error messages."""
        parents = [
            type(payload).__name__
            for opcode, payload in stack[-4:]
            if opcode == _EMIT_VALUE
        ]
        return " > ".join(reversed(parents))


def encode_graph(
    roots: List[Any],
    profile: SerializationProfile = MODERN_PROFILE,
    registry: Optional[ClassRegistry] = None,
) -> Tuple[bytes, LinearMap]:
    """Serialize *roots* into one stream; return (payload, linear map)."""
    writer = ObjectWriter(profile=profile, registry=registry)
    for root in roots:
        writer.write_root(root)
    return writer.getvalue(), writer.linear_map
