"""The decoder: reconstructs object graphs from the NRMI wire format.

Like the writer, the reader is **iterative** — a frame stack instead of
recursion — and it rebuilds the handle table (and therefore the linear map)
as a side effect of decoding, in exactly the order the writer allocated
handles. This is the paper's optimization 5.2.4 #1: the linear map is never
transmitted; the receiving side reconstructs it during deserialization.

Cycles are handled by registering *shells* for mutable containers and
objects before their contents are read; back references resolve to the
shell, which is filled in as decoding proceeds. Immutable containers
(tuples, frozensets) cannot be shelled, but a cycle through an immutable
container is unconstructable in Python in the first place.

Profile split (mirrors the writer): the legacy profile reads through the
slice-copying buffer that models JDK 1.3's stream layer and re-derives
per-class facts for every object; the modern profile reads through a
``memoryview`` with no per-primitive copies and hands each registered
class to its generated decoder (:mod:`repro.serde.codegen`). A generated
decoder that meets a shape it does not cover parks its object as a frame;
the frame machine finishes that object's remaining fields one
``_step``/``_deliver`` cycle each, and a nested object among them goes
back to its own generated decoder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import WireFormatError
from repro.serde.codegen import BAIL
from repro.serde.digest import SlotDigestTable, SlotState, state_capture
from repro.serde.hooks import (
    apply_resolve,
    apply_upgrade,
    class_version,
    has_resolve,
    has_upgrade,
)
from repro.serde.linear_map import LinearMap
from repro.serde.profiles import MODERN_PROFILE, SerializationProfile
from repro.serde.registry import ClassRegistry, global_registry
from repro.serde.schema import (
    CKEY_INLINE,
    CKEY_SCHEMA_DEF,
    CKEY_SCHEMA_REF,
    CKEY_STREAM_BASE,
    STREAM_FLAG_SCHEMA_CACHE,
    SchemaRxCache,
)
from repro.serde.tags import Tag, WIRE_MAGIC, WIRE_VERSION
from repro.util.buffers import BufferReader, SlicingBufferReader

_NO_VALUE = object()
_FRAME_PUSHED = object()

# Frame kinds.
_F_LIST = 0
_F_TUPLE = 1
_F_SET = 2
_F_FROZENSET = 3
_F_DICT = 4
_F_OBJECT = 5

# Tag bytes as plain ints for the list drain loop (enum attribute access
# and __eq__ are measurable in the per-element hot path).
_T_NONE = int(Tag.NONE)
_T_INT = int(Tag.INT)
_T_REF = int(Tag.REF)


class _Frame:
    """Decoding state for one container whose children are still arriving."""

    __slots__ = (
        "kind",
        "remaining",
        "shell",
        "items",
        "handle_slot",
        "pending_key",
        "has_pending_key",
        "pending_name",
        "needs_resolve",
        "wire_version",
        "linear_slot",
    )

    def __init__(self, kind: int, remaining: int) -> None:
        self.kind = kind
        self.remaining = remaining
        self.shell: Any = None
        self.items: Optional[List[Any]] = None
        self.handle_slot = -1
        self.pending_key: Any = None
        self.has_pending_key = False
        self.pending_name: Optional[str] = None
        self.needs_resolve = False
        self.wire_version: Optional[int] = None
        #: Linear-map position to capture at frame finish (fused state
        #: capture); -1 when capture is off or the shell is not mapped.
        self.linear_slot = -1


class ObjectReader:
    """Decodes a stream produced by :class:`repro.serde.writer.ObjectWriter`.

    *data* may be ``bytes``, ``bytearray``, or a ``memoryview`` — the modern
    profile decodes through a view without copying the payload.
    """

    def __init__(
        self,
        data,
        profile: SerializationProfile = MODERN_PROFILE,
        registry: Optional[ClassRegistry] = None,
        externalizers: tuple = (),
        schema_rx: Optional[SchemaRxCache] = None,
        digest_accessor=None,
    ) -> None:
        self.profile = profile
        self.registry = registry if registry is not None else global_registry
        self._local_externalizers = {ext.name: ext for ext in externalizers}
        self.linear_map = LinearMap()
        #: Every tuple and frozenset decoded, in the order they finished —
        #: inner before outer. With the linear map and :attr:`resolved`
        #: this is everything the stream built, which is what the
        #: caller-side restore converts (repro.core.copy_restore).
        self.immutables: List[Any] = []
        #: What ``__nrmi_resolve__`` returned for each decoded instance of
        #: a resolving class (those shells stay out of the linear map).
        self.resolved: List[Any] = []
        if profile.chunked_buffers:
            self._buf = SlicingBufferReader(data)
        else:
            self._buf = BufferReader(data)
        self._handles: List[Any] = []
        self._classes: List[tuple] = []  # (class, wire_version, plan-or-None)
        self._names: List[str] = []
        # Generated decoders mirror the writer's gating: they bake in
        # interned descriptors and no per-object validation.
        self._use_plans = (
            profile.use_compiled_plans
            and profile.intern_descriptors
            and not profile.per_object_validation
        )
        self._set_field = profile.accessor.set_field
        # Lazily-built tuple of hot internals bound in one load by
        # generated decoders (repro.serde.codegen); every member is bound
        # once in __init__ and only mutated in place, never rebound.
        self._codegen_ctx: Optional[tuple] = None
        # Fused state capture (repro.serde.digest): when the dispatcher
        # passes the accessor it will compare with at reply time, each
        # mutable slot's "before" state is captured as its frame finishes,
        # so the delta snapshot needs no second walk over the linear map.
        self._digest_accessor = digest_accessor
        if digest_accessor is not None:
            self._capture_state = state_capture(digest_accessor)
            self._slot_states: Dict[int, SlotState] = {}
        magic = self._buf.read_bytes(len(WIRE_MAGIC))
        if magic != WIRE_MAGIC:
            raise WireFormatError(f"bad magic {magic!r}; not an NRMI stream")
        version = self._buf.read_u8()
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {version} (expected {WIRE_VERSION})"
            )
        flags = self._buf.read_u8()
        if flags & STREAM_FLAG_SCHEMA_CACHE:
            if schema_rx is None:
                raise WireFormatError(
                    "schema-cache stream received without a session schema "
                    "cache (stateless decode of a negotiated stream)"
                )
            self._schema_rx: Optional[SchemaRxCache] = schema_rx
            self._names_seen: Optional[set] = set()
        else:
            self._schema_rx = None
            self._names_seen = None

    # ------------------------------------------------------------------ API

    def read_root(self) -> Any:
        """Decode and return the next root value in the stream.

        Mirrors ``ObjectWriter.write_root``: the linear-map positions the
        root registered are recorded as its span, so both endpoints hold
        the same spans over their index-aligned maps.
        """
        linear_map = self.linear_map
        start = len(linear_map)
        value = self._read_value()
        linear_map.close_span(value, start)
        return value

    def at_end(self) -> bool:
        return self._buf.remaining == 0

    def expect_end(self) -> None:
        self._buf.expect_end()

    # ------------------------------------------------------------ internals

    def _register(self, obj: Any, mutable: bool) -> int:
        slot = len(self._handles)
        self._handles.append(obj)
        if mutable:
            # Shells are freshly allocated, so skip the membership probe.
            self.linear_map.append_new(obj)
        return slot

    def _reserve(self) -> int:
        slot = len(self._handles)
        self._handles.append(_NO_VALUE)
        return slot

    def _read_class(self) -> tuple:
        """Return (class, wire_version, decode_plan_or_None) for a class key."""
        key = self._buf.read_uvarint()
        if self._schema_rx is not None:
            return self._read_schema_class_key(key)
        if key == 0:
            return self._read_inline_class()
        try:
            return self._classes[key - 1]
        except IndexError:
            raise WireFormatError(f"dangling class id {key}") from None

    def _plan_for(self, cls: type):
        """The decode plan matching this reader's profile (or None)."""
        if self._use_plans:
            return self.registry.codegen_decode_plan_for(cls)
        return None

    def _read_inline_class(self) -> tuple:
        """Decode an inline class descriptor (the key byte already read)."""
        cls = self.registry.class_for(self._buf.read_str())
        plan = self._plan_for(cls)
        entry = (cls, self._buf.read_uvarint(), plan)
        self._classes.append(entry)
        return entry

    def _read_schema_class_key(self, key: int) -> tuple:
        """Decode a schema-mode class key (see :mod:`repro.serde.schema`)."""
        buf = self._buf
        if key >= CKEY_STREAM_BASE:
            try:
                return self._classes[key - CKEY_STREAM_BASE]
            except IndexError:
                raise WireFormatError(f"dangling class id {key}") from None
        if key == CKEY_INLINE:
            cls = self.registry.class_for(buf.read_str())
            plan = self._plan_for(cls)
            entry = (cls, buf.read_uvarint(), plan)
            self._classes.append(entry)
            return entry
        if key == CKEY_SCHEMA_DEF:
            schema_id = buf.read_uvarint()
            class_name = buf.read_str()
            version = buf.read_uvarint()
            count = buf.read_uvarint()
            field_names = tuple(buf.read_str() for _ in range(count))
            schema = self._schema_rx.define(
                schema_id, class_name, version, field_names
            )
        else:  # CKEY_SCHEMA_REF (key space 0..2 is exhaustive)
            schema = self._schema_rx.lookup(buf.read_uvarint())
        cls = self.registry.class_for(schema.class_name)
        plan = self._plan_for(cls)
        entry = (cls, schema.version, plan)
        self._classes.append(entry)
        # Seed the per-stream field-name table (the writer seeds its table
        # identically) so per-field name keys become 1-2 byte back refs.
        seen = self._names_seen
        names = self._names
        for field_name in schema.field_names:
            if field_name not in seen:
                seen.add(field_name)
                names.append(field_name)
        return entry

    def _read_name(self) -> str:
        key = self._buf.read_uvarint()
        if key == 0:
            name = self._buf.read_str()
            self._names.append(name)
            if self._names_seen is not None:
                self._names_seen.add(name)
            return name
        try:
            return self._names[key - 1]
        except IndexError:
            raise WireFormatError(f"dangling name id {key}") from None

    def _read_value(self) -> Any:
        drain_lists = self._use_plans
        stack: List[_Frame] = []
        result: Any = _NO_VALUE
        while True:
            if result is _NO_VALUE:
                result = self._step(stack)
                if result is _FRAME_PUSHED:
                    result = _NO_VALUE
                    frame = stack[-1]
                    if drain_lists and frame.kind == _F_LIST and frame.remaining:
                        self._drain_list_items(frame)
                    if frame.remaining == 0:
                        stack.pop()
                        result = self._finish(frame)
                    continue
            if not stack:
                return result
            frame = stack[-1]
            self._deliver(frame, result)
            result = _NO_VALUE
            if drain_lists and frame.kind == _F_LIST and frame.remaining:
                # Back from decoding an element the direct loop does not
                # inline: resume it before paying full frame-machine
                # cycles for what follows.
                self._drain_list_items(frame)
            if frame.remaining == 0:
                stack.pop()
                result = self._finish(frame)

    def _drain_list_items(self, frame: _Frame) -> None:
        """Decode list elements in one direct loop.

        Inlines the three element shapes that make up the retained-map
        root of a ``full`` reply and the dirty list of a ``delta-slots``
        one — back references, ``None`` and small ints — appending
        straight to the shell. Any other tag is left unread for ``_step``;
        ``_read_value`` re-enters here once that element is delivered and
        finishes the frame (state capture included) as before.
        """
        buf = self._buf
        handles = self._handles
        append = frame.shell.append
        remaining = frame.remaining
        mv = buf._mv
        pos = buf._pos
        try:
            while remaining:
                tag = mv[pos]
                if tag == _T_REF or tag == _T_INT:
                    # Both payloads are one uvarint: a handle, or a
                    # zig-zag encoded value.
                    pos += 1
                    byte = mv[pos]
                    pos += 1
                    if byte & 0x80:
                        raw = byte & 0x7F
                        shift = 7
                        while True:
                            byte = mv[pos]
                            pos += 1
                            raw |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 70:
                                raise WireFormatError(
                                    "uvarint too long (corrupt stream)"
                                )
                    else:
                        raw = byte
                    if tag == _T_INT:
                        value = (raw >> 1) ^ -(raw & 1)
                    else:
                        try:
                            value = handles[raw]
                        except IndexError:
                            raise WireFormatError(
                                f"dangling handle {raw}"
                            ) from None
                        if value is _NO_VALUE:
                            raise WireFormatError(
                                f"forward reference to handle {raw}"
                            )
                elif tag == _T_NONE:
                    pos += 1
                    value = None
                else:
                    break
                append(value)
                remaining -= 1
        except IndexError:
            # mv[pos] past the end: the stream ended mid-element.
            pos = buf._len
            raise WireFormatError(
                f"truncated stream: need 1 bytes at offset {pos}, have 0"
            ) from None
        finally:
            buf._pos = pos
            frame.remaining = remaining

    def _spawn_object_frame(self, entry: tuple, count: int) -> _Frame:
        """Open the decoding frame for one object whose class key and
        field count have been consumed (shell registered, capture slot
        noted). Shared by ``_step`` and the generated decoders' bail
        paths."""
        cls, wire_version, plan = entry
        frame = _Frame(_F_OBJECT, count)
        if plan is not None:
            frame.shell = plan.factory()
            frame.needs_resolve = plan.needs_resolve
            if wire_version != plan.version and plan.has_upgrade:
                frame.wire_version = wire_version
        else:
            frame.shell = self.profile.accessor.new_instance(cls)
            frame.needs_resolve = has_resolve(cls)
            if wire_version != class_version(cls) and has_upgrade(cls):
                frame.wire_version = wire_version
        # Mirrors the writer: readResolve classes are value-like and
        # stay out of the linear map, keeping the maps index-aligned.
        frame.handle_slot = self._register(
            frame.shell, mutable=not frame.needs_resolve
        )
        if self._digest_accessor is not None and not frame.needs_resolve:
            frame.linear_slot = len(self.linear_map) - 1
        return frame

    def _step(self, stack: List[_Frame]) -> Any:
        """Read one value header; return a value or push a frame."""
        if stack:
            frame = stack[-1]
            if frame.kind == _F_OBJECT and frame.pending_name is None:
                frame.pending_name = self._read_name()
        buf = self._buf
        tag = buf.read_u8()
        if tag == Tag.NONE:
            return None
        if tag == Tag.TRUE:
            return True
        if tag == Tag.FALSE:
            return False
        if tag == Tag.INT:
            return buf.read_varint()
        if tag == Tag.INT_BIG:
            negative = buf.read_u8()
            # read_len_view: int.from_bytes consumes the span in place,
            # so no intermediate bytes copy (matters on borrowed input).
            magnitude = int.from_bytes(buf.read_len_view(), "big")
            return -magnitude if negative else magnitude
        if tag == Tag.FLOAT:
            return buf.read_f64()
        if tag == Tag.COMPLEX:
            return complex(buf.read_f64(), buf.read_f64())
        if tag == Tag.STR:
            value = buf.read_str()
            self._register(value, mutable=False)
            return value
        if tag == Tag.BYTES:
            value = buf.read_len_bytes()
            self._register(value, mutable=False)
            return value
        if tag == Tag.BYTEARRAY:
            # read_len_view: the bytearray constructor is the one copy
            # this value needs; read_len_bytes would make it two.
            value = bytearray(buf.read_len_view())
            self._register(value, mutable=True)
            if self._digest_accessor is not None:
                # Complete at registration (no frame): capture immediately.
                self._capture_slot(len(self.linear_map) - 1, value)
            return value
        if tag == Tag.REF:
            slot = buf.read_uvarint()
            try:
                obj = self._handles[slot]
            except IndexError:
                raise WireFormatError(f"dangling handle {slot}") from None
            if obj is _NO_VALUE:
                raise WireFormatError(f"forward reference to handle {slot}")
            return obj
        if tag == Tag.LIST:
            count = buf.read_uvarint()
            frame = _Frame(_F_LIST, count)
            frame.shell = []
            self._register(frame.shell, mutable=True)
            if self._digest_accessor is not None:
                frame.linear_slot = len(self.linear_map) - 1
            stack.append(frame)
            return _FRAME_PUSHED
        if tag == Tag.TUPLE:
            count = buf.read_uvarint()
            frame = _Frame(_F_TUPLE, count)
            frame.items = []
            frame.handle_slot = self._reserve()
            stack.append(frame)
            return _FRAME_PUSHED
        if tag == Tag.SET:
            count = buf.read_uvarint()
            frame = _Frame(_F_SET, count)
            frame.shell = set()
            self._register(frame.shell, mutable=True)
            if self._digest_accessor is not None:
                frame.linear_slot = len(self.linear_map) - 1
            stack.append(frame)
            return _FRAME_PUSHED
        if tag == Tag.FROZENSET:
            count = buf.read_uvarint()
            frame = _Frame(_F_FROZENSET, count)
            frame.items = []
            frame.handle_slot = self._reserve()
            stack.append(frame)
            return _FRAME_PUSHED
        if tag == Tag.DICT:
            count = buf.read_uvarint()
            frame = _Frame(_F_DICT, count * 2)
            frame.shell = {}
            self._register(frame.shell, mutable=True)
            if self._digest_accessor is not None:
                frame.linear_slot = len(self.linear_map) - 1
            stack.append(frame)
            return _FRAME_PUSHED
        if tag == Tag.OBJECT:
            entry = self._read_class()
            plan = entry[2]
            if plan is not None and plan.decode_fn is not None:
                # Generated decoder: reads its own field count, returns the
                # finished object — or BAIL after parking frames in exactly
                # the mid-object state the machine expects.
                value = plan.decode_fn(self, stack, entry[1])
                if value is BAIL:
                    return _FRAME_PUSHED
                return value
            count = buf.read_uvarint()
            stack.append(self._spawn_object_frame(entry, count))
            return _FRAME_PUSHED
        if tag == Tag.EXTERNAL:
            ext_name = self._read_name()
            payload = buf.read_len_bytes()
            ext = self._local_externalizers.get(ext_name)
            if ext is None:
                ext = self.registry.externalizer_named(ext_name)
            resolved = ext.resolve(payload)
            self._register(resolved, mutable=False)
            return resolved
        raise WireFormatError(f"unknown tag byte 0x{tag:02x}")

    def _deliver(self, frame: _Frame, value: Any) -> None:
        frame.remaining -= 1
        kind = frame.kind
        if kind == _F_LIST:
            frame.shell.append(value)
        elif kind == _F_DICT:
            if frame.has_pending_key:
                frame.shell[frame.pending_key] = value
                frame.pending_key = None
                frame.has_pending_key = False
            else:
                frame.pending_key = value
                frame.has_pending_key = True
        elif kind == _F_SET:
            frame.shell.add(value)
        elif kind == _F_OBJECT:
            if frame.pending_name is None:
                raise WireFormatError("object field value without a field name")
            self._set_field(frame.shell, frame.pending_name, value)
            frame.pending_name = None
        else:  # tuple / frozenset accumulate
            frame.items.append(value)

    def _finish(self, frame: _Frame) -> Any:
        kind = frame.kind
        if kind == _F_TUPLE:
            value = tuple(frame.items)
            self._handles[frame.handle_slot] = value
            self.immutables.append(value)
            return value
        if kind == _F_FROZENSET:
            value = frozenset(frame.items)
            self._handles[frame.handle_slot] = value
            self.immutables.append(value)
            return value
        if frame.wire_version is not None:
            # Schema evolution: the stream was written by a different
            # class version; let the class migrate the decoded state.
            apply_upgrade(frame.shell, frame.wire_version)
        if frame.needs_resolve:
            # readResolve analogue: the canonical object replaces the
            # decoded shell everywhere (later back references included;
            # references inside a cycle through the shell are the same
            # documented limitation Java's readResolve has).
            resolved = apply_resolve(frame.shell)
            self._handles[frame.handle_slot] = resolved
            self._note_resolved(resolved)
            return resolved
        if frame.linear_slot >= 0:
            # Fused state capture: the slot's shallow state is final once
            # its frame finishes (its children are decoded; a cycle is a
            # reference like any other), so capture it here instead of
            # re-walking the linear map after decoding.
            self._capture_slot(frame.linear_slot, frame.shell)
        return frame.shell

    def _note_resolved(self, value: Any) -> None:
        """Record what a resolving instance decoded to; an immutable
        container joins :attr:`immutables` (its parts finished first)."""
        if type(value) is tuple or type(value) is frozenset:
            self.immutables.append(value)
        else:
            self.resolved.append(value)

    # -------------------------------------------------- fused state capture

    def _capture_slot(self, index: int, obj: Any) -> None:
        self._slot_states[index] = self._capture_state(obj)

    def digest_table(self, indices: List[int]) -> SlotDigestTable:
        """The fused "before" table for *indices* (linear-map positions),
        equivalent to ``digest_slots`` over those slots.

        Only valid when the reader was built with ``digest_accessor``.
        Slots that somehow escaped capture (defensive: e.g. registered by
        a hook outside the frame machine) are captured on demand.
        """
        captured = self._slot_states.get
        slots = self.linear_map
        capture = self._capture_state
        return SlotDigestTable(
            [captured(index) or capture(slots[index]) for index in indices]
        )


def decode_graph(
    data,
    count: int = 1,
    profile: SerializationProfile = MODERN_PROFILE,
    registry: Optional[ClassRegistry] = None,
) -> tuple:
    """Decode *count* roots; return ``(roots_list, linear_map)``."""
    reader = ObjectReader(data, profile=profile, registry=registry)
    roots = [reader.read_root() for _ in range(count)]
    return roots, reader.linear_map
