"""Session-cached wire schemas: ship class descriptors once per connection.

Every stream the writer produces is self-describing: class descriptors
(registered name + ``__nrmi_version__``) and field-name strings are
written inline on first use *per stream* and back-referenced afterwards.
That is correct and stateless — and wasteful on a long-lived connection,
where the same handful of classes crosses the wire thousands of times.

This module adds a negotiated, per-connection cache layered *under* the
stream format:

* the stream header's flags byte gains :data:`STREAM_FLAG_SCHEMA_CACHE`;
  a flagged stream encodes class keys in **schema mode** (see below);
* the encoder keeps a :class:`SchemaTxCache` per connection assigning a
  compact u16 *schema id* to each ``(class, version)`` pair; the first
  flagged stream carries a full **schema definition** (id + descriptor +
  field-name table), later streams carry a 2-3 byte **schema reference**;
* the decoder keeps a :class:`SchemaRxCache` per connection resolving
  references back to descriptors.

Schema-mode class keys (the uvarint that opens an inline layout
definition, after ``Tag.OBJECT`` and layout key 0)::

    0 (CKEY_INLINE)       name str + version uvarint   (classic inline form)
    1 (CKEY_SCHEMA_DEF)   schema_id, name, version, field-name table
    2 (CKEY_SCHEMA_REF)   schema_id
    k >= 3                per-stream back reference to class k - CKEY_STREAM_BASE

Unflagged streams keep the classic encoding (0 = inline, k >= 1 =
back reference) untouched, so legacy peers and stateless transports are
unaffected — the cache is pure negotiated opt-in.

Both a definition and a reference also **seed the per-stream field-name
table** with the schema's field names (appending only names not already
present, on both sides in the same order), so field-name strings stop
crossing the wire entirely once a schema id is in force: every name key
of a layout definition collapses to a 1-2 byte back reference.

Consistency protocol (why this is safe under concurrency, retries and
reconnects):

* definitions are **idempotent** — an entry keeps one stable id and one
  frozen definition blob for its lifetime, and the receiver's ``define``
  accepts redefinitions that match byte-for-byte;
* a pending entry's definition is re-sent on *every* flagged stream until
  the client sees a ``Status.OK`` reply for a request that carried it
  (the server decodes arguments before replying, so an OK proves the
  definition is registered on this connection);
* references are emitted only for confirmed entries, so a reference is
  never decoded before its definition — on any channel ordering;
* a version bump allocates a **new id** (ids are never reused); the old
  id stays resolvable on the receiver, and stale streams simply decode
  to the old version (the reader's ``__nrmi_upgrade__`` path applies);
* a connection drop resets the client session (:meth:`SchemaSession.reset`)
  — everything re-negotiates from scratch on the new connection.

Process-wide descriptor table (PR 6): schema ids and definition blobs are
allocated once per process by :data:`global_schema_table` rather than per
connection. Each :class:`SchemaTxCache` is a thin per-connection *view* —
it keeps only the per-connection ``confirmed`` flags, while the id, the
field-name tuple, and the pre-encoded definition blob come from the shared
table. Consequences:

* a class's schema id is stable across every connection in the process,
  and descriptor construction (field-name layout, blob encoding) happens
  exactly once per ``(class, version)`` — new connections re-*send* the
  frozen blob until confirmed, but never re-*compute* it;
* ids are never reused across reconnects either, so a server that kept
  old rx state can never see a conflicting redefinition;
* the table carries an **epoch** counter, bumped by :meth:`~GlobalSchemaTable.reset`;
  generated serde functions (:mod:`repro.serde.codegen`) are stamped with
  the epoch at compile time and recompiled when it moves, so no compiled
  code outlives the descriptor table it baked in.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WireFormatError

#: Stream-header flags-byte bit: class keys use the schema-mode encoding.
STREAM_FLAG_SCHEMA_CACHE = 0x01

#: Schema-mode class-key discriminators (see module docstring).
CKEY_INLINE = 0
CKEY_SCHEMA_DEF = 1
CKEY_SCHEMA_REF = 2
#: First per-stream back-reference key; key k refers to stream class
#: ``k - CKEY_STREAM_BASE``.
CKEY_STREAM_BASE = 3

#: Schema ids are u16: one connection can define at most 65536 schemas;
#: past that the encoder transparently falls back to inline descriptors.
MAX_SCHEMA_ID = 0xFFFF


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _str_blob(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return _uvarint(len(encoded)) + encoded


class WireSchema:
    """One negotiated schema as the *receiver* sees it."""

    __slots__ = ("schema_id", "class_name", "version", "field_names")

    def __init__(
        self,
        schema_id: int,
        class_name: str,
        version: int,
        field_names: Tuple[str, ...],
    ) -> None:
        self.schema_id = schema_id
        self.class_name = class_name
        self.version = version
        self.field_names = field_names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WireSchema(id={self.schema_id}, class={self.class_name!r}, "
            f"version={self.version})"
        )


class TxSchemaEntry:
    """Encoder-side state for one ``(class, version)`` pair.

    ``def_blob`` is the frozen, pre-encoded CKEY_SCHEMA_DEF key (complete
    with id, descriptor, and field-name table) so re-sending a pending
    definition is a single buffer append. ``confirmed`` flips once the
    peer provably holds the definition; only then may references be sent.
    """

    __slots__ = ("schema_id", "cls", "version", "field_names", "def_blob", "confirmed")

    def __init__(
        self, schema_id: int, cls: type, version: int, field_names: Tuple[str, ...],
        class_name: str, def_blob: Optional[bytes] = None,
    ) -> None:
        self.schema_id = schema_id
        self.cls = cls
        self.version = version
        self.field_names = field_names
        if def_blob is None:
            blob = bytearray()
            blob.append(CKEY_SCHEMA_DEF)
            blob += _uvarint(schema_id)
            blob += _str_blob(class_name)
            blob += _uvarint(version)
            blob += _uvarint(len(field_names))
            for name in field_names:
                blob += _str_blob(name)
            def_blob = bytes(blob)
        self.def_blob = def_blob
        self.confirmed = False


class GlobalSchemaRecord:
    """One process-wide descriptor: id + frozen definition blob."""

    __slots__ = ("schema_id", "cls", "version", "class_name", "field_names", "def_blob")

    def __init__(
        self, schema_id: int, cls: type, version: int, class_name: str,
        field_names: Tuple[str, ...],
    ) -> None:
        self.schema_id = schema_id
        self.cls = cls
        self.version = version
        self.class_name = class_name
        self.field_names = field_names
        blob = bytearray()
        blob.append(CKEY_SCHEMA_DEF)
        blob += _uvarint(schema_id)
        blob += _str_blob(class_name)
        blob += _uvarint(version)
        blob += _uvarint(len(field_names))
        for name in field_names:
            blob += _str_blob(name)
        self.def_blob = bytes(blob)


class GlobalSchemaTable:
    """Process-wide, epoch-stamped descriptor table (thread-safe).

    Allocates schema ids and pre-encodes definition blobs once per
    ``(class, version)`` for the whole process; per-connection
    :class:`SchemaTxCache` views share these records. A version bump
    allocates a fresh record under a fresh id — ids are monotonic and
    never reused while the table lives.

    ``epoch`` changes only on :meth:`reset` (a maintenance/test hook that
    *does* restart the id space); compiled serde functions are stamped
    with it so a reset invalidates anything that baked descriptors in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[type, GlobalSchemaRecord] = {}
        self._next_id = 0
        self._epoch = 0

    @property
    def epoch(self) -> int:
        # Lock-free read: torn reads are impossible for a Python int, and
        # callers re-validate under the registry lock before recompiling.
        return self._epoch

    def lookup(
        self, cls: type, version: int, class_name: str,
        field_names: Sequence[str],
    ) -> Optional[GlobalSchemaRecord]:
        """The record for ``(cls, version)``, allocated on first use.

        Returns ``None`` when the u16 id space is exhausted — callers fall
        back to inline descriptors.
        """
        with self._lock:
            record = self._records.get(cls)
            if record is not None and record.version == version:
                return record
            if self._next_id > MAX_SCHEMA_ID:
                return None
            record = GlobalSchemaRecord(
                self._next_id, cls, version, class_name, tuple(field_names)
            )
            self._next_id += 1
            self._records[cls] = record
            return record

    def reset(self) -> None:
        """Drop every record and restart the id space (tests/maintenance).

        Bumps the epoch: live connections renegotiate as their sessions
        reset, and epoch-stamped compiled serde functions recompile.
        """
        with self._lock:
            self._records.clear()
            self._next_id = 0
            self._epoch += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


#: The process-wide descriptor table every connection shares by default.
global_schema_table = GlobalSchemaTable()


def schema_epoch() -> int:
    """The current epoch of :data:`global_schema_table`."""
    return global_schema_table.epoch


class SchemaTxCache:
    """Encoder-side schema view for one connection (thread-safe).

    Ids, field-name tuples, and definition blobs come from the shared
    :class:`GlobalSchemaTable` — this view adds only the per-connection
    ``confirmed`` flags. Keyed on class identity; a version mismatch (the
    class's declared ``__nrmi_version__`` changed since the entry was
    made) fetches a fresh record under a fresh id — ids are never reused,
    so streams encoded against the old entry stay decodable.
    """

    def __init__(self, table: Optional[GlobalSchemaTable] = None) -> None:
        self._lock = threading.Lock()
        self._table = table if table is not None else global_schema_table
        self._entries: Dict[type, TxSchemaEntry] = {}

    def lookup(
        self, cls: type, version: int, class_name: str,
        field_names: Sequence[str],
    ) -> Optional[TxSchemaEntry]:
        """The entry for ``(cls, version)``, created on first use.

        Returns ``None`` when the u16 id space is exhausted — the caller
        falls back to the inline descriptor form.
        """
        with self._lock:
            entry = self._entries.get(cls)
            if entry is not None and entry.version == version:
                return entry
            record = self._table.lookup(cls, version, class_name, field_names)
            if record is None:
                return None
            entry = TxSchemaEntry(
                record.schema_id, cls, version, record.field_names,
                record.class_name, def_blob=record.def_blob,
            )
            self._entries[cls] = entry
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SchemaRxCache:
    """Decoder-side schema table for one connection (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._schemas: Dict[int, WireSchema] = {}

    def define(
        self,
        schema_id: int,
        class_name: str,
        version: int,
        field_names: Tuple[str, ...],
    ) -> WireSchema:
        """Register a definition; idempotent for identical redefinitions.

        Pending definitions are re-sent on every stream until confirmed,
        so duplicates are the normal case. A *conflicting* redefinition
        means the peer broke the id-stability contract: reject it rather
        than silently decode against the wrong descriptor.
        """
        with self._lock:
            existing = self._schemas.get(schema_id)
            if existing is not None:
                if (
                    existing.class_name != class_name
                    or existing.version != version
                    or existing.field_names != field_names
                ):
                    raise WireFormatError(
                        f"conflicting redefinition of schema id {schema_id}: "
                        f"{existing.class_name!r} v{existing.version} vs "
                        f"{class_name!r} v{version}"
                    )
                return existing
            schema = WireSchema(schema_id, class_name, version, field_names)
            self._schemas[schema_id] = schema
            return schema

    def lookup(self, schema_id: int) -> WireSchema:
        with self._lock:
            schema = self._schemas.get(schema_id)
        if schema is None:
            raise WireFormatError(f"dangling schema id {schema_id}")
        return schema

    def __len__(self) -> int:
        with self._lock:
            return len(self._schemas)


class SchemaSession:
    """Client-side negotiation state for one channel.

    ``peer_ok`` flips when the server acknowledges the capability (the
    high bit of the reply's applied-policy byte); until then every stream
    goes out unflagged, so a legacy peer never sees schema-mode bytes.
    ``reset`` (connection drop) discards everything: the next connection
    renegotiates from zero, which keeps the tx table and the server's rx
    table trivially consistent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tx = SchemaTxCache()
        self._peer_ok = False
        self.generation = 0

    @property
    def peer_ok(self) -> bool:
        return self._peer_ok

    def record_ack(self) -> None:
        with self._lock:
            self._peer_ok = True

    def confirm(self, entries: List[TxSchemaEntry]) -> None:
        """Mark definitions as held by the peer (an OK reply arrived for a
        request whose stream carried them)."""
        for entry in entries:
            entry.confirmed = True

    def reset(self) -> None:
        """Forget the negotiation (the connection it covered is gone)."""
        with self._lock:
            self.tx = SchemaTxCache()
            self._peer_ok = False
            self.generation += 1
