"""The length-prefixed wire codec of the net runtime.

The simulator hands Python objects between processes by reference; a real
deployment (docs/NET.md) must serialise them. The codec round-trips the
message dataclasses faithfully — registered types travel by name and
are rebuilt by their constructor — where ``canonical()`` flattens
objects for hashing.

Frame layout::

    +--------+---------+----------------------+---------+
    | b"RB"  | version |  payload length (u32)| payload |
    |  2 B   |   1 B   |     big-endian       |   ...   |
    +--------+---------+----------------------+---------+

The version byte is 4 (:data:`VERSION_CITED`); a frame carrying any
other is refused. The payload is *cited records*, ``record* root``
(docs/NET.md, docs/PERFORMANCE.md): single-byte tags, zigzag-varint
integers, raw IEEE-754 doubles, count-prefixed containers, decoded by
slicing one shared :class:`memoryview` cursor. A
:class:`~repro.core.certificates.SignedMessage` is a record, ``0x0C |
u32 length | body | cert | signature``, and so is a value of a type
registered ``shared=True``, ``0x0E | u32 length | named record``. Inside
a record or the root such a value is never spelled in place but cited,
``0x0D | SHA-256(record bytes)``, and the record it cites stands
*earlier in the same payload*. Each distinct envelope and shared value
is written once per frame however often a certificate repeats it.

An endpoint may hand the codec its :class:`EnvelopeTable`: a record
it has seen before — an envelope, or a shared value such as a client
request — is answered with the object it already holds, *without being
walked*. A record's bytes depend on nothing around it (its children are
always citations, and a shared record has none), so the one digest is
both citation and table key; a citation itself resolves against its
own payload only. The frames are those of the table-less codec.

Robustness contract: **every** malformed input — truncated, oversized,
wrong magic, wrong version, tampered payload, unknown type, hostile
nesting depth — raises :class:`WireError` (a :class:`~repro.errors.
ReproError`) and nothing else. Transports count these as rejections;
nothing on the wire may crash or hang a node
(``tests/test_net_wire.py`` fuzzes exactly this). ``MAX_DEPTH`` and
``MAX_FRAME`` are judged on the *spelled-out* form — every citation
replaced by what it cites — so a five-kilobyte payload cannot stand for
a tree that is megabytes or levels deeper.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import weakref
from typing import Any, Callable

from repro.core.certificates import Certificate, CertificateDigest, SignedMessage
from repro.crypto.cache import caching_enabled
from repro.errors import ReproError
from repro.observability.registry import NULL_METRICS


class WireError(ReproError):
    """A frame or payload violates the wire format (always a rejection)."""


#: Frame magic; the byte after it is the payload version.
MAGIC = b"RB"
#: The payload whose envelopes and shared values are cited records.
VERSION_CITED = 4
#: Payload versions this node decodes: the one it sends. A frame with
#: any other version byte is refused.
SUPPORTED_VERSIONS = (VERSION_CITED,)
#: The version every frame is encoded with.
DEFAULT_VERSION = VERSION_CITED
HEADER = struct.Struct(">2sBI")
#: Ceiling on one frame's payload: bounds memory against hostile length
#: prefixes while leaving room for full state-transfer snapshots. A
#: payload is held to it *spelled out*, every citation replaced by the
#: record it cites.
MAX_FRAME = 8 * 1024 * 1024
#: Ceiling on nesting: certificates nest a few levels; a hostile
#: payload must not recurse the decoder into a stack overflow.
MAX_DEPTH = 64
#: Ceiling on one varint's byte length (≈ 4700 decimal digits).
MAX_VARINT_BYTES = 2048

#: name -> (class, to_fields, from_fields); class -> (name, to_fields).
_BY_NAME: dict[str, tuple[type, Callable[[Any], tuple], Callable[[tuple], Any]]] = {}
_BY_TYPE: dict[type, tuple[str, Callable[[Any], tuple]]] = {}
#: Types whose values a payload pools and cites (``shared=True``).
_SHARED: set[type] = set()


def register_wire_type(
    cls: type,
    *,
    name: str | None = None,
    to_fields: Callable[[Any], tuple] | None = None,
    from_fields: Callable[[tuple], Any] | None = None,
    shared: bool = False,
) -> type:
    """Register ``cls`` for faithful wire round-trips as a named record.

    Dataclasses need no adapters: their declared field order is the wire
    field order and the constructor rebuilds them. Non-dataclasses (or
    classes whose constructor differs from their fields) pass explicit
    ``to_fields`` / ``from_fields``.

    ``shared`` declares that certificates repeat equal values of the
    type: below a payload's root each distinct one is written once, as
    a pool record, and cited. Such a value holds no signed envelope and
    no shared value itself — its record cites nothing, and neither side
    of the codec accepts one that would, at the root or below it. An
    :class:`EnvelopeTable` holds such values weakly, with their record
    memo in the instance ``__dict__``: the type must have both (no
    ``__slots__``).
    """
    wire_name = name if name is not None else cls.__qualname__
    if shared and not (cls.__dictoffset__ and cls.__weakrefoffset__):
        raise WireError(f"shared {cls.__name__} needs a __dict__ and weak references")
    if to_fields is None:
        if not dataclasses.is_dataclass(cls):
            raise WireError(
                f"{cls.__name__} is not a dataclass; pass to_fields/from_fields"
            )
        field_names = tuple(f.name for f in dataclasses.fields(cls))

        def to_fields(obj: Any, _names: tuple[str, ...] = field_names) -> tuple:
            return tuple(getattr(obj, n) for n in _names)

    if from_fields is None:

        def from_fields(fields: tuple, _cls: type = cls) -> Any:
            return _cls(*fields)

    if wire_name in _BY_NAME and _BY_NAME[wire_name][0] is not cls:
        raise WireError(f"wire name {wire_name!r} registered twice")
    _BY_NAME[wire_name] = (cls, to_fields, from_fields)
    _BY_TYPE[cls] = (wire_name, to_fields)
    if shared:
        _SHARED.add(cls)
    return cls


# -- the payload grammar -----------------------------------------------------
#
# Single-byte tags; varint(n) is base-128 little-endian with the high bit
# as the continuation flag; zigzag maps signed to unsigned before the
# varint. Containers are count-prefixed (not byte-length-prefixed), so
# the decoder walks a single cursor over one memoryview of the receive
# buffer and copies bytes only at str/bytes leaves. The exceptions are
# the records, byte-length-prefixed so that one can be hashed, and
# stepped over, without being walked.

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_DICT = 0x08
_T_SET = 0x09
#: ``name | field count | fields`` of a registered type.
_T_REG = 0x0A
#: A pool record: ``u32 length | body | cert | signature`` of a SignedMessage.
_T_ENVELOPE = 0x0C
#: The SHA-256 of a record written earlier in this payload.
_T_CITE = 0x0D
#: A pool record: ``u32 length | named record`` of a shared type.
_T_SHARED = 0x0E

_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
#: Bytes of a record ahead of what it holds: tag and length.
_RECORD_HEAD = 1 + _U32.size
_DIGEST = hashlib.sha256().digest_size
#: Bytes of a citation: tag and digest.
_CITE = 1 + _DIGEST
#: Memo ``(height, size, cites)`` of the record the table holds the
#: object (an envelope or a shared value) for: how many levels it
#: reaches below itself (an envelope's three fields are level 1), how
#: many bytes it stands for with every citation spelled out, and the
#: digests it cites directly (none, for a shared value).
_RECORD = "_wire_record"


class _Walk:
    """What an encode or decode carries down the recursion.

    One per table, made once: a payload's walk allocates nothing. The
    table-less one below is shared by every caller, which is sound
    because a payload is encoded or decoded in one go — no thread, no
    re-entry — and leaves its state empty.
    """

    __slots__ = (
        "table", "deepest", "spelled", "cites", "pool", "reached", "seen",
        "records",
    )

    def __init__(self, table: "EnvelopeTable | None" = None) -> None:
        self.table = table
        # Of the record (or root) being walked, each relative to it:
        #: depth of its deepest node — only non-empty containers and
        #: citations raise it, a leaf sits one below a container that
        #: already did;
        self.deepest = 0
        #: bytes its citations stand for beyond their own;
        self.spelled = 0
        #: the digests it cites.
        self.cites: list[bytes] = []
        # Of the payload being walked:
        #: digest -> ``(value, height, size)`` of a record met (decoding;
        #: a shared record is ``(None, start, stop)`` until first cited)
        #: or ``(digest, height, size)`` of one written (encoding);
        self.pool: dict[bytes, tuple] = {}
        #: digests cited so far — all of the pool by the end (decoding);
        self.reached: set[bytes] = set()
        #: ``id()`` -> the pool entry of an object encoded already;
        self.seen: dict[int, tuple] = {}
        #: the records written so far.
        self.records = bytearray()

    def reset(self) -> None:
        """Forget the payload: nothing of it may outlive the call."""
        self.deepest = 0
        self.pool.clear()
        self.reached.clear()
        self.seen.clear()
        self.records.clear()
        self.cites.clear()
        self.spelled = 0


#: The walk of the table-less codec.
_PLAIN = _Walk()


def _write_varint(out: bytearray, n: int) -> None:
    while True:
        low = n & 0x7F
        n >>= 7
        if n:
            out.append(low | 0x80)
        else:
            out.append(low)
            return


def _read_varint(buf: memoryview, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    count = 0
    while True:
        if pos >= end:
            raise WireError("truncated varint")
        byte = buf[pos]
        pos += 1
        count += 1
        if count > MAX_VARINT_BYTES:
            raise WireError("varint exceeds the byte ceiling")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


def _encode_value(out: bytearray, value: Any, depth: int, walk: _Walk) -> None:
    if depth > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if value is None:
        out.append(_T_NONE)
        return
    if isinstance(value, bool):  # must precede int: bool is an int subclass
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if isinstance(value, int):
        if value.bit_length() > 7 * MAX_VARINT_BYTES - 1:
            raise WireError("integer exceeds the varint ceiling")
        out.append(_T_INT)
        _write_varint(out, _zigzag(value))
        return
    if isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
        return
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(encoded))
        out += encoded
        return
    if isinstance(value, bytes):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
        return
    cls = type(value)
    registered = _BY_TYPE.get(cls)
    if registered is not None:
        if cls is SignedMessage or (depth and cls in _SHARED):
            _encode_citation(out, value, depth, walk)
            return
        wire_name, to_fields = registered
        name = wire_name.encode("utf-8")
        out.append(_T_REG)
        _write_varint(out, len(name))
        out += name
        fields = tuple(to_fields(value))
        _write_varint(out, len(fields))
        if fields and depth >= walk.deepest:
            walk.deepest = depth + 1
        for field in fields:
            _encode_value(out, field, depth + 1, walk)
        return
    if isinstance(value, (tuple, list)):
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        if value and depth >= walk.deepest:
            walk.deepest = depth + 1
        for item in value:
            _encode_value(out, item, depth + 1, walk)
        return
    if isinstance(value, dict):
        if value and depth >= walk.deepest:
            walk.deepest = depth + 1
        # Canonically sorted by encoded key: equal dicts, equal bytes.
        items = []
        for key, val in value.items():
            key_out = bytearray()
            _encode_value(key_out, key, depth + 1, walk)
            val_out = bytearray()
            _encode_value(val_out, val, depth + 1, walk)
            items.append((bytes(key_out), bytes(val_out)))
        out.append(_T_DICT)
        _write_varint(out, len(items))
        for key_bytes, val_bytes in sorted(items):
            out += key_bytes
            out += val_bytes
        return
    if isinstance(value, (set, frozenset)):
        if value and depth >= walk.deepest:
            walk.deepest = depth + 1
        members = []
        for item in value:
            item_out = bytearray()
            _encode_value(item_out, item, depth + 1, walk)
            members.append(bytes(item_out))
        out.append(_T_SET)
        _write_varint(out, len(members))
        for member in sorted(members):
            out += member
        return
    raise WireError(f"type {type(value).__name__} is not wire-encodable")


def _encode_citation(out: bytearray, value: Any, depth: int, walk: _Walk) -> None:
    """Cite ``value``'s record, writing it first unless the pool has it."""
    entry = walk.seen.get(id(value))
    if entry is None:
        # The first thing the root pools, if an envelope, is the one a
        # broadcast re-wraps per destination: the table keeps its records
        # (a record's own fields are walked table-less, so only that one).
        table = walk.table
        if walk.pool or type(value) is not SignedMessage:
            table = None
        if table is not None:
            entry = table.spliced(value, walk)
        if entry is None:
            entry = _encode_record(value, walk, table)
        walk.seen[id(value)] = entry
    key, height, size = entry
    reach = depth + height
    if reach > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if reach > walk.deepest:
        walk.deepest = reach
    walk.spelled += size - _CITE
    walk.cites.append(key)
    if depth:  # the root envelope is its record, the payload's last
        out.append(_T_CITE)
        out += key


def _encode_record(
    value: Any, walk: _Walk, table: "EnvelopeTable | None"
) -> tuple[bytes, int, int]:
    """``value``'s pool entry, its record appended if no equal one was.

    A record is walked at depth 0 whatever cites it: its bytes, and so
    its digest, depend on the value alone. ``id()`` (``walk.seen``) only
    saves the walk; an equal twin is walked again and found by digest.
    What it holds is walked table-less: ``table`` remembers ``value`` alone.
    """
    enclosing = walk.deepest, walk.spelled, walk.cites, walk.table
    walk.spelled, walk.table, cites = 0, None, []
    walk.cites = cites
    record = bytearray(_RECORD_HEAD)  # the length is patched in below
    try:
        if type(value) is SignedMessage:
            record[0] = _T_ENVELOPE
            walk.deepest = 1  # its three fields
            for field in (value.body, value.cert, value.signature):
                _encode_value(record, field, 1, walk)
            size = len(record)  # spelled in place, an envelope is its record
        else:
            record[0] = _T_SHARED
            walk.deepest = 0
            _encode_value(record, value, 0, walk)
            if cites:
                raise WireError(f"shared {type(value).__name__} holds a pooled value")
            size = len(record) - _RECORD_HEAD  # ... a shared value its named record
        _U32.pack_into(record, 1, len(record) - _RECORD_HEAD)
        size += walk.spelled
        height = walk.deepest
    finally:
        walk.deepest, walk.spelled, walk.cites, walk.table = enclosing
    if size > MAX_FRAME:
        raise WireError("payload spells out beyond MAX_FRAME")
    key = hashlib.sha256(record).digest()
    entry = walk.pool.get(key)
    if entry is None:
        entry = walk.pool[key] = (key, height, size)
        walk.records += record
    if table is not None:
        table.remember(value, entry, tuple(cites), walk)
    return entry


def _read_count(buf: memoryview, pos: int, end: int) -> tuple[int, int]:
    """A container/length prefix, sanity-bounded by the remaining bytes."""
    count, pos = _read_varint(buf, pos, end)
    if count > end - pos:
        # Every item/byte needs at least one payload byte, so a count
        # beyond the remainder is a hostile prefix, not a short read.
        raise WireError("declared length exceeds the enclosing payload")
    return count, pos


def _decode_value(
    buf: memoryview, pos: int, end: int, depth: int, walk: _Walk
) -> tuple[Any, int]:
    if depth > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if pos >= end:
        raise WireError("truncated payload")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        raw, pos = _read_varint(buf, pos, end)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        if pos + 8 > end:
            raise WireError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_count(buf, pos, end)
        try:
            return bytes(buf[pos : pos + length]).decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed str: {exc}") from exc
    if tag == _T_BYTES:
        length, pos = _read_count(buf, pos, end)
        return bytes(buf[pos : pos + length]), pos + length
    if tag == _T_TUPLE:
        count, pos = _read_count(buf, pos, end)
        if count and depth >= walk.deepest:
            walk.deepest = depth + 1
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos, end, depth + 1, walk)
            items.append(item)
        return tuple(items), pos
    if tag == _T_DICT:
        count, pos = _read_count(buf, pos, end)
        if count and depth >= walk.deepest:
            walk.deepest = depth + 1
        mapping: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_value(buf, pos, end, depth + 1, walk)
            value, pos = _decode_value(buf, pos, end, depth + 1, walk)
            try:
                mapping[key] = value
            except TypeError as exc:
                raise WireError(f"unhashable dict key: {exc}") from exc
        return mapping, pos
    if tag == _T_SET:
        count, pos = _read_count(buf, pos, end)
        if count and depth >= walk.deepest:
            walk.deepest = depth + 1
        members = []
        for _ in range(count):
            member, pos = _decode_value(buf, pos, end, depth + 1, walk)
            members.append(member)
        try:
            return frozenset(members), pos
        except TypeError as exc:
            raise WireError(f"unhashable set member: {exc}") from exc
    if tag == _T_REG:
        length, pos = _read_count(buf, pos, end)
        try:
            wire_name = bytes(buf[pos : pos + length]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"malformed type name: {exc}") from exc
        pos += length
        entry = _BY_NAME.get(wire_name)
        if entry is None:
            raise WireError(f"unknown wire type {wire_name!r}")
        cls, _to_fields, from_fields = entry
        if cls is SignedMessage:
            raise WireError("SignedMessage spelled as a named record")
        if depth and cls in _SHARED:
            raise WireError(f"shared {wire_name} spelled in place below the root")
        count, pos = _read_count(buf, pos, end)
        if count and depth >= walk.deepest:
            walk.deepest = depth + 1
        fields = []
        for _ in range(count):
            field, pos = _decode_value(buf, pos, end, depth + 1, walk)
            fields.append(field)
        try:
            return from_fields(tuple(fields)), pos
        except WireError:
            raise
        except Exception as exc:
            raise WireError(f"cannot rebuild {wire_name}: {exc}") from exc
    if tag == _T_CITE:
        return _decode_citation(buf, pos, end, depth, walk)
    if not depth and (tag == _T_ENVELOPE or tag == _T_SHARED):
        # A payload that opens with a record: the pool, then the root.
        return _decode_cited(buf, end, walk), end
    raise WireError(f"unknown tag {tag:#04x}")


def _record_span(buf: memoryview, pos: int, end: int) -> tuple[int, int]:
    """Where the record whose length field starts at ``pos`` begins and ends."""
    start = pos + _U32.size
    if start > end:
        raise WireError("truncated record length")
    stop = start + _U32.unpack_from(buf, pos)[0]
    if stop > end:
        raise WireError("record length exceeds the enclosing payload")
    return start, stop


def _decode_fields(
    buf: memoryview, start: int, stop: int, depth: int, walk: _Walk
) -> SignedMessage:
    """The envelope whose three fields, at ``depth``, fill ``start:stop``."""
    body, pos = _decode_value(buf, start, stop, depth, walk)
    cert, pos = _decode_value(buf, pos, stop, depth, walk)
    signature, pos = _decode_value(buf, pos, stop, depth, walk)
    if pos != stop:
        raise WireError("envelope fields end short of the declared length")
    return SignedMessage(body, cert, signature)


def _decode_citation(
    buf: memoryview, pos: int, end: int, depth: int, walk: _Walk
) -> tuple[Any, int]:
    """What the citation whose digest starts at ``pos`` stands for."""
    stop = pos + _DIGEST
    if stop > end:
        raise WireError("truncated citation")
    if not depth:
        raise WireError("the root is written in place, not cited")
    key = bytes(buf[pos:stop])
    entry = walk.pool.get(key)
    if entry is None:
        # Only this payload's own records count: not the table's, not
        # an earlier frame's, not one further down this payload.
        raise WireError("citation of no earlier record of this payload")
    value, height, size = entry
    if value is None:  # a shared record not cited before: (None, start, stop)
        entry = walk.pool[key] = _decode_shared(buf, height, size, walk)
        value, height, size = entry
        if walk.table is not None:
            walk.table.register(key, value, (height, size, ()))
    reach = depth + height
    if reach > MAX_DEPTH:
        raise WireError("payload nesting exceeds the depth ceiling")
    if reach > walk.deepest:
        walk.deepest = reach
    walk.spelled += size - _CITE
    walk.cites.append(key)
    return value, stop


def _decode_shared(
    buf: memoryview, start: int, stop: int, walk: _Walk
) -> tuple[Any, int, int]:
    """The pool entry of the shared record holding ``start:stop``, first cited."""
    if start == stop or buf[start] != _T_REG:
        raise WireError("shared record holds no named record")
    enclosing, cited = walk.deepest, len(walk.cites)
    walk.deepest = 0
    value, pos = _decode_value(buf, start, stop, 0, walk)
    if pos != stop:
        raise WireError("shared record ends short of the declared length")
    if type(value) not in _SHARED or len(walk.cites) != cited:
        raise WireError(f"{type(value).__name__} in a shared record")
    height, walk.deepest = walk.deepest, enclosing
    return value, height, stop - start


def payload_records(payload: bytes) -> list[bytes]:
    """The records a payload opens with, in order; the rest is its root."""
    found, pos = [], 0
    while pos < len(payload) and payload[pos] in (_T_ENVELOPE, _T_SHARED):
        _start, stop = _record_span(memoryview(payload), pos + 1, len(payload))
        found.append(bytes(payload[pos:stop]))
        pos = stop
    return found


def _decode_cited(buf: memoryview, end: int, walk: _Walk) -> Any:
    """A payload that opens with a record: the pool, then the root.

    Each record is bounds-checked and hashed whole. An envelope record
    the table holds is answered with the held object, unwalked; any
    other is decoded — three fields whose citations resolve in
    ``walk.pool``, this payload's own — and remembered with its height
    and spelled-out size, so that depth and length are judged on the
    spelled-out form. A shared record the table holds is answered the
    same way; any other waits for its first citation. Every record must
    be cited further down: no byte goes unread.
    """
    pool, reached, table, cites = walk.pool, walk.reached, walk.table, walk.cites
    pooled = pool.__contains__
    pos = hits = shared_hits = 0
    try:
        while pos < end:
            tag = buf[pos]
            if tag != _T_ENVELOPE and tag != _T_SHARED:
                break
            start, stop = _record_span(buf, pos + 1, end)
            key = hashlib.sha256(buf[pos:stop]).digest()
            if key in pool:
                raise WireError("record written twice")
            if tag == _T_SHARED:
                # It cites nothing: held means its bytes were decoded once.
                held = table.held(key) if table is not None else None
                if held is None:
                    pool[key] = (None, start, stop)
                else:
                    shared_hits += 1
                    height, size, _cited = held.__dict__[_RECORD]
                    pool[key] = (held, height, size)
                pos = stop
                continue
            envelope = table.held(key) if table is not None else None
            if envelope is not None:
                # Seen before, hence well-formed — in a payload that had
                # the records it cites. This one must have them too.
                hits += 1
                height, size, cited = envelope.__dict__[_RECORD]
                if not all(map(pooled, cited)):
                    raise WireError("citation of no earlier record of this payload")
                reached.update(cited)
            else:
                walk.deepest, walk.spelled = 1, 0
                cites.clear()
                envelope = _decode_fields(buf, start, stop, 1, walk)
                height, size = walk.deepest, stop - pos + walk.spelled
                if size > MAX_FRAME:
                    raise WireError("payload spells out beyond MAX_FRAME")
                reached.update(cites)
                if table is not None:
                    table.register(key, envelope, (height, size, tuple(cites)))
            pool[key] = (envelope, height, size)
            pos = stop
            if pos == end:  # a root envelope is the last record
                if len(reached) != len(pool) - 1:
                    raise WireError("record that nothing cites")
                return envelope
        walk.deepest = walk.spelled = 0
        value, stop = _decode_value(buf, pos, end, 0, walk)
        if stop != end:
            raise WireError("trailing bytes after payload")
        if end - pos + walk.spelled > MAX_FRAME:
            raise WireError("payload spells out beyond MAX_FRAME")
        if type(value) in _SHARED:
            raise WireError(f"shared {type(value).__name__} holds a pooled value")
        reached.update(cites)
        if len(reached) != len(pool):  # all cited were pooled: as many is all
            raise WireError("record that nothing cites")
        return value
    finally:
        walk.reset()
        if hits or shared_hits:
            table.stepped_over(hits, shared_hits)


class EnvelopeTable:
    """One endpoint's memory of the records crossing its wire.

    Certificates make one :class:`~repro.core.certificates.SignedMessage`
    arrive many times — alone, then in the pool of every frame whose
    certificates cite it — and its encoding/digest memos live on the
    Python object, so a decoder that builds a fresh twin per arrival
    throws them away (docs/PERFORMANCE.md §2). The table closes that gap
    on both sides of the codec without changing a byte of any frame:

    * **decoding** — a weak-valued map from the SHA-256 of an envelope
      record's exact bytes — the digest a citation of it carries — to
      the object they stand for. A record is length-prefixed, so a
      repeat is hashed, answered with the object this endpoint already
      holds — memos intact — and stepped over: no field is built.
      Entries die with their last outside reference: the table holds an
      envelope exactly as long as the protocol does, so there is no size
      and nothing to evict.
    * **encoding** — the pool records of the last outermost envelope
      encoded (the envelope held weakly, like every entry; its records
      as bytes with their digests, heights and sizes, no object). A
      broadcast re-wraps one envelope object per destination; every
      copy after the first is a splice. The envelope is entered into the
      same map, so the copy a node sends itself — and every later
      citation of it by a peer — is a hit on the object the node signed.

    * **shared records** — a client request rides in its INIT, in every
      CURRENT's vector and in the DECIDE's certificate. Its record cites
      nothing, so its bytes alone decide whether it is valid: the same
      map keeps each one decoded, keyed by the same digest, and a repeat
      is answered with the held object, canonical memo intact. A request
      that arrives as the root of a client's frame is entered under the
      digest of its record form, ``0x0E | u32 length | payload``, hashed
      only for a root of a shared type.

    The table serves records only, and only as a whole: what a citation
    *inside* a record stands for is looked up in the payload's own pool,
    never here. One table per endpoint, never shared: a replica may skip
    only work it did itself. Both halves are off under
    :func:`~repro.crypto.cache.caching_disabled`.
    """

    __slots__ = ("_interned", "_encoded", "_metrics", "_walk")

    def __init__(self, metrics: Any = NULL_METRICS) -> None:
        #: Envelopes and shared values, by the digest of their record.
        self._interned: weakref.WeakValueDictionary[bytes, Any] = (
            weakref.WeakValueDictionary()
        )
        self._walk = _Walk(self)
        #: (the envelope, its records, their pool entries, its own).
        self._encoded: (
            tuple[weakref.ref[SignedMessage], bytes, dict[bytes, tuple], tuple] | None
        ) = None
        self._metrics = metrics

    def __len__(self) -> int:
        """Records currently interned (alive somewhere in the process)."""
        return len(self._interned)

    def held(self, key: bytes) -> Any:
        """The envelope or shared value whose record hashes to ``key``, if alive."""
        return self._interned.get(key)

    def stepped_over(self, envelopes: int, shared: int) -> None:
        """Count the records of one payload that :meth:`held` answered."""
        if envelopes:
            self._metrics.inc("envelope_intern_hits", envelopes)
        if shared:
            self._metrics.inc("request_intern_hits", shared)

    def register(self, key: bytes, value: Any, record: tuple) -> None:
        """Keep the envelope or shared value just built from the record ``key``."""
        value.__dict__[_RECORD] = record
        self._interned[key] = value
        self._metrics.inc(
            "envelopes_interned" if type(value) is SignedMessage else "requests_interned"
        )

    def root(self, value: Any, payload: memoryview, height: int) -> Any:
        """The held twin of a shared ``value`` decoded as a payload's root,
        else ``value``, kept under the digest of its record form."""
        record = hashlib.sha256(bytes((_T_SHARED,)) + _U32.pack(len(payload)))
        record.update(payload)
        key = record.digest()
        held = self._interned.get(key)
        if held is not None:
            return held
        self.register(key, value, (height, len(payload), ()))
        return value

    def spliced(self, envelope: SignedMessage, walk: _Walk) -> tuple | None:
        """Open ``walk``'s pool with ``envelope``'s records if it was encoded last."""
        last = self._encoded
        if last is None or last[0]() is not envelope:
            return None
        walk.records += last[1]
        walk.pool.update(last[2])
        return last[3]

    def remember(
        self, envelope: SignedMessage, entry: tuple, cites: tuple, walk: _Walk
    ) -> None:
        """Keep the outermost envelope just encoded, ``walk``'s pool so far."""
        self._encoded = (
            weakref.ref(envelope), bytes(walk.records), dict(walk.pool), entry
        )
        key, height, size = entry
        if key not in self._interned:  # else it, or an equal twin, is held: it stays
            envelope.__dict__[_RECORD] = (height, size, cites)
            self._interned[key] = envelope


def _walk_for(table: EnvelopeTable | None) -> _Walk:
    walk = _PLAIN if table is None or not caching_enabled() else table._walk
    walk.deepest = 0
    return walk


def encode_payload(value: Any, table: EnvelopeTable | None = None) -> bytes:
    """Encode one message to payload bytes (no frame header).

    ``table`` splices the records of the envelope this endpoint encoded
    last instead of re-walking it; the bytes are the same either way.
    """
    walk = _walk_for(table)
    out = bytearray()
    try:
        _encode_value(out, value, 0, walk)
        if not walk.pool:
            return bytes(out)
        if type(value) in _SHARED:  # so is a shared record's: it cites nothing
            raise WireError(f"shared {type(value).__name__} holds a pooled value")
        if len(out) + walk.spelled > MAX_FRAME:
            raise WireError("payload spells out beyond MAX_FRAME")
        walk.records += out  # the pool, then the root
        return bytes(walk.records)
    finally:
        if walk.pool:
            walk.reset()


def decode_payload(
    data: bytes | memoryview, table: EnvelopeTable | None = None
) -> Any:
    """Decode one payload; any malformation raises :class:`WireError`.

    ``table`` interns its envelope and shared records, and a root of a
    shared type: one this endpoint already holds is returned as that
    very object.
    """
    buf = data if isinstance(data, memoryview) else memoryview(data)
    walk = _walk_for(table)
    try:
        value, pos = _decode_value(buf, 0, len(buf), 0, walk)
    except WireError:
        raise
    except Exception as exc:  # belt and braces: hostile input never crashes
        raise WireError(f"undecodable payload: {exc}") from exc
    if pos != len(buf):
        raise WireError("trailing bytes after payload")
    if type(value) in _SHARED and walk.table is not None:
        # Decoded, so it cites nothing: the payload is its named record.
        return walk.table.root(value, buf, walk.deepest)
    return value


def encode_frame(value: Any, table: EnvelopeTable | None = None) -> bytes:
    """Encode one message to a complete wire frame.

    ``table`` is the sending endpoint's :class:`EnvelopeTable`, if it
    keeps one.
    """
    payload = encode_payload(value, table=table)
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME"
        )
    return HEADER.pack(MAGIC, VERSION_CITED, len(payload)) + payload


def decode_frame(data: bytes, table: EnvelopeTable | None = None) -> Any:
    """Decode exactly one complete frame (loopback / tests)."""
    assembler = FrameAssembler(table=table)
    messages = assembler.feed(data)
    if len(messages) != 1 or assembler.buffered:
        raise WireError(
            f"expected exactly one frame, got {len(messages)} plus "
            f"{assembler.buffered} trailing bytes"
        )
    return messages[0]


#: The counter of decoded frames, spelled once.
_FRAMES_DECODED = f"frames_v{VERSION_CITED}"


class FrameAssembler:
    """Incremental frame parser over a byte stream.

    Feed arbitrary chunks as they arrive; complete frames decode to
    messages, partial frames wait for more bytes. A malformed stream
    raises :class:`WireError` — the caller drops the connection and
    counts a rejection. One assembler per connection: the error leaves
    the buffer unusable by design (resynchronising inside a hostile
    stream is not attempted).
    """

    __slots__ = ("_buffer", "_table", "_metrics")

    def __init__(
        self, table: EnvelopeTable | None = None, metrics: Any = NULL_METRICS
    ) -> None:
        self._buffer = bytearray()
        #: The receiving endpoint's envelope table (shared by all of its
        #: connections), or None to build every envelope afresh.
        self._table = table
        #: Where ``frames_v4`` counts each decoded frame.
        self._metrics = metrics

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Any]:
        self._buffer += data
        messages: list[Any] = []
        while len(self._buffer) >= HEADER.size:
            magic, version, length = HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise WireError(f"bad frame magic {magic!r}")
            if version not in SUPPORTED_VERSIONS:
                raise WireError(f"unsupported wire version {version}")
            if length > MAX_FRAME:
                raise WireError(f"oversized frame: {length} bytes declared")
            frame_end = HEADER.size + length
            if len(self._buffer) < frame_end:
                break  # partial frame: wait for more bytes
            # Zero-copy decode: slice a memoryview of the receive buffer
            # instead of copying the payload out. The view must be
            # released before the bytearray can shrink, so decode first,
            # then drop the consumed prefix.
            view = memoryview(self._buffer)
            try:
                message = decode_payload(
                    view[HEADER.size : frame_end], table=self._table
                )
            finally:
                view.release()
            del self._buffer[:frame_end]
            messages.append(message)
        if messages:
            # One inc however many pipelined frames one read carries.
            self._metrics.inc(_FRAMES_DECODED, len(messages))
        return messages


def _register_stack_types() -> None:
    """Register every message type the deployed service puts on the wire."""
    from repro.crypto.signatures import Signature
    from repro.messages.consensus import Init, VCurrent, VDecide, VNext
    from repro.net.messages import (
        Hello,
        ReadReply,
        ReadRequest,
        StatusReply,
        StatusRequest,
    )
    from repro.replication.kvstore import Command
    from repro.service.checkpoint import CheckpointCertificate
    from repro.service.messages import (
        Checkpoint,
        ClientReply,
        ClientRequest,
        SlotEnvelope,
        StateRequest,
        StateResponse,
    )

    for cls in (
        Signature,
        CertificateDigest,
        SignedMessage,
        Command,
        SlotEnvelope,
        Init,
        VCurrent,
        VNext,
        VDecide,
        ClientReply,
        Checkpoint,
        StateRequest,
        StateResponse,
        CheckpointCertificate,
        Hello,
        ReadRequest,
        ReadReply,
        StatusRequest,
        StatusReply,
    ):
        register_wire_type(cls)
    # Every INIT and every est_vect of a slot repeats the same batches.
    register_wire_type(ClientRequest, shared=True)
    # Certificate is a plain class sorting its entries itself; shipping
    # the entry tuple is enough to rebuild it canonically.
    register_wire_type(
        Certificate,
        to_fields=lambda cert: (cert.entries,),
        from_fields=lambda fields: Certificate(tuple(fields[0])),
    )


_register_stack_types()
