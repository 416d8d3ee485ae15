"""Tests: the wire codec (repro.net.wire).

Round-trips every registered stack type — including deeply nested
signed/certified messages — through the one payload grammar, which pools
every distinct envelope and shared value as a record and cites it by
digest, and then attacks the decoder the way a Byzantine peer would:
truncation, oversizing, version skew, bit flips, random garbage, hostile
length/count prefixes. The contract under attack is exactly one of two
outcomes per input: a clean :class:`WireError` (counted rejection) or a
valid decode. Never another exception type, never a hang. Tests over
``VERSIONS`` also run under each retired version byte (v1 TLV, v2
binary, v3 with envelope records in place), where the same frame must be
refused. ``TestEnvelopeRecord`` turns the attacks on the envelope
record, against a decoder that steps over records it has seen;
``TestCitedRecords`` on the pool and its citations; and
``TestCitedProperties`` holds the codec to its spelled-out form
(``tests.helpers.spelled``), the one ``MAX_FRAME`` and ``MAX_DEPTH``
are judged on.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import Certificate, CertificationAuthority, SignedMessage
from repro.crypto.cache import caching_disabled
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import Signature, SignatureScheme
from repro.errors import ReproError
from repro.messages.consensus import NULL, Init, VCurrent, VDecide
from repro.net import wire
from repro.net.messages import Hello, ReadReply, ReadRequest, StatusReply, StatusRequest
from repro.net.wire import (
    DEFAULT_VERSION,
    HEADER,
    MAGIC,
    MAX_DEPTH,
    MAX_FRAME,
    MAX_VARINT_BYTES,
    SUPPORTED_VERSIONS,
    VERSION_CITED,
    EnvelopeTable,
    FrameAssembler,
    WireError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    register_wire_type,
    _read_varint,
    _unzigzag,
    _write_varint,
    _zigzag,
)
from repro.observability.registry import MODULE_NET, MetricsRegistry
from repro.replication.kvstore import Command
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    SlotEnvelope,
    StateRequest,
    StateResponse,
)

from tests.helpers import (
    RECORD_HEAD,
    SignedWorkbench,
    cite,
    envelope_trees,
    envelopes,
    recited,
    records,
    spelled,
)


def signed_vdecide(slot: int = 3) -> SignedMessage:
    """A realistic certified message: signed VDecide over signed VCurrents."""
    keys = KeyAuthority(4, seed=11 * 1_000_003 + slot)
    scheme = SignatureScheme(keys)
    vect = ("a", "b", NULL, "d")
    entries = tuple(
        CertificationAuthority(scheme, keys.signer_for(pid)).make(
            VCurrent(sender=pid, round=1, est_vect=vect)
        )
        for pid in range(3)
    )
    return CertificationAuthority(scheme, keys.signer_for(0)).make(
        VDecide(sender=0, est_vect=vect), cert=Certificate(entries)
    )


SAMPLES = [
    None,
    True,
    0,
    -(2**70),
    3.25,
    "héllo",
    b"\x00\xff",
    (1, 2, ("nested", b"x")),
    {"k": (1, 2), "j": None},
    frozenset({1, "two"}),
    Command("set", "k1", "v1"),
    ClientRequest(client=4, req_id=9, command=Command("set", "k", "v")),
    ClientReply(replica=1, client=4, req_id=9, slot=2),
    Checkpoint(sender=2, count=4, digest="ab" * 32),
    StateRequest(replica=3, applied=7),
    Hello(cluster="deadbeef", peer=2, role="replica", mac=b"\x01" * 8),
    ReadRequest(client=5, req_id=1, key="k1"),
    ReadReply(replica=0, client=5, req_id=1, key="k1", found=False,
              value=None, applied=3),
    StatusRequest(client=5, req_id=2),
    StatusReply(replica=1, client=5, req_id=2, applied=4, committed=9,
                store_applied=9, digest="ff" * 32, stable_count=4,
                transfers=1, suffix_rejections=0),
    Signature(signer=2, mac=b"\x99" * 16),
    signed_vdecide(),
    StateResponse(
        replica=1,
        count=4,
        snapshot=(("k1", "v1"),),
        executed=((4, 1), (5, 2)),
        store_applied=4,
        certificate=None,
        suffix=((4, ("a", NULL, NULL, "d"), signed_vdecide(4)),),
    ),
]

#: Version bytes of the grammars before cited records (v1 TLV, v2
#: binary, v3 with envelope records in place): no node sends them, and
#: a frame carrying one is refused like any other unassigned byte.
RETIRED = (1, 2, 3)
#: A test over it runs under every version byte ever assigned: under the
#: one in use it checks its property, under a retired one that the very
#: frame it checks is refused.
VERSIONS = pytest.mark.parametrize("version", (*RETIRED, *SUPPORTED_VERSIONS))

#: A table that has interned (and, through WARM, keeps alive) every
#: envelope of SAMPLES: tampered frames whose nested spans survive
#: intact hit it, the rest miss — both must stay contained.
WARM_TABLE = EnvelopeTable()
WARM = [decode_frame(encode_frame(value), table=WARM_TABLE) for value in SAMPLES]


def framed(value: Any, version: int = DEFAULT_VERSION) -> bytes:
    """``value``'s frame with its version byte set to ``version``."""
    frame = bytearray(encode_frame(value))
    frame[2] = version
    return bytes(frame)


def refused(frame: bytes) -> None:
    """``frame`` is a WireError wherever a frame is decoded, warm table or not."""
    for table in (None, WARM_TABLE):
        with pytest.raises(WireError):
            decode_frame(frame, table=table)
        with pytest.raises(WireError):
            FrameAssembler(table=table).feed(frame)


def in_use(version: int, frame: bytes) -> bool:
    """Whether ``version`` is the one in use; a retired one's ``frame`` is refused."""
    if version in RETIRED:
        refused(frame)
        return False
    assert frame[2] == version
    return True


class TestRoundTrips:
    @VERSIONS
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_payload_roundtrip(self, value, version):
        payload = encode_payload(value)
        assert decode_payload(payload) == value
        # The payload has no version; the byte ahead of it decides
        # whether anybody decodes it.
        frame = HEADER.pack(MAGIC, version, len(payload)) + payload
        if in_use(version, frame):
            assert frame == encode_frame(value)

    @VERSIONS
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_frame_roundtrip(self, value, version):
        frame = framed(value, version)
        if in_use(version, frame):
            assert decode_frame(frame) == value

    def test_default_version_is_binary(self):
        message = signed_vdecide()
        frame = encode_frame(message)
        assert frame[2] == DEFAULT_VERSION == VERSION_CITED
        # One default: the payload entry points agree with the frame's.
        payload = encode_payload(message)
        assert payload == frame[HEADER.size :]
        assert decode_payload(payload) == message

    def test_binary_is_more_compact_on_certified_traffic(self):
        # Citing pays where certificates repeat: a DECIDE's CURRENTs all
        # carry the same INITs, and every vector the same requests (at
        # 33 bytes a citation, barely shorter than these 49-byte ones).
        payload = encode_payload(DECIDE)
        assert len(payload) < 0.55 * len(spelled(payload))

    @VERSIONS
    def test_certificate_survives_canonical_ordering(self, version):
        message = signed_vdecide()
        frame = framed(message, version)
        if in_use(version, frame):
            decoded = decode_frame(frame)
            assert decoded.cert.entries == message.cert.entries
            assert decoded.signature == message.signature

    def test_assembler_reassembles_mixed_version_byte_dribble(self):
        # Frames dribble in seven bytes at a time and are counted where
        # they are decoded; a retired version byte behind them is refused
        # once its header is whole, not before.
        stream = b"".join(encode_frame(value) for value in SAMPLES)
        registry = MetricsRegistry()
        assembler = FrameAssembler(metrics=registry.scope(MODULE_NET, 0))
        out = []
        for i in range(0, len(stream), 7):
            out.extend(assembler.feed(stream[i : i + 7]))
        assert out == SAMPLES
        assert registry.counter_total(
            MODULE_NET, f"frames_v{VERSION_CITED}"
        ) == len(SAMPLES)
        retired = framed(SAMPLES[0], RETIRED[-1])
        assert assembler.feed(retired[:2]) == []
        with pytest.raises(WireError):
            assembler.feed(retired[2:])

    def test_register_rejects_duplicate_names(self):
        class Fresh:
            pass

        with pytest.raises(WireError):
            register_wire_type(Fresh, name="Command")

    def test_a_shared_type_keeps_a_dict_and_weak_references(self):
        # An envelope table holds shared values weakly, with a memo in
        # their __dict__: a slotted type is refused when declared, not
        # by every frame that pools one of its values.
        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            n: int

        with pytest.raises(WireError, match="weak references"):
            register_wire_type(Slotted, name="test.Slotted", shared=True)
        assert ClientRequest.__dictoffset__ and ClientRequest.__weakrefoffset__


class TestHostileFrames:
    """Satellite: fuzzed malformed frames are rejections, never crashes."""

    def assert_rejected_or_decoded(self, data: bytes) -> None:
        for table in (None, WARM_TABLE):
            try:
                decode_frame(data, table=table)
            except WireError:
                pass  # the only acceptable exception type

    def test_warm_table_is_actually_consulted(self):
        assert len(WARM_TABLE) > 0
        assert decode_frame(encode_frame(SAMPLES[-1]), table=WARM_TABLE) == SAMPLES[-1]

    def test_truncated_frames_with_a_table(self):
        frame = encode_frame(SAMPLES[-1])
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut], table=WARM_TABLE)

    @VERSIONS
    def test_truncated_frames(self, version):
        frame = framed(SAMPLES[-1], version)
        in_use(version, frame)
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])

    @VERSIONS
    def test_trailing_garbage(self, version):
        frame = framed((1, 2, 3), version)
        in_use(version, frame)
        with pytest.raises(WireError):
            decode_frame(frame + b"\x00")

    @VERSIONS
    def test_wrong_magic(self, version):
        frame = bytearray(framed(1, version))
        frame[0] ^= 0xFF
        refused(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(encode_frame(1))
        frame[2] = max(SUPPORTED_VERSIONS) + 1
        with pytest.raises(WireError):
            decode_frame(bytes(frame))
        frame[2] = 0
        with pytest.raises(WireError):
            decode_frame(bytes(frame))

    @VERSIONS
    def test_cross_version_relabeling_is_contained(self, version):
        # Every frame relabelled with ``version``: a payload under a
        # retired grammar's byte is refused before a byte of it is read
        # — never parsed under the wrong grammar — and under the byte in
        # use it decodes, the warm table or not.
        for value in SAMPLES:
            frame = framed(value, version)
            if in_use(version, frame):
                assert decode_frame(frame) == decode_frame(frame, table=WARM_TABLE) == value

    def test_oversized_declared_length(self):
        for version in SUPPORTED_VERSIONS:
            header = HEADER.pack(MAGIC, version, MAX_FRAME + 1)
            with pytest.raises(WireError):
                decode_frame(header + b"\x00" * 16)
            with pytest.raises(WireError):
                FrameAssembler().feed(header)

    @VERSIONS
    def test_depth_bomb(self, version):
        value = "leaf"
        for _ in range(MAX_DEPTH + 2):
            value = (value,)
        with pytest.raises(WireError):
            encode_payload(value)
        # Written by hand, the frame is refused under any version byte.
        bomb = b"\x07\x01" * (MAX_DEPTH + 2) + b"\x00"
        refused(HEADER.pack(MAGIC, version, len(bomb)) + bomb)

    @VERSIONS
    def test_unregistered_type_is_unencodable(self, version):
        class Alien:
            pass

        with pytest.raises(WireError):
            encode_payload(Alien())
        # ... and a frame naming one is refused under any version byte.
        named = b"\x0a\x05Alien\x00"
        refused(HEADER.pack(MAGIC, version, len(named)) + named)

    def test_binary_varint_ceiling(self):
        with pytest.raises(WireError):
            encode_payload(1 << (7 * MAX_VARINT_BYTES + 7))

    def test_binary_hostile_count_prefix(self):
        # A tuple declaring 2**40 items inside a 16-byte payload must be
        # rejected up front, not allocated.
        payload = bytearray([0x07])  # tuple tag
        n = 1 << 40
        while True:
            low = n & 0x7F
            n >>= 7
            payload.append(low | 0x80 if n else low)
            if not n:
                break
        frame = HEADER.pack(MAGIC, VERSION_CITED, len(payload)) + bytes(payload)
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_binary_unknown_tag(self):
        # 0x0B is unassigned, and so is everything past 0x0E.
        for tag in (b"\xee", b"\x0b"):
            with pytest.raises(WireError):
                decode_frame(HEADER.pack(MAGIC, VERSION_CITED, 1) + tag)

    @VERSIONS
    def test_every_single_bitflip_is_contained(self, version):
        frame = bytearray(framed(SAMPLES[-1], version))
        for pos in range(len(frame)):
            for bit in (0x01, 0x80):
                mutated = bytearray(frame)
                mutated[pos] ^= bit
                self.assert_rejected_or_decoded(bytes(mutated))

    @VERSIONS
    def test_random_tampering_fuzz(self, version):
        rng = random.Random(42)
        frames = [bytearray(framed(value, version)) for value in SAMPLES]
        for trial in range(400):
            frame = bytearray(rng.choice(frames))
            for _ in range(rng.randint(1, 9)):
                frame[rng.randrange(len(frame))] = rng.randrange(256)
            self.assert_rejected_or_decoded(bytes(frame))

    @VERSIONS
    def test_random_garbage_fuzz(self, version):
        rng = random.Random(7)
        for trial in range(400):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
            self.assert_rejected_or_decoded(blob)
            self.assert_rejected_or_decoded(
                HEADER.pack(MAGIC, version, len(blob)) + blob
            )

    @VERSIONS
    def test_assembler_survives_tampered_stream_then_raises(self, version):
        good = framed("before", version)
        bad = bytearray(framed("after", version))
        bad[0] ^= 0xFF  # corrupt the magic of the second frame
        assembler = FrameAssembler()
        with pytest.raises(WireError):
            assembler.feed(good + bytes(bad))

    def test_wire_error_is_a_repro_error(self):
        assert issubclass(WireError, ReproError)


# -- envelope records, and the pool that holds them ---------------------------

BENCH = SignedWorkbench(4)
#: Three levels of certificates: a relay citing the coordinator's
#: CURRENT, which cites three INITs.
CURRENT = BENCH.coordinator_current()
RELAY = BENCH.relay_current(1, CURRENT)
OTHER_RELAY = BENCH.relay_current(2, CURRENT)
INIT = CURRENT.cert.entries[0]
RELAY_FRAME = encode_frame(SlotEnvelope(2, RELAY))


def decide_shaped() -> SignedMessage:
    """A DECIDE as a slot's last frame carries it.

    Three CURRENTs — the coordinator's and two relays of it — that all
    cite the same three INITs, and in every INIT and every vector the
    same batches of client requests.
    """
    requests = [
        ClientRequest(client=4, req_id=i, command=Command("set", f"k{i}", "v" * 8))
        for i in range(3)
    ]
    inits = [
        BENCH.signed_init(pid, (requests[pid], requests[(pid + 1) % 3]))
        for pid in range(3)
    ]
    vect = tuple(init.body.value for init in inits) + (NULL,)
    current = BENCH.authorities[1].make(
        VCurrent(sender=1, round=1, est_vect=vect), Certificate(tuple(inits))
    )
    relays = [BENCH.relay_current(pid, current) for pid in (2, 3)]
    return BENCH.authorities[0].make(
        VDecide(sender=0, est_vect=vect), Certificate((current, *relays))
    )


DECIDE = decide_shaped()
DECIDE_PAYLOAD = encode_payload(SlotEnvelope(9, DECIDE))
#: A client request whose record reaches REQUEST_HEIGHT levels below
#: itself: its fields, the Command's, the value's items, ("w",)'s item.
REQUEST = ClientRequest(client=4, req_id=77, command=Command("set", "k", ("v", ("w",))))
REQUEST_HEIGHT = 4


def record_of(envelope: SignedMessage) -> bytes:
    """An envelope alone ends with its record: ``0x0C | length | fields``."""
    payload = encode_payload(envelope)
    record = records(payload)[-1]
    assert payload.endswith(record) and record[0] == 0x0C
    return record


def shared(named: bytes) -> bytes:
    """The shared record holding ``named``: ``0x0E | length | named record``."""
    return b"\x0e" + len(named).to_bytes(4, "big") + named


def hand_made(body: bytes, signature: bytes = b"\x00") -> bytes:
    """The envelope record of ``SignedMessage(<body>, None, <signature>)``."""
    fields = body + b"\x00" + signature
    return b"\x0c" + len(fields).to_bytes(4, "big") + fields


def warm_table(*held: Any) -> tuple[EnvelopeTable, list]:
    """A table that has decoded ``held``, and what keeps the entries alive."""
    table = EnvelopeTable()
    return table, [decode_payload(encode_payload(e), table=table) for e in held]


def outcome(payload: bytes, table: EnvelopeTable | None):
    """The decoded value, or WireError — the only two things allowed."""
    try:
        return decode_payload(payload, table=table)
    except WireError:
        return WireError


def agreed(payload: bytes, tables) -> Any:
    """What every one of ``tables`` makes of ``payload``: one outcome."""
    results = [outcome(payload, table) for table, _alive in tables]
    assert all(
        (result is WireError) == (results[0] is WireError) for result in results
    )
    if results[0] is not WireError:
        assert all(result == results[0] for result in results)
    return results[0]


class TestEnvelopeRecord:
    """The envelope record, attacked with and without a table.

    A table that holds the frame's nested envelopes answers their
    records without walking them; a table that holds the whole relay
    answers every record of the frame. Neither may accept what the plain
    decoder rejects, or the reverse.
    """

    TABLES = {
        "none": (None, []),
        "nested": warm_table(CURRENT),
        "whole": warm_table(RELAY),
    }

    def decodes(self, data: bytes) -> None:
        """Every table yields what the plain decoder yields for ``data``."""
        results = []
        for table, _alive in self.TABLES.values():
            try:
                results.append(decode_frame(data, table=table))
            except WireError:
                results.append(WireError)
        assert all(result == results[0] for result in results)

    def test_every_single_byte_flip_is_contained(self):
        for pos in range(len(RELAY_FRAME)):
            for bit in (0x01, 0x80, 0xFF):
                mutated = bytearray(RELAY_FRAME)
                mutated[pos] ^= bit
                self.decodes(bytes(mutated))

    def test_every_truncation_is_rejected(self):
        for cut in range(len(RELAY_FRAME)):
            for table, _alive in self.TABLES.values():
                with pytest.raises(WireError):
                    decode_frame(RELAY_FRAME[:cut], table=table)

    @pytest.mark.parametrize("envelope", [RELAY, CURRENT, INIT], ids=["outer", "nested", "leaf"])
    @pytest.mark.parametrize("delta", [1, -1], ids=["one-more", "one-less"])
    def test_declared_length_off_by_one(self, envelope, delta):
        start = RELAY_FRAME.index(record_of(envelope))
        declared = int.from_bytes(RELAY_FRAME[start + 1 : start + RECORD_HEAD], "big")
        mutated = bytearray(RELAY_FRAME)
        mutated[start + 1 : start + RECORD_HEAD] = (declared + delta).to_bytes(4, "big")
        for table, _alive in self.TABLES.values():
            with pytest.raises(WireError):
                decode_frame(bytes(mutated), table=table)

    @pytest.mark.parametrize("envelope", [RELAY, CURRENT, INIT], ids=["outer", "nested", "leaf"])
    def test_declared_length_beyond_the_enclosing_payload(self, envelope):
        start = RELAY_FRAME.index(record_of(envelope))
        room = len(RELAY_FRAME) - (start + RECORD_HEAD)
        for declared in (room + 1, MAX_FRAME, 0xFFFFFFFF):
            mutated = bytearray(RELAY_FRAME)
            mutated[start + 1 : start + RECORD_HEAD] = declared.to_bytes(4, "big")
            for table, _alive in self.TABLES.values():
                with pytest.raises(WireError):
                    decode_frame(bytes(mutated), table=table)

    def test_a_length_field_cut_short(self):
        for cut in range(1, RECORD_HEAD):
            with pytest.raises(WireError):
                decode_payload(record_of(INIT)[:cut])

    def test_the_record_belongs_to_v3_alone(self):
        # In place, that is: the record spelled where it stands, as v3
        # sent it, is refused. A record may not hold one (RELAY's
        # spelling has CURRENT's record where a citation belongs) ...
        in_place = spelled(encode_payload(RELAY))
        assert in_place.startswith(b"\x0c") and in_place != record_of(RELAY)
        table, _alive = warm_table(RELAY)
        for held in (None, table):
            with pytest.raises(WireError):
                decode_payload(in_place, table=held)
            # ... nor may a value below the root ...
            with pytest.raises(WireError):
                decode_payload(b"\x07\x01" + in_place, table=held)
            # ... and SignedMessage is never spelled by name (v2 did).
            named = b"\x0a\x0dSignedMessage\x03" + b"\x00" * 3
            with pytest.raises(WireError):
                decode_payload(named, table=held)

    @pytest.mark.parametrize("held", [RELAY, CURRENT, INIT], ids=["outer", "nested", "leaf"])
    @pytest.mark.parametrize("sent", [RELAY, OTHER_RELAY], ids=["seen", "unseen"])
    def test_a_deep_hit_raises_exactly_where_a_full_walk_would(self, held, sent):
        # First seen at depth 0, then cited under ever more one-item
        # tuples: the table answers from the height it recorded, the
        # plain decoder from the height it works out. Level for level
        # one verdict.
        table, alive = warm_table(held)
        pool = encode_payload(sent)  # ends with sent's record: the root, uncited
        cited = cite(record_of(sent))
        verdicts = []
        for levels in range(MAX_DEPTH + 3):
            payload = pool + b"\x07\x01" * levels + cited if levels else pool
            plain = outcome(payload, None)
            assert (outcome(payload, table) is WireError) == (plain is WireError), levels
            verdicts.append(plain is not WireError)
        fits = verdicts.count(True)
        assert verdicts == [True] * fits + [False] * (len(verdicts) - fits)
        # INIT's fields are leaves two levels down; each certificate
        # adds three (the Certificate, its entry tuple, the entry).
        assert fits == MAX_DEPTH + 1 - 8
        # The accepted ones really were answered from the table.
        found = decode_payload(pool + b"\x07\x01" * (fits - 1) + cited, table=table)
        for _ in range(fits - 1):
            (found,) = found
        assert any(e is alive[0] for e in envelopes(found)) == (
            held is not RELAY or sent is RELAY
        )


# -- the pool and its citations ----------------------------------------------


def blob(size: int) -> bytes:
    """``size`` zero bytes as a value: ``0x06 | varint(size) | bytes``."""
    length = bytearray()
    _write_varint(length, size)
    return b"\x06" + bytes(length) + bytes(size)


def doubling_pool(levels: int, pad: int = 0) -> list[bytes]:
    """``levels + 1`` records, each citing the one before it twice.

    The first holds 4 000 bytes; the last also ``pad`` bytes of
    signature. Spelled out, record *k* is twice record *k − 1*.
    """
    pool = [hand_made(blob(4000))]
    for level in range(levels):
        signature = blob(pad) if pad and level == levels - 1 else b"\x00"
        pool.append(hand_made(b"\x07\x02" + cite(pool[-1]) * 2, signature))
    return pool


def spelled_out(pool: list[bytes]) -> int:
    """Bytes the last record of a doubling pool stands for, spelled out."""
    size = len(pool[0])
    for cited, record in zip(pool, pool[1:]):
        size = len(record) + record.count(cite(cited)) * (size - 33)
    return size


class TestCitedRecords:
    """The pool of a payload, attacked with and without a warm table.

    ``record* root``: every record is hashed, a citation stands for a
    record met *earlier in the same payload* and for nothing else. The
    warm tables have seen the honest frame, so they answer its records
    unwalked; whatever they then make of a hostile payload must be what
    the table-less decoder makes of it.
    """

    TABLES = [(None, []), warm_table(DECIDE), warm_table(CURRENT, INIT)]
    POOL = records(DECIDE_PAYLOAD)
    ROOT = DECIDE_PAYLOAD[sum(map(len, POOL)) :]

    def test_the_frame_is_the_shape_claimed(self):
        kinds = [record[0] for record in self.POOL]
        # Three requests, three INITs, three CURRENTs, one DECIDE — each
        # once, children first — then the SlotEnvelope citing the DECIDE.
        assert kinds.count(0x0E) == 3 and kinds.count(0x0C) == 7
        assert self.ROOT.endswith(cite(self.POOL[-1]))
        assert agreed(DECIDE_PAYLOAD, self.TABLES) == SlotEnvelope(9, DECIDE)

    def test_every_single_byte_flip_is_contained(self):
        verdicts = set()
        for pos in range(len(DECIDE_PAYLOAD)):
            for bit in (0x01, 0x80):
                mutated = bytearray(DECIDE_PAYLOAD)
                mutated[pos] ^= bit
                verdicts.add(agreed(bytes(mutated), self.TABLES) is WireError)
        assert verdicts == {True, False}  # a flipped value byte still decodes

    def test_every_truncation_is_rejected(self):
        frame = encode_frame(SlotEnvelope(9, DECIDE))
        for cut in range(len(frame)):
            for table, _alive in self.TABLES:
                with pytest.raises(WireError):
                    decode_frame(frame[:cut], table=table)
        # Inside a frame's declared length a payload cut short is
        # rejected too — unless the cut falls right behind an envelope
        # record that, directly or not, cites every record before it:
        # that is the payload of that envelope, whole. (The first
        # CURRENT, the relay after it and the DECIDE; an INIT leaves a
        # request uncited, the second relay the first.)
        ends, whole = 0, {}
        for index, record in enumerate(self.POOL):
            ends += len(record)
            if record[0] == 0x0C and all(
                any(cite(earlier) in later for later in self.POOL[at + 1 : index + 1])
                for at, earlier in enumerate(self.POOL[:index])
            ):
                whole[ends] = record
        assert len(whole) == 3
        for cut in range(len(DECIDE_PAYLOAD)):
            left = agreed(DECIDE_PAYLOAD[:cut], self.TABLES)
            assert (left is WireError) == (cut not in whole)
            if cut in whole:
                assert record_of(left) == whole[cut]

    def test_a_dangling_citation(self):
        # Every record but one, each in turn: whatever cited it dangles —
        # also where the citing record itself is one a table holds.
        for missing in range(len(self.POOL)):
            pool = self.POOL[:missing] + self.POOL[missing + 1 :]
            assert agreed(b"".join(pool) + self.ROOT, self.TABLES) is WireError
        # The nearest thing to a self-citation that can be written (a
        # real one needs a fixed point of SHA-256): a record citing the
        # digest of what it is with the citation zeroed.
        blank = hand_made(b"\x0d" + bytes(32))
        assert agreed(hand_made(cite(blank)), self.TABLES) is WireError
        assert agreed(blank, self.TABLES) is WireError

    def test_a_forward_citation(self):
        # Same records, cited before they are written: every rotation
        # and the reversal put some record ahead of one it cites.
        for turn in range(1, len(self.POOL)):
            pool = self.POOL[turn:] + self.POOL[:turn]
            assert agreed(b"".join(pool) + self.ROOT, self.TABLES) is WireError
        assert agreed(b"".join(self.POOL[::-1]) + self.ROOT, self.TABLES) is WireError

    def test_the_root_is_never_a_citation(self):
        # A root envelope is the last record, a root request a named
        # record in place; neither may be cited from depth 0 ...
        assert agreed(b"".join(self.POOL) + cite(self.POOL[-1]), self.TABLES) is WireError
        assert agreed(self.POOL[0] + cite(self.POOL[0]), self.TABLES) is WireError
        # ... nor may a shared record hold a citation for a value.
        forwarding = shared(cite(self.POOL[0]))
        payload = self.POOL[0] + forwarding + b"\x07\x01" + cite(forwarding)
        assert agreed(payload, self.TABLES) is WireError

    def test_a_record_written_twice(self):
        for twice in range(len(self.POOL)):
            pool = self.POOL[: twice + 1] + self.POOL[twice:]
            assert agreed(b"".join(pool) + self.ROOT, self.TABLES) is WireError

    def test_a_shared_record_holds_a_value_of_a_shared_type(self):
        request = self.POOL[0]
        assert request[0] == 0x0E
        honest = request + b"\x07\x02" + cite(request) * 2
        first, second = agreed(honest, self.TABLES)
        assert isinstance(first, ClientRequest) and second is first
        for named in (
            encode_payload(Command("set", "k", "v")),  # registered, not shared
            encode_payload(7),  # not even a named record
            encode_payload(ReadRequest(client=5, req_id=1, key="k")),
            b"",
            request[RECORD_HEAD:] + b"\x00",  # a request, then one byte more
        ):
            record = shared(named)
            payload = record + b"\x07\x01" + cite(record)
            assert agreed(payload, self.TABLES) is WireError

    def test_a_shared_value_below_the_root_is_never_in_place(self):
        named = self.POOL[0][RECORD_HEAD:]
        request = decode_payload(named)
        assert isinstance(request, ClientRequest)
        in_place = spelled(encode_payload((request,)))
        assert in_place == b"\x07\x01" + named
        assert agreed(in_place, self.TABLES) is WireError
        # At the root it is, and is its own spelling.
        assert encode_payload(request) == named == spelled(named)

    def test_a_payload_ending_in_a_shared_record(self):
        assert self.POOL[0][0] == 0x0E
        assert agreed(self.POOL[0], self.TABLES) is WireError
        other = shared(encode_payload(ClientRequest(4, 99, Command("get", "k"))))
        assert agreed(b"".join(self.POOL) + other, self.TABLES) is WireError
        # ... or carrying anything at all after its root.
        assert agreed(DECIDE_PAYLOAD + other, self.TABLES) is WireError

    def test_a_record_that_nothing_cites(self):
        # Every payload byte is parsed or rejected; a record nobody
        # cites would be bytes nobody reads. Well-formed or not,
        # ahead of the pool, inside it or right before the root.
        request = shared(encode_payload(ClientRequest(4, 99, Command("get", "k"))))
        assert agreed(request + b"\x07\x01" + cite(request), self.TABLES) is not WireError
        for stray in (request, shared(b"\xff" * 7), hand_made(b"\x00"), hand_made(b"\xff")):
            for at in (0, 4, len(self.POOL)):
                pool = self.POOL[:at] + [stray] + self.POOL[at:]
                assert agreed(b"".join(pool) + self.ROOT, self.TABLES) is WireError
                # ... also where the root is the last record itself,
                assert agreed(b"".join(pool), self.TABLES) is WireError
            # ... and under a root that cites nothing at all.
            assert agreed(stray + b"\x00", self.TABLES) is WireError
        # One citation is enough, wherever it stands: the honest pool
        # under a root citing only its last record is the honest frame.
        assert agreed(b"".join(self.POOL) + b"\x07\x01" + cite(self.POOL[-1]), self.TABLES) == (DECIDE,)
        # A relay's pool does not make the DECIDE's: its records are
        # uncited there even on a table that holds every one of them.
        relay = encode_payload(DECIDE.cert.entries[1])
        assert agreed(relay, self.TABLES) == DECIDE.cert.entries[1]
        assert agreed(relay[: -len(records(relay)[-1])] + b"\x00", self.TABLES) is WireError

    def test_a_root_of_a_shared_type_cites_nothing(self):
        # Below the root a ClientRequest is a shared record, and a shared
        # record cites nothing — so a root request that does could never
        # be sent on inside an INIT. Both sides refuse it up front: the
        # decoder, or one request would stall its slot on every replica.
        inner = ClientRequest(4, 1, Command("set", "k", "v"))
        for smuggled in (INIT, inner, (7, (inner,)), {"k": CURRENT}):
            request = ClientRequest(4, 2, Command("set", "k", smuggled))
            for table in (None, EnvelopeTable()):
                with pytest.raises(WireError):
                    encode_payload(request, table=table)
                with pytest.raises(WireError):
                    encode_payload((request,), table=table)
            # What the encoder would have written had it not refused.
            pool = encode_payload((smuggled,))
            pool = pool[: sum(map(len, records(pool)))]
            in_place = encode_payload(Command("set", "k", smuggled))
            root = encode_payload(ClientRequest(4, 2, Command("set", "k", None)))
            assert root.endswith(encode_payload(Command("set", "k", None)))
            root = root[: -len(encode_payload(Command("set", "k", None)))] + in_place[len(pool) :]
            tables = [*self.TABLES, warm_table(smuggled) if smuggled is INIT else (None, [])]
            assert agreed(pool + root, tables) is WireError
            # The same bytes under a root that is not of a shared type decode.
            assert agreed(pool + in_place[len(pool) :], tables) == Command("set", "k", smuggled)
            # ... and as a shared record, cited: refused as well.
            record = shared(root)
            assert agreed(pool + record + b"\x07\x01" + cite(record), tables) is WireError

    def test_what_decodes_can_be_sent_on(self):
        # Whatever a replica accepts it may have to batch into an INIT:
        # every accepted variant of the honest frame — a prefix, a byte
        # flipped and the citations mended — re-encodes one level down.
        variants = [DECIDE_PAYLOAD[:cut] for cut in range(len(DECIDE_PAYLOAD) + 1)]
        for pos in range(0, len(DECIDE_PAYLOAD), 3):
            mutated = bytearray(DECIDE_PAYLOAD)
            mutated[pos] ^= 0x01
            variants.append(recited(DECIDE_PAYLOAD, bytes(mutated)))
        accepted = [
            value
            for payload in variants
            if payload is not None and (value := outcome(payload, None)) is not WireError
        ]
        assert len(accepted) > 100
        for value in accepted:
            assert decode_payload(encode_payload((value,))) == (value,)
            # One frame a value: nothing in it that the value does not need.
            assert encode_payload(decode_payload(encode_payload(value))) == encode_payload(value)

    def test_pool_tags_belong_to_v4_alone(self):
        # Records open a payload and citations resolve in it: neither
        # stands anywhere else ...
        table, _alive = warm_table(DECIDE)
        for held in (None, table):
            for payload in (
                cite(self.POOL[0]),
                b"\x07\x01" + cite(self.POOL[0]),
                b"\x07\x01" + self.POOL[0],
                self.POOL[0] + b"\x07\x02" + cite(self.POOL[0]) + self.POOL[1],
                self.POOL[0],
                self.POOL[0] + b"\x00",
            ):
                assert outcome(payload, held) is WireError
        # ... nor under a retired version byte, the honest frame's included.
        for version in RETIRED:
            refused(HEADER.pack(MAGIC, version, len(DECIDE_PAYLOAD)) + DECIDE_PAYLOAD)

    def test_the_doubling_pool_is_refused_at_exactly_max_frame(self):
        # 4 000 bytes doubled eleven times are just under MAX_FRAME
        # spelled out, in a payload of 5 KB; pad the last record to the
        # byte (a blob's tag and three length bytes replace one None).
        levels = 11
        slack = MAX_FRAME - spelled_out(doubling_pool(levels))
        assert 2**14 < slack < 2**21
        exact = doubling_pool(levels, pad=slack - 3)
        assert spelled_out(exact) == MAX_FRAME
        over = doubling_pool(levels, pad=slack - 2)
        deeper = exact + [hand_made(b"\x07\x02" + cite(exact[-1]) * 2)]
        table, alive = warm_table()
        alive.append(decode_payload(b"".join(exact), table=table))
        for held in (None, table):
            fits = outcome(b"".join(exact), held)
            assert fits is not WireError
            assert outcome(b"".join(exact[:-1]), held) is not WireError  # one level fewer
            assert outcome(b"".join(over), held) is WireError  # one byte more
            assert outcome(b"".join(deeper), held) is WireError  # one level more
            # The same bound under a root that is not a record.
            assert outcome(b"".join(exact) + b"\x07\x01" + cite(exact[-1]), held) is WireError
            assert outcome(b"".join(exact[:-1]) + b"\x07\x01" + cite(exact[-2]), held) is not WireError
        # The encoder draws the line at the same value: what fits spells
        # out to MAX_FRAME bytes to the byte, and the value one level up
        # is refused.
        assert encode_payload(fits) == b"".join(exact)
        assert len(spelled(b"".join(exact))) == MAX_FRAME
        assert decode_frame(encode_frame(fits)) is not None
        with pytest.raises(WireError):
            encode_frame(SignedMessage((fits, fits), None, None))
        # Without the bound five kilobytes would decode to a tree that
        # repr() or a canonical encoding walks for sixteen megabytes.
        bomb = b"".join(doubling_pool(levels + 1))
        assert len(bomb) < 5 * 1024 and spelled_out(doubling_pool(levels + 1)) > 16_000_000
        assert outcome(bomb, None) is WireError and outcome(bomb, table) is WireError

    def test_a_citation_chain_is_refused_at_exactly_max_depth(self):
        # Each record's body cites the record before it: one level each.
        chain = [hand_made(b"\x00")]
        while len(chain) <= MAX_DEPTH:
            chain.append(hand_made(cite(chain[-1])))
        table, alive = warm_table()
        alive.append(decode_payload(b"".join(chain[:MAX_DEPTH]), table=table))
        for held in (None, table):
            deepest = outcome(b"".join(chain[:MAX_DEPTH]), held)
            assert deepest is not WireError
            assert outcome(b"".join(chain), held) is WireError
            # One level fewer fits under a one-item tuple; this one does not.
            under = b"\x07\x01" + cite(chain[MAX_DEPTH - 2])
            assert outcome(b"".join(chain[: MAX_DEPTH - 1]) + under, held) is not WireError
            under = b"\x07\x01" + cite(chain[MAX_DEPTH - 1])
            assert outcome(b"".join(chain[:MAX_DEPTH]) + under, held) is WireError
        # The encoder agrees on the value.
        assert encode_payload(deepest) == b"".join(chain[:MAX_DEPTH])
        with pytest.raises(WireError):
            encode_payload(SignedMessage(deepest, None, None))

    def test_a_request_held_from_its_root_frame_is_cited_like_a_cold_one(self):
        # The table first decodes deep frames with no records: a walk
        # must not carry their depth into the request's root frame, which
        # enters the request under the height it works out there.
        table = EnvelopeTable()
        deep: Any = "x"
        for _ in range(MAX_DEPTH - REQUEST_HEIGHT):
            deep = (deep,)
        for _ in range(3):
            assert decode_frame(encode_frame(deep), table=table) == deep
        held = decode_frame(encode_frame(REQUEST), table=table)
        # Then an INIT and a CURRENT certificate cite it: one value,
        # warm table or none.
        init = BENCH.signed_init(0, (REQUEST,))
        current = BENCH.authorities[1].make(
            VCurrent(sender=1, round=1, est_vect=(init.body.value, NULL, NULL, NULL)),
            Certificate((init,)),
        )
        for value in (SlotEnvelope(5, init), SlotEnvelope(5, current)):
            frame = encode_frame(value)
            assert decode_frame(frame, table=table) == decode_frame(frame) == value
        # Cited under ever more one-item tuples, the held request is
        # judged on the height it was entered with, the cold one on the
        # height worked out: the same verdict level for level.
        (record,) = records(encode_payload((REQUEST,)))
        assert record[0] == 0x0E
        verdicts = []
        for levels in range(1, MAX_DEPTH + 1):
            payload = record + b"\x07\x01" * levels + cite(record)
            plain = outcome(payload, None)
            assert (outcome(payload, table) is WireError) == (plain is WireError), levels
            verdicts.append(plain is not WireError)
        fits = MAX_DEPTH - REQUEST_HEIGHT
        assert verdicts == [True] * fits + [False] * REQUEST_HEIGHT
        found = decode_payload(record + b"\x07\x01" * fits + cite(record), table=table)
        for _ in range(fits):
            (found,) = found
        assert found is held

    def test_a_good_frame_decodes_after_a_rejected_one_on_the_same_table(self):
        table = EnvelopeTable()
        good = encode_frame(SlotEnvelope(9, DECIDE))
        for missing in (0, 4, len(self.POOL) - 1):
            pool = self.POOL[:missing] + self.POOL[missing + 1 :]
            payload = b"".join(pool) + self.ROOT
            bad = HEADER.pack(MAGIC, VERSION_CITED, len(payload)) + payload
            with pytest.raises(WireError):
                decode_frame(bad, table=table)
            # Nothing of the rejected payload is left behind.
            walk = table._walk
            assert not walk.pool and not walk.seen and not walk.records
            assert decode_frame(good, table=table) == SlotEnvelope(9, DECIDE)
            assert encode_frame(SlotEnvelope(9, DECIDE), table=table) == good

    def test_every_version_on_one_connection(self):
        # Any version byte but the one in use — a retired grammar's or
        # one never assigned — is refused, on a warm table or none, and
        # leaves the table as it was: the next connection's good frame
        # decodes to the objects it holds.
        table = EnvelopeTable()
        message = SlotEnvelope(9, DECIDE)
        (held,) = FrameAssembler(table=table).feed(encode_frame(message))
        for version in (0, *RETIRED, 5, 255):
            frame = framed(message, version)
            for each in (None, table):
                with pytest.raises(WireError):
                    FrameAssembler(table=each).feed(frame)
                with pytest.raises(WireError):
                    decode_frame(frame, table=each)
        (again,) = FrameAssembler(table=table).feed(encode_frame(message))
        assert again == message and again.inner is held.inner


def _values(tree: Any, kind: type):
    """Every ``kind`` in ``tree``, repeats and all, outermost first."""
    if isinstance(tree, kind):
        yield tree
    if isinstance(tree, SignedMessage):
        parts = (tree.body, tree.cert)
    elif isinstance(tree, Certificate):
        parts = tree.entries
    elif isinstance(tree, (Init, VCurrent)):
        parts = (tree.value,) if isinstance(tree, Init) else tree.est_vect
    elif isinstance(tree, tuple):
        parts = tree
    else:
        parts = ()
    for part in parts:
        yield from _values(part, kind)


_BENCH_TREES = envelope_trees(BENCH)


class TestCitedProperties:
    """The codec says each thing once, and is judged on its spelled-out form."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_BENCH_TREES, min_size=1, max_size=3))
    def test_v4_and_v3_decode_to_the_value_encoded(self, trees):
        value = SlotEnvelope(1, tuple(trees))
        cited = encode_payload(value)
        assert decode_payload(cited) == value
        # The spelled-out form is the value's, whatever objects spell it.
        assert spelled(encode_payload(decode_payload(cited))) == spelled(cited)
        # What decodes can be sent on, one level down (batched, certified).
        assert decode_payload(encode_payload((decode_payload(cited),))) == (value,)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_BENCH_TREES, min_size=1, max_size=3))
    def test_the_bytes_depend_on_the_value_alone(self, trees):
        value = SlotEnvelope(1, tuple(trees))
        plain = encode_payload(value)
        table = EnvelopeTable()
        # Cold, then spliced, then with the table's memo of another value.
        assert encode_payload(value, table=table) == plain
        assert encode_payload(value, table=table) == plain
        assert encode_payload(SlotEnvelope(2, trees[-1]), table=table) == encode_payload(
            SlotEnvelope(2, trees[-1])
        )
        assert encode_payload(value, table=table) == plain
        with caching_disabled():
            assert encode_payload(value) == plain
            assert encode_payload(value, table=table) == plain
        # An equal value built of other objects spells the same.
        assert encode_payload(decode_payload(plain)) == plain
        assert encode_payload(decode_payload(plain, table=table), table=table) == plain

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_BENCH_TREES, min_size=1, max_size=3))
    def test_every_distinct_record_is_written_exactly_once(self, trees):
        value = tuple(trees)
        payload = encode_payload(value)
        pool = records(payload)
        assert len(set(pool)) == len(pool)
        spelling = lambda part: spelled(encode_payload(part))
        assert sum(record[0] == 0x0C for record in pool) == len(
            {spelling(e) for e in _values(value, SignedMessage)}
        )
        assert sum(record[0] == 0x0E for record in pool) == len(
            {spelling(r) for r in _values(value, ClientRequest)}
        )
        # Both sides of the codec hold the payload to MAX_FRAME exactly
        # where its spelled-out form reaches it.
        with mock.patch.object(wire, "MAX_FRAME", len(spelling(value))):
            assert decode_payload(payload) == value
            assert encode_payload(value) == payload
        with mock.patch.object(wire, "MAX_FRAME", len(spelling(value)) - 1):
            with pytest.raises(WireError):
                decode_payload(payload)
            with pytest.raises(WireError):
                encode_payload(value)

    @settings(max_examples=50, deadline=None)
    @given(_BENCH_TREES)
    def test_two_citations_of_one_record_decode_to_one_object(self, tree):
        # Table-less: the payload's own pool is what makes them one.
        first, second, (third,) = decode_payload(encode_payload((tree, tree, (tree,))))
        assert first is second and second is third and first == tree
        requests = list(_values(first, ClientRequest))
        for request in requests:
            assert all(other is request for other in requests if other == request)

    @pytest.mark.parametrize(
        "value",
        [
            ClientRequest(client=4, req_id=9, command=Command("set", "k", "v" * 64)),
            ReadRequest(client=5, req_id=1, key="k1"),
            ReadReply(replica=0, client=5, req_id=1, key="k1", found=True,
                      value="v" * 64, applied=3),
        ],
        ids=lambda v: type(v).__name__,
    )
    def test_a_pool_less_frame_is_v3_but_for_the_version_byte(self, value):
        # Nothing to pool, nothing cited: the payload is its own spelling.
        frame = encode_frame(value)
        payload = frame[HEADER.size :]
        assert frame[2] == VERSION_CITED and not records(payload)
        assert spelled(payload) == payload
        assert decode_frame(frame) == value


def _payloads() -> st.SearchStrategy:
    """Arbitrary codec-supported values: scalars nested in containers."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=16)
        | st.binary(max_size=16)
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=8,
    )


class TestCodecProperties:
    """Hypothesis properties of the binary primitives.

    The fuzz classes above throw *random* bytes at the decoder; these
    pin the algebraic contracts of the primitives themselves — zigzag
    and varint are total bijections on their domains, and the decoder
    never reads past a declared length no matter what follows it.
    """

    @given(st.integers())
    def test_zigzag_round_trips_and_is_non_negative(self, value):
        coded = _zigzag(value)
        assert coded >= 0
        assert _unzigzag(coded) == value

    @given(st.integers(), st.integers())
    def test_zigzag_is_injective(self, a, b):
        if a != b:
            assert _zigzag(a) != _zigzag(b)

    @given(st.integers(min_value=0))
    def test_varint_round_trips_consuming_exactly_its_encoding(self, value):
        out = bytearray()
        _write_varint(out, value)
        decoded, pos = _read_varint(memoryview(bytes(out)), 0, len(out))
        assert decoded == value
        assert pos == len(out)

    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_varint_is_injective(self, a, b):
        out_a, out_b = bytearray(), bytearray()
        _write_varint(out_a, a)
        _write_varint(out_b, b)
        assert (bytes(out_a) == bytes(out_b)) == (a == b)

    @given(st.integers(min_value=0), st.binary(max_size=32))
    def test_varint_read_never_passes_the_encoding_boundary(self, value, junk):
        out = bytearray()
        _write_varint(out, value)
        buf = bytes(out) + junk
        decoded, pos = _read_varint(memoryview(buf), 0, len(buf))
        assert decoded == value
        assert pos == len(out)  # the junk suffix is never touched

    @given(_payloads(), st.binary(min_size=1, max_size=64))
    def test_payload_decode_flags_bytes_past_the_declared_value(
        self, value, junk
    ):
        payload = encode_payload(value)
        with pytest.raises(WireError):
            decode_payload(payload + junk)

    @given(_payloads(), st.binary(max_size=HEADER.size - 1))
    def test_frame_decode_never_reads_past_the_declared_length(
        self, value, junk
    ):
        frame = encode_frame(value)
        assembler = FrameAssembler()
        messages = assembler.feed(frame + junk)
        assert len(messages) == 1
        assert messages[0] == value
        assert assembler.buffered == len(junk)
