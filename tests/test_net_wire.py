"""Tests: the versioned wire codec (repro.net.wire).

Round-trips every registered stack type — including deeply nested
signed/certified messages — through **every** payload version (v1 TLV,
the compact binary v2, and v3 with its length-prefixed envelope
record), and then attacks the decoder the way a Byzantine peer would:
truncation, oversizing, version skew, bit flips, random garbage,
hostile length/count prefixes. The contract under attack is exactly one
of two outcomes per input: a clean :class:`WireError` (counted
rejection) or a valid decode. Never another exception type, never a
hang. ``TestEnvelopeRecord`` turns the same attacks on the one record v3
adds, against a decoder that steps over spans it has seen.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.certificates import Certificate, CertificationAuthority, SignedMessage
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import Signature, SignatureScheme
from repro.errors import ReproError
from repro.messages.consensus import NULL, VCurrent, VDecide
from repro.net.messages import Hello, ReadReply, ReadRequest, StatusReply, StatusRequest
from repro.net.wire import (
    DEFAULT_VERSION,
    HEADER,
    MAGIC,
    MAX_DEPTH,
    MAX_FRAME,
    MAX_VARINT_BYTES,
    SUPPORTED_VERSIONS,
    VERSION,
    VERSION_BINARY,
    VERSION_ENVELOPE,
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
from repro.replication.log import SlotEnvelope
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    StateRequest,
    StateResponse,
)

from tests.helpers import SignedWorkbench, envelopes


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

VERSIONS = pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
#: The two versions sharing the binary grammar.
BINARY_VERSIONS = (VERSION_BINARY, VERSION_ENVELOPE)

#: A table that has interned (and, through WARM, keeps alive) every
#: envelope of SAMPLES: tampered frames whose nested spans survive
#: intact hit it, the rest miss — both must stay contained.
WARM_TABLE = EnvelopeTable()
WARM = [decode_frame(encode_frame(value), table=WARM_TABLE) for value in SAMPLES]


class TestRoundTrips:
    @VERSIONS
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_payload_roundtrip(self, value, version):
        assert decode_payload(
            encode_payload(value, version=version), version=version
        ) == value

    @VERSIONS
    @pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
    def test_frame_roundtrip(self, value, version):
        assert decode_frame(encode_frame(value, version=version)) == value

    def test_default_version_is_binary(self):
        message = signed_vdecide()
        frame = encode_frame(message)
        assert frame[2] == DEFAULT_VERSION == VERSION_ENVELOPE
        # One default: the payload entry points agree with the frame's.
        payload = encode_payload(message)
        assert payload == frame[HEADER.size :]
        assert decode_payload(payload) == message

    def test_binary_is_more_compact_on_certified_traffic(self):
        message = signed_vdecide()
        v1 = encode_frame(message, version=VERSION)
        v2 = encode_frame(message, version=VERSION_BINARY)
        assert len(v2) < len(v1) / 2
        # The envelope record drops the type name and the field count.
        assert len(encode_frame(message, version=VERSION_ENVELOPE)) < len(v2)

    @VERSIONS
    def test_certificate_survives_canonical_ordering(self, version):
        message = signed_vdecide()
        decoded = decode_frame(encode_frame(message, version=version))
        assert decoded.cert.entries == message.cert.entries
        assert decoded.signature == message.signature

    def test_assembler_reassembles_mixed_version_byte_dribble(self):
        # Versions alternate per frame: a receiver never negotiates.
        sent = [
            SUPPORTED_VERSIONS[i % len(SUPPORTED_VERSIONS)]
            for i in range(len(SAMPLES))
        ]
        stream = b"".join(
            encode_frame(value, version=version)
            for value, version in zip(SAMPLES, sent)
        )
        registry = MetricsRegistry()
        assembler = FrameAssembler(metrics=registry.scope(MODULE_NET, 0))
        out = []
        for i in range(0, len(stream), 7):
            out.extend(assembler.feed(stream[i : i + 7]))
        assert out == SAMPLES
        # Counted where the frame is decoded, per version.
        for version in SUPPORTED_VERSIONS:
            assert registry.counter_total(
                MODULE_NET, f"frames_v{version}"
            ) == sent.count(version) > 0

    def test_register_rejects_duplicate_names(self):
        class Fresh:
            pass

        with pytest.raises(WireError):
            register_wire_type(Fresh, name="Command")


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
        frame = encode_frame(SAMPLES[-1], version=version)
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])

    @VERSIONS
    def test_trailing_garbage(self, version):
        frame = encode_frame((1, 2, 3), version=version)
        with pytest.raises(WireError):
            decode_frame(frame + b"\x00")

    @VERSIONS
    def test_wrong_magic(self, version):
        frame = bytearray(encode_frame(1, version=version))
        frame[0] ^= 0xFF
        with pytest.raises(WireError):
            decode_frame(bytes(frame))

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
        # A frame whose version byte is flipped to *another* supported
        # version is a payload parsed under the wrong grammar: that must
        # be a WireError (counted rejection) or a clean decode — nothing
        # else. This is the cross-version skew a mixed cluster can see
        # from a buggy or hostile peer.
        for other in SUPPORTED_VERSIONS:
            if other == version:
                continue
            for value in SAMPLES:
                frame = bytearray(encode_frame(value, version=version))
                frame[2] = other
                self.assert_rejected_or_decoded(bytes(frame))

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
            encode_payload(value, version=version)

    @VERSIONS
    def test_unregistered_type_is_unencodable(self, version):
        class Alien:
            pass

        with pytest.raises(WireError):
            encode_payload(Alien(), version=version)

    def test_binary_varint_ceiling(self):
        for version in BINARY_VERSIONS:
            with pytest.raises(WireError):
                encode_payload(1 << (7 * MAX_VARINT_BYTES + 7), version=version)

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
        for version in BINARY_VERSIONS:
            frame = HEADER.pack(MAGIC, version, len(payload)) + bytes(payload)
            with pytest.raises(WireError):
                decode_frame(frame)

    def test_binary_unknown_tag(self):
        # 0x0B is unassigned in both grammars.
        for version in BINARY_VERSIONS:
            for tag in (b"\xee", b"\x0b"):
                with pytest.raises(WireError):
                    decode_frame(HEADER.pack(MAGIC, version, 1) + tag)

    @VERSIONS
    def test_every_single_bitflip_is_contained(self, version):
        frame = bytearray(encode_frame(SAMPLES[-1], version=version))
        for pos in range(len(frame)):
            for bit in (0x01, 0x80):
                mutated = bytearray(frame)
                mutated[pos] ^= bit
                self.assert_rejected_or_decoded(bytes(mutated))

    @VERSIONS
    def test_random_tampering_fuzz(self, version):
        rng = random.Random(42)
        frames = [
            bytearray(encode_frame(value, version=version)) for value in SAMPLES
        ]
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
        good = encode_frame("before", version=version)
        bad = bytearray(encode_frame("after", version=version))
        bad[0] ^= 0xFF  # corrupt the magic of the second frame
        assembler = FrameAssembler()
        with pytest.raises(WireError):
            assembler.feed(good + bytes(bad))

    def test_wire_error_is_a_repro_error(self):
        assert issubclass(WireError, ReproError)


# -- the v3 envelope record --------------------------------------------------

BENCH = SignedWorkbench(4)
#: Three levels of certificates: a relay citing the coordinator's
#: CURRENT, which cites three INITs.
CURRENT = BENCH.coordinator_current()
RELAY = BENCH.relay_current(1, CURRENT)
OTHER_RELAY = BENCH.relay_current(2, CURRENT)
INIT = CURRENT.cert.entries[0]
RELAY_FRAME = encode_frame(SlotEnvelope(2, RELAY))
#: Tag and u32 length ahead of an envelope record's fields.
RECORD_HEAD = 5


def record_of(envelope: SignedMessage) -> bytes:
    """An envelope alone *is* its record: ``0x0C | length | fields``."""
    record = encode_payload(envelope)
    assert record[0] == 0x0C
    assert int.from_bytes(record[1:RECORD_HEAD], "big") == len(record) - RECORD_HEAD
    return record


def warm_table(*held: SignedMessage) -> tuple[EnvelopeTable, list]:
    """A table that has decoded ``held``, and what keeps the entries alive."""
    table = EnvelopeTable()
    return table, [decode_payload(record_of(e), table=table) for e in held]


def outcome(payload: bytes, table: EnvelopeTable | None):
    """The decoded value, or WireError — the only two things allowed."""
    try:
        return decode_payload(payload, table=table)
    except WireError:
        return WireError


class TestEnvelopeRecord:
    """The one record v3 adds, attacked with and without a table.

    A table that holds the frame's nested envelopes answers them without
    walking them; a table that holds the whole relay answers the frame's
    one envelope outright. Neither may accept what the plain decoder
    rejects, or the reverse.
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
        # A v2 payload may not contain the record ...
        with pytest.raises(WireError):
            decode_payload(record_of(RELAY), version=VERSION_BINARY)
        # ... and a v3 payload may not spell SignedMessage by name.
        named = encode_payload(RELAY, version=VERSION_BINARY)
        assert decode_payload(named, version=VERSION_BINARY) == RELAY
        with pytest.raises(WireError):
            decode_payload(named, version=VERSION_ENVELOPE)
        table, _alive = warm_table(RELAY)
        with pytest.raises(WireError):
            decode_payload(named, version=VERSION_ENVELOPE, table=table)

    @pytest.mark.parametrize("held", [RELAY, CURRENT, INIT], ids=["outer", "nested", "leaf"])
    @pytest.mark.parametrize("sent", [RELAY, OTHER_RELAY], ids=["seen", "unseen"])
    def test_a_deep_hit_raises_exactly_where_a_full_walk_would(self, held, sent):
        # First seen at depth 0, then sent under ever more one-item
        # tuples: the table answers from the height it recorded, the
        # plain decoder by walking — level for level the same verdict.
        table, alive = warm_table(held)
        record = record_of(sent)
        verdicts = []
        for levels in range(MAX_DEPTH + 3):
            payload = b"\x07\x01" * levels + record
            plain = outcome(payload, None)
            assert (outcome(payload, table) is WireError) == (plain is WireError), levels
            verdicts.append(plain is not WireError)
        fits = verdicts.count(True)
        assert verdicts == [True] * fits + [False] * (len(verdicts) - fits)
        # INIT's fields are leaves two levels down; each certificate
        # adds three (the Certificate, its entry tuple, the entry).
        assert fits == MAX_DEPTH + 1 - 8
        # The accepted ones really were answered from the table.
        found = decode_payload(b"\x07\x01" * (fits - 1) + record, table=table)
        for _ in range(fits - 1):
            (found,) = found
        assert any(e is alive[0] for e in envelopes(found)) == (
            held is not RELAY or sent is RELAY
        )

    def test_v2_and_v3_frames_of_one_message_decode_equal_on_one_connection(self):
        table = EnvelopeTable()
        assembler = FrameAssembler(table=table)
        first, second, third = assembler.feed(
            encode_frame(RELAY, version=VERSION_BINARY)
            + encode_frame(RELAY, version=VERSION_ENVELOPE)
            + encode_frame(RELAY, version=VERSION)
        )
        assert first == second == third == RELAY
        # The table serves the v3 record alone: a legacy frame decodes
        # to a plain twin and enters nothing.
        assert first is not second and third is not second
        assert len(table) == len(list(envelopes(RELAY)))
        (again,) = assembler.feed(encode_frame(RELAY, version=VERSION_ENVELOPE))
        assert again is second


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
    """Hypothesis properties of the v2 binary primitives.

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
        for version in BINARY_VERSIONS:
            payload = encode_payload(value, version=version)
            with pytest.raises(WireError):
                decode_payload(payload + junk, version=version)

    @given(_payloads(), st.binary(max_size=HEADER.size - 1))
    def test_frame_decode_never_reads_past_the_declared_length(
        self, value, junk
    ):
        for version in BINARY_VERSIONS:
            frame = encode_frame(value, version=version)
            assembler = FrameAssembler()
            messages = assembler.feed(frame + junk)
            assert len(messages) == 1
            assert messages[0] == value
            assert assembler.buffered == len(junk)
