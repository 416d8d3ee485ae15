"""Tests: the versioned wire codec (repro.net.wire).

Round-trips every registered stack type — including deeply nested
signed/certified messages — through **both** payload versions (v1 TLV
and the compact binary v2), and then attacks the decoder the way a
Byzantine peer would: truncation, oversizing, version skew, bit flips,
random garbage, hostile length/count prefixes. The contract under
attack is exactly one of two outcomes per input: a clean
:class:`WireError` (counted rejection) or a valid decode. Never another
exception type, never a hang.
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
from repro.replication.kvstore import Command
from repro.service.messages import (
    Checkpoint,
    ClientReply,
    ClientRequest,
    StateRequest,
    StateResponse,
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

VERSIONS = pytest.mark.parametrize("version", SUPPORTED_VERSIONS)

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
        assert frame[2] == DEFAULT_VERSION == VERSION_BINARY
        # One default: the payload entry points agree with the frame's.
        payload = encode_payload(message)
        assert payload == frame[HEADER.size :]
        assert decode_payload(payload) == message

    def test_binary_is_more_compact_on_certified_traffic(self):
        message = signed_vdecide()
        v1 = encode_frame(message, version=VERSION)
        v2 = encode_frame(message, version=VERSION_BINARY)
        assert len(v2) < len(v1) / 2

    @VERSIONS
    def test_certificate_survives_canonical_ordering(self, version):
        message = signed_vdecide()
        decoded = decode_frame(encode_frame(message, version=version))
        assert decoded.cert.entries == message.cert.entries
        assert decoded.signature == message.signature

    def test_assembler_reassembles_mixed_version_byte_dribble(self):
        # Versions alternate per frame: a receiver never negotiates.
        stream = b"".join(
            encode_frame(value, version=SUPPORTED_VERSIONS[i % 2])
            for i, value in enumerate(SAMPLES)
        )
        assembler = FrameAssembler()
        out = []
        for i in range(0, len(stream), 7):
            out.extend(assembler.feed(stream[i : i + 7]))
        assert out == SAMPLES
        assert sum(assembler.decoded_by_version.values()) == len(SAMPLES)
        assert set(assembler.decoded_by_version) == set(SUPPORTED_VERSIONS)

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
        # A frame whose version byte is flipped to the *other* supported
        # version is a payload parsed under the wrong grammar: that must
        # be a WireError (counted rejection) or a clean decode — nothing
        # else. This is the cross-version skew a mixed cluster can see
        # from a buggy or hostile peer.
        other = [v for v in SUPPORTED_VERSIONS if v != version][0]
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
        with pytest.raises(WireError):
            encode_payload(1 << (7 * MAX_VARINT_BYTES + 7), version=VERSION_BINARY)

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
        frame = HEADER.pack(MAGIC, VERSION_BINARY, len(payload)) + bytes(payload)
        with pytest.raises(WireError):
            decode_frame(frame)

    def test_binary_unknown_tag(self):
        frame = HEADER.pack(MAGIC, VERSION_BINARY, 1) + b"\xee"
        with pytest.raises(WireError):
            decode_frame(frame)

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
        payload = encode_payload(value, version=VERSION_BINARY)
        with pytest.raises(WireError):
            decode_payload(payload + junk, version=VERSION_BINARY)

    @given(_payloads(), st.binary(max_size=HEADER.size - 1))
    def test_frame_decode_never_reads_past_the_declared_length(
        self, value, junk
    ):
        frame = encode_frame(value, version=VERSION_BINARY)
        assembler = FrameAssembler()
        messages = assembler.feed(frame + junk)
        assert len(messages) == 1
        assert messages[0] == value
        assert assembler.buffered == len(junk)
