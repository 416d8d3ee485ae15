"""Property tests: the crypto layer's contracts under arbitrary values.

Complements ``test_crypto.py`` (hand-picked cases) with Hypothesis
sweeps over the full encodable vocabulary: sign/verify round-trips,
injectivity of the canonical encoding, and rejection of tampered
signed/certified messages.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.certificates import Certificate, EMPTY_CERTIFICATE, SignedMessage
from repro.crypto.encoding import canonical_bytes
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import Signature, SignatureScheme
from repro.messages.consensus import Init

from tests.helpers import SignedWorkbench

# Values drawn from the encodable vocabulary. Lists map to tuples and
# floats exclude NaN (NaN != NaN) and -0.0 (0.0 == -0.0 but their hex
# encodings differ) so that *typed* structural equality of draws (see
# ``typed``) is exactly the equality the encoding must respect.
encodable = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False).filter(lambda x: str(x) != "-0.0")
    | st.text(max_size=16)
    | st.binary(max_size=16),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


def typed(value):
    """``value`` with every leaf tagged by its type.

    Python's ``==`` crosses types the encoding rightly keeps apart
    (``False == 0 == 0.0``, ``True == 1 == 1.0``): two draws are the
    same *value* only if their typed keys are equal.
    """
    if isinstance(value, tuple):
        return (tuple, tuple(typed(item) for item in value))
    if isinstance(value, dict):
        return (dict, {key: typed(item) for key, item in value.items()})
    return (type(value), value)


class TestEncodingRoundTrip:
    @given(encodable, encodable)
    def test_injective(self, a, b):
        # The encoding is a bijection onto its image over this domain:
        # equal values encode equally, distinct values distinctly.
        if typed(a) == typed(b):
            assert canonical_bytes(a) == canonical_bytes(b)
        else:
            assert canonical_bytes(a) != canonical_bytes(b)

    def test_injective_across_the_types_python_conflates(self):
        # The draws that used to fail test_injective, pinned.
        for family in ((False, 0, 0.0), (True, 1, 1.0)):
            assert len({canonical_bytes(value) for value in family}) == 3
            assert len({canonical_bytes((value,)) for value in family}) == 3

    @given(encodable)
    def test_stable_across_calls(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)


class TestSignVerifyRoundTrip:
    @given(value=encodable, signer=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, value, signer, seed):
        scheme = SignatureScheme(KeyAuthority(4, seed=seed))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        assert signature.signer == signer
        assert scheme.verify(value, signature)

    @given(value=encodable, other=encodable, signer=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_signature_does_not_transfer_to_other_values(
        self, value, other, signer
    ):
        scheme = SignatureScheme(KeyAuthority(4))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        assert scheme.verify(other, signature) == (typed(value) == typed(other))

    @given(value=encodable, signer=st.integers(0, 3), claimed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_identity_is_bound(self, value, signer, claimed):
        scheme = SignatureScheme(KeyAuthority(4))
        signature = scheme.sign(scheme.authority.signer_for(signer), value)
        relabeled = Signature(signer=claimed, mac=signature.mac)
        assert scheme.verify(value, relabeled) == (claimed == signer)

    @given(value=encodable, claimed=st.integers(0, 3), nonce=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_forgeries_never_verify(self, value, claimed, nonce):
        scheme = SignatureScheme(KeyAuthority(4))
        forged = scheme.forge(claimed, value, nonce=nonce)
        assert not scheme.verify(value, forged)


class TestTamperedCertificates:
    @given(value=encodable)
    @settings(max_examples=40, deadline=None)
    def test_honest_message_verifies_even_pruned(self, value):
        bench = SignedWorkbench(4)
        message = bench.authorities[1].make(
            Init(sender=1, value=value), EMPTY_CERTIFICATE
        )
        assert bench.verify(message)
        assert bench.verify(message.light())

    @given(value=encodable, other=encodable)
    @settings(max_examples=40, deadline=None)
    def test_tampered_body_rejected(self, value, other):
        bench = SignedWorkbench(4)
        message = bench.authorities[1].make(
            Init(sender=1, value=value), EMPTY_CERTIFICATE
        )
        tampered = SignedMessage(
            body=Init(sender=1, value=other),
            cert=message.cert,
            signature=message.signature,
        )
        assert bench.verify(tampered) == (typed(value) == typed(other))

    def test_tampered_certificate_rejected(self):
        # The signature covers the certificate digest: swapping the
        # certificate under a CURRENT changes the digest and must be
        # rejected, exactly the paper's "cannot falsify history" claim.
        bench = SignedWorkbench(4)
        current = bench.coordinator_current(round_number=1)
        assert bench.verify(current)
        full = current.full_cert()
        smaller = Certificate(full.entries[:-1])
        tampered = SignedMessage(
            body=current.body, cert=smaller, signature=current.signature
        )
        assert not bench.verify(tampered)

    def test_stolen_signature_rejected(self):
        # Re-using p1's signature on a body claiming sender p2 fails the
        # identity check before the MAC is even consulted.
        bench = SignedWorkbench(4)
        message = bench.signed_init(1, value="v")
        stolen = SignedMessage(
            body=Init(sender=2, value="v"),
            cert=EMPTY_CERTIFICATE,
            signature=message.signature,
        )
        assert not bench.verify(stolen)

    @given(flip=st.integers(0, 255), position=st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_bitflipped_mac_rejected(self, flip, position):
        bench = SignedWorkbench(4)
        message = bench.signed_init(0, value="payload")
        mac = bytearray(message.signature.mac)
        mac[position] ^= flip
        mangled = SignedMessage(
            body=message.body,
            cert=message.cert,
            signature=Signature(signer=0, mac=bytes(mac)),
        )
        assert bench.verify(mangled) == (flip == 0)
