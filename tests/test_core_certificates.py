"""Unit and property tests: the certificate framework."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.certificates import (
    Certificate,
    CertificateDigest,
    EMPTY_CERTIFICATE,
    SignedMessage,
)
from repro.crypto.cache import caching_disabled
from repro.crypto.encoding import canonical_bytes
from repro.errors import CertificateError
from repro.messages.consensus import Init, VNext

from tests.helpers import SignedWorkbench, envelope_trees, envelopes


@pytest.fixture
def bench():
    return SignedWorkbench(4)


class TestCertificate:
    def test_empty_certificate(self):
        assert len(EMPTY_CERTIFICATE) == 0
        assert list(EMPTY_CERTIFICATE) == []

    def test_deduplicates_entries(self, bench):
        init = bench.signed_init(0)
        cert = Certificate((init, init))
        assert len(cert) == 1

    def test_order_independent_digest(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        assert Certificate((a, b)).digest() == Certificate((b, a)).digest()

    def test_different_content_different_digest(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        assert Certificate((a,)).digest() != Certificate((b,)).digest()

    def test_add_returns_new_certificate(self, bench):
        a = bench.signed_init(0)
        cert = EMPTY_CERTIFICATE.add(a)
        assert len(cert) == 1
        assert len(EMPTY_CERTIFICATE) == 0

    def test_union(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        union = Certificate((a,)).union(Certificate((b,)))
        assert len(union) == 2
        assert union.senders() == frozenset({0, 1})

    def test_union_dedups_shared_entries(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        union = Certificate((a, b)).union(Certificate((b,)))
        assert len(union) == 2

    def test_of_type_filters_bodies(self, bench):
        init = bench.signed_init(0)
        nxt = bench.authorities[1].make(VNext(sender=1, round=1), EMPTY_CERTIFICATE)
        cert = Certificate((init, nxt))
        assert [m.body for m in cert.of_type(Init)] == [init.body]
        assert [m.body for m in cert.of_type(VNext)] == [nxt.body]

    def test_contains(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        cert = Certificate((a,))
        assert a in cert
        assert b not in cert

    def test_contains_is_pruning_invariant(self, bench):
        current = bench.coordinator_current()
        cert = Certificate((current,))
        assert current.light() in cert

    def test_equality_by_digest(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        assert Certificate((a, b)) == Certificate((b, a))
        assert Certificate((a,)) != Certificate((b,))

    def test_filter(self, bench):
        a, b = bench.signed_init(0), bench.signed_init(1)
        cert = Certificate((a, b))
        only_zero = cert.filter(lambda sm: sm.body.sender == 0)
        assert only_zero.senders() == frozenset({0})


class TestSignedMessagePruning:
    def test_light_preserves_signature_validity(self, bench):
        current = bench.coordinator_current()
        assert bench.verify(current)
        assert bench.verify(current.light())

    def test_light_drops_certificate_body(self, bench):
        current = bench.coordinator_current()
        light = current.light()
        assert not light.has_full_cert
        assert isinstance(light.cert, CertificateDigest)
        with pytest.raises(CertificateError):
            light.full_cert()

    def test_light_preserves_cert_digest(self, bench):
        current = bench.coordinator_current()
        assert current.cert_digest == current.light().cert_digest

    def test_digest_invariant_under_entry_pruning(self, bench):
        """The cornerstone of the pruning scheme: a certificate's digest
        does not change when its entries' own certificates are pruned."""
        current = bench.coordinator_current()
        full = Certificate((current,))
        pruned = Certificate((current.light(),))
        assert full.digest() == pruned.digest()

    def test_pruned_depth_zero_equals_light(self, bench):
        current = bench.coordinator_current()
        assert current.pruned(0).cert == current.light().cert

    def test_pruned_keeps_one_level(self, bench):
        current = bench.coordinator_current(
            round_number=2, next_votes=bench.next_quorum(1)
        )
        relay = bench.relay_current(2, current)
        pruned = relay.pruned(2)
        assert pruned.has_full_cert
        inner = pruned.full_cert().entries[0]
        assert inner.has_full_cert  # depth 2 keeps the inner CURRENT's cert

    def test_light_canonical_stable_under_pruning(self, bench):
        current = bench.coordinator_current()
        assert current.light_canonical() == current.light().light_canonical()


class TestCertificationAuthority:
    def test_make_and_verify(self, bench):
        message = bench.signed_init(2)
        assert bench.verify(message)

    def test_cannot_sign_for_other_identity(self, bench):
        with pytest.raises(CertificateError):
            bench.authorities[0].make(Init(sender=1, value="x"), EMPTY_CERTIFICATE)

    def test_wrong_signer_detected(self, bench):
        message = bench.signed_init(0)
        stolen = SignedMessage(
            body=Init(sender=1, value="v0"),
            cert=EMPTY_CERTIFICATE,
            signature=message.signature,
        )
        assert not bench.verify(stolen)

    def test_tampered_body_detected(self, bench):
        message = bench.signed_init(0)
        tampered = SignedMessage(
            body=Init(sender=0, value="evil"),
            cert=message.cert,
            signature=message.signature,
        )
        assert not bench.verify(tampered)

    def test_tampered_certificate_detected(self, bench):
        current = bench.coordinator_current()
        other_cert = Certificate((bench.signed_init(3, "sneaky"),))
        tampered = SignedMessage(
            body=current.body, cert=other_cert, signature=current.signature
        )
        assert not bench.verify(tampered)

    def test_forged_signature_detected(self, bench):
        body = Init(sender=0, value="v0")
        draft = SignedMessage(
            body=body,
            cert=EMPTY_CERTIFICATE,
            signature=bench.scheme.forge(0, None),
        )
        forged = SignedMessage(
            body=body,
            cert=EMPTY_CERTIFICATE,
            signature=bench.scheme.forge(0, draft.signed_payload()),
        )
        assert not bench.verify(forged)


TREE_BENCH = SignedWorkbench(4)


def memos(envelope: SignedMessage) -> dict:
    """What an envelope has memoised next to its three fields."""
    return {k: v for k, v in envelope.__dict__.items() if k.startswith("_")}


class TestOneCanonicalWalk:
    """``light_bytes()`` is the one encoding kept; the rest is cut from it."""

    @staticmethod
    def rebuilt(tree: SignedMessage) -> list[SignedMessage]:
        """Every envelope of ``tree`` as a decoder would hold it: no memo."""
        return [
            SignedMessage(e.body, e.cert, e.signature) for e in envelopes(tree)
        ]

    @staticmethod
    def check(envelope: SignedMessage) -> None:
        payload = canonical_bytes(envelope.signed_payload())
        light = canonical_bytes(envelope.light_canonical())
        assert envelope.payload_bytes() == payload
        assert envelope.payload_digest() == hashlib.sha256(payload).digest()
        assert envelope.light_bytes() == light
        assert envelope.envelope_digest() == hashlib.sha256(light).hexdigest()

    @settings(max_examples=60, deadline=None)
    @given(envelope_trees(TREE_BENCH))
    def test_every_output_is_the_encoding_of_its_structure(self, tree):
        # As signed, as rebuilt from fields (first asked in either
        # order), and with nothing memoised at all.
        for envelope in envelopes(tree):
            self.check(envelope)
        for envelope in self.rebuilt(tree):
            self.check(envelope)
        for envelope in self.rebuilt(tree):
            assert envelope.light_bytes() == canonical_bytes(envelope.light_canonical())
            self.check(envelope)
        with caching_disabled():
            for envelope in self.rebuilt(tree):
                self.check(envelope)
                assert not memos(envelope)

    def test_one_encoding_is_retained_per_envelope(self, bench):
        current = bench.coordinator_current()
        assert bench.verify(current)
        current.envelope_digest()
        assert sorted(memos(current)) == [
            "_envelope_digest", "_light_bytes", "_payload_digest",
        ]
        retained = [v for v in memos(current).values() if len(v) > 64]
        assert retained == [current.light_bytes()]

    def test_an_envelope_is_walked_once_whatever_is_asked_of_it(self, bench, monkeypatch):
        import repro.core.certificates as certificates

        signed = bench.signed_init(1)
        message = SignedMessage(signed.body, signed.cert, signed.signature)
        walked = []
        real = certificates.canonical_bytes
        monkeypatch.setattr(
            certificates, "canonical_bytes", lambda v: walked.append(v) or real(v)
        )
        assert bench.verify(message)  # a MAC is computed: payload_bytes() is cut
        message.payload_digest(), message.envelope_digest(), message.light_bytes()
        assert walked == [message.light_canonical()]


@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(0, 100))
def test_certificate_digest_deterministic_across_processes(n, seed):
    """Two independently-built identical certificates share a digest."""
    bench_a = SignedWorkbench(n, seed=seed)
    bench_b = SignedWorkbench(n, seed=seed)
    cert_a = Certificate(tuple(bench_a.signed_init(p) for p in range(n)))
    cert_b = Certificate(tuple(bench_b.signed_init(p) for p in range(n)))
    assert cert_a.digest() == cert_b.digest()
