"""Adversarial tests: verification caching must never launder a forgery.

The caches (docs/PERFORMANCE.md) memoize verification *verdicts* keyed
by content digests. These tests attack exactly the properties the
design note argues for:

* a tampered envelope's digest collides with nothing cached, so a warm
  cache still rejects it with a real (failing) verification;
* verdicts are pinned to ``(domain, signer)`` — an accept cached under
  one key domain or signer identity never answers for another;
* the :class:`~repro.consensus.certification.PredicateCache` memoizes
  *clean* analyses only — a bad message stays bad on every re-analysis;
* forged CURRENT quorums inside state-transfer suffixes still land in
  ``suffix_rejections`` when every cache is warm;
* the :func:`~repro.crypto.cache.caching_disabled` kill-switch really
  disables memoization (the benchmark baseline is honest).
"""

from __future__ import annotations

import dataclasses

from repro.consensus.certification import (
    PredicateCache,
    current_message_problems,
    decide_message_problems,
)
from repro.core.certificates import Certificate, CertificationAuthority
from repro.crypto.cache import (
    SignatureCache,
    caching_disabled,
    caching_enabled,
)
from repro.crypto.encoding import canonical_bytes
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.messages.consensus import NULL, Init, VCurrent
from repro.service.checkpoint import CheckpointCertCache, certificate_valid
from repro.service.config import ServiceConfig
from repro.service.messages import StateResponse
from repro.sim.service import build_service_system

from tests.helpers import SignedWorkbench
from tests.test_service_transfer import justification, make_replica


class TestSignatureCacheKeying:
    def test_hits_misses_and_bound(self):
        cache = SignatureCache(max_entries=2)
        assert cache.lookup(("k1",)) is None
        cache.store(("k1",), True)
        assert cache.lookup(("k1",)) is True
        cache.store(("k2",), False)
        cache.store(("k3",), True)  # evicts k1 (oldest)
        assert len(cache) == 2
        assert cache.lookup(("k1",)) is None
        assert cache.hits == 1
        assert cache.misses == 2

    def test_tampered_envelope_rejected_with_warm_cache(self):
        bench = SignedWorkbench(4)
        message = bench.signed_init(1)
        # Warm: the honest envelope's accept is now cached.
        assert bench.verify(message)
        assert bench.verify(message)
        assert bench.scheme.cache.hits >= 1
        # Tamper with the signed body. The digest of the tampered bytes
        # collides with nothing cached, so the lookup misses and the
        # real MAC comparison fails.
        forged = dataclasses.replace(
            message, body=Init(sender=1, value="forged")
        )
        assert not bench.verify(forged)
        assert not bench.verify(forged)  # the cached *reject* answers now

    def test_accept_is_pinned_to_the_claimed_signer(self):
        bench = SignedWorkbench(4)
        message = bench.signed_init(1)
        assert bench.verify(message)
        # Same bytes, same MAC, different claimed identity: the cache
        # key differs in the signer component, so this is a fresh (and
        # failing) verification, not a hit.
        stolen = dataclasses.replace(
            message,
            signature=dataclasses.replace(message.signature, signer=2),
        )
        assert not bench.verify(stolen)

    def test_accept_is_pinned_to_the_key_domain(self):
        # Two clusters (different derivation seeds) sharing one cache —
        # the service replica does exactly this across slot domains.
        shared = SignatureCache()
        keys_a = KeyAuthority(4, seed=100)
        keys_b = KeyAuthority(4, seed=200)
        scheme_a = SignatureScheme(keys_a, cache=shared)
        scheme_b = SignatureScheme(keys_b, cache=shared)
        auth_a = CertificationAuthority(scheme_a, keys_a.signer_for(0))
        auth_b = CertificationAuthority(scheme_b, keys_b.signer_for(0))
        message = auth_a.make(Init(sender=0, value="x"))
        assert auth_a.signature_valid(message)
        assert auth_a.signature_valid(message)
        assert shared.hits == 1
        # Replaying domain A's envelope into domain B misses (the domain
        # is part of the key) and fails the real verification.
        assert not auth_b.signature_valid(message)

    def test_kill_switch_disables_memoization(self):
        bench = SignedWorkbench(4)
        message = bench.signed_init(0)
        with caching_disabled():
            assert not caching_enabled()
            assert bench.verify(message)
            assert bench.verify(message)
            assert len(bench.scheme.cache) == 0
            assert bench.scheme.cache.hits == 0
        assert caching_enabled()

    def test_encoding_memo_matches_uncached_bytes(self):
        # The per-object canonical-encoding memo must be byte-identical
        # to a from-scratch encoding — signatures depend on it.
        bench = SignedWorkbench(4)
        message = bench.coordinator_current()
        memoized = canonical_bytes(message)
        assert canonical_bytes(message) == memoized  # second read: memo
        with caching_disabled():
            fresh = canonical_bytes(
                dataclasses.replace(message)  # a memo-free twin
            )
        assert fresh == memoized


class TestPredicateCache:
    def test_clean_verdict_cached_per_envelope(self):
        bench = SignedWorkbench(4)
        cache = PredicateCache()
        message = bench.coordinator_current()
        assert current_message_problems(
            message, bench.params, bench.verify, cache=cache
        ) == []
        assert cache.misses >= 1
        before_hits = cache.hits
        assert current_message_problems(
            message, bench.params, bench.verify, cache=cache
        ) == []
        assert cache.hits == before_hits + 1

    def test_problems_are_never_cached(self):
        bench = SignedWorkbench(4)
        cache = PredicateCache()
        bad = bench.authorities[1].make(
            VCurrent(sender=1, round=1, est_vect=bench.vector_for([0, 1, 2])),
            Certificate((bench.signed_init(0),)),  # not a valid relay cert
        )
        first = current_message_problems(
            bench.authorities[0].make(
                VCurrent(sender=0, round=0, est_vect=()),
            ),
            bench.params,
            bench.verify,
            cache=cache,
        )
        assert first  # invalid round + vector shape
        problems = current_message_problems(
            bad, bench.params, bench.verify, cache=cache
        )
        assert problems
        # Re-analysis reports the same problems — nothing dirty was
        # recorded as clean.
        assert current_message_problems(
            bad, bench.params, bench.verify, cache=cache
        ) == problems

    def test_forged_current_never_rides_a_warm_cache(self):
        bench = SignedWorkbench(4)
        cache = PredicateCache()
        good = bench.coordinator_current()
        assert current_message_problems(
            good, bench.params, bench.verify, cache=cache
        ) == []
        # Same shape, tampered vector: a different envelope digest, so
        # the warm cache cannot answer for it.
        forged = bench.authorities[good.body.sender].make(
            dataclasses.replace(good.body, est_vect=("evil",) * bench.n),
            good.cert,
        )
        assert current_message_problems(
            forged, bench.params, bench.verify, cache=cache
        )

    def test_decide_hit_skips_redundant_quorum_reverification(self):
        bench = SignedWorkbench(4)
        cache = PredicateCache()
        coordinator_msg = bench.coordinator_current()
        relays = [bench.relay_current(pid, coordinator_msg) for pid in (1, 2)]
        from repro.messages.consensus import VDecide

        decide = bench.authorities[1].make(
            VDecide(sender=1, est_vect=coordinator_msg.body.est_vect),
            Certificate((coordinator_msg, *relays)),
        )
        assert decide_message_problems(
            decide, bench.params, bench.verify, cache=cache
        ) == []
        hits_before = cache.hits
        assert decide_message_problems(
            decide, bench.params, bench.verify, cache=cache
        ) == []
        assert cache.hits == hits_before + 1


class TestCheckpointCertCache:
    def _certified_checkpoint(self, seed=12):
        # Drive a small service run until a checkpoint certifies, then
        # reuse the replica's own certified checkpoint + authority.
        system = build_service_system(
            ServiceConfig(
                n_clients=2,
                requests_per_client=4,
                checkpoint_interval=2,
                seed=seed,
            )
        )
        system.run(max_time=2_500.0)
        for replica in system.replicas:
            if replica.stable is not None:
                return replica.stable, replica._ckpt_authority, replica.params.f
        raise AssertionError("no certified checkpoint produced")

    def test_accepts_cached_and_forgeries_fall_through(self):
        cert, authority, f = self._certified_checkpoint()
        cache = CheckpointCertCache()
        assert certificate_valid(cert, authority, f, cache=cache)
        assert cache.misses == 1
        assert certificate_valid(cert, authority, f, cache=cache)
        assert cache.hits == 1
        # A forged digest is a different key: warm cache, real rejection.
        forged = dataclasses.replace(cert, digest="00" * 32)
        assert not certificate_valid(forged, authority, f, cache=cache)
        assert not certificate_valid(forged, authority, f, cache=cache)
        # Rejects are never cached: both forged checks were real misses.
        assert cache.hits == 1


class TestWarmCacheStateTransfer:
    def test_forged_suffix_counted_with_warm_caches(self):
        replica = make_replica(seed=10)
        vect = (NULL,) * replica.config.n_replicas
        honest = justification(replica.config, 0, vect)
        # Warm every cache with the honest entry first.
        assert replica._suffix_entry_valid(0, vect, honest)
        response = StateResponse(
            replica=1,
            count=0,
            snapshot=(),
            executed=(),
            store_applied=0,
            certificate=None,
            suffix=(
                (0, vect, honest),
                (1, vect, justification(replica.config, 1, vect, domain_slot=7)),
                (2, vect, justification(replica.config, 2, vect, with_cert=False)),
            ),
        )
        replica._on_state_response(response)
        assert replica.slotlog.next_apply == 1
        assert replica.suffix_rejections == 2


class TestPerfSmoke:
    def test_record_is_deterministic_and_ok(self):
        from repro.analysis.perf import smoke_json, smoke_ok, smoke_record

        first = smoke_record()
        assert smoke_ok(first)
        assert smoke_json(first) == smoke_json(smoke_record())

    def test_cli_perf_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "perf.json"
        assert main(["perf", "smoke", "--out", str(out)]) == 0
        import json

        record = json.loads(out.read_text())
        assert record["suite"] == "perf-smoke"
        assert record["equivalence"]["equivalent"]
        assert "ok" in capsys.readouterr().err
