"""Tests: per-slot certificate verification of transferred state.

Satellite of the net PR: a state-transfer suffix is exactly as
untrusted as the snapshot, so every ``(slot, vector, justification)``
entry must carry the responder's signed DECIDE plus an (n − F)
same-round quorum of validly signed matching CURRENTs — all under the
slot's own signature domain. These tests drive
:meth:`ServiceReplicaProcess._suffix_entry_valid` and the
:meth:`_on_state_response` replay path with honest and forged suffixes
and assert forgeries are *counted rejections*, never installs and
never crashes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.certificates import Certificate, CertificationAuthority
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.messages.consensus import NULL, VCurrent, VDecide
from repro.observability.registry import MODULE_SERVICE
from repro.service.config import ServiceConfig
from repro.service.messages import StateResponse
from repro.sim.service import build_service_system


def make_replica(seed=9):
    return build_service_system(ServiceConfig(seed=seed)).replicas[0]


def justification(
    config,
    slot,
    vect,
    *,
    signers=None,
    domain_slot=None,
    decide_vect=None,
    rounds=None,
    with_cert=True,
):
    """Build a (possibly deliberately broken) transfer justification."""
    keys = KeyAuthority(
        config.n_replicas,
        seed=config.seed * 1_000_003
        + (slot if domain_slot is None else domain_slot),
    )
    scheme = SignatureScheme(keys)

    def authority(pid):
        return CertificationAuthority(scheme, keys.signer_for(pid))

    if signers is None:
        signers = range(config.params().quorum)
    signers = tuple(signers)
    if rounds is None:
        rounds = (1,) * len(signers)
    entries = tuple(
        authority(pid).make(VCurrent(sender=pid, round=rnd, est_vect=vect))
        for pid, rnd in zip(signers, rounds)
    )
    decide = VDecide(
        sender=0, est_vect=vect if decide_vect is None else decide_vect
    )
    if with_cert:
        return authority(0).make(decide, cert=Certificate(entries))
    return authority(0).make(decide)


class TestSuffixEntryValidation:
    def setup_method(self):
        self.replica = make_replica()
        self.config = self.replica.config
        self.vect = (NULL,) * self.config.n_replicas

    def test_honest_justification_accepted(self):
        good = justification(self.config, 3, self.vect)
        assert self.replica._suffix_entry_valid(3, self.vect, good)

    def test_vector_shape_must_match_the_cluster(self):
        good = justification(self.config, 3, self.vect)
        assert not self.replica._suffix_entry_valid(3, self.vect[:-1], good)
        assert not self.replica._suffix_entry_valid(3, list(self.vect), good)

    def test_missing_or_non_message_justification_rejected(self):
        assert not self.replica._suffix_entry_valid(3, self.vect, None)
        assert not self.replica._suffix_entry_valid(3, self.vect, b"decide")

    def test_decide_over_a_different_vector_rejected(self):
        other = ("x",) + (NULL,) * (self.config.n_replicas - 1)
        mismatched = justification(self.config, 3, self.vect, decide_vect=other)
        assert not self.replica._suffix_entry_valid(3, self.vect, mismatched)

    def test_tampered_vector_fails_against_honest_justification(self):
        good = justification(self.config, 3, self.vect)
        tampered = ("forged",) + self.vect[1:]
        assert not self.replica._suffix_entry_valid(3, tampered, good)

    def test_cross_slot_replay_rejected(self):
        # Signed perfectly validly — for slot 4's key domain. Nothing
        # signed for one slot may be believed for another.
        replayed = justification(self.config, 3, self.vect, domain_slot=4)
        assert not self.replica._suffix_entry_valid(3, self.vect, replayed)

    def test_sub_quorum_of_currents_rejected(self):
        quorum = self.config.params().quorum
        thin = justification(
            self.config, 3, self.vect, signers=range(quorum - 1)
        )
        assert not self.replica._suffix_entry_valid(3, self.vect, thin)

    def test_quorum_must_be_same_round(self):
        quorum = self.config.params().quorum
        split = justification(
            self.config,
            3,
            self.vect,
            signers=range(quorum),
            rounds=(1,) * (quorum - 1) + (2,),
        )
        assert not self.replica._suffix_entry_valid(3, self.vect, split)

    def test_pruned_certificate_cannot_be_rechecked(self):
        bare = justification(self.config, 3, self.vect, with_cert=False)
        assert not self.replica._suffix_entry_valid(3, self.vect, bare)

    @pytest.mark.parametrize(
        "vector, proof", [(object(), 42), ((), ()), (None, None)]
    )
    def test_garbage_is_a_rejection_not_a_crash(self, vector, proof):
        assert not self.replica._suffix_entry_valid(3, vector, proof)


class TestTransferReplay:
    def test_forged_entries_counted_honest_entries_applied(self):
        replica = make_replica(seed=10)
        vect = (NULL,) * replica.config.n_replicas
        response = StateResponse(
            replica=1,
            count=0,
            snapshot=(),
            executed=(),
            store_applied=0,
            certificate=None,
            suffix=(
                (0, vect, justification(replica.config, 0, vect)),
                (1, vect, justification(replica.config, 1, vect, domain_slot=7)),
                ("one", vect),  # malformed shape
                (2, vect, None),  # proof stripped in flight
            ),
        )
        replica._on_state_response(response)
        # Slot 0 verified and applied; slots 1-2 and the malformed entry
        # rejected, each counted, and the apply frontier never crossed
        # the unproven gap.
        assert replica.slotlog.next_apply == 1
        assert replica.suffix_rejections == 3
        assert 1 not in replica.slotlog.buffered
        assert replica.state_transfers_completed

    def test_all_forged_suffix_makes_no_progress(self):
        replica = make_replica(seed=11)
        vect = (NULL,) * replica.config.n_replicas
        forged = justification(replica.config, 0, vect, domain_slot=5)
        response = StateResponse(
            replica=2,
            count=0,
            snapshot=(),
            executed=(),
            store_applied=0,
            certificate=None,
            suffix=((0, vect, forged),),
        )
        replica._on_state_response(response)
        assert replica.slotlog.next_apply == 0
        assert replica.suffix_rejections == 1
        assert not replica.state_transfers_completed


class TestSnapshotShape:
    """A responder can replay a genuine certificate beside a payload that
    cannot even be digested: a counted rejection, never a raise."""

    CONFIG = ServiceConfig(
        n_clients=2, requests_per_client=8, seed=12, checkpoint_interval=2
    )

    @pytest.fixture(scope="class")
    def certified(self):
        """A genuine response: replica 1's certified snapshot."""
        system = build_service_system(self.CONFIG)
        system.run(max_time=2_500.0)
        served = system.replicas[1]
        snapshot, executed, store_applied = served._stable_snapshot
        assert served.stable is not None and len(executed) >= 2
        return StateResponse(
            replica=1,
            count=served.stable.count,
            snapshot=snapshot,
            executed=executed,
            store_applied=store_applied,
            certificate=served.stable,
            suffix=(),
        )

    def deliver(self, response):
        replica = build_service_system(self.CONFIG).replicas[0]
        replica._on_state_response(response)
        rejected = replica.env.metrics.counter_total(
            MODULE_SERVICE, "state_responses_rejected"
        )
        return replica, rejected

    def test_the_genuine_response_installs(self, certified):
        replica, rejected = self.deliver(certified)
        assert rejected == 0
        assert replica.slotlog.next_apply == certified.count
        assert replica.slotlog.executed == set(certified.executed)

    @pytest.mark.parametrize(
        "executed",
        [
            lambda ids: ids + (("mallory", 1),),  # does not sort
            lambda ids: ids + ids[:1],  # repeats an id
            lambda ids: ids[:-1] + ((1, 2, 3),),  # not a pair
            lambda ids: ids[::-1],  # out of order
        ],
        ids=["unorderable", "repeated", "triple", "reversed"],
    )
    def test_executed_ids_that_do_not_sort_are_rejected(self, certified, executed):
        replica, rejected = self.deliver(
            replace(certified, executed=executed(certified.executed))
        )
        assert rejected == 1 and replica.slotlog.next_apply == 0

    @pytest.mark.parametrize(
        "snapshot",
        [("k",), (("k", 1, 2),), ((5, 1),), (("k", 1), ("k", 2))],
        ids=["not-pairs", "triple", "int-key", "repeated-key"],
    )
    def test_a_snapshot_not_made_of_pairs_is_rejected(self, certified, snapshot):
        replica, rejected = self.deliver(replace(certified, snapshot=snapshot))
        assert rejected == 1 and replica.slotlog.next_apply == 0
