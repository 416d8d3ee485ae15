"""Unit tests: the Figure 4 peer monitor and the monitor bank."""

from __future__ import annotations

import pytest

from repro.consensus.monitor import (
    FINAL,
    Q0,
    Q1,
    Q2,
    START,
    EquivocationLedger,
    MonitorBank,
    PeerMonitor,
)
from repro.core.automaton import FAULTY
from repro.core.certificates import Certificate, EMPTY_CERTIFICATE
from repro.messages.consensus import VDecide, VNext
from tests.helpers import SignedWorkbench


@pytest.fixture
def bench():
    return SignedWorkbench(4)


def monitor_for(bench, peer=0) -> PeerMonitor:
    return PeerMonitor(peer, bench.params, bench.verify)


def bank_for(bench, own_pid) -> MonitorBank:
    return MonitorBank(
        own_pid, bench.params, bench.verify, lambda peer: monitor_for(bench, peer)
    )


def suspicion_next(bench, sender, round_number=1):
    cert = Certificate(tuple(bench.init_quorum([0, 1, 2])))
    return bench.authorities[sender].make(
        VNext(sender=sender, round=round_number), cert
    )


def round_end_next(bench, sender, round_number):
    cert = Certificate(tuple(bench.next_quorum(round_number)))
    return bench.authorities[sender].make(
        VNext(sender=sender, round=round_number), cert
    )


def decide_message(bench, sender):
    coordinator_msg = bench.coordinator_current()
    relays = [bench.relay_current(pid, coordinator_msg) for pid in (1, 2)]
    cert = Certificate((coordinator_msg, *relays))
    return bench.authorities[sender].make(
        VDecide(sender=sender, est_vect=coordinator_msg.body.est_vect), cert
    )


class TestPeerMonitorPaths:
    def test_starts_in_start(self, bench):
        assert monitor_for(bench).state == START

    def test_init_then_current_path(self, bench):
        monitor = monitor_for(bench, peer=0)
        assert monitor.feed(bench.signed_init(0)).accepted
        assert monitor.state == Q0
        assert monitor.round == 1
        assert monitor.feed(bench.coordinator_current()).accepted
        assert monitor.state == Q1

    def test_init_then_next_path(self, bench):
        monitor = monitor_for(bench, peer=3)
        monitor.feed(bench.signed_init(3))
        assert monitor.feed(suspicion_next(bench, 3)).accepted
        assert monitor.state == Q2

    def test_current_then_next_then_new_round(self, bench):
        monitor = monitor_for(bench, peer=0)
        monitor.feed(bench.signed_init(0))
        monitor.feed(bench.coordinator_current())
        step = monitor.feed(round_end_next(bench, 0, 1))
        assert step.accepted and monitor.state == Q2
        # Round rollover: a NEXT for round 2 moves the stream forward.
        step = monitor.feed(round_end_next(bench, 0, 2))
        assert step.accepted
        assert monitor.round == 2 and monitor.state == Q2

    def test_decide_is_terminal(self, bench):
        monitor = monitor_for(bench, peer=1)
        monitor.feed(bench.signed_init(1))
        assert monitor.feed(decide_message(bench, 1)).accepted
        assert monitor.state == FINAL
        # Anything after DECIDE is out-of-order.
        step = monitor.feed(suspicion_next(bench, 1))
        assert not step.accepted
        assert monitor.faulty

    def test_vote_before_init_is_out_of_order(self, bench):
        monitor = monitor_for(bench, peer=0)
        step = monitor.feed(bench.coordinator_current())
        assert not step.accepted
        assert "out-of-order" in (step.reason or "")

    def test_duplicate_init_is_out_of_order(self, bench):
        monitor = monitor_for(bench, peer=0)
        monitor.feed(bench.signed_init(0))
        step = monitor.feed(bench.signed_init(0))
        assert not step.accepted

    def test_duplicate_current_is_out_of_order(self, bench):
        monitor = monitor_for(bench, peer=0)
        monitor.feed(bench.signed_init(0))
        monitor.feed(bench.coordinator_current())
        step = monitor.feed(bench.coordinator_current())
        assert not step.accepted

    def test_skipped_round_is_out_of_order(self, bench):
        monitor = monitor_for(bench, peer=0)
        monitor.feed(bench.signed_init(0))
        monitor.feed(bench.coordinator_current())
        monitor.feed(round_end_next(bench, 0, 1))
        # Round 3 without round 2: violation.
        step = monitor.feed(round_end_next(bench, 0, 3))
        assert not step.accepted

    def test_identity_mismatch_detected(self, bench):
        monitor = monitor_for(bench, peer=2)
        monitor.feed(bench.signed_init(2))
        # A CURRENT claiming sender 0 fed on peer 2's channel.
        step = monitor.feed(bench.coordinator_current())
        assert not step.accepted
        assert "identity mismatch" in (step.reason or "")

    def test_bad_certificate_faults(self, bench):
        monitor = monitor_for(bench, peer=0)
        monitor.feed(bench.signed_init(0))
        from repro.messages.consensus import VCurrent

        bare = bench.authorities[0].make(
            VCurrent(sender=0, round=1, est_vect=bench.vector_for([0, 1, 2])),
            EMPTY_CERTIFICATE,
        )
        step = monitor.feed(bare)
        assert not step.accepted
        assert monitor.faulty

    def test_cert_checks_can_be_ablated(self, bench):
        monitor = PeerMonitor(0, bench.params, bench.verify, check_certificates=False)
        monitor.feed(bench.signed_init(0))
        from repro.messages.consensus import VCurrent

        bare = bench.authorities[0].make(
            VCurrent(sender=0, round=1, est_vect=bench.vector_for([0, 1, 2])),
            EMPTY_CERTIFICATE,
        )
        assert monitor.feed(bare).accepted  # analyser off: admitted


class TestEquivocationLedger:
    def test_no_conflict_on_repeat(self, bench):
        ledger = EquivocationLedger(bench.verify)
        init = bench.signed_init(0)
        assert ledger.conflicts(init) == []
        assert ledger.conflicts(init) == []

    def test_conflicting_inits_detected(self, bench):
        ledger = EquivocationLedger(bench.verify)
        ledger.conflicts(bench.signed_init(0, "a"))
        found = ledger.conflicts(bench.signed_init(0, "b"))
        assert found and found[0][0] == 0

    def test_embedded_conflict_detected(self, bench):
        """A branch seen directly conflicts with one inside a certificate."""
        ledger = EquivocationLedger(bench.verify)
        ledger.conflicts(bench.signed_init(1, "branch-a"))
        # A CURRENT whose cert embeds the other branch of p1's INIT.
        other_branch = bench.signed_init(1, "branch-b")
        inits = [bench.signed_init(0), other_branch, bench.signed_init(2)]
        from repro.messages.consensus import NULL, VCurrent

        vector = ["v0", "branch-b", "v2", NULL]
        current = bench.authorities[0].make(
            VCurrent(sender=0, round=1, est_vect=tuple(vector)),
            Certificate(tuple(inits)),
        )
        found = ledger.conflicts(current)
        assert any(culprit == 1 for culprit, _ in found)

    def test_pruning_does_not_trigger_false_conflict(self, bench):
        ledger = EquivocationLedger(bench.verify)
        next_full = bench.authorities[0].make(
            VNext(sender=0, round=2), Certificate(tuple(bench.next_quorum(1)))
        )
        assert ledger.conflicts(next_full) == []
        assert ledger.conflicts(next_full.light()) == []

    def test_unverifiable_entries_skipped(self, bench):
        from repro.core.certificates import SignedMessage
        from repro.messages.consensus import Init

        ledger = EquivocationLedger(bench.verify)
        bogus = SignedMessage(
            body=Init(sender=0, value="x"),
            cert=EMPTY_CERTIFICATE,
            signature=bench.scheme.forge(0, "junk"),
        )
        assert ledger.conflicts(bogus) == []


class TestMonitorBank:
    def test_admit_valid_sequence(self, bench):
        bank = bank_for(bench, 3)
        assert bank.admit(0, bench.signed_init(0), now=0.0)
        assert bank.admit(0, bench.coordinator_current(), now=1.0)
        assert bank.faulty == frozenset()

    def test_rejection_declares_faulty_once(self, bench):
        bank = bank_for(bench, 3)
        bad = bench.coordinator_current()  # before INIT: out-of-order
        assert not bank.admit(0, bad, now=1.0)
        assert bank.faulty == frozenset({0})
        assert len(bank.reports) == 1
        # A second rejected message does not duplicate the report.
        assert not bank.admit(0, bad, now=2.0)
        assert len(bank.reports) == 1

    def test_own_messages_trusted(self, bench):
        bank = bank_for(bench, 0)
        assert bank.admit(0, bench.coordinator_current(), now=0.0)

    def test_equivocation_declared_but_message_admitted(self, bench):
        bank = bank_for(bench, 3)
        bank.admit(1, bench.signed_init(1, "a"), now=0.0)
        # p1 equivocates its INIT; the message still enters p3's automaton
        # view (which flags the duplicate INIT as out-of-order anyway).
        bank.admit(1, bench.signed_init(1, "b"), now=1.0)
        assert 1 in bank.faulty

    def test_state_of(self, bench):
        bank = bank_for(bench, 3)
        bank.admit(0, bench.signed_init(0), now=0.0)
        assert bank.state_of(0) == Q0
        assert bank.state_of(3) == "self"
        bank.declare(2, "declared by signature module", now=1.0)
        assert bank.state_of(2) == FAULTY
