"""Integration tests: the transformed protocol survives the attack gallery.

For every Byzantine behaviour in the catalogue, the correct processes of
a transformed system must keep Agreement, Termination and Vector
Validity (experiment E3), and the manifested faults must be detected by
the module the methodology assigns (experiment E4).
"""

from __future__ import annotations

import pytest

from repro.analysis.properties import (
    check_detection,
    check_vector_consensus,
)
from repro.byzantine.adversary import (
    TRANSFORMED_ATTACKS,
    transformed_attack,
    transformed_attack_profile,
    transformed_attacks_at,
)
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

#: Attacks whose trigger needs the round-1 coordinator seat.
COORDINATOR_SEAT = {"equivocate-current", "wrong-cert-current"}

#: Attacks that manifest through messages (detectable via ``faulty``);
#: muteness is the one fault only the ◇M module can see.
MESSAGE_VISIBLE = {
    name
    for name, cls in TRANSFORMED_ATTACKS.items()
    if cls.profile.visible_in_messages
}


def attacker_seat(name: str) -> int:
    return 0 if name in COORDINATOR_SEAT else 3


def run_attack(name: str, seed: int = 0, n: int = 4, **kwargs):
    system = build_transformed_system(
        [f"v{i}" for i in range(n)],
        byzantine=transformed_attack(attacker_seat(name), name),
        seed=seed,
        **kwargs,
    )
    system.run(max_time=3_000)
    return system


class TestCatalog:
    def test_catalog_covers_the_fault_taxonomy(self):
        from repro.byzantine.faults import FailureClass

        classes = {
            transformed_attack_profile(name).failure_class
            for name in TRANSFORMED_ATTACKS
        }
        assert classes == set(FailureClass)

    def test_unknown_attack_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            transformed_attack(0, "nonsense")


@pytest.mark.parametrize("name", sorted(TRANSFORMED_ATTACKS))
class TestPropertiesSurviveEveryAttack:
    def test_agreement_termination_vector_validity(self, name):
        system = run_attack(name, seed=1)
        report = check_vector_consensus(system)
        assert report.all_hold, (name, report.violations)

    def test_no_correct_process_declared_faulty(self, name):
        system = run_attack(name, seed=2)
        detection = check_detection(system)
        assert detection.clean, (name, detection.false_positives)

    def test_under_random_delays(self, name):
        system = run_attack(name, seed=3, delay_model=UniformDelay(0.1, 2.5))
        report = check_vector_consensus(system)
        assert report.all_hold, (name, report.violations)


@pytest.mark.parametrize("name", sorted(MESSAGE_VISIBLE))
class TestDetectionCoverage:
    def test_manifested_fault_is_detected(self, name):
        # Some attacks only manifest when their trigger fires; several
        # seeds give every attack the opportunity.
        detected = False
        for seed in range(5):
            system = run_attack(name, seed=seed)
            if check_detection(system).detected_by_any:
                detected = True
                break
        assert detected, f"{name} never detected in 5 seeds"


class TestMutenessPath:
    def test_mute_attacker_suspected_not_declared(self):
        system = run_attack("mute", seed=4)
        detection = check_detection(system)
        assert 3 in detection.suspected_by_any
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations

    def test_mute_coordinator_costs_a_round(self):
        system = build_transformed_system(
            [f"v{i}" for i in range(4)],
            byzantine=transformed_attack(0, "mute"),
            seed=5,
        )
        system.run(max_time=3_000)
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations
        deciders = [p for p in system.processes if p.pid != 0 and p.decided]
        assert all(p.decision_round >= 2 for p in deciders)


class TestMultipleAttackers:
    def test_two_attackers_within_bound(self):
        # n = 7 tolerates F = 2.
        system = build_transformed_system(
            [f"v{i}" for i in range(7)],
            byzantine=transformed_attacks_at(
                {3: "corrupt-vector", 5: "forged-decide"}
            ),
            seed=6,
        )
        system.run(max_time=3_000)
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations
        detection = check_detection(system)
        assert detection.detected_by_any

    def test_mixed_mute_and_corrupt(self):
        system = build_transformed_system(
            [f"v{i}" for i in range(7)],
            byzantine=transformed_attacks_at({2: "mute", 4: "corrupt-vector"}),
            seed=7,
        )
        system.run(max_time=3_000)
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations

    def test_attacker_count_beyond_f_rejected_by_builder(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_transformed_system(
                [f"v{i}" for i in range(4)],
                byzantine=transformed_attacks_at({1: "mute", 2: "mute"}),
            )


class TestDetectionAttribution:
    def test_signature_attacks_blame_the_channel_sender(self):
        system = run_attack("impersonation", seed=8)
        reports = [
            r
            for pid in system.correct_pids
            for r in system.processes[pid].monitor_bank.reports
        ]
        assert any(
            "signature module" in r.reason and r.culprit == 3 for r in reports
        )

    def test_corrupt_vector_blamed_via_certificates(self):
        system = run_attack("corrupt-vector", seed=9)
        reports = [
            r
            for pid in system.correct_pids
            for r in system.processes[pid].monitor_bank.reports
        ]
        assert any(r.culprit == 3 for r in reports)

    def test_equivocation_reported_as_equivocation(self):
        system = run_attack("equivocate-init", seed=10)
        reports = [
            r
            for pid in system.correct_pids
            for r in system.processes[pid].monitor_bank.reports
        ]
        assert any("equivocation" in r.reason for r in reports)
