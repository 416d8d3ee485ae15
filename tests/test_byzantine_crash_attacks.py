"""Integration tests: arbitrary faults break the crash-model protocol.

These are the paper's *motivation*, reproduced as assertions: the crash
protocol has no defence against non-crash faults, so specific attacks
provably violate its specification (experiment E2 aggregates this over
many seeds; here we pin one deterministic witness per attack).
"""

from __future__ import annotations

import pytest

from repro.analysis.properties import check_crash_consensus
from repro.byzantine.adversary import CRASH_ATTACKS, crash_attack
from repro.byzantine.crash_attacks import POISON
from repro.sim.network import FixedDelay, UniformDelay
from repro.systems import build_crash_system


def proposals(n):
    return [f"v{i}" for i in range(n)]


def run_attack(name, pid=4, n=5, seed=0, delay_model=None):
    system = build_crash_system(
        proposals(n),
        byzantine=crash_attack(pid, name),
        seed=seed,
        delay_model=delay_model,
    )
    system.run(max_time=2_000)
    return system


class TestAttackCatalog:
    def test_catalog_is_complete(self):
        assert set(CRASH_ATTACKS) == {
            "spurious-decide",
            "value-corruption",
            "equivocation",
            "duplication",
            "identity-forgery",
            "wrong-round",
            "mute",
        }

    def test_every_attack_has_a_profile(self):
        for cls in CRASH_ATTACKS.values():
            assert cls.profile.name in CRASH_ATTACKS

    def test_unknown_attack_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            crash_attack(0, "no-such-attack")


class TestSafetyViolations:
    def test_spurious_decide_breaks_validity(self):
        system = run_attack("spurious-decide", seed=1)
        report = check_crash_consensus(system)
        assert not report.validity
        assert any(d == POISON for d in system.decisions().values())

    def test_value_corruption_by_coordinator_breaks_validity(self):
        # The attacker holds the round-1 coordinator seat: its corrupted
        # estimate is adopted and decided by everyone.
        system = build_crash_system(
            proposals(5),
            byzantine=crash_attack(0, "value-corruption"),
            seed=2,
        )
        system.run(max_time=2_000)
        report = check_crash_consensus(system)
        assert not report.validity
        assert POISON in system.decisions().values()

    def test_identity_forgery_breaks_safety(self):
        # Forged votes arriving before the real coordinator's CURRENT get
        # adopted and relayed; under most random schedules the poison
        # value (never proposed) ends up decided.
        violated = 0
        for seed in range(20):
            system = run_attack(
                "identity-forgery", seed=seed, delay_model=UniformDelay(0.1, 3.0)
            )
            report = check_crash_consensus(system)
            if not (report.agreement and report.validity):
                violated += 1
        assert violated > 0

    def test_equivocation_can_split_decisions(self):
        # The attacker coordinates round 1 and tells each half a different
        # value; some schedule yields an agreement or validity violation.
        violated = False
        for seed in range(40):
            system = build_crash_system(
                proposals(5),
                byzantine=crash_attack(0, "equivocation"),
                seed=seed,
                delay_model=UniformDelay(0.1, 3.0),
            )
            system.run(max_time=2_000)
            report = check_crash_consensus(system)
            if not (report.agreement and report.validity):
                violated = True
                break
        assert violated

    def test_duplication_manufactures_quorums(self):
        """With 3 of 5 processes crashed no majority exists, so the honest
        protocol must block — but a duplicating coordinator fabricates a
        CURRENT 'majority' out of two live processes and a decision is
        manufactured where none is possible."""
        crashes = {1: 0.0, 2: 0.0, 3: 0.0}
        honest = build_crash_system(proposals(5), crash_at=crashes, seed=1)
        honest.run(max_time=300)
        assert honest.decisions() == {}
        attacked = build_crash_system(
            proposals(5),
            crash_at=crashes,
            byzantine=crash_attack(0, "duplication"),
            seed=1,
        )
        attacked.run(max_time=300)
        assert attacked.decisions(), "the fake quorum produced a decision"


class TestToleratedAttacks:
    def test_mute_attacker_is_just_a_crash(self):
        system = run_attack("mute", seed=5)
        report = check_crash_consensus(system)
        assert report.all_hold, report.violations

    def test_wrong_round_alone_does_not_block_termination(self):
        system = run_attack("wrong-round", seed=6)
        report = check_crash_consensus(system)
        assert report.termination
