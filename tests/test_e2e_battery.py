"""End-to-end battery: randomized cross-cutting invariants.

Property-based sweeps across seeds, sizes, fault mixes and variants —
the widest net in the suite. Every run must satisfy the invariants the
paper proves; any counterexample hypothesis finds is a real bug (the
seed makes it replayable).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.properties import (
    check_detection,
    check_vector_consensus,
)
from repro.byzantine.adversary import TRANSFORMED_ATTACKS, transformed_attack
from repro.sim.network import ExponentialDelay, UniformDelay
from repro.systems import build_transformed_system

ATTACK_NAMES = sorted(TRANSFORMED_ATTACKS)


def proposals(n):
    return [f"v{i}" for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.sampled_from([4, 5, 7]),
    attack=st.sampled_from(ATTACK_NAMES),
    attacker=st.integers(min_value=0, max_value=6),
    heavy_tail=st.booleans(),
)
def test_transformed_invariants_under_any_single_attack(
    seed, n, attack, attacker, heavy_tail
):
    """For every (seed, size, attack, seat, delay-shape): Agreement,
    Termination, Vector Validity hold and no correct process is ever
    declared faulty by a correct process."""
    attacker %= n
    delay = (
        ExponentialDelay(mean=1.0, base=0.1, cap=20.0)
        if heavy_tail
        else UniformDelay(0.1, 2.0)
    )
    system = build_transformed_system(
        proposals(n),
        byzantine=transformed_attack(attacker, attack),
        seed=seed,
        delay_model=delay,
    )
    system.run(max_time=5_000.0)
    report = check_vector_consensus(system)
    assert report.all_hold, (n, attack, attacker, seed, report.violations)
    detection = check_detection(system)
    assert detection.clean, (n, attack, attacker, seed, detection.false_positives)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    crash_time=st.floats(min_value=0.0, max_value=10.0),
    crashed=st.integers(min_value=0, max_value=3),
    muteness=st.sampled_from(["oracle", "timeout"]),
)
def test_transformed_invariants_under_any_crash(
    seed, crash_time, crashed, muteness
):
    system = build_transformed_system(
        proposals(4),
        crash_at={crashed: crash_time},
        seed=seed,
        muteness=muteness,
        delay_model=UniformDelay(0.1, 2.0),
    )
    system.run(max_time=5_000.0)
    report = check_vector_consensus(system)
    assert report.all_hold, (crashed, crash_time, seed, report.violations)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    attack_a=st.sampled_from(ATTACK_NAMES),
    attack_b=st.sampled_from(ATTACK_NAMES),
)
def test_two_simultaneous_attackers_at_n7(seed, attack_a, attack_b):
    from repro.byzantine.adversary import transformed_attacks_at

    system = build_transformed_system(
        proposals(7),
        byzantine=transformed_attacks_at({5: attack_a, 6: attack_b}),
        seed=seed,
        delay_model=UniformDelay(0.1, 2.0),
    )
    system.run(max_time=5_000.0)
    report = check_vector_consensus(system)
    assert report.all_hold, (attack_a, attack_b, seed, report.violations)
    assert check_detection(system).clean


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    attack=st.sampled_from(sorted(__import__(
        "repro.byzantine.ct_attacks", fromlist=["CT_ATTACKS"]
    ).CT_ATTACKS)),
    attacker=st.integers(min_value=0, max_value=3),
)
def test_transformed_ct_invariants_under_any_single_attack(seed, attack, attacker):
    from repro.byzantine.ct_attacks import ct_attack

    system = build_transformed_system(
        proposals(4),
        base="chandra-toueg",
        byzantine=ct_attack(attacker, attack),
        seed=seed,
        delay_model=UniformDelay(0.1, 2.0),
    )
    system.run(max_time=5_000.0)
    report = check_vector_consensus(system)
    assert report.all_hold, (attack, attacker, seed, report.violations)
    assert check_detection(system).clean


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    attack=st.sampled_from(ATTACK_NAMES),
)
def test_determinism_same_seed_same_outcome(seed, attack):
    """Bit-for-bit reproducibility: the cornerstone of the experiment
    harness."""

    def run():
        system = build_transformed_system(
            proposals(4),
            byzantine=transformed_attack(3, attack),
            seed=seed,
        )
        system.run(max_time=3_000.0)
        return (
            system.decisions(),
            tuple(sorted(p.faulty) for p in system.processes),
            system.world.network.messages_sent,
            system.world.scheduler.now,
        )

    assert run() == run()
