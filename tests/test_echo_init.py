"""Integration tests: the echo-INIT variant of the transformed protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.properties import check_detection, check_vector_consensus
from repro.byzantine.adversary import transformed_attack
from repro.byzantine.echo_attacks import echo_equivocation_attack
from repro.errors import ConfigurationError
from repro.messages.consensus import NULL
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system


def proposals(n):
    return [f"v{i}" for i in range(n)]


def built_slot_values(system, slot):
    """Distinct non-null values correct processes hold for ``slot``."""
    values = {
        event.detail["vector"][slot]
        for event in system.world.trace.of_kind("vector-built")
        if event.process in system.correct_pids
    }
    values.discard(NULL)
    return values


class TestEchoInitHappyPath:
    def test_clean_run_decides(self):
        system = build_transformed_system(proposals(4), variant="echo-init", seed=1)
        result = system.run()
        assert result.quiescent()
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations

    def test_no_false_declarations(self):
        system = build_transformed_system(proposals(7), variant="echo-init", seed=2)
        system.run()
        assert all(p.faulty == frozenset() for p in system.processes)

    @pytest.mark.parametrize("n", [4, 7])
    def test_sizes(self, n):
        system = build_transformed_system(proposals(n), variant="echo-init", seed=3)
        system.run(max_time=2_000)
        assert check_vector_consensus(system).all_hold

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            build_transformed_system(proposals(4), variant="morse-code")


class TestEchoInitUnderFaults:
    def test_crash_tolerated(self):
        system = build_transformed_system(
            proposals(4), variant="echo-init", crash_at={0: 0.0}, seed=4
        )
        system.run(max_time=3_000)
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations

    def test_corrupt_vector_attacker_still_convicted(self):
        # The round machinery is unchanged: certificate analysis works the
        # same on top of the RB INIT phase.
        system = build_transformed_system(
            proposals(4),
            variant="echo-init",
            byzantine=transformed_attack(3, "corrupt-vector"),
            seed=5,
        )
        system.run(max_time=3_000)
        assert check_vector_consensus(system).all_hold
        assert check_detection(system).detected_by_any

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50_000))
    def test_rb_equivocator_cannot_diverge_slots(self, seed):
        """RB consistency: the equivocator's slot is uniform everywhere."""
        system = build_transformed_system(
            proposals(4),
            variant="echo-init",
            byzantine=echo_equivocation_attack(3),
            seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        )
        system.run(max_time=1_000)
        assert len(built_slot_values(system, 3)) <= 1
        report = check_vector_consensus(system)
        assert report.all_hold, report.violations

    def test_plain_variant_does_diverge_for_contrast(self):
        diverged = 0
        for seed in range(20):
            system = build_transformed_system(
                proposals(4),
                byzantine=transformed_attack(3, "equivocate-init"),
                seed=seed,
                delay_model=UniformDelay(0.1, 2.0),
            )
            system.run(max_time=1_000)
            if len(built_slot_values(system, 3)) > 1:
                diverged += 1
        assert diverged > 0
