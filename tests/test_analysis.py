"""Unit tests: property checkers, metrics, batch runner, reporting."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_trials
from repro.analysis.metrics import certificate_entries, measure, payload_bytes
from repro.analysis.properties import (
    check_crash_consensus,
    check_detection,
    check_vector_consensus,
)
from repro.analysis.reporting import format_cell, percent, render_table
from repro.byzantine.adversary import crash_attack, transformed_attack
from repro.systems import build_crash_system, build_transformed_system
from tests.helpers import SignedWorkbench


def proposals(n):
    return [f"v{i}" for i in range(n)]


class TestPropertyCheckers:
    def test_clean_crash_run_reports_all_hold(self):
        system = build_crash_system(proposals(4), seed=0)
        system.run()
        report = check_crash_consensus(system)
        assert report.all_hold
        assert report.violations == []

    def test_undecided_run_reports_termination_failure(self):
        system = build_crash_system(proposals(4), seed=0)
        # Never run: nobody decided.
        report = check_crash_consensus(system)
        assert not report.termination
        assert any("termination" in v for v in report.violations)

    def test_validity_violation_spotted(self):
        system = build_crash_system(
            proposals(5), byzantine=crash_attack(4, "spurious-decide"), seed=1
        )
        system.run()
        report = check_crash_consensus(system)
        assert not report.validity

    def test_vector_checker_requires_transformed_system(self):
        system = build_crash_system(proposals(4), seed=0)
        with pytest.raises(ValueError):
            check_vector_consensus(system)

    def test_vector_checker_passes_clean_run(self):
        system = build_transformed_system(proposals(4), seed=0)
        system.run()
        report = check_vector_consensus(system)
        assert report.all_hold

    def test_detection_report_counts_detectors(self):
        system = build_transformed_system(
            proposals(4), byzantine=transformed_attack(3, "corrupt-vector"), seed=1
        )
        system.run()
        detection = check_detection(system)
        assert detection.detectors_per_culprit == {3: 3}
        assert detection.detected_by_all
        assert detection.clean

    def test_detection_report_without_byzantine(self):
        system = build_transformed_system(proposals(4), seed=0)
        system.run()
        detection = check_detection(system)
        assert not detection.detected_by_any
        assert detection.clean


class TestMetrics:
    def test_measure_counts_messages(self):
        system = build_transformed_system(proposals(4), seed=0)
        system.run()
        metrics = measure(system)
        assert metrics.messages_sent == system.world.network.messages_sent
        assert metrics.decided_count == 4
        assert metrics.protocol_bytes > 0
        assert metrics.signed_messages > 0
        assert metrics.mean_decision_round == 1.0

    def test_crash_protocol_has_no_signed_messages(self):
        system = build_crash_system(proposals(4), seed=0)
        system.run()
        metrics = measure(system)
        assert metrics.signed_messages == 0
        assert metrics.max_certificate_entries == 0

    def test_transformed_bytes_exceed_crash_bytes(self):
        crash = build_crash_system(proposals(4), seed=0)
        crash.run()
        transformed = build_transformed_system(proposals(4), seed=0)
        transformed.run()
        assert measure(transformed).protocol_bytes > measure(crash).protocol_bytes

    def test_certificate_entries_counts_recursively(self):
        bench = SignedWorkbench(4)
        coordinator_msg = bench.coordinator_current()
        relay = bench.relay_current(1, coordinator_msg)
        assert certificate_entries(coordinator_msg) == 3  # the INIT set
        assert certificate_entries(relay) == 1 + 3  # inner CURRENT + its INITs

    def test_payload_bytes_positive_and_monotone(self):
        bench = SignedWorkbench(4)
        init = bench.signed_init(0)
        current = bench.coordinator_current()
        assert 0 < payload_bytes(init) < payload_bytes(current)


class TestRunTrials:
    def test_aggregates_rates(self):
        summary = run_trials(
            builder=lambda seed: build_crash_system(proposals(4), seed=seed),
            checker=check_crash_consensus,
            seeds=range(5),
        )
        assert len(summary) == 5
        assert summary.termination_rate == 1.0
        assert summary.agreement_rate == 1.0
        assert summary.validity_rate == 1.0
        assert summary.violation_rate == 0.0
        assert summary.mean_messages > 0

    def test_violation_rate_under_attack(self):
        summary = run_trials(
            builder=lambda seed: build_crash_system(
                proposals(5),
                byzantine=crash_attack(4, "spurious-decide"),
                seed=seed,
            ),
            checker=check_crash_consensus,
            seeds=range(4),
        )
        assert summary.violation_rate == 1.0

    def test_detection_rates(self):
        summary = run_trials(
            builder=lambda seed: build_transformed_system(
                proposals(4),
                byzantine=transformed_attack(3, "corrupt-vector"),
                seed=seed,
            ),
            checker=check_vector_consensus,
            seeds=range(3),
        )
        assert summary.detection_by_any_rate == 1.0
        assert summary.false_positive_rate == 0.0

    def test_empty_summary_rates_are_zero(self):
        from repro.analysis.experiments import TrialSummary

        summary = TrialSummary()
        assert summary.termination_rate == 0.0
        assert summary.mean_messages is None


class TestReporting:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(1.234) == "1.23"
        assert format_cell("x") == "x"

    def test_percent(self):
        assert percent(0.5) == "50%"
        assert percent(1.0) == "100%"

    def test_render_table_alignment(self):
        table = render_table("T", ["col", "x"], [["a", 1], ["bb", 22]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert "|" in lines[2]
        assert all("|" in line for line in lines[4:])

    def test_render_empty_table(self):
        table = render_table("Empty", ["a", "b"], [])
        assert "Empty" in table
