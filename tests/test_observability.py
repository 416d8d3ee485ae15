"""Unit tests: the observability layer (registry, export, report, CLI).

Pins the acceptance properties of the layer:

* fixed-seed runs yield fixed, known counter values;
* exporting the same run twice is byte-identical, and an exported
  artifact round-trips (export -> parse -> re-export equal);
* every one of the five Figure-1 modules reports activity under the
  attack gallery;
* ``python -m repro report`` exits 0 on a fresh artifact.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.run_report import RunReport
from repro.byzantine.adversary import transformed_attack
from repro.cli import main
from repro.observability.export import (
    SCHEMA_VERSION,
    artifact_to_lines,
    parse_lines,
    read_run_jsonl,
    run_to_lines,
    write_run_jsonl,
    ArtifactError,
)
from repro.observability.registry import (
    MODULE_CERTIFICATION,
    MODULE_MONITOR,
    MODULE_MUTENESS,
    MODULE_PROTOCOL,
    MODULE_SIGNATURE,
    NULL_METRICS,
    PAPER_MODULES,
    MetricsRegistry,
)
from repro.systems import build_transformed_system


def proposals(n):
    return [f"v{i}" for i in range(n)]


def run_system(seed=7, attack=None, **kwargs):
    byzantine = transformed_attack(3, attack) if attack else None
    system = build_transformed_system(
        proposals(4), byzantine=byzantine, seed=seed, **kwargs
    )
    system.run()
    return system


class TestRegistry:
    def test_counter_identity_and_totals(self):
        reg = MetricsRegistry()
        reg.inc("protocol", "rounds_started", pid=0, round=1)
        reg.inc("protocol", "rounds_started", pid=1, round=1)
        reg.inc("protocol", "rounds_started", pid=0, round=2)
        assert reg.counter("protocol", "rounds_started", pid=0, round=1) == 1
        assert reg.counter_total("protocol", "rounds_started") == 3
        assert reg.rounds_observed() == [1, 2]
        assert reg.counters_for_round(1) == {("protocol", "rounds_started"): 2}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            reg.observe("network", "delivery_latency", value)
        ((key, summary),) = list(reg.iter_histograms())
        assert key == ("network", "delivery_latency", None, None)
        assert summary == [3, 6.0, 1.0, 3.0]

    def test_gauge_max(self):
        reg = MetricsRegistry()
        reg.gauge_max("scheduler", "queue_depth_max", 5)
        reg.gauge_max("scheduler", "queue_depth_max", 3)
        assert dict(reg.iter_gauges()) == {
            ("scheduler", "queue_depth_max", None, None): 5
        }

    def test_scope_binds_module_and_pid(self):
        reg = MetricsRegistry()
        scope = reg.scope("signature", pid=2)
        scope.inc("messages_signed")
        assert reg.counter("signature", "messages_signed", pid=2) == 1

    def test_profiles_excluded_from_equality(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.profile_observe("signature", "verify", 0.5)
        assert left == right
        right.inc("protocol", "decisions")
        assert left != right

    def test_null_metrics_accepts_both_shapes(self):
        NULL_METRICS.inc("protocol", "decisions", pid=0, round=1)
        NULL_METRICS.inc("decisions")
        with NULL_METRICS.span("anything"):
            pass
        assert NULL_METRICS.scope("protocol", 1) is NULL_METRICS


class TestDeterministicCounters:
    def test_fixed_seed_fixed_counters(self):
        system = run_system(seed=7)
        metrics = system.world.metrics
        # n=4, failure-free: every process signs INIT + (coordinator)
        # CURRENT / relays + DECIDE; all 48 deliveries verify.
        assert metrics.counter_total(MODULE_SIGNATURE, "messages_verified") == 48
        assert metrics.counter_total(MODULE_SIGNATURE, "messages_signed") == 12
        assert metrics.counter_total(MODULE_PROTOCOL, "decisions") == 4
        assert metrics.counter_total(MODULE_PROTOCOL, "rounds_started") == 4
        assert (
            metrics.counter_total(MODULE_MONITOR, "automaton_transitions") == 36
        )

    def test_same_seed_equal_registries(self):
        assert run_system(seed=11).world.metrics == run_system(seed=11).world.metrics

    def test_different_seeds_may_differ_without_error(self):
        # Not asserting inequality (delays can coincide) — only that both
        # runs produce complete, well-formed registries.
        for seed in (1, 2):
            totals = run_system(seed=seed).world.metrics.totals_by_module()
            assert totals[MODULE_PROTOCOL]["decisions"] == 4


class TestExportRoundTrip:
    def test_double_export_byte_identical(self):
        lines_a = "\n".join(
            run_to_lines(
                run_system(seed=3).world.trace,
                run_system(seed=3).world.metrics,
                meta={"seed": 3},
            )
        )
        system = run_system(seed=3)
        lines_b = "\n".join(
            run_to_lines(system.world.trace, system.world.metrics, meta={"seed": 3})
        )
        assert lines_a == lines_b

    def test_round_trip_preserves_everything(self, tmp_path):
        system = run_system(seed=5, attack="corrupt-vector")
        path = tmp_path / "run.jsonl"
        write_run_jsonl(
            path, system.world.trace, system.world.metrics, meta={"seed": 5}
        )
        artifact = read_run_jsonl(path)
        assert artifact.schema == SCHEMA_VERSION
        assert artifact.meta == {"seed": 5}
        assert artifact.metrics == system.world.metrics
        assert len(artifact.events) == len(list(system.world.trace))
        # Re-serialising the parsed artifact reproduces the file bytes.
        assert "\n".join(artifact_to_lines(artifact)) + "\n" == path.read_text()

    def test_write_to_handle(self):
        system = run_system(seed=2)
        buffer = io.StringIO()
        write_run_jsonl(buffer, system.world.trace, system.world.metrics)
        parsed = parse_lines(buffer.getvalue().splitlines())
        assert parsed.metrics == system.world.metrics

    def test_header_line_is_first_and_versioned(self):
        system = run_system(seed=2)
        first = next(
            iter(run_to_lines(system.world.trace, system.world.metrics))
        )
        header = json.loads(first)
        assert header["kind"] == "header"
        assert header["schema"] == SCHEMA_VERSION

    def test_parse_rejects_garbage(self):
        with pytest.raises(ArtifactError):
            parse_lines(["not json"])
        with pytest.raises(ArtifactError):
            parse_lines([json.dumps({"kind": "header", "schema": "other/v1"})])
        with pytest.raises(ArtifactError):
            parse_lines([json.dumps({"kind": "metric", "metric": "counter"})[:-2]])
        with pytest.raises(ArtifactError):
            parse_lines([])  # no header

    def test_report_refuses_a_newer_schema(self, tmp_path, capsys):
        # A v2 artifact from some later release must not be half-read as
        # v1: `repro report` exits 2 like every other artifact reader.
        path = tmp_path / "future.jsonl"
        header = {
            "kind": "header", "schema": "repro.observability/v2", "meta": {}
        }
        path.write_text(json.dumps(header) + "\n")
        assert main(["report", str(path)]) == 2
        assert "newer than" in capsys.readouterr().err


class TestPaperModuleAttribution:
    def test_every_module_active_under_attacks(self):
        # Two gallery attacks together exercise all five Figure-1 modules
        # (a mute peer drives the ◇M counters; a corrupted vector drives
        # signature/monitor/certification rejections).
        activity: dict[str, float] = {m: 0 for m in PAPER_MODULES}
        for attack, kwargs in (
            ("mute", {"muteness": "timeout"}),
            ("corrupt-vector", {}),
        ):
            report = RunReport.from_system(run_system(seed=7, attack=attack, **kwargs))
            for module, value in report.paper_module_activity().items():
                activity[module] += value
        assert all(activity[module] > 0 for module in PAPER_MODULES), activity

    def test_certification_rejections_counted(self):
        system = run_system(seed=7, attack="corrupt-vector")
        metrics = system.world.metrics
        assert metrics.counter_total(MODULE_CERTIFICATION, "certificates_rejected") > 0
        assert metrics.counter_total(MODULE_MONITOR, "messages_rejected") > 0
        assert metrics.counter_total(MODULE_MUTENESS, "suspicions_raised") > 0


class TestRunReport:
    def test_report_tables_and_json(self):
        report = RunReport.from_system(run_system(seed=7), meta={"seed": 7})
        text = report.render()
        assert "module totals" in text
        assert "per-round counters" in text
        assert "protocol" in text
        document = report.to_json()
        assert document["meta"] == {"seed": 7}
        assert document["module_totals"]["protocol"]["decisions"] == 4
        json.dumps(document)  # JSON-ready end to end

    def test_gauges_and_histograms_render(self):
        # Regression: RunReport used to drop gauges and histograms on
        # the floor — only counters made it into the tables/JSON.
        report = RunReport.from_system(run_system(seed=7))
        text = report.render()
        assert "gauges" in text
        assert "histograms" in text
        assert "queue_depth_max" in text
        assert "certificate_entries" in text
        document = report.to_json()
        gauge_names = {row["name"] for row in document["gauges"]}
        histo_names = {row["name"] for row in document["histograms"]}
        assert "queue_depth_max" in gauge_names
        assert "certificate_entries" in histo_names
        for row in document["histograms"]:
            assert row["min"] <= row["mean"] <= row["max"] or row["count"] == 0
        json.dumps(document)

    def test_from_artifact_matches_from_system(self, tmp_path):
        system = run_system(seed=9)
        path = tmp_path / "run.jsonl"
        write_run_jsonl(path, system.world.trace, system.world.metrics)
        from_file = RunReport.from_artifact(read_run_jsonl(path))
        from_live = RunReport.from_system(system)
        assert from_file.module_totals == from_live.module_totals
        assert from_file.round_counters == from_live.round_counters
        assert from_file.event_counts == from_live.event_counts
        assert from_file.gauges == from_live.gauges
        assert from_file.histograms == from_live.histograms


class TestCli:
    def test_run_then_report_exits_zero(self, tmp_path, capsys):
        artifact = tmp_path / "run.jsonl"
        assert main(["run", "--n", "4", "--seed", "3",
                     "--metrics-out", str(artifact)]) == 0
        assert artifact.exists()
        capsys.readouterr()
        assert main(["report", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "module totals" in out
        assert "signature" in out

    def test_report_json_mode(self, tmp_path, capsys):
        artifact = tmp_path / "run.jsonl"
        main(["run", "--n", "4", "--seed", "3", "--metrics-out", str(artifact)])
        capsys.readouterr()
        assert main(["report", str(artifact), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["module_totals"]["protocol"]["decisions"] == 4

    def test_cli_exports_are_deterministic(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            main(["run", "--n", "4", "--seed", "3",
                  "--attack", "3:corrupt-vector", "--metrics-out", str(path)])
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
