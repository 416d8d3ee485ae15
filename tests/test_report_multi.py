"""Tests: multi-artifact ``repro report`` with per-pid grouped rows.

One metrics JSONL per replica is the natural shape of a cluster run
(each ``node-*.log`` sibling writes its own artifact), so ``repro
report`` accepts several paths and renders one grouped section per
artifact with per-pid counter rows — a lagging or restarted replica
stands out against its peers. The single-path invocation must stay
byte-for-byte what it was before the flag grew ``nargs="+"``.
"""

from __future__ import annotations

import json

from repro.analysis.run_report import (
    RunReport,
    artifacts_to_json,
    per_pid_totals,
    render_artifacts,
)
from repro.cli import main
from repro.observability.export import read_run_jsonl, write_run_jsonl
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import Trace


def _artifact(path, *, pids=(0, 1), decided=3, meta=None):
    metrics = MetricsRegistry()
    for pid in pids:
        metrics.inc("protocol", "decided", decided, pid=pid)
        metrics.inc("certification", "verified", 2 * decided, pid=pid)
    metrics.inc("network", "sent", 10)  # unlabelled: pid is None
    write_run_jsonl(path, Trace(), metrics, meta=meta or {"seed": 1})
    return path


class TestPerPidTotals:
    def test_rounds_collapse_but_pids_stay_apart(self):
        metrics = MetricsRegistry()
        metrics.inc("protocol", "decided", 1, pid=0, round=0)
        metrics.inc("protocol", "decided", 2, pid=0, round=1)
        metrics.inc("protocol", "decided", 5, pid=1, round=0)
        rows = per_pid_totals(metrics)
        assert rows == [
            {"pid": 0, "module": "protocol", "name": "decided", "total": 3},
            {"pid": 1, "module": "protocol", "name": "decided", "total": 5},
        ]

    def test_unlabelled_rows_sort_first(self):
        metrics = MetricsRegistry()
        metrics.inc("network", "sent", 4, pid=2)
        metrics.inc("network", "sent", 9)
        rows = per_pid_totals(metrics)
        assert rows[0]["pid"] is None
        assert rows[0]["total"] == 9
        assert rows[1] == {
            "pid": 2, "module": "network", "name": "sent", "total": 4,
        }


class TestRenderArtifacts:
    def test_one_section_per_artifact(self, tmp_path):
        items = [
            (f"run-{i}.jsonl", read_run_jsonl(
                _artifact(tmp_path / f"run-{i}.jsonl", meta={"seed": i})
            ))
            for i in range(2)
        ]
        text = render_artifacts(items)
        assert "per-pid counters — run-0.jsonl" in text
        assert "per-pid counters — run-1.jsonl" in text
        assert "artifact run-0.jsonl: seed=0" in text

    def test_json_view_carries_per_pid_and_full_report(self, tmp_path):
        artifact = read_run_jsonl(_artifact(tmp_path / "run.jsonl"))
        document = artifacts_to_json([("run.jsonl", artifact)])
        assert len(document) == 1
        assert document[0]["artifact"] == "run.jsonl"
        pids = {row["pid"] for row in document[0]["per_pid"]}
        assert pids == {None, 0, 1}
        assert document[0]["report"]["meta"] == {"seed": 1}


class TestReportCli:
    def test_single_path_output_is_unchanged(self, tmp_path, capsys):
        path = _artifact(tmp_path / "run.jsonl")
        assert main(["report", str(path)]) == 0
        observed = capsys.readouterr().out
        expected = RunReport.from_artifact(read_run_jsonl(path)).render()
        assert observed == expected + "\n"

    def test_multi_path_renders_grouped_sections(self, tmp_path, capsys):
        paths = [
            str(_artifact(tmp_path / f"node-{i}.jsonl", pids=(i,)))
            for i in range(3)
        ]
        assert main(["report", *paths]) == 0
        out = capsys.readouterr().out
        for path in paths:
            assert f"per-pid counters — {path}" in out

    def test_multi_path_json_is_a_list(self, tmp_path, capsys):
        paths = [
            str(_artifact(tmp_path / f"node-{i}.jsonl")) for i in range(2)
        ]
        assert main(["report", "--json", *paths]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [entry["artifact"] for entry in document] == paths

    def test_missing_path_exits_2(self, tmp_path, capsys):
        good = str(_artifact(tmp_path / "run.jsonl"))
        assert main(["report", good, str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
