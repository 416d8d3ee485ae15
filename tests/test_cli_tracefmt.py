"""Unit tests: the CLI and the trace formatting/export tools."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.analysis.tracefmt import (
    render_sequence,
    trace_to_json,
    trace_to_records,
)
from repro.cli import build_parser, main
from repro.messages.consensus import Current, Decide
from repro.observability.export import describe_payload
from repro.systems import build_crash_system, build_transformed_system
from tests.helpers import SignedWorkbench


class TestDescribePayload:
    def test_plain_body(self):
        text = describe_payload(Current(sender=0, round=2, est="x"))
        assert text == "CURRENT(round=2, est='x')"

    def test_signed_message_shows_cert_shape(self):
        bench = SignedWorkbench(4)
        message = bench.coordinator_current()
        text = describe_payload(message)
        assert "VCURRENT" in text
        assert "cert[3]" in text
        assert "signed:0" in text

    def test_pruned_cert_labelled(self):
        bench = SignedWorkbench(4)
        light = bench.coordinator_current().light()
        assert "cert[pruned]" in describe_payload(light)

    def test_long_values_truncated(self):
        text = describe_payload(Decide(sender=0, est="x" * 100))
        assert len(text) < 80

    def test_foreign_payloads_repr(self):
        assert describe_payload({"a": 1}) == "{'a': 1}"


class TestTraceExport:
    @pytest.fixture
    def finished_system(self):
        system = build_crash_system(["a", "b", "c"], seed=1)
        system.run()
        return system

    def test_records_are_json_ready(self, finished_system):
        records = trace_to_records(finished_system.world.trace)
        blob = json.dumps(records)
        assert blob
        assert all("time" in r and "kind" in r for r in records)

    def test_kind_filter(self, finished_system):
        records = trace_to_records(
            finished_system.world.trace, kinds={"decide"}
        )
        assert records
        assert all(r["kind"] == "decide" for r in records)

    def test_json_roundtrip(self, finished_system):
        parsed = json.loads(trace_to_json(finished_system.world.trace))
        assert isinstance(parsed, list)

    def test_sequence_chart_mentions_everything(self, finished_system):
        chart = render_sequence(finished_system.world.trace, 3)
        assert "p0" in chart and "p2" in chart
        assert "CURRENT" in chart
        assert "DECIDE" in chart
        assert "-> *" in chart

    def test_sequence_chart_truncation(self, finished_system):
        chart = render_sequence(finished_system.world.trace, 3, max_events=2)
        assert "truncated" in chart


class TestCli:
    def test_params(self, capsys):
        assert main(["params", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert "arbitrary-fault bound F    = 2" in out

    def test_run_transformed_with_attack(self, capsys):
        code = main(
            ["run", "--n", "4", "--attack", "3:corrupt-vector", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement=True" in out
        assert "detections: {3: 3}" in out

    def test_run_crash_protocol_violation_exits_nonzero(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "hurfin-raynal",
                "--n",
                "5",
                "--attack",
                "4:spurious-decide",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out

    def test_run_with_crash_and_chart(self, capsys):
        code = main(
            ["run", "--protocol", "chandra-toueg", "--n", "4",
             "--crash", "0:0.5", "--chart"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "time" in out and "| p0" not in out.splitlines()[0]

    def test_run_echo_init_variant(self, capsys):
        assert main(["run", "--n", "4", "--variant", "echo-init"]) == 0

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        code = main(["run", "--n", "4", "--json", str(target)])
        assert code == 0
        parsed = json.loads(target.read_text())
        assert parsed

    def test_attacks_listing(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "corrupt-vector" in out
        assert "spurious-decide" in out

    def test_gallery(self, capsys):
        assert main(["gallery", "--n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "attack gallery" in out
        assert "mute" in out

    def test_bad_pair_syntax(self, capsys):
        # Malformed PID:VALUE pairs are configuration errors (exit 2),
        # not tracebacks.
        assert main(["run", "--crash", "zzz"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_repro_error_becomes_exit_2(self, capsys):
        # 2 attackers with n=4 exceeds F=1 -> ConfigurationError -> exit 2.
        code = main(
            ["run", "--n", "4", "--attack", "2:mute", "--attack", "3:mute"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "4", "--attack", "9:mute"],
            ["run", "--n", "4", "--attack", "1:mute", "--crash", "1:5"],
            ["run", "--protocol", "chandra-toueg", "--n", "4",
             "--attack", "1:mute"],
            ["run", "--protocol", "hurfin-raynal", "--n", "4",
             "--variant", "echo-init"],
        ],
        ids=["pid-out-of-range", "crashed-and-byzantine",
             "attack-on-chandra-toueg", "variant-on-crash-protocol"],
    )
    def test_scenario_validation_exits_2(self, argv, capsys):
        # `run` goes through Scenario.validate, like every campaign run.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _cli_surface(parser: argparse.ArgumentParser, path: tuple = ()) -> dict:
    """verb path -> {option strings (or positional dest): default}."""
    surface: dict = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                surface.update(_cli_surface(child, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            key = " ".join(action.option_strings) or action.dest
            surface.setdefault(" ".join(path), {})[key] = action.default
    return surface


#: Every verb, flag and default the command line offers; a refactor of
#: cli.py must keep all of them.
CLI_SURFACE = {
    'run': {
        '--n': 4, '--protocol': 'transformed', '--variant': 'standard',
        '--base': 'hurfin-raynal', '--seed': 0, '--crash': [], '--attack': [],
        '--max-time': 3000.0, '--loss': 0.0, '--dup': 0.0, '--reorder': 0.0,
        '--partition': [], '--transport': 'none', '--muteness': 'oracle',
        '--chart': False, '--chart-rows': 60, '--json': None,
        '--metrics-out': None,
    },
    'report': {
        'artifact': None, '--json': False,
    },
    'gallery': {
        '--n': 4, '--seed': 0,
    },
    'attacks': {
        '--model': 'both',
    },
    'params': {
        '--n': None,
    },
    'campaign run': {
        '--preset': 'smoke', '--master-seed': 0, '--out': None,
        '--max-scenarios': None, '--no-shrink': False, '--json': False,
    },
    'campaign list': {
        '--preset': 'smoke', '--master-seed': 0,
    },
    'campaign replay': {
        'id': None, '--artifact': None, '--json': False,
    },
    'campaign shrink': {
        'id': None, '--artifact': None,
    },
    'campaign faults': {
        '--preset': 'smoke', '--plan': [], '--fidelity': 'sim,loopback',
        '--out': None, '--workdir': None, '--timeout': 180.0, '--rehunt': 0,
        '--shrink-out': None, '--json': False,
    },
    'service run': {
        '--n': 4, '--clients': 2, '--mode': 'open', '--rate': 2.0,
        '--think': 1.0, '--requests': 20, '--batch-size': 4,
        '--batch-delay': 1.0, '--window': 2, '--checkpoint-interval': 2,
        '--request-timeout': 40.0, '--seed': 0, '--attack': [],
        '--recover': [], '--loss': 0.0, '--transport': 'none',
        '--delay-model': 'uniform', '--max-time': 2500.0, '--json': None,
    },
    'net keygen': {
        '--out': None, '--replicas': 4, '--clients': 4, '--seed': 0,
        '--name': 'local', '--host': '127.0.0.1', '--base-port': 0,
    },
    'net replica': {
        '--genesis': None, '--pid': None, '--join': False,
        '--metrics-dir': None, '--faults': None, '--faults-origin': None,
        '--attack': None, '--uvloop': False,
    },
    'net client': {
        '--genesis': None, '--index': 0, 'op': None, 'operands': None,
        '--requests': 20, '--concurrency': 8,
    },
    'shard keygen': {
        '--out': None, '--shards': 2, '--replicas-per-shard': 4,
        '--clients': 4, '--seed': 0, '--name': 'sharded',
        '--host': '127.0.0.1', '--base-port': 0,
    },
    'shard route': {
        'keys': None, '--genesis': None, '--shards': None,
    },
    'shard client': {
        '--genesis': None, '--index': 0, 'op': None, 'operands': None,
        '--requests': 20, '--concurrency': 8,
    },
    'shard cluster': {
        '--shards': 2, '--replicas-per-shard': 4, '--requests': 40,
        '--kill-shard': 1, '--kill-pid': 2, '--seed': 7, '--workdir': None,
        '--concurrency': 8,
    },
    'shard loopback': {
        '--shards': 2, '--replicas-per-shard': 4, '--requests': 24,
        '--seed': 0, '--kill-shard': 1, '--kill-pid': 2, '--no-kill': False,
        '--out': None,
    },
    'mc run': {
        '--out': None, '--strategy': 'bfs', '--max-depth': 6,
        '--max-states': 20000, '--max-rounds': 2, '--seed': 0,
        '--adversary': None, '--alphabet': None, '--suppress-d': 1,
        '--mutation': None, '--stop-on-violation': False, '--json': False,
    },
    'mc resume': {
        'artifact': None, '--json': False,
    },
    'mc replay': {
        'artifact': None, '--index': 0, '--shrink': False, '--json': False,
    },
    'perf smoke': {
        '--out': None,
    },
    'experiments': {
        '--only': None, '--list': False,
    },
}


def test_cli_surface_is_pinned():
    assert _cli_surface(build_parser()) == CLI_SURFACE
