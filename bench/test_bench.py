"""Self-test of the benchmark (``python -m pytest bench -q``).

Not part of tier-1 (whose ``testpaths`` is ``tests``): it boots real
clusters on loopback sockets and takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics, run, trace, workloads

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- the declared contract, end to end ---------------------------------------


def test_manifest_names_every_workload_once():
    names = [entry["name"] for entry in MANIFEST["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    metrics = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(set(metrics)) == len(metrics)
    assert all(NAME.fullmatch(name) for name in names + metrics)
    assert "setup_s" in metrics


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_pass_emits_every_declared_metric(name, traced):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", name, "--seed", "3", "--seconds", "1.5",
            "--trace", str(traced),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not traced:
            assert entry["value"] > 0


# -- the tracer ---------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def inner():
        clock.now += 3

    traced_inner = tracer.wrap(inner, "low", "inner")

    def outer():
        clock.now += 5
        traced_inner()
        traced_inner()
        clock.now += 2

    traced_outer = tracer.wrap(outer, "high", "outer")
    traced_outer()
    clock.now += 1000  # untraced time between spans is nobody's
    traced_outer()
    # rows: [layer, calls, self_ns]
    assert tracer.rows["outer"] == ["high", 2, 14]
    assert tracer.rows["inner"] == ["low", 4, 12]
    tracer.reset()
    assert tracer.rows["outer"] == ["high", 0, 0]


def test_span_survives_an_exception():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def boom():
        clock.now += 4
        raise ValueError("boom")

    traced = tracer.wrap(boom, "layer", "boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.rows["boom"] == ["layer", 1, 4]
    tracer.reset()  # the stack is empty again


def test_coroutine_is_billed_per_resumption_not_while_parked():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    class Park:
        def __await__(self):
            yield

    def child():
        clock.now += 1

    traced_child = tracer.wrap(child, "low", "child")

    async def entry():
        clock.now += 2
        await Park()
        traced_child()
        clock.now += 3
        return "done"

    awaitable = tracer.wrap(entry, "high", "entry")()
    step = awaitable.__await__()
    next(step)  # runs to the suspension point
    clock.now += 500  # parked: other tasks run
    with pytest.raises(StopIteration) as finished:
        next(step)
    assert finished.value.value == "done"
    assert tracer.rows["entry"] == ["high", 1, 5]
    assert tracer.rows["child"] == ["low", 1, 1]


def test_every_traced_symbol_resolves_and_a_missing_one_is_named():
    assert len(trace.resolve_all()) == len(trace.TARGETS)
    with pytest.raises(trace.TraceError, match=r"repro\.net\.wire\.no_such_codec"):
        trace.resolve("repro.net.wire", "no_such_codec")
    with pytest.raises(trace.TraceError, match=r"FrameAssembler\.no_feed"):
        trace.resolve("repro.net.wire", "FrameAssembler.no_feed")


# -- the open-loop generator ---------------------------------------------------


def test_open_loop_times_each_request_from_its_due_instant():
    schedule = [0.0, 0.05, 0.1, 0.3, 0.35]

    async def scenario():
        loop = asyncio.get_running_loop()
        # The generator starts 0.3 s behind its schedule, as after a stall.
        opened = loop.time() - 0.3
        window = workloads.Window()
        since_seen: list[float] = []

        async def operation(since: float) -> None:
            since_seen.append(since)

        await workloads._open_loop(None, operation, opened, schedule, None, window)
        return opened, since_seen, window

    opened, since_seen, window = asyncio.run(scenario())
    assert since_seen == [opened + offset for offset in schedule]
    assert window.late_ms[0] >= 300.0  # the stall is reported, not hidden
    assert window.late_ms[-1] < 50.0  # and the generator catches up


def test_open_schedule_is_seeded_and_has_the_rate():
    schedule = workloads.open_schedule(5, 12.0)
    assert schedule == workloads.open_schedule(5, 12.0) != workloads.open_schedule(6, 12.0)
    assert len(schedule) == round(workloads.OPEN_RATE * 12.0)
    assert schedule == sorted(schedule) and 0.0 <= schedule[0] and schedule[-1] < 12.0


# -- latency slices ------------------------------------------------------------


def test_latency_slices_need_a_second_and_sixty_samples():
    def sizes(rate: float, seconds: float = 12.0) -> list[int]:
        completions = [(i / rate, 1.0) for i in range(int(rate * seconds))]
        slices = metrics.latency_slices(completions)
        assert sum(len(piece) for piece in slices) == len(completions)
        return [len(piece) for piece in slices]

    assert sizes(20) == [60, 60, 60, 60]  # three-second slices at 20/s
    assert sizes(22) == [60, 60, 60, 84]  # a short tail joins the last slice
    assert sizes(4000) == [4000] * 12  # never shorter than a second
    assert sizes(64, seconds=0.5) == [32]


def test_closed_loop_latency_is_the_calm_quarter_of_the_slices():
    window = workloads.Window(seconds=12.0, cpu_seconds=6.0, completed=2400)
    # Twelve one-second slices of 200 completions; five of them disturbed.
    for second in range(12):
        latency = 50.0 if second in (1, 4, 5, 8, 10) else 10.0
        window.completions += [(second + i / 200, latency) for i in range(200)]
    window.completions.append((12.4, 900.0))  # drained after the window: no metric
    values = metrics.end_to_end(window, setups=[3.0, 1.0, 2.0], open_loop=False)
    assert values["lat_p50_ms"]["value"] == values["lat_p95_ms"]["value"] == 10.0
    assert values["ops_s"]["value"] == 200.0
    assert values["cpu_ms_per_op"]["value"] == 2.5
    assert values["setup_s"]["value"] == 2.0
    # An open loop (the crash run is not stationary) takes the whole window.
    values = metrics.end_to_end(window, setups=[1.0], open_loop=True)
    assert values["lat_p50_ms"]["value"] == 10.0
    assert values["lat_p95_ms"]["value"] == 50.0


# -- the agreement tool --------------------------------------------------------


def _result_file(path: Path, scale: float) -> str:
    metrics = {
        m["name"]: {"value": 100.0 * (scale if m["name"] == "ops_s" else 1.0), "unit": m["unit"]}
        for m in MANIFEST["end_to_end"]
    }
    run_result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path.write_text(json.dumps({"workloads": {"write_small": {"end_to_end": run_result}}}))
    return str(path)


def test_agree_applies_each_bound_in_the_metric_direction(tmp_path, capsys):
    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "ops_s")
    base = _result_file(tmp_path / "a.json", 1.0)
    slower = _result_file(tmp_path / "b.json", 1.0 - 2 * bound)
    faster = _result_file(tmp_path / "c.json", 1.0 + 2 * bound)
    assert run.agree(base, base)
    assert run.agree(base, faster)  # better is never a regression
    assert not run.agree(base, slower)
    assert "REGRESSED" in capsys.readouterr().out
