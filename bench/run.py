"""The benchmark's one command (definitions: bench/README.md).

    python3 bench/run.py                                 every workload, end-to-end metrics
    python3 bench/run.py --trace 1                       ... plus the traced per-layer pass
    python3 bench/run.py --workload write_small          one workload, in this interpreter
    python3 bench/run.py --agree A.json B.json           compare two result files

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the
metrics ``BENCHMARK.json`` declares: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. Without it every
workload runs in a fresh interpreter of its own and ``--out`` collects
the results, with the machine facts, into one file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: import the siblings as the ``bench`` package, so
    # that bench/trace.py cannot shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)

from bench import metrics  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Window,
    Workload,
    check_outputs,
    measure,
    set_up,
)

MANIFEST = ROOT / "BENCHMARK.json"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Share of a traced run's seconds spent on its untraced baseline window.
BASELINE_SHARE = 1 / 3


def manifest() -> dict[str, Any]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# One workload, in this interpreter.
# ---------------------------------------------------------------------------


async def _measured_run(
    workload: Workload, seed: int, seconds: float, tracer: Tracer | None = None
) -> tuple[Window, float]:
    """Set up, measure one window, check the outputs, tear down."""
    cluster, preloaded, setup_seconds = await set_up(workload, seed)
    try:
        window = await measure(cluster, workload, preloaded, seed, seconds, tracer)
        window.problems += await check_outputs(cluster, workload)
    finally:
        await cluster.stop()
    return window, setup_seconds


async def _set_up_only(workload: Workload, seed: int) -> float:
    cluster, _preloaded, setup_seconds = await set_up(workload, seed)
    await cluster.stop()
    return setup_seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """The result object of one run. Each cluster gets a loop of its own,
    so nothing a torn-down cluster left scheduled fires into the next."""
    workload = WORKLOADS[name]
    if trace:
        baseline, _ = asyncio.run(
            _measured_run(workload, seed, seconds * BASELINE_SHARE)
        )
        tracer = Tracer()
        tracer.install()
        window, _ = asyncio.run(
            _measured_run(workload, seed, seconds * (1 - BASELINE_SHARE), tracer)
        )
        runs = [baseline, window]
        untraced_cpu_ms_per_op = baseline.cpu_seconds * 1000.0 / baseline.completed
        values = metrics.per_layer(window, untraced_cpu_ms_per_op)
    else:
        window, first_setup = asyncio.run(_measured_run(workload, seed, seconds))
        setups = [first_setup] + [
            asyncio.run(_set_up_only(workload, seed)) for _ in range(SETUPS - 1)
        ]
        runs = [window]
        values = metrics.end_to_end(window, setups, workload.open_loop)
    declared = [m["name"] for m in manifest()["per_layer" if trace else "end_to_end"]]
    if sorted(values) != sorted(declared):
        raise SystemExit(
            "metrics computed and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    for run in runs:
        _print_window(name, run)
    for metric, entry in values.items():
        print(f"{name}  {metric:<52} {entry['value']:>14.4f} {entry['unit']}")
    return {
        "correct": not any(run.problems for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {metric: values[metric] for metric in declared},
    }


def _print_window(name: str, window: Window) -> None:
    """What qualifies the metrics: sample counts, the ungated p99, faults."""
    lat = [latency for _offset, latency in window.completions]
    print(
        f"{name}: window {window.seconds:.2f} s, {window.completed} ops in window, "
        f"{window.attempted} attempted, {window.failed} failed "
        f"(fail_ratio {window.failed / window.attempted:.4f}), "
        f"{len(lat)} latency samples, p99 {metrics.percentile(lat, 99):.1f} ms (not gated)"
    )
    print(
        f"{name}: frames_dropped "
        f"{window.counters.get('net/frames_dropped', 0):.0f}, handler_errors "
        f"{window.counters.get('net/handler_errors', 0):.0f}, resubmissions "
        f"{window.resubmissions}"
    )
    for problem in window.problems[:10]:
        print(f"{name}: CHECK FAILED: {problem}")
    if len(window.problems) > 10:
        print(f"{name}: ... and {len(window.problems) - 10} more")


# ---------------------------------------------------------------------------
# Every workload, each in a fresh interpreter.
# ---------------------------------------------------------------------------


def machine_facts(seed: int, seconds: float) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # The benchmark always runs the stock asyncio loop.
        "uvloop": False,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    results: dict[str, Any] = {"machine": machine_facts(seed, seconds), "workloads": {}}
    for name in names:
        entry = results["workloads"][name] = {}
        for traced in (False, True) if trace else (False,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced)),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                raise SystemExit(f"{name}: no result (exit {done.returncode})") from None
            entry["per_layer" if traced else "end_to_end"] = result
    return results


# ---------------------------------------------------------------------------
# Agreement of two result files.
# ---------------------------------------------------------------------------


def agree(path_a: str, path_b: str) -> bool:
    """One row per (workload, end-to-end metric): is B within the bound of A?

    A is the baseline, B the candidate. A row fails when B is worse than
    A, in the metric's declared direction, by more than the metric's
    ``bound`` share of A — or when either side failed an operation or an
    output check.
    """
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    end_to_end = manifest()["end_to_end"]
    ok = True
    print(f"{'workload':<20}{'metric':<20}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:<20}missing from {path_b}")
            ok = False
            continue
        runs = a[name]["end_to_end"], b[name]["end_to_end"]
        for side, label in zip(runs, "AB"):
            if not side["correct"] or side["failed"]:
                print(f"{name:<20}{label}: correct={side['correct']} failed={side['failed']}")
                ok = False
        for declared in end_to_end:
            metric = declared["name"]
            before, after = (run["metrics"][metric]["value"] for run in runs)
            change = (after - before) / before
            worse = change if declared["better"] == "lower" else -change
            within = worse <= declared["bound"]
            ok = ok and within
            print(
                f"{name:<20}{metric:<20}{before:>12.4f}{after:>12.4f}"
                f"{worse:>+10.1%}{declared['bound']:>8.0%}  "
                f"{'ok' if within else 'REGRESSED'}"
            )
    return ok


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    declared = manifest()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"]),
        help="length of the measured window (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: the traced pass, printing the per-layer metrics",
    )
    parser.add_argument("--out", help="write the full pass's results to this file")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.agree:
        return 0 if agree(*args.agree) else 1
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] and not result["failed"] else 1
    names = [entry["name"] for entry in declared["workloads"]]
    results = run_all(names, args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    good = all(
        run["correct"] and not run["failed"]
        for entry in results["workloads"].values()
        for run in entry.values()
    )
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
