"""Shared configuration for the experiment benchmarks.

Each benchmark file regenerates one paper artefact (see DESIGN.md §3 and
EXPERIMENTS.md). The pytest-benchmark timer wraps the whole experiment
(`rounds=1`): the quantity of interest is the printed table, not the
harness runtime; assertions pin the *shape* the paper claims.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SEEDS = range(25)  # per-cell trials: deterministic, cheap, statistically steady


def proposals(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def run_once(benchmark, experiment):
    """Run ``experiment`` exactly once under the benchmark timer."""
    return benchmark.pedantic(experiment, rounds=1, iterations=1)


def metrics_dir() -> Path | None:
    """The JSONL artifact drop directory, or None when exporting is off."""
    directory = os.environ.get("REPRO_METRICS_DIR")
    return Path(directory) if directory else None


def write_bench(name: str, record: dict) -> Path | None:
    """Write a committed ``BENCH_*.json`` record if ``REPRO_METRICS_DIR``
    is set; the committed files are regenerated from the repo root with::

        REPRO_METRICS_DIR=. python -m pytest benchmarks/test_e20_saturation.py

    Without the environment variable this is a no-op, so a default run
    leaves the working tree as it found it.
    """
    target_dir = metrics_dir()
    if target_dir is None:
        return None
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / name
    target.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def export_artifact(system, name: str, **meta) -> Path | None:
    """Dump a run's observability artifact if ``REPRO_METRICS_DIR`` is set.

    Benchmarks call this after a representative run so experiments can
    leave comparable JSONL artifacts (schema in docs/OBSERVABILITY.md)
    next to their printed tables::

        REPRO_METRICS_DIR=out pytest benchmarks/test_e3_transformed_protocol.py

    Without the environment variable this is a no-op, keeping default
    benchmark runs artifact-free.
    """
    target_dir = metrics_dir()
    if target_dir is None:
        return None
    from repro.observability.export import write_run_jsonl

    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / f"{name}.jsonl"
    write_run_jsonl(target, system.world.trace, system.world.metrics, meta=meta)
    return target
