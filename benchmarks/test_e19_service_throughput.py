"""E19 (application) — replicated-service throughput and commit latency.

E18 measured the bare replicated log; this experiment measures the full
service runtime in :mod:`repro.service` — open-loop clients feeding a
batched, pipelined, checkpointing replica group — across (batch size x
pipelining window) configurations. Reported per configuration:
virtual-time throughput, p50/p99 client-observed commit latency, mean
batch occupancy and certified checkpoints.

Besides the printed table the experiment writes ``BENCH_service.json``
into ``REPRO_METRICS_DIR`` when it is set (``REPRO_METRICS_DIR=.``
regenerates the committed file): the same numbers as a machine-readable
artifact, byte-identical across runs of a fixed seed.
"""

from __future__ import annotations

from repro.analysis.reporting import print_table
from repro.analysis.stats import percentile
from repro.observability.registry import MODULE_SERVICE
from repro.service.config import ServiceConfig
from repro.sim.service import build_service_system

from conftest import run_once, write_bench

SEED = 19
N_CLIENTS = 3
REQUESTS = 30
RATE = 4.0

#: The (batch size, pipelining window) grid under measurement.
CONFIGS = ((1, 1), (4, 2), (8, 4))


def run_cell(batch_size: int, window: int) -> dict:
    config = ServiceConfig(
        n_clients=N_CLIENTS,
        requests_per_client=REQUESTS,
        rate=RATE,
        batch_size=batch_size,
        window=window,
        checkpoint_interval=2,
        seed=SEED,
    )
    system = build_service_system(config)
    result = system.run(max_time=2_500.0)
    latencies = system.client_latencies()
    occupancy = [
        (count, total)
        for (module, name, _pid, _round), (count, total, _low, _high)
        in system.world.metrics.iter_histograms()
        if module == MODULE_SERVICE and name == "batch_occupancy"
    ]
    batches = sum(count for count, _ in occupancy)
    batched = sum(total for _, total in occupancy)
    committed = system.committed_commands()
    return {
        "batch_size": batch_size,
        "window": window,
        "committed_commands": committed,
        "completed_requests": system.completed_requests(),
        "virtual_time": round(result.end_time, 9),
        "throughput": round(committed / result.end_time, 9),
        "latency_p50": round(percentile(latencies, 50.0), 9),
        "latency_p99": round(percentile(latencies, 99.0), 9),
        "mean_batch_occupancy": round(batched / batches, 9) if batches else 0.0,
        "certified_checkpoints": system.certified_checkpoints(),
        "messages_sent": system.world.network.messages_sent,
        "all_clients_done": system.all_clients_done(),
        "checkpoints_agree": system.checkpoints_agree(),
    }


def run_cells():
    return [run_cell(batch_size, window) for batch_size, window in CONFIGS]


def _rows(cells):
    return [
        [
            cell["batch_size"],
            cell["window"],
            cell["committed_commands"],
            round(cell["virtual_time"], 2),
            round(cell["throughput"], 3),
            round(cell["latency_p50"], 2),
            round(cell["latency_p99"], 2),
            round(cell["mean_batch_occupancy"], 2),
            cell["certified_checkpoints"],
        ]
        for cell in cells
    ]


def run_experiment():
    """Table rows for ``python -m repro experiments --only e19``."""
    return _rows(run_cells())


def test_e19_service_throughput(benchmark):
    cells = run_once(benchmark, run_cells)
    print_table(
        f"E19 - replicated-service throughput (n=4, {N_CLIENTS} clients x "
        f"{REQUESTS} requests, rate {RATE}, seed {SEED})",
        ["batch", "window", "commands", "virtual time", "throughput",
         "p50", "p99", "batch occupancy", "checkpoints"],
        _rows(cells),
    )
    artifact = {
        "experiment": "e19_service_throughput",
        "seed": SEED,
        "n_replicas": 4,
        "n_clients": N_CLIENTS,
        "requests_per_client": REQUESTS,
        "rate": RATE,
        "configurations": cells,
    }
    write_bench("BENCH_service.json", artifact)
    # Shape: every configuration commits the full workload, converges,
    # and certifies checkpoints.
    for cell in cells:
        assert cell["all_clients_done"], cell
        assert cell["checkpoints_agree"], cell
        assert cell["committed_commands"] == N_CLIENTS * REQUESTS
        assert cell["certified_checkpoints"] >= 3
        assert cell["latency_p50"] <= cell["latency_p99"]
    # Shape: batching amortises consensus — bigger batches pack more
    # commands per slot.
    assert cells[-1]["mean_batch_occupancy"] > cells[0]["mean_batch_occupancy"]
    # Shape: the artifact is deterministic — a second run of one cell
    # reproduces it bit for bit.
    assert run_cell(*CONFIGS[0]) == cells[0]
