"""E20 (performance) — saturation sweep and the cached-verification delta.

Three measurements, one artifact (``BENCH_saturation.json``, repo root;
methodology in docs/PERFORMANCE.md):

1. **Saturation sweep** (simulator, deterministic): open-loop client
   populations from tens to hundreds crossed with (batch size x
   pipelining window) shapes up to batch 256. The sweep exposes the
   *knee*: at small batches, doubling the offered load past ~100 clients
   buys almost no throughput (consensus slots are the bottleneck), while
   large batches keep scaling near-linearly over the same range.

2. **Before/after delta** (wall clock): one certificate-heavy
   configuration run twice — once with every verification cache and
   encoding memo disabled (:func:`repro.crypto.cache.caching_disabled`,
   the honest pre-cache baseline) and once with them on. Both runs
   commit the identical command sequence; only the wall clock moves.
   The acceptance bar is a >= 2x speedup.

3. **TCP wall-clock variant**: a 4-replica cluster of real OS processes
   (:mod:`repro.net.cluster`) absorbing an open-loop client workload
   over sockets, timed end to end. Replica-side JSONL artifacts are
   read back to confirm the caches and the binary wire codec (v2
   frames) were exercised by real traffic.

Wall-clock fields are marked as such in the artifact and excluded from
determinism claims; everything else is byte-stable at fixed seed
(`make perf-smoke` pins exactly that).
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from pathlib import Path

from repro.analysis.reporting import print_table
from repro.crypto.cache import caching_disabled
from repro.net.client import NetClient
from repro.net.cluster import LocalCluster, make_genesis, wait_cluster_ready
from repro.net.wire import DEFAULT_VERSION
from repro.observability.export import read_run_jsonl
from repro.observability.registry import (
    MODULE_CERTIFICATION,
    MODULE_NET,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
)
from repro.service import ServiceConfig, build_service_system

from conftest import run_once

ARTIFACT = Path("BENCH_saturation.json")

SEED = 20
REQUESTS = 4
RATE = 8.0

#: Open-loop client populations: tens -> hundreds.
CLIENTS = (16, 48, 96, 192)
#: (batch size, pipelining window) shapes, up to the batch-256 ceiling.
SHAPES = ((8, 2), (64, 4), (256, 8))

#: The certificate-heavy configuration for the before/after delta:
#: small batches + a short checkpoint interval maximise certified
#: messages per committed command, which is exactly the traffic the
#: verification caches target.
DELTA_CONFIG = dict(
    n_clients=8,
    requests_per_client=20,
    rate=8.0,
    batch_size=8,
    window=4,
    checkpoint_interval=4,
    seed=3,
)

TCP_REQUESTS = 120
TCP_CONCURRENCY = 12
#: The transport's counter of inbound frames in the version every node sends.
FRAMES_COUNTER = f"frames_v{DEFAULT_VERSION}"
#: ... and its sum over the replicas in the artifact's ``tcp`` record.
FRAMES_KEY = f"replica_{FRAMES_COUNTER}"


def run_cell(clients: int, batch_size: int, window: int) -> dict:
    """One deterministic sweep cell (virtual-time throughput + counters)."""
    config = ServiceConfig(
        n_clients=clients,
        requests_per_client=REQUESTS,
        rate=RATE,
        batch_size=batch_size,
        window=window,
        checkpoint_interval=8,
        seed=SEED,
    )
    system = build_service_system(config)
    result = system.run(max_time=10_000.0)
    metrics = system.world.metrics
    committed = system.committed_commands()
    return {
        "clients": clients,
        "batch_size": batch_size,
        "window": window,
        "offered_load": round(clients * RATE, 9),
        "committed_commands": committed,
        "virtual_time": round(result.end_time, 9),
        "throughput": round(committed / result.end_time, 9),
        "sig_cache_hits": metrics.counter_total(MODULE_SIGNATURE, "sig_cache_hits"),
        "sig_cache_misses": metrics.counter_total(
            MODULE_SIGNATURE, "sig_cache_misses"
        ),
        "pf_cache_hits": metrics.counter_total(
            MODULE_CERTIFICATION, "pf_cache_hits"
        ),
        "ckpt_cert_cache_hits": metrics.counter_total(
            MODULE_SERVICE, "ckpt_cert_cache_hits"
        ),
        "all_clients_done": system.all_clients_done(),
        "checkpoints_agree": system.checkpoints_agree(),
    }


def run_sweep() -> list[dict]:
    return [
        run_cell(clients, batch_size, window)
        for batch_size, window in SHAPES
        for clients in CLIENTS
    ]


def _delta_run() -> tuple[float, int]:
    """One timed run of the certificate-heavy config: (wall s, committed)."""
    config = ServiceConfig(**DELTA_CONFIG)
    system = build_service_system(config)
    start = time.perf_counter()
    system.run(max_time=2_500.0)
    wall = time.perf_counter() - start
    return wall, system.committed_commands()


def run_delta() -> dict:
    """Before/after wall clock on identical committed work."""
    with caching_disabled():
        before_wall, before_committed = _delta_run()
    after_wall, after_committed = _delta_run()
    return {
        "config": dict(DELTA_CONFIG),
        "committed_commands": after_committed,
        "identical_commits": before_committed == after_committed,
        # Wall-clock values: machine-dependent, excluded from determinism.
        "wall_seconds_before": round(before_wall, 4),
        "wall_seconds_after": round(after_wall, 4),
        "speedup": round(before_wall / after_wall, 4),
    }


async def _tcp_workload() -> dict:
    """Open-loop client workload against real replica subprocesses."""
    genesis = make_genesis(4, seed=SEED, name="e20")
    with tempfile.TemporaryDirectory(prefix="repro-e20-") as workdir:
        cluster = LocalCluster(genesis, workdir)
        client = NetClient(genesis, 0)
        try:
            cluster.start_all()
            await wait_cluster_ready(client, timeout=30.0)
            start = time.perf_counter()
            await client.workload(
                TCP_REQUESTS, concurrency=TCP_CONCURRENCY, tag="e20"
            )
            wall = time.perf_counter() - start
            committed = client.sets_completed
        finally:
            await client.close()
            cluster.terminate_all()
        sig_hits = frames = 0
        for path in sorted(Path(workdir, "metrics").glob("node-*.jsonl")):
            run = read_run_jsonl(path)
            sig_hits += run.metrics.counter_total(
                MODULE_SIGNATURE, "sig_cache_hits"
            )
            frames += run.metrics.counter_total(MODULE_NET, FRAMES_COUNTER)
    return {
        "replicas": 4,
        "requests": TCP_REQUESTS,
        "concurrency": TCP_CONCURRENCY,
        "committed": committed,
        # Wall-clock values: machine-dependent, excluded from determinism.
        "wall_seconds": round(wall, 4),
        "ops_per_second": round(committed / wall, 4),
        "replica_sig_cache_hits": sig_hits,
        FRAMES_KEY: frames,
    }


def run_tcp() -> dict:
    return asyncio.run(_tcp_workload())


def _rows(cells):
    return [
        [
            cell["clients"],
            cell["batch_size"],
            cell["window"],
            cell["committed_commands"],
            round(cell["virtual_time"], 2),
            round(cell["throughput"], 3),
            cell["sig_cache_hits"],
            cell["pf_cache_hits"],
        ]
        for cell in cells
    ]


def run_experiment():
    """Table rows for ``python -m repro experiments --only e20``.

    Simulator sweep only: the CLI path stays subprocess-free; the
    wall-clock delta and the TCP variant run under pytest.
    """
    return _rows(run_sweep())


def _throughput(cells, clients, batch_size):
    for cell in cells:
        if cell["clients"] == clients and cell["batch_size"] == batch_size:
            return cell["throughput"]
    raise AssertionError((clients, batch_size))


def test_e20_saturation(benchmark):
    def experiment():
        return {"sweep": run_sweep(), "delta": run_delta(), "tcp": run_tcp()}

    results = run_once(benchmark, experiment)
    cells = results["sweep"]
    print_table(
        f"E20 - saturation sweep (n=4, {REQUESTS} reqs/client, rate {RATE}, "
        f"seed {SEED})",
        ["clients", "batch", "window", "commands", "virtual time",
         "throughput", "sig hits", "pf hits"],
        _rows(cells),
    )
    delta = results["delta"]
    tcp = results["tcp"]
    print(
        f"delta: {delta['wall_seconds_before']:.2f}s -> "
        f"{delta['wall_seconds_after']:.2f}s "
        f"(speedup {delta['speedup']:.1f}x on "
        f"{delta['committed_commands']} identical commands)"
    )
    print(
        f"tcp: {tcp['committed']} commits in {tcp['wall_seconds']:.2f}s "
        f"({tcp['ops_per_second']:.0f} ops/s, "
        f"{tcp[FRAMES_KEY]} v{DEFAULT_VERSION} frames, "
        f"{tcp['replica_sig_cache_hits']} replica cache hits)"
    )
    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "e20_saturation",
                "seed": SEED,
                "n_replicas": 4,
                "requests_per_client": REQUESTS,
                "rate": RATE,
                "sweep": cells,
                "delta": delta,
                "tcp": tcp,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    # Shape: every cell converges and commits its full open-loop load.
    for cell in cells:
        assert cell["all_clients_done"], cell
        assert cell["checkpoints_agree"], cell
        assert cell["committed_commands"] == cell["clients"] * REQUESTS
        assert cell["sig_cache_hits"] > cell["sig_cache_misses"], cell
    # Shape: the knee — at batch 8 the last doubling of offered load
    # (96 -> 192 clients) yields < 1.6x throughput (saturated), while at
    # batch 64 the same doubling still yields > 1.5x (still scaling).
    assert _throughput(cells, 192, 8) / _throughput(cells, 96, 8) < 1.6
    assert _throughput(cells, 192, 64) / _throughput(cells, 96, 64) > 1.5
    # Shape: batching raises the saturation ceiling.
    assert _throughput(cells, 192, 256) > 2 * _throughput(cells, 192, 8)
    # Acceptance bar: caches buy >= 2x on the certificate-heavy config,
    # with byte-identical committed work on both sides.
    assert delta["identical_commits"], delta
    assert delta["speedup"] >= 2.0, delta
    # The TCP path really pushed frames of the codec's default version
    # through real sockets and the replicas really hit their
    # verification caches.
    assert tcp["committed"] >= TCP_REQUESTS
    assert tcp[FRAMES_KEY] > 0
    assert tcp["replica_sig_cache_hits"] > 0
