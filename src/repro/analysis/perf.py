"""The deterministic slice of the performance suite (``repro perf``).

The full saturation study lives in ``benchmarks/test_e20_saturation.py``
(methodology in docs/PERFORMANCE.md). This module carries the part a CI
smoke target can pin byte-for-byte: a short simulator saturation run
plus a cached-vs-uncached *equivalence* check. Wall-clock numbers are
deliberately absent — everything in the record is a deterministic
function of the seed, so ``make perf-smoke`` can run it twice and
``cmp`` the outputs.

The equivalence check is the safety half of the caching design: with
every verification cache and encoding memo disabled
(:func:`repro.crypto.cache.caching_disabled`) the run must commit the
same commands and finish at the same virtual time as the cached run —
the caches may only change how fast the wall clock moves, never what
the protocol decides.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.cache import caching_disabled
from repro.observability.export import dumps_canonical
from repro.observability.registry import (
    MODULE_CERTIFICATION,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
)
from repro.service.config import ServiceConfig
from repro.sim.service import build_service_system

#: The smoke sweep: two light (clients, batch, window) cells.
SMOKE_CELLS = ((16, 8, 2), (48, 64, 4))
SMOKE_SEED = 20
SMOKE_REQUESTS = 4
SMOKE_RATE = 8.0

#: The equivalence config: certificate-heavy but small.
EQUIVALENCE_CONFIG = dict(
    n_clients=4,
    requests_per_client=6,
    rate=8.0,
    batch_size=4,
    window=2,
    checkpoint_interval=2,
    seed=3,
)


def _run(config: ServiceConfig) -> dict[str, Any]:
    system = build_service_system(config)
    result = system.run(max_time=2_500.0)
    metrics = system.world.metrics
    return {
        "committed_commands": system.committed_commands(),
        "virtual_time": round(result.end_time, 9),
        "all_clients_done": system.all_clients_done(),
        "checkpoints_agree": system.checkpoints_agree(),
        "sig_cache_hits": metrics.counter_total(
            MODULE_SIGNATURE, "sig_cache_hits"
        ),
        "pf_cache_hits": metrics.counter_total(
            MODULE_CERTIFICATION, "pf_cache_hits"
        ),
        "ckpt_cert_cache_hits": metrics.counter_total(
            MODULE_SERVICE, "ckpt_cert_cache_hits"
        ),
    }


def smoke_record() -> dict[str, Any]:
    """The deterministic perf-smoke record (see module docstring)."""
    cells = []
    for clients, batch_size, window in SMOKE_CELLS:
        run = _run(
            ServiceConfig(
                n_clients=clients,
                requests_per_client=SMOKE_REQUESTS,
                rate=SMOKE_RATE,
                batch_size=batch_size,
                window=window,
                checkpoint_interval=8,
                seed=SMOKE_SEED,
            )
        )
        run.update(clients=clients, batch_size=batch_size, window=window)
        cells.append(run)
    cached = _run(ServiceConfig(**EQUIVALENCE_CONFIG))
    with caching_disabled():
        uncached = _run(ServiceConfig(**EQUIVALENCE_CONFIG))
    equivalent = (
        cached["committed_commands"] == uncached["committed_commands"]
        and cached["virtual_time"] == uncached["virtual_time"]
        and cached["all_clients_done"]
        and cached["checkpoints_agree"]
    )
    return {
        "suite": "perf-smoke",
        "seed": SMOKE_SEED,
        "cells": cells,
        "equivalence": {
            "config": dict(EQUIVALENCE_CONFIG),
            "cached": cached,
            "uncached": uncached,
            "equivalent": equivalent,
        },
    }


def smoke_ok(record: dict[str, Any]) -> bool:
    """The pass verdict: converged cells, caches active, runs equivalent."""
    return (
        all(
            cell["all_clients_done"] and cell["checkpoints_agree"]
            for cell in record["cells"]
        )
        and all(cell["sig_cache_hits"] > 0 for cell in record["cells"])
        and record["equivalence"]["equivalent"]
        and record["equivalence"]["uncached"]["sig_cache_hits"] == 0
    )


def smoke_json(record: dict[str, Any]) -> str:
    """Canonical one-line JSON: byte-identical across fixed-seed runs."""
    return dumps_canonical(record)
