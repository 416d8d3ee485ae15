"""E18 (application) — BFT state-machine replication over the protocol.

The paper motivates consensus as the foundation of fault-tolerant
services; this experiment measures the service built on the transformed
protocol in :mod:`repro.service`: closed-loop clients committing
key-value commands through a log of slots (one Vector Consensus
instance per slot, slot-separated signature domains), one request per
proposal and one slot open at a time, no checkpoint inside the run.

Reported per configuration: log convergence (every client done and
identical logs at all correct replicas), identical service state,
committed commands, virtual time and per-command message cost (client
traffic included) — failure-free vs a crashed replica vs a
value-corrupting Byzantine replica.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.reporting import percent, print_table
from repro.byzantine.transformed_attacks import TCorruptVectorAttacker
from repro.service.checkpoint import service_digest
from repro.service.config import ServiceConfig
from repro.sim.network import UniformDelay
from repro.sim.service import build_service_system

from conftest import run_once

N = 4
SEEDS = range(10)
CONFIG = ServiceConfig(
    n_replicas=N,
    n_clients=4,
    mode="closed",
    think=0.5,
    requests_per_client=4,
    batch_size=1,
    window=1,
    checkpoint_interval=1000,
)


def corrupt_engine(pid, proposal, params, authority, detector, config):
    return TCorruptVectorAttacker(
        proposal=proposal, params=params, authority=authority,
        detector=detector, config=config,
    )


def run_cell(label, crash_at=None, byzantine=None):
    converged = 0
    stores_identical = 0
    commands = 0.0
    duration = 0.0
    messages = 0.0
    for seed in SEEDS:
        system = build_service_system(
            dataclasses.replace(CONFIG, seed=seed),
            byzantine=byzantine,
            delay_model=UniformDelay(0.1, 1.5),
        )
        for pid, time in (crash_at or {}).items():
            system.world.crash_at(pid, time)
            system.byzantine_pids = system.byzantine_pids | {pid}
        result = system.run(max_time=4_000.0)
        logs = [system.replicas[pid].slotlog for pid in sorted(system.correct_pids)]
        if system.all_clients_done() and len(
            {tuple(map(repr, log.log)) for log in logs}
        ) == 1:
            converged += 1
        if len({service_digest(log.store, log.executed) for log in logs}) == 1:
            stores_identical += 1
        commands += system.committed_commands()
        duration += result.end_time
        messages += system.world.network.messages_sent
    count = len(SEEDS)
    return [
        label,
        percent(converged / count),
        percent(stores_identical / count),
        commands / count,
        duration / count,
        (messages / count) / max(commands / count, 1.0),
    ]


def run_experiment():
    return [
        run_cell("failure-free"),
        run_cell("one crashed replica", crash_at={1: 2.0}),
        run_cell("one corrupting replica", byzantine={3: corrupt_engine}),
    ]


def test_e18_replicated_log(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E18 - BFT replicated service over the transformed protocol "
        f"(n={N}, {CONFIG.n_clients} clients x {CONFIG.requests_per_client} "
        f"sets, batch 1, window 1, {len(SEEDS)} seeds/row)",
        ["configuration", "logs converge", "stores identical",
         "commands", "virtual time", "msgs/command"],
        rows,
    )
    # Shape: full convergence in every configuration.
    for row in rows:
        assert row[1] == "100%", row
        assert row[2] == "100%", row
    # Shape: every client command commits under each fault.
    assert all(row[3] == CONFIG.n_clients * CONFIG.requests_per_client for row in rows)
