"""Sharded cluster orchestration: N independent groups, one verdict.

:class:`ShardedLocalCluster` supervises one
:class:`~repro.net.cluster.LocalCluster` per shard (each in its own
``shard-{s}/`` workdir with its own genesis file, logs and metrics
directory), and :func:`run_shard_smoke` is the sharded analogue of the
single-group smoke: spawn every group as real OS subprocesses over TCP,
commit a workload through a :class:`~repro.shard.client.ShardedNetClient`,
SIGKILL one replica *in one shard* mid-run, restart it with ``--join``
(per-shard certified state transfer over sockets), write and read back
a sentinel per shard, and judge each shard as the fault engine judges a
plan at the net fidelity (:mod:`repro.shard.verdict`): settled by
:func:`~repro.faults.oracle.settled` over its status replies, facts
from :func:`~repro.faults.net_runner.harvest` plus the shard client's
counts, the exit codes and the sentinel read. A crash in shard ``k``
that cost another shard a commit fails that shard's own ``progress:``
check.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.faults.net_runner import harvest, status_facts
from repro.faults.oracle import ClusterFacts, observe, settled
from repro.faults.plan import FIDELITY_NET
from repro.net.client import NetClientError, workload
from repro.net.cluster import (
    LocalCluster,
    group_addresses,
    wait_cluster_ready,
    wait_converged,
)
from repro.net.messages import StatusReply
from repro.shard.client import ShardedNetClient
from repro.shard.genesis import ShardGenesis
from repro.shard.keymap import key_for_shard
from repro.shard.verdict import shard_plans, shard_state, shard_verdicts


class ShardClusterError(ReproError):
    """A shard outside the sharded cluster's range was addressed."""


def make_shard_genesis(
    n_shards: int = 2,
    replicas_per_shard: int = 4,
    *,
    seed: int = 7,
    name: str = "shard-smoke",
    **overrides: Any,
) -> ShardGenesis:
    """A loopback-interface shard genesis with freshly allocated ports."""
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    addresses = group_addresses(n_shards, replicas_per_shard)
    genesis = ShardGenesis(
        name=name,
        seed=seed,
        n_shards=n_shards,
        replicas_per_shard=replicas_per_shard,
        addresses=addresses,
        metrics_interval=1.0,
        **overrides,
    )
    genesis.validate()
    return genesis


class ShardedLocalCluster:
    """Subprocess supervisor for every group of one shard genesis."""

    def __init__(self, genesis: ShardGenesis, workdir: str | Path) -> None:
        genesis.validate()
        self.genesis = genesis
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.genesis_path = genesis.save(self.workdir / "shard-genesis.json")
        self.clusters: dict[int, LocalCluster] = {
            shard: LocalCluster(
                genesis.genesis_for(shard), self.workdir / f"shard-{shard}"
            )
            for shard in range(genesis.n_shards)
        }

    def _cluster(self, shard: int) -> LocalCluster:
        cluster = self.clusters.get(shard)
        if cluster is None:
            raise ShardClusterError(
                f"shard {shard} outside the shard range "
                f"0..{self.genesis.n_shards - 1}"
            )
        return cluster

    def start_all(self) -> None:
        for cluster in self.clusters.values():
            cluster.start_all()

    def spawn(self, shard: int, pid: int, *, join: bool = False) -> None:
        self._cluster(shard).spawn(pid, join=join)

    def kill(self, shard: int, pid: int) -> None:
        """SIGKILL one replica of one shard (the blast radius under test)."""
        self._cluster(shard).kill(pid)

    def terminate_all(self, timeout: float = 10.0) -> dict[int, dict[int, int]]:
        """SIGTERM every group; returns shard -> pid -> exit code."""
        return {
            shard: cluster.terminate_all(timeout=timeout)
            for shard, cluster in sorted(self.clusters.items())
        }


async def run_shard_smoke(
    *,
    shards: int = 2,
    replicas_per_shard: int = 4,
    requests: int = 40,
    kill_shard: int = 1,
    kill_pid: int = 2,
    seed: int = 7,
    workdir: str | Path | None = None,
    concurrency: int = 8,
    converge_timeout: float = 60.0,
) -> dict[str, Any]:
    """The ``make shard-smoke`` TCP scenario; returns the verdict record."""
    if not 0 <= kill_shard < shards:
        raise ConfigurationError(
            f"kill_shard {kill_shard} outside the shard range 0..{shards - 1}"
        )
    phase1 = phase2 = max(1, (requests * 2) // 5)
    phase3 = max(1, requests - phase1 - phase2)
    # Plan time counts workload sets: kill after phase 1, rejoin after 2.
    kill = (kill_shard, kill_pid, float(phase1), float(phase1 + phase2))
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-shard-")
            )
        genesis = make_shard_genesis(shards, replicas_per_shard, seed=seed)
        cluster = ShardedLocalCluster(genesis, workdir)
        client = ShardedNetClient(genesis, 0)
        #: shard -> pid -> last status reply; shard -> sentinel read back.
        statuses: dict[int, dict[int, StatusReply]] = {}
        sentinel_read = dict.fromkeys(range(shards), False)
        sentinels = {  # shard -> its key, shard-addressed by construction
            shard: key_for_shard(f"sentinel-{seed}-", shard, shards)
            for shard in range(shards)
        }
        try:
            cluster.start_all()
            for sub in client.clients.values():
                await wait_cluster_ready(sub, timeout=30.0)

            await workload(client, phase1, concurrency=concurrency, tag="a")
            cluster.kill(kill_shard, kill_pid)
            await workload(client, phase2, concurrency=concurrency, tag="b")
            cluster.spawn(kill_shard, kill_pid, join=True)
            await workload(client, phase3, concurrency=concurrency, tag="c")
            routed = dict(client.sets_by_shard)
            completed = {
                shard: sub.sets_completed for shard, sub in client.clients.items()
            }
            plans = shard_plans(
                routed,
                n_replicas=replicas_per_shard,
                seed=seed,
                duration=float(requests),
                kill=kill,
            )
            for shard, key in sentinels.items():
                with contextlib.suppress(NetClientError):
                    await client.set(key, f"s{seed}-{shard}")
            for shard, sub in sorted(client.clients.items()):

                def probe(replies: dict[int, StatusReply], shard: int = shard) -> bool:
                    statuses[shard] = replies
                    facts = {pid: status_facts(s) for pid, s in replies.items()}
                    return settled(plans[shard], facts, completed[shard])

                await wait_converged(
                    sub,
                    probe,
                    timeout=converge_timeout,
                    nudge_key=key_for_shard(f"nudge-{seed}-", shard, shards),
                )
            for shard, key in sentinels.items():
                with contextlib.suppress(NetClientError):
                    read = await client.get(key)
                    sentinel_read[shard] = read == (True, f"s{seed}-{shard}")
        finally:
            await client.close()
            exit_codes = cluster.terminate_all()
        # After terminate_all: SIGTERM flushes every replica's metrics.
        observations = {}
        for shard, plan in plans.items():
            sub = client.clients[shard]
            replicas, declarations, injected = harvest(
                plan, cluster.clusters[shard].metrics_dir, statuses[shard]
            )
            observations[shard] = observe(
                plan,
                FIDELITY_NET,
                completed=completed[shard],
                replicas=replicas,
                declarations=declarations,
                injected=injected,
                extras={},
                cluster=ClusterFacts(
                    sets_issued=sub.sets_issued,
                    sets_completed=sub.sets_completed,
                    exit_codes=exit_codes[shard],
                    sentinel_read=sentinel_read[shard],
                ),
            )
    return {
        "shards": shards,
        "replicas_per_shard": replicas_per_shard,
        "killed": {"shard": kill_shard, "pid": kill_pid},
        "workload": requests,
        "sets_by_shard": dict(sorted(client.sets_by_shard.items())),
        "resubmissions": client.resubmissions,
        **shard_state(observations),
        "workdir": str(workdir),
        "exit_codes": exit_codes,
        **shard_verdicts(plans, observations),
    }
