"""Sharded cluster orchestration: N independent groups, one verdict.

:class:`ShardedLocalCluster` supervises one
:class:`~repro.net.cluster.LocalCluster` per shard (each in its own
``shard-{s}/`` workdir with its own genesis file, logs and metrics
directory), and :func:`run_shard_smoke` is the sharded analogue of the
single-group smoke: spawn every group as real OS subprocesses over TCP,
commit a workload through a :class:`~repro.shard.client.ShardedNetClient`,
SIGKILL one replica *in one shard* mid-run, restart it with ``--join``
(per-shard certified state transfer over sockets), and assert, **per
shard**:

* digest convergence across the shard's replicas;
* exactly-once: the shard committed exactly the commands the client
  routed to it — no loss, no duplication, no cross-shard leakage;
* the restarted replica completed at least one state transfer;
* a quorum ``get`` of a shard-addressed sentinel returns the value
  written last.

The untouched shards double as a blast-radius check: a crash in shard
``k`` must not cost any other shard a single commit.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.net.client import workload
from repro.net.cluster import (
    ClusterError,
    LocalCluster,
    group_addresses,
    wait_cluster_ready,
    wait_converged,
)
from repro.shard.client import ShardedNetClient
from repro.shard.genesis import ShardGenesis
from repro.shard.keymap import key_for_shard


class ShardClusterError(ReproError):
    """The sharded cluster failed to start, converge, or pass assertions."""


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


async def wait_shards_ready(
    client: ShardedNetClient, *, timeout: float = 30.0
) -> None:
    """Block until every replica of every shard answers a status probe."""
    for shard, sub in sorted(client.clients.items()):
        try:
            await wait_cluster_ready(sub, timeout=timeout)
        except ClusterError as exc:
            raise ShardClusterError(f"shard {shard}: {exc}") from exc


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
    owned_tmp = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-shard-")
        workdir = owned_tmp.name
    genesis = make_shard_genesis(shards, replicas_per_shard, seed=seed)
    cluster = ShardedLocalCluster(genesis, workdir)
    client = ShardedNetClient(genesis, 0)
    phase1 = max(1, (requests * 2) // 5)
    phase2 = max(1, (requests * 2) // 5)
    phase3 = max(1, requests - phase1 - phase2)
    try:
        cluster.start_all()
        await wait_shards_ready(client, timeout=30.0)

        await workload(client, phase1, concurrency=concurrency, tag="a")
        committed_before_kill = {
            shard: count
            for shard, count in client.sets_by_shard.items()
            if shard != kill_shard
        }
        cluster.kill(kill_shard, kill_pid)
        await workload(client, phase2, concurrency=concurrency, tag="b")
        cluster.spawn(kill_shard, kill_pid, join=True)
        await workload(client, phase3, concurrency=concurrency, tag="c")

        # One sentinel per shard, shard-addressed by construction.
        sentinels = {
            shard: key_for_shard(f"sentinel-{seed}-", shard, shards)
            for shard in range(shards)
        }
        for shard, key in sorted(sentinels.items()):
            await client.set(key, f"s{seed}-{shard}")

        shard_replies: dict[int, dict[int, Any]] = {}
        for shard in range(shards):
            sub = client.clients[shard]
            restarted = kill_pid if shard == kill_shard else None

            def converged(replies: dict[int, Any]) -> bool:
                # The shard's own client completed exactly the sets
                # routed to it plus its nudges: per-shard exactly-once.
                return (
                    len(replies) == replicas_per_shard
                    and len({status.digest for status in replies.values()}) == 1
                    and {status.committed for status in replies.values()}
                    == {sub.sets_completed}
                    and (
                        restarted is None or replies[restarted].transfers >= 1
                    )
                )

            replies, ok = await wait_converged(
                sub,
                converged,
                timeout=converge_timeout,
                nudge_key=key_for_shard(f"nudge-{seed}-", shard, shards),
            )
            if not ok:
                detail = {
                    pid: (status.committed, status.transfers, status.digest[:8])
                    for pid, status in sorted(replies.items())
                }
                raise ShardClusterError(
                    f"shard {shard} did not converge within "
                    f"{converge_timeout}s: client committed "
                    f"{sub.sets_completed}, replicas report {detail}"
                )
            shard_replies[shard] = replies

        for shard, key in sorted(sentinels.items()):
            found, value = await client.get(key)
            if not found or value != f"s{seed}-{shard}":
                raise ShardClusterError(
                    f"quorum get of shard {shard} sentinel returned "
                    f"{(found, value)!r}, expected (True, 's{seed}-{shard}')"
                )

        # Blast radius: the kill in one shard must not have cost the
        # untouched shards a single already-committed command.
        for shard, before in committed_before_kill.items():
            now = min(s.committed for s in shard_replies[shard].values())
            if now < before:
                raise ShardClusterError(
                    f"shard {shard} regressed from {before} to {now} "
                    f"committed commands after the kill in shard {kill_shard}"
                )

        verdict = {
            "ok": True,
            "shards": shards,
            "replicas_per_shard": replicas_per_shard,
            "killed": {"shard": kill_shard, "pid": kill_pid},
            "workload": requests,
            "committed": client.sets_completed,
            "sets_by_shard": dict(sorted(client.sets_by_shard.items())),
            "resubmissions": client.resubmissions,
            "digests": {
                shard: next(iter(replies.values())).digest
                for shard, replies in sorted(shard_replies.items())
            },
            "transfers": {
                shard: {
                    pid: status.transfers
                    for pid, status in sorted(replies.items())
                }
                for shard, replies in sorted(shard_replies.items())
            },
            "workdir": str(workdir),
        }
    finally:
        await client.close()
        exit_codes = cluster.terminate_all()
        if owned_tmp is not None:
            owned_tmp.cleanup()
    verdict["exit_codes"] = exit_codes
    bad = {
        (shard, pid): code
        for shard, codes in exit_codes.items()
        for pid, code in codes.items()
        if code != 0
    }
    if bad:
        raise ShardClusterError(
            f"replicas exited non-zero at shutdown: "
            f"{ {f's{s}/p{p}': c for (s, p), c in sorted(bad.items())} }"
        )
    # Cross-shard isolation: disjoint key material must yield disjoint
    # states — two shards with identical digests would mean the map
    # routed the same history to both.
    digests = list(verdict["digests"].values())
    if len(set(digests)) != len(digests):
        raise ShardClusterError(
            f"distinct shards report identical state digests: {digests}"
        )
    return verdict
