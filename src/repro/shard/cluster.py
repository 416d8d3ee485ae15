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

import asyncio
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.net.client import NetClient
from repro.net.cluster import ClusterError, LocalCluster, free_ports, wait_cluster_ready
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
    ports = iter(free_ports(n_shards * replicas_per_shard))
    addresses = tuple(
        tuple(("127.0.0.1", next(ports)) for _ in range(replicas_per_shard))
        for _ in range(n_shards)
    )
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


async def _wait_shard_converged(
    client: NetClient,
    *,
    shard: int,
    expect_committed: int,
    nudge_key: str,
    restarted: int | None,
    timeout: float,
) -> dict[int, Any]:
    """Nudge-and-probe one shard until its replicas agree.

    The nudge key is shard-addressed: new commits in *this* group force
    new checkpoints, whose certificates reveal a restarted laggard's gap
    and trigger its certified transfer — the same liveness argument as
    the single-group smoke, scoped to the shard.
    """
    n = client.genesis.n_replicas
    deadline = time.monotonic() + timeout
    nudge = 0
    nudges_committed = 0
    replies: dict[int, Any] = {}
    while time.monotonic() < deadline:
        replies = await client.status(timeout=1.0)
        if len(replies) == n:
            digests = {status.digest for status in replies.values()}
            committed = {status.committed for status in replies.values()}
            transfers_ok = (
                restarted is None or replies[restarted].transfers >= 1
            )
            if (
                len(digests) == 1
                and committed == {expect_committed + nudges_committed}
                and transfers_ok
            ):
                return replies
        await client.set(nudge_key, f"n{nudge}")
        nudges_committed += 1
        nudge += 1
        await asyncio.sleep(0.3)
    detail = {
        pid: (status.committed, status.transfers, status.digest[:8])
        for pid, status in sorted(replies.items())
    }
    raise ShardClusterError(
        f"shard {shard} did not converge within {timeout}s: expected "
        f"{expect_committed}(+{nudges_committed} nudges) committed, "
        f"replicas report {detail}"
    )


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

        await client.workload(phase1, concurrency=concurrency, tag="a")
        committed_before_kill = {
            shard: count
            for shard, count in client.sets_by_shard.items()
            if shard != kill_shard
        }
        cluster.kill(kill_shard, kill_pid)
        await client.workload(phase2, concurrency=concurrency, tag="b")
        cluster.spawn(kill_shard, kill_pid, join=True)
        await client.workload(phase3, concurrency=concurrency, tag="c")

        # One sentinel per shard, shard-addressed by construction.
        sentinels = {
            shard: key_for_shard(f"sentinel-{seed}-", shard, shards)
            for shard in range(shards)
        }
        for shard, key in sorted(sentinels.items()):
            await client.set(key, f"s{seed}-{shard}")

        shard_replies: dict[int, dict[int, Any]] = {}
        for shard in range(shards):
            shard_replies[shard] = await _wait_shard_converged(
                client.clients[shard],
                shard=shard,
                expect_committed=client.sets_by_shard[shard],
                nudge_key=key_for_shard(f"nudge-{seed}-", shard, shards),
                restarted=kill_pid if shard == kill_shard else None,
                timeout=converge_timeout,
            )

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
