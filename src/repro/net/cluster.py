"""Local cluster orchestration: genesis, spawn, kill/restart, smoke verdict.

This module turns the net runtime into a one-command demonstration that
the simulated stack survives contact with real processes:
:func:`run_cluster_smoke` spawns ``n`` replicas as OS subprocesses over
TCP, commits a workload through a real client, SIGKILLs one replica
mid-run, restarts it with ``--join`` (certified state transfer over
sockets is the only way back), and asserts the end state:

* every replica reports the **same** applied-state digest;
* every replica committed **exactly** the number of commands the client
  completed (exactly-once, no loss, no duplication);
* the restarted replica completed at least one state transfer;
* a quorum ``get`` of a sentinel key returns the value written last.

The quiesce loop uses *nudge writes*: a lagging restarted replica may
hold no evidence that it is behind until new checkpoints circulate, so
the orchestrator keeps committing small writes until certificates
propagate and the laggard's checkpoint-lag / stall-probe transfer pulls
it level. That keeps liveness entirely inside the protocol — the
orchestrator never talks to replicas except as an ordinary client.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import repro
from repro.errors import ReproError
from repro.net.client import NetClient
from repro.net.genesis import Genesis


class ClusterError(ReproError):
    """The cluster failed to start, converge, or pass its assertions."""


def free_ports(count: int) -> list[int]:
    """``count`` distinct loopback ports the OS just handed out.

    Every probe stays bound until the last port is picked: binding and
    releasing one probe at a time lets the OS hand the same port out
    twice. (Racy against other processes in principle, fine locally.)
    """
    with contextlib.ExitStack() as probes:
        ports = []
        for _ in range(count):
            probe = probes.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            )
            probe.bind(("127.0.0.1", 0))
            ports.append(probe.getsockname()[1])
        return ports


def make_genesis(
    n_replicas: int = 4,
    *,
    seed: int = 7,
    name: str = "smoke",
    **overrides: Any,
) -> Genesis:
    """A loopback-interface genesis with freshly allocated ports."""
    addresses = tuple(("127.0.0.1", port) for port in free_ports(n_replicas))
    genesis = Genesis(
        name=name,
        seed=seed,
        n_replicas=n_replicas,
        addresses=addresses,
        metrics_interval=1.0,
        **overrides,
    )
    genesis.validate()
    return genesis


def _subprocess_env() -> dict[str, str]:
    """Child env with this repo's ``src`` on PYTHONPATH, whatever spawned us."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class LocalCluster:
    """Replica subprocess supervisor bound to one genesis file.

    ``replica_args`` (plus ``spawn``'s ``extra_args``) append extra CLI
    arguments to every replica command line — the fault-plan runner uses
    them to hand each node its plan and time origin. :meth:`stop` /
    :meth:`cont` drive SIGSTOP/SIGCONT, the real-process realisation of
    a *mute* replica: frozen mid-instruction, it keeps its sockets open
    but neither reads, writes nor fires timers.
    """

    def __init__(
        self,
        genesis: Genesis,
        workdir: str | Path,
        *,
        replica_args: tuple[str, ...] = (),
    ) -> None:
        self.genesis = genesis
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.genesis_path = genesis.save(self.workdir / "genesis.json")
        self.metrics_dir = self.workdir / "metrics"
        self.metrics_dir.mkdir(exist_ok=True)
        self.replica_args = tuple(replica_args)
        self._procs: dict[int, subprocess.Popen] = {}
        self._logs: dict[int, Any] = {}
        self._stopped: set[int] = set()

    def spawn(
        self,
        pid: int,
        *,
        join: bool = False,
        extra_args: tuple[str, ...] = (),
    ) -> subprocess.Popen:
        if pid in self._procs and self._procs[pid].poll() is None:
            raise ClusterError(f"replica {pid} is already running")
        log = self._logs.get(pid)
        if log is None:
            log = open(self.workdir / f"node-{pid}.log", "ab")
            self._logs[pid] = log
        command = [
            sys.executable, "-m", "repro", "net", "replica",
            "--genesis", str(self.genesis_path),
            "--pid", str(pid),
            "--metrics-dir", str(self.metrics_dir),
        ]
        if join:
            command.append("--join")
        command.extend(self.replica_args)
        command.extend(extra_args)
        process = subprocess.Popen(
            command, env=_subprocess_env(), stdout=log, stderr=log
        )
        self._procs[pid] = process
        self._stopped.discard(pid)
        return process

    def start_all(self) -> None:
        for pid in range(self.genesis.n_replicas):
            self.spawn(pid)

    def kill(self, pid: int) -> None:
        """SIGKILL: no shutdown path runs, exactly like a crash."""
        process = self._procs.get(pid)
        if process is None or process.poll() is not None:
            raise ClusterError(f"replica {pid} is not running")
        if pid in self._stopped:
            # A SIGSTOPped process ignores nothing — but keep the
            # bookkeeping honest before the kill lands.
            process.send_signal(signal.SIGCONT)
            self._stopped.discard(pid)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)

    def stop(self, pid: int) -> None:
        """SIGSTOP: freeze the replica (the real-process *mute* fault)."""
        process = self._procs.get(pid)
        if process is None or process.poll() is not None:
            raise ClusterError(f"replica {pid} is not running")
        process.send_signal(signal.SIGSTOP)
        self._stopped.add(pid)

    def cont(self, pid: int) -> None:
        """SIGCONT: thaw a replica frozen by :meth:`stop`."""
        process = self._procs.get(pid)
        if process is None or process.poll() is not None:
            raise ClusterError(f"replica {pid} is not running")
        process.send_signal(signal.SIGCONT)
        self._stopped.discard(pid)

    def terminate_all(self, timeout: float = 10.0) -> dict[int, int]:
        """SIGTERM every live replica; returns pid -> exit code.

        Replicas left SIGSTOPped (a run that aborted mid-scenario) are
        SIGCONTed first — a stopped process cannot act on SIGTERM, and
        without the thaw it would outlive the supervisor as an orphan —
        then escalated to SIGKILL like any other laggard.
        """
        codes: dict[int, int] = {}
        for pid, process in self._procs.items():
            if process.poll() is None:
                process.send_signal(signal.SIGCONT)
                process.send_signal(signal.SIGTERM)
        self._stopped.clear()
        deadline = time.monotonic() + timeout
        for pid, process in self._procs.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                codes[pid] = process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                codes[pid] = process.wait()
        for log in self._logs.values():
            log.close()
        self._logs.clear()
        return codes


async def wait_cluster_ready(
    client: NetClient, *, timeout: float = 20.0
) -> None:
    """Block until every replica answers a status probe."""
    n = client.genesis.n_replicas
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        replies = await client.status(timeout=1.0)
        if len(replies) == n:
            return
        await asyncio.sleep(0.2)
    raise ClusterError(
        f"cluster not ready within {timeout}s "
        f"(last probe saw {len(replies)}/{n} replicas)"
    )


async def _wait_converged(
    client: NetClient,
    *,
    restarted: int | None,
    timeout: float,
) -> dict[int, Any]:
    """Nudge-and-probe until every replica agrees with every other."""
    n = client.genesis.n_replicas
    deadline = time.monotonic() + timeout
    nudge = 0
    replies: dict[int, Any] = {}
    while time.monotonic() < deadline:
        replies = await client.status(timeout=1.0)
        if len(replies) == n:
            digests = {status.digest for status in replies.values()}
            committed = {status.committed for status in replies.values()}
            transfers_ok = (
                restarted is None
                or replies[restarted].transfers >= 1
            )
            if (
                len(digests) == 1
                and committed == {client.sets_completed}
                and transfers_ok
            ):
                return replies
        # Nudge: new commits force new checkpoints, whose certificates
        # reveal the laggard's gap and trigger its certified transfer.
        await client.set("nudge", f"n{nudge}")
        nudge += 1
        await asyncio.sleep(0.3)
    detail = {
        pid: (status.committed, status.transfers, status.digest[:8])
        for pid, status in sorted(replies.items())
    }
    raise ClusterError(
        f"cluster did not converge within {timeout}s: "
        f"client committed {client.sets_completed}, replicas report {detail}"
    )


async def run_cluster_smoke(
    *,
    replicas: int = 4,
    requests: int = 100,
    kill_pid: int = 2,
    seed: int = 7,
    workdir: str | Path | None = None,
    concurrency: int = 8,
    converge_timeout: float = 60.0,
) -> dict[str, Any]:
    """The `make net-smoke` scenario; returns the verdict record."""
    owned_tmp = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-net-")
        workdir = owned_tmp.name
    genesis = make_genesis(replicas, seed=seed)
    cluster = LocalCluster(genesis, workdir)
    client = NetClient(genesis, 0)
    phase1 = max(1, (requests * 2) // 5)
    phase2 = max(1, (requests * 2) // 5)
    phase3 = max(1, requests - phase1 - phase2)
    try:
        cluster.start_all()
        await wait_cluster_ready(client, timeout=30.0)

        await client.workload(phase1, concurrency=concurrency, tag="a")
        cluster.kill(kill_pid)
        await client.workload(phase2, concurrency=concurrency, tag="b")
        cluster.spawn(kill_pid, join=True)
        await client.workload(phase3, concurrency=concurrency, tag="c")

        sentinel = f"sentinel-{seed}"
        await client.set("sentinel", sentinel)

        replies = await _wait_converged(
            client, restarted=kill_pid, timeout=converge_timeout
        )

        found, value = await client.get("sentinel")
        if not found or value != sentinel:
            raise ClusterError(
                f"quorum get of sentinel returned {(found, value)!r}, "
                f"expected (True, {sentinel!r})"
            )
        rejections = {
            pid: status.suffix_rejections for pid, status in replies.items()
        }
        verdict = {
            "ok": True,
            "replicas": replicas,
            "killed": kill_pid,
            "committed": client.sets_completed,
            "workload": requests,
            "resubmissions": client.resubmissions,
            "digest": next(iter(replies.values())).digest,
            "transfers": {
                pid: status.transfers for pid, status in sorted(replies.items())
            },
            "suffix_rejections": rejections,
            "workdir": str(workdir),
        }
    finally:
        await client.close()
        exit_codes = cluster.terminate_all()
        if owned_tmp is not None:
            owned_tmp.cleanup()
    verdict["exit_codes"] = exit_codes
    bad = {pid: code for pid, code in exit_codes.items() if code != 0}
    if bad:
        raise ClusterError(f"replicas exited non-zero at shutdown: {bad}")
    return verdict


def print_verdict(verdict: dict[str, Any]) -> None:
    print(json.dumps(verdict, indent=2, sort_keys=True))
