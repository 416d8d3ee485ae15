"""Local cluster orchestration: genesis, spawn, kill/restart, settle.

:class:`LocalCluster` runs ``n`` replicas as OS subprocesses over TCP
and realises crashes and muteness as real signals;
:func:`wait_cluster_ready` and :func:`wait_converged` probe it as an
ordinary client. Judging a run is not done here: the kill/rejoin run
over TCP (``make net-smoke``) is the ``net-smoke`` fault plan, executed
by :mod:`repro.faults.net_runner` and judged by
:func:`repro.faults.oracle.judge` (docs/FAULTS.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError
from repro.net.client import NetClient, NetClientError
from repro.net.genesis import Genesis
from repro.net.messages import StatusReply


class ClusterError(ReproError):
    """The cluster failed to start or to converge."""


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


def group_addresses(
    groups: int, size: int, *, host: str = "127.0.0.1", base_port: int = 0
) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Listen addresses for ``groups`` replica groups of ``size`` each.

    Replica ``i`` of group ``g`` listens on ``base_port + g*size + i``;
    ``base_port=0`` takes free ports from the OS instead. One group (a
    plain :class:`Genesis`) is ``group_addresses(1, n)[0]``.
    """
    count = groups * size
    ports = iter(
        range(base_port, base_port + count) if base_port else free_ports(count)
    )
    return tuple(
        tuple((host, next(ports)) for _ in range(size)) for _ in range(groups)
    )


def make_genesis(
    n_replicas: int = 4,
    *,
    seed: int = 7,
    name: str = "smoke",
    **overrides: Any,
) -> Genesis:
    """A loopback-interface genesis with freshly allocated ports."""
    addresses = group_addresses(1, n_replicas)[0]
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
    src = str(Path(__file__).parents[2])
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
    replies: dict[int, StatusReply] = {}
    while time.monotonic() < deadline:
        replies = await client.status(timeout=1.0)
        if len(replies) == n:
            return
        await asyncio.sleep(0.2)
    raise ClusterError(
        f"cluster not ready within {timeout}s "
        f"(last probe saw {len(replies)}/{n} replicas)"
    )


async def wait_converged(
    client: NetClient,
    converged: Callable[[dict[int, StatusReply]], bool],
    *,
    timeout: float,
    nudge_key: str = "nudge",
) -> tuple[dict[int, StatusReply], bool]:
    """Nudge-and-probe until ``converged`` holds of a status probe's
    replies or ``timeout`` passes; returns the last probe's replies and
    whether they converged. The last probe always follows the last nudge.

    A lagging rejoiner may hold no evidence that it is behind until new
    checkpoints circulate, so between probes the loop commits a small
    ``set`` of ``nudge_key``: new commits force new checkpoints, whose
    certificates reveal the laggard's gap and trigger its certified
    transfer. The loop talks to the replicas only as an ordinary client,
    and a nudge that fails is left to the next probe to judge. The fault
    engine's net runner and the sharded smoke (per shard, with a
    ``nudge_key`` the shard owns) both settle through it.
    """
    deadline = time.monotonic() + timeout
    nudge = 0
    while True:
        replies = await client.status(timeout=1.0)
        if converged(replies):
            return replies, True
        if time.monotonic() >= deadline:
            return replies, False
        with contextlib.suppress(NetClientError):
            await client.set(nudge_key, f"n{nudge}")
        nudge += 1
        await asyncio.sleep(0.3)
