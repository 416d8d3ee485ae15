"""Fidelity 3: execute a fault plan against a real subprocess cluster.

Replicas are real OS processes over real TCP sockets
(:class:`~repro.net.cluster.LocalCluster`). Fault realisation needs no
privileges:

* **muteness** is ``SIGSTOP`` — the frozen process keeps its sockets
  open but neither reads, writes nor fires timers;
* **crash / rejoin** is ``SIGKILL`` plus a respawn with ``--join``
  (certified state transfer over sockets is the only way back);
* **link faults** (loss, duplication, reorder, partitions, bit-flips)
  run inside each replica's :class:`~repro.net.faulty.FaultyPeerTransport`,
  seeded per directed link from the same plan so every replica owns its
  own outbound decisions.

All replica processes measure plan time from one shared wall-clock
``origin`` epoch passed on the command line, so partition windows and
flip activation agree across the cluster. The run is verdict-stable, not
byte-stable: wall clocks, socket scheduling and ``NetClient``'s random
request-id base all vary, so the cross-fidelity contract only asserts
the *verdict* (docs/FAULTS.md), and the whole scenario sits under a hard
wall-clock timeout — a hung cluster becomes a failing observation, never
a hung make target.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping

from repro.faults.oracle import (
    Counters,
    FidelityObservation,
    ReplicaFacts,
    live_correct,
    observe,
)
from repro.faults.plan import FIDELITY_NET, FaultPlan
from repro.net.client import NetClient, NetClientError
from repro.net.cluster import LocalCluster, make_genesis, wait_cluster_ready
from repro.observability.export import RunArtifact, read_run_jsonl

#: Lead time between spawning the cluster and the plan's t=0: replicas
#: must be connected and ready before the first scheduled fault.
ORIGIN_GRACE = 3.0

#: Extra wall-clock seconds the run may settle past the plan window.
SETTLE_BUDGET = 45.0


class _NetRun:
    """One plan execution against a local subprocess cluster."""

    def __init__(self, plan: FaultPlan, workdir: Path) -> None:
        plan.validate()
        self.plan = plan
        self.workdir = workdir
        self.genesis = make_genesis(
            plan.n_replicas,
            seed=plan.seed,
            name=f"faults-{plan.plan_id}",
            request_timeout=0.6,
            stall_probe=2.0,
        )
        self.plan_path = plan.save(workdir / "plan.json")
        self.origin = time.time() + ORIGIN_GRACE
        self.cluster = LocalCluster(
            self.genesis,
            workdir,
            replica_args=(
                "--faults", str(self.plan_path),
                "--faults-origin", repr(self.origin),
            ),
        )
        self.client = NetClient(self.genesis, 0)
        self.completed_workload = 0
        self.statuses: dict[int, Any] = {}
        self._attacks = dict(plan.collusion)

    def _spawn(self, pid: int, *, join: bool = False) -> None:
        extra: tuple[str, ...] = ()
        if pid in self._attacks:
            extra = ("--attack", self._attacks[pid])
        self.cluster.spawn(pid, join=join, extra_args=extra)

    async def _sleep_until(self, plan_time: float) -> None:
        delay = self.origin + plan_time - time.time()
        if delay > 0:
            await asyncio.sleep(delay)

    async def _workload(self) -> None:
        """Paced sets over the first ~70% of the plan window."""
        plan = self.plan
        span = 0.7 * plan.duration
        tasks = []

        async def one(index: int) -> None:
            await self._sleep_until((index / plan.requests) * span)
            try:
                await self.client.set(f"k{index % 8}", f"v{index}")
            except NetClientError:
                return
            self.completed_workload += 1

        for index in range(plan.requests):
            tasks.append(asyncio.ensure_future(one(index)))
        await asyncio.gather(*tasks)

    async def _fire_events(self) -> None:
        """Mutes, kills and rejoins, in plan order, as real signals."""
        events: list[tuple[float, str, int]] = []
        for pid, at in self.plan.mutes:
            events.append((at, "mute", pid))
        for pid, at, rejoin_at in self.plan.kills:
            events.append((at, "kill", pid))
            if rejoin_at is not None:
                events.append((rejoin_at, "rejoin", pid))
        for at, action, pid in sorted(events):
            await self._sleep_until(at)
            if action == "mute":
                self.cluster.stop(pid)
            elif action == "kill":
                self.cluster.kill(pid)
            else:
                self._spawn(pid, join=True)

    async def _settle(self) -> None:
        """Nudge-and-probe until the live correct replicas agree."""
        plan = self.plan
        live = live_correct(plan)
        deadline = time.monotonic() + SETTLE_BUDGET
        nudge = 0
        while time.monotonic() < deadline:
            replies = await self.client.status(timeout=1.0)
            self.statuses = {
                pid: status for pid, status in replies.items() if pid in live
            }
            if len(self.statuses) == len(live):
                digests = {s.digest for s in self.statuses.values()}
                committed_ok = all(
                    s.committed >= self.client.sets_completed
                    for s in self.statuses.values()
                )
                transfers_ok = all(
                    self.statuses[pid].transfers >= 1
                    for pid in plan.rejoining_pids
                    if pid in self.statuses
                )
                if len(digests) == 1 and committed_ok and transfers_ok:
                    return
            # New commits circulate fresh checkpoints, whose certificates
            # reveal a laggard's gap and trigger its certified transfer.
            try:
                await self.client.set("nudge", f"n{nudge}")
            except NetClientError:
                pass
            nudge += 1
            await asyncio.sleep(0.3)

    async def execute(self) -> None:
        for pid in range(self.plan.n_replicas):
            self._spawn(pid)
        await wait_cluster_ready(self.client, timeout=30.0)
        await self._sleep_until(0.0)
        await asyncio.gather(self._workload(), self._fire_events())
        await self._sleep_until(self.plan.duration)
        await self._settle()


def harvest(
    plan: FaultPlan, metrics_dir: Path, statuses: Mapping[int, Any]
) -> tuple[dict[int, ReplicaFacts], list[tuple[int, int, str]], Counters]:
    """Facts from what a torn-down cluster left behind: per replica, the
    sorted declarations, and the cluster-wide injection counter lookup.

    ``statuses`` (pid -> last :class:`~repro.net.messages.StatusReply`)
    gives the final state; the per-node ``node-<pid>.jsonl`` exports are
    the durable source for counters and declarations — the in-memory
    bounded traces died with the processes. Either may be missing for a
    pid (never answered the probe; killed before its first export, or a
    torn file). Injection counters are summed over every export — each
    replica owns its outbound links and its own self-injections.
    """
    replicas: dict[int, ReplicaFacts] = {}
    artifacts: dict[int, RunArtifact] = {}
    for pid in range(plan.n_replicas):
        try:
            artifacts[pid] = read_run_jsonl(metrics_dir / f"node-{pid}.jsonl")
        except Exception:
            # Missing or torn export: the run still gets judged, this
            # node just contributes no counters.
            pass
        status = statuses.get(pid)
        if status is None and pid not in artifacts:
            continue
        facts = replicas[pid] = ReplicaFacts()
        if status is not None:
            facts.committed = status.committed
            facts.digest = status.digest
            facts.transfers = status.transfers
            facts.suffix_rejections = status.suffix_rejections
        if pid in artifacts:
            facts.counter = artifacts[pid].metrics.counter_total
    declarations = sorted(
        (pid, event["detail"]["target"], event["detail"]["reason"])
        for pid, artifact in artifacts.items()
        for event in artifact.events_of_type("declare_faulty")
    )
    return (
        replicas,
        declarations,
        lambda module, name: sum(
            artifact.metrics.counter_total(module, name)
            for artifact in artifacts.values()
        ),
    )


async def run_net_plan_async(
    plan: FaultPlan,
    *,
    workdir: str | Path | None = None,
    timeout: float = 180.0,
) -> FidelityObservation:
    """Execute ``plan`` at fidelity 3 under a hard wall-clock ``timeout``."""
    owned_tmp = None
    if workdir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-faults-")
        workdir = owned_tmp.name
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run = _NetRun(plan, workdir)
    timed_out = False
    try:
        try:
            await asyncio.wait_for(run.execute(), timeout)
        except asyncio.TimeoutError:
            timed_out = True
    finally:
        await run.client.close()
        exit_codes = run.cluster.terminate_all()
    # After terminate_all: SIGTERM flushes a final metrics export from
    # every thawed replica.
    replicas, declarations, injected = harvest(
        plan, run.cluster.metrics_dir, run.statuses
    )
    extras: dict[str, Any] = {
        "resubmissions": run.client.resubmissions,
        "exit_codes": {
            str(pid): code for pid, code in sorted(exit_codes.items())
        },
        "timed_out": timed_out,
    }
    if owned_tmp is None:
        extras["workdir"] = str(workdir)
    else:
        owned_tmp.cleanup()
    return observe(
        plan,
        FIDELITY_NET,
        completed=run.completed_workload,
        replicas=replicas,
        declarations=declarations,
        injected=injected,
        extras=extras,
    )


def run_net_plan(
    plan: FaultPlan,
    *,
    workdir: str | Path | None = None,
    timeout: float = 180.0,
) -> FidelityObservation:
    return asyncio.run(
        run_net_plan_async(plan, workdir=workdir, timeout=timeout)
    )
