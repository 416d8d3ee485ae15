"""Fidelity 2: execute a fault plan on the deterministic loopback twin.

The deployment's own nodes, transports and client on a
:class:`~repro.net.clock.VirtualTimeLoop`, with the plan's injector as
every link's policy; plan seconds run 1:1 on the virtual clock, so the
whole deployment (:class:`~repro.net.loopback.LoopbackCluster`) executes
deterministically inside the calling process. Kills drop the node object
(volatile state lost) and every connection it had, and rejoins build a
fresh one with ``join=True``, exactly like the subprocess fidelity's
SIGKILL + ``--join`` respawn; muteness swallows all traffic touching the
muted pid at the links, the closest deterministic analogue of a
SIGSTOPped process.
"""

from __future__ import annotations

import dataclasses
import math

from repro.byzantine.adversary import transformed_attack
from repro.faults.injector import (
    LinkFaultInjector,
    install_zoo_injections,
    zoo_loopback_overrides,
)
from repro.faults.oracle import (
    Counters,
    FidelityObservation,
    ReplicaFacts,
    observe,
    settled,
)
from repro.faults.plan import FIDELITY_LOOPBACK, FaultPlan
from repro.net.client import NetClientError
from repro.net.genesis import Genesis
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.observability.registry import MetricsRegistry

#: Extra plan-seconds the run may settle past the plan window.
SETTLE_BUDGET = 40.0

_PORT_BASE = 20001


def loopback_genesis(plan: FaultPlan) -> Genesis:
    return Genesis(
        name=f"faults-{plan.plan_id}",
        seed=plan.seed,
        n_replicas=plan.n_replicas,
        addresses=fixed_addresses(plan.n_replicas, _PORT_BASE),
        max_clients=1,
        **TWIN_KNOBS,
    )


class _LoopbackRun:
    """One plan execution on the loopback twin."""

    def __init__(self, plan: FaultPlan) -> None:
        plan.validate()
        self.plan = plan
        # What the injectors do, as counters: the reducer reads totals.
        self.registry = MetricsRegistry()
        self.injector = LinkFaultInjector(plan, registry=self.registry)
        genesis = loopback_genesis(plan)
        # Zoo plans re-derive the cluster config exactly like the
        # subprocess fidelity does; empty for v1 plans, whose runs (and
        # genesis id, hence every hello MAC) stay byte-identical.
        config = genesis.service_config()
        overrides = zoo_loopback_overrides(plan)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        self.cluster = LoopbackCluster(
            genesis,
            link=self.injector.plan_deliveries,
            config=config,
            engine_factories={
                pid: transformed_attack(pid, name)[pid]
                for pid, name in plan.collusion
            },
        )
        self.scheduler = self.cluster.scheduler
        self.client = self.cluster.clients[0]
        #: ``(client, req_id)`` of every write that completed.
        self.writes: list[tuple[int, int]] = []

    def _schedule_events(self) -> None:
        plan = self.plan
        nodes = self.cluster.nodes
        # Families (b)/(d): same shared wiring as the other fidelities;
        # the virtual clock starts at zero, so plan time maps 1:1.
        install_zoo_injections(
            plan,
            self.scheduler.schedule_after,
            lambda pid: nodes[pid].process if pid in nodes else None,
            self.registry,
        )
        for pid, at, rejoin_at in plan.kills:
            self.scheduler.schedule_after(
                at, "plan-kill", lambda p=pid: self.cluster.kill(p)
            )
            if rejoin_at is not None:
                self.scheduler.schedule_after(
                    rejoin_at, "plan-rejoin", lambda p=pid: self.cluster.rejoin(p)
                )
        # Workload: spread over the first ~70% of the plan window, so
        # post-rejoin replicas still see fresh traffic to catch up on.
        span = 0.7 * plan.duration
        for index in range(plan.requests):
            at = (index / plan.requests) * span
            self.scheduler.schedule_after(
                at,
                "plan-request",
                lambda i=index: self.cluster.spawn(self._write(i)),
            )

    async def _write(self, index: int) -> None:
        client = self.client
        req_id = client.session.next_req_id  # the id ``set`` is about to take
        # Resubmit for as long as the run may last, never giving up early.
        attempts = math.ceil(
            (self.plan.duration + SETTLE_BUDGET) / client.genesis.request_timeout
        )
        try:
            await client.set(f"k{index % 8}", f"v{index}", attempts=attempts)
        except NetClientError:
            return
        self.writes.append((client.pid, req_id))

    def execute(self) -> FidelityObservation:
        try:
            return self._execute()
        finally:
            self.cluster.close()

    def _execute(self) -> FidelityObservation:
        plan = self.plan
        self._schedule_events()
        self.cluster.pump(plan.duration)
        budget = SETTLE_BUDGET
        settle = lambda: settled(plan, group_facts(self.cluster), len(self.writes))
        while budget > 0 and not settle():
            self.cluster.pump(1.0)
            budget -= 1.0
        return observe_group(
            plan,
            self.cluster,
            self.writes,
            injected=self.registry.counter_total,
            extras={
                "end_time": self.scheduler.now,
                **self.injector.link_counts(),
                "resubmissions": self.client.resubmissions,
            },
        )


def group_facts(cluster: LoopbackCluster) -> dict[int, ReplicaFacts]:
    """The facts of every replica a loopback group has up."""
    return {
        pid: ReplicaFacts.of(node.process, node.metrics.counter_total)
        for pid, node in cluster.nodes.items()
    }


def observe_group(
    plan: FaultPlan, cluster: LoopbackCluster, writes: list[tuple[int, int]],
    injected: Counters = lambda module, name: 0, extras: dict | None = None,
) -> FidelityObservation:
    """Reduce a group that ran ``plan`` and completed ``writes``."""
    return observe(
        plan,
        FIDELITY_LOOPBACK,
        completed=len(writes),
        replicas=group_facts(cluster),
        # Sorted: one order whatever the order of the nodes.
        declarations=sorted(
            (pid, event.detail["target"], event.detail["reason"])
            for pid, node in cluster.nodes.items()
            for event in node.trace.of_kind("declare_faulty")
        ),
        injected=injected,
        writes=writes,
        extras={} if extras is None else extras,
    )


def run_loopback_plan(plan: FaultPlan) -> FidelityObservation:
    """Execute ``plan`` at fidelity 2 and reduce it for the judge."""
    return _LoopbackRun(plan).execute()
