"""Fidelity 2: execute a fault plan on the deterministic loopback twin.

Real :class:`~repro.net.node.NetNode` hosts, the real wire codec on
every hop, but the transport is a
:class:`~repro.net.transport.LoopbackHub` whose link policy is the
plan's injector and the clock is a
:class:`~repro.net.clock.ManualScheduler` — plan seconds run 1:1 on the
virtual clock, so the whole deployment
(:class:`~repro.net.loopback.LoopbackCluster`) executes deterministically
inside the calling process. Kills drop the node object (volatile state lost)
and rejoins build a fresh one with ``join=True``, exactly like the
subprocess fidelity's SIGKILL + ``--join`` respawn; muteness swallows
all traffic touching the muted pid at the fabric, the closest
deterministic analogue of a SIGSTOPped process.
"""

from __future__ import annotations

import dataclasses

from repro.byzantine import transformed_attack
from repro.faults.injector import LinkFaultInjector
from repro.faults.oracle import (
    FidelityObservation,
    ReplicaFacts,
    observe,
    settled,
)
from repro.faults.plan import FIDELITY_LOOPBACK, FaultPlan
from repro.net.clock import ManualScheduler
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
        # Lazy zoo import: repro.zoo depends on repro.faults.plan, so the
        # faults package never imports repro.zoo at module scope.
        from repro.zoo.runtime import zoo_loopback_overrides

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
        self.scheduler = ManualScheduler()
        self.cluster = LoopbackCluster(
            genesis,
            self.scheduler,
            link=self.injector.plan_deliveries,
            config=config,
            engine_factories={
                pid: transformed_attack(pid, name)[pid]
                for pid, name in plan.collusion
            },
        )
        self.client = self.cluster.clients[0]

    def _schedule_events(self) -> None:
        from repro.zoo.runtime import ZooInjections, install_zoo_injections

        plan = self.plan
        nodes = self.cluster.nodes
        # Families (b)/(d): same shared wiring as the other fidelities;
        # the manual clock starts at zero, so plan time maps 1:1.
        install_zoo_injections(
            plan,
            self.scheduler.schedule_after,
            lambda pid: nodes[pid].process if pid in nodes else None,
            ZooInjections(),
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
                lambda i=index: self.client.set(f"k{i % 8}", f"v{i}"),
            )

    def _facts(self) -> dict[int, ReplicaFacts]:
        return {
            pid: ReplicaFacts.of(node.process, node.metrics.counter_total)
            for pid, node in self.cluster.nodes.items()
        }

    def execute(self) -> FidelityObservation:
        plan = self.plan
        self._schedule_events()
        self.cluster.pump(plan.duration)
        budget = SETTLE_BUDGET
        while budget > 0 and not settled(
            plan, self._facts(), len(self.client.completed)
        ):
            self.cluster.pump(1.0)
            budget -= 1.0
        return observe(
            plan,
            FIDELITY_LOOPBACK,
            completed=len(self.client.completed),
            replicas=self._facts(),
            # Each node keeps its own trace; sorting gives the merged
            # list one order whatever the node iteration order was.
            declarations=sorted(
                (pid, event.detail["target"], event.detail["reason"])
                for pid, node in self.cluster.nodes.items()
                for event in node.trace.of_kind("declare_faulty")
            ),
            injected=self.registry.counter_total,
            extras={
                "end_time": self.scheduler.now,
                **self.injector.link_counts(),
                "resubmissions": sum(self.client.attempts.values())
                - plan.requests,
            },
        )


def run_loopback_plan(plan: FaultPlan) -> FidelityObservation:
    """Execute ``plan`` at fidelity 2 and reduce it for the judge."""
    return _LoopbackRun(plan).execute()
