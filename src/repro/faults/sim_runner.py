"""Fidelity 1: execute a fault plan in the pure simulation.

The plan's fidelity-neutral timeline (plan seconds) is scaled by
:data:`SIM_TIME_SCALE` onto the service world's virtual clock, whose
native timeouts (``request_timeout=40``, ``muteness_timeout=10``) were
tuned for the campaign presets. Link faults run through the shared
:class:`~repro.faults.injector.LinkFaultInjector` via the network's
tamper hook; kills/rejoins reuse the service runtime's recovery
scheduling (down = volatile state lost, up = certified state transfer);
collusion installs transformed-attack engines. The run then settles past
the plan window until the workload drains and the live replicas agree,
or a generous virtual-time budget expires — the oracles, not the budget,
decide the verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.byzantine import transformed_attack
from repro.faults.injector import LinkFaultInjector
from repro.faults.oracle import (
    FidelityObservation,
    ReplicaFacts,
    observe,
    settled,
)
from repro.faults.plan import FIDELITY_SIM, FaultPlan
from repro.observability.registry import MetricsRegistry
from repro.replication.log import EngineFactory
from repro.service.config import ServiceConfig
from repro.service.runtime import ServiceSystem, build_service_system

#: Plan seconds -> simulated virtual time. The service stack's sim
#: timeouts are an order of magnitude above the loopback/net genesis
#: knobs, so one plan second stretches accordingly.
SIM_TIME_SCALE = 25.0

#: Extra virtual time (in plan seconds, pre-scale) the run may settle
#: past the plan window before the oracles judge whatever state exists.
SETTLE_BUDGET = 40.0


def _sim_config(plan: FaultPlan) -> ServiceConfig:
    # Lazy zoo import: repro.zoo depends on repro.faults.plan, so the
    # faults package never imports repro.zoo at module scope.
    from repro.zoo.runtime import zoo_service_overrides

    duration = plan.duration * SIM_TIME_SCALE
    # Open-loop workload spread over the first ~70% of the window, so
    # post-rejoin replicas still see fresh traffic to catch up against.
    rate = plan.requests / (0.7 * duration)
    config = ServiceConfig(
        n_replicas=plan.n_replicas,
        n_clients=1,
        mode="open",
        rate=rate,
        requests_per_client=plan.requests,
        batch_size=2,
        batch_delay=1.0,
        window=2,
        checkpoint_interval=1,
        request_timeout=40.0,
        stall_probe=2.0 * SIM_TIME_SCALE,
        seed=plan.seed,
        key_space=16,
    )
    # Zoo plans arm extra service machinery (self-heal, adaptive ◇M,
    # wider pipelining); empty for v1 plans, so their configs and hence
    # their runs are untouched.
    overrides = zoo_service_overrides(plan)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _byzantine(plan: FaultPlan) -> dict[int, EngineFactory]:
    engines: dict[int, EngineFactory] = {}
    for pid, name in plan.collusion:
        engines.update(transformed_attack(pid, name))
    return engines


def build_sim_system(
    plan: FaultPlan,
) -> tuple[ServiceSystem, LinkFaultInjector, MetricsRegistry]:
    """The (not yet run) fidelity-1 world for ``plan``, its link
    injector, and the registry every injector of the run counts into."""
    from repro.zoo.runtime import ZooInjections, install_zoo_injections

    plan.validate()
    registry = MetricsRegistry()
    injector = LinkFaultInjector(plan, registry=registry)

    def tamper(
        now: float, src: int, dst: int, payload: Any
    ) -> list[tuple[Any, float]] | None:
        deliveries = injector.plan_deliveries(
            now / SIM_TIME_SCALE, src, dst, payload
        )
        if deliveries is None:
            return None
        return [
            (copy, delay * SIM_TIME_SCALE) for copy, delay in deliveries
        ]

    recoveries = tuple(
        (pid, at * SIM_TIME_SCALE, rejoin_at * SIM_TIME_SCALE)
        for pid, at, rejoin_at in plan.kills
        if rejoin_at is not None
    )
    system = build_service_system(
        _sim_config(plan),
        byzantine=_byzantine(plan),
        recoveries=recoveries,
        tamper=tamper,
    )
    # Permanent kills have no recovery leg: take the replica down and
    # leave it down (silent, volatile state lost — the crash model).
    for pid, at, rejoin_at in plan.kills:
        if rejoin_at is None:
            replica = system.replicas[pid]
            system.world.scheduler.schedule_at(
                at * SIM_TIME_SCALE, "service-down", replica.go_down
            )
    world = system.world
    # Families (b) and (d): seeded live-state scribbles and sticky
    # storage faults, booked on the world's scheduler at the scaled
    # clause instants (shared wiring across all three runners).
    install_zoo_injections(
        plan,
        lambda at, label, thunk: world.scheduler.schedule_at(
            at * SIM_TIME_SCALE, label, thunk
        ),
        lambda pid: system.replicas[pid],
        ZooInjections(),
        registry,
    )
    return system, injector, registry


def run_sim_plan(plan: FaultPlan) -> FidelityObservation:
    """Execute ``plan`` at fidelity 1 and reduce it for the judge."""
    system, injector, registry = build_sim_system(plan)
    world = system.world

    def facts() -> dict[int, ReplicaFacts]:
        # One registry for the whole world: a replica's own counters
        # are the ones labelled with its pid.
        return {
            pid: ReplicaFacts.of(
                replica,
                lambda module, name, pid=pid: world.metrics.counter(
                    module, name, pid=pid
                ),
            )
            for pid, replica in enumerate(system.replicas)
        }

    horizon = (plan.duration + SETTLE_BUDGET) * SIM_TIME_SCALE
    deadline = plan.duration * SIM_TIME_SCALE
    while True:
        result = world.run(max_events=5_000_000, max_time=deadline)
        if deadline >= horizon or result.reason == "quiescent":
            break
        if settled(plan, facts(), system.completed_requests()):
            break
        deadline = min(horizon, deadline + 5.0 * SIM_TIME_SCALE)

    return observe(
        plan,
        FIDELITY_SIM,
        completed=system.completed_requests(),
        replicas=facts(),
        # One world, one trace: declarations stay in event order.
        declarations=[
            (event.process, event.detail["target"], event.detail["reason"])
            for event in world.trace.of_kind("declare_faulty")
        ],
        injected=registry.counter_total,
        extras={"end_time": world.now, **injector.link_counts()},
    )
