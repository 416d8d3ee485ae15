"""Fidelity 1: execute a fault plan in the pure simulation.

The plan's fidelity-neutral timeline (plan seconds) is scaled by
:data:`SIM_TIME_SCALE` onto the service world's virtual clock, whose
native timeouts (``request_timeout=40``, ``muteness_timeout=10``) were
tuned for the campaign presets. Link faults run through the shared
:class:`~repro.faults.injector.LinkFaultInjector`, the network's link
policy; kills/rejoins reuse the service runtime's recovery
scheduling (down = volatile state lost, up = certified state transfer);
collusion installs transformed-attack engines. The run then settles past
the plan window until the workload drains and the live replicas agree,
or a generous virtual-time budget expires — the oracles, not the budget,
decide the verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.analysis.stats import percentile
from repro.byzantine.adversary import transformed_attack
from repro.errors import ConfigurationError
from repro.faults.injector import (
    Delivery,
    LinkFaultInjector,
    install_zoo_injections,
    zoo_service_overrides,
)
from repro.faults.oracle import (
    Counters,
    FidelityObservation,
    ReplicaFacts,
    judge,
    observe,
    settled,
)
from repro.faults.plan import FIDELITY_SIM, FaultPlan
from repro.observability.registry import MetricsRegistry
from repro.service.config import ServiceConfig
from repro.service.replica import EngineFactory
from repro.sim.network import DELAY_MODELS, LinkModel
from repro.sim.service import ServiceSystem, build_service_system

#: Plan seconds -> simulated virtual time. The service stack's sim
#: timeouts are an order of magnitude above the loopback/net genesis
#: knobs, so one plan second stretches accordingly.
SIM_TIME_SCALE = 25.0

#: Extra virtual time (in plan seconds, pre-scale) the run may settle
#: past the plan window before the oracles judge whatever state exists.
SETTLE_BUDGET = 40.0


def _sim_config(plan: FaultPlan) -> ServiceConfig:
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
    plan.validate()
    registry = MetricsRegistry()
    injector = LinkFaultInjector(plan, registry=registry)

    def link(now: float, src: int, dst: int, payload: Any) -> list[Delivery] | None:
        copies = injector.plan_deliveries(now / SIM_TIME_SCALE, src, dst, payload)
        if copies is None:
            return None
        return [(copy, delay * SIM_TIME_SCALE) for copy, delay in copies]

    recoveries = tuple(
        (pid, at * SIM_TIME_SCALE, rejoin_at * SIM_TIME_SCALE)
        for pid, at, rejoin_at in plan.kills
        if rejoin_at is not None
    )
    system = build_service_system(
        _sim_config(plan),
        byzantine=_byzantine(plan),
        recoveries=recoveries,
        link=link,
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
        registry,
    )
    return system, injector, registry


def system_facts(system: ServiceSystem) -> dict[int, ReplicaFacts]:
    """Every replica's facts. One registry serves the whole world: a
    replica's own counters are the ones labelled with its pid."""
    metrics = system.world.metrics
    return {
        pid: ReplicaFacts.of(
            replica,
            lambda module, name, pid=pid: metrics.counter(module, name, pid=pid),
        )
        for pid, replica in enumerate(system.replicas)
    }


def observe_system(
    plan: FaultPlan,
    system: ServiceSystem,
    *,
    injected: Counters = lambda module, name: 0,
    extras: dict[str, Any] | None = None,
) -> FidelityObservation:
    """Reduce a finished fidelity-1 world to the judge's vocabulary."""
    world = system.world
    return observe(
        plan,
        FIDELITY_SIM,
        completed=system.completed_requests(),
        replicas=system_facts(system),
        # One world, one trace: declarations stay in event order.
        declarations=[
            (event.process, event.detail["target"], event.detail["reason"])
            for event in world.trace.of_kind("declare_faulty")
        ],
        injected=injected,
        extras={"end_time": world.now, **(extras or {})},
        # The simulated clients only ever write.
        writes=[
            ident for client in system.clients for ident in client.completed_idents()
        ],
    )


def run_sim_plan(plan: FaultPlan) -> FidelityObservation:
    """Execute ``plan`` at fidelity 1 and reduce it for the judge."""
    system, injector, registry = build_sim_system(plan)
    world = system.world
    horizon = (plan.duration + SETTLE_BUDGET) * SIM_TIME_SCALE
    deadline = plan.duration * SIM_TIME_SCALE
    while True:
        result = world.run(max_events=5_000_000, max_time=deadline)
        if deadline >= horizon or result.reason == "quiescent":
            break
        if settled(plan, system_facts(system), system.completed_requests()):
            break
        deadline = min(horizon, deadline + 5.0 * SIM_TIME_SCALE)
    return observe_system(
        plan, system, injected=registry.counter_total, extras=injector.link_counts()
    )


# -- `repro service run` -------------------------------------------------------


def build_service_run(
    plan: FaultPlan,
    config: ServiceConfig,
    *,
    delay_model: str = "uniform",
    transport: str = "none",
) -> ServiceSystem:
    """The (not yet run) world of ``repro service run``: ``config``'s
    deployment under the faults ``plan`` describes, in the run's own
    virtual seconds — Byzantine engines from ``collusion``, a down/restart
    per ``kills`` entry, per-link ``loss`` under ``transport``."""
    config.validate()
    plan.validate()
    requests = config.n_clients * config.requests_per_client
    if (plan.n_replicas, plan.seed, plan.requests) != (
        config.n_replicas, config.seed, requests
    ):
        raise ConfigurationError(
            "the plan's n_replicas, seed and requests (clients x requests "
            "per client) must match the service config"
        )
    if plan.mutes or plan.partitions or plan.flips or plan.has_zoo or any(
        rejoin_at is None for _pid, _at, rejoin_at in plan.kills
    ) or plan.duplication or plan.reorder:
        raise ConfigurationError(
            "a service run realises only collusion, loss and kills that rejoin"
        )
    factory, defaults = DELAY_MODELS[delay_model]
    return build_service_system(
        config,
        byzantine=_byzantine(plan),
        recoveries=tuple(plan.kills),
        delay_model=factory(**defaults),
        link=LinkModel(loss=plan.loss, seed=config.seed) if plan.loss else None,
        transport=transport,
    )


def run_service_plan(
    plan: FaultPlan,
    config: ServiceConfig,
    *,
    delay_model: str = "uniform",
    transport: str = "none",
) -> dict[str, Any]:
    """Build, run and judge one service run; the record is JSON-ready and
    byte-identical across runs of the same arguments."""
    system = build_service_run(
        plan, config, delay_model=delay_model, transport=transport
    )
    result = system.run(max_time=plan.duration)
    verdict, violations = judge(plan, observe_system(plan, system))
    latencies = system.client_latencies()
    return {
        "id": plan.plan_id,
        "config": plan.to_config(),
        "run": {
            "end_time": round(result.end_time, 9),
            "end_reason": result.reason,
            "events": result.events_dispatched,
            "messages_sent": system.world.network.messages_sent,
        },
        "service": {
            "committed_commands": system.committed_commands(),
            "completed_requests": system.completed_requests(),
            "certified_checkpoints": system.certified_checkpoints(),
            "checkpoints_attested": len(system.checkpoint_digests()),
            "state_transfers": sum(
                len(r.state_transfers_completed) for r in system.replicas
            ),
            "resubmissions": sum(c.resubmissions for c in system.clients),
        },
        "latency": {
            "completions": len(latencies),
            "p50": round(percentile(latencies, 50.0), 9) if latencies else None,
            "p99": round(percentile(latencies, 99.0), 9) if latencies else None,
        },
        "verdict": verdict,
        "violations": violations,
    }
