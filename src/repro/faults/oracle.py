"""The fidelity-neutral verdict: one judge for all three runners.

Every runner reduces its run to a :class:`FidelityObservation` — the
same handful of facts regardless of whether they came from a simulated
world's trace, a loopback node's registry, or a subprocess cluster's
exported JSONL — and :func:`judge` turns (plan, observation) into the
``pass`` / ``expected-vulnerability`` / ``fail`` verdict plus the list
of violated oracles. The cross-fidelity contract (docs/FAULTS.md) is
that this verdict agrees across fidelities for the same plan.

The bit-flip attribution oracle closes the loop on the first
arbitrary-fault family: at least one flip must have been injected, the
corruption must be *detected* by the signature/certification side
(declarations classified via
:func:`repro.campaign.oracles.classify_fault_reason`, with the raw
signature-rejection counter as the fidelity-3 fallback when the bounded
trace has rolled over), and — on plans without probabilistic link noise,
whose stream gaps could legitimately trip Figure 4 — the behaviour
automaton must never convict the innocent flipped sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.byzantine.faults import DetectingModule
from repro.campaign.oracles import (
    VERDICT_EXPECTED_VULNERABILITY,
    VERDICT_FAIL,
    VERDICT_PASS,
    classify_fault_reason,
)
from repro.faults.plan import FaultPlan
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_MUTENESS,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
    MODULE_ZOO,
)
from repro.service.checkpoint import service_digest

#: Modules allowed to flag a flipped-bit corruption (the verification
#: side of the receive path; never the behaviour automaton).
FLIP_MODULES = frozenset(
    {DetectingModule.SIGNATURE, DetectingModule.CERTIFICATION}
)


@dataclass(slots=True)
class FidelityObservation:
    """What one runner saw, reduced to the judge's vocabulary."""

    fidelity: str
    #: Client requests that completed end-to-end.
    completed: int = 0
    #: pid -> commands committed at that replica (live replicas only).
    committed: dict[int, int] = field(default_factory=dict)
    #: pid -> application-state digest at the end of the run.
    digests: dict[int, str] = field(default_factory=dict)
    #: pid -> certified state transfers completed (rejoin evidence).
    transfers: dict[int, int] = field(default_factory=dict)
    #: ``(observer, target, reason)`` fault declarations by correct
    #: observers (may be truncated at fidelity 3 — see the counters).
    declared: tuple[tuple[int, int, str], ...] = ()
    #: Flips the injector actually performed.
    flips_injected: int = 0
    #: Total signature-verification rejections (durable fallback for
    #: flip detection when the bounded event window rolled over).
    signature_rejections: int = 0
    #: Adversary-zoo facts (docs/ADVERSARIES.md): injection/detection
    #: counters per family plus the re-convergence verdict. Populated
    #: only for zoo plans, so v1 plan records stay byte-identical; the
    #: per-family oracles in :mod:`repro.zoo.oracles` judge it.
    zoo: dict[str, Any] = field(default_factory=dict)
    #: Free-form runner extras carried into the report (never judged).
    extras: dict[str, Any] = field(default_factory=dict)


#: ``(module, name) -> total`` over one registry's counters
#: (:meth:`MetricsRegistry.counter_total` has this shape).
Counters = Callable[[str, str], int | float]


@dataclass(slots=True)
class ReplicaFacts:
    """What a runner knows about one replica at the end of (or during)
    a run, wherever it read it: a simulated process, a loopback node, or
    a status reply plus an exported JSONL artifact."""

    #: Commands committed; ``None`` when the replica has no final state
    #: to show (dead, or silent to the status probe).
    committed: int | None = None
    #: Application-state digest, ``None`` alongside ``committed``.
    digest: str | None = None
    #: Certified state transfers completed.
    transfers: int = 0
    #: Corrupted transfer suffixes this replica refused.
    suffix_rejections: int = 0
    #: This replica's own counters.
    counter: Counters = lambda module, name: 0

    @classmethod
    def of(cls, process: Any, counter: Counters) -> "ReplicaFacts":
        """The facts of a live :class:`ServiceReplicaProcess`."""
        return cls(
            committed=process.committed_commands,
            digest=service_digest(process.store, process.executed),
            transfers=len(process.state_transfers_completed),
            suffix_rejections=process.suffix_rejections,
            counter=counter,
        )


def live_correct(plan: FaultPlan) -> frozenset[int]:
    """Replicas the convergence oracles may hold to account at the end:
    correct, never muted, and not dead at the end of the plan."""
    gone = (
        plan.muted_pids
        | plan.colluding_pids
        | (plan.killed_pids - plan.rejoining_pids)
    )
    return frozenset(range(plan.n_replicas)) - gone


def settled(
    plan: FaultPlan, replicas: Mapping[int, ReplicaFacts], completed: int
) -> bool:
    """May a deterministic runner stop early? The workload drained, every
    live correct replica reached the progress floor, every rejoiner
    certified a transfer, and the live set shows one digest."""
    if completed < plan.requests:
        return False
    live = [replicas.get(pid) for pid in live_correct(plan)]
    if any(
        facts is None
        or facts.committed is None
        or facts.committed < plan.progress_floor
        for facts in live
    ):
        return False
    if any(
        pid not in replicas or replicas[pid].transfers < 1
        for pid in plan.rejoining_pids
    ):
        return False
    return len({facts.digest for facts in live}) == 1


def observe(
    plan: FaultPlan,
    fidelity: str,
    *,
    completed: int,
    replicas: Mapping[int, ReplicaFacts],
    declarations: Iterable[tuple[int, int, str]],
    injected: Counters,
    extras: dict[str, Any],
) -> FidelityObservation:
    """Reduce one run's facts to the judge's vocabulary — the only place
    the pid-set rules are written (docs/FAULTS.md): final state and
    detection counters from the live correct replicas, declarations,
    signature rejections and wrongful suspicions from the correct ones,
    transfers from the rejoiners. A faulty replica's own counters and
    declarations never count as detections, at any fidelity.

    ``declarations`` are ``(observer, target, reason)`` in the order the
    runner harvested them, which the observation keeps. ``injected``
    looks up the run-wide total of an injection counter — the injectors
    count what they do into a registry at every fidelity.
    """
    live = live_correct(plan)
    correct = frozenset(range(plan.n_replicas)) - plan.faulty_pids
    final = {
        pid: replicas[pid]
        for pid in sorted(live)
        if pid in replicas and replicas[pid].committed is not None
    }

    def total(pids: frozenset[int], module: str, name: str) -> int:
        return sum(
            int(replicas[pid].counter(module, name))
            for pid in sorted(pids)
            if pid in replicas
        )

    zoo: dict[str, Any] = {}
    if plan.suppressions:
        zoo["suppressed"] = int(injected(MODULE_ZOO, "suppressed_deliveries"))
    if plan.corruptions:
        zoo["corruptions_injected"] = int(
            injected(MODULE_ZOO, "corruptions_injected")
        )
        zoo["checkpoint_mismatches"] = total(
            live, MODULE_SERVICE, "checkpoint_mismatches"
        )
        zoo["state_heals"] = total(live, MODULE_SERVICE, "state_heals")
    if plan.timing:
        zoo["timing_delays"] = int(injected(MODULE_ZOO, "timing_delays"))
        zoo["wrongful_suspicions"] = total(
            correct, MODULE_MUTENESS, "wrongful_suspicions"
        )
    if plan.storage_flips:
        zoo["storage_flips_injected"] = int(
            injected(MODULE_ZOO, "storage_flips_injected")
        )
        zoo["storage_rejections"] = sum(
            replicas[pid].suffix_rejections for pid in live if pid in replicas
        ) + total(live, MODULE_SERVICE, "state_responses_rejected")
    return FidelityObservation(
        fidelity=fidelity,
        completed=completed,
        committed={pid: facts.committed for pid, facts in final.items()},
        digests={pid: facts.digest for pid, facts in final.items()},
        transfers={
            pid: replicas[pid].transfers
            for pid in sorted(plan.rejoining_pids)
            if pid in replicas
        },
        declared=tuple(
            entry for entry in declarations if entry[0] in correct
        ),
        flips_injected=int(injected(MODULE_FAULTS, "arb_faults_injected")),
        signature_rejections=total(
            correct, MODULE_SIGNATURE, "messages_rejected"
        ),
        zoo=zoo,
        extras=extras,
    )


def judge(
    plan: FaultPlan, observation: FidelityObservation
) -> tuple[str, list[str]]:
    """Apply the oracle catalogue; return ``(verdict, violations)``."""
    violations: list[str] = []
    live = live_correct(plan)
    floor = plan.progress_floor

    # Progress: the workload completed and every live replica executed it.
    if observation.completed < plan.requests:
        violations.append(
            f"progress: {observation.completed}/{plan.requests} client "
            "requests completed"
        )
    for pid in sorted(live):
        committed = observation.committed.get(pid, 0)
        if committed < floor:
            violations.append(
                f"progress: replica {pid} committed {committed} < {floor} "
                "commands"
            )

    # Convergence: one application-state digest across the live set.
    missing = [pid for pid in sorted(live) if pid not in observation.digests]
    if missing:
        violations.append(
            f"convergence: no final digest from replica(s) {missing}"
        )
    digests = {observation.digests[pid] for pid in live - set(missing)}
    if len(digests) > 1:
        violations.append(
            "convergence: live correct replicas diverge: "
            + ", ".join(
                f"{pid}={observation.digests[pid][:12]}"
                for pid in sorted(live - set(missing))
            )
        )

    # Recovery: every rejoining replica certified at least one transfer.
    for pid in sorted(plan.rejoining_pids):
        if observation.transfers.get(pid, 0) < 1:
            violations.append(
                f"recovery: rejoined replica {pid} completed no certified "
                "state transfer"
            )

    # Arbitrary-fault family: flips injected, detected, and attributed
    # to the verification modules — never the behaviour automaton.
    if plan.flips:
        if observation.flips_injected < 1:
            violations.append(
                "injection: the plan schedules bit-flips but none were "
                "injected (no eligible CURRENT traffic in the window?)"
            )
        else:
            flip_srcs = plan.flip_pids
            verification_hits = sum(
                1
                for _observer, target, reason in observation.declared
                if target in flip_srcs
                and classify_fault_reason(reason) in FLIP_MODULES
            )
            if verification_hits == 0 and observation.signature_rejections == 0:
                violations.append(
                    "detection: flipped pre-signature fields were never "
                    "rejected by the signature/certification modules"
                )
        if not plan.has_link_noise:
            automaton_hits = sorted(
                {
                    (observer, target)
                    for observer, target, reason in observation.declared
                    if target in plan.flip_pids
                    and classify_fault_reason(reason)
                    is DetectingModule.NON_MUTENESS_DETECTOR
                }
            )
            if automaton_hits:
                violations.append(
                    "attribution: the behaviour automaton convicted the "
                    f"innocent flipped sender(s): {automaton_hits}"
                )

    # Adversary-zoo families (v2 plans): per-family injection/detection/
    # attribution oracles, including the self-stabilization verdict.
    # Imported lazily — repro.zoo depends on repro.faults.plan, so the
    # faults package never imports repro.zoo at module scope.
    if plan.has_zoo:
        from repro.zoo.oracles import judge_zoo

        violations.extend(judge_zoo(plan, observation, live))

    if not violations:
        return VERDICT_PASS, violations
    if plan.expect == "vulnerable":
        return VERDICT_EXPECTED_VULNERABILITY, violations
    return VERDICT_FAIL, violations
