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
:func:`repro.byzantine.faults.classify_fault_reason`, with the raw
signature-rejection counter as the fidelity-3 fallback when the bounded
trace has rolled over), and — on plans without probabilistic link noise,
whose stream gaps could legitimately trip Figure 4 — the behaviour
automaton must never convict the innocent flipped sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.byzantine.faults import DetectingModule, classify_fault_reason
from repro.crypto.cache import caching_disabled
from repro.faults.plan import FIDELITY_NET, FaultPlan
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_MUTENESS,
    MODULE_NET,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
    MODULE_ZOO,
)
from repro.service.checkpoint import certificate_valid, service_digest

#: Verdict vocabulary, ordered from best to worst.
VERDICT_PASS = "pass"
VERDICT_EXPECTED_VULNERABILITY = "expected-vulnerability"
VERDICT_FAIL = "fail"

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
    #: only for zoo plans, so v1 plan records stay byte-identical;
    #: :func:`judge_zoo` judges it.
    zoo: dict[str, Any] = field(default_factory=dict)
    #: pid -> facts of each live correct replica with a final state, for
    #: the service checks (not serialised; not compared: they hold lookups).
    facts: dict[int, "ReplicaFacts"] = field(default_factory=dict, compare=False)
    #: ``(client, req_id)`` of every completed write; ``None`` where the
    #: runner cannot list them (fidelity 3).
    writes: frozenset[tuple[int, int]] | None = None
    #: What only a real cluster shows; ``None`` below fidelity 3.
    cluster: "ClusterFacts | None" = None
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
    #: Messages whose handler raised (``PeerTransport`` counts and drops them).
    handler_errors: int = 0
    #: This replica's own counters.
    counter: Counters = lambda module, name: 0
    # The service state below is read off the replica object; it stays
    # ``None`` at fidelity 3, where the checks on it stand down.
    #: ``(count, digest)`` of every checkpoint this replica attested.
    checkpoints: tuple[tuple[int, str], ...] | None = None
    #: Certified digests that conflicted with this replica's own.
    checkpoint_mismatches: int | None = None
    #: Its stable checkpoint certificate re-verifies (``True`` without one).
    certificate_valid: bool | None = None
    #: ``(client, req_id)`` of every request it executed.
    executed: frozenset[tuple[int, int]] | None = None
    #: Slots applied (the log's ``next_apply``).
    applied: int | None = None
    #: Count its last state transfer installed (0: a suffix only).
    installed: int | None = None

    @classmethod
    def of(cls, process: Any, counter: Counters) -> "ReplicaFacts":
        """The facts of a live :class:`ServiceReplicaProcess`."""
        log, stable = process.slotlog, process.stable
        # Uncached: judging must not touch the replica's verdict cache.
        with caching_disabled():
            valid = stable is None or certificate_valid(
                stable, process._ckpt_authority, process.params.f
            )
        transfers = process.state_transfers_completed
        return cls(
            committed=log.committed_commands,
            digest=service_digest(log.store, log.executed),
            transfers=len(transfers),
            suffix_rejections=process.suffix_rejections,
            handler_errors=int(counter(MODULE_NET, "handler_errors")),
            counter=counter,
            checkpoints=tuple(process.checkpoint_history),
            checkpoint_mismatches=process.checkpoint_mismatches,
            certificate_valid=valid,
            executed=frozenset(log.executed),
            applied=log.next_apply,
            installed=transfers[-1][1] if transfers else None,
        )


@dataclass(frozen=True, slots=True)
class ClusterFacts:
    """What a subprocess cluster shows and the deterministic fidelities
    have no counterpart for: the client's own counts, the processes'
    exit codes, and a quorum read after the run."""

    #: ``set`` calls the client made and completed: the workload, the
    #: settle loop's nudges and the sentinel.
    sets_issued: int
    sets_completed: int
    #: pid -> exit code of every replica process at shutdown.
    exit_codes: Mapping[int, int]
    #: The sentinel written after the workload read back by quorum.
    sentinel_read: bool


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
    writes: Iterable[tuple[int, int]] | None = None,
    cluster: ClusterFacts | None = None,
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
    count what they do into a registry at every fidelity. ``writes``
    lists the completed writes' ``(client, req_id)``, where it can, and
    ``cluster`` what only a real cluster shows.
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
        facts=final,
        writes=None if writes is None else frozenset(writes),
        cluster=cluster,
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

    # Loudness: a correct replica's handler never raises. The transport
    # counts and drops such a message, which would hide the defect.
    violations.extend(
        f"handler: replica {pid} raised in {facts.handler_errors} message "
        "handler(s)"
        for pid, facts in sorted(observation.facts.items())
        if facts.handler_errors
    )

    violations.extend(judge_service(plan, observation, live))
    violations.extend(judge_net(plan, observation, live))

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
    if plan.has_zoo:
        violations.extend(judge_zoo(plan, observation, live))

    if not violations:
        return VERDICT_PASS, violations
    if plan.expect == "vulnerable":
        return VERDICT_EXPECTED_VULNERABILITY, violations
    return VERDICT_FAIL, violations


def judge_service(
    plan: FaultPlan, observation: FidelityObservation, live: frozenset[int]
) -> list[str]:
    """The checks on the live correct replicas' service state. Each
    stands down where its facts are ``None`` (fidelity 3)."""
    violations: list[str] = []
    known = sorted(live & set(observation.facts))
    facts = {pid: observation.facts[pid] for pid in known}

    # Checkpoint agreement: one digest per count, and no certified digest
    # conflicting with a replica's own. A corrupted replica is left to
    # the re-convergence oracle: its mismatch is the detection it wants.
    agreeing = {
        pid: facts[pid] for pid in facts if pid not in plan.corrupted_pids
    }
    digests: dict[int, set[str]] = {}
    for replica in agreeing.values():
        for count, digest in replica.checkpoints or ():
            digests.setdefault(count, set()).add(digest)
    violations.extend(
        f"convergence: checkpoint {count} has {len(seen)} distinct digests "
        "across live correct replicas"
        for count, seen in sorted(digests.items())
        if len(seen) > 1
    )
    violations.extend(
        f"convergence: replica {pid} observed a certified checkpoint digest "
        "conflicting with its own"
        for pid, replica in agreeing.items()
        if replica.checkpoint_mismatches
    )

    # Certificate validity: every stable certificate re-verifies.
    violations.extend(
        f"certificate: replica {pid}'s stable checkpoint certificate does "
        "not verify"
        for pid, replica in facts.items()
        if replica.certificate_valid is False
    )

    # Exactly-once: a completed write was executed by a live correct
    # replica (a reply never precedes the commit).
    executed = [replica.executed for replica in facts.values()]
    if observation.writes is not None and None not in executed:
        missing = observation.writes.difference(*executed)
        if missing:
            violations.append(
                f"exactly-once: {len(missing)} completed write(s) no live "
                "correct replica executed"
            )

    # Recovery: what every other live replica applied past a rejoiner's
    # installed snapshot, the rejoiner applied too.
    for pid in sorted(plan.rejoining_pids):
        rejoiner = facts.get(pid)
        if rejoiner is None or rejoiner.installed is None:
            continue
        others = [facts[other].applied for other in facts if other != pid]
        frontier = min(others, default=0)
        if frontier > rejoiner.installed and rejoiner.applied < frontier:
            violations.append(
                f"recovery: rejoined replica {pid} applied {rejoiner.applied} "
                f"slots; the live set applied {frontier}, past its installed "
                f"snapshot (count {rejoiner.installed})"
            )
    return violations


#: The checks only a real cluster can make, in the order ``judge_net``
#: makes them; ``net_checks`` says which apply to a plan.
NET_CHECKS = (
    "exactly-once-count",
    "suffix-rejections",
    "exit-codes",
    "sentinel-read",
)


def net_checks(plan: FaultPlan) -> tuple[str, ...]:
    """The :data:`NET_CHECKS` ``judge`` makes of ``plan`` at fidelity 3:
    all four, less the suffix-rejection check unless the plan is benign."""
    return tuple(
        check
        for check in NET_CHECKS
        if check != "suffix-rejections" or plan.benign
    )


def judge_net(
    plan: FaultPlan, observation: FidelityObservation, live: frozenset[int]
) -> list[str]:
    """The checks on what only a real cluster shows (:data:`NET_CHECKS`).
    They stand down at sim and loopback, which have no cluster facts."""
    cluster = observation.cluster
    if observation.fidelity != FIDELITY_NET or cluster is None:
        return []
    violations: list[str] = []
    facts = {
        pid: observation.facts[pid]
        for pid in sorted(live & set(observation.facts))
    }

    # Exactly-once by count: a set completes only once committed, and
    # no set commits twice, nudges and the sentinel included.
    low, high = cluster.sets_completed, cluster.sets_issued
    violations.extend(
        f"exactly-once: replica {pid} committed {replica.committed} "
        f"commands; the client completed {low} and issued {high} sets"
        for pid, replica in facts.items()
        if not low <= replica.committed <= high
    )

    # A correct run refuses no transfer suffix: only a corrupted one is.
    if plan.benign:
        violations.extend(
            f"integrity: replica {pid} refused {replica.suffix_rejections} "
            "transfer suffix(es) in a run with only benign faults"
            for pid, replica in facts.items()
            if replica.suffix_rejections
        )

    # Clean shutdown: every replica the plan left running exits 0.
    dead = plan.killed_pids - plan.rejoining_pids
    violations.extend(
        f"shutdown: replica {pid} exited {code}"
        for pid, code in sorted(cluster.exit_codes.items())
        if pid not in dead and code != 0
    )

    if not cluster.sentinel_read:
        violations.append(
            "read-back: the sentinel written after the workload did not "
            "read back by quorum"
        )
    return violations


# -- the adversary zoo's oracles ---------------------------------------------
#
# judge_zoo extends judge for plans carrying zoo clauses. Each family's
# oracle checks three things in the same vocabulary as the flip oracle:
# the adversary actually *ran* (injection counters), the right Figure-1
# module *caught* it (detection), and no other module got *blamed* for it
# (attribution). Family (b) additionally computes the self-stabilization
# verdict — recovered / stuck / diverged — and stores it in
# observation.zoo["reconvergence"] so it lands in the report.
#
# The runners populate observation.zoo with the raw facts (see observe):
#
#     suppressed                deliveries removed by the message adversary
#     corruptions_injected      live-state scribbles performed
#     checkpoint_mismatches     certified-quorum digest mismatches observed
#     timing_delays             messages the timing attacker burst-shaped
#     wrongful_suspicions       muteness suspicions of processes that spoke
#     storage_flips_injected    at-rest flips served to catching-up peers
#     storage_rejections        corrupted transfer state rejected by the
#                               requesting side (signature + certification)
#
# Detection counters are asserted at the deterministic fidelities; at the
# net fidelity, response ordering can mask a rejection (an already-covered
# slot is skipped unverified), so there only injection and the base
# progress/convergence oracles are required — mirroring the fidelity-3
# fallback the flip oracle already uses.

#: Self-stabilization verdicts of the re-convergence oracle.
RECOVERED = "recovered"
STUCK = "stuck"
DIVERGED = "diverged"


def _innocent_convictions(
    plan: FaultPlan, observation: FidelityObservation
) -> list[tuple[int, int, str]]:
    """Declarations by correct observers against *correct* processes.

    Flip senders are excluded — the flip oracle owns their attribution
    story (they are corrupted on the wire, not by the zoo).
    """
    guilty = plan.faulty_pids | plan.flip_pids
    return sorted(
        {
            (observer, target, classify_fault_reason(reason).value)
            for observer, target, reason in observation.declared
            if target not in guilty
        }
    )


def reconvergence_verdict(
    plan: FaultPlan, observation: FidelityObservation, live: frozenset[int]
) -> str:
    """The self-stabilization verdict for a transient-corruption plan.

    ``diverged`` — the live correct replicas did not end on one digest
    (the corruption leaked into the replicated state); ``stuck`` — the
    digests agree but progress stalled below the plan's floor;
    ``recovered`` — the system returned to a legal state within the
    settle horizon.
    """
    digests = {
        observation.digests[pid] for pid in live if pid in observation.digests
    }
    if len(digests) != 1 or any(
        pid not in observation.digests for pid in live
    ):
        return DIVERGED
    floor = plan.progress_floor
    if observation.completed < plan.requests or any(
        observation.committed.get(pid, 0) < floor for pid in live
    ):
        return STUCK
    return RECOVERED


def judge_zoo(
    plan: FaultPlan, observation: FidelityObservation, live: frozenset[int]
) -> list[str]:
    """Apply every applicable family oracle; return the violations."""
    violations: list[str] = []
    zoo = observation.zoo
    deterministic = observation.fidelity != FIDELITY_NET

    # Family (a): the message adversary. Pure omission — it must run,
    # and no module may convict a correct process over missing traffic.
    if plan.suppressions:
        if zoo.get("suppressed", 0) < 1:
            violations.append(
                "injection: the plan schedules a message adversary but no "
                "delivery was suppressed"
            )
        convicted = _innocent_convictions(plan, observation)
        if convicted:
            violations.append(
                "attribution: pure omission convicted correct process(es): "
                f"{convicted}"
            )

    # Family (b): transient state corruption + the re-convergence oracle.
    if plan.corruptions:
        if zoo.get("corruptions_injected", 0) < 1:
            violations.append(
                "injection: the plan schedules state corruption but none "
                "was injected"
            )
        if (
            deterministic
            and any(target == "store" for _p, _a, target in plan.corruptions)
            and zoo.get("checkpoint_mismatches", 0) < 1
        ):
            violations.append(
                "detection: store corruption never surfaced as a certified "
                "checkpoint-digest mismatch (certification module)"
            )
        verdict = reconvergence_verdict(plan, observation, live)
        zoo["reconvergence"] = verdict
        if verdict != RECOVERED:
            violations.append(
                f"reconvergence: transient corruption left the system "
                f"{verdict} (self-stabilization oracle)"
            )

    # Family (c): the timing attack. The adaptive estimator may suspect
    # wrongfully (that is the attack working) but the blame must never
    # escape the muteness module as a declaration against a correct peer.
    if plan.timing:
        if zoo.get("timing_delays", 0) < 1:
            violations.append(
                "injection: the plan schedules a timing attack but no "
                "message was burst-shaped"
            )
        elif deterministic and zoo.get("wrongful_suspicions", 0) < 1:
            violations.append(
                "engagement: the timing attack never drove the muteness "
                "estimator into a wrongful suspicion"
            )
        escaped = _innocent_convictions(plan, observation)
        if escaped:
            violations.append(
                "attribution: timing-attack blame escaped the muteness "
                f"module as declaration(s): {escaped}"
            )

    # Family (d): at-rest storage flips, caught by the requesting side.
    if plan.storage_flips:
        if zoo.get("storage_flips_injected", 0) < 1:
            violations.append(
                "injection: the plan schedules storage flips but no served "
                "state was corrupted (did any peer transfer?)"
            )
        elif deterministic and zoo.get("storage_rejections", 0) < 1:
            violations.append(
                "detection: corrupted at-rest state was never rejected by "
                "the signature/certification re-checks"
            )

    return violations
