"""System builders: one call from proposals to a runnable world.

These are the highest-level entry points of the library — used by the
examples, the test suite and every benchmark:

* :func:`build_crash_system` — the Hurfin–Raynal (or Chandra–Toueg)
  protocol in the crash model with a ◇S detector suite;
* :func:`build_transformed_system` — the transformed (Figure 3) protocol
  with the full five-module structure, optionally with some processes
  replaced by Byzantine behaviours from :mod:`repro.byzantine`.

Both return a :class:`ConsensusSystem` whose :meth:`ConsensusSystem.run`
drives the world and returns a summary the analysis layer understands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.consensus.base import ConsensusProcess
from repro.consensus.chandra_toueg import ChandraTouegProcess
from repro.consensus.hurfin_raynal import HurfinRaynalProcess
from repro.consensus.transformed import TransformedConsensusProcess
from repro.core.certificates import CertificationAuthority
from repro.core.modules import ModuleConfig
from repro.core.specs import SystemParameters
from repro.core.transformer import TransformationBlueprint
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.detectors.base import FailureDetector
from repro.detectors.diamond_m import (
    AdaptiveMutenessDetector,
    MutenessDetector,
    RoundAwareMutenessDetector,
)
from repro.detectors.heartbeat import HeartbeatDetector
from repro.detectors.oracles import OracleDetector
from repro.errors import ConfigurationError
from repro.process import LinkPolicy
from repro.sim.network import DelayModel, UniformDelay
from repro.sim.scheduler import RunResult
from repro.sim.world import World

#: Builds one Byzantine process. Receives (pid, proposal, params,
#: authority, detector, config) and returns the process to install.
ByzantineFactory = Callable[
    [int, Any, SystemParameters, CertificationAuthority, FailureDetector,
     ModuleConfig],
    ConsensusProcess,
]

#: Builds one crash-model Byzantine process (no certificates/signatures).
CrashByzantineFactory = Callable[[int, Any, FailureDetector], ConsensusProcess]

#: Poll period of the ground-truth detectors (and the heartbeat period).
FD_POLL_INTERVAL = 1.0


@dataclass(slots=True)
class ConsensusSystem:
    """A runnable consensus instance plus everything needed to inspect it."""

    world: World
    processes: list[ConsensusProcess]
    byzantine_pids: frozenset[int] = frozenset()
    crashed_pids: frozenset[int] = frozenset()
    params: SystemParameters | None = None
    result: RunResult | None = None

    @property
    def n(self) -> int:
        return len(self.processes)

    @property
    def correct_pids(self) -> frozenset[int]:
        """Processes that are neither Byzantine nor scheduled to crash."""
        return frozenset(range(self.n)) - self.byzantine_pids - self.crashed_pids

    def run(
        self,
        max_events: int = 1_000_000,
        max_time: float = 10_000.0,
    ) -> RunResult:
        """Run to quiescence or a budget; budgets bound non-terminating runs."""
        self.result = self.world.run(max_events=max_events, max_time=max_time)
        return self.result

    def decisions(self) -> dict[int, Any]:
        """Decisions of the correct processes (only those that decided)."""
        return {
            p.pid: p.decision
            for p in self.processes
            if p.pid in self.correct_pids and p.decided
        }

    def all_correct_decided(self) -> bool:
        return all(
            self.processes[pid].decided for pid in sorted(self.correct_pids)
        )


# -- crash-model systems ----------------------------------------------------------


def build_crash_system(
    proposals: Sequence[Any],
    crash_at: Mapping[int, float] | None = None,
    byzantine: Mapping[int, CrashByzantineFactory] | None = None,
    protocol: str = "hurfin-raynal",
    seed: int = 0,
    delay_model: DelayModel | None = None,
    fd_accuracy_time: float = 0.0,
    fd_noise_rate: float = 0.0,
    suspicion_poll: float = 0.5,
    fifo: bool = True,
    fd: str = "oracle",
    link: LinkPolicy | None = None,
    transport: str = "none",
) -> ConsensusSystem:
    """A crash-model consensus system with a ◇S detector suite.

    Args:
        proposals: one proposal per process; ``len(proposals)`` is ``n``.
        crash_at: pid -> virtual crash time (crash-model faults).
        byzantine: pid -> factory for an arbitrary-faulty process; used by
            experiment E2 to attack the crash protocol.
        protocol: ``"hurfin-raynal"`` (Figure 2) or ``"chandra-toueg"``.
        fd_accuracy_time / fd_noise_rate: pre-horizon erroneous-suspicion
            behaviour of the ◇S oracles.
        fd: ``"oracle"`` — ◇S enforced from ground truth — or
            ``"heartbeat"`` — the honest adaptive-timeout implementation
            (converges into ◇P ⊆ ◇S under eventually-bounded delays).
        link: optional link policy on the wire, e.g. a
            :class:`~repro.sim.network.LinkModel` (loss, duplication,
            reordering, partitions).
        transport: ``"none"`` (raw fabric), ``"reliable"`` (seq/ack/
            retransmit layer restoring the channel assumptions) or
            ``"no-retransmit"`` (the ablation; see
            :class:`~repro.sim.transport.ReliableTransport`).
    """
    crash_at = dict(crash_at or {})
    byzantine = dict(byzantine or {})
    n = len(proposals)
    overlap = set(crash_at) & set(byzantine)
    if overlap:
        raise ConfigurationError(
            f"processes {sorted(overlap)} are both crashed and Byzantine"
        )
    factories = {
        "hurfin-raynal": HurfinRaynalProcess,
        "chandra-toueg": ChandraTouegProcess,
    }
    if protocol not in factories:
        raise ConfigurationError(f"unknown crash protocol {protocol!r}")
    trusted = _pick_trusted(n, set(crash_at) | set(byzantine))
    # The detectors need the world (crash ground truth) and the world needs
    # the processes, so the oracles start with a vacuous status source that
    # is rebound to the world right after construction.
    if fd not in ("oracle", "heartbeat"):
        raise ConfigurationError(f"unknown crash detector {fd!r}")
    world_processes: list[ConsensusProcess] = []
    detectors: list[FailureDetector] = []
    for pid, proposal in enumerate(proposals):
        if fd == "heartbeat":
            detector: FailureDetector = HeartbeatDetector(
                period=FD_POLL_INTERVAL,
                initial_timeout=4.0 * FD_POLL_INTERVAL,
            )
        else:
            detector = OracleDetector(
                status=lambda target: False,  # bound to the world below
                trusted=trusted,
                poll_interval=FD_POLL_INTERVAL,
                accuracy_time=fd_accuracy_time,
                noise_rate=fd_noise_rate,
            )
        detectors.append(detector)
        if pid in byzantine:
            process = byzantine[pid](pid, proposal, detector)
        else:
            process = factories[protocol](
                proposal, detector, suspicion_poll=suspicion_poll
            )
        world_processes.append(process)
    world = World(
        world_processes,
        seed=seed,
        delay_model=delay_model or UniformDelay(),
        fifo=fifo,
        link=link,
        transport=transport,
    )
    for detector in detectors:
        if isinstance(detector, OracleDetector):
            detector._status = world.is_crashed  # bind ground truth
    for pid, process in enumerate(world_processes):
        if process.detector is not None and not process.detector.attached:
            process.detector.attach(process.env)
    for pid, time in crash_at.items():
        world.crash_at(pid, time)
    return ConsensusSystem(
        world=world,
        processes=world_processes,
        byzantine_pids=frozenset(byzantine),
        crashed_pids=frozenset(crash_at),
    )


# -- transformed (arbitrary-fault) systems ---------------------------------------------


def build_transformed_system(
    proposals: Sequence[Any],
    byzantine: Mapping[int, ByzantineFactory] | None = None,
    crash_at: Mapping[int, float] | None = None,
    f: int | None = None,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    config: ModuleConfig | None = None,
    muteness: str = "oracle",
    muteness_timeout: float = 8.0,
    suspicion_poll: float = 0.5,
    allow_excess_faults: bool = False,
    variant: str = "standard",
    base: str = "hurfin-raynal",
    link: LinkPolicy | None = None,
    transport: str = "none",
) -> ConsensusSystem:
    """The transformed (Figure 3) protocol with the five-module structure.

    Args:
        proposals: one proposal per process.
        byzantine: pid -> Byzantine process factory (the attack gallery of
            :mod:`repro.byzantine.behaviors` provides these).
        crash_at: pid -> crash time; a crash is one arbitrary fault
            (muteness), so crashed pids count against ``f`` too.
        f: assumed maximum number of faulty processes ``F``; defaults to
            the paper's bound ``min(floor((n-1)/2), floor((n-1)/3))``.
        config: module ablation switches (experiment E8).
        muteness: ``"oracle"`` — ◇M enforced from ground truth —
            ``"timeout"`` — the honest Doudou-style implementation —
            ``"round-aware"`` — timeout scaled by round number — or
            ``"adaptive"`` — Jacobson-style timeouts learned from each
            peer's observed message cadence (the right choice over lossy
            links; see :class:`AdaptiveMutenessDetector`).
        variant: ``"standard"`` (Figure 3 as published) or ``"echo-init"``
            (INIT phase over reliable broadcast; see
            :mod:`repro.consensus.echo_init`).
        base: which crash protocol the transformation was applied to —
            ``"hurfin-raynal"`` (the paper's case study, Figure 3) or
            ``"chandra-toueg"`` (the second case study,
            :mod:`repro.consensus.transformed_ct`).
        link / transport: the wire's link policy and the reliable-
            channel layer above it; see :func:`build_crash_system`.
    """
    byzantine = dict(byzantine or {})
    crash_at = dict(crash_at or {})
    n = len(proposals)
    params = SystemParameters.for_n(n, f=f)
    module_config = config if config is not None else ModuleConfig.full()
    faulty_ground_truth = frozenset(byzantine) | frozenset(crash_at)
    if len(faulty_ground_truth) > params.f and not allow_excess_faults:
        raise ConfigurationError(
            f"{len(faulty_ground_truth)} actual faults exceed F={params.f}; "
            "pass allow_excess_faults=True to study beyond-bound behaviour "
            "(experiment E6)"
        )
    trusted = _pick_trusted(n, set(faulty_ground_truth))
    key_authority = KeyAuthority(n, seed=seed)
    scheme = SignatureScheme(key_authority)
    detectors: list[FailureDetector] = []

    def muteness_factory(pid: int) -> FailureDetector:
        if muteness == "timeout":
            detector: FailureDetector = MutenessDetector(
                initial_timeout=muteness_timeout
            )
        elif muteness == "round-aware":
            detector = RoundAwareMutenessDetector(
                initial_timeout=muteness_timeout
            )
        elif muteness == "adaptive":
            detector = AdaptiveMutenessDetector(
                initial_timeout=muteness_timeout
            )
        elif muteness == "oracle":
            detector = OracleDetector(
                status=lambda target: target in faulty_ground_truth,
                trusted=trusted,
                poll_interval=FD_POLL_INTERVAL,
            )
        else:
            raise ConfigurationError(f"unknown muteness detector {muteness!r}")
        detectors.append(detector)
        return detector

    if base == "chandra-toueg":
        from repro.consensus.transformed_ct import TransformedCtProcess

        if variant != "standard":
            raise ConfigurationError(
                "variants are only defined for the hurfin-raynal base"
            )
        process_class: type[ConsensusProcess] = TransformedCtProcess
    elif base != "hurfin-raynal":
        raise ConfigurationError(f"unknown base protocol {base!r}")
    elif variant == "standard":
        process_class = TransformedConsensusProcess
    elif variant == "echo-init":
        from repro.consensus.echo_init import EchoInitConsensusProcess

        process_class = EchoInitConsensusProcess
    else:
        raise ConfigurationError(f"unknown protocol variant {variant!r}")

    def protocol_factory(pid, proposal, authority, detector, cfg):
        if pid in byzantine:
            return byzantine[pid](pid, proposal, params, authority, detector, cfg)
        return process_class(
            proposal=proposal,
            params=params,
            authority=authority,
            detector=detector,
            suspicion_poll=suspicion_poll,
            config=cfg,
        )

    blueprint = TransformationBlueprint(
        params=params,
        scheme=scheme,
        key_authority=key_authority,
        muteness_factory=muteness_factory,
        protocol_factory=protocol_factory,
        config=module_config,
    )
    processes = blueprint.build_all(list(proposals))
    world = World(
        processes,
        seed=seed,
        delay_model=delay_model or UniformDelay(),
        link=link,
        transport=transport,
    )
    for pid, time in crash_at.items():
        world.crash_at(pid, time)
    return ConsensusSystem(
        world=world,
        processes=processes,  # type: ignore[arg-type]
        byzantine_pids=frozenset(byzantine),
        crashed_pids=frozenset(crash_at),
        params=params,
    )


def _pick_trusted(n: int, faulty: set[int]) -> int:
    """A correct process to serve as the eventual-weak-accuracy witness."""
    for pid in range(n):
        if pid not in faulty:
            return pid
    raise ConfigurationError("no correct process left to trust")
