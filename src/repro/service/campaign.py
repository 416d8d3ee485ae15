"""Service campaign: replayable scenarios and the service oracles.

A :class:`ServiceScenario` pins one full service deployment — workload,
batching/pipelining knobs, checkpoint cadence, Byzantine assignment,
link faults and recovery plan — exactly like
:class:`~repro.campaign.scenario.Scenario` pins one consensus run: the
config round-trips through plain JSON, hashes to a stable scenario id,
and two runs of the same scenario produce identical records.

The service oracle catalogue judges a finished run on:

* **convergence** — at every checkpoint count, all correct replicas that
  attested it computed the same digest (the linearizable-store claim at
  checkpoint granularity), and no replica observed a certified digest
  conflicting with its own;
* **certificate validity** — every stable checkpoint certificate held by
  a correct replica re-verifies (f+1 valid, matching, distinct-signer
  votes);
* **exactly-once** — every request a client saw completed is executed at
  some correct replica (replies never precede commits);
* **progress** — the run commits at least ``min_commands`` client
  commands across at least ``min_checkpoints`` certified checkpoints;
* **recovery** — every replica in the recovery plan completed state
  transfer and committed new slots past the installed snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.byzantine import TRANSFORMED_ATTACKS, transformed_attack
from repro.campaign.scenario import DELAY_MODELS
from repro.errors import ConfigurationError
from repro.observability.export import content_id
from repro.service.checkpoint import certificate_valid
from repro.service.config import CLIENT_MODES, ServiceConfig
from repro.service.runtime import ServiceSystem, build_service_system
from repro.sim.world import TRANSPORTS
from repro.sim.network import LinkModel

#: Verdicts, matching the consensus campaign vocabulary.
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"


@dataclass(frozen=True, slots=True)
class ServiceScenario:
    """A point in the service campaign's scenario space."""

    name: str = "baseline"
    n_replicas: int = 4
    n_clients: int = 2
    mode: str = "open"
    rate: float = 2.0
    think: float = 1.0
    requests_per_client: int = 25
    batch_size: int = 4
    batch_delay: float = 1.0
    window: int = 2
    checkpoint_interval: int = 2
    request_timeout: float = 40.0
    seed: int = 0
    #: Byzantine fault assignment, sorted ``(pid, attack-name)`` pairs
    #: from the transformed-attack catalogue (engine-level attacks).
    attacks: tuple[tuple[int, str], ...] = ()
    #: Recovery plan: sorted ``(pid, down_at, up_at)`` triples.
    recoveries: tuple[tuple[int, float, float], ...] = ()
    loss: float = 0.0
    transport: str = "none"
    delay_model: str = "uniform"
    max_time: float = 2_500.0
    #: Progress thresholds the oracles enforce.
    min_commands: int = 0
    min_checkpoints: int = 0

    # -- identity ------------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        return content_id("v", self.to_config())

    # -- config round-trip ---------------------------------------------------

    def to_config(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "n_replicas": self.n_replicas,
            "n_clients": self.n_clients,
            "mode": self.mode,
            "rate": self.rate,
            "think": self.think,
            "requests_per_client": self.requests_per_client,
            "batch_size": self.batch_size,
            "batch_delay": self.batch_delay,
            "window": self.window,
            "checkpoint_interval": self.checkpoint_interval,
            "request_timeout": self.request_timeout,
            "seed": self.seed,
            "attacks": {str(pid): name for pid, name in self.attacks},
            "recoveries": [
                [pid, down_at, up_at] for pid, down_at, up_at in self.recoveries
            ],
            "loss": self.loss,
            "transport": self.transport,
            "delay_model": self.delay_model,
            "max_time": self.max_time,
            "min_commands": self.min_commands,
            "min_checkpoints": self.min_checkpoints,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "ServiceScenario":
        try:
            return cls(
                name=str(config.get("name", "baseline")),
                n_replicas=int(config["n_replicas"]),
                n_clients=int(config["n_clients"]),
                mode=str(config.get("mode", "open")),
                rate=float(config.get("rate", 2.0)),
                think=float(config.get("think", 1.0)),
                requests_per_client=int(config["requests_per_client"]),
                batch_size=int(config.get("batch_size", 4)),
                batch_delay=float(config.get("batch_delay", 1.0)),
                window=int(config.get("window", 2)),
                checkpoint_interval=int(config.get("checkpoint_interval", 2)),
                request_timeout=float(config.get("request_timeout", 40.0)),
                seed=int(config.get("seed", 0)),
                attacks=tuple(
                    sorted(
                        (int(pid), str(name))
                        for pid, name in dict(config.get("attacks") or {}).items()
                    )
                ),
                recoveries=tuple(
                    sorted(
                        (int(pid), float(down_at), float(up_at))
                        for pid, down_at, up_at in (config.get("recoveries") or ())
                    )
                ),
                loss=float(config.get("loss", 0.0)),
                transport=str(config.get("transport", "none")),
                delay_model=str(config.get("delay_model", "uniform")),
                max_time=float(config.get("max_time", 2_500.0)),
                min_commands=int(config.get("min_commands", 0)),
                min_checkpoints=int(config.get("min_checkpoints", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed service scenario config: {exc}"
            ) from exc

    # -- derived -------------------------------------------------------------

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            n_replicas=self.n_replicas,
            n_clients=self.n_clients,
            mode=self.mode,
            rate=self.rate,
            think=self.think,
            requests_per_client=self.requests_per_client,
            batch_size=self.batch_size,
            batch_delay=self.batch_delay,
            window=self.window,
            checkpoint_interval=self.checkpoint_interval,
            request_timeout=self.request_timeout,
            seed=self.seed,
        )

    @property
    def faulty_pids(self) -> frozenset[int]:
        return frozenset({pid for pid, _ in self.attacks}) | frozenset(
            {pid for pid, _, _ in self.recoveries}
        )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistency."""
        config = self.service_config()
        config.validate()
        if self.mode not in CLIENT_MODES:  # pragma: no cover - config.validate
            raise ConfigurationError(f"unknown client mode {self.mode!r}")
        params = config.params()
        for pid, name in self.attacks:
            if not 0 <= pid < self.n_replicas:
                raise ConfigurationError(
                    f"attack pid {pid} out of range for "
                    f"n_replicas={self.n_replicas}"
                )
            if name not in TRANSFORMED_ATTACKS:
                raise ConfigurationError(
                    f"unknown attack {name!r}; known: "
                    f"{sorted(TRANSFORMED_ATTACKS)}"
                )
        attack_pids = [pid for pid, _ in self.attacks]
        if len(attack_pids) != len(set(attack_pids)):
            raise ConfigurationError("duplicate attack pid in service scenario")
        for pid, down_at, up_at in self.recoveries:
            if not 0 <= pid < self.n_replicas:
                raise ConfigurationError(
                    f"recovery pid {pid} out of range for "
                    f"n_replicas={self.n_replicas}"
                )
            if down_at < 0 or up_at <= down_at:
                raise ConfigurationError(
                    f"recovery window [{down_at!r}, {up_at!r}) must satisfy "
                    "0 <= down < up"
                )
        if set(attack_pids) & {pid for pid, _, _ in self.recoveries}:
            raise ConfigurationError(
                "a replica cannot be both Byzantine and recovering"
            )
        if len(self.faulty_pids) > params.f:
            raise ConfigurationError(
                f"{len(self.faulty_pids)} faulty replicas exceed F={params.f} "
                f"for n={self.n_replicas}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {self.loss!r}"
            )
        if self.loss and self.transport == "none":
            raise ConfigurationError(
                "a lossy service scenario needs a reliable transport "
                "(transport='reliable'); the service assumes reliable channels"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; known: "
                f"{list(TRANSPORTS)}"
            )
        if self.delay_model not in DELAY_MODELS:
            raise ConfigurationError(
                f"unknown delay model {self.delay_model!r}; known: "
                f"{sorted(DELAY_MODELS)}"
            )
        if self.max_time <= 0:
            raise ConfigurationError(
                f"max_time must be positive, got {self.max_time}"
            )

    # -- construction --------------------------------------------------------

    def build(self) -> ServiceSystem:
        """Validate and build the (not yet run) service world."""
        self.validate()
        byzantine = {}
        for pid, name in self.attacks:
            byzantine.update(transformed_attack(pid, name))
        factory, defaults = DELAY_MODELS[self.delay_model]
        link_model = LinkModel(loss=self.loss) if self.loss else None
        return build_service_system(
            self.service_config(),
            byzantine=byzantine,
            recoveries=self.recoveries,
            delay_model=factory(**defaults),
            link_model=link_model,
            transport=self.transport,
        )


# -- oracles -----------------------------------------------------------------


def evaluate_service_outcome(
    scenario: ServiceScenario, system: ServiceSystem
) -> tuple[str, list[str]]:
    """Run the service oracle catalogue; returns (verdict, violations)."""
    violations: list[str] = []

    # Convergence: one digest per checkpoint count across correct replicas.
    for count, digests in sorted(system.checkpoint_digests().items()):
        if len(digests) != 1:
            violations.append(
                f"convergence: checkpoint {count} has {len(digests)} distinct "
                f"digests across correct replicas"
            )
    for pid in sorted(system.correct_pids):
        if system.replicas[pid].checkpoint_mismatches:
            violations.append(
                f"convergence: replica {pid} observed a certified digest "
                f"conflicting with its own computation"
            )

    # Certificate validity at every correct replica holding one.
    params = scenario.service_config().params()
    for pid in sorted(system.correct_pids):
        replica = system.replicas[pid]
        if replica.stable is not None and not certificate_valid(
            replica.stable, replica._ckpt_authority, params.f
        ):
            violations.append(
                f"certificate: replica {pid}'s stable checkpoint certificate "
                f"does not verify"
            )

    # Exactly-once: a completed request is executed at a correct replica.
    executed_union: set[tuple[int, int]] = set()
    for pid in system.correct_pids:
        executed_union |= system.replicas[pid].slotlog.executed
    for client in system.clients:
        missing = client.completed_idents() - executed_union
        if missing:
            violations.append(
                f"exactly-once: client {client.pid} saw replies for "
                f"{len(missing)} requests no correct replica executed"
            )

    # Progress thresholds.
    committed = system.committed_commands()
    if committed < scenario.min_commands:
        violations.append(
            f"progress: {committed} client commands committed, scenario "
            f"requires >= {scenario.min_commands}"
        )
    certified = system.certified_checkpoints()
    if certified < scenario.min_checkpoints:
        violations.append(
            f"progress: {certified} certified checkpoints, scenario "
            f"requires >= {scenario.min_checkpoints}"
        )

    # Recovery: every planned restart completed a state transfer and
    # committed new slots past the installed snapshot.
    for pid, _down_at, _up_at in scenario.recoveries:
        replica = system.replicas[pid]
        if not replica.state_transfers_completed:
            violations.append(
                f"recovery: replica {pid} never completed state transfer"
            )
            continue
        _when, installed, applied_at_completion = (
            replica.state_transfers_completed[-1]
        )
        if replica.slotlog.next_apply <= installed:
            violations.append(
                f"recovery: replica {pid} committed no slots past its "
                f"installed snapshot (count {installed})"
            )

    verdict = VERDICT_FAIL if violations else VERDICT_PASS
    return verdict, violations


# -- records and presets ------------------------------------------------------


def run_service_scenario(scenario: ServiceScenario) -> dict[str, Any]:
    """Build, run and judge one scenario; the record is JSON-ready and
    byte-identical across runs of the same scenario."""
    system = scenario.build()
    result = system.run(max_time=scenario.max_time)
    verdict, violations = evaluate_service_outcome(scenario, system)
    latencies = system.client_latencies()
    from repro.analysis.stats import percentile

    record: dict[str, Any] = {
        "id": scenario.scenario_id,
        "config": scenario.to_config(),
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
    return record


def service_preset(name: str) -> list[ServiceScenario]:
    """The named scenario lists behind ``repro campaign service``."""
    if name not in SERVICE_PRESETS:
        raise ConfigurationError(
            f"unknown service preset {name!r}; known: {sorted(SERVICE_PRESETS)}"
        )
    return list(SERVICE_PRESETS[name])


#: The smoke preset: one scenario per tentpole feature — baseline
#: open-loop batching/pipelining, closed-loop workload, a Byzantine
#: replica over a lossy wire behind the reliable transport, and a
#: down/restart recovery with state transfer.
SERVICE_PRESETS: dict[str, tuple[ServiceScenario, ...]] = {
    "smoke": (
        ServiceScenario(
            name="open-loop-baseline",
            seed=1,
            n_clients=2,
            requests_per_client=20,
            batch_size=4,
            window=2,
            checkpoint_interval=2,
            min_commands=40,
            min_checkpoints=2,
        ),
        ServiceScenario(
            name="closed-loop",
            seed=2,
            mode="closed",
            think=0.5,
            n_clients=3,
            requests_per_client=12,
            batch_size=2,
            window=2,
            checkpoint_interval=2,
            min_commands=36,
            min_checkpoints=2,
        ),
        ServiceScenario(
            name="byzantine-lossy",
            seed=3,
            n_clients=2,
            requests_per_client=20,
            batch_size=4,
            window=2,
            checkpoint_interval=2,
            attacks=((3, "corrupt-vector"),),
            loss=0.03,
            transport="reliable",
            min_commands=40,
            min_checkpoints=2,
        ),
        ServiceScenario(
            name="recovery",
            seed=4,
            n_clients=2,
            rate=0.4,
            requests_per_client=30,
            batch_size=4,
            window=2,
            checkpoint_interval=2,
            recoveries=((2, 25.0, 60.0),),
            min_commands=60,
            min_checkpoints=3,
        ),
    ),
}
