"""Fault plans: one scenario schema for every fidelity (docs/FAULTS.md).

A :class:`FaultPlan` describes *what goes wrong* in a run — muteness,
collusion, per-link loss/duplication/reorder, partition-then-heal
windows, kill/rejoin events, and seeded bit-flips in pre-signature
message fields — in fidelity-neutral terms: event times are **plan
seconds** and pids are replica indices. The same plan (the same JSON
document, the same content-hash id) then executes at three fidelities:

1. pure simulation (``repro.sim.world``, plan seconds scaled to virtual
   time);
2. the deterministic loopback twin (the ``repro.net`` deployment on a
   :class:`~repro.net.clock.VirtualTimeLoop`, plan seconds 1:1);
3. real subprocess clusters over TCP (SIGSTOP/SIGKILL for
   muteness/crash, socket-level injection through each replica's
   :class:`~repro.net.transport.PeerTransport` link policy).

Like every scenario family in this repo, a plan round-trips through
plain JSON and hashes to a stable id (prefix ``f``), so a plan file is a
replayable, content-addressed artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.byzantine.adversary import TRANSFORMED_ATTACKS
from repro.core.specs import SystemParameters
from repro.errors import ConfigurationError
from repro.observability.export import check_schema, content_id
from repro.sim.network import Partition

#: Newest schema tag this code reads and writes.
FAULTS_SCHEMA = "repro.faults/v2"
#: The PR-8 schema: every plan without adversary-zoo clauses is still a
#: valid v1 document, and :meth:`FaultPlan.save` tags it as one so older
#: readers keep working (and v1 artifacts stay byte-identical).
FAULTS_SCHEMA_V1 = "repro.faults/v1"

#: Live-state targets of a ``corruptions`` clause (adversary zoo,
#: docs/ADVERSARIES.md): the replicated store or the muteness detectors.
CORRUPTION_TARGETS = ("store", "detector")
#: At-rest targets of a ``storage_flips`` clause: decided log entries or
#: the certified checkpoint snapshot.
STORAGE_TARGETS = ("log", "checkpoint")

#: Verdict expectations a plan may declare.
EXPECTATIONS = ("pass", "vulnerable")

#: Fidelity names, in increasing realism.
FIDELITY_SIM = "sim"
FIDELITY_LOOPBACK = "loopback"
FIDELITY_NET = "net"
FIDELITIES = (FIDELITY_SIM, FIDELITY_LOOPBACK, FIDELITY_NET)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """One fidelity-neutral fault scenario (immutable, hashable)."""

    name: str = "baseline"
    seed: int = 0
    n_replicas: int = 4
    #: Client commands the workload driver pushes through the cluster.
    requests: int = 24
    #: Active window of the plan, in plan seconds; every event time below
    #: must fall inside ``[0, duration)``. The runners keep settling past
    #: the duration until the oracles' convergence criterion holds.
    duration: float = 10.0
    #: ``(pid, at)`` — from ``at`` on, the replica is mute: it runs but
    #: none of its traffic (in or out) is delivered. At the net fidelity
    #: this is a real ``SIGSTOP``.
    mutes: tuple[tuple[int, float], ...] = ()
    #: ``(pid, at, rejoin_at | None)`` — crash (volatile state lost) at
    #: ``at``; ``rejoin_at`` restarts the replica into certified state
    #: transfer, ``None`` keeps it down. At the net fidelity this is a
    #: real ``SIGKILL`` (+ respawn with ``--join``).
    kills: tuple[tuple[int, float, float | None], ...] = ()
    #: ``(start, heal, groups)`` partition-then-heal windows; ``groups``
    #: is the ``"0,1|2,3"`` syntax of the consensus campaign. Severs
    #: replica-replica links across groups, clients stay connected.
    partitions: tuple[tuple[float, float, str], ...] = ()
    #: Per-link Bernoulli fault probabilities on replica-replica links.
    loss: float = 0.0
    duplication: float = 0.0
    reorder: float = 0.0
    #: Extra delay (plan seconds) a reordered copy may pick up.
    reorder_spread: float = 0.5
    #: ``(src_pid, at, count)`` — from ``at`` on, flip one bit in the
    #: first ``count`` eligible pre-signature message fields ``src_pid``
    #: sends (CURRENT round numbers; docs/FAULTS.md explains why). The
    #: sender is *correct* — this is the non-malicious arbitrary-fault
    #: family — so the signature/certification modules must both catch
    #: the corruption and never let the consensus automaton convict the
    #: victim of a behaviour fault.
    flips: tuple[tuple[int, float, int], ...] = ()
    #: ``(pid, attack-name)`` — Byzantine consensus engines from the
    #: transformed-attack catalogue (the collusion axis).
    collusion: tuple[tuple[int, str], ...] = ()
    #: Verdict the plan expects: ``"pass"`` (faults are tolerated) or
    #: ``"vulnerable"`` (violations are the documented expected outcome).
    expect: str = "pass"
    #: Progress floor for the oracles (0 defaults to ``requests``).
    min_commands: int = 0
    #: Adversary zoo, family (a) — ``(d, round_length, start, end)``
    #: message-adversary windows (Albouy/Frey/Raynal/Taïani). Within
    #: ``[start, end)`` plan time is cut into rounds of ``round_length``
    #: seconds and, per (sender, round), a seeded set of exactly ``d``
    #: destinations silently receives nothing from that sender. The
    #: suppressed processes are *not* process faults: the axis is
    #: independent of F, which is the whole point of the family.
    suppressions: tuple[tuple[int, float, float, float], ...] = ()
    #: Adversary zoo, family (b) — ``(pid, at, target)`` transient state
    #: corruption (Duvignau/Raynal/Schiller): at ``at``, seeded garbage
    #: is written into the live ``target`` (:data:`CORRUPTION_TARGETS`)
    #: of an otherwise *correct* replica, which must then re-converge
    #: (self-stabilization; the re-convergence oracle judges it).
    corruptions: tuple[tuple[int, float, str], ...] = ()
    #: Adversary zoo, family (c) — ``(pid, start, end, gap)`` timing
    #: attack: within the window the Byzantine ``pid`` releases its
    #: outbound traffic only at ``gap``-second burst boundaries, shaping
    #: inter-arrival times to drive adaptive muteness estimators into
    #: wrongful suspicion of correct peers. Counted against F.
    timing: tuple[tuple[int, float, float, float], ...] = ()
    #: Adversary zoo, family (d) — ``(pid, at, target)`` at-rest storage
    #: corruption: from ``at`` on, the state ``pid`` serves out of its
    #: ``target`` storage (:data:`STORAGE_TARGETS`) carries a stuck-bit
    #: flip (the Barbieri et al. hardware model), which the signature +
    #: certification modules on the *requesting* side must catch.
    storage_flips: tuple[tuple[int, float, str], ...] = ()

    # -- identity ------------------------------------------------------------

    @property
    def plan_id(self) -> str:
        return content_id("f", self.to_config())

    # -- config round-trip ---------------------------------------------------

    def to_config(self) -> dict[str, Any]:
        # Zoo keys are emitted only when present: a v1-expressible plan
        # keeps its v1 canonical form, hence its v1 plan_id and report
        # bytes (the compat guarantee of the v2 schema bump).
        config: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "n_replicas": self.n_replicas,
            "requests": self.requests,
            "duration": self.duration,
            "mutes": [[pid, at] for pid, at in self.mutes],
            "kills": [
                [pid, at, rejoin_at] for pid, at, rejoin_at in self.kills
            ],
            "partitions": [
                [start, heal, groups] for start, heal, groups in self.partitions
            ],
            "loss": self.loss,
            "duplication": self.duplication,
            "reorder": self.reorder,
            "reorder_spread": self.reorder_spread,
            "flips": [[pid, at, count] for pid, at, count in self.flips],
            "collusion": {str(pid): name for pid, name in self.collusion},
            "expect": self.expect,
            "min_commands": self.min_commands,
        }
        if self.suppressions:
            config["suppressions"] = [
                [d, round_length, start, end]
                for d, round_length, start, end in self.suppressions
            ]
        if self.corruptions:
            config["corruptions"] = [
                [pid, at, target] for pid, at, target in self.corruptions
            ]
        if self.timing:
            config["timing"] = [
                [pid, start, end, gap] for pid, start, end, gap in self.timing
            ]
        if self.storage_flips:
            config["storage_flips"] = [
                [pid, at, target] for pid, at, target in self.storage_flips
            ]
        return config

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "FaultPlan":
        try:
            return cls(
                name=str(config.get("name", "baseline")),
                seed=int(config.get("seed", 0)),
                n_replicas=int(config.get("n_replicas", 4)),
                requests=int(config.get("requests", 24)),
                duration=float(config.get("duration", 10.0)),
                mutes=tuple(
                    sorted(
                        (int(pid), float(at))
                        for pid, at in (config.get("mutes") or ())
                    )
                ),
                kills=tuple(
                    sorted(
                        (
                            int(pid),
                            float(at),
                            None if rejoin_at is None else float(rejoin_at),
                        )
                        for pid, at, rejoin_at in (config.get("kills") or ())
                    )
                ),
                partitions=tuple(
                    sorted(
                        (float(start), float(heal), str(groups))
                        for start, heal, groups in (
                            config.get("partitions") or ()
                        )
                    )
                ),
                loss=float(config.get("loss", 0.0)),
                duplication=float(config.get("duplication", 0.0)),
                reorder=float(config.get("reorder", 0.0)),
                reorder_spread=float(config.get("reorder_spread", 0.5)),
                flips=tuple(
                    sorted(
                        (int(pid), float(at), int(count))
                        for pid, at, count in (config.get("flips") or ())
                    )
                ),
                collusion=tuple(
                    sorted(
                        (int(pid), str(name))
                        for pid, name in dict(
                            config.get("collusion") or {}
                        ).items()
                    )
                ),
                expect=str(config.get("expect", "pass")),
                min_commands=int(config.get("min_commands", 0)),
                suppressions=tuple(
                    sorted(
                        (int(d), float(rl), float(start), float(end))
                        for d, rl, start, end in (
                            config.get("suppressions") or ()
                        )
                    )
                ),
                corruptions=tuple(
                    sorted(
                        (int(pid), float(at), str(target))
                        for pid, at, target in (config.get("corruptions") or ())
                    )
                ),
                timing=tuple(
                    sorted(
                        (int(pid), float(start), float(end), float(gap))
                        for pid, start, end, gap in (config.get("timing") or ())
                    )
                ),
                storage_flips=tuple(
                    sorted(
                        (int(pid), float(at), str(target))
                        for pid, at, target in (
                            config.get("storage_flips") or ()
                        )
                    )
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed fault plan config: {exc}"
            ) from exc

    # -- derived -------------------------------------------------------------

    def params(self) -> SystemParameters:
        return SystemParameters.for_n(self.n_replicas)

    @property
    def muted_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _ in self.mutes)

    @property
    def killed_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _, _ in self.kills)

    @property
    def rejoining_pids(self) -> frozenset[int]:
        return frozenset(
            pid for pid, _, rejoin_at in self.kills if rejoin_at is not None
        )

    @property
    def colluding_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _ in self.collusion)

    @property
    def flip_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _, _ in self.flips)

    @property
    def corrupted_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _, _ in self.corruptions)

    @property
    def timing_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _, _, _ in self.timing)

    @property
    def storage_flip_pids(self) -> frozenset[int]:
        return frozenset(pid for pid, _, _ in self.storage_flips)

    @property
    def faulty_pids(self) -> frozenset[int]:
        """Process faults counted against F. Flips, suppressions,
        corruptions and storage flips are deliberately *not* in this
        set: they strike correct processes (link corruption, message
        adversary, transient/at-rest state faults). A timing attacker
        *is* Byzantine — it chooses its send times — so it counts."""
        return (
            self.muted_pids
            | self.killed_pids
            | self.colluding_pids
            | self.timing_pids
        )

    @property
    def has_zoo(self) -> bool:
        """True when any adversary-zoo clause is present (v2-only plan)."""
        return bool(
            self.suppressions
            or self.corruptions
            or self.timing
            or self.storage_flips
        )

    @property
    def benign(self) -> bool:
        """Only mutes, kills, partitions and link noise: no fault here
        corrupts a message or a state, so a correct run refuses none."""
        return not (self.flips or self.collusion or self.has_zoo)

    @property
    def schema_tag(self) -> str:
        """The lowest schema version able to express this plan."""
        return FAULTS_SCHEMA if self.has_zoo else FAULTS_SCHEMA_V1

    @property
    def has_link_noise(self) -> bool:
        """Link faults that legitimately create stream gaps at correct
        receivers (the flip-attribution oracle stands down under them;
        a message adversary qualifies — it is pure omission)."""
        return bool(
            self.loss
            or self.duplication
            or self.reorder
            or self.partitions
            or self.suppressions
        )

    @property
    def progress_floor(self) -> int:
        return self.min_commands if self.min_commands else self.requests

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistency."""
        params = self.params()  # raises outside the resilience arithmetic
        if not self.name:
            raise ConfigurationError("fault plan name must be non-empty")
        if self.requests < 1:
            raise ConfigurationError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.expect not in EXPECTATIONS:
            raise ConfigurationError(
                f"unknown expectation {self.expect!r}; known: "
                f"{list(EXPECTATIONS)}"
            )
        if self.min_commands < 0:
            raise ConfigurationError(
                f"min_commands must be >= 0, got {self.min_commands}"
            )
        for label, probability in (
            ("loss", self.loss),
            ("duplication", self.duplication),
            ("reorder", self.reorder),
        ):
            if not 0.0 <= probability < 1.0:
                raise ConfigurationError(
                    f"{label} probability must be in [0, 1), "
                    f"got {probability!r}"
                )
        if self.reorder_spread <= 0:
            raise ConfigurationError(
                f"reorder_spread must be positive, got {self.reorder_spread!r}"
            )
        for pid, at in self.mutes:
            self._check_pid(pid, "mute")
            self._check_time(at, f"mute of replica {pid}")
        for pid, at, rejoin_at in self.kills:
            self._check_pid(pid, "kill")
            self._check_time(at, f"kill of replica {pid}")
            if rejoin_at is not None:
                self._check_time(rejoin_at, f"rejoin of replica {pid}")
                if rejoin_at <= at:
                    raise ConfigurationError(
                        f"replica {pid} rejoins at {rejoin_at!r}, before "
                        f"its kill at {at!r}"
                    )
        for start, heal, groups in self.partitions:
            Partition.parse(start, heal, groups, self.n_replicas)
            self._check_time(start, "partition start")
            if heal > self.duration:
                raise ConfigurationError(
                    f"partition heals at {heal!r}, past the plan duration "
                    f"{self.duration!r} — it would never heal"
                )
        for pid, at, count in self.flips:
            self._check_pid(pid, "flip")
            self._check_time(at, f"flips of replica {pid}")
            if count < 1:
                raise ConfigurationError(
                    f"flip count of replica {pid} must be >= 1, got {count}"
                )
        for pid, name in self.collusion:
            self._check_pid(pid, "collusion")
            if name not in TRANSFORMED_ATTACKS:
                raise ConfigurationError(
                    f"unknown attack {name!r}; known: "
                    f"{sorted(TRANSFORMED_ATTACKS)}"
                )
        for d, round_length, start, end in self.suppressions:
            if not 1 <= d < self.n_replicas:
                raise ConfigurationError(
                    f"suppression bound d={d} must be in [1, "
                    f"{self.n_replicas - 1}] (destinations per broadcast)"
                )
            if round_length <= 0:
                raise ConfigurationError(
                    f"suppression round_length must be positive, "
                    f"got {round_length!r}"
                )
            self._check_time(start, "suppression window start")
            if not start < end <= self.duration:
                raise ConfigurationError(
                    f"suppression window [{start!r}, {end!r}) must satisfy "
                    f"start < end <= duration ({self.duration!r})"
                )
        for pid, at, target in self.corruptions:
            self._check_pid(pid, "corruption")
            self._check_time(at, f"corruption of replica {pid}")
            if target not in CORRUPTION_TARGETS:
                raise ConfigurationError(
                    f"unknown corruption target {target!r}; known: "
                    f"{list(CORRUPTION_TARGETS)}"
                )
        for pid, start, end, gap in self.timing:
            self._check_pid(pid, "timing attack")
            self._check_time(start, f"timing attack of replica {pid}")
            if not start < end <= self.duration:
                raise ConfigurationError(
                    f"timing window [{start!r}, {end!r}) of replica {pid} "
                    f"must satisfy start < end <= duration "
                    f"({self.duration!r})"
                )
            if gap <= 0:
                raise ConfigurationError(
                    f"timing gap of replica {pid} must be positive, "
                    f"got {gap!r}"
                )
        for pid, at, target in self.storage_flips:
            self._check_pid(pid, "storage flip")
            self._check_time(at, f"storage flip of replica {pid}")
            if target not in STORAGE_TARGETS:
                raise ConfigurationError(
                    f"unknown storage-flip target {target!r}; known: "
                    f"{list(STORAGE_TARGETS)}"
                )
        for label, pids in (
            ("mute", [pid for pid, _ in self.mutes]),
            ("kill", [pid for pid, _, _ in self.kills]),
            ("flip", [pid for pid, _, _ in self.flips]),
            ("collusion", [pid for pid, _ in self.collusion]),
            ("corruption", [pid for pid, _, _ in self.corruptions]),
            ("timing", [pid for pid, _, _, _ in self.timing]),
            ("storage flip", [pid for pid, _, _ in self.storage_flips]),
        ):
            if len(pids) != len(set(pids)):
                raise ConfigurationError(f"duplicate {label} pid in the plan")
        overlapping = [
            pair
            for pair in (
                ("mute", "kill", self.muted_pids & self.killed_pids),
                ("mute", "collusion", self.muted_pids & self.colluding_pids),
                ("kill", "collusion", self.killed_pids & self.colluding_pids),
                ("flip", "fault", self.flip_pids & self.faulty_pids),
                (
                    "corruption",
                    "fault",
                    self.corrupted_pids & self.faulty_pids,
                ),
                (
                    "storage flip",
                    "fault",
                    self.storage_flip_pids & self.faulty_pids,
                ),
                ("mute", "timing", self.muted_pids & self.timing_pids),
                ("kill", "timing", self.killed_pids & self.timing_pids),
                (
                    "collusion",
                    "timing",
                    self.colluding_pids & self.timing_pids,
                ),
            )
            if pair[2]
        ]
        if overlapping:
            a, b, pids = overlapping[0]
            raise ConfigurationError(
                f"replica(s) {sorted(pids)} appear in both the {a} and "
                f"the {b} plan"
            )
        # Timing attackers are *performance* faults: they send correct,
        # signed protocol messages, only late. They count as Byzantine for
        # the oracles (their suspicions are earned) but not against the
        # resilience budget F — the interesting timing regime is exactly
        # the one where a full crash/mute budget makes the slow replica
        # quorum-critical.
        budget = self.faulty_pids - self.timing_pids
        if len(budget) > params.f:
            raise ConfigurationError(
                f"{len(budget)} faulty replicas exceed F="
                f"{params.f} for n={self.n_replicas}"
            )

    def _check_pid(self, pid: int, what: str) -> None:
        if not 0 <= pid < self.n_replicas:
            raise ConfigurationError(
                f"{what} pid {pid} out of range for "
                f"n_replicas={self.n_replicas}"
            )

    def _check_time(self, at: float, what: str) -> None:
        if not 0 <= at < self.duration:
            raise ConfigurationError(
                f"{what} at {at!r} outside the plan window "
                f"[0, {self.duration!r})"
            )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the plan as a schema-tagged JSON document."""
        self.validate()
        target = Path(path)
        document = {"schema": self.schema_tag, "config": self.to_config()}
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan: {exc}") from exc
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ConfigurationError("fault plan must be a JSON object")
        schema = str(document.get("schema", ""))
        check_faults_schema(schema)
        plan = cls.from_config(document.get("config") or {})
        plan.validate()
        return plan


def check_faults_schema(schema: str) -> None:
    """Reject documents from a newer schema than this code understands."""
    check_schema(schema, "repro.faults", 2)
