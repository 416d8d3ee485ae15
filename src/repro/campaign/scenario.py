"""One campaign scenario: a fully-specified, replayable world.

A :class:`Scenario` pins *everything* a run depends on — protocol,
system size, fault assignment (Byzantine attacks from the taxonomy
catalogues, collusion, crash schedule), delay model and seed — so that
building and running it twice produces identical traces. The config
round-trips through plain JSON (:meth:`Scenario.to_config` /
:meth:`Scenario.from_config`) and hashes to a stable :attr:`scenario id
<Scenario.scenario_id>`, which is what ``repro campaign replay <id>``
resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.byzantine.adversary import (
    CRASH_ATTACKS,
    TRANSFORMED_ATTACKS,
    crash_attack,
    transformed_attack,
)
from repro.byzantine.collusion import make_colluding_equivocators
from repro.byzantine.ct_attacks import CT_ATTACKS, ct_attack
from repro.core.specs import SystemParameters, crash_resilience
from repro.errors import ConfigurationError
from repro.observability.export import content_id
from repro.sim.network import DELAY_MODELS, DelayModel, LinkModel, Partition
from repro.sim.world import TRANSPORTS
from repro.systems import ConsensusSystem, build_crash_system, build_transformed_system

#: Crash-model protocols run the Figure-2 (or CT) protocol unprotected;
#: transformed protocols run the five-module Figure-3 structure.
CRASH_PROTOCOLS = ("hurfin-raynal", "chandra-toueg")
TRANSFORMED_PROTOCOLS = ("transformed", "transformed-ct")
ALL_PROTOCOLS = CRASH_PROTOCOLS + TRANSFORMED_PROTOCOLS

#: The one coordinated (multi-process, shared-brain) attack available.
COLLUSION_AMPLIFIED_EQUIVOCATION = "amplified-equivocation"

#: Muteness-detector choices a transformed scenario may pin.
MUTENESS_DETECTORS = ("oracle", "timeout", "round-aware", "adaptive")


@dataclass(frozen=True, slots=True)
class Scenario:
    """A point in the campaign's scenario space (immutable, hashable)."""

    protocol: str
    n: int
    seed: int = 0
    #: Byzantine fault assignment: sorted ``(pid, attack-name)`` pairs
    #: drawn from the catalogue matching ``protocol``.
    attacks: tuple[tuple[int, str], ...] = ()
    #: Crash schedule: sorted ``(pid, virtual-time)`` pairs.
    crashes: tuple[tuple[int, float], ...] = ()
    #: Coordinated multi-process attack (transformed protocol, F >= 2).
    collusion: str | None = None
    delay_model: str = "uniform"
    delay_params: tuple[tuple[str, float], ...] = ()
    variant: str = "standard"
    max_time: float = 3_000.0
    #: Per-link drop probability (``loss=p`` fault axis).
    loss: float = 0.0
    #: Per-link duplication probability (``dup`` fault axis).
    dup: float = 0.0
    #: Per-link burst-reorder probability.
    reorder: float = 0.0
    #: Scripted partition windows: sorted ``(start, heal, groups)`` with
    #: groups as a ``"0,1|2,3"`` spec (``partition(window, groups)`` axis).
    partitions: tuple[tuple[float, float, str], ...] = ()
    #: ``"none"`` | ``"reliable"`` | ``"no-retransmit"``.
    transport: str = "none"
    #: ◇M implementation for transformed protocols (ignored otherwise).
    muteness: str = "oracle"

    # -- identity -----------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        """Stable content hash of the full config (``s`` + 12 hex chars)."""
        return content_id("s", self.to_config())

    # -- config round-trip ---------------------------------------------------

    def to_config(self) -> dict[str, Any]:
        """Plain-JSON rendering; :meth:`from_config` inverts it exactly."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "seed": self.seed,
            "attacks": {str(pid): name for pid, name in self.attacks},
            "crashes": {str(pid): time for pid, time in self.crashes},
            "collusion": self.collusion,
            "delay_model": self.delay_model,
            "delay_params": {key: value for key, value in self.delay_params},
            "variant": self.variant,
            "max_time": self.max_time,
            "loss": self.loss,
            "dup": self.dup,
            "reorder": self.reorder,
            "partitions": [
                [start, heal, groups] for start, heal, groups in self.partitions
            ],
            "transport": self.transport,
            "muteness": self.muteness,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_config` output."""
        try:
            return cls(
                protocol=config["protocol"],
                n=int(config["n"]),
                seed=int(config["seed"]),
                attacks=tuple(
                    sorted(
                        (int(pid), str(name))
                        for pid, name in dict(config.get("attacks") or {}).items()
                    )
                ),
                crashes=tuple(
                    sorted(
                        (int(pid), float(time))
                        for pid, time in dict(config.get("crashes") or {}).items()
                    )
                ),
                collusion=config.get("collusion"),
                delay_model=config.get("delay_model", "uniform"),
                delay_params=tuple(
                    sorted(
                        (str(key), float(value))
                        for key, value in dict(
                            config.get("delay_params") or {}
                        ).items()
                    )
                ),
                variant=config.get("variant", "standard"),
                max_time=float(config.get("max_time", 3_000.0)),
                loss=float(config.get("loss", 0.0)),
                dup=float(config.get("dup", 0.0)),
                reorder=float(config.get("reorder", 0.0)),
                partitions=tuple(
                    sorted(
                        (float(start), float(heal), str(groups))
                        for start, heal, groups in (config.get("partitions") or ())
                    )
                ),
                transport=config.get("transport", "none"),
                muteness=config.get("muteness", "oracle"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed scenario config: {exc}") from exc

    # -- derived views -------------------------------------------------------

    @property
    def is_transformed(self) -> bool:
        return self.protocol in TRANSFORMED_PROTOCOLS

    @property
    def faulty_pids(self) -> frozenset[int]:
        """Every pid the scenario makes non-correct (ground truth)."""
        pids = {pid for pid, _ in self.attacks} | {pid for pid, _ in self.crashes}
        if self.collusion is not None:
            pids |= {0, self.n - 1}
        return frozenset(pids)

    def attack_names(self) -> dict[int, str]:
        return dict(self.attacks)

    def crash_times(self) -> dict[int, float]:
        return dict(self.crashes)

    def without_fault(self, pid: int) -> "Scenario":
        """A copy with every fault of ``pid`` removed (shrinking step)."""
        return replace(
            self,
            attacks=tuple(a for a in self.attacks if a[0] != pid),
            crashes=tuple(c for c in self.crashes if c[0] != pid),
            collusion=None if self.collusion and pid in (0, self.n - 1) else self.collusion,
        )

    @property
    def has_link_faults(self) -> bool:
        return bool(
            self.loss or self.dup or self.reorder or self.partitions
        )

    def without_link_faults(self) -> "Scenario":
        """A copy on pristine wire (link-fault shrinking step)."""
        return replace(
            self, loss=0.0, dup=0.0, reorder=0.0, partitions=(), transport="none"
        )

    def build_link_model(self) -> LinkModel | None:
        """The :class:`LinkModel` this scenario installs (None if pristine)."""
        if not self.has_link_faults:
            return None
        return LinkModel(
            loss=self.loss,
            duplication=self.dup,
            reorder=self.reorder,
            partitions=tuple(
                Partition.parse(start, heal, groups, self.n)
                for start, heal, groups in self.partitions
            ),
            seed=self.seed,
        )

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistency.

        This is the exhaustive pre-flight check behind the CLI's exit-2
        convention: a scenario that validates builds and runs without
        tracebacks.
        """
        if self.protocol not in ALL_PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; known: {sorted(ALL_PROTOCOLS)}"
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.max_time <= 0:
            raise ConfigurationError(
                f"max_time must be positive, got {self.max_time}"
            )
        catalog = self._attack_catalog()
        for pid, name in self.attacks:
            if not 0 <= pid < self.n:
                raise ConfigurationError(
                    f"attack pid {pid} out of range for n={self.n}"
                )
            if name not in catalog:
                raise ConfigurationError(
                    f"unknown attack {name!r} for protocol {self.protocol!r}; "
                    f"known: {sorted(catalog)}"
                )
        seen_attack_pids = [pid for pid, _ in self.attacks]
        if len(seen_attack_pids) != len(set(seen_attack_pids)):
            raise ConfigurationError("duplicate attack pid in scenario")
        for pid, time in self.crashes:
            if not 0 <= pid < self.n:
                raise ConfigurationError(
                    f"crash pid {pid} out of range for n={self.n}"
                )
            if time < 0:
                raise ConfigurationError(f"negative crash time {time!r}")
        overlap = {p for p, _ in self.attacks} & {p for p, _ in self.crashes}
        if overlap:
            raise ConfigurationError(
                f"processes {sorted(overlap)} are both crashed and Byzantine"
            )
        if self.collusion is not None:
            if self.collusion != COLLUSION_AMPLIFIED_EQUIVOCATION:
                raise ConfigurationError(
                    f"unknown collusion {self.collusion!r}; known: "
                    f"[{COLLUSION_AMPLIFIED_EQUIVOCATION!r}]"
                )
            if self.protocol != "transformed":
                raise ConfigurationError(
                    "collusion is only defined for the transformed protocol"
                )
            seats = {0, self.n - 1}
            other_faults = {p for p, _ in self.attacks} | {p for p, _ in self.crashes}
            if seats & other_faults:
                raise ConfigurationError(
                    "collusion seats (0 and n-1) cannot carry other faults"
                )
        if self.delay_model not in DELAY_MODELS:
            raise ConfigurationError(
                f"unknown delay model {self.delay_model!r}; known: "
                f"{sorted(DELAY_MODELS)}"
            )
        known_params = DELAY_MODELS[self.delay_model][1]
        for key, _ in self.delay_params:
            if key not in known_params:
                raise ConfigurationError(
                    f"delay model {self.delay_model!r} has no parameter "
                    f"{key!r}; known: {sorted(known_params)}"
                )
        if self.variant not in ("standard", "echo-init"):
            raise ConfigurationError(f"unknown protocol variant {self.variant!r}")
        if self.variant != "standard" and self.protocol != "transformed":
            raise ConfigurationError(
                "variants are only defined for the transformed protocol"
            )
        self._validate_link_faults()
        self._validate_fault_budget()

    def _validate_link_faults(self) -> None:
        for axis, value in (
            ("loss", self.loss),
            ("dup", self.dup),
            ("reorder", self.reorder),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{axis} probability must be in [0, 1), got {value!r}"
                )
        for start, heal, groups in self.partitions:
            Partition.parse(start, heal, groups, self.n)
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; known: {list(TRANSPORTS)}"
            )
        if self.muteness not in MUTENESS_DETECTORS:
            raise ConfigurationError(
                f"unknown muteness detector {self.muteness!r}; known: "
                f"{list(MUTENESS_DETECTORS)}"
            )
        if self.muteness != "oracle" and self.protocol not in TRANSFORMED_PROTOCOLS:
            raise ConfigurationError(
                "muteness detectors are only defined for transformed protocols"
            )

    def _validate_fault_budget(self) -> None:
        faulty = self.faulty_pids
        if self.is_transformed:
            params = SystemParameters.for_n(self.n)  # raises for tiny n
            if self.collusion is not None and params.f < 2:
                raise ConfigurationError(
                    f"collusion needs F >= 2, but n={self.n} gives F={params.f}"
                )
            if len(faulty) > params.f:
                raise ConfigurationError(
                    f"{len(faulty)} faults exceed F={params.f} for n={self.n}"
                )
        else:
            if self.n < 2:
                raise ConfigurationError(
                    f"crash-model consensus needs n >= 2, got n={self.n}"
                )
            if self.attacks and self.protocol != "hurfin-raynal":
                raise ConfigurationError(
                    "crash-model attacks target the hurfin-raynal protocol "
                    "(the Figure-2 victim); use crashes for chandra-toueg"
                )
            if len(faulty) > crash_resilience(self.n):
                raise ConfigurationError(
                    f"{len(faulty)} faults exceed the crash-model majority "
                    f"bound floor((n-1)/2) = {crash_resilience(self.n)} "
                    f"for n={self.n}"
                )

    def _attack_catalog(self) -> Mapping[str, type]:
        if self.protocol in CRASH_PROTOCOLS:
            return CRASH_ATTACKS
        if self.protocol == "transformed":
            return TRANSFORMED_ATTACKS
        return CT_ATTACKS

    # -- construction --------------------------------------------------------

    def build_delay_model(self) -> DelayModel:
        factory, defaults = DELAY_MODELS[self.delay_model]
        params = dict(defaults)
        params.update({key: value for key, value in self.delay_params})
        return factory(**params)


def build_scenario_system(scenario: Scenario) -> ConsensusSystem:
    """Validate ``scenario`` and build its (not yet run) world."""
    scenario.validate()
    proposals = [f"v{i}" for i in range(scenario.n)]
    delay_model = scenario.build_delay_model()
    link = scenario.build_link_model()
    if not scenario.is_transformed:
        byzantine: dict[int, Any] = {}
        for pid, name in scenario.attacks:
            byzantine.update(crash_attack(pid, name))
        return build_crash_system(
            proposals,
            crash_at=scenario.crash_times(),
            byzantine=byzantine,
            protocol=scenario.protocol,
            seed=scenario.seed,
            delay_model=delay_model,
            link=link,
            transport=scenario.transport,
        )
    attack_maker = transformed_attack if scenario.protocol == "transformed" else ct_attack
    byzantine = {}
    for pid, name in scenario.attacks:
        byzantine.update(attack_maker(pid, name))
    if scenario.collusion is not None:
        byzantine.update(make_colluding_equivocators(scenario.n))
    return build_transformed_system(
        proposals,
        byzantine=byzantine,
        crash_at=scenario.crash_times(),
        seed=scenario.seed,
        delay_model=delay_model,
        variant=scenario.variant,
        base="hurfin-raynal" if scenario.protocol == "transformed" else "chandra-toueg",
        muteness=scenario.muteness,
        link=link,
        transport=scenario.transport,
    )
