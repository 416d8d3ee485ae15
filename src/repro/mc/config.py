"""Configuration of one bounded model-checking run.

An :class:`McConfig` pins everything an exploration depends on — system
size, the adversary seat and its action alphabet, the depth/state bounds,
the search strategy and an optional injected mutation — so that two runs
with equal configs produce byte-identical artifacts. The config
round-trips through plain JSON exactly like a campaign
:class:`~repro.campaign.scenario.Scenario` does.

Scope bounds of ``repro.mc`` v1 (see docs/MODELCHECK.md):

* the system is the paper's smallest interesting instance, ``n = 4``,
  ``F = 1``;
* at most one adversary seat, whose behaviour is chosen by the explorer
  from a small *action alphabet* instead of being a fixed attack script;
* self-channel deliveries are applied eagerly (a process always hears
  itself first), which removes the four self-channels from the
  interleaving space without hiding any cross-process race;
* exploration is bounded by depth, by visited-state count and by the
  protocol round number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.observability.export import content_id

#: The bounded adversary-action alphabet (docs/MODELCHECK.md):
#:
#: * ``mute`` — stop sending anything from the moment of activation;
#: * ``equivocate-current`` — as round-1 coordinator, certify two
#:   different vectors and send one branch to each half of the system;
#: * ``forge-attempt`` — broadcast a message with forged signature bytes
#:   (a real attempt against the unforgeable-signature assumption);
#: * ``drop-delivery`` — withhold the oldest in-flight message on one
#:   outgoing channel (selective sending);
#: * ``suppress-d`` — the zoo's message adversary (docs/ADVERSARIES.md):
#:   withhold an in-flight CURRENT delivery, at most ``suppress_d`` per
#:   protocol round. Unlike ``drop-delivery`` it is round-bounded and
#:   phase-scoped, matching the ``(F, d)`` campaign axis.
ADVERSARY_ACTIONS = (
    "mute",
    "equivocate-current",
    "forge-attempt",
    "drop-delivery",
    "suppress-d",
)

#: Frontier disciplines: breadth-first layers (exhaustive up to the
#: depth bound) or depth-first dives (bug hunting).
STRATEGIES = ("bfs", "dfs")

#: The one system size v1 explores (the paper's n = 3F + 1 with F = 1).
MC_N = 4
MC_F = 1


@dataclass(frozen=True, slots=True)
class McConfig:
    """A point in the model checker's configuration space (immutable)."""

    n: int = MC_N
    f: int = MC_F
    #: The Byzantine seat the explorer controls (None: all-correct runs).
    adversary: int | None = None
    #: Subset of :data:`ADVERSARY_ACTIONS` the explorer may schedule.
    alphabet: tuple[str, ...] = ()
    #: Maximum path length (transitions from the initial state).
    max_depth: int = 6
    #: Maximum number of distinct state digests to visit.
    max_states: int = 20_000
    strategy: str = "bfs"
    #: Name of an injected known-bad mutation (``repro.mc.mutations``),
    #: or None for the real protocol.
    mutation: str | None = None
    seed: int = 0
    #: States whose correct processes passed this round are not expanded.
    max_rounds: int = 2
    #: Stop at the first violated predicate (bug hunting) instead of
    #: exploring the whole bounded space.
    stop_on_violation: bool = False
    #: Per-round budget of the ``suppress-d`` action (ignored unless the
    #: alphabet contains it).
    suppress_d: int = 1

    # -- identity -----------------------------------------------------------

    @property
    def config_id(self) -> str:
        """Stable content hash of the full config (``mc`` + 12 hex chars)."""
        return content_id("mc", self.to_config())

    # -- config round-trip ---------------------------------------------------

    def to_config(self) -> dict[str, Any]:
        """Plain-JSON rendering; :meth:`from_config` inverts it exactly."""
        return {
            "n": self.n,
            "f": self.f,
            "adversary": self.adversary,
            "alphabet": list(self.alphabet),
            "max_depth": self.max_depth,
            "max_states": self.max_states,
            "strategy": self.strategy,
            "mutation": self.mutation,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "stop_on_violation": self.stop_on_violation,
            "suppress_d": self.suppress_d,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "McConfig":
        """Rebuild a config from :meth:`to_config` output."""
        try:
            return cls(
                n=int(config.get("n", MC_N)),
                f=int(config.get("f", MC_F)),
                adversary=(
                    None
                    if config.get("adversary") is None
                    else int(config["adversary"])
                ),
                alphabet=tuple(str(a) for a in (config.get("alphabet") or ())),
                max_depth=int(config.get("max_depth", 6)),
                max_states=int(config.get("max_states", 20_000)),
                strategy=str(config.get("strategy", "bfs")),
                mutation=(
                    None
                    if config.get("mutation") is None
                    else str(config["mutation"])
                ),
                seed=int(config.get("seed", 0)),
                max_rounds=int(config.get("max_rounds", 2)),
                stop_on_violation=bool(config.get("stop_on_violation", False)),
                suppress_d=int(config.get("suppress_d", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed mc config: {exc}") from exc

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistency.

        The exhaustive pre-flight check behind the CLI's exit-2
        convention: a config that validates explores without tracebacks.
        """
        from repro.mc.mutations import MUTATIONS

        if self.n != MC_N or self.f != MC_F:
            raise ConfigurationError(
                f"repro.mc v1 explores exactly n={MC_N}, F={MC_F} "
                f"(got n={self.n}, F={self.f}); see docs/MODELCHECK.md"
            )
        for action in self.alphabet:
            if action not in ADVERSARY_ACTIONS:
                raise ConfigurationError(
                    f"unknown adversary action {action!r}; known: "
                    f"{list(ADVERSARY_ACTIONS)}"
                )
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ConfigurationError("duplicate adversary action in alphabet")
        if self.alphabet and self.adversary is None:
            raise ConfigurationError(
                "an adversary action alphabet needs an adversary seat"
            )
        if self.adversary is not None and not 0 <= self.adversary < self.n:
            raise ConfigurationError(
                f"adversary seat {self.adversary} out of range for n={self.n}"
            )
        if self.adversary is not None and not self.alphabet:
            raise ConfigurationError(
                "an adversary seat without an action alphabet is inert; "
                "drop the seat or give it actions"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; known: {list(STRATEGIES)}"
            )
        if self.max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be positive, got {self.max_depth}"
            )
        if self.max_states < 1:
            raise ConfigurationError(
                f"max_states must be positive, got {self.max_states}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be positive, got {self.max_rounds}"
            )
        if not 1 <= self.suppress_d < self.n:
            raise ConfigurationError(
                f"suppress_d must be in 1..{self.n - 1}, got {self.suppress_d}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"negative seed {self.seed}")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ConfigurationError(
                f"unknown mutation {self.mutation!r}; known: "
                f"{sorted(MUTATIONS)}"
            )
