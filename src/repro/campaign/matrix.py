"""Deterministic enumeration of the campaign scenario space.

A :class:`CampaignSpec` describes *which slice* of the space to sweep —
protocols, system sizes, seeds per configuration, whether to include
crash schedules, collusion and the delay-model rotation — and
:func:`enumerate_scenarios` expands it into a reproducible list of
:class:`~repro.campaign.scenario.Scenario` objects. The expansion is a
pure function of the spec and the master seed: no wall clock, no global
randomness, so two runs of the same spec enumerate byte-identical
campaigns.

Attack seats rotate deterministically through the non-coordinator and
coordinator positions, and the delay model rotates per scenario index,
so the matrix exercises every attack both on and off the round-1
coordinator seat and under all three delay families without blowing up
the cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.byzantine.adversary import CRASH_ATTACKS, TRANSFORMED_ATTACKS
from repro.byzantine.ct_attacks import CT_ATTACKS
from repro.campaign.scenario import (
    COLLUSION_AMPLIFIED_EQUIVOCATION,
    Scenario,
)
from repro.core.specs import SystemParameters, crash_resilience
from repro.errors import ConfigurationError

#: The delay-model rotation applied across scenario indices.
_DELAY_ROTATION = ("uniform", "fixed", "exponential")


@dataclass(frozen=True, slots=True)
class CampaignSpec:
    """One campaign's slice of the scenario space."""

    name: str = "full"
    crash_sizes: tuple[int, ...] = (4, 5)
    transformed_sizes: tuple[int, ...] = (4,)
    #: Seeds swept per (protocol, n, fault-plan) configuration.
    seeds_per_config: int = 3
    #: Include pure-crash schedules (muteness through the substrate).
    include_crashes: bool = True
    #: Include the coordinated amplified-equivocation pair (needs F >= 2).
    include_collusion: bool = True
    #: Include n=7 transformed scenarios combining an attack with a crash.
    include_combined: bool = True
    #: Include the pristine-wire matrix (attacks, crashes, collusion).
    include_baseline: bool = True
    #: Link-fault families to sweep: ``"lossy"`` and/or ``"partition"``.
    link_faults: tuple[str, ...] = ()
    max_time: float = 3_000.0

    def seeds(self, master_seed: int) -> tuple[int, ...]:
        """The per-config seed sweep derived from the master seed.

        Seeds are an affine, collision-free function of the master seed
        so that campaigns with different master seeds share no worlds,
        while one master seed always yields the same sweep.
        """
        return tuple(
            (master_seed * 100_003 + k) % 2**31
            for k in range(self.seeds_per_config)
        )


#: Named presets the CLI exposes.
PRESETS: dict[str, CampaignSpec] = {
    "smoke": CampaignSpec(
        name="smoke",
        crash_sizes=(4, 5),
        transformed_sizes=(4,),
        seeds_per_config=1,
    ),
    "full": CampaignSpec(name="full", seeds_per_config=4),
    # Link-fault matrices (the robustness axes): transformed consensus on
    # a faulty wire behind the reliable transport with adaptive ◇M.
    "lossy": CampaignSpec(
        name="lossy",
        crash_sizes=(),
        transformed_sizes=(4,),
        seeds_per_config=2,
        include_crashes=False,
        include_collusion=False,
        include_combined=False,
        include_baseline=False,
        link_faults=("lossy",),
    ),
    "partition": CampaignSpec(
        name="partition",
        crash_sizes=(),
        transformed_sizes=(4,),
        seeds_per_config=2,
        include_crashes=False,
        include_collusion=False,
        include_combined=False,
        include_baseline=False,
        link_faults=("partition",),
    ),
}


def campaign_spec(preset: str) -> CampaignSpec:
    try:
        return PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign preset {preset!r}; known: {sorted(PRESETS)}"
        ) from None


def enumerate_scenarios(
    spec: CampaignSpec, master_seed: int = 0
) -> list[Scenario]:
    """Expand ``spec`` into its deterministic scenario list."""
    scenarios = list(_generate(spec, master_seed))
    for index, scenario in enumerate(scenarios):
        scenario.validate()
        del index
    ids = [scenario.scenario_id for scenario in scenarios]
    if len(ids) != len(set(ids)):  # pragma: no cover - spec bug guard
        raise ConfigurationError("campaign enumerated duplicate scenarios")
    return scenarios


def _generate(spec: CampaignSpec, master_seed: int) -> Iterator[Scenario]:
    seeds = spec.seeds(master_seed)
    counter = 0

    def emit(**kwargs) -> Iterator[Scenario]:
        """One scenario per seed, rotating the delay model per config."""
        nonlocal counter
        delay = _DELAY_ROTATION[counter % len(_DELAY_ROTATION)]
        counter += 1
        for seed in seeds:
            yield Scenario(
                seed=seed, delay_model=delay, max_time=spec.max_time, **kwargs
            )

    if spec.include_baseline:
        yield from _baseline(spec, emit)
    for family in spec.link_faults:
        yield from _link_matrix(spec, family, emit)


def _baseline(spec: CampaignSpec, emit) -> Iterator[Scenario]:
    """The pristine-wire matrix: attacks, crashes, collusion, variants."""
    # -- crash-model protocols: the Figure-2 victims ------------------------
    for n in spec.crash_sizes:
        for protocol in ("hurfin-raynal", "chandra-toueg"):
            yield from emit(protocol=protocol, n=n)
            if spec.include_crashes:
                for count in range(1, crash_resilience(n) + 1):
                    crashes = tuple(
                        (pid, 1.0 + 2.0 * pid) for pid in range(count)
                    )
                    yield from emit(protocol=protocol, n=n, crashes=crashes)
        # Byzantine attacks against the unprotected crash protocol: the
        # runs the paper's Section-4 motivation is built on.
        for index, name in enumerate(sorted(CRASH_ATTACKS)):
            seat = index % n
            yield from emit(
                protocol="hurfin-raynal", n=n, attacks=((seat, name),)
            )

    # -- transformed protocols: the Figure-1/Figure-3 structure -------------
    for n in spec.transformed_sizes:
        for protocol, catalog in (
            ("transformed", TRANSFORMED_ATTACKS),
            ("transformed-ct", CT_ATTACKS),
        ):
            yield from emit(protocol=protocol, n=n)
            if spec.include_crashes:
                yield from emit(protocol=protocol, n=n, crashes=((0, 2.0),))
            for index, name in enumerate(sorted(catalog)):
                # Rotate the attacker through the coordinator seat (0)
                # and the last seat; both sides of every round-1 quorum.
                seat = 0 if index % 2 == 0 else n - 1
                yield from emit(
                    protocol=protocol, n=n, attacks=((seat, name),)
                )

    # -- echo-init variant: INIT over reliable broadcast --------------------
    for index, name in enumerate(("equivocate-init", "corrupt-vector")):
        seat = 0 if index % 2 == 0 else min(spec.transformed_sizes) - 1
        yield from emit(
            protocol="transformed",
            n=min(spec.transformed_sizes),
            attacks=((seat, name),),
            variant="echo-init",
        )

    # -- F >= 2 worlds: collusion and combined fault plans ------------------
    if spec.include_collusion:
        yield from emit(
            protocol="transformed",
            n=7,
            collusion=COLLUSION_AMPLIFIED_EQUIVOCATION,
        )
    if spec.include_combined:
        params7 = SystemParameters.for_n(7)
        assert params7.f >= 2
        for name in ("corrupt-vector", "mute", "impersonation"):
            yield from emit(
                protocol="transformed",
                n=7,
                attacks=((3, name),),
                crashes=((6, 4.0),),
            )
        yield from emit(
            protocol="transformed",
            n=7,
            attacks=((1, "equivocate-current"), (5, "premature-decide")),
        )


#: The loss threshold the presets certify (see docs/NETWORK.md): every
#: lossy-preset scenario at or below this per-link drop probability must
#: reach consensus behind the reliable transport.
LOSS_THRESHOLD = 0.2

#: One partition-then-heal window for the n=4 partition matrix.
_PARTITION_WINDOW = (40.0, 120.0, "0,1|2,3")


def _link_matrix(
    spec: CampaignSpec, family: str, emit
) -> Iterator[Scenario]:
    """Link-fault scenarios: faulty wire + reliable transport + adaptive ◇M.

    Every scenario here is expected to *pass* its oracles — the presets
    certify that consensus survives the documented fault envelope. The
    no-retransmit ablation (which demonstrably fails) lives in the test
    suite, not in the presets.
    """
    n = min(spec.transformed_sizes)
    common = dict(
        protocol="transformed",
        n=n,
        transport="reliable",
        muteness="adaptive",
    )
    if family == "lossy":
        # Sweep loss up to the documented threshold, plain and combined
        # with duplication/reordering and with a Byzantine attacker (the
        # attribution oracle must keep blaming the right module).
        for loss in (0.05, 0.1, LOSS_THRESHOLD):
            yield from emit(loss=loss, **common)
        yield from emit(loss=0.1, dup=0.1, reorder=0.05, **common)
        yield from emit(loss=0.1, attacks=((n - 1, "mute"),), **common)
        yield from emit(
            loss=0.1, attacks=((0, "equivocate-current"),), **common
        )
    elif family == "partition":
        # One partition-then-heal window, alone and combined with loss,
        # duplication and a Byzantine attacker outside the minority side.
        yield from emit(partitions=(_PARTITION_WINDOW,), **common)
        yield from emit(
            partitions=(_PARTITION_WINDOW,), loss=0.1, dup=0.05, **common
        )
        yield from emit(
            partitions=(_PARTITION_WINDOW,),
            loss=0.1,
            attacks=((n - 1, "mute"),),
            **common,
        )
    else:  # pragma: no cover - spec bug guard
        raise ConfigurationError(f"unknown link-fault family {family!r}")
