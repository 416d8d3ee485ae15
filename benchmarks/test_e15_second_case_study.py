"""E15 (genericity) — the methodology applied to a second protocol.

The paper's title says "towards a *modular approach*": the contribution
is the transformation recipe, not the one transformed protocol. This
experiment substantiates the claim by running the same evaluation over
two independent applications of the recipe — transformed Hurfin–Raynal
(Figure 3) and transformed Chandra–Toueg
(:mod:`repro.consensus.transformed_ct`) — under equivalent fault
scenarios, and comparing their guarantees and costs.
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attack
from repro.byzantine.ct_attacks import ct_attack
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import proposals, run_once

N = 4
SEEDS = range(20)

#: Equivalent fault scenarios for the two transformed protocols.
SCENARIOS = [
    ("failure-free", None, None),
    ("crashed coordinator", "crash", "crash"),
    ("mute attacker", ("mute", 3), ("ct-mute", 3)),
    ("corrupt values (coord seat)", ("corrupt-vector", 0), ("ct-corrupt-estimate", 3)),
    ("forged decision", ("forged-decide", 3), ("ct-premature-decide", 3)),
]


def build(base: str, spec, seed: int):
    kwargs = dict(base=base, seed=seed, delay_model=UniformDelay(0.1, 2.0))
    if spec == "crash":
        kwargs["crash_at"] = {0: 0.0}
    elif spec is not None:
        name, seat = spec
        maker = transformed_attack if base == "hurfin-raynal" else ct_attack
        kwargs["byzantine"] = maker(seat, name)
    return build_transformed_system(proposals(N), **kwargs)


def run_experiment():
    rows = []
    for label, hr_spec, ct_spec in SCENARIOS:
        for base, spec in (("hurfin-raynal", hr_spec), ("chandra-toueg", ct_spec)):
            summary = run_trials(
                builder=lambda seed, b=base, s=spec: build(b, s, seed),
                checker=check_vector_consensus,
                seeds=SEEDS,
                max_time=2_000.0,
            )
            rows.append(
                [
                    label,
                    base,
                    percent(summary.all_hold_rate),
                    summary.mean_rounds,
                    summary.mean_messages,
                    summary.mean_decision_time,
                ]
            )
    return rows


def test_e15_methodology_genericity(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E15 - the recipe applied twice: transformed HR vs transformed CT "
        f"(n={N}, F=1, {len(SEEDS)} seeds/row)",
        ["scenario", "base protocol", "all hold", "rounds", "msgs", "latency"],
        rows,
    )
    # Shape: both transformed protocols keep every property in every
    # scenario — the methodology, not the particular protocol, carries
    # the guarantee.
    for row in rows:
        assert row[2] == "100%", row
    # Shape: CT's extra phase costs messages/latency in the happy path.
    hr_free = next(r for r in rows if r[0] == "failure-free" and r[1] == "hurfin-raynal")
    ct_free = next(r for r in rows if r[0] == "failure-free" and r[1] == "chandra-toueg")
    assert ct_free[4] > hr_free[4]
