"""E17 (coordinated adversary) — amplified equivocation by F colluders.

The single-attacker galleries (E3/E4) model independent faults; this
experiment gives the adversary its full power — F = 2 coordinated
corruptions with shared state — and runs the strongest attack that power
enables: a coordinator that certifies two different vectors plus an
accomplice that amplifies whichever branch each victim lacks.

The quorum arithmetic (two same-vector (n−F)-quorums would need more
once-relaying correct processes than exist) defeats the attack; the
table quantifies it: zero safety violations, both colluders convicted by
every correct process, at the cost of ~one extra round.
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attacks_at
from repro.byzantine.collusion import make_colluding_equivocators
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import proposals, run_once

N = 7
SEEDS = range(20)


def run_cell(label, byzantine_factory):
    summary = run_trials(
        builder=lambda seed: build_transformed_system(
            proposals(N),
            byzantine=byzantine_factory(),  # fresh shared brain per trial
            seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        ),
        checker=check_vector_consensus,
        seeds=SEEDS,
        max_time=2_000.0,
    )
    return [
        label,
        percent(summary.all_hold_rate),
        percent(summary.detection_by_all_rate),
        percent(summary.false_positive_rate),
        summary.mean_rounds,
        summary.mean_messages,
    ]


def run_experiment():
    return [
        run_cell("no faults", dict),
        run_cell(
            "2 independent attackers",
            lambda: transformed_attacks_at(
                {0: "equivocate-current", 6: "corrupt-vector"}
            ),
        ),
        run_cell(
            "2 colluding equivocators",
            lambda: make_colluding_equivocators(N),
        ),
    ]


def test_e17_collusion_is_contained(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E17 - coordinated adversary at full power (n={N}, F=2, "
        f"{len(SEEDS)} seeds/row)",
        ["adversary", "all hold", "all convicted", "false pos.", "rounds", "msgs"],
        rows,
    )
    for row in rows:
        assert row[1] == "100%", row
        assert row[3] == "0%", row
    # Shape: the colluding pair is always fully convicted (both branches
    # demonstrably cross at every correct process via the amplifier).
    assert rows[2][2] == "100%"
    # Shape: collusion costs rounds relative to the fault-free baseline.
    assert rows[2][4] > rows[0][4]
