"""E6 — the resilience bound F <= min(⌊(n-1)/2⌋, C).

Sweep the *actual* number of Byzantine processes f across the paper's
bound (with n = 7, C = F = 2): inside the bound every property holds in
every run; pushing f past the bound (while the protocol still assumes
F = 2) makes the guarantees crumble — the cliff the bound predicts.

Beyond-bound systems keep the claimed deployment (F = 2 quorums) and are
simply handed more attacker seats than it tolerates
(``allow_excess_faults=True``).
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attacks_at
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import proposals, run_once

N = 7
BOUND = 2  # min(floor(6/2), floor(6/3)) = 2
SEEDS = range(15)

#: Attacks assigned to successive seats as f grows. Mute attackers are
#: the strongest *beyond-bound* liveness threat (they starve quorums).
ATTACK_SEQUENCE = ["corrupt-vector", "mute", "mute"]


def run_experiment():
    rows = []
    for actual_f in range(0, BOUND + 2):
        attackers = {
            N - 1 - i: ATTACK_SEQUENCE[i] for i in range(actual_f)
        }
        summary = run_trials(
            builder=lambda seed, a=attackers: build_transformed_system(
                proposals(N),
                byzantine=transformed_attacks_at(a),
                f=BOUND,
                seed=seed,
                delay_model=UniformDelay(0.1, 2.0),
                allow_excess_faults=True,
            ),
            checker=check_vector_consensus,
            seeds=SEEDS,
            max_events=150_000,
            max_time=400.0,
        )
        rows.append(
            [
                actual_f,
                "inside" if actual_f <= BOUND else "BEYOND",
                percent(summary.termination_rate),
                percent(summary.agreement_rate),
                percent(summary.validity_rate),
                percent(summary.all_hold_rate),
            ]
        )
    return rows


def test_e6_resilience_cliff_at_the_bound(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E6 - sweeping actual faults across the bound "
        f"(n={N}, claimed F={BOUND}, {len(SEEDS)} seeds/row)",
        ["actual f", "regime", "term", "agree", "valid", "all hold"],
        rows,
    )
    # Shape: perfect inside the bound.
    for row in rows[: BOUND + 1]:
        assert row[5] == "100%", row
    # Shape: a cliff right past it.
    assert rows[BOUND + 1][5] != "100%", rows[BOUND + 1]
