"""E2 — Section 1 motivation: the crash protocol under arbitrary faults.

"Solutions used in the crash model become inadequate because a malicious
process can exhibit failures more subtle than crashes and these failures
can lead to the violation of the correctness criteria of the algorithm."

One Byzantine process per run attacks the Hurfin–Raynal protocol; the
table reports how often each attack violates safety (Agreement or
Validity). Muteness is the only behaviour the crash protocol tolerates.
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_crash_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import (
    CRASH_ATTACKS,
    crash_attack,
    crash_attack_profile,
)
from repro.sim.network import UniformDelay
from repro.systems import build_crash_system

from conftest import SEEDS, proposals, run_once

N = 5

#: Seat that maximises each attack's leverage (coordinator of round 1
#: where the attack needs it).
SEATS = {
    "value-corruption": 0,
    "equivocation": 0,
    "duplication": 0,
    "spurious-decide": 4,
    "identity-forgery": 4,
    "wrong-round": 4,
    "mute": 4,
}


def run_experiment():
    rows = []
    for name in sorted(CRASH_ATTACKS):
        summary = run_trials(
            builder=lambda seed, a=name: build_crash_system(
                proposals(N),
                byzantine=crash_attack(SEATS[a], a),
                seed=seed,
                delay_model=UniformDelay(0.1, 3.0),
            ),
            checker=check_crash_consensus,
            seeds=SEEDS,
        )
        profile = crash_attack_profile(name)
        rows.append(
            [
                name,
                profile.failure_class.value,
                percent(summary.violation_rate),
                percent(summary.termination_rate),
                percent(summary.agreement_rate),
                percent(summary.validity_rate),
            ]
        )
    return rows


def test_e2_crash_protocol_is_broken_by_byzantine_faults(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E2 - crash-model protocol attacked (n={N}, {len(SEEDS)} seeds/row)",
        ["attack", "failure class", "safety viol.", "term", "agree", "valid"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # Shape: value-level attacks break safety in (essentially) every run.
    assert by_name["spurious-decide"][2] == "100%"
    assert by_name["value-corruption"][2] == "100%"
    # Shape: forged identities and equivocation break safety often.
    assert by_name["identity-forgery"][2] != "0%"
    assert by_name["equivocation"][2] != "0%"
    # Shape: muteness alone is tolerated (it is just a crash).
    assert by_name["mute"][2] == "0%"
    assert by_name["mute"][3] == "100%"
