"""E4 — Figure 4: detection coverage of the non-muteness automata.

For each fault type in the paper's taxonomy, the fraction of runs in
which the culprit is added to ``faulty_i`` by some / by every correct
process, plus the wrongful-declaration (false positive) rate. Pure
muteness must instead appear in the ◇M module's ``suspected`` set — the
paper's modularity claim made measurable.
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import (
    TRANSFORMED_ATTACKS,
    transformed_attack,
    transformed_attack_profile,
)
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import SEEDS, proposals, run_once

N = 4
SEATS = {"equivocate-current": 0, "wrong-cert-current": 0}


def run_experiment():
    rows = []
    for name in sorted(TRANSFORMED_ATTACKS):
        seat = SEATS.get(name, 3)
        profile = transformed_attack_profile(name)
        summary = run_trials(
            builder=lambda seed, a=name, s=seat: build_transformed_system(
                proposals(N),
                byzantine=transformed_attack(s, a),
                seed=seed,
                delay_model=UniformDelay(0.1, 2.5),
            ),
            checker=check_vector_consensus,
            seeds=SEEDS,
        )
        rows.append(
            [
                name,
                profile.failure_class.value,
                profile.detecting_module.value,
                percent(summary.detection_by_any_rate),
                percent(summary.detection_by_all_rate),
                percent(summary.suspected_by_any_rate),
                percent(summary.false_positive_rate),
            ]
        )
    return rows


def test_e4_every_fault_type_is_caught_by_its_module(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E4 - detection coverage per fault type (n={N}, {len(SEEDS)} seeds/row)",
        [
            "attack",
            "failure class",
            "expected module",
            "declared(any)",
            "declared(all)",
            "suspected",
            "false pos.",
        ],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # Shape: no wrongful declaration of a correct process, ever.
    for row in rows:
        assert row[6] == "0%", row
    # Shape: message-visible faults are declared in every run they
    # manifest; these attacks manifest unconditionally.
    for always_detected in (
        "corrupt-vector",
        "falsified-entry",
        "forged-decide",
        "bad-signature",
        "impersonation",
        "unsigned",
        "wrong-round",
        "duplicate-current",
        "premature-decide",
        "wrong-cert-current",
    ):
        assert by_name[always_detected][3] == "100%", by_name[always_detected]
    # Shape: equivocation is provable only when both branches cross at a
    # correct process (directly or inside a certificate) — detection is
    # frequent but schedule-dependent.
    assert by_name["equivocate-init"][3] != "0%"
    assert by_name["equivocate-current"][3] != "0%"
    # Shape: pure muteness is never *declared* (it is invisible to the
    # non-muteness machinery) but always *suspected* by ◇M.
    assert by_name["mute"][3] == "0%"
    assert by_name["mute"][5] == "100%"
