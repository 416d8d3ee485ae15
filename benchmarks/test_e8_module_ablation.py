"""E8 — modularity ablation: each module is load-bearing.

The paper's claim is that *each type of failure is encapsulated in a
specific module*. We make the claim falsifiable: disable one module at a
time and rerun the attack that module is responsible for. With the full
configuration every attack is contained; with its module ablated, the
matching attack slips through (safety or liveness is lost, or the fault
goes undetected).
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attack
from repro.core.modules import ModuleConfig
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import proposals, run_once

N = 4
SEEDS = range(15)

#: module -> the attack that module is responsible for containing.
RESPONSIBILITY = {
    "signature": ("impersonation", 3),
    "certification": ("corrupt-vector", 0),
    "monitor": ("premature-decide", 3),
    "muteness": ("mute", 0),  # mute *coordinator*: liveness is at stake
}


def run_cell(module: str | None, attack: str, seat: int):
    config = ModuleConfig.full() if module is None else ModuleConfig.full().without(module)
    return run_trials(
        builder=lambda seed: build_transformed_system(
            proposals(N),
            byzantine=transformed_attack(seat, attack),
            config=config,
            seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        ),
        checker=check_vector_consensus,
        seeds=SEEDS,
        max_events=120_000,
        max_time=300.0,
    )


def run_experiment():
    rows = []
    for module, (attack, seat) in RESPONSIBILITY.items():
        full = run_cell(None, attack, seat)
        ablated = run_cell(module, attack, seat)
        rows.append(
            [
                module,
                attack,
                percent(full.all_hold_rate),
                percent(full.detection_by_any_rate),
                percent(ablated.all_hold_rate),
                percent(ablated.detection_by_any_rate),
            ]
        )
    return rows


def test_e8_each_module_is_load_bearing(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E8 - module ablation (n={N}, {len(SEEDS)} seeds/cell)",
        [
            "ablated module",
            "attack",
            "full: all hold",
            "full: detected",
            "ablated: all hold",
            "ablated: detected",
        ],
        rows,
    )
    by_module = {row[0]: row for row in rows}
    # Shape: the full configuration contains every attack.
    for row in rows:
        assert row[2] == "100%", row
    # Shape: ablating a module loses either the guarantee or detection
    # for exactly the attack it owns.
    assert by_module["signature"][4] != "100%" or by_module["signature"][5] == "0%"
    assert by_module["certification"][4] != "100%" or (
        by_module["certification"][5] == "0%"
    )
    assert by_module["muteness"][4] != "100%"  # mute coordinator stalls
    assert by_module["monitor"][5] == "0%"  # nothing left to detect with
