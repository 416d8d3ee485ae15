"""E11 (extension) — reliable-broadcast INIT phase vs INIT equivocation.

The paper's vector certification leaves a consistency gap: an INIT
equivocator can make correct processes hold *different* (individually
well-witnessed) values for its slot. This extension routes the INIT
phase through Byzantine reliable broadcast and measures the gap closing:

* slot divergence (two correct processes holding different non-null
  values for the attacker's slot): frequent under plain INIT, zero under
  echo-INIT (Bracha's echo quorums intersect);
* cost: the RB phase adds ~O(n^2) small control messages.
"""

from __future__ import annotations

from repro.analysis.metrics import measure
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attack
from repro.byzantine.echo_attacks import echo_equivocation_attack
from repro.messages.consensus import NULL
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import SEEDS, proposals, run_once

N = 4
ATTACKER = 3


def slot_diverged(system) -> bool:
    values = {
        event.detail["vector"][ATTACKER]
        for event in system.world.trace.of_kind("vector-built")
        if event.process in system.correct_pids
    }
    values.discard(NULL)
    return len(values) > 1


def run_cell(variant: str):
    diverged = 0
    all_hold = 0
    messages = 0.0
    for seed in SEEDS:
        if variant == "echo-init":
            byzantine = echo_equivocation_attack(ATTACKER)
        else:
            byzantine = transformed_attack(ATTACKER, "equivocate-init")
        system = build_transformed_system(
            proposals(N),
            variant=variant,
            byzantine=byzantine,
            seed=seed,
            delay_model=UniformDelay(0.1, 2.0),
        )
        system.run(max_time=1_000)
        if slot_diverged(system):
            diverged += 1
        if check_vector_consensus(system).all_hold:
            all_hold += 1
        messages += measure(system).messages_sent
    count = len(SEEDS)
    return [
        variant,
        percent(diverged / count),
        percent(all_hold / count),
        messages / count,
    ]


def run_experiment():
    return [run_cell("standard"), run_cell("echo-init")]


def test_e11_echo_init_closes_the_divergence_gap(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E11 - INIT equivocation: plain vs reliable-broadcast INIT "
        f"(n={N}, {len(SEEDS)} seeds/row)",
        ["variant", "slot divergence", "all hold", "msgs"],
        rows,
    )
    standard, echo = rows
    # Shape: the gap exists under the published protocol...
    assert standard[1] != "0%"
    # ...and closes completely under echo-INIT...
    assert echo[1] == "0%"
    # ...with both variants keeping the consensus properties, and the
    # echo variant paying extra control messages.
    assert standard[2] == echo[2] == "100%"
    assert echo[3] > standard[3]
