"""E9 — ◇M muteness-detector quality vs protocol latency.

The timeout-based ◇M implementation (Doudou et al. [6]) trades detection
latency against wrongful suspicions: a short initial timeout suspects a
mute coordinator quickly (fast rounds) but wrongly suspects slow correct
processes (extra rounds, churn); a long timeout never errs but waits.
The sweep shows the trade-off and that correctness is independent of the
tuning — exactly why the protocol can use an *unreliable* detector.
"""

from __future__ import annotations

from repro.analysis.experiments import run_trials
from repro.analysis.properties import check_vector_consensus
from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attack
from repro.sim.network import UniformDelay
from repro.systems import build_transformed_system

from conftest import proposals, run_once

N = 4
SEEDS = range(15)
TIMEOUTS = (2.0, 4.0, 8.0, 16.0, 32.0)


def wrongful_suspicions(system) -> float:
    return sum(
        system.processes[pid].detector.wrongful_suspicions
        for pid in system.correct_pids
    )


def run_experiment():
    rows = []
    for timeout in TIMEOUTS:
        # Mute coordinator: detection latency gates round progress.
        summary = run_trials(
            builder=lambda seed, t=timeout: build_transformed_system(
                proposals(N),
                byzantine=transformed_attack(0, "mute"),
                muteness="timeout",
                muteness_timeout=t,
                seed=seed,
                delay_model=UniformDelay(0.2, 1.5),
            ),
            checker=check_vector_consensus,
            seeds=SEEDS,
            max_time=2_000.0,
        )
        rows.append(
            [
                timeout,
                percent(summary.all_hold_rate),
                summary.mean_decision_time,
                summary.mean_rounds,
                summary.mean_messages,
            ]
        )
    return rows


def run_wrongful_experiment():
    """Failure-free runs: how much churn does an aggressive timeout cost?"""
    rows = []
    for timeout in TIMEOUTS:
        churn = 0.0
        latency = 0.0
        trials = list(SEEDS)
        for seed in trials:
            system = build_transformed_system(
                proposals(N),
                muteness="timeout",
                muteness_timeout=timeout,
                seed=seed,
                delay_model=UniformDelay(0.2, 1.5),
            )
            system.run(max_time=2_000.0)
            churn += wrongful_suspicions(system)
            times = [
                p.decision_time
                for p in system.processes
                if p.decided and p.decision_time is not None
            ]
            latency += sum(times) / len(times)
        rows.append([timeout, churn / len(trials), latency / len(trials)])
    return rows


def test_e9_detection_latency_vs_decision_latency(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E9a - timeout ◇M vs a mute coordinator (n={N}, {len(SEEDS)} seeds/row)",
        ["initial timeout", "all hold", "latency", "rounds", "msgs"],
        rows,
    )
    # Shape: correctness never depends on the tuning.
    for row in rows:
        assert row[1] == "100%", row
    # Shape: a patient detector waits longer for the mute coordinator.
    assert rows[-1][2] > rows[0][2]


def test_e9_wrongful_suspicion_churn(benchmark):
    rows = run_once(benchmark, run_wrongful_experiment)
    print_table(
        f"E9b - failure-free churn vs timeout (n={N}, {len(SEEDS)} seeds/row)",
        ["initial timeout", "wrongful suspicions/run", "latency"],
        rows,
    )
    # Shape: aggressive timeouts err; patient ones do not.
    assert rows[0][1] >= rows[-1][1]
    assert rows[-1][1] == 0.0
