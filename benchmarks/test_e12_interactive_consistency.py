"""E12 (baseline) — Interactive Consistency vs asynchronous Vector Consensus.

Paper footnote 6: Vector Consensus was "first proposed in synchronous
systems where it is called the Interactive Consistency problem [11]".
This experiment quantifies what the synchrony assumption buys and costs:

* **vector quality** — EIG guarantees *every* correct entry (n - f of
  them); the asynchronous transformed protocol can only promise
  ``alpha = n - 2F`` (it must decide after n - F INITs);
* **cost** — EIG's message payloads grow exponentially with f (level r
  has n(n-1)...(n-r+1) reports), while the transformed protocol's
  certificates stay polynomial;
* **model** — EIG needs lock-step rounds; the transformed protocol runs
  under full asynchrony.
"""

from __future__ import annotations

from repro.analysis.reporting import percent, print_table
from repro.byzantine.adversary import transformed_attack
from repro.messages.consensus import NULL
from repro.synchronous.eig import EigLiar, eig_rounds, run_interactive_consistency
from repro.systems import build_transformed_system

from conftest import proposals, run_once

SEEDS = range(20)


def eig_cell(n: int, f: int):
    correct_entries = 0.0
    agreed = 0
    for seed in SEEDS:
        liar = n - 1
        procs = run_interactive_consistency(
            proposals(n), f=f, byzantine={liar: EigLiar}, seed=seed
        )
        vectors = {p.vector for i, p in enumerate(procs) if i != liar}
        if len(vectors) == 1:
            agreed += 1
        vector = vectors.pop()
        correct_entries += sum(
            1 for pid in range(n) if pid != liar and vector[pid] == f"v{pid}"
        )
    return [
        f"EIG (sync) n={n} f={f}",
        percent(agreed / len(SEEDS)),
        correct_entries / len(SEEDS),
        n - 1,  # every correct entry is guaranteed
        eig_rounds(f),
    ]


def transformed_cell(n: int, f: int):
    correct_entries = 0.0
    agreed = 0
    for seed in SEEDS:
        liar = n - 1
        system = build_transformed_system(
            proposals(n),
            byzantine=transformed_attack(liar, "corrupt-vector"),
            f=f,
            seed=seed,
        )
        system.run(max_time=2_000)
        vectors = {
            system.processes[pid].decision
            for pid in system.correct_pids
            if system.processes[pid].decided
        }
        if len(vectors) == 1:
            agreed += 1
        vector = vectors.pop()
        correct_entries += sum(
            1
            for pid in range(n)
            if pid != liar and vector[pid] not in (NULL,) and vector[pid] == f"v{pid}"
        )
    params_floor = n - 2 * f
    return [
        f"transformed (async) n={n} F={f}",
        percent(agreed / len(SEEDS)),
        correct_entries / len(SEEDS),
        params_floor,
        "async",
    ]


def run_experiment():
    rows = []
    for n, f in ((4, 1), (7, 2)):
        rows.append(eig_cell(n, f))
        rows.append(transformed_cell(n, f))
    return rows


def test_e12_sync_vs_async_vector_agreement(benchmark):
    rows = run_once(benchmark, run_experiment)
    print_table(
        f"E12 - Interactive Consistency [11] vs transformed Vector Consensus "
        f"({len(SEEDS)} seeds/row)",
        ["protocol", "agreement", "correct entries (mean)", "guaranteed", "rounds"],
        rows,
    )
    # Shape: both agree in every run.
    for row in rows:
        assert row[1] == "100%", row
    # Shape: synchrony buys completeness — EIG's measured correct entries
    # meet the n - 1 ceiling, the async protocol's meet (and may exceed)
    # its weaker n - 2F floor but cannot promise more.
    for eig_row, async_row in zip(rows[::2], rows[1::2]):
        assert eig_row[2] == eig_row[3]
        assert async_row[2] >= async_row[3]
        assert eig_row[3] > async_row[3]
