"""E21 (performance) — sharded scaling: aggregate throughput vs shard count.

One artifact (``BENCH_shard.json``, written into ``REPRO_METRICS_DIR``
when it is set; methodology in docs/SHARDING.md):

**Loopback scaling sweep** (deterministic, virtual time): the full
deployment per shard (nodes, transports, codec) on one shared
virtual-time loop, with a fixed per-hop virtual latency so protocol
rounds have a cost and a deliberately small per-group capacity (batch
4, window 2) so a single group saturates under the open-loop burst. The sweep holds the offered
load and the per-shard replica count fixed while the shard count
doubles: 1 -> 2 -> 4. The paper-level claim under test is near-linear
aggregate throughput, because the groups share no protocol state — the
deterministic key map is the only cross-shard agreement. The acceptance
bar: 4 shards >= 2.5x the 1-shard baseline, with every shard of every
cell passing the fault engine's judge.

The wall-clock comparison of one group against two on real sockets is
`make bench-pairs` (`write_small` against `write_shard2`, BENCHMARK.json).
"""

from __future__ import annotations


from repro.analysis.reporting import print_table
from repro.shard.loopback import loopback_scaling_cell

from conftest import run_once, write_bench

SEED = 21
#: Shard counts under test at fixed per-shard replica count.
SHARDS = (1, 2, 4)
REPLICAS_PER_SHARD = 4
#: Open-loop burst shared by every cell: same keys, same clients, same
#: request count — only the shard count moves.
REQUESTS = 768
CLIENTS = 4


def run_sweep() -> list[dict]:
    """One deterministic loopback cell per shard count."""
    return [
        loopback_scaling_cell(
            shards=shards,
            clients=CLIENTS,
            requests=REQUESTS,
            replicas_per_shard=REPLICAS_PER_SHARD,
            seed=SEED,
        )
        for shards in SHARDS
    ]


def _rows(cells):
    baseline = cells[0]["throughput"]
    return [
        [
            cell["shards"],
            cell["requests"],
            cell["completed"],
            round(cell["virtual_time"], 2),
            round(cell["throughput"], 1),
            round(cell["throughput"] / baseline, 2),
            "yes" if cell["converged"] else "NO",
            "yes" if cell["exactly_once"] else "NO",
        ]
        for cell in cells
    ]


def run_experiment():
    """Table rows for ``python -m repro experiments --only e21``.

    The loopback sweep, as under pytest.
    """
    return _rows(run_sweep())


def _speedup(cells, shards):
    for cell in cells:
        if cell["shards"] == shards:
            return cell["throughput"] / cells[0]["throughput"]
    raise AssertionError(shards)


def test_e21_shard_scaling(benchmark):
    def experiment():
        return {"sweep": run_sweep()}

    results = run_once(benchmark, experiment)
    cells = results["sweep"]
    print_table(
        f"E21 - shard scaling ({REPLICAS_PER_SHARD} replicas/shard, "
        f"{REQUESTS} requests, {CLIENTS} clients, seed {SEED})",
        ["shards", "requests", "completed", "virtual time", "throughput",
         "speedup", "converged", "exactly once"],
        _rows(cells),
    )
    write_bench(
        "BENCH_shard.json",
        {
            "experiment": "e21_shard_scaling",
            "seed": SEED,
            "replicas_per_shard": REPLICAS_PER_SHARD,
            "requests": REQUESTS,
            "clients": CLIENTS,
            "sweep": cells,
        },
    )

    # Oracles: every cell commits the full burst, and every shard of it
    # passes the fault engine's judge as the plan it ran.
    for cell in cells:
        assert cell["all_complete"], cell
        assert cell["converged"], cell
        assert cell["exactly_once"], cell
        assert set(cell["verdicts"].values()) == {"pass"}, cell["violations"]
        assert cell["isolation"] == [], cell
        assert cell["completed"] == REQUESTS
        # Equal offered load across shard counts: the key map just
        # spreads the same burst.
        assert sum(int(count) for count in cell["routed"].values()) == REQUESTS
    # Shape: aggregate throughput grows with the shard count.
    assert _speedup(cells, 2) > 1.4
    # Acceptance bar: near-linear at 4 shards.
    assert _speedup(cells, 4) >= 2.5, [cell["throughput"] for cell in cells]
