"""The sharded loopback twin: a whole multi-group deployment, one process.

The deployment's own classes on every hop, per shard, exactly like the
single-group loopback twin — but *all* shards share one
:class:`~repro.net.clock.VirtualTimeLoop`, so the groups genuinely run
side by side in virtual time while the whole run stays a pure function
of the shard genesis and the workload schedule. That buys two things:

* **byte-identical smoke records** — :func:`run_loopback_smoke` returns
  a canonical record that two runs reproduce bit for bit (the
  ``make shard-smoke`` double-run ``cmp`` pins it), kill/rejoin and all;
* **an honest scaling measurement in virtual time** — the benchmark's
  sweep (:func:`loopback_scaling_cell`) offers the *same* request
  schedule whatever the shard count and reads off the virtual instant
  the last request completed: with one group every command queues
  behind one total order, with S groups each order carries ~1/S of the
  keys, and the aggregate throughput is the ratio the E21 acceptance
  bar checks.

Each shard is one :class:`~repro.net.loopback.LoopbackCluster` with its
own addresses — pid spaces are group-local, and two groups must not
share a connection any more than they share a total order. Routing
happens in the client layer only, via the same deterministic map the
TCP client uses.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.net.clock import VirtualTimeLoop
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.observability.registry import MODULE_SHARD, MetricsRegistry
from repro.shard.genesis import ShardGenesis
from repro.sim.network import LinkPolicy

#: Shards get disjoint fake-port ranges.
_PORT_BASE = 30001
_PORT_STRIDE = 100

#: Extra virtual seconds a run may settle past its workload window.
SETTLE_BUDGET = 120.0

#: Per-hop virtual latency of the shard twin's fabric (seconds).
HOP_DELAY = 0.005


def link_latency(
    delay: float = HOP_DELAY,
    link_delays: Mapping[tuple[int, int], float] | None = None,
) -> LinkPolicy:
    """A link policy under which every hop costs virtual time.

    Bare in-memory streams deliver at zero delay, which is perfect for
    protocol correctness tests but useless for a *scaling* measurement:
    with free messages a group orders any backlog at one instant, so
    virtual time cannot show the per-group ordering pipeline saturating.
    Charging a fixed ``delay`` per hop makes a protocol round cost what
    a round costs — a few hops — and the group's commit rate becomes
    ``window``-bounded the way a real deployment's is. Determinism is
    preserved: same schedule, same delays, same run.

    ``link_delays`` overrides the uniform ``delay`` per *directed* link,
    which is what heterogeneous deployments look like — one replica
    behind a slow WAN hop, asymmetric routes, a laggard rack. Per-
    ``(src, dst)`` FIFO order survives either way because a given link's
    delay is constant, so a link never reorders its own traffic; with
    heterogeneous delays *cross-link* interleavings shift, exactly the
    effect being modelled.
    """
    overrides = dict(link_delays or {})

    def link(now: float, src: int, dst: int, payload: Any):
        return [(payload, overrides.get((src, dst), delay))]

    return link


def loopback_shard_genesis(
    n_shards: int,
    replicas_per_shard: int = 4,
    *,
    seed: int = 0,
    clients: int = 1,
    name: str = "shard-loopback",
    **overrides: Any,
) -> ShardGenesis:
    """A fixed-address shard genesis for deterministic in-process runs."""
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    addresses = tuple(
        fixed_addresses(replicas_per_shard, _PORT_BASE + shard * _PORT_STRIDE)
        for shard in range(n_shards)
    )
    knobs: dict[str, Any] = {**TWIN_KNOBS, **overrides}
    genesis = ShardGenesis(
        name=name,
        seed=seed,
        n_shards=n_shards,
        replicas_per_shard=replicas_per_shard,
        max_clients=max(1, clients),
        addresses=addresses,
        **knobs,
    )
    genesis.validate()
    return genesis


class ShardedLoopbackCluster:
    """Every shard's nodes and clients on one virtual-time loop."""

    def __init__(
        self,
        genesis: ShardGenesis,
        *,
        clients: int = 1,
        hop_delay: float = HOP_DELAY,
        link_delays: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        genesis.validate()
        if not 1 <= clients <= genesis.max_clients:
            raise ConfigurationError(
                f"clients must be in 1..{genesis.max_clients}, got {clients}"
            )
        self.genesis = genesis
        self.loop = VirtualTimeLoop()
        self.metrics = MetricsRegistry()
        #: shard -> sets routed there (the exactly-once expectation).
        self.routed: dict[int, int] = {
            shard: 0 for shard in range(genesis.n_shards)
        }
        self._issued = 0
        # One latency policy serves every shard's links: the pid space
        # is group-local, so one map describes "replica 0 is behind a
        # slow hop" for each group without enumerating shards.
        link = link_latency(hop_delay, link_delays)
        #: shard -> that group's nodes, transports and clients.
        self.groups: dict[int, LoopbackCluster] = {
            shard: LoopbackCluster(
                genesis.genesis_for(shard),
                loop=self.loop,
                link=link,
                clients=clients,
            )
            for shard in range(genesis.n_shards)
        }
        self.scheduler = self.groups[0].scheduler

    def close(self) -> None:
        """End every group's tasks, clients and transports; close the loop."""
        for group in self.groups.values():
            group.close()
        self.loop.close()

    # -- node lifecycle ----------------------------------------------------

    def kill(self, shard: int, pid: int) -> None:
        """Crash semantics: volatile state lost, timers orphaned."""
        self.groups[shard].kill(pid)

    def rejoin(self, shard: int, pid: int) -> None:
        """Fresh node with ``join=True``: certified transfer is the way back."""
        self.groups[shard].rejoin(pid)

    # -- workload ----------------------------------------------------------

    def submit(self, key: str, value: str, *, client: int = 0) -> int:
        """Route one set to its shard's client; returns the shard."""
        shard = self.genesis.shard_of(key)
        group = self.groups[shard]
        group.spawn(group.clients[client].set(key, value))
        self.routed[shard] += 1
        self._issued += 1
        self.metrics.inc(MODULE_SHARD, "commands_routed", pid=shard)
        return shard

    def schedule_workload(
        self, requests: int, *, span: float, clients: int = 1, key_space: int = 64
    ) -> None:
        """Spread ``requests`` sets over ``span`` virtual seconds.

        Request ``i`` goes to client ``i % clients`` at time
        ``i / requests * span`` with key ``k{i % key_space}`` — the
        schedule (hence the offered load) is independent of the shard
        count; only the routing differs.
        """
        for index in range(requests):
            at = (index / requests) * span
            self.scheduler.schedule_after(
                at,
                "shard-request",
                lambda i=index: self.submit(
                    f"k{i % key_space}", f"v{i}", client=i % clients
                ),
            )

    # -- progress ----------------------------------------------------------

    def completed(self) -> int:
        return sum(group.completed() for group in self.groups.values())

    def pump(self, seconds: float) -> None:
        self.loop.run_until(lambda: False, seconds)

    def run_until_complete(self, *, budget: float) -> bool:
        """Run until every issued request completed, stopping at that
        instant; True on success."""
        return self.loop.run_until(
            lambda: 0 < self._issued <= self.completed(), budget
        )

    # -- per-shard verdicts ------------------------------------------------

    def shard_committed(self, shard: int) -> dict[int, int]:
        return self.groups[shard].committed()

    def shard_digests(self, shard: int) -> dict[int, str]:
        return self.groups[shard].digests()

    def shard_converged(self, shard: int) -> bool:
        """Digest agreement + exactly-once against the routed count."""
        if len(self.groups[shard].nodes) < self.genesis.replicas_per_shard:
            return False
        if any(
            count != self.routed[shard]
            for count in self.shard_committed(shard).values()
        ):
            return False
        return len(set(self.shard_digests(shard).values())) == 1

    def converged(self) -> bool:
        return all(
            self.shard_converged(shard)
            for shard in range(self.genesis.n_shards)
        )

    def settle(self, *, budget: float = SETTLE_BUDGET) -> bool:
        return self.loop.run_until(
            lambda: self.completed() >= self._issued and self.converged(), budget
        )


def run_loopback_smoke(
    *,
    shards: int = 2,
    replicas_per_shard: int = 4,
    requests: int = 24,
    seed: int = 0,
    kill_shard: int | None = 1,
    kill_pid: int = 2,
    key_space: int = 16,
) -> dict[str, Any]:
    """The deterministic half of ``make shard-smoke``: one canonical record.

    Runs the full multi-group deployment in-process — workload, one
    kill + rejoin inside ``kill_shard`` (``None`` disables it), per-shard
    convergence — and reduces it to a record whose canonical JSON
    (:func:`smoke_json`) is byte-identical across runs.
    """
    if kill_shard is not None and not 0 <= kill_shard < shards:
        raise ConfigurationError(
            f"kill_shard {kill_shard} outside the shard range 0..{shards - 1}"
        )
    genesis = loopback_shard_genesis(
        shards, replicas_per_shard, seed=seed, key_space=key_space
    )
    cluster = ShardedLoopbackCluster(genesis)
    span = 12.0
    cluster.schedule_workload(requests, span=span, key_space=key_space)
    if kill_shard is not None:
        cluster.scheduler.schedule_after(
            span * 0.3, "shard-kill", lambda: cluster.kill(kill_shard, kill_pid)
        )
        cluster.scheduler.schedule_after(
            span * 0.6,
            "shard-rejoin",
            lambda: cluster.rejoin(kill_shard, kill_pid),
        )
    cluster.pump(span)
    settled = cluster.settle()
    transfers = {}
    if kill_shard is not None:
        node = cluster.groups[kill_shard].nodes.get(kill_pid)
        transfers = {
            str(kill_shard): {
                str(kill_pid): (
                    len(node.process.state_transfers_completed)
                    if node is not None
                    else 0
                )
            }
        }
    record = {
        "kind": "shard-loopback-smoke",
        "shards": shards,
        "replicas_per_shard": replicas_per_shard,
        "seed": seed,
        "requests": requests,
        "key_space": key_space,
        "kill": (
            {"shard": kill_shard, "pid": kill_pid}
            if kill_shard is not None
            else None
        ),
        "shard_genesis_id": genesis.shard_genesis_id(),
        "genesis_ids": {
            str(shard): genesis.genesis_for(shard).genesis_id()
            for shard in range(shards)
        },
        "completed": cluster.completed(),
        "routed": {
            str(shard): count for shard, count in sorted(cluster.routed.items())
        },
        "committed": {
            str(shard): {
                str(pid): count
                for pid, count in cluster.shard_committed(shard).items()
            }
            for shard in range(shards)
        },
        "digests": {
            str(shard): {
                str(pid): digest
                for pid, digest in cluster.shard_digests(shard).items()
            }
            for shard in range(shards)
        },
        "transfers": transfers,
        "end_time": round(cluster.scheduler.now, 9),
        "converged": cluster.converged(),
        "ok": bool(
            settled
            and cluster.converged()
            and (
                kill_shard is None
                or transfers[str(kill_shard)][str(kill_pid)] >= 1
            )
        ),
    }
    cluster.close()
    return record


def smoke_json(record: dict[str, Any]) -> str:
    """Canonical JSON: byte-identical for identical deterministic runs."""
    return (
        json.dumps(record, indent=2, sort_keys=True, separators=(",", ": "))
        + "\n"
    )


def loopback_scaling_cell(
    *,
    shards: int,
    clients: int = 4,
    requests: int = 768,
    replicas_per_shard: int = 4,
    seed: int = 0,
    key_space: int = 64,
    span: float = 0.0,
    hop_delay: float = 0.02,
    budget: float = 600.0,
    **overrides: Any,
) -> dict[str, Any]:
    """One deterministic E21 sweep cell: same offered load, S groups.

    All ``requests`` sets are offered as an open-loop burst (``span`` 0)
    across ``clients`` client identities, so the system — not the
    schedule — is the bottleneck; the cell reads off the virtual time
    until the last command has its f+1th ack, plus the per-shard
    convergence + exactly-once oracles. The default knobs deliberately
    shrink per-group capacity (service-default ``batch_size=4`` /
    ``window=2``) and charge :func:`link_latency` hops, so the one-group
    ordering pipeline genuinely saturates at a load the benchmark can
    afford to run.
    """
    knobs: dict[str, Any] = {
        "batch_size": 4,
        "window": 2,
        "request_timeout": 3.0,
    }
    knobs.update(overrides)
    genesis = loopback_shard_genesis(
        shards,
        replicas_per_shard,
        seed=seed,
        clients=clients,
        key_space=key_space,
        **knobs,
    )
    cluster = ShardedLoopbackCluster(
        genesis, clients=clients, hop_delay=hop_delay
    )
    cluster.schedule_workload(
        requests, span=span, clients=clients, key_space=key_space
    )
    cluster.pump(span)
    done = cluster.run_until_complete(budget=budget)
    # The run stopped the moment the last client request had its f+1th
    # ack; the convergence check afterwards may advance the clock
    # further, but that settling time is not service time.
    complete_at = cluster.scheduler.now
    converged = cluster.settle(budget=60.0)
    cell = {
        "shards": shards,
        "clients": clients,
        "requests": requests,
        "replicas_per_shard": replicas_per_shard,
        "routed": {
            str(shard): count for shard, count in sorted(cluster.routed.items())
        },
        "completed": cluster.completed(),
        "virtual_time": round(complete_at, 9),
        "throughput": (
            round(cluster.completed() / complete_at, 9)
            if complete_at > 0
            else 0.0
        ),
        "all_complete": done,
        "converged": converged,
        "exactly_once": all(
            cluster.shard_converged(shard) for shard in range(shards)
        ),
    }
    cluster.close()
    return cell
