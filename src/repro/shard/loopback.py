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
from repro.faults.loopback_runner import group_facts, observe_group
from repro.faults.oracle import FidelityObservation, settled
from repro.faults.plan import FaultPlan
from repro.net.client import NetClient
from repro.net.clock import VirtualTimeLoop
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.process import LinkPolicy
from repro.shard.genesis import ShardGenesis
from repro.shard.verdict import Kill, shard_plans, shard_state, shard_verdicts

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
        #: shard -> sets routed there (that shard's plan's ``requests``).
        self.routed: dict[int, int] = {
            shard: 0 for shard in range(genesis.n_shards)
        }
        #: shard -> ``(client, req_id)`` of each write completed there.
        self.writes: dict[int, list[tuple[int, int]]] = {
            shard: [] for shard in range(genesis.n_shards)
        }
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

    # -- workload ----------------------------------------------------------

    def submit(self, key: str, value: str, *, client: int = 0) -> int:
        """Route one set to its shard's client; returns the shard."""
        shard = self.genesis.shard_of(key)
        group = self.groups[shard]
        group.spawn(self._write(group.clients[client], key, value, self.writes[shard]))
        self.routed[shard] += 1
        return shard

    @staticmethod
    async def _write(client: NetClient, key: str, value: str, writes: list) -> None:
        req_id = client.session.next_req_id  # the id ``set`` is about to take
        await client.set(key, value)
        writes.append((client.pid, req_id))

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
        return sum(map(len, self.writes.values()))

    def pump(self, seconds: float) -> None:
        self.loop.run_until(lambda: False, seconds)

    def run_until_complete(self, *, budget: float) -> bool:
        """Run until every issued request completed, stopping at that
        instant; True on success."""
        return self.loop.run_until(
            lambda: 0 < sum(self.routed.values()) <= self.completed(), budget
        )

    # -- verdicts ----------------------------------------------------------

    def observe(
        self, *, duration: float, budget: float, kill: Kill | None = None
    ) -> tuple[dict[int, FaultPlan], dict[int, FidelityObservation]]:
        """Each shard's plan (:func:`shard_plans`) and, once every shard
        has :func:`settled` its plan or ``budget`` passed, its observation."""
        plans = shard_plans(
            self.routed,
            n_replicas=self.genesis.replicas_per_shard,
            seed=self.genesis.seed,
            duration=duration,
            kill=kill,
        )
        groups = self.groups
        self.loop.run_until(
            lambda: all(
                settled(plans[shard], group_facts(group), len(self.writes[shard]))
                for shard, group in groups.items()
            ),
            budget,
        )
        return plans, {
            shard: observe_group(plans[shard], group, self.writes[shard])
            for shard, group in groups.items()
        }


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
    kill + rejoin inside ``kill_shard`` (``None`` disables it), each
    shard settled and judged as the plan it ran
    (:mod:`repro.shard.verdict`) — and reduces it to a record whose
    canonical JSON (:func:`smoke_json`) is byte-identical across runs.
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
    kill = None
    if kill_shard is not None:
        kill = (kill_shard, kill_pid, span * 0.3, span * 0.6)
        group = cluster.groups[kill_shard]
        cluster.scheduler.schedule_after(
            kill[2], "shard-kill", lambda: group.kill(kill_pid)
        )
        cluster.scheduler.schedule_after(
            kill[3], "shard-rejoin", lambda: group.rejoin(kill_pid)
        )
    cluster.pump(span)
    plans, observations = cluster.observe(
        duration=span, budget=SETTLE_BUDGET, kill=kill
    )
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
        **shard_state(observations),
        "end_time": round(cluster.scheduler.now, 9),
        **shard_verdicts(plans, observations),
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
) -> dict[str, Any]:
    """One deterministic E21 sweep cell: same offered load, S groups.

    All ``requests`` sets are offered as an open-loop burst over 64 keys
    across ``clients`` client identities, so the system — not the
    schedule — is the bottleneck; the cell reads off the virtual time
    until the last command has its f+1th ack, then judges each shard
    (``converged`` and ``exactly_once`` read the judge's violations).
    The default knobs deliberately shrink per-group capacity
    (service-default ``batch_size=4`` / ``window=2``) and charge 20 ms
    :func:`link_latency` hops, so the one-group ordering pipeline
    genuinely saturates at a load the benchmark can afford to run.
    """
    genesis = loopback_shard_genesis(
        shards,
        replicas_per_shard,
        seed=seed,
        clients=clients,
        key_space=64,
        batch_size=4,
        window=2,
        request_timeout=3.0,
    )
    cluster = ShardedLoopbackCluster(genesis, clients=clients, hop_delay=0.02)
    cluster.schedule_workload(requests, span=0.0, clients=clients, key_space=64)
    done = cluster.run_until_complete(budget=600.0)
    # The run stopped the moment the last client request had its f+1th
    # ack; settling for the judge afterwards may advance the clock
    # further, but that settling time is not service time.
    complete_at = cluster.scheduler.now
    verdicts = shard_verdicts(*cluster.observe(duration=0.0, budget=60.0))
    #: The oracle each violation names, e.g. ``"exactly-once"``.
    oracles = {v.split(":")[0] for vs in verdicts["violations"].values() for v in vs}
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
        "converged": not oracles & {"progress", "convergence"},
        "exactly_once": "exactly-once" not in oracles,
        **verdicts,
    }
    cluster.close()
    return cell
