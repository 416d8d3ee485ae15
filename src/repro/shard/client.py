"""Sharded TCP client: route by key, then trust f+1 per group as before.

A :class:`ShardedNetClient` is a thin routing layer over one ordinary
:class:`~repro.net.client.NetClient` per shard. The per-group trust
rules are untouched — ``set`` still needs f+1 distinct acks *from the
key's shard*, ``get`` still needs f+1 matching replies, exactly-once
dedup still lives in each group's replicas — because a key's entire
history lives in exactly one group: the deterministic map
(:mod:`repro.shard.keymap`) is the only cross-shard agreement needed,
and it is a pure function every participant computes identically.

The client carries the *same* client index in every shard (each group
has its own pid space, so the identities are per-group pids that never
meet), and aggregates its counters across shards for orchestration.
"""

from __future__ import annotations

from typing import Any

from repro.net.client import NetClient
from repro.net.messages import StatusReply
from repro.shard.genesis import ShardGenesis


class ShardedNetClient:
    """One client identity in every shard of a deployment."""

    def __init__(self, genesis: ShardGenesis, client_index: int = 0) -> None:
        genesis.validate()
        self.genesis = genesis
        self.clients: dict[int, NetClient] = {
            shard: NetClient(genesis.genesis_for(shard), client_index)
            for shard in range(genesis.n_shards)
        }
        #: The same in every shard: each group numbers its clients alike.
        self.pid = self.clients[0].pid
        #: Sets this client routed to each shard, counted when issued:
        #: they are that shard's plan's ``requests``, so a set that never
        #: completes shows as the shard's ``progress:`` violation.
        self.sets_by_shard: dict[int, int] = {
            shard: 0 for shard in range(genesis.n_shards)
        }

    # -- aggregated counters ----------------------------------------------

    @property
    def sets_completed(self) -> int:
        return sum(client.sets_completed for client in self.clients.values())

    @property
    def gets_completed(self) -> int:
        return sum(client.gets_completed for client in self.clients.values())

    @property
    def resubmissions(self) -> int:
        return sum(client.resubmissions for client in self.clients.values())

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: str) -> int:
        return self.genesis.shard_of(key)

    def client_for(self, key: str) -> NetClient:
        return self.clients[self.shard_for(key)]

    # -- operations --------------------------------------------------------

    async def set(self, key: str, value: Any, *, attempts: int = 40) -> int:
        """Commit ``set key=value`` in the key's shard; returns the slot."""
        shard = self.shard_for(key)
        self.sets_by_shard[shard] += 1
        return await self.clients[shard].set(key, value, attempts=attempts)

    async def get(self, key: str, *, attempts: int = 40) -> tuple[bool, Any]:
        """Quorum read from the key's shard (f+1 matching replies)."""
        return await self.client_for(key).get(key, attempts=attempts)

    async def status(
        self, *, timeout: float = 1.0
    ) -> dict[int, dict[int, StatusReply]]:
        """Best-effort per-replica status, grouped by shard."""
        return {
            shard: await client.status(timeout=timeout)
            for shard, client in sorted(self.clients.items())
        }

    async def close(self) -> None:
        for client in self.clients.values():
            await client.close()
