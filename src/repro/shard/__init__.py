"""repro.shard — partition the key space across independent groups.

Each shard is a complete, unmodified replicated group (its own genesis,
seed, pid space, checkpoints and certified state transfer); this package
adds only what sits *above* the groups: the deterministic key→shard map
(:mod:`repro.shard.keymap`), the multi-group genesis artifact
(:mod:`repro.shard.genesis`), the routing client
(:mod:`repro.shard.client`), subprocess orchestration
(:mod:`repro.shard.cluster`), the deterministic in-process twin
(:mod:`repro.shard.loopback`) and the two checks that span shards
(:mod:`repro.shard.verdict`). See docs/SHARDING.md.
"""

from repro.shard.client import ShardedNetClient
from repro.shard.cluster import (
    ShardClusterError,
    ShardedLocalCluster,
    make_shard_genesis,
    run_shard_smoke,
)
from repro.shard.genesis import ShardGenesis
from repro.shard.keymap import (
    key_for_shard,
    key_weight,
    route_counts,
    shard_of,
    shard_seed,
)
from repro.shard.loopback import (
    ShardedLoopbackCluster,
    loopback_scaling_cell,
    loopback_shard_genesis,
    run_loopback_smoke,
    smoke_json,
)

__all__ = [
    "ShardClusterError",
    "ShardGenesis",
    "ShardedLocalCluster",
    "ShardedLoopbackCluster",
    "ShardedNetClient",
    "key_for_shard",
    "key_weight",
    "loopback_scaling_cell",
    "loopback_shard_genesis",
    "make_shard_genesis",
    "route_counts",
    "run_loopback_smoke",
    "run_shard_smoke",
    "shard_of",
    "shard_seed",
    "smoke_json",
]
