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
