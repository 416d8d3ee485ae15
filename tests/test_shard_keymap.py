"""Tests: the deterministic key→shard map (docs/SHARDING.md).

The map is the only cross-shard agreement a sharded deployment needs,
so these properties carry the whole routing contract: every participant
— any process, any run, any machine — computes the same shard for a key
(sha256, not Python's salted ``hash``), every key lands in exactly one
shard, the load spreads within a constant factor of perfect balance,
and the map survives a shard genesis JSON round-trip unchanged.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.shard.genesis import ShardGenesis
from repro.shard.keymap import (
    key_for_shard,
    key_weight,
    route_counts,
    shard_of,
    shard_seed,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestShardOf:
    @given(st.text(max_size=64), st.integers(min_value=1, max_value=64))
    def test_total_and_in_range(self, key, n_shards):
        shard = shard_of(key, n_shards)
        assert 0 <= shard < n_shards

    @given(st.text(max_size=64), st.integers(min_value=1, max_value=64))
    def test_deterministic_across_calls(self, key, n_shards):
        assert shard_of(key, n_shards) == shard_of(key, n_shards)

    @given(st.text(max_size=64))
    def test_one_shard_routes_everything_to_zero(self, key):
        assert shard_of(key, 1) == 0

    @given(st.text(max_size=64))
    def test_weight_is_the_sha256_prefix(self, key):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        assert key_weight(key) == int.from_bytes(digest[:8], "big")

    def test_rejects_empty_shard_space(self):
        with pytest.raises(ConfigurationError):
            shard_of("k", 0)
        with pytest.raises(ConfigurationError):
            shard_of("k", -3)

    def test_deterministic_across_processes(self):
        """The routing contract: a fresh interpreter computes the same
        shards (guards against anything hash-seed dependent creeping in)."""
        keys = [f"k{i}" for i in range(32)] + ["", "sentinel-7-0", "α/β"]
        local = [shard_of(key, 4) for key in keys]
        script = (
            "from repro.shard.keymap import shard_of\n"
            f"keys = {keys!r}\n"
            "print([shard_of(k, 4) for k in keys])\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "random"},
            check=True,
        )
        assert eval(fresh.stdout.strip()) == local


class TestBalance:
    def test_balance_bound_over_random_sample(self):
        """4096 random keys over 4 shards: every shard within [0.5, 1.5]x
        of the perfect quarter. sha256 behaves like a uniform hash, so
        the bound has astronomically comfortable slack — a failure means
        the map broke, not that we got unlucky."""
        rng = random.Random(20260808)
        keys = [f"key-{rng.getrandbits(48):012x}" for _ in range(4096)]
        counts = route_counts(keys, 4)
        mean = len(keys) / 4
        assert set(counts) == {0, 1, 2, 3}
        assert sum(counts.values()) == len(keys)
        for shard, count in counts.items():
            assert 0.5 * mean <= count <= 1.5 * mean, (shard, count)

    @given(
        st.lists(st.text(max_size=16), max_size=64),
        st.integers(min_value=1, max_value=8),
    )
    def test_route_counts_cover_every_shard_key(self, keys, n_shards):
        counts = route_counts(keys, n_shards)
        assert set(counts) == set(range(n_shards))
        assert sum(counts.values()) == len(keys)


class TestGenesisRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.text(min_size=1, max_size=16), min_size=1, max_size=16),
    )
    def test_routing_stable_through_genesis_json(self, n_shards, keys):
        """shard_of computed via a genesis survives to_json/from_json."""
        addresses = tuple(
            tuple(("127.0.0.1", 20000 + shard * 10 + pid) for pid in range(4))
            for shard in range(n_shards)
        )
        genesis = ShardGenesis(n_shards=n_shards, addresses=addresses)
        reloaded = ShardGenesis.from_json(genesis.to_json())
        for key in keys:
            assert genesis.shard_of(key) == reloaded.shard_of(key)
            assert genesis.shard_of(key) == shard_of(key, n_shards)


class TestKeyForShard:
    def test_finds_a_key_in_every_shard(self):
        for n_shards in (1, 2, 4, 7):
            for shard in range(n_shards):
                key = key_for_shard("probe-", shard, n_shards)
                assert shard_of(key, n_shards) == shard

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ConfigurationError):
            key_for_shard("p-", 2, 2)

    def test_exhausted_scan_raises(self):
        with pytest.raises(ConfigurationError):
            key_for_shard("p-", 63, 64, limit=1)


class TestShardSeed:
    def test_distinct_per_shard(self):
        seeds = {shard_seed(7, shard) for shard in range(64)}
        assert len(seeds) == 64

    def test_distinct_from_base_seed(self):
        assert all(shard_seed(7, shard) != 7 for shard in range(64))
