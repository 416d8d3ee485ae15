"""Tests: the multi-group genesis artifact and its structural isolation.

A :class:`~repro.shard.genesis.ShardGenesis` pins a whole sharded
deployment in one validated, content-addressed JSON document. The load-
bearing properties: each derived per-shard genesis has its own name,
seed and content hash (so key material and hello MACs are disjoint
across shards — misrouted replicas *cannot* talk), every shard-local
constraint is enforced by the unmodified single-group validator, and
malformed documents raise :class:`ConfigurationError` (CLI exit 2).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.shard.genesis import ShardGenesis
from repro.shard.keymap import shard_seed


def _addresses(n_shards: int, replicas: int = 4, base: int = 21000):
    return tuple(
        tuple(("127.0.0.1", base + shard * 100 + pid) for pid in range(replicas))
        for shard in range(n_shards)
    )


def _genesis(n_shards: int = 2, **overrides) -> ShardGenesis:
    kwargs = {"n_shards": n_shards, "addresses": _addresses(n_shards)}
    kwargs.update(overrides)
    return ShardGenesis(**kwargs)


class TestValidation:
    def test_valid_document_passes(self):
        _genesis().validate()

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            _genesis(name="").validate()

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            _genesis(0, addresses=()).validate()

    def test_rejects_address_shard_mismatch(self):
        with pytest.raises(ConfigurationError):
            _genesis(2, addresses=_addresses(3)).validate()

    def test_rejects_short_replica_group(self):
        bad = (_addresses(2)[0][:3], _addresses(2)[1])
        with pytest.raises(ConfigurationError):
            _genesis(2, addresses=bad).validate()

    def test_rejects_cross_shard_duplicate_address(self):
        group = _addresses(1)[0]
        with pytest.raises(ConfigurationError, match="assigned to both"):
            _genesis(2, addresses=(group, group)).validate()

    def test_shard_local_constraints_apply(self):
        # The single-group validator runs per derived genesis: a client
        # budget of zero is illegal there, hence here.
        with pytest.raises(ConfigurationError):
            _genesis(max_clients=0).validate()


class TestDerivedGenesis:
    def test_each_shard_gets_its_own_name_seed_and_id(self):
        genesis = _genesis(3, addresses=_addresses(3), name="prod", seed=7)
        derived = [genesis.genesis_for(shard) for shard in range(3)]
        assert [g.name for g in derived] == ["prod/s0", "prod/s1", "prod/s2"]
        assert [g.seed for g in derived] == [shard_seed(7, s) for s in range(3)]
        assert len({g.genesis_id() for g in derived}) == 3

    def test_knobs_pass_through(self):
        genesis = _genesis(batch_size=16, window=8, checkpoint_interval=6)
        sub = genesis.genesis_for(0)
        assert sub.batch_size == 16
        assert sub.window == 8
        assert sub.checkpoint_interval == 6
        assert sub.n_replicas == genesis.replicas_per_shard

    def test_out_of_range_shard_raises(self):
        genesis = _genesis()
        with pytest.raises(ConfigurationError):
            genesis.genesis_for(2)
        with pytest.raises(ConfigurationError):
            genesis.genesis_for(-1)


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        genesis = _genesis(seed=42, batch_size=16, key_space=32)
        path = genesis.save(tmp_path / "shard-genesis.json")
        reloaded = ShardGenesis.load(path)
        assert reloaded == genesis
        assert reloaded.shard_genesis_id() == genesis.shard_genesis_id()

    def test_content_hash_tracks_content(self):
        assert (
            _genesis(seed=1).shard_genesis_id()
            != _genesis(seed=2).shard_genesis_id()
        )

    def test_rejects_unknown_keys(self):
        data = _genesis().to_json()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown shard genesis"):
            ShardGenesis.from_json(data)

    def test_rejects_non_object_document(self):
        with pytest.raises(ConfigurationError):
            ShardGenesis.from_json([1, 2, 3])

    def test_rejects_malformed_addresses(self):
        data = _genesis().to_json()
        data["addresses"] = [["not-a-pair"]]
        with pytest.raises(ConfigurationError):
            ShardGenesis.from_json(data)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardGenesis.load(tmp_path / "absent.json")

    def test_load_invalid_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            ShardGenesis.load(bad)
