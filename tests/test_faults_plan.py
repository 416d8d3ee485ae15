"""Tests: fault-plan schema, ids, validation and schema-version gates.

Covers the fidelity-neutral scenario document of ``repro.faults``
(docs/FAULTS.md): JSON round-trips, content-hash id stability, the
validation guard rails, the shared injector's determinism, and the
forward-compatibility gates — a plan or campaign artifact written by a
*newer* schema than the installed code must fail as a configuration
error (CLI exit 2), never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.certificates import SignedMessage
from repro.errors import ConfigurationError
from repro.faults.injector import LinkFaultInjector, flip_signed_payload
from repro.faults.plan import FAULTS_SCHEMA, FaultPlan, check_faults_schema
from repro.faults.presets import FAULT_PRESETS
from repro.messages.consensus import Init, VCurrent
from repro.service.messages import SlotEnvelope
from tests.helpers import SignedWorkbench


class TestRoundTrip:
    def test_config_round_trip_preserves_identity(self):
        plan = FaultPlan(
            name="rt",
            seed=5,
            requests=12,
            duration=9.0,
            mutes=((1, 2.0),),
            kills=(),
            partitions=((1.0, 3.0, "0,1|2,3"),),
            loss=0.01,
            flips=((2, 1.0, 2),),
        )
        clone = FaultPlan.from_config(plan.to_config())
        assert clone == plan
        assert clone.plan_id == plan.plan_id

    def test_plan_id_is_stable_content_hash(self):
        plan = FaultPlan(name="stable", seed=3)
        assert plan.plan_id.startswith("f")
        assert len(plan.plan_id) == 13
        assert plan.plan_id == FaultPlan(name="stable", seed=3).plan_id
        assert plan.plan_id != FaultPlan(name="stable", seed=4).plan_id

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(name="disk", seed=7, kills=((2, 3.0, 6.0),))
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded == plan
        document = json.loads(path.read_text())
        # A plan without zoo clauses is v1-expressible and is tagged with
        # the lowest schema version able to express it.
        assert document["schema"] == "repro.faults/v1"
        assert document["schema"] == plan.schema_tag

    def test_presets_validate_and_have_distinct_ids(self):
        for name, plans in FAULT_PRESETS.items():
            ids = set()
            for plan in plans:
                plan.validate()
                ids.add(plan.plan_id)
            assert len(ids) == len(plans), name


class TestValidation:
    def test_pid_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(mutes=((9, 1.0),)).validate()

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(loss=1.0).validate()

    def test_partition_must_heal_inside_the_window(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(
                duration=5.0, partitions=((1.0, 6.0, "0,1|2,3"),)
            ).validate()

    def test_rejoin_before_kill(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(kills=((1, 5.0, 2.0),)).validate()

    def test_unknown_attack_name(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(collusion=((1, "no-such-attack"),)).validate()

    def test_flip_sender_must_be_correct(self):
        # The bit-flip family corrupts a *correct* sender's traffic; the
        # same pid cannot also be a process fault.
        with pytest.raises(ConfigurationError):
            FaultPlan(mutes=((1, 2.0),), flips=((1, 1.0, 1),)).validate()

    def test_too_many_process_faults(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(
                mutes=((0, 1.0),), kills=((1, 2.0, None),)
            ).validate()


class TestSchemaGate:
    def test_current_schema_accepted(self):
        check_faults_schema(FAULTS_SCHEMA)

    def test_v1_schema_still_accepted(self):
        check_faults_schema("repro.faults/v1")

    def test_newer_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="newer than"):
            check_faults_schema("repro.faults/v3")

    def test_alien_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            check_faults_schema("repro.campaign/v1")

    def test_loading_a_v3_plan_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"schema": "repro.faults/v3", "config": {"name": "future"}}
            )
        )
        with pytest.raises(ConfigurationError, match="newer than"):
            FaultPlan.load(path)

    def test_cli_exits_2_on_a_v3_plan(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"schema": "repro.faults/v3", "config": {"name": "future"}}
            )
        )
        assert main(["campaign", "faults", "--plan", str(path)]) == 2


class TestCampaignArtifactVersionGate:
    def test_replay_exits_2_on_a_newer_campaign_artifact(self, tmp_path):
        # A v2 artifact from some future release: `campaign replay` must
        # exit 2 (configuration error), not crash with a traceback.
        path = tmp_path / "future.jsonl"
        lines = [
            {"kind": "header", "schema": "repro.campaign/v2", "meta": {}},
            {"kind": "summary", "scenarios": 0},
        ]
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n"
        )
        assert (
            main(
                [
                    "campaign", "replay", "s000000000000",
                    "--artifact", str(path),
                ]
            )
            == 2
        )

    def test_replay_exits_2_on_garbage_schema(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "schema": "repro.campaign/vX", "meta": {}}
            )
            + "\n"
        )
        assert (
            main(
                [
                    "campaign", "replay", "s000000000000",
                    "--artifact", str(path),
                ]
            )
            == 2
        )


class TestFlipFamily:
    def _signed_current(self) -> SignedMessage:
        bench = SignedWorkbench(4)
        body = VCurrent(
            sender=0, round=1, est_vect=bench.vector_for([0, 1, 2])
        )
        return bench.authorities[0].make(body)

    def test_flip_inverts_the_round_and_keeps_the_signature(self):
        signed = self._signed_current()
        flipped = flip_signed_payload(signed)
        assert flipped is not None
        assert flipped.body.round == signed.body.round ^ 1
        assert flipped.signature == signed.signature
        bench = SignedWorkbench(4)
        assert bench.verify(signed)
        assert not bench.verify(flipped)

    def test_flip_recurses_into_slot_envelopes(self):
        signed = self._signed_current()
        envelope = SlotEnvelope(slot=3, inner=signed)
        flipped = flip_signed_payload(envelope)
        assert flipped is not None
        assert flipped.slot == 3
        assert flipped.inner.body.round == signed.body.round ^ 1

    def test_only_current_bodies_are_eligible(self):
        bench = SignedWorkbench(4)
        init = bench.signed_init(0)
        assert flip_signed_payload(init) is None
        assert flip_signed_payload("not a message") is None


class TestInjectorDeterminism:
    def test_identical_plans_draw_identical_link_streams(self):
        plan = FaultPlan(
            name="det", seed=21, loss=0.3, duplication=0.2, reorder=0.4
        )
        first = LinkFaultInjector(plan)
        second = LinkFaultInjector(plan)

        def trace(injector):
            decisions = []
            for step in range(50):
                src, dst = step % 4, (step + 1) % 4
                out = injector.plan_deliveries(0.5, src, dst, f"m{step}")
                decisions.append(
                    None if out is None else [(p, d) for p, d in out]
                )
            return decisions

        assert trace(first) == trace(second)

    def test_per_link_streams_are_independent_of_consumption_order(self):
        # Fidelity 3 splits the injector per process: each replica only
        # consumes its own outbound links. Draw order across *different*
        # links must therefore not matter.
        plan = FaultPlan(name="split", seed=22, loss=0.5)
        whole = LinkFaultInjector(plan)
        split = LinkFaultInjector(plan)
        # Interleaved consumption on the whole injector...
        interleaved = {(0, 1): [], (2, 3): []}
        for step in range(20):
            interleaved[0, 1].append(
                whole.plan_deliveries(1.0, 0, 1, f"a{step}")
            )
            interleaved[2, 3].append(
                whole.plan_deliveries(1.0, 2, 3, f"b{step}")
            )
        # ...versus sequential consumption, one link at a time.
        sequential = {
            (0, 1): [
                split.plan_deliveries(1.0, 0, 1, f"a{step}")
                for step in range(20)
            ],
            (2, 3): [
                split.plan_deliveries(1.0, 2, 3, f"b{step}")
                for step in range(20)
            ],
        }
        assert interleaved == sequential
        assert any(out == [] for out in interleaved[0, 1])  # losses drawn

    def test_muted_pid_swallows_both_directions(self):
        plan = FaultPlan(name="mute", seed=1, mutes=((1, 2.0),))
        injector = LinkFaultInjector(plan)
        assert injector.plan_deliveries(1.0, 1, 0, "early") is None
        assert injector.plan_deliveries(3.0, 1, 0, "from-muted") == []
        assert injector.plan_deliveries(3.0, 0, 1, "to-muted") == []

    def test_partition_withholds_until_the_heal_instant(self):
        plan = FaultPlan(
            name="part", seed=1, partitions=((2.0, 5.0, "0,1|2,3"),)
        )
        injector = LinkFaultInjector(plan)
        assert injector.plan_deliveries(1.0, 0, 2, "before") is None
        held = injector.plan_deliveries(3.0, 0, 2, "cross")
        assert held == [("cross", 2.0)]  # delivered at the heal, t=5
        assert injector.plan_deliveries(3.0, 0, 1, "same-side") is None
        assert injector.plan_deliveries(5.0, 0, 2, "after") is None
