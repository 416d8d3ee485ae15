"""Tests: the fault-injection campaign harness (``repro.campaign``).

Pins the acceptance properties of the campaign subsystem: deterministic
enumeration, byte-identical artifacts for a fixed master seed, taxonomy
coverage, replayable scenario ids, the shrinking pass, and the CLI's
exit-2 behaviour on invalid configs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import pytest

from repro.byzantine.faults import (
    DetectingModule,
    FailureClass,
    classify_fault_reason,
)
from repro.campaign.artifact import (
    CampaignArtifact,
    read_campaign_jsonl,
    write_campaign_jsonl,
    CampaignArtifactError,
    campaign_to_lines,
    parse_campaign_lines,
)
from repro.campaign.matrix import enumerate_scenarios, campaign_spec
from repro.campaign.oracles import injected_failure_classes
from repro.campaign.runner import run_campaign, run_scenario, record_matches
from repro.campaign.scenario import Scenario
from repro.campaign.shrink import shrink_scenario
from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults.oracle import VERDICT_EXPECTED_VULNERABILITY, VERDICT_FAIL
from repro.faults.plan import FaultPlan
from repro.faults.shrink import violation_kinds, shrink
from repro.mc.config import McConfig

#: A scenario known to violate properties deterministically: the
#: unprotected crash-model protocol facing a value-corrupting Byzantine
#: process (the paper's Figure-2 victim experiment), plus a crash and an
#: exotic delay model so the shrinker has something to remove.
SHRINKABLE = Scenario(
    protocol="hurfin-raynal",
    n=5,
    seed=1,
    attacks=((0, "value-corruption"),),
    crashes=((4, 2.0),),
    delay_model="exponential",
)


@pytest.fixture(scope="module")
def smoke_scenarios():
    return enumerate_scenarios(campaign_spec("smoke"), master_seed=0)


@pytest.fixture(scope="module")
def smoke_result(smoke_scenarios):
    return run_campaign(smoke_scenarios)


class TestEnumeration:
    def test_smoke_preset_size(self, smoke_scenarios):
        assert len(smoke_scenarios) >= 50

    def test_full_preset_meets_acceptance_floor(self):
        full = enumerate_scenarios(campaign_spec("full"), master_seed=0)
        assert len(full) >= 200

    def test_ids_are_unique_and_stable(self, smoke_scenarios):
        ids = [s.scenario_id for s in smoke_scenarios]
        assert len(ids) == len(set(ids))
        again = enumerate_scenarios(campaign_spec("smoke"), master_seed=0)
        assert [s.scenario_id for s in again] == ids

    def test_master_seed_changes_worlds_not_structure(self, smoke_scenarios):
        other = enumerate_scenarios(campaign_spec("smoke"), master_seed=9)
        assert len(other) == len(smoke_scenarios)
        assert [s.scenario_id for s in other] != [
            s.scenario_id for s in smoke_scenarios
        ]

    def test_every_failure_class_is_injected(self, smoke_scenarios):
        covered = set()
        for scenario in smoke_scenarios:
            covered.update(injected_failure_classes(scenario))
        assert covered == {fc.value for fc in FailureClass}

    def test_every_protocol_is_swept(self, smoke_scenarios):
        protocols = {s.protocol for s in smoke_scenarios}
        assert protocols == {
            "hurfin-raynal",
            "chandra-toueg",
            "transformed",
            "transformed-ct",
        }

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            campaign_spec("nope")


class TestScenarioRoundTrip:
    def test_config_round_trips_exactly(self, smoke_scenarios):
        for scenario in smoke_scenarios:
            assert Scenario.from_config(scenario.to_config()) == scenario

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_config({"protocol": "transformed"})  # n missing
        with pytest.raises(ConfigurationError):
            Scenario.from_config(
                {"protocol": "transformed", "n": 4, "seed": "not-a-seed"}
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"protocol": "imaginary"},
            {"n": 0},
            {"attacks": ((7, "mute"),)},
            {"attacks": ((0, "no-such-attack"),)},
            {"attacks": ((0, "mute"),), "crashes": ((0, 1.0),)},
            {"crashes": ((1, -3.0),)},
            {"delay_model": "warp"},
            {"delay_params": (("nope", 1.0),)},
            {"variant": "mystery"},
            {"collusion": "amplified-equivocation"},  # needs F >= 2
            {"attacks": ((0, "mute"), (1, "mute"))},  # exceeds F=1
        ],
    )
    def test_validate_rejects_inconsistencies(self, overrides):
        base = dict(protocol="transformed", n=4, seed=0)
        base.update(overrides)
        with pytest.raises(ConfigurationError):
            Scenario(**base).validate()

    def test_crash_model_rejects_ct_attacks(self):
        scenario = Scenario(
            protocol="chandra-toueg", n=4, attacks=((0, "mute"),)
        )
        with pytest.raises(ConfigurationError):
            scenario.validate()


class TestDeterminism:
    def test_replay_reproduces_a_recorded_verdict(self, smoke_result):
        record = smoke_result.records[7]
        fresh = run_scenario(record.scenario)
        assert record_matches(record.to_record(), fresh)

    def test_full_campaign_is_byte_identical_across_runs(self):
        # The acceptance criterion: >= 200 scenarios, fixed master seed,
        # two complete runs, byte-for-byte identical JSONL.
        scenarios = enumerate_scenarios(campaign_spec("full"), master_seed=42)
        assert len(scenarios) >= 200

        def export() -> str:
            buffer = io.StringIO()
            write_campaign_jsonl(
                buffer, run_campaign(scenarios), meta={"master_seed": 42}
            )
            return buffer.getvalue()

        first, second = export(), export()
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")


class TestOracles:
    def test_smoke_campaign_has_no_unexpected_failures(self, smoke_result):
        assert smoke_result.failures == []
        assert smoke_result.verdict_counts.get(VERDICT_FAIL, 0) == 0

    def test_crash_model_victims_are_expected_vulnerabilities(self, smoke_result):
        vulnerable = [
            r
            for r in smoke_result.records
            if r.verdict == VERDICT_EXPECTED_VULNERABILITY
        ]
        assert vulnerable, "the Figure-2 victim runs must be represented"
        for record in vulnerable:
            assert not record.scenario.is_transformed
            assert record.scenario.attacks

    def test_transformed_attacks_attributed_to_designated_modules(
        self, smoke_result
    ):
        # Every detected attacker is attributed; zero attribution
        # violations is exactly verdict != fail, checked above — here we
        # additionally require the artifact to carry the attribution map.
        attributed = 0
        for record in smoke_result.records:
            if not record.scenario.is_transformed:
                continue
            payload = record.to_record()
            for pid in record.scenario.faulty_pids:
                modules = payload["attribution"].get(str(pid))
                if modules:
                    attributed += 1
                    assert set(modules) <= {
                        "signature",
                        "muteness-detector",
                        "non-muteness-detector",
                        "certification",
                    }
        assert attributed > 0

    @pytest.mark.parametrize(
        "reason, module",
        [
            # repro.consensus.monitor_ct: the CT automaton's own rules.
            (
                "spurious: peer 1 proposed in round 1 without holding the "
                "coordinator seat",
                DetectingModule.NON_MUTENESS_DETECTOR,
            ),
            (
                "misevaluation: a round's coordinator nacked itself",
                DetectingModule.NON_MUTENESS_DETECTOR,
            ),
            # repro.consensus.echo_init: signature checks on RB-delivered
            # INITs, then the variant's behaviour rule.
            (
                "echo-init: RB payload is not a signed INIT",
                DetectingModule.SIGNATURE,
            ),
            (
                "echo-init: RB-delivered INIT claims another process's identity",
                DetectingModule.SIGNATURE,
            ),
            ("echo-init: invalid INIT signature", DetectingModule.SIGNATURE),
            (
                "echo-init: INIT outside reliable broadcast",
                DetectingModule.NON_MUTENESS_DETECTOR,
            ),
        ],
        ids=[
            "ct-spurious",
            "ct-misevaluation",
            "echo-rb-not-signed-init",
            "echo-rb-identity",
            "echo-rb-signature",
            "echo-init-outside-rb",
        ],
    )
    def test_fault_reason_names_the_raising_module(self, reason, module):
        assert classify_fault_reason(reason) is module

    def test_ct_spurious_propose_attributed_to_the_automaton(self):
        record = run_scenario(
            Scenario("transformed-ct", 4, 1, attacks=((1, "ct-spurious-propose"),))
        )
        assert record.verdict == "pass"
        assert "non-muteness-detector" in record.outcome.attribution[1]
        assert "certification" not in record.outcome.attribution[1]

    def test_violation_kinds_views_both_violation_families(self):
        record = {
            "violations": ["attribution: wrong module"],
            "properties": {"violations": ["validity: bad vector"]},
        }
        assert violation_kinds(record) == {"attribution", "validity"}


class TestArtifact:
    def test_round_trip(self, smoke_result, tmp_path):
        path = tmp_path / "campaign.jsonl"
        write_campaign_jsonl(path, smoke_result, meta={"preset": "smoke"})
        artifact = read_campaign_jsonl(path)
        assert artifact.schema == "repro.campaign/v1"
        assert artifact.meta == {"preset": "smoke"}
        assert artifact.ids() == [r.scenario_id for r in smoke_result.records]
        assert artifact.summary == smoke_result.summary()

    def test_scenario_rebuilds_from_recorded_config(self, smoke_result):
        artifact = parse_campaign_lines(campaign_to_lines(smoke_result))
        some_id = smoke_result.records[3].scenario_id
        assert artifact.scenario_for(some_id) == smoke_result.records[3].scenario

    def test_corrupt_config_detected_by_id_hash(self, smoke_result):
        artifact = parse_campaign_lines(campaign_to_lines(smoke_result))
        record = artifact.scenarios[0]
        record["config"]["seed"] = record["config"]["seed"] + 1
        with pytest.raises(CampaignArtifactError, match="corrupt"):
            artifact.scenario_for(record["id"])

    def test_unknown_id_rejected(self):
        with pytest.raises(CampaignArtifactError, match="not present"):
            CampaignArtifact().find("sdeadbeef0000")

    def test_headerless_lines_rejected(self):
        with pytest.raises(CampaignArtifactError, match="header"):
            parse_campaign_lines(['{"kind": "summary", "scenarios": 0}'])

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(CampaignArtifactError, match="cannot read"):
            read_campaign_jsonl(tmp_path / "absent.jsonl")


@pytest.fixture(scope="module")
def lossy_scenarios():
    return enumerate_scenarios(campaign_spec("lossy"), master_seed=0)


@pytest.fixture(scope="module")
def partition_scenarios():
    return enumerate_scenarios(campaign_spec("partition"), master_seed=0)


class TestLinkFaultPresets:
    def test_lossy_preset_shape(self, lossy_scenarios):
        assert len(lossy_scenarios) == 12
        for scenario in lossy_scenarios:
            assert scenario.protocol == "transformed"
            assert scenario.transport == "reliable"
            assert scenario.muteness == "adaptive"
            assert scenario.has_link_faults
            assert scenario.loss > 0

    def test_partition_preset_shape(self, partition_scenarios):
        assert len(partition_scenarios) == 6
        for scenario in partition_scenarios:
            assert scenario.partitions == ((40.0, 120.0, "0,1|2,3"),)
            assert scenario.transport == "reliable"

    def test_presets_cover_combined_link_and_byzantine_faults(
        self, lossy_scenarios, partition_scenarios
    ):
        # The attribution oracle must be exercised with link faults AND a
        # Byzantine attacker at the same time, in both families.
        assert any(s.attacks for s in lossy_scenarios)
        assert any(s.attacks for s in partition_scenarios)

    @staticmethod
    def _export(result) -> str:
        buffer = io.StringIO()
        write_campaign_jsonl(buffer, result, meta={"master_seed": 0})
        return buffer.getvalue()

    def test_lossy_campaign_passes_and_is_byte_identical(self, lossy_scenarios):
        first, second = run_campaign(lossy_scenarios), run_campaign(lossy_scenarios)
        assert first.failures == []
        assert first.verdict_counts == {"pass": 12}
        assert self._export(first) == self._export(second)

    def test_partition_campaign_passes_and_is_byte_identical(
        self, partition_scenarios
    ):
        first = run_campaign(partition_scenarios)
        second = run_campaign(partition_scenarios)
        assert first.failures == []
        assert first.verdict_counts == {"pass": 6}
        assert self._export(first) == self._export(second)

    def test_link_fault_records_carry_wire_accounting(self, lossy_scenarios):
        record = run_scenario(lossy_scenarios[0])
        assert record.verdict == "pass"
        assert record.messages_dropped > 0
        assert record.retransmissions > 0
        payload = record.to_record()
        assert payload["run"]["messages_dropped"] == record.messages_dropped
        assert payload["run"]["retransmissions"] == record.retransmissions

    def test_link_fault_config_round_trips(self, lossy_scenarios, partition_scenarios):
        for scenario in list(lossy_scenarios) + list(partition_scenarios):
            assert Scenario.from_config(scenario.to_config()) == scenario

    @pytest.mark.parametrize(
        "overrides",
        [
            {"loss": 1.0},
            {"dup": -0.1},
            {"reorder": 1.5},
            {"partitions": ((10.0, 10.0, "0,1|2,3"),)},
            {"partitions": ((-1.0, 5.0, "0,1|2,3"),)},
            {"partitions": ((0.0, 5.0, "0,1,2,3"),)},  # single side
            {"partitions": ((0.0, 5.0, "0,1|1,2"),)},  # repeated pid
            {"partitions": ((0.0, 5.0, "0,0|1,2"),)},  # repeated in a side
            {"partitions": ((0.0, 5.0, "0,1|2,9"),)},  # pid out of range
            {"partitions": ((0.0, 5.0, "0,1|x"),)},  # malformed groups
            {"transport": "carrier-pigeon"},
            {"muteness": "psychic"},
        ],
    )
    def test_validate_rejects_bad_link_faults(self, overrides):
        base = dict(protocol="transformed", n=4, seed=0)
        base.update(overrides)
        with pytest.raises(ConfigurationError):
            Scenario(**base).validate()

    def test_muteness_detector_needs_transformed_protocol(self):
        scenario = Scenario(protocol="chandra-toueg", n=4, muteness="adaptive")
        with pytest.raises(ConfigurationError):
            scenario.validate()

    def test_without_link_faults_restores_pristine_wire(self, lossy_scenarios):
        scenario = lossy_scenarios[3]
        healed = scenario.without_link_faults()
        assert not healed.has_link_faults
        assert healed.transport == "none"
        assert healed.build_link_model() is None
        assert healed.seed == scenario.seed  # only the wire changed

    def test_shrink_heals_irrelevant_link_faults(self):
        # The Figure-2 victim fails with or without a faulty wire, so the
        # shrinker must strip the link faults from the counterexample.
        from dataclasses import replace

        noisy = replace(SHRINKABLE, loss=0.1, dup=0.05, transport="reliable")
        result = shrink_scenario(noisy)
        assert not result.minimal.has_link_faults
        assert any("heal all link faults" in step for step in result.steps)


class TestShrink:
    def test_shrinks_to_minimal_counterexample(self):
        result = shrink_scenario(SHRINKABLE)
        assert result.shrunk
        minimal = result.minimal
        # The crash, the big system, the exotic delay and the seed are
        # all noise; the single attacker is the counterexample.
        assert minimal.attacks == ((0, "value-corruption"),)
        assert minimal.crashes == ()
        assert minimal.n < SHRINKABLE.n
        assert minimal.delay_model == "fixed"
        assert minimal.seed == 0
        # Same failure signature before and after.
        base = run_scenario(SHRINKABLE)
        assert violation_kinds(result.outcome.to_record()) == violation_kinds(
            base.to_record()
        )

    def test_shrink_is_deterministic(self):
        first = shrink_scenario(SHRINKABLE)
        second = shrink_scenario(SHRINKABLE)
        assert first.minimal == second.minimal
        assert first.steps == second.steps
        assert first.runs == second.runs

    def test_passing_scenario_refuses_to_shrink(self):
        passing = Scenario(protocol="transformed", n=4, seed=0)
        with pytest.raises(ConfigurationError, match="does not fail"):
            shrink_scenario(passing)


@dataclass(frozen=True)
class _Bag:
    """A world-free shrink candidate: a set of named items."""

    items: frozenset[str]

    def validate(self) -> None:
        if "invalid" in self.items:
            raise ConfigurationError("an invalid candidate")


def _drop_one(bag: _Bag):
    """Neighbours in name order: drop one item, or (first of all) swap
    the first item for an invalid one."""
    if bag.items:
        first = min(bag.items)
        yield "poison", _Bag(bag.items - {first} | {"invalid"})
    for item in sorted(bag.items):
        yield item, _Bag(bag.items - {item})


class TestShrinkLoop:
    """The one delta-debugging loop, with a fake probe and no world: a
    bag fails (kind ``progress``) while it holds ``culprit``."""

    START = _Bag(frozenset({"a", "culprit", "z"}))

    @staticmethod
    def _probe(probed: list[_Bag]):
        def probe(bag: _Bag):
            probed.append(bag)
            kinds = frozenset({"progress"}) if "culprit" in bag.items else frozenset()
            return kinds, sorted(bag.items)

        return probe

    def test_shrinks_to_the_culprit(self):
        probed: list[_Bag] = []
        result = shrink(self.START, _drop_one, self._probe(probed))
        assert result.minimal == _Bag(frozenset({"culprit"}))
        assert result.kinds == frozenset({"progress"})
        assert result.outcome == ["culprit"]
        assert result.steps == ("a", "z")
        assert result.shrunk and result.runs == len(probed)

    def test_budget_bounds_the_runs(self):
        probed: list[_Bag] = []
        result = shrink(self.START, _drop_one, self._probe(probed), budget=2)
        assert result.runs == len(probed) == 2
        assert result.steps == ("a",)

    def test_restarts_from_each_adopted_candidate(self):
        asked: list[_Bag] = []

        def neighbours(bag: _Bag):
            asked.append(bag)
            yield from _drop_one(bag)

        result = shrink(self.START, neighbours, self._probe([]))
        # One generator per adopted candidate: the old one is abandoned.
        assert asked == [
            self.START,
            _Bag(frozenset({"culprit", "z"})),
            _Bag(frozenset({"culprit"})),
        ]
        assert result.minimal == asked[-1]

    def test_invalid_neighbours_are_skipped_unrun(self):
        probed: list[_Bag] = []
        shrink(self.START, _drop_one, self._probe(probed))
        assert all("invalid" not in bag.items for bag in probed)

    def test_same_result_twice(self):
        first = shrink(self.START, _drop_one, self._probe([]))
        assert shrink(self.START, _drop_one, self._probe([])) == first

    def test_passing_start_returns_after_one_run(self):
        probed: list[_Bag] = []
        start = _Bag(frozenset({"a", "b"}))
        result = shrink(start, _drop_one, self._probe(probed))
        assert result.kinds == frozenset()
        assert result.minimal == start and result.runs == 1 == len(probed)


class TestContentIds:
    def test_every_family_keeps_its_id(self):
        # One pinned id per id family; the hash of the canonical config
        # is the artifact's address, so none of these may ever move.
        assert (
            Scenario(
                protocol="transformed", n=4, seed=3, attacks=((0, "mute"),)
            ).scenario_id
            == "s89470d56ccbc"
        )
        assert (
            FaultPlan(name="pinned", seed=5, mutes=((1, 2.0),)).plan_id
            == "f18a2b6e7522f"
        )
        assert (
            FaultPlan(
                name="pinned-zoo", seed=5, suppressions=((1, 0.5, 2.0, 2.5),)
            ).plan_id
            == "f8f434aacf368"
        )
        assert McConfig().config_id == "mc327c3c9c67a6"


class TestCli:
    def test_campaign_list_exit_zero(self, capsys):
        assert main(["campaign", "list", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "55 scenarios" in out

    def test_campaign_run_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "c.jsonl"
        code = main(
            [
                "campaign",
                "run",
                "--preset",
                "smoke",
                "--max-scenarios",
                "6",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        artifact = read_campaign_jsonl(out_path)
        assert len(artifact.scenarios) == 6
        capsys.readouterr()

    def test_campaign_replay_matches_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "c.jsonl"
        main(
            [
                "campaign",
                "run",
                "--preset",
                "smoke",
                "--max-scenarios",
                "3",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        target = read_campaign_jsonl(out_path).ids()[0]
        code = main(["campaign", "replay", target, "--artifact", str(out_path)])
        assert code == 0
        assert "matches the artifact" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "run", "--preset", "nope"],
            ["campaign", "run", "--preset", "smoke", "--max-scenarios", "0"],
            ["campaign", "replay", "sdeadbeef0000", "--artifact", "/no/file"],
            ["run", "--protocol", "transformed", "--crash", "0:soon"],
            ["run", "--protocol", "transformed", "--attack", "juststring"],
        ],
    )
    def test_invalid_configs_exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # The zoo is `campaign faults --preset zoo-smoke`; the service
            # campaign is gone (`service run` is judged like any plan),
            # and so is the net smoke (`--preset net-smoke --fidelity net`).
            ["campaign", "zoo", "--preset", "smoke"],
            ["service", "campaign", "--preset", "smoke"],
            ["campaign", "service", "--preset", "smoke"],
            ["net", "cluster", "--replicas", "4", "--kill", "2"],
        ],
    )
    def test_retired_verbs_do_not_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_malformed_partition_groups_exit_two(self, capsys):
        argv = ["run", "--protocol", "transformed", "--partition"]
        assert main(argv + ["0:5:0,1|x"]) == 2
        assert main(argv + ["0:5:0,1|1,2"]) == 2
        assert "partition" in capsys.readouterr().err
