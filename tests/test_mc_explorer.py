"""Tests: the small-scope model checker (repro.mc).

Covers the four contracts docs/MODELCHECK.md promises:

* **Determinism** — a fixed config yields a byte-identical
  ``repro.mc/v1`` artifact on every run, and an interrupted exploration
  resumed from its truncated artifact converges to the same bytes;
* **Digest hygiene** — the crypto verdict caches never leak into state
  digests: a bounded run visits the identical digest set with caching
  on and off;
* **Soundness** — the unmutated protocol has no reachable violation in
  the bounded scope, with or without the scripted adversary;
* **Sensitivity (the checker self-test)** — the shipped known-bad
  mutation (a decision guard that accepts any CURRENT quorum) is found
  by the depth-first hunt, replays against the live stack, and the
  emitted counterexample scenario shrinks in a handful of steps.
"""

from __future__ import annotations

import json

import pytest

from repro.crypto.cache import caching_disabled
from repro.errors import ConfigurationError, ProtocolError
from repro.mc.config import McConfig
from repro.mc.digest import state_digest
from repro.mc.explorer import (
    ARTIFACT_FORMAT,
    Explorer,
    counterexample_scenario,
)
from repro.mc.mutations import ACCEPT_ANY_CURRENT_QUORUM, apply_mutation
from repro.mc.predicates import check_state
from repro.mc.stepper import Stepper
from repro.observability.registry import MODULE_MC, MetricsRegistry

#: The bounded sweep most tests use: ~80 states, well under a second.
SWEEP = McConfig(max_depth=2)

#: The counterexample hunt of docs/MODELCHECK.md: a depth-first dive
#: with an equivocating coordinator under the known-bad mutation.
HUNT = McConfig(
    strategy="dfs",
    adversary=0,
    alphabet=("equivocate-current",),
    mutation=ACCEPT_ANY_CURRENT_QUORUM,
    stop_on_violation=True,
    max_depth=40,
    max_rounds=3,
)


class TestConfig:
    def test_round_trips_through_config(self):
        assert McConfig.from_config(HUNT.to_config()) == HUNT

    def test_config_id_is_stable(self):
        assert HUNT.config_id == McConfig.from_config(HUNT.to_config()).config_id

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n=5),
            dict(f=2),
            dict(alphabet=("equivocate-current",)),  # alphabet, no seat
            dict(adversary=1),  # seat, no alphabet
            dict(adversary=9, alphabet=("mute",)),
            dict(adversary=0, alphabet=("no-such-action",)),
            dict(strategy="random-walk"),
            dict(mutation="no-such-mutation"),
            dict(max_depth=0),
            dict(max_states=0),
            dict(adversary=0, alphabet=("suppress-d",), suppress_d=0),
            dict(adversary=0, alphabet=("suppress-d",), suppress_d=4),
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            McConfig(**bad).validate()


class TestStepper:
    def test_replay_reaches_the_same_digest(self):
        a = Stepper(SWEEP)
        path = []
        for _ in range(8):
            label = a.enabled()[0]
            a.apply(label)
            path.append(label)
        b = Stepper.replay(SWEEP, path)
        assert state_digest(a.system) == state_digest(b.system)

    def test_first_label_run_decides_without_violations(self):
        stepper = Stepper(McConfig(max_depth=64, max_rounds=4))
        for _ in range(200):
            labels = stepper.enabled()
            if not labels:
                break
            stepper.apply(labels[0])
        decisions = stepper.system.decisions()
        assert len(decisions) == 4
        assert len(set(decisions.values())) == 1
        assert check_state(stepper.system) == []

    def test_disabled_labels_raise(self):
        stepper = Stepper(SWEEP)
        with pytest.raises(ProtocolError):
            stepper.apply(("mute",))  # no adversary seat configured
        with pytest.raises(ProtocolError):
            stepper.apply(("bogus",))


class TestDeterminism:
    def test_artifacts_are_byte_identical_across_runs(self, tmp_path):
        metrics = MetricsRegistry()
        first = Explorer(SWEEP, tmp_path / "a.jsonl", metrics=metrics).run()
        second = Explorer(SWEEP, tmp_path / "b.jsonl").run()
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()
        assert first.visited == second.visited
        assert first.stop_reason == "max-depth"
        assert metrics.counter_total(MODULE_MC, "mc_states_explored") == (
            first.states_explored
        )
        assert metrics.counter_total(MODULE_MC, "mc_states_pruned") == (
            first.states_pruned
        )

    def test_resume_converges_to_the_straight_run_bytes(self, tmp_path):
        full = Explorer(SWEEP, tmp_path / "full.jsonl").run()
        straight = (tmp_path / "full.jsonl").read_bytes()
        lines = [line for line in straight.split(b"\n") if line]
        header = json.loads(lines[0])
        assert header["format"] == ARTIFACT_FORMAT
        # Interrupt after the first complete layer, plus a torn write.
        partial = b"\n".join(lines[:2]) + b'\n{"type":"lay'
        (tmp_path / "part.jsonl").write_bytes(partial)
        resumed = Explorer.resume(tmp_path / "part.jsonl")
        assert (tmp_path / "part.jsonl").read_bytes() == straight
        assert resumed.visited == full.visited

    def test_resume_of_a_finished_artifact_reports_without_exploring(
        self, tmp_path
    ):
        full = Explorer(SWEEP, tmp_path / "done.jsonl").run()
        before = (tmp_path / "done.jsonl").read_bytes()
        again = Explorer.resume(tmp_path / "done.jsonl")
        assert (tmp_path / "done.jsonl").read_bytes() == before
        assert again.states_explored == full.states_explored
        assert again.stop_reason == full.stop_reason


class TestCacheEquivalence:
    def test_visited_digests_identical_with_caching_off(self, tmp_path):
        cached = Explorer(SWEEP, tmp_path / "cached.jsonl").run()
        with caching_disabled():
            uncached = Explorer(SWEEP, tmp_path / "uncached.jsonl").run()
        assert cached.visited == uncached.visited
        assert (tmp_path / "cached.jsonl").read_bytes() == (
            tmp_path / "uncached.jsonl"
        ).read_bytes()


class TestSoundness:
    def test_unmutated_adversary_sweep_is_clean(self, tmp_path):
        config = McConfig(
            adversary=0, alphabet=("equivocate-current",), max_depth=2
        )
        result = Explorer(config, tmp_path / "clean.jsonl").run()
        assert result.violations == []
        assert result.states_explored > 0


class TestSuppressD:
    """The zoo's message adversary at model-checker scale."""

    CONFIG = McConfig(
        adversary=0,
        alphabet=("suppress-d",),
        max_depth=64,
        max_rounds=4,
        suppress_d=1,
    )

    def _drive_to_suppress(self) -> Stepper:
        stepper = Stepper(self.CONFIG)
        for _ in range(200):
            labels = stepper.enabled()
            if not labels:
                pytest.fail("suppress never became enabled")
            if labels[0][0] == "suppress":
                return stepper
            stepper.apply(labels[0])
        pytest.fail("suppress never became enabled")

    def test_budget_is_per_round(self):
        stepper = self._drive_to_suppress()
        target = next(l for l in stepper.enabled() if l[0] == "suppress")
        stepper.apply(target)
        # d=1: the round's budget is spent, the label family vanishes.
        assert stepper.suppressed == {1: 1}
        assert all(l[0] != "suppress" for l in stepper.enabled())

    def test_replay_reaches_the_same_digest(self):
        stepper = self._drive_to_suppress()
        target = next(l for l in stepper.enabled() if l[0] == "suppress")
        stepper.apply(target)
        twin = Stepper.replay(self.CONFIG, stepper.path)
        assert state_digest(twin.system) == state_digest(stepper.system)
        assert twin.suppressed == stepper.suppressed

    def test_unmutated_suppress_sweep_is_clean(self, tmp_path):
        config = McConfig(
            adversary=0, alphabet=("suppress-d",), max_depth=3
        )
        result = Explorer(config, tmp_path / "suppress.jsonl").run()
        assert result.violations == []
        assert result.states_explored > 0


class TestSensitivity:
    def test_known_bad_mutation_is_found_and_shrinks(self, tmp_path):
        from repro.campaign.shrink import shrink_scenario

        result = Explorer(HUNT, tmp_path / "hunt.jsonl").run()
        assert result.stop_reason == "violation"
        violation = result.violations[0]
        assert "certificate validity" in violation.kinds()

        # The recorded path replays against the live (mutated) stack.
        with apply_mutation(HUNT.mutation):
            stepper = Stepper.replay(HUNT, violation.path)
            assert sorted(check_state(stepper.system)) == sorted(
                violation.violations
            )
            scenario = counterexample_scenario(HUNT, violation.path)
            shrink = shrink_scenario(scenario)
        assert len(shrink.steps) <= 5
        assert shrink.minimal.attacks == ((0, "equivocate-current"),)

    def test_hunt_artifact_is_byte_identical_across_runs(self, tmp_path):
        Explorer(HUNT, tmp_path / "h1.jsonl").run()
        Explorer(HUNT, tmp_path / "h2.jsonl").run()
        assert (tmp_path / "h1.jsonl").read_bytes() == (
            tmp_path / "h2.jsonl"
        ).read_bytes()
