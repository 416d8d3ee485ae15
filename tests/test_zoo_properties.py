"""Property tests: the adversary zoo's determinism contracts.

Hypothesis sweeps over the contracts docs/ADVERSARIES.md promises and
every fidelity runner depends on:

* **Suppression streams** (family a) are a pure fork derivation off the
  plan seed: the set for ``(clause, src, round)`` is identical across
  suppressor instances and *independent* of query order — one link's
  draws never consume another's randomness (the same contract PR 8
  pinned for the link injector).
* **Burst shaping** (family c) is deterministic and per-link FIFO:
  :func:`burst_hold` is pure, and :class:`BurstShaper` never releases
  two messages on one directed link closer than the FIFO spacing.
* **Corruption streams** (families b, d) are per-(family, pid) forks:
  same coordinates, same garbage; different coordinates, different
  streams.
* **Schema compat**: a zoo-free plan keeps its v1 canonical form (tag,
  config keys, plan_id) and every plan round-trips through
  ``to_config``/``from_config`` unchanged; readers accept v1 and v2
  documents and reject anything newer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults.plan import (
    FAULTS_SCHEMA,
    FAULTS_SCHEMA_V1,
    FaultPlan,
    check_faults_schema,
)
from repro.faults.corruption import (
    FAMILY_STATE_CORRUPTION,
    FAMILY_STORAGE_FLIP,
    corruption_rng,
)
from repro.faults.suppressor import RoundSuppressor
from repro.faults.timing import BURST_FIFO_SPACING, BurstShaper, burst_hold

# -- strategies --------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)
pids = st.integers(0, 3)
plan_times = st.floats(0.0, 20.0, allow_nan=False).map(lambda x: round(x, 3))

suppression_clauses = st.lists(
    st.tuples(
        st.integers(1, 3),  # d
        st.floats(0.1, 2.0, allow_nan=False).map(lambda x: round(x, 3)),
        plan_times,
        plan_times,
    ),
    min_size=1,
    max_size=3,
).map(tuple)

timing_clauses = st.lists(
    st.tuples(
        pids,
        plan_times,
        plan_times,
        st.floats(0.5, 5.0, allow_nan=False).map(lambda x: round(x, 3)),
    ),
    max_size=2,
).map(tuple)


def suppression_plan(seed: int, clauses) -> FaultPlan:
    return FaultPlan(
        name="prop-suppress", seed=seed, suppressions=clauses
    )


# -- family (a): suppression streams -----------------------------------------


class TestSuppressionStreams:
    @given(seeds, suppression_clauses, pids, st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_deterministic_across_instances(
        self, seed, clauses, src, round_index
    ):
        plan = suppression_plan(seed, clauses)
        a = RoundSuppressor(plan)
        b = RoundSuppressor(plan)
        for clause in range(len(clauses)):
            assert a.suppression_set(clause, src, round_index) == (
                b.suppression_set(clause, src, round_index)
            )

    @given(seeds, suppression_clauses)
    @settings(max_examples=50, deadline=None)
    def test_independent_of_query_order(self, seed, clauses):
        plan = suppression_plan(seed, clauses)
        keys = [
            (clause, src, round_index)
            for clause in range(len(clauses))
            for src in range(plan.n_replicas)
            for round_index in range(3)
        ]
        forward = RoundSuppressor(plan)
        backward = RoundSuppressor(plan)
        asked_forward = {
            key: forward.suppression_set(*key) for key in keys
        }
        asked_backward = {
            key: backward.suppression_set(*key) for key in reversed(keys)
        }
        assert asked_forward == asked_backward

    @given(seeds, suppression_clauses, pids, st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_set_has_size_d_and_excludes_the_sender(
        self, seed, clauses, src, round_index
    ):
        plan = suppression_plan(seed, clauses)
        suppressor = RoundSuppressor(plan)
        for clause, (d, _rl, _start, _end) in enumerate(clauses):
            chosen = suppressor.suppression_set(clause, src, round_index)
            assert len(chosen) == min(d, plan.n_replicas - 1)
            assert src not in chosen

    @given(seeds, suppression_clauses, pids, pids, plan_times)
    @settings(max_examples=50, deadline=None)
    def test_suppression_respects_windows(self, seed, clauses, src, dst, now):
        plan = suppression_plan(seed, clauses)
        suppressor = RoundSuppressor(plan)
        inside_any = any(
            start <= now < end for _d, _rl, start, end in clauses
        )
        if src == dst or not inside_any:
            assert not suppressor.suppressed(now, src, dst)

    @given(seeds, suppression_clauses)
    @settings(max_examples=30, deadline=None)
    def test_distinct_seeds_may_disagree_but_each_is_stable(
        self, seed, clauses
    ):
        plan = suppression_plan(seed, clauses)
        again = suppression_plan(seed, clauses)
        a, b = RoundSuppressor(plan), RoundSuppressor(again)
        for now in (0.0, 1.0, 5.0, 10.0):
            for src in range(4):
                for dst in range(4):
                    assert a.suppressed(now, src, dst) == (
                        b.suppressed(now, src, dst)
                    )


# -- family (c): burst shaping -----------------------------------------------


class TestBurstShaping:
    @given(timing_clauses, pids, plan_times)
    @settings(max_examples=100, deadline=None)
    def test_burst_hold_is_pure(self, timing, src, now):
        assert burst_hold(timing, src, now) == burst_hold(timing, src, now)
        assert burst_hold(timing, src, now) >= 0.0

    @given(timing_clauses, pids, plan_times)
    @settings(max_examples=100, deadline=None)
    def test_hold_never_exceeds_the_largest_gap(self, timing, src, now):
        ceiling = max((gap for _p, _s, _e, gap in timing), default=0.0)
        assert burst_hold(timing, src, now) <= ceiling

    @given(
        timing_clauses,
        pids,
        pids,
        st.lists(plan_times, min_size=2, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_shaper_keeps_per_link_fifo(self, timing, src, dst, sends):
        shaper = BurstShaper(timing)
        ordered = sorted(sends)
        releases = [now + shaper.hold(src, dst, now) for now in ordered]
        # Release order never inverts send order on a directed link…
        for earlier, later in zip(releases, releases[1:]):
            assert later >= earlier
        # …and two *held* releases keep the full FIFO spacing, so
        # post-hold latency jitter below it cannot reorder the stream.
        held = [
            release
            for send, release in zip(ordered, releases)
            if release > send
        ]
        for r1, r2 in zip(held, held[1:]):
            assert r2 - r1 >= BURST_FIFO_SPACING - 1e-9

    @given(timing_clauses, pids, pids, st.lists(plan_times, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_shaper_is_deterministic(self, timing, src, dst, sends):
        a, b = BurstShaper(timing), BurstShaper(timing)
        for now in sorted(sends):
            assert a.hold(src, dst, now) == b.hold(src, dst, now)

    @given(pids, pids, st.lists(plan_times, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_no_timing_clauses_means_no_hold(self, src, dst, sends):
        shaper = BurstShaper(())
        for now in sorted(sends):
            assert shaper.hold(src, dst, now) == 0.0


# -- families (b, d): corruption streams -------------------------------------


class TestCorruptionStreams:
    @given(seeds, pids)
    @settings(max_examples=50, deadline=None)
    def test_same_coordinates_same_stream(self, seed, pid):
        plan = FaultPlan(name="prop-corrupt", seed=seed)
        draws_a = [
            corruption_rng(plan, FAMILY_STATE_CORRUPTION, pid).randint(0, 2**31)
            for _ in range(1)
        ]
        draws_b = [
            corruption_rng(plan, FAMILY_STATE_CORRUPTION, pid).randint(0, 2**31)
            for _ in range(1)
        ]
        assert draws_a == draws_b

    @given(seeds, pids)
    @settings(max_examples=50, deadline=None)
    def test_families_draw_independent_streams(self, seed, pid):
        plan = FaultPlan(name="prop-corrupt", seed=seed)
        state = corruption_rng(plan, FAMILY_STATE_CORRUPTION, pid)
        storage = corruption_rng(plan, FAMILY_STORAGE_FLIP, pid)
        # Distinct forks: four matching 31-bit draws (p ≈ 2^-124) would
        # mean the family streams share randomness.
        a = [state.randint(0, 2**31) for _ in range(4)]
        b = [storage.randint(0, 2**31) for _ in range(4)]
        assert a != b


# -- schema compat -----------------------------------------------------------


zoo_free_plans = st.builds(
    FaultPlan,
    name=st.just("prop-v1"),
    seed=seeds,
    requests=st.integers(1, 32),
    duration=st.floats(1.0, 20.0, allow_nan=False).map(lambda x: round(x, 2)),
    loss=st.floats(0.0, 0.2, allow_nan=False).map(lambda x: round(x, 3)),
    mutes=st.lists(
        st.tuples(pids, plan_times), max_size=2, unique_by=lambda m: m[0]
    ).map(lambda m: tuple(sorted(m))),
)


class TestSchemaCompat:
    @given(zoo_free_plans)
    @settings(max_examples=50, deadline=None)
    def test_zoo_free_plans_keep_the_v1_form(self, plan):
        assert plan.schema_tag == FAULTS_SCHEMA_V1
        config = plan.to_config()
        for key in ("suppressions", "corruptions", "timing", "storage_flips"):
            assert key not in config
        assert FaultPlan.from_config(config) == plan
        assert FaultPlan.from_config(config).plan_id == plan.plan_id

    @given(zoo_free_plans, suppression_clauses)
    @settings(max_examples=50, deadline=None)
    def test_zoo_plans_round_trip_under_v2(self, base, clauses):
        import dataclasses

        plan = dataclasses.replace(base, suppressions=clauses)
        assert plan.schema_tag == FAULTS_SCHEMA
        rebuilt = FaultPlan.from_config(plan.to_config())
        # from_config canonicalises clause order; identity holds from
        # the canonical form onward.
        canonical = FaultPlan.from_config(rebuilt.to_config())
        assert canonical == rebuilt
        assert rebuilt.suppressions == tuple(sorted(clauses))

    def test_readers_accept_v1_and_v2_and_reject_newer(self):
        check_faults_schema(FAULTS_SCHEMA_V1)
        check_faults_schema(FAULTS_SCHEMA)
        with pytest.raises(ConfigurationError):
            check_faults_schema("repro.faults/v3")
        with pytest.raises(ConfigurationError):
            check_faults_schema("bogus/v1")

    def test_v1_document_loads_and_keeps_its_identity(self, tmp_path):
        plan = FaultPlan(name="v1-doc", seed=7, mutes=((1, 2.0),))
        path = plan.save(tmp_path / "plan.json")
        assert '"repro.faults/v1"' in path.read_text()
        assert FaultPlan.load(path) == plan

    def test_v2_document_declares_the_zoo_schema(self, tmp_path):
        plan = FaultPlan(
            name="v2-doc", seed=7, suppressions=((1, 0.5, 2.0, 4.0),)
        )
        path = plan.save(tmp_path / "plan.json")
        assert '"repro.faults/v2"' in path.read_text()
        assert FaultPlan.load(path) == plan
