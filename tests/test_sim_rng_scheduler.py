"""Unit tests: seeded RNG streams and the scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulerError
from repro.process import SeededRng
from repro.sim.scheduler import Scheduler


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRng(1)
        b = SeededRng(2)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_forked_streams_are_independent(self):
        parent = SeededRng(7)
        child_a = parent.fork("a")
        child_b = parent.fork("b")
        assert [child_a.random() for _ in range(5)] != [
            child_b.random() for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        one = SeededRng(7).fork("net")
        two = SeededRng(7).fork("net")
        assert [one.random() for _ in range(5)] == [two.random() for _ in range(5)]

    def test_fork_independent_of_parent_consumption(self):
        parent_a = SeededRng(7)
        parent_a.random()
        parent_b = SeededRng(7)
        assert parent_a.fork("x").random() == parent_b.fork("x").random()

    @given(st.integers(min_value=0, max_value=2**31))
    def test_uniform_respects_bounds(self, seed):
        rng = SeededRng(seed)
        for _ in range(20):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    @given(st.integers(min_value=0, max_value=2**31))
    def test_randint_inclusive(self, seed):
        rng = SeededRng(seed)
        values = {rng.randint(0, 2) for _ in range(100)}
        assert values <= {0, 1, 2}

    def test_chance_extremes(self):
        rng = SeededRng(0)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))


class TestScheduler:
    def test_runs_to_quiescence(self):
        sched = Scheduler()
        fired = []
        sched.schedule_at(1.0, "a", lambda: fired.append(1))
        result = sched.run()
        assert result.quiescent()
        assert fired == [1]
        assert sched.now == 1.0

    def test_callbacks_can_schedule_more(self):
        sched = Scheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule_after(1.0, "b", lambda: fired.append("second"))

        sched.schedule_at(0.5, "a", first)
        result = sched.run()
        assert result.quiescent()
        assert fired == ["first", "second"]
        assert sched.now == 1.5

    def test_max_events_budget(self):
        sched = Scheduler()

        def reschedule():
            sched.schedule_after(1.0, "loop", reschedule)

        sched.schedule_at(0.0, "loop", reschedule)
        result = sched.run(max_events=10)
        assert result.reason == "max_events"
        assert result.events_dispatched == 10

    def test_max_time_budget(self):
        sched = Scheduler()
        fired = []
        sched.schedule_at(1.0, "a", lambda: fired.append("a"))
        sched.schedule_at(100.0, "b", lambda: fired.append("b"))
        result = sched.run(max_time=50.0)
        assert result.reason == "max_time"
        assert fired == ["a"]
        assert sched.now == 50.0

    def test_stop_ends_run(self):
        sched = Scheduler()
        fired = []

        def first_and_stop():
            fired.append("a")
            sched.stop()

        sched.schedule_at(1.0, "a", first_and_stop)
        sched.schedule_at(2.0, "b", lambda: fired.append("b"))
        result = sched.run()
        assert result.reason == "stopped"
        assert fired == ["a"]

    def test_cannot_schedule_in_past(self):
        sched = Scheduler()
        sched.schedule_at(5.0, "a", lambda: None)
        sched.run()
        with pytest.raises(SchedulerError):
            sched.schedule_at(1.0, "late", lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().schedule_after(-1.0, "x", lambda: None)

    def test_deterministic_interleaving(self):
        def run_once() -> list[str]:
            sched = Scheduler(seed=3)
            rng = sched.rng.fork("test")
            order: list[str] = []
            for label in "abcdef":
                sched.schedule_at(
                    rng.uniform(0, 10), label, lambda l=label: order.append(l)
                )
            sched.run()
            return order

        assert run_once() == run_once()

    def test_events_dispatched_accumulates(self):
        sched = Scheduler()
        for i in range(5):
            sched.schedule_at(float(i), "x", lambda: None)
        sched.run()
        assert sched.events_dispatched == 5
