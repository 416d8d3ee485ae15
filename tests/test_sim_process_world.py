"""Unit tests: process abstraction, world composition, traces."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProcessError
from repro.observability.trace import Trace
from repro.process import Process
from repro.sim.network import FixedDelay
from repro.sim.world import World


class Echo(Process):
    """Replies 'pong' to every 'ping'."""

    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, src, payload):
        self.received.append((src, payload))
        if payload == "ping":
            self.send(src, "pong")


class Starter(Echo):
    def on_start(self):
        self.broadcast("ping")


class TimerUser(Process):
    def __init__(self):
        super().__init__()
        self.fired = []

    def on_start(self):
        self.set_timer("tick", 2.0)

    def on_timer(self, name):
        self.fired.append((name, self.now))


class TestProcess:
    def test_unbound_process_rejects_use(self):
        with pytest.raises(ProcessError):
            Echo().send(0, "x")

    def test_double_bind_rejected(self):
        world = World([Echo(), Echo()])
        with pytest.raises(ProcessError):
            world.processes[0].bind(world.processes[1].env)

    def test_pid_and_n(self):
        world = World([Echo(), Echo(), Echo()])
        assert [p.pid for p in world.processes] == [0, 1, 2]
        assert all(p.n == 3 for p in world.processes)

    def test_ping_pong(self):
        world = World([Starter(), Echo()], delay_model=FixedDelay(1.0))
        world.run()
        starter, echo = world.processes
        assert (0, "ping") in echo.received
        assert (1, "pong") in starter.received

    def test_broadcast_includes_self(self):
        world = World([Starter(), Echo()], delay_model=FixedDelay(1.0))
        world.run()
        starter = world.processes[0]
        assert (0, "ping") in starter.received

    def test_timer_fires_at_virtual_time(self):
        world = World([TimerUser()])
        world.run()
        assert world.processes[0].fired == [("tick", 2.0)]

    def test_timer_rearm_cancels_previous(self):
        class Rearm(TimerUser):
            def on_start(self):
                self.set_timer("tick", 5.0)
                self.set_timer("tick", 1.0)  # replaces the 5.0 instance

        world = World([Rearm()])
        world.run()
        assert world.processes[0].fired == [("tick", 1.0)]

    def test_cancel_timer(self):
        class Cancel(TimerUser):
            def on_start(self):
                self.set_timer("tick", 5.0)
                self.cancel_timer("tick")

        world = World([Cancel()])
        world.run()
        assert world.processes[0].fired == []


class TestWorldCrash:
    def test_crashed_process_stops_receiving(self):
        world = World([Starter(), Echo()], delay_model=FixedDelay(1.0))
        world.crash_at(1, 0.5)  # before the ping arrives
        world.run()
        assert world.processes[1].received == []

    def test_crashed_process_stops_sending(self):
        class LateSender(Process):
            def on_start(self):
                self.set_timer("go", 2.0)

            def on_timer(self, name):
                self.broadcast("late")

        world = World([LateSender(), Echo()], delay_model=FixedDelay(0.1))
        world.crash_at(0, 1.0)
        world.run()
        assert world.processes[1].received == []

    def test_crash_now(self):
        world = World([Echo(), Echo()])
        world.crash_now(0)
        assert world.is_crashed(0)
        assert not world.is_crashed(1)

    def test_crash_recorded_in_trace(self):
        world = World([Echo()])
        world.crash_at(0, 3.0)
        world.run()
        event = world.trace.first("crash")
        assert event is not None
        assert event.time == 3.0
        assert event.process == 0

    def test_crashed_timer_suppressed(self):
        world = World([TimerUser()])
        world.crash_at(0, 1.0)  # before the 2.0 timer
        world.run()
        assert world.processes[0].fired == []

    def test_unknown_pid_rejected(self):
        world = World([Echo()])
        with pytest.raises(ConfigurationError):
            world.crash_now(5)


class TestWorldLifecycle:
    def test_empty_world_rejected(self):
        with pytest.raises(ConfigurationError):
            World([])

    def test_double_start_rejected(self):
        world = World([Echo()])
        world.start()
        with pytest.raises(ConfigurationError):
            world.start()

    def test_run_autostarts(self):
        world = World([Starter(), Echo()])
        result = world.run()
        assert result.quiescent()


class TestTrace:
    def test_query_helpers(self):
        trace = Trace()
        trace.record(1.0, "a", process=0, x=1)
        trace.record(2.0, "b", process=1)
        trace.record(3.0, "a", process=1, x=2)
        assert trace.count("a") == 2
        assert len(trace.of_kind("b")) == 1
        assert len(trace.by_process(1)) == 2
        assert trace.first("a").detail["x"] == 1
        assert trace.last("a").detail["x"] == 2
        assert trace.first("a", process=1).time == 3.0
        assert trace.where(lambda e: e.time > 1.5) == trace.of_kind("b") + trace.of_kind("a")[1:]
        assert len(trace) == 3
