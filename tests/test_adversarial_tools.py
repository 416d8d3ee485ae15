"""Unit tests: adversarial scheduling tools (scripted delays/suspicions,
non-FIFO channels) used by the assumption-necessity experiments."""

from __future__ import annotations

from repro.detectors.oracles import ScriptedDetector
from repro.messages.consensus import Current, Next
from repro.process import Process, SeededRng
from repro.sim.network import FixedDelay, ScriptedDelay
from repro.sim.world import World


class Recorder(Process):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, src, payload):
        self.received.append((self.now, src, payload))


class TestScriptedDelay:
    def test_rules_match_in_order(self):
        model = ScriptedDelay(
            rules=[
                (lambda s, d, p: isinstance(p, Current), 9.0),
                (lambda s, d, p: s == 0, 5.0),
            ],
            default=1.0,
        )
        rng = SeededRng(0)
        current = Current(sender=0, round=1, est="v")
        nxt = Next(sender=0, round=1)
        assert model.sample_for(rng, 0, 1, current) == 9.0  # first rule wins
        assert model.sample_for(rng, 0, 1, nxt) == 5.0
        assert model.sample_for(rng, 2, 1, nxt) == 1.0

    def test_plain_sample_uses_default(self):
        model = ScriptedDelay(rules=[], default=2.5)
        assert model.sample(SeededRng(0), 0, 1) == 2.5

    def test_network_uses_payload_aware_sampling(self):
        model = ScriptedDelay(
            rules=[(lambda s, d, p: p == "slow", 10.0)], default=1.0
        )
        world = World([Recorder(), Recorder()], delay_model=model, fifo=False)
        world.network.send(0, 1, "slow")
        world.network.send(0, 1, "fast")
        world.run()
        order = [payload for (_t, _s, payload) in world.processes[1].received]
        assert order == ["fast", "slow"]


class TestNonFifoNetwork:
    def test_fifo_forbids_overtaking(self):
        model = ScriptedDelay(
            rules=[(lambda s, d, p: p == "first", 10.0)], default=1.0
        )
        world = World([Recorder(), Recorder()], delay_model=model, fifo=True)
        world.network.send(0, 1, "first")
        world.network.send(0, 1, "second")
        world.run()
        order = [payload for (_t, _s, payload) in world.processes[1].received]
        assert order == ["first", "second"]

    def test_non_fifo_allows_overtaking(self):
        model = ScriptedDelay(
            rules=[(lambda s, d, p: p == "first", 10.0)], default=1.0
        )
        world = World([Recorder(), Recorder()], delay_model=model, fifo=False)
        world.network.send(0, 1, "first")
        world.network.send(0, 1, "second")
        world.run()
        order = [payload for (_t, _s, payload) in world.processes[1].received]
        assert order == ["second", "first"]

    def test_non_fifo_still_reliable(self):
        world = World(
            [Recorder(), Recorder()], delay_model=FixedDelay(1.0), fifo=False
        )
        for i in range(20):
            world.network.send(0, 1, i)
        world.run()
        assert sorted(p for (_t, _s, p) in world.processes[1].received) == list(
            range(20)
        )


class TestScriptedDetector:
    def test_suspicion_windows(self):
        class Host(Process):
            def __init__(self, detector):
                super().__init__()
                self.detector = detector

            def bind(self, env):
                super().bind(env)
                self.detector.attach(env)

        detector = ScriptedDetector([(1, 2.0, 5.0), (2, 4.0, 6.0)])
        world = World([Host(detector), Recorder(), Recorder()])
        observations = {}

        def observe(at):
            world.scheduler.schedule_at(
                at, "observe", lambda: observations.update({at: detector.suspected})
            )

        for at in (1.0, 3.0, 4.5, 5.5, 7.0):
            observe(at)
        world.run()
        assert observations[1.0] == frozenset()
        assert observations[3.0] == frozenset({1})
        assert observations[4.5] == frozenset({1, 2})
        assert observations[5.5] == frozenset({2})
        assert observations[7.0] == frozenset()

    def test_unattached_detector_suspects_nobody(self):
        assert ScriptedDetector([(0, 0.0, 10.0)]).suspected == frozenset()
