"""Widening tests: smaller behaviours not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.analysis.tracefmt import render_sequence
from repro.broadcast.reliable import ReliableBroadcast
from repro.consensus.base import ConsensusProcess
from repro.consensus.certification import (
    current_message_problems,
    est_cert_problems,
)
from repro.core.certificates import Certificate
from repro.errors import (
    CertificateError,
    ClockError,
    ConfigurationError,
    CryptoError,
    NetworkError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SignatureError,
    SimulationError,
)
from repro.observability.trace import Trace
from repro.process import Process
from repro.sim.network import FixedDelay
from repro.sim.world import World
from tests.helpers import SignedWorkbench


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ClockError,
            SchedulerError,
            NetworkError,
            ProtocolError,
            CertificateError,
            SignatureError,
            ConfigurationError,
        ],
    )
    def test_all_library_errors_are_repro_errors(self, exc):
        assert issubclass(exc, ReproError)

    def test_simulation_branch(self):
        assert issubclass(ClockError, SimulationError)
        assert issubclass(NetworkError, SimulationError)

    def test_crypto_branch(self):
        assert issubclass(SignatureError, CryptoError)
        assert not issubclass(SignatureError, SimulationError)


class TestConsensusBaseDefaults:
    def test_base_hooks_are_overridable_contracts(self):
        process = ConsensusProcess(proposal="x", detector=None)
        with pytest.raises(NotImplementedError):
            process.start_protocol()
        with pytest.raises(NotImplementedError):
            process.handle_message(0, "payload")
        # Optional hooks are no-ops by default.
        process.evaluate_guards()
        process.handle_timer("anything")

    def test_suspected_empty_without_detector(self):
        process = ConsensusProcess(proposal="x", detector=None)
        assert process.suspected == frozenset()

    def test_unknown_timer_routed_to_handle_timer(self):
        seen = []

        class P(ConsensusProcess):
            def start_protocol(self):
                self.set_timer("custom", 1.0)

            def handle_message(self, src, payload):
                pass

            def handle_timer(self, name):
                seen.append(name)

        world = World([P(proposal="x", detector=None)])
        world.run()
        assert seen == ["custom"]


class TestDeepChainDefence:
    def test_relay_chain_deeper_than_n_rejected(self):
        """A Byzantine sender can nest relays beyond any honest depth;
        the analyser cuts the recursion at n+1."""
        bench = SignedWorkbench(4)
        message = bench.coordinator_current()
        # Build a relay chain of length n + 3 (senders repeat — only a
        # forger would produce this).
        for hop in range(bench.n + 3):
            relayer = 1 + (hop % 2)  # alternate relayers 1 and 2
            message = bench.relay_current(relayer, message)
        problems = current_message_problems(message, bench.params, bench.verify)
        assert problems

    def test_est_cert_depth_guard(self):
        bench = SignedWorkbench(4)
        message = bench.coordinator_current()
        for hop in range(bench.n + 3):
            message = bench.relay_current(1 + (hop % 2), message)
        problems = est_cert_problems(
            Certificate((message,)),
            message.body.est_vect,
            bench.params,
            bench.verify,
        )
        assert problems


class TestBroadcastLargerSystems:
    def test_n7_f2_quorums(self):
        rb = ReliableBroadcast(f=2, deliver=lambda *a: None)

        class Host(Process):
            def __init__(self):
                super().__init__()
                self.rb = ReliableBroadcast(f=2, deliver=lambda *a: None)

            def bind(self, env):
                super().bind(env)
                self.rb.attach(env)

            def on_message(self, src, payload):
                self.rb.filter_message(src, payload)

        hosts = [Host() for _ in range(7)]
        world = World(hosts, delay_model=FixedDelay(0.2))
        assert hosts[0].rb.echo_quorum == 5
        assert hosts[0].rb.ready_amplify == 3
        assert hosts[0].rb.ready_deliver == 5
        del rb, world


class TestSequenceRenderingEdges:
    def test_unicast_sends_listed_with_targets(self):
        trace = Trace()
        trace.record(1.0, "send", process=0, dst=2, payload="hello")
        trace.record(1.0, "send", process=0, dst=1, payload="hello")
        chart = render_sequence(trace, 3)
        assert "-> 1,2" in chart

    def test_empty_trace_renders_header_only(self):
        chart = render_sequence(Trace(), 2)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert "p0" in lines[0]

    def test_non_send_kinds_filtered(self):
        trace = Trace()
        trace.record(1.0, "deliver", process=0, src=1, payload="x")
        chart = render_sequence(trace, 2)
        assert "deliver" not in chart


class TestEchoInitDirectInitRejected:
    def test_direct_channel_init_declares_sender(self):
        from repro.core.certificates import EMPTY_CERTIFICATE
        from repro.messages.consensus import Init
        from repro.systems import build_transformed_system

        system = build_transformed_system(
            [f"v{i}" for i in range(4)], variant="echo-init", seed=0
        )
        system.world.start()
        system.world.scheduler.run(max_events=4)
        target = system.processes[0]
        rogue_init = system.processes[2].authority.make(
            Init(sender=2, value="out-of-band"), EMPTY_CERTIFICATE
        )
        target.on_message(2, rogue_init)
        assert 2 in target.faulty
