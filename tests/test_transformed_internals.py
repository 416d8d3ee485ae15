"""Unit tests: transformed-protocol internals (buffering, pipeline edges)."""

from __future__ import annotations

import pytest

from repro.consensus.transformed import TransformedConsensusProcess
from repro.core.certificates import CertificationAuthority, EMPTY_CERTIFICATE
from repro.core.specs import SystemParameters
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.detectors.oracles import OracleDetector
from repro.messages.consensus import Init, VNext
from repro.sim.network import FixedDelay
from repro.sim.world import World
from repro.systems import build_transformed_system


def build_world(n=4, seed=0):
    params = SystemParameters.for_n(n)
    keys = KeyAuthority(n, seed=seed)
    scheme = SignatureScheme(keys)
    processes = []
    for pid in range(n):
        processes.append(
            TransformedConsensusProcess(
                proposal=f"v{pid}",
                params=params,
                authority=CertificationAuthority(scheme, keys.signer_for(pid)),
                detector=OracleDetector(status=lambda _p: False),
            )
        )
    world = World(processes, seed=seed, delay_model=FixedDelay(0.5))
    return world, processes


class TestIngressPipeline:
    # The rejection cases live in tests/test_shell_contract.py, where they
    # run against every protocol built on the shell.
    def test_own_channel_never_self_declares(self):
        world, processes = build_world()
        world.start()
        target = processes[0]
        target.on_message(0, "garbage-from-self")
        assert 0 not in target.faulty


class TestRoundBuffering:
    def _run_init_phase(self):
        world, processes = build_world()
        world.run(max_events=400, max_time=3.0)  # enough for INIT + round 1 start
        return world, processes

    def test_stale_votes_discarded(self):
        world, processes = self._run_init_phase()
        target = next(p for p in processes if p.phase == "rounds")
        target.round = 5  # force ahead
        sender = processes[1]
        stale = sender.authority.make(
            VNext(sender=1, round=1), EMPTY_CERTIFICATE
        )
        before = len(target.next_cert)
        # Bypass the monitor (which would flag the round regression) and
        # exercise the protocol-level staleness rule directly.
        target.handle_valid(stale)
        assert len(target.next_cert) == before

    def test_future_votes_buffered(self):
        world, processes = self._run_init_phase()
        target = next(p for p in processes if p.phase == "rounds")
        sender = processes[1]
        future = sender.authority.make(
            VNext(sender=1, round=target.round + 2), EMPTY_CERTIFICATE
        )
        target.handle_valid(future)
        assert any(
            m.body.round == target.round + 2
            for msgs in target._future.values()
            for m in msgs
        )

    def test_votes_during_init_phase_buffered(self):
        world, processes = build_world()
        world.start()
        target = processes[0]
        assert target.phase == "init"
        sender = processes[1]
        early = sender.authority.make(
            VNext(sender=1, round=1), EMPTY_CERTIFICATE
        )
        target.handle_valid(early)
        assert target._future

    def test_straggler_init_ignored_after_vector_built(self):
        system = build_transformed_system([f"v{i}" for i in range(4)], seed=2)
        system.run()
        target = system.processes[0]
        vector_before = target.est_vect
        late_init = system.processes[3].authority.make(
            Init(sender=3, value="v3"), EMPTY_CERTIFICATE
        )
        target._on_init(late_init)
        assert target.est_vect == vector_before


class TestStateExposure:
    def test_monitor_states_of_peers_reach_final(self):
        system = build_transformed_system([f"v{i}" for i in range(4)], seed=3)
        system.run()
        target = system.processes[0]
        states = {pid: target.monitor_bank.state_of(pid) for pid in range(4)}
        assert states[0] == "self"
        # Every peer's stream ended with its DECIDE relay.
        assert all(state == "final" for pid, state in states.items() if pid != 0)

    def test_decide_value_is_write_once(self):
        system = build_transformed_system([f"v{i}" for i in range(4)], seed=4)
        system.run()
        target = system.processes[0]
        first = target.decision
        target.decide_value(("x",) * 4, round_number=9)
        assert target.decision == first
