"""Contract tests: what Figure 1 fixes holds for every transformed protocol.

:class:`~repro.consensus.shell.TransformedShell` owns the ingress order,
the round gate and the decision evidence once; each case below runs
against all three processes built on it, so a protocol cannot drift from
the pipeline again. The structural test at the end pins *how*: the
protocol classes do not define the shell's methods at all.
"""

from __future__ import annotations

import pytest

from repro.consensus.echo_init import EchoInitConsensusProcess
from repro.consensus.shell import PHASE_ROUNDS, TransformedShell
from repro.consensus.transformed import TransformedConsensusProcess
from repro.consensus.transformed_ct import TransformedCtProcess
from repro.core.certificates import EMPTY_CERTIFICATE, SignedMessage
from repro.messages.consensus import Init, VNext
from repro.messages.ct import CtNack
from repro.observability.registry import MODULE_PROTOCOL, MODULE_SIGNATURE
from repro.systems import build_transformed_system

#: process class -> (build_transformed_system selectors, a certificate-free
#: round vote of that protocol).
PROTOCOLS = {
    TransformedConsensusProcess: (
        {"base": "hurfin-raynal", "variant": "standard"}, VNext,
    ),
    TransformedCtProcess: (
        {"base": "chandra-toueg", "variant": "standard"}, CtNack,
    ),
    EchoInitConsensusProcess: (
        {"base": "hurfin-raynal", "variant": "echo-init"}, VNext,
    ),
}


@pytest.fixture(params=list(PROTOCOLS), ids=lambda cls: cls.__name__)
def protocol(request):
    return request.param


def build(protocol, seed=1):
    selectors, _vote = PROTOCOLS[protocol]
    system = build_transformed_system(
        [f"v{i}" for i in range(4)], seed=seed, **selectors
    )
    assert all(type(p) is protocol for p in system.processes)
    return system


def vote(protocol, system, sender, round_number):
    _selectors, kind = PROTOCOLS[protocol]
    return system.processes[sender].authority.make(
        kind(sender=sender, round=round_number), EMPTY_CERTIFICATE
    )


def spy(process, name):
    """Replace ``process.<name>`` by a recorder; returns the call list."""
    calls = []
    setattr(process, name, lambda *args: calls.append(args))
    return calls


def mid_round(protocol):
    """A system stepped until process 0 is inside an undecided round."""
    system = build(protocol)
    target = system.processes[0]
    while target.phase != PHASE_ROUNDS:
        system.world.run(max_events=1)
    assert not target.decided
    return system, target


class TestSignatureModuleIngress:
    """A rejected payload declares the channel's peer and goes no further."""

    def started(self, protocol):
        system = build(protocol)
        system.world.start()
        target = system.processes[0]
        return system, target, spy(target, "handle_valid")

    def test_unsigned_payload_declared(self, protocol):
        _system, target, reached = self.started(protocol)
        target.on_message(2, "garbage")
        assert 2 in target.faulty
        assert not reached

    def test_wrong_channel_identity_declared(self, protocol):
        system, target, reached = self.started(protocol)
        honest_init = system.processes[1].authority.make(
            Init(sender=1, value="v1"), EMPTY_CERTIFICATE
        )
        target.on_message(3, honest_init)  # replayed on the wrong channel
        assert 3 in target.faulty
        assert 1 not in target.faulty
        assert not reached

    def test_bad_signature_declared(self, protocol):
        _system, target, reached = self.started(protocol)
        forged = SignedMessage(
            body=Init(sender=2, value="v2"),
            cert=EMPTY_CERTIFICATE,
            signature=target.authority.scheme.forge(2, "junk"),
        )
        target.on_message(2, forged)
        assert 2 in target.faulty
        assert not reached

    def test_detection_continues_after_decision(self, protocol):
        system = build(protocol)
        system.run()
        target = system.processes[0]
        assert target.decided
        target.on_message(2, "late-garbage")
        assert 2 in target.faulty


class TestRoundGate:
    def test_future_vote_buffered_then_replayed_exactly_once(self, protocol):
        system, target = mid_round(protocol)
        metrics = system.world.metrics
        dispatched = spy(target, "_dispatch_round_message")
        buffered = metrics.counter_total(MODULE_PROTOCOL, "messages_buffered")
        future = vote(protocol, system, 1, target.round + 1)
        target.handle_valid(future)
        assert not dispatched
        assert (
            metrics.counter_total(MODULE_PROTOCOL, "messages_buffered")
            == buffered + 1
        )
        target._begin_round(target.round + 1)
        assert dispatched == [(future,)]
        target._replay_buffered()  # nothing left to replay
        assert dispatched == [(future,)]

    def test_stale_vote_counted_and_dropped(self, protocol):
        system, target = mid_round(protocol)
        metrics = system.world.metrics
        dispatched = spy(target, "_dispatch_round_message")
        target.round = 5  # force ahead
        stale = metrics.counter_total(MODULE_PROTOCOL, "messages_stale")
        target.handle_valid(vote(protocol, system, 1, 1))
        assert not dispatched
        assert (
            metrics.counter_total(MODULE_PROTOCOL, "messages_stale") == stale + 1
        )


class TestDecisionEvidence:
    def test_justification_is_the_broadcast_signed_decide(self, protocol):
        system = build(protocol)
        sent = {p.pid: [] for p in system.processes}
        for process in system.processes:
            original = process.broadcast

            def recording(message, _log=sent[process.pid], _send=original):
                _log.append(message)
                _send(message)

            process.broadcast = recording
        system.run()
        for process in system.processes:
            assert process.decided
            justification = process.decision_justification
            assert any(message is justification for message in sent[process.pid])
            assert isinstance(justification.body, protocol.DECIDE)
            assert justification.body.sender == process.pid
            assert justification.body.est_vect == process.decision
            assert process.authority.signature_valid(justification)

    def test_signature_cache_counters_exported(self, protocol):
        system = build(protocol)
        system.run()
        metrics = system.world.metrics
        assert (
            metrics.counter_total(MODULE_SIGNATURE, "sig_cache_hits")
            + metrics.counter_total(MODULE_SIGNATURE, "sig_cache_misses")
        ) > 0


#: Everything the shell owns. A protocol class that defines one of these
#: has forked the pipeline.
SHELL_OWNED = {
    "bind",
    "faulty",
    "coordinator",
    "_quorum",
    "_coordinator_distrusted",
    "on_message",
    "_admit_signature",
    "_declare",
    "_broadcast_signed",
    "_decide",
    "start_protocol",
    "_on_init",
    "_maybe_finish_init",
    "handle_valid",
    "_begin_round",
    "_replay_buffered",
    "_on_decide",
}


@pytest.mark.parametrize(
    "protocol_class", [TransformedConsensusProcess, TransformedCtProcess]
)
def test_protocol_classes_define_nothing_the_shell_owns(protocol_class):
    assert SHELL_OWNED <= set(vars(TransformedShell))
    assert not SHELL_OWNED & set(vars(protocol_class))
    for hook in ("_make_monitor", "_open_round", "_dispatch_round_message"):
        assert hook in vars(protocol_class)
