"""Hand-crafting helpers shared by the test suite."""

from __future__ import annotations

import hashlib

from repro.core.certificates import (
    Certificate,
    CertificationAuthority,
    EMPTY_CERTIFICATE,
    SignedMessage,
)
from repro.core.specs import SystemParameters
from repro.crypto.keys import KeyAuthority
from repro.crypto.signatures import SignatureScheme
from repro.messages.consensus import Init, NULL, VCurrent, VNext, Vector
from repro.net.wire import WireError, payload_records


class SignedWorkbench:
    """Everything needed to hand-craft signed, certified messages in tests."""

    def __init__(self, n: int, f: int | None = None, seed: int = 0) -> None:
        self.params = SystemParameters.for_n(n, f=f)
        self.key_authority = KeyAuthority(n, seed=seed)
        self.scheme = SignatureScheme(self.key_authority)
        self.authorities = [
            CertificationAuthority(self.scheme, self.key_authority.signer_for(pid))
            for pid in range(n)
        ]

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def quorum(self) -> int:
        return self.params.quorum

    def verify(self, message: SignedMessage) -> bool:
        return self.authorities[0].signature_valid(message)

    # -- message builders --------------------------------------------------------

    def signed_init(self, pid: int, value: object | None = None) -> SignedMessage:
        payload = f"v{pid}" if value is None else value
        return self.authorities[pid].make(
            Init(sender=pid, value=payload), EMPTY_CERTIFICATE
        )

    def init_quorum(self, senders: list[int] | None = None) -> list[SignedMessage]:
        """Signed INITs with default values from the first n-F processes."""
        chosen = senders if senders is not None else list(range(self.quorum))
        return [self.signed_init(pid) for pid in chosen]

    def vector_for(self, senders: list[int]) -> Vector:
        """The vector the default-value INITs of ``senders`` witness."""
        values = [NULL] * self.n
        for pid in senders:
            values[pid] = f"v{pid}"
        return tuple(values)

    def coordinator_current(
        self,
        round_number: int = 1,
        senders: list[int] | None = None,
        next_votes: list[SignedMessage] | None = None,
    ) -> SignedMessage:
        """A well-formed coordinator CURRENT for ``round_number``."""
        from repro.consensus.hurfin_raynal import coordinator_of

        coordinator = coordinator_of(round_number, self.n)
        chosen = senders if senders is not None else list(range(self.quorum))
        inits = self.init_quorum(chosen)
        cert_entries = tuple(inits) + tuple(next_votes or ())
        return self.authorities[coordinator].make(
            VCurrent(
                sender=coordinator,
                round=round_number,
                est_vect=self.vector_for(chosen),
            ),
            Certificate(cert_entries),
        )

    def next_quorum(self, round_number: int) -> list[SignedMessage]:
        """Light signed NEXTs of ``round_number`` from the first n-F pids."""
        votes = []
        for pid in range(self.quorum):
            full = self.authorities[pid].make(
                VNext(sender=pid, round=round_number), EMPTY_CERTIFICATE
            )
            votes.append(full.light())
        return votes

    def relay_current(self, relayer: int, inner: SignedMessage) -> SignedMessage:
        """A well-formed relayed CURRENT wrapping ``inner``."""
        assert isinstance(inner.body, VCurrent)
        return self.authorities[relayer].make(
            VCurrent(
                sender=relayer,
                round=inner.body.round,
                est_vect=inner.body.est_vect,
            ),
            Certificate((inner,)),
        )


def envelopes(message: SignedMessage):
    """Every envelope of a certificate tree, outermost first."""
    yield message
    if isinstance(message.cert, Certificate):
        for entry in message.cert.entries:
            yield from envelopes(entry)


#: Tag and u32 length ahead of what a wire record holds.
RECORD_HEAD = 5


#: The records a wire payload opens with, in order; the rest is its root.
records = payload_records


def cite(record: bytes) -> bytes:
    """The citation of a wire record: ``0x0D | SHA-256(record bytes)``."""
    return b"\x0d" + hashlib.sha256(record).digest()


def recited(payload: bytes, tampered: bytes) -> bytes | None:
    """``tampered`` — ``payload`` with bytes of its records changed — made to parse.

    A record's citations carry its digest, so a changed record leaves
    them dangling; this re-computes every citation down the payload, the
    way a tamperer who wants the change *looked at* would have to.
    ``None`` if the change moved a record boundary: no chain to mend.
    """
    try:
        pool = records(tampered)
    except WireError:
        return None
    if [len(r) for r in pool] != [len(r) for r in records(payload)]:
        return None
    root = tampered[sum(map(len, pool)) :]
    for index, honest in enumerate(records(payload)):
        old, new = cite(honest), cite(pool[index])
        pool[index + 1 :] = [later.replace(old, new) for later in pool[index + 1 :]]
        root = root.replace(old, new)
    return b"".join(pool) + root


def spelled(payload: bytes) -> bytes:
    """``payload`` with every citation replaced by what it cites, in place.

    Record by record, then the root: an envelope's citation becomes its
    ``0x0C`` record (length recomputed), a shared value's its named
    record. This is the form the codec holds to ``MAX_DEPTH`` and
    ``MAX_FRAME`` — and the one payload version 3 sent — computed from
    the bytes alone. A root envelope is the last record, spelled out.
    """
    pool = records(payload)
    root = payload[sum(map(len, pool)) :]
    spelling: dict[bytes, bytes] = {}
    for record in pool:
        inner = record[RECORD_HEAD:]
        for citation, spelt in spelling.items():
            inner = inner.replace(citation, spelt)
        if record[0] == 0x0C:
            inner = record[:1] + len(inner).to_bytes(4, "big") + inner
        spelling[cite(record)] = inner
    if pool and not root:
        return spelling[cite(pool[-1])]
    for citation, spelt in spelling.items():
        root = root.replace(citation, spelt)
    return root


def envelope_trees(bench: SignedWorkbench, max_leaves: int = 8):
    """Hypothesis strategy: signed envelope trees over ``bench``'s keys.

    Leaves are INITs; every inner node is a CURRENT certified by its
    children and then left as signed, cut to light entries, or cut to a
    digest-only certificate — full, pruned and nested certificates mixed
    at every level. Sub-envelopes and client requests repeat the way a
    slot's traffic repeats them: a leaf's value may be a batch of
    requests drawn, as fresh equal objects, from a handful; a node's
    ``est_vect`` holds its children's batches again; and a node may cite
    its first child's own entries next to the child, as a DECIDE cites
    the INITs its CURRENTs cite.
    """
    from hypothesis import strategies as st

    from repro.replication.kvstore import Command
    from repro.service.messages import ClientRequest

    def node(
        pid: int, round_number: int, children: list, prune: int, regrand: bool
    ) -> SignedMessage:
        entries = tuple(children)
        if regrand and isinstance(children[0].cert, Certificate):
            entries += children[0].cert.entries
        est_vect = tuple(
            child.body.value if isinstance(child.body, Init) else NULL
            for child in children
        )
        message = bench.authorities[pid].make(
            VCurrent(sender=pid, round=round_number, est_vect=est_vect),
            Certificate(entries),
        )
        return {0: message, 1: message.pruned(1), 2: message.light()}[prune]

    pids = st.integers(min_value=0, max_value=bench.n - 1)
    requests = st.builds(
        ClientRequest,
        client=st.just(bench.n),
        req_id=st.integers(min_value=0, max_value=2),
        command=st.just(Command("set", "k", "v")),
    )
    values = st.text(max_size=4) | st.lists(requests, max_size=3).map(tuple)
    return st.recursive(
        st.builds(bench.signed_init, pids, values),
        lambda children: st.builds(
            node,
            pids,
            st.integers(min_value=0, max_value=3),
            st.lists(children, min_size=1, max_size=3),
            st.integers(min_value=0, max_value=2),
            st.booleans(),
        ),
        max_leaves=max_leaves,
    )


#: The replicated log as E18 runs it on the service: one request per
#: proposal, one slot open at a time, no checkpoint inside the run.
LOG_SERVICE = dict(
    n_replicas=4,
    n_clients=4,
    mode="closed",
    think=0.5,
    requests_per_client=4,
    batch_size=1,
    window=1,
    checkpoint_interval=1000,
)


def attack_engine(attack):
    """A service engine factory running the transformed ``attack``."""

    def factory(pid, proposal, params, authority, detector, config):
        return attack(
            proposal=proposal, params=params, authority=authority,
            detector=detector, config=config,
        )

    return factory


def log_service(seed=0, byzantine=None, delay=None, link=None, transport="none", **knobs):
    """A (not yet run) :data:`LOG_SERVICE` world."""
    from repro.service.config import ServiceConfig
    from repro.sim.service import build_service_system
    from repro.sim.network import UniformDelay

    return build_service_system(
        ServiceConfig(**{**LOG_SERVICE, **knobs, "seed": seed}),
        byzantine=byzantine,
        delay_model=delay or UniformDelay(0.1, 1.5),
        link=link,
        transport=transport,
    )


def correct_logs(system):
    """The slot logs of the correct replicas, by pid."""
    return [system.replicas[pid].slotlog for pid in sorted(system.correct_pids)]


def log_converged(system) -> bool:
    """Every client done, identical logs and states at the correct replicas."""
    from repro.service.checkpoint import service_digest

    logs = correct_logs(system)
    return (
        system.all_clients_done()
        and len({tuple(map(repr, log.log)) for log in logs}) == 1
        and len({service_digest(log.store, log.executed) for log in logs}) == 1
    )


# -- the virtual-time loop -----------------------------------------------------


def run_virtual(coro):
    """Run ``coro`` to completion on a fresh ``VirtualTimeLoop``, then close it."""
    from repro.net.clock import VirtualTimeLoop

    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class Mesh:
    """``PeerTransport``s of ``pids`` on one ``VirtualTimeLoop``; each logs
    ``(src, dst, message, time)`` and runs ``react(transports, pid, src,
    message)`` on every arrival."""

    def __init__(self, genesis, pids, *, link=None, react=None):
        from repro.net.clock import VirtualTimeLoop
        from repro.net.transport import PeerTransport
        from repro.observability.registry import MODULE_NET, MetricsRegistry

        self.loop = VirtualTimeLoop()
        self.registry = MetricsRegistry()
        self.log: list[tuple] = []
        self.transports = {}
        for pid in pids:

            def handler(src, message, pid=pid):
                self.log.append((src, pid, message, self.loop.time()))
                if react is not None:
                    react(self.transports, pid, src, message)

            self.transports[pid] = PeerTransport(
                genesis,
                pid,
                handler,
                metrics=self.registry.scope(MODULE_NET, pid),
                link=link,
            )
        for transport in self.transports.values():
            self.loop.run_until_complete(transport.start())

    def send_at(self, when, src, dst, message):
        self.loop.call_at(when, self.transports[src].send, dst, message)

    def run(self, seconds, *sends):
        """Send each ``(src, dst, message)`` now, then run ``seconds``."""
        for send in sends:
            self.send_at(self.loop.time(), *send)
        self.loop.run_until(lambda: False, seconds)
        return self.log

    def counter(self, name):
        from repro.observability.registry import MODULE_NET

        return self.registry.counter_total(MODULE_NET, name)

    def close(self):
        for transport in self.transports.values():
            self.loop.run_until_complete(transport.stop())
        self.loop.close()


class Ops:
    """Operations of a ``LoopbackCluster``'s client, each run as a task.

    ``set``/``get``/``status`` return the request id; ``results`` maps
    each settled id to its result, ``sent`` counts each id's sends.
    """

    def __init__(self, cluster, index=0):
        from collections import Counter

        self.cluster = cluster
        self.client = cluster.clients[index]
        self.results: dict = {}
        self.sent: Counter = Counter()
        self._next_id = self.client.session.next_req_id
        multicast = self.client._multicast

        def counting(payload):
            self.sent[payload.req_id] += 1
            multicast(payload)

        self.client._multicast = counting

    def _start(self, name, *args):
        # Tasks start in the order they were spawned, so ids do too.
        req_id = self._next_id
        self._next_id += 1

        async def run():
            from repro.net.client import NetClientError

            assert self.client.session.next_req_id == req_id
            try:
                self.results[req_id] = await getattr(self.client, name)(*args)
            except NetClientError:
                pass

        self.cluster.spawn(run())
        return req_id

    @property
    def pid(self):
        return self.client.pid

    def set(self, key, value):
        return self._start("set", key, value)

    def get(self, key):
        return self._start("get", key)

    def status(self):
        return self._start("status")

    @property
    def completed(self):
        return set(self.results)


def group_state(cluster, name):
    """``{pid: value}`` of one :class:`~repro.faults.oracle.ReplicaFacts`
    field (``"committed"``, ``"digest"``, ...) across the replicas a
    ``LoopbackCluster`` has up."""
    from repro.faults.loopback_runner import group_facts

    return {pid: getattr(facts, name) for pid, facts in group_facts(cluster).items()}
