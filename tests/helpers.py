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
