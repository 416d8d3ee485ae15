"""Hand-crafting helpers shared by the test suite."""

from __future__ import annotations

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


def envelope_trees(bench: SignedWorkbench, max_leaves: int = 8):
    """Hypothesis strategy: signed envelope trees over ``bench``'s keys.

    Leaves are INITs; every inner node is a CURRENT certified by its
    children and then left as signed, cut to light entries, or cut to a
    digest-only certificate — full, pruned and nested certificates mixed
    at every level.
    """
    from hypothesis import strategies as st

    def node(pid: int, round_number: int, children: list, prune: int) -> SignedMessage:
        message = bench.authorities[pid].make(
            VCurrent(sender=pid, round=round_number, est_vect=("x",) * bench.n),
            Certificate(tuple(children)),
        )
        return {0: message, 1: message.pruned(1), 2: message.light()}[prune]

    pids = st.integers(min_value=0, max_value=bench.n - 1)
    return st.recursive(
        st.builds(bench.signed_init, pids, st.text(max_size=4)),
        lambda children: st.builds(
            node,
            pids,
            st.integers(min_value=0, max_value=3),
            st.lists(children, min_size=1, max_size=3),
            st.integers(min_value=0, max_value=2),
        ),
        max_leaves=max_leaves,
    )
