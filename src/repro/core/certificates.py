"""Generic certificate framework (paper Section 3).

A *certificate* is "a piece of redundant information, including a part of
the process history": concretely, a set of **signed messages** whose
receipt caused — or whose content justifies — the message the certificate
is attached to. Reliability comes from two facts the paper states:

* no process can falsify the content of a signed message without being
  detected by a correct receiver (unforgeable signatures), and
* the cardinality of the signed-message sets allows majority tests.

Wire layout
-----------

A transmitted unit is a :class:`SignedMessage`::

    SignedMessage
      body       : Message            (the protocol payload)
      cert       : Certificate | CertificateDigest
      signature  : Signature over (body, cert digest)

Because the signature covers the *digest* of the certificate rather than
its expansion, a certificate may be **pruned** — replaced by its digest,
or kept with its own entries pruned — without invalidating the signature.
Pruning is what keeps nested certificates polynomial: a ``NEXT`` inside a
``next_cert`` needs only its body (sender, round) and signature to be
checked, so it travels *light* (digest-only certificate); a ``CURRENT``
inside a ``current_cert`` must expose its own certificate one level down
(so the receiver can check the coordinator's ``est_cert``), so it travels
*medium*. Without pruning the recursion ``NEXT(r)`` ⊃ ``NEXT(r-1)`` ⊃ ...
would grow exponentially with the round number; the paper leaves this
engineering point open and we document the choice in DESIGN.md.

Crucially, pruning never removes *bodies or signatures* of the entries a
verifier must inspect — only deeper history that the paper's
well-formedness predicates never look at.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Type, TypeVar

from repro.crypto.cache import caching_enabled
from repro.crypto.encoding import (
    canonical_bytes,
    tuple_append,
    tuple_bytes,
    tuple_prefix,
)
from repro.crypto.keys import Signer
from repro.crypto.signatures import Signature, SignatureScheme
from repro.errors import CertificateError, EncodingError
from repro.messages.base import Message
from repro.observability.export import describe_payload

M = TypeVar("M", bound=Message)


@dataclass(frozen=True, slots=True)
class CertificateDigest:
    """Stand-in for a pruned certificate: its collision-resistant digest."""

    hex: str

    def canonical(self) -> Any:
        return self.hex


class Certificate:
    """An immutable set of signed messages.

    Entries are kept in a canonical order (sorted by their encoding) so
    that equal certificates have equal digests regardless of insertion
    order.
    """

    __slots__ = ("_entries", "_digest")

    def __init__(self, entries: tuple["SignedMessage", ...] = ()) -> None:
        unique: dict[bytes, SignedMessage] = {}
        for entry in entries:
            unique[entry.light_bytes()] = entry
        self._entries = tuple(
            entry for _key, entry in sorted(unique.items(), key=lambda kv: kv[0])
        )
        self._digest: CertificateDigest | None = None

    # -- collection interface ------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator["SignedMessage"]:
        return iter(self._entries)

    def __contains__(self, item: "SignedMessage") -> bool:
        key = item.light_bytes()
        return any(e.light_bytes() == key for e in self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest().hex)

    @property
    def entries(self) -> tuple["SignedMessage", ...]:
        return self._entries

    def add(self, entry: "SignedMessage") -> "Certificate":
        """A new certificate with ``entry`` included."""
        return Certificate(self._entries + (entry,))

    def union(self, other: "Certificate") -> "Certificate":
        """A new certificate holding the entries of both."""
        return Certificate(self._entries + other.entries)

    # -- queries ----------------------------------------------------------------

    def of_type(self, body_type: Type[M]) -> list["SignedMessage"]:
        """Entries whose body is an instance of ``body_type``."""
        return [e for e in self._entries if isinstance(e.body, body_type)]

    def senders(self) -> frozenset[int]:
        """Identities claimed by the entry bodies."""
        return frozenset(e.body.sender for e in self._entries)

    def bodies(self) -> list[Message]:
        return [e.body for e in self._entries]

    def filter(self, predicate: Callable[["SignedMessage"], bool]) -> "Certificate":
        return Certificate(tuple(e for e in self._entries if predicate(e)))

    # -- identity -------------------------------------------------------------------

    def digest(self) -> CertificateDigest:
        """Digest invariant under pruning of the entries' own certificates."""
        if self._digest is None:
            # Byte-identical to encoding the tuple of light_canonical()
            # forms, but reuses each entry's memoized encoding.
            payload = tuple_bytes(entry.light_bytes() for entry in self._entries)
            self._digest = CertificateDigest(hashlib.sha256(payload).hexdigest())
        return self._digest

    def canonical(self) -> Any:
        return tuple(entry.light_canonical() for entry in self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(
            f"{type(e.body).__name__}({e.body.sender})" for e in self._entries
        )
        return f"Certificate[{kinds}]"


#: The empty certificate (e.g. the certificate of an ``INIT`` message).
EMPTY_CERTIFICATE = Certificate(())


# No ``slots=True`` here, deliberately: the instance __dict__ carries
# memoized encodings/digests (sound because the dataclass is frozen and
# its fields immutable), which is what makes repeat verification of one
# envelope a dict lookup instead of a re-encode + MAC. The memo fields
# never participate in __eq__/__hash__ — dataclass comparison only sees
# the declared fields.
@dataclass(frozen=True)
class SignedMessage:
    """A signed protocol message with its (possibly pruned) certificate."""

    body: Message
    cert: Certificate | CertificateDigest
    signature: Signature

    @property
    def cert_digest(self) -> CertificateDigest:
        """The certificate digest, whether the certificate is full or pruned."""
        if isinstance(self.cert, CertificateDigest):
            return self.cert
        return self.cert.digest()

    @property
    def has_full_cert(self) -> bool:
        return isinstance(self.cert, Certificate)

    def full_cert(self) -> Certificate:
        """The full certificate; raises if it was pruned away."""
        if isinstance(self.cert, Certificate):
            return self.cert
        raise CertificateError(
            f"certificate of {type(self.body).__name__} from {self.body.sender} "
            "was pruned to a digest"
        )

    def describe(self) -> str:
        """The body's description, the certificate's size, the signer."""
        if self.has_full_cert:
            cert_text = f"cert[{len(self.full_cert())}]"
        else:
            cert_text = "cert[pruned]"
        return (
            f"{describe_payload(self.body)} {cert_text} "
            f"signed:{self.signature.signer}"
        )

    def signed_payload(self) -> Any:
        """The structure the signature covers: the body plus cert digest."""
        return (self.body, self.cert_digest.hex)

    def light_canonical(self) -> Any:
        """Canonical form independent of certificate pruning depth."""
        return (self.body, self.cert_digest.hex, self.signature)

    def canonical(self) -> Any:
        return self.light_canonical()

    # -- memoized encodings (performance; see docs/PERFORMANCE.md) -----------

    def _memo(self, attr: str, compute: Callable[[], Any]) -> Any:
        if not caching_enabled():
            return compute()
        value = self.__dict__.get(attr)
        if value is None:
            value = compute()
            self.__dict__[attr] = value
        return value

    def payload_bytes(self) -> bytes:
        """Canonical encoding of :meth:`signed_payload` (what the MAC covers).

        :meth:`light_bytes` up to the signature, so an envelope is walked
        once; not retained — only its digest is asked for repeatedly.
        """
        return tuple_prefix(self.light_bytes(), 2)

    def payload_digest(self) -> bytes:
        """SHA-256 of :meth:`payload_bytes` — the verification-cache key part."""
        return self._memo(
            "_payload_digest",
            lambda: hashlib.sha256(self.payload_bytes()).digest(),
        )

    def light_bytes(self) -> bytes:
        """Canonical encoding of :meth:`light_canonical`.

        Pruning-invariant, hence the envelope's fingerprint everywhere a
        certificate sorts, deduplicates or compares entries.
        """
        return self._memo(
            "_light_bytes", lambda: canonical_bytes(self.light_canonical())
        )

    def envelope_digest(self) -> str:
        """SHA-256 hex of :meth:`light_bytes` — the envelope's identity.

        Keys the clean-verdict predicate cache
        (:class:`repro.consensus.certification.PredicateCache`): identical
        digest means identical body, certificate digest and signature.
        """
        return self._memo(
            "_envelope_digest",
            lambda: hashlib.sha256(self.light_bytes()).hexdigest(),
        )

    # -- pruning -------------------------------------------------------------

    def light(self) -> "SignedMessage":
        """This message with its certificate pruned to the digest.

        The signature stays valid: it covers (body, digest) and the digest
        is preserved.
        """
        return SignedMessage(
            body=self.body, cert=self.cert_digest, signature=self.signature
        )

    def pruned(self, depth: int) -> "SignedMessage":
        """This message with certificate nesting cut at ``depth`` levels."""
        if depth <= 0 or isinstance(self.cert, CertificateDigest):
            return self.light()
        inner = Certificate(
            tuple(entry.pruned(depth - 1) for entry in self.cert.entries)
        )
        return SignedMessage(body=self.body, cert=inner, signature=self.signature)


class CertificationAuthority:
    """Builds and checks signed, certified messages for one process.

    This is the sign/verify half of the paper's *signature module* plus
    the append half of the *certification module*; the protocol-specific
    well-formedness predicates live next to the protocol they certify
    (``repro.consensus.certification``), as the paper prescribes.
    """

    def __init__(self, scheme: SignatureScheme, signer: Signer) -> None:
        self._scheme = scheme
        self._signer = signer

    @property
    def pid(self) -> int:
        return self._signer.pid

    @property
    def scheme(self) -> SignatureScheme:
        """The system-wide scheme (public: verification and forgery
        *attempts* are available to everyone, honest or not)."""
        return self._scheme

    @property
    def signer(self) -> Signer:
        """This process's signing capability (it can only sign as itself)."""
        return self._signer

    def make(
        self, body: Message, cert: Certificate = EMPTY_CERTIFICATE
    ) -> SignedMessage:
        """Sign ``body`` with ``cert`` attached; the sender field must be ours."""
        if body.sender != self._signer.pid:
            raise CertificateError(
                f"process {self._signer.pid} cannot honestly sign a body "
                f"claiming sender {body.sender}"
            )
        draft = SignedMessage(body=body, cert=cert, signature=_PLACEHOLDER)
        payload = canonical_bytes(draft.signed_payload())
        signature = self._scheme.sign_bytes(self._signer, payload)
        message = SignedMessage(body=body, cert=cert, signature=signature)
        if caching_enabled():
            # The walk just signed is the envelope's: seed what it would
            # otherwise walk the body again for when first asked.
            memo = message.__dict__
            memo["_payload_digest"] = hashlib.sha256(payload).digest()
            memo["_light_bytes"] = tuple_append(payload, canonical_bytes(signature))
        return message

    def signature_valid(self, message: SignedMessage) -> bool:
        """True iff the signature verifies *and* matches the identity field.

        Verification goes through the scheme's verdict cache keyed by the
        envelope's memoized payload digest, so re-checking an already-seen
        envelope costs a dict lookup (docs/PERFORMANCE.md).
        """
        if message.signature.signer != message.body.sender:
            return False
        return self._scheme.verify_digest(
            message.payload_bytes, message.payload_digest(), message.signature
        )


_PLACEHOLDER = Signature(signer=-1, mac=b"")


def signature_refusal(
    src: int,
    payload: Any,
    verify: Callable[[SignedMessage], bool] | None,
) -> str | None:
    """The signature module's ingress rule (Figure 1).

    Returns why ``payload``, arriving on ``src``'s channel, is refused —
    unsigned, an identity field other than the channel (a body with no
    ``sender`` included), a payload with no canonical form to verify,
    or a signature ``verify`` rejects — or ``None``
    to admit it. ``verify=None`` admits any signed payload unchecked
    (the E8 ablation). Counting and declaring are the caller's.
    """
    if not isinstance(payload, SignedMessage):
        return "signature module: unsigned payload"
    if verify is None:
        return None
    sender = getattr(payload.body, "sender", None)
    if sender != src:
        return (
            f"signature module: identity field {sender} "
            f"inconsistent with the sending channel {src}"
        )
    try:
        valid = verify(payload)
    except EncodingError:
        return "signature module: payload has no canonical form"
    if not valid:
        return "signature module: invalid signature"
    return None
