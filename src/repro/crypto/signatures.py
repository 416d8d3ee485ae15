"""Signing and verifying structured values.

Builds on :mod:`repro.crypto.keys` and :mod:`repro.crypto.encoding` to sign
arbitrary canonicalizable values. The :meth:`SignatureScheme.forge` helper
exists purely so Byzantine behaviours can *attempt* forgery and exercise
the rejection path; forged signatures verify with probability ~2^-256.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.cache import SignatureCache, caching_enabled
from repro.crypto.encoding import canonical_bytes
from repro.crypto.keys import KeyAuthority, Signer


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature: the claimed signer identity plus the MAC bytes."""

    signer: int
    mac: bytes

    def canonical(self) -> Any:
        return (self.signer, self.mac)


class SignatureScheme:
    """Signs and verifies canonicalizable values for a fixed process set."""

    def __init__(
        self, authority: KeyAuthority, cache: SignatureCache | None = None
    ) -> None:
        self._authority = authority
        self._cache = cache if cache is not None else SignatureCache()

    @property
    def authority(self) -> KeyAuthority:
        return self._authority

    @property
    def cache(self) -> SignatureCache:
        """The verdict cache consulted by :meth:`verify_digest`."""
        return self._cache

    def sign(self, signer: Signer, value: Any) -> Signature:
        """Sign ``value`` with the capability ``signer``."""
        return Signature(signer=signer.pid, mac=signer.sign(canonical_bytes(value)))

    def verify(self, value: Any, signature: Signature) -> bool:
        """True iff ``signature`` is valid for ``value`` under its claimed signer."""
        return self._authority.verify(
            signature.signer, canonical_bytes(value), signature.mac
        )

    def verify_digest(
        self, data: Callable[[], bytes], digest: bytes, signature: Signature
    ) -> bool:
        """Cached :meth:`verify` over pre-encoded bytes and their digest.

        ``data()`` yields the signed bytes and ``digest`` must be their
        SHA-256; ``data`` is called only when a MAC is actually computed,
        so callers that memoize the digest per envelope
        (:class:`~repro.core.certificates.SignedMessage`) turn every
        repeat verification into a dict lookup that never materialises
        the bytes. The cache key includes the authority's key domain,
        the claimed signer and the MAC, so a hit is exactly as
        discriminating as the real check (safety argument:
        :mod:`repro.crypto.cache`).
        """
        if not caching_enabled():
            return self._authority.verify(signature.signer, data(), signature.mac)
        key = (self._authority.domain, signature.signer, digest, signature.mac)
        verdict = self._cache.lookup(key)
        if verdict is None:
            verdict = self._authority.verify(signature.signer, data(), signature.mac)
            self._cache.store(key, verdict)
        return verdict

    def forge(self, claimed_signer: int, value: Any, nonce: int = 0) -> Signature:
        """Produce a *bogus* signature claiming ``claimed_signer`` signed ``value``.

        Used by Byzantine behaviours to attack the signature module; the
        result never verifies (except with negligible probability), which
        is precisely the unforgeability assumption of the model.
        """
        fake = hashlib.sha256(
            b"forgery" + nonce.to_bytes(8, "big") + canonical_bytes(value)
        ).digest()
        return Signature(signer=claimed_signer, mac=fake)
