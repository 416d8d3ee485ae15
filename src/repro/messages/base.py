"""Base class for protocol message bodies.

A message *body* is an immutable dataclass carrying the sender identity
and protocol fields. Bodies are canonicalizable (so they can be signed)
and hashable (so they can live in certificate sets).

Bodies never carry certificates or signatures themselves — those are the
envelope layers added by the certification and signature modules (paper
Figure 1); see :mod:`repro.core.certificates`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """Declared field names of one body class (fixed at class creation)."""
    return tuple(field.name for field in dataclasses.fields(cls))


@dataclass(frozen=True, slots=True)
class Message:
    """Common shape of every protocol message body.

    Attributes:
        sender: identity field naming the process this body claims to come
            from. The signature module checks this claim against the
            signature (paper: "If the signature of the message is
            inconsistent with the identity field contained in the message,
            the message is discarded").
    """

    sender: int

    @property
    def type_name(self) -> str:
        """Protocol-level type tag (``CURRENT``, ``NEXT``, ...)."""
        return type(self).__name__.upper()

    def canonical(self) -> Any:
        """Canonical structure: the ordered tuple of (field, value) pairs."""
        return tuple(
            (name, getattr(self, name)) for name in _field_names(type(self))
        )

    def describe(self) -> str:
        """One-line human description: type tag and short field values."""
        fields = []
        for name, value in self.canonical():
            if name == "sender":
                continue
            rendered = repr(value)
            if len(rendered) > 24:
                rendered = rendered[:21] + "..."
            fields.append(f"{name}={rendered}")
        return f"{self.type_name}({', '.join(fields)})"

    def replace(self, **changes: Any) -> "Message":
        """A copy of this body with some fields changed.

        Used by Byzantine behaviours to corrupt messages; a correct
        process never mutates a body.
        """
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise ProtocolError(f"invalid replace on {self!r}: {exc}") from exc
