"""Unit tests: message bodies."""

from __future__ import annotations

import dataclasses

import pytest

import repro.broadcast.reliable  # noqa: F401  (body types register by import)
import repro.consensus.chandra_toueg  # noqa: F401
import repro.detectors.heartbeat  # noqa: F401
import repro.messages.ct  # noqa: F401
import repro.service.messages  # noqa: F401
from repro.crypto.encoding import canonical_bytes
from repro.errors import ProtocolError
from repro.messages.base import Message
from repro.messages.consensus import (
    NULL,
    Current,
    Decide,
    Init,
    Next,
    VCurrent,
    VDecide,
    VNext,
    empty_vector,
    vector_with,
)


def _stand_in(qualname, structure):
    """An object of class ``qualname`` canonicalising to ``structure``."""
    return type(
        qualname, (), {"__qualname__": qualname, "canonical": lambda self: structure}
    )()


class TestMessageBase:
    def test_type_name(self):
        assert Current(sender=0, round=1, est="x").type_name == "CURRENT"
        assert VNext(sender=0, round=1).type_name == "VNEXT"

    def test_canonical_lists_fields_in_order(self):
        body = Current(sender=2, round=3, est="v")
        assert body.canonical() == (("sender", 2), ("round", 3), ("est", "v"))

    def test_canonical_is_pinned_for_every_body_type(self):
        # The field-name tuple is cached per class; the reference walks
        # dataclasses.fields() on every call, as canonical() used to.
        def body_types(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from body_types(sub)

        types = set(body_types(Message))
        assert {Init, VCurrent, VNext, VDecide, Current, Next, Decide} <= types
        assert len(types) >= 20
        for cls in sorted(types, key=lambda c: c.__qualname__):
            if cls.canonical is not Message.canonical:
                continue
            names = [field.name for field in dataclasses.fields(cls)]
            body = cls(**{name: index for index, name in enumerate(names)})
            reference = tuple((name, getattr(body, name)) for name in names)
            for _ in range(2):  # first call fills the cache, second reads it
                assert body.canonical() == reference
            assert canonical_bytes(body) == canonical_bytes(
                _stand_in(cls.__qualname__, reference)
            )

    def test_replace_produces_modified_copy(self):
        body = Next(sender=1, round=4)
        other = body.replace(round=5)
        assert other.round == 5
        assert body.round == 4

    def test_replace_invalid_field_rejected(self):
        with pytest.raises(ProtocolError):
            Next(sender=1, round=4).replace(nonsense=1)

    def test_bodies_are_frozen(self):
        body = Init(sender=0, value="x")
        with pytest.raises(AttributeError):
            body.value = "y"  # type: ignore[misc]

    def test_bodies_are_hashable_and_equal_by_value(self):
        assert Decide(sender=0, est="v") == Decide(sender=0, est="v")
        assert len({Decide(sender=0, est="v"), Decide(sender=0, est="v")}) == 1

    def test_all_bodies_carry_sender(self):
        for body in (
            Current(sender=3, round=1, est="x"),
            Next(sender=3, round=1),
            Decide(sender=3, est="x"),
            Init(sender=3, value="x"),
            VCurrent(sender=3, round=1, est_vect=("x",)),
            VNext(sender=3, round=1),
            VDecide(sender=3, est_vect=("x",)),
        ):
            assert isinstance(body, Message)
            assert body.sender == 3


class TestVectorHelpers:
    def test_empty_vector(self):
        assert empty_vector(3) == (NULL, NULL, NULL)

    def test_vector_with(self):
        base = empty_vector(3)
        updated = vector_with(base, 1, "v")
        assert updated == (NULL, "v", NULL)
        assert base == (NULL, NULL, NULL)

    def test_null_is_distinguishable_from_none(self):
        assert NULL is not None
        assert NULL != ""
