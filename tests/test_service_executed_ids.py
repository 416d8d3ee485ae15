"""Tests: the executed-id index a replica checkpoints from.

:class:`~repro.service.checkpoint.ExecutedIds` keeps the ids sorted and
each id's canonical encoding beside it, so a checkpoint's digest and id
tuple cost a join and a copy. The property tests pin both to what they
replace, ``canonical_bytes(tuple(sorted(ids)))`` and
``tuple(sorted(ids))``, over any insertion order; the counting test
that pins the cost is ``test_service_slotlog.py``'s
``test_a_checkpoint_encodes_as_much_at_ten_thousand_ids``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cache import caching_disabled
from repro.crypto.encoding import canonical_bytes
from repro.observability.registry import MetricsRegistry
from repro.replication.kvstore import Command, KeyValueStore
from repro.service.checkpoint import ExecutedIds, service_digest, state_from_wire
from repro.service.config import ServiceConfig
from repro.service.slotlog import SlotLog

from tests.helpers import LOG_SERVICE

#: Request ids from a few clients, with req_ids spread wide enough that
#: their decimal encodings differ in length.
IDENTS = st.tuples(
    st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=10**6)
)


def matches(executed: ExecutedIds, ids: set) -> None:
    """``executed`` holds exactly ``ids``, digest and tuple included."""
    ordered = tuple(sorted(ids))
    assert executed == ids and len(executed) == len(ids)
    assert executed.ids() == ordered and tuple(executed) == ordered
    assert all(ident in executed for ident in ids)
    assert executed.encoded() == canonical_bytes(ordered)
    store = KeyValueStore().apply_all([Command("set", "x", 1)])
    assert service_digest(store, executed) == service_digest(store, set(ids))


class TestExecutedIds:
    @given(st.lists(IDENTS, max_size=60))
    def test_any_insertion_order_digests_like_the_sorted_set(self, idents):
        executed = ExecutedIds()
        for ident in idents:
            executed.add(ident)
            executed.add(ident)  # a duplicate add changes nothing
        matches(executed, set(idents))
        assert ExecutedIds(reversed(idents)) == executed

    @given(st.lists(IDENTS, max_size=30))
    def test_the_same_with_caching_disabled(self, idents):
        with caching_disabled():
            executed = ExecutedIds(idents)
            matches(executed, set(idents))

    @given(st.lists(IDENTS, max_size=30, unique=True), st.lists(IDENTS, max_size=10))
    def test_install_then_apply_then_reset(self, shipped, later):
        log = SlotLog(
            ServiceConfig(**LOG_SERVICE), 0, MetricsRegistry().scope("service", 0)
        )
        _, installed = state_from_wire((), tuple(sorted(shipped)), 0)
        log.install(4, KeyValueStore(), installed)
        assert log.executed is installed
        for ident in later:
            log.executed.add(ident)
        matches(log.executed, set(shipped) | set(later))
        log.reset()
        matches(log.executed, set())

    @pytest.mark.parametrize(
        "shipped",
        [
            [(4, 1)],  # not a tuple
            ((4, 1), (4, 1)),  # repeats an id
            ((5, 0), (4, 9)),  # out of order
            ((4, "1"),),
            (("mallory", 1),),
            ((4, 1.5),),
            ((4, 1, 2),),
            ([4, 2],),
            ((4, 1), None),
        ],
    )
    def test_state_from_wire_refuses_ids_not_strictly_ascending_int_pairs(
        self, shipped
    ):
        with pytest.raises(ValueError):
            state_from_wire((), shipped, 0)

    def test_state_from_wire_keeps_ascending_ids(self):
        _, executed = state_from_wire((), ((4, 9), (5, 0)), 0)
        matches(executed, {(4, 9), (5, 0)})
