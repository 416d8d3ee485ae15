"""Family (c): the clock/timing attack.

A Byzantine peer does not lie about content — it lies about *time*:
within the attack window it releases outbound traffic only at
``gap``-second burst boundaries. Correct peers coupled to it through
quorums see inter-arrival gaps far above what the Jacobson-style
:class:`~repro.detectors.diamond_m.AdaptiveMutenessDetector` trained on,
so the estimator wrongfully suspects *correct* replicas. The attribution
oracle then checks the blame never escapes the muteness module — no
correct process may *declare* a correct process faulty over it.

:func:`burst_hold` is a pure function of (clauses, now, src): the
injectors at every fidelity share it, so the shaped schedule is
deterministic and independent of delivery order.
"""

from __future__ import annotations

from collections.abc import Iterable

#: Release jitter below this is treated as already on a burst boundary
#: (floating-point guard; plan times are coarse next to it).
_EPSILON = 1e-9

#: Minimum spacing (plan seconds) between two shaped releases on the
#: same directed link. The attacker is *slow*, not misbehaving: its
#: stream must stay FIFO through substrates that add per-message latency
#: jitter after the hold (the sim's uniform [0.5, 1.5] transfer delay is
#: 1.0 virtual units of spread = 0.04 plan seconds at scale 25; the
#: loopback twin adds none). Releasing two held messages closer than the
#: jitter would let the later one overtake — and Figure 4's monitor
#: automaton, which assumes FIFO channels, would then brand the
#: honest-but-late sender faulty and reject its quorum traffic forever.
BURST_FIFO_SPACING = 0.05


def burst_hold(
    timing: Iterable[tuple[int, float, float, float]], src: int, now: float
) -> float:
    """Extra delay the attacker ``src`` puts on a message sent at ``now``.

    Zero outside every window (and for non-attackers); inside a window,
    the time remaining until the next ``gap``-boundary after ``start`` —
    never more than ``gap``.
    """
    hold = 0.0
    for pid, start, end, gap in timing:
        if pid != src or not start <= now < end:
            continue
        phase = (now - start) % gap
        if phase > _EPSILON:
            hold = max(hold, gap - phase)
    return hold


class BurstShaper:
    """FIFO-preserving burst shaping for one injector instance.

    Wraps the pure :func:`burst_hold` with per-directed-link release
    bookkeeping: each shaped message is released at least
    :data:`BURST_FIFO_SPACING` after the previous one on the same link,
    so the substrate's post-hold latency jitter cannot reorder the
    attacker's stream. Messages sent after the window drain through the
    same spacing until the backlog clears, then shaping stops entirely.
    Deterministic — no randomness, state is a pure function of the send
    history, and links never share state.
    """

    def __init__(self, timing: Iterable[tuple[int, float, float, float]]) -> None:
        self._timing = tuple(timing)
        self._last_release: dict[tuple[int, int], float] = {}

    def hold(self, src: int, dst: int, now: float) -> float:
        """Extra delay for a ``src -> dst`` message sent at ``now``."""
        release = now + burst_hold(self._timing, src, now)
        key = (src, dst)
        last = self._last_release.get(key)
        if last is not None and release < last + BURST_FIFO_SPACING:
            release = last + BURST_FIFO_SPACING
        if release > now:
            self._last_release[key] = release
            return release - now
        return 0.0
