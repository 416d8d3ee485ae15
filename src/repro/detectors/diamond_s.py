"""Builders for ◇S detector suites.

The Hurfin–Raynal protocol assumes a detector of class ◇S (strong
completeness + eventual weak accuracy). Two interchangeable
implementations are provided:

* the :class:`~repro.detectors.oracles.OracleDetector`, which enforces the
  class by construction (used when an experiment must control detector
  quality exactly), and
* the :class:`~repro.detectors.heartbeat.HeartbeatDetector`, an honest
  message-based implementation that converges to ◇P ⊆ ◇S when the run's
  delays are eventually bounded.

These helpers build one detector per process so that the oracle instances
share a ``trusted`` process — the witness of eventual weak accuracy.
"""

from __future__ import annotations

from typing import Callable

from repro.detectors.heartbeat import HeartbeatDetector
from repro.detectors.oracles import OracleDetector


def oracle_diamond_s_suite(
    n: int,
    is_crashed: Callable[[int], bool],
    trusted: int,
    poll_interval: float = 1.0,
    accuracy_time: float = 0.0,
    noise_rate: float = 0.0,
) -> list[OracleDetector]:
    """One ◇S oracle for each of ``n`` processes, fed by the crash ground
    truth ``is_crashed`` (a world's :meth:`~repro.sim.world.World.is_crashed`).

    ``trusted`` should be a process the caller knows will stay correct; it
    is never erroneously suspected, which realises eventual weak accuracy.
    """
    return [
        OracleDetector(
            status=is_crashed,
            trusted=trusted,
            poll_interval=poll_interval,
            accuracy_time=accuracy_time,
            noise_rate=noise_rate,
        )
        for _ in range(n)
    ]


def heartbeat_diamond_s_suite(
    n: int,
    period: float = 1.0,
    initial_timeout: float = 4.0,
    backoff: float = 2.0,
) -> list[HeartbeatDetector]:
    """One adaptive heartbeat detector per process."""
    return [
        HeartbeatDetector(
            period=period, initial_timeout=initial_timeout, backoff=backoff
        )
        for _ in range(n)
    ]
