"""Lock-step synchronous round substrate.

The paper's Vector Consensus is the asynchronous descendant of the
*Interactive Consistency* problem, "first proposed in synchronous systems"
(paper footnote 6, citing Pease–Shostak–Lamport). To reproduce that
baseline faithfully we need the synchronous model it lives in: computation
proceeds in rounds, every message sent in round ``r`` is delivered at the
start of round ``r + 1``, and a crashed process may deliver an arbitrary
*prefix* of its final round's sends (the classic crash semantics).

Byzantine processes are unrestricted: they may send any message to any
subset each round. The engine itself is trusted (it models the network,
not a participant).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.errors import ConfigurationError
from repro.process import SeededRng

#: Outbox shape: destination pid -> message (``None`` entries are skipped).
Outbox = dict[int, Any]
#: Inbox shape: source pid -> message received this round.
Inbox = dict[int, Any]


class SyncProcess(ABC):
    """A participant in a synchronous round-based computation."""

    def __init__(self) -> None:
        self.pid = -1
        self.n = 0
        self.rng: SeededRng | None = None

    def setup(self, pid: int, n: int, rng: SeededRng) -> None:
        """Called by the engine before round 1."""
        self.pid = pid
        self.n = n
        self.rng = rng

    @abstractmethod
    def on_round(self, round_number: int, inbox: Inbox) -> Outbox:
        """Consume the round's inbox, return the round's outbox.

        ``inbox`` maps each sender to the message it addressed to this
        process in the previous round (round 1 starts with an empty
        inbox).
        """


class SynchronousEngine:
    """Runs ``rounds`` lock-step rounds over a set of processes.

    Crash faults are scheduled as ``(pid, round, prefix)``: the process
    executes ``on_round`` for the given round, but only the first
    ``prefix`` destinations (in pid order) of its outbox are delivered,
    and it is silent forever after — the send-omission semantics of the
    synchronous crash model.
    """

    def __init__(
        self,
        processes: list[SyncProcess],
        seed: int = 0,
        crash_schedule: dict[int, tuple[int, int]] | None = None,
    ) -> None:
        if not processes:
            raise ConfigurationError("the engine needs at least one process")
        self.processes = processes
        self.n = len(processes)
        self.rng = SeededRng(seed, "sync")
        self.crash_schedule = dict(crash_schedule or {})
        self.crashed: set[int] = set()
        self.round = 0
        for pid, process in enumerate(processes):
            process.setup(pid, self.n, self.rng.fork(f"p{pid}"))
        self._inboxes: list[Inbox] = [{} for _ in range(self.n)]

    def run(self, rounds: int) -> None:
        """Execute the next ``rounds`` rounds."""
        for _ in range(rounds):
            self.round += 1
            self._run_round()

    def _run_round(self) -> None:
        next_inboxes: list[Inbox] = [{} for _ in range(self.n)]
        for pid, process in enumerate(self.processes):
            if pid in self.crashed:
                continue
            outbox = process.on_round(self.round, self._inboxes[pid]) or {}
            limit = self.n
            crash = self.crash_schedule.get(pid)
            if crash is not None and crash[0] == self.round:
                limit = crash[1]
                self.crashed.add(pid)
            delivered = 0
            for dst in sorted(outbox):
                if delivered >= limit:
                    break
                if 0 <= dst < self.n and outbox[dst] is not None:
                    next_inboxes[dst][pid] = outbox[dst]
                    delivered += 1
        self._inboxes = next_inboxes
