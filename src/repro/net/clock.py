"""Clocks of the net runtime: wall time for deployments, virtual time for the twin.

The five modules and the service replica only touch their environment
through ``scheduler.now``, ``scheduler.schedule_after`` and
``network.send``. :class:`WallScheduler` supplies the scheduler on an
asyncio event loop, in seconds since the node started.
:class:`VirtualTimeLoop` is the event loop the deterministic twin runs
the deployment's own classes on: an idle loop jumps to its next timer
instead of sleeping, and ``create_server``/``create_connection`` are
in-memory streams keyed by the genesis ``(host, port)`` — FIFO,
delivered through ``call_soon``, backing up into the writer's buffer
like a socket, so a reader that stops reading blocks ``drain()``.
"""

from __future__ import annotations

import asyncio
import errno
import heapq
import itertools
import selectors
from collections import deque
from typing import Any, Callable

from repro.errors import SchedulerError
from repro.process import CancellationToken

#: Bytes a stream holds "in the kernel" before its writer's buffer grows.
KERNEL_BUFFER = 1 << 16
#: asyncio's default write-buffer limits (``FlowControlMixin``).
HIGH_WATER = 1 << 16
LOW_WATER = HIGH_WATER // 4


class WallScheduler:
    """Timer scheduler over a running asyncio event loop."""

    def __init__(self, loop: Any) -> None:
        self._loop = loop
        self._origin = loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() - self._origin

    def schedule_after(
        self, delay: float, kind: str, callback: Callable[[], None]
    ) -> CancellationToken:
        if delay < 0.0:
            raise SchedulerError(f"negative delay {delay!r}")
        token = CancellationToken()

        def fire() -> None:
            if not token.cancelled:
                callback()

        self._loop.call_later(delay, fire)
        return token


class _Selector(selectors.SelectSelector):
    """Never blocks: ``select(timeout)`` moves the virtual clock instead."""

    def __init__(self, advance: Callable[[float | None], None]) -> None:
        super().__init__()
        self._advance = advance

    def select(self, timeout: float | None = None) -> list:
        self._advance(timeout)
        return []


class _Timer(asyncio.TimerHandle):
    """A timer that fires after every earlier-set timer due at its instant."""

    __slots__ = ("_seq",)

    def __lt__(self, other: "_Timer") -> bool:  # type: ignore[override]
        return (self._when, self._seq) < (other._when, other._seq)


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An asyncio event loop on a virtual clock with an in-memory network.

    Runs start at time 0. Timers due at one instant fire in the order
    they were set, so copies a link delays alike stay in FIFO order. A
    wait that can never end raises instead of hanging.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._timers = itertools.count()
        self._listeners: dict[tuple[str, int], _MemoryServer] = {}
        self._until: tuple[Callable[[], bool], float] | None = None
        self._spawned: dict[asyncio.Task, None] = {}
        self._failure: BaseException | None = None
        super().__init__(_Selector(self._advance))

    def time(self) -> float:
        return self._now

    def call_at(self, when: float, callback: Any, *args: Any, context: Any = None) -> Any:
        self._check_closed()
        timer = _Timer(when, callback, args, self, context)
        timer._seq, timer._scheduled = next(self._timers), True
        heapq.heappush(self._scheduled, timer)
        return timer

    def spawn(self, coro: Any) -> asyncio.Task:
        """Run ``coro`` as a task: the next :meth:`run_until` raises the
        exception it ends with, and :meth:`cancel_spawned` ends it."""
        task = self.create_task(coro)
        self._spawned[task] = None
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        del self._spawned[task]
        if not task.cancelled() and self._failure is None:
            self._failure = task.exception()

    async def cancel_spawned(self) -> None:
        """End every spawned task still running."""
        tasks = list(self._spawned)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def run_until(self, condition: Callable[[], bool], timeout: float) -> bool:
        """Run until ``condition()`` holds or ``timeout`` virtual seconds
        have passed; returns ``condition()``. Both are judged once all
        that is due at an instant has run, so the run stops at the
        instant the condition came to hold, or exactly ``timeout`` on:
        ``run_until(lambda: False, t)`` runs ``t`` seconds, and ``t = 0``
        what is due now. A spawned task that failed fails the run."""
        self._until = (condition, self._now + timeout)
        try:
            self.run_forever()
        finally:
            self._until = None
            failure, self._failure = self._failure, None
            if failure is not None:
                raise failure
        return condition()

    def _advance(self, timeout: float | None) -> None:
        if timeout == 0:
            return
        # Idle at this instant: every timer left is due later.
        when = self._scheduled[0]._when if self._scheduled else None
        if self._until is not None:
            condition, deadline = self._until
            if condition():
                return self.stop()
            if when is None or when > deadline:
                self._now = deadline
                return self.stop()
        elif when is None:
            raise RuntimeError("deadlock: nothing is ready and no timer is pending")
        self._now = when

    async def create_server(self, factory: Any, host: str, port: int, **_: Any) -> Any:
        if (host, port) in self._listeners:
            raise OSError(errno.EADDRINUSE, f"{(host, port)} is in use")
        server = self._listeners[host, port] = _MemoryServer(self, (host, port), factory)
        return server

    async def create_connection(self, factory: Any, host: str, port: int, **_: Any) -> Any:
        server = self._listeners.get((host, port))
        if server is None:
            raise ConnectionRefusedError(errno.ECONNREFUSED, f"{(host, port)} refused")
        near = _MemoryTransport(self, factory(), (host, port))
        far = _MemoryTransport(self, server.factory(), (host, port))
        near.peer, far.peer = far, near
        self.call_soon(far.protocol.connection_made, far)
        near.protocol.connection_made(near)
        return near, near.protocol


class _MemoryServer:
    """A listener on a :class:`VirtualTimeLoop`."""

    def __init__(self, loop: VirtualTimeLoop, address: tuple[str, int], factory: Any) -> None:
        self._loop, self.address, self.factory = loop, address, factory

    def is_serving(self) -> bool:
        return self._loop._listeners.get(self.address) is self

    def close(self) -> None:
        if self.is_serving():
            del self._loop._listeners[self.address]

    async def wait_closed(self) -> None:
        pass


class _MemoryTransport(asyncio.Transport):
    """One end of an in-memory stream.

    ``_inbox`` holds what the peer wrote and this end was not yet handed.
    Past :data:`KERNEL_BUFFER` bytes it is the *peer's* write buffer,
    which pauses the peer's protocol above :data:`HIGH_WATER` and
    resumes it at :data:`LOW_WATER`.
    """

    def __init__(self, loop: VirtualTimeLoop, protocol: Any, address: tuple[str, int]) -> None:
        super().__init__({"peername": address, "sockname": address})
        self._loop, self.protocol = loop, protocol
        self.peer: _MemoryTransport | None = None
        self._inbox: deque[bytes] = deque()
        self._inbox_bytes = 0
        self._eof = False  # the peer closed: EOF after the inbox
        self._reading = True
        self._delivery: asyncio.Handle | None = None
        self._closing = False
        self._writing_paused = False

    def write(self, data: bytes) -> None:
        peer = self.peer
        if self._closing or peer is None or not data:
            return
        peer._inbox.append(bytes(data))
        peer._inbox_bytes += len(data)
        peer._schedule_delivery()
        if not self._writing_paused and self.get_write_buffer_size() > HIGH_WATER:
            self._writing_paused = True
            self.protocol.pause_writing()

    def get_write_buffer_size(self) -> int:
        peer = self.peer
        return 0 if peer is None else max(0, peer._inbox_bytes - KERNEL_BUFFER)

    def _resume_writing(self) -> None:
        if self._writing_paused and self.get_write_buffer_size() <= LOW_WATER:
            self._writing_paused = False
            self.protocol.resume_writing()

    def pause_reading(self) -> None:
        self._reading = False

    def resume_reading(self) -> None:
        self._reading = True
        self._schedule_delivery()

    def _schedule_delivery(self) -> None:
        live = self._reading and not self._closing and (self._inbox or self._eof)
        if live and self._delivery is None:
            self._delivery = self._loop.call_soon(self._deliver)

    def _deliver(self) -> None:
        self._delivery = None
        while self._inbox and self._reading and not self._closing:
            data = self._inbox.popleft()
            self._inbox_bytes -= len(data)
            self.protocol.data_received(data)
        if self.peer is not None:
            self.peer._resume_writing()
        if self._eof and not self._inbox and self._reading and not self._closing:
            if not self.protocol.eof_received():
                self.close()

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        """Hang up: the peer reads what was written, then EOF."""
        if self._closing:
            return
        self._closing = True
        self._inbox.clear()
        self._inbox_bytes = 0
        peer, self.peer = self.peer, None
        if peer is not None:
            peer.peer, peer._eof = None, True
            peer._schedule_delivery()
            peer._resume_writing()  # its writes now go nowhere
        self._loop.call_soon(self.protocol.connection_lost, None)

    def abort(self) -> None:
        """Hang up as a killed process does: what this end wrote past the
        kernel's share dies with its write buffer; the peer reads the
        rest, then EOF."""
        peer = self.peer
        while peer is not None and peer._inbox_bytes > KERNEL_BUFFER:
            chunk = peer._inbox.pop()
            cut = min(len(chunk), peer._inbox_bytes - KERNEL_BUFFER)
            peer._inbox_bytes -= cut
            if cut < len(chunk):
                peer._inbox.append(chunk[:-cut])
        self.close()
