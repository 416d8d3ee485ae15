"""Client workload generators for the replicated service.

Two standard workload shapes drive the service (docs/SERVICE.md):

* :class:`OpenLoopClient` — arrivals form a Poisson process of a fixed
  rate, independent of completions (the load-generator model: latency
  degradation does not throttle offered load);
* :class:`ClosedLoopClient` — one outstanding request at a time, a new
  one after a think-time pause (the interactive-user model).

Both draw every random choice from the world's seeded per-process
stream (``env.rng``), so a run is a pure function of its seed. A client
records the submit time of every request and the end-to-end latency of
every completion. It sends every request to every replica — the
replicas decide which one proposes it (docs/SERVICE.md) — and on
silence past ``request_timeout`` *resubmits the same request* to every
replica again; the replicas' executed-id deduplication makes the retry
safe.
"""

from __future__ import annotations

from repro.observability.registry import MODULE_SERVICE
from repro.replication.kvstore import Command
from repro.service.messages import ClientReply, ClientRequest
from repro.sim.process import Process, ProcessEnv


class ServiceClient(Process):
    """Common request/latency bookkeeping of both workload shapes."""

    def __init__(
        self,
        n_replicas: int,
        total_requests: int,
        request_timeout: float,
        key_space: int = 16,
    ) -> None:
        super().__init__()
        self.n_replicas = n_replicas
        self.total_requests = total_requests
        self.request_timeout = request_timeout
        self.key_space = key_space
        self.issued = 0
        #: req_id -> the request as originally issued (resent verbatim).
        self.outstanding: dict[int, ClientRequest] = {}
        self.sent_at: dict[int, float] = {}
        self.attempts: dict[int, int] = {}
        #: req_id -> completion virtual time.
        self.completed: dict[int, float] = {}
        #: end-to-end latencies in issue order (the benchmark's input).
        self.latencies: list[float] = []
        self.resubmissions = 0

    def bind(self, env: ProcessEnv) -> None:
        super().bind(env)
        self._metrics = env.metrics.scope(MODULE_SERVICE, env.pid)

    # -- workload surface ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total_requests

    def completed_idents(self) -> set[tuple[int, int]]:
        return {(self.pid, req_id) for req_id in self.completed}

    # -- request lifecycle --------------------------------------------------

    def _issue(self) -> None:
        req_id = self.issued
        self.issued += 1
        key = f"k{self.env.rng.randint(0, self.key_space - 1)}"
        command = Command("set", key, f"c{self.pid}-{req_id}")
        request = ClientRequest(client=self.pid, req_id=req_id, command=command)
        self.outstanding[req_id] = request
        self.sent_at[req_id] = self.now
        self.attempts[req_id] = 0
        self._metrics.inc("requests_issued")
        self.record("request", req_id=req_id)
        self._submit(request)

    def _submit(self, request: ClientRequest) -> None:
        for replica in range(self.n_replicas):
            self.send(replica, request)
        self.set_timer(f"req-{request.req_id}", self.request_timeout)

    def on_timer(self, name: str) -> None:
        if name.startswith("req-"):
            req_id = int(name.partition("-")[2])
            request = self.outstanding.get(req_id)
            if request is None:
                return
            self.attempts[req_id] += 1
            self.resubmissions += 1
            self._metrics.inc("resubmissions")
            self.record("resubmit", req_id=req_id, attempt=self.attempts[req_id])
            self._submit(request)
            return
        self.handle_workload_timer(name)

    def on_message(self, src: int, payload) -> None:
        if not isinstance(payload, ClientReply) or payload.client != self.pid:
            return
        request = self.outstanding.pop(payload.req_id, None)
        if request is None:
            return  # duplicate reply (every replica replies; first wins)
        self.cancel_timer(f"req-{payload.req_id}")
        latency = self.now - self.sent_at[payload.req_id]
        self.completed[payload.req_id] = self.now
        self.latencies.append(latency)
        self._metrics.inc("requests_completed")
        self._metrics.observe("request_latency", latency)
        self.record("reply", req_id=payload.req_id, slot=payload.slot)
        self.on_complete(payload.req_id)

    # -- hooks for the two workload shapes ----------------------------------

    def handle_workload_timer(self, name: str) -> None:
        """Workload-specific timers (arrival / think)."""

    def on_complete(self, req_id: int) -> None:
        """A request finished; closed-loop clients schedule the next."""


class OpenLoopClient(ServiceClient):
    """Poisson arrivals at ``rate`` requests per unit of virtual time."""

    def __init__(
        self,
        n_replicas: int,
        total_requests: int,
        request_timeout: float,
        rate: float,
        key_space: int = 16,
    ) -> None:
        super().__init__(n_replicas, total_requests, request_timeout, key_space)
        self.rate = rate

    def on_start(self) -> None:
        self._schedule_arrival()

    def _schedule_arrival(self) -> None:
        self.set_timer("arrival", self.env.rng.expovariate(self.rate))

    def handle_workload_timer(self, name: str) -> None:
        if name != "arrival" or self.issued >= self.total_requests:
            return
        self._issue()
        if self.issued < self.total_requests:
            self._schedule_arrival()


class ClosedLoopClient(ServiceClient):
    """One outstanding request; the next follows after a think pause."""

    def __init__(
        self,
        n_replicas: int,
        total_requests: int,
        request_timeout: float,
        think: float,
        key_space: int = 16,
    ) -> None:
        super().__init__(n_replicas, total_requests, request_timeout, key_space)
        self.think = think

    def on_start(self) -> None:
        self._issue()

    def on_complete(self, req_id: int) -> None:
        if self.issued >= self.total_requests:
            return
        if self.think <= 0:
            self._issue()
            return
        # Jittered think time: deterministic per seed, desynchronised
        # across clients so closed-loop runs do not proceed in lockstep.
        self.set_timer("think", self.think * self.env.rng.uniform(0.5, 1.5))

    def handle_workload_timer(self, name: str) -> None:
        if name == "think" and self.issued < self.total_requests:
            self._issue()
