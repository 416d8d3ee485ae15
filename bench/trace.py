"""Outside-in span tracer: per-layer self time without touching ``src/``.

The traced pass of the benchmark wraps the public entry points of every
layer (``TARGETS`` below) from the outside and keeps one span stack for
the whole process — the system under test is one thread on one event
loop, so the stack discipline holds. A span's *self* time is its
duration minus the durations of the spans it called; summing self times
over a layer's entry points gives the layer's row of the budget, and
the rows add up to the CPU the traced entry points cover.

Spans are aggregated in memory per wrapped symbol (calls, self ns)
rather than kept one by one: a traced ``write_small`` window
crosses ~10^6 layer boundaries and a list that long would itself move
the numbers being measured.

Coroutine entry points (``NetClient.set`` …) are traced slice by slice:
every resumption of the coroutine between two suspension points is one
synchronous span, so time spent parked on a future is never billed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Any, Callable

#: (layer, module, qualified name) of every wrapped entry point. A layer
#: is a module of the system under test; the names are resolved — and
#: must resolve — before anything is patched, so a rename in ``src/``
#: breaks the benchmark loudly instead of reporting 0 ms for the layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("net.client", "repro.net.client", "NetClient.set"),
    ("net.client", "repro.net.client", "NetClient.get"),
    ("shard.client", "repro.shard.client", "ShardedNetClient.set"),
    ("net.wire", "repro.net.wire", "encode_frame"),
    ("net.wire", "repro.net.wire", "decode_frame"),
    ("net.wire", "repro.net.wire", "FrameAssembler.feed"),
    ("net.transport", "repro.net.transport", "PeerTransport.send"),
    ("net.node", "repro.net.node", "NetNode.handle_message"),
    ("net.node", "repro.net.node", "NetNode.dispatch_send"),
    ("service.replica", "repro.service.replica", "ServiceReplicaProcess.on_message"),
    ("service.replica", "repro.service.replica", "ServiceReplicaProcess.on_timer"),
    ("consensus.transformed", "repro.consensus.transformed", "TransformedConsensusProcess.on_message"),
    ("consensus.transformed", "repro.consensus.transformed", "TransformedConsensusProcess.handle_valid"),
    ("consensus.transformed", "repro.consensus.transformed", "TransformedConsensusProcess.evaluate_guards"),
    ("consensus.transformed", "repro.consensus.transformed", "TransformedConsensusProcess.start_protocol"),
    ("consensus.monitor", "repro.consensus.monitor", "MonitorBank.admit"),
    ("consensus.certification", "repro.consensus.certification", "current_message_problems"),
    ("consensus.certification", "repro.consensus.certification", "decide_message_problems"),
    ("core.certificates", "repro.core.certificates", "CertificationAuthority.make"),
    ("core.certificates", "repro.core.certificates", "CertificationAuthority.signature_valid"),
    ("crypto.signatures", "repro.crypto.signatures", "SignatureScheme.sign"),
    ("crypto.signatures", "repro.crypto.signatures", "SignatureScheme.verify"),
    ("crypto.signatures", "repro.crypto.signatures", "SignatureScheme.verify_digest"),
    ("crypto.encoding", "repro.crypto.encoding", "canonical_bytes"),
    ("crypto.encoding", "repro.crypto.encoding", "tuple_bytes"),
    ("service.checkpoint", "repro.service.checkpoint", "service_digest"),
    ("service.checkpoint", "repro.service.checkpoint", "certificate_valid"),
    ("replication.kvstore", "repro.replication.kvstore", "KeyValueStore.apply"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class TraceError(RuntimeError):
    """A wrapped symbol is missing, or the tracer was driven wrongly."""


def resolve(module_name: str, qualname: str) -> tuple[Any, str, Callable[..., Any]]:
    """``(owner, attribute, function)`` of one target, or a loud failure."""
    symbol = f"{module_name}.{qualname}"
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"traced symbol {symbol}: cannot import module ({exc})") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"traced symbol {symbol}: no {part!r} in {module_name}")
    function = getattr(owner, attr, None)
    if function is None:
        raise TraceError(f"traced symbol {symbol} does not exist")
    if not callable(function):
        raise TraceError(f"traced symbol {symbol} is not callable")
    return owner, attr, function


def resolve_all() -> list[tuple[str, str, Any, str, Callable[..., Any]]]:
    """Resolve every target before the first patch is applied."""
    return [
        (layer, f"{module}.{qualname}", *resolve(module, qualname))
        for layer, module, qualname in TARGETS
    ]


class _TracedAwaitable:
    """Drives a coroutine, billing each resumption as one span."""

    __slots__ = ("send", "throw", "close")

    def __init__(self, coro: Any, span: Callable[..., Callable[..., Any]]) -> None:
        self.send = span(coro.send)
        self.throw = span(coro.throw)
        self.close = coro.close

    def __await__(self) -> "_TracedAwaitable":
        return self

    def __iter__(self) -> "_TracedAwaitable":
        return self

    def __next__(self) -> Any:
        return self.send(None)


class Tracer:
    """The span stack plus one accumulator row per wrapped symbol."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self._clock = clock
        #: One ``[child_ns]`` frame per open span, innermost last.
        self._stack: list[list[int]] = []
        #: symbol -> [layer, calls, self_ns]
        self.rows: dict[str, list] = {}
        self.installed = False

    # -- the span arithmetic ------------------------------------------------

    def _span(self, function: Callable[..., Any], row: list, count: int) -> Callable[..., Any]:
        """``function`` run as one span billed to ``row``."""
        stack = self._stack
        clock = self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                row[1] += count
                row[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def wrap(self, function: Callable[..., Any], layer: str, symbol: str) -> Callable[..., Any]:
        """A drop-in replacement of ``function`` that records spans."""
        row = self.rows.setdefault(symbol, [layer, 0, 0])
        if not inspect.iscoroutinefunction(function):
            return self._span(function, row, 1)

        def traced_coroutine(*args: Any, **kwargs: Any) -> _TracedAwaitable:
            # One call, however many resumptions it takes to finish.
            row[1] += 1
            return _TracedAwaitable(
                function(*args, **kwargs), lambda step: self._span(step, row, 0)
            )

        return traced_coroutine

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call before the cluster is built.

        Bound methods handed out earlier (``node.handle_message`` given
        to a transport) keep the unwrapped function, hence *before*.
        Module-level functions are also replaced, by identity, in every
        loaded ``repro.*`` namespace that imported them by name.
        """
        if self.installed:
            raise TraceError("tracer installed twice")
        resolved = resolve_all()
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer, symbol, owner, attr, function in resolved:
            wrapped = self.wrap(function, layer, symbol)
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is function:
                            setattr(namespace, name, wrapped)
        self.installed = True

    # -- reading ------------------------------------------------------------

    def reset(self) -> None:
        """Zero the rows (start of the measured window)."""
        if self._stack:
            raise TraceError("tracer reset inside an open span")
        for row in self.rows.values():
            row[1] = row[2] = 0
