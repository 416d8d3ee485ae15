"""What the replicas' frames say, and how often they say it.

    python3 benchmarks/frame_census.py [--workload write_small,write_large | all] [--seed 7] [--seconds 6]

Certificates repeat: a DECIDE carries three CURRENTs that each carry the
same INITs, and every ``est_vect`` and every INIT the same client
batches. Payload version 4 (``docs/NET.md``) writes each distinct signed
envelope and client request once per frame and cites it by digest; this
census measures what that is worth on the benchmark's own workloads. Per
workload, over exactly the measured window and per completed operation,
it prints

* ``sent`` — bytes the replicas put on the wire (``wire_bytes_per_op``);
* ``in place`` — bytes the same frames weigh with every envelope and
  request spelled out where it stands, as payload version 3 does, and
  ``saved``, the share of them that saying each thing once takes off;
* ``envelope`` / ``shared`` — pool records written (``0x0C`` / ``0x0E``);
* ``built`` / ``skipped`` — envelope records a decoder met for the first
  time and had to walk (``envelopes_interned``), and the share of all
  envelope records met that its endpoint already held and stepped over
  (``envelope_intern_hits``).

It drives ``bench.workloads`` from outside, the way ``benchmarks/pairs.py``
drives ``bench/run.py``, and touches nothing under ``bench/``: every
frame a ``PeerTransport`` sends is encoded a second and a third time
here, table-less, and counted on the sending node's own registry next
to ``bytes_sent`` — so the window, and the operation count, are the
benchmark's. The extra encodes make the run slower; nothing printed is
a timing. Standard library only.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import WORKLOADS, Window, check_outputs, measure, set_up  # noqa: E402
from repro.net import wire  # noqa: E402
from repro.net.transport import PeerTransport  # noqa: E402

def records(payload: bytes) -> tuple[int, int]:
    """(envelope records, shared records) a v4 payload opens with."""
    tags = [record[0] for record in wire.payload_records(payload)]
    return tags.count(0x0C), tags.count(0x0E)


def install() -> None:
    """Count, on the sender's registry, what each frame sent is made of."""
    send = PeerTransport.send

    def counted(self: PeerTransport, dst: int, payload: Any) -> None:
        send(self, dst, payload)
        try:
            cited = wire.encode_payload(payload)
            in_place = wire.encode_payload(payload, version=wire.VERSION_ENVELOPE)
        except wire.WireError:
            return
        envelopes, shared = records(cited)
        inc = self._metrics.inc
        inc("census_bytes", wire.HEADER.size + len(cited))
        inc("census_in_place_bytes", wire.HEADER.size + len(in_place))
        inc("census_envelope_records", envelopes)
        inc("census_shared_records", shared)

    PeerTransport.send = counted  # type: ignore[method-assign]


async def window_of(name: str, seed: int, seconds: float) -> Window:
    workload = WORKLOADS[name]
    cluster, preloaded, _setup = await set_up(workload, seed)
    try:
        window = await measure(cluster, workload, preloaded, seed, seconds)
        window.problems += await check_outputs(cluster, workload)
    finally:
        await cluster.stop()
    return window


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    if unknown := [name for name in names if name not in WORKLOADS]:
        parser.error(f"unknown workload {unknown[0]!r}")
    install()
    print(
        f"seed {args.seed}, {args.seconds:g} s windows, payload version {wire.DEFAULT_VERSION}; "
        "per completed operation, all replicas summed"
    )
    print(
        f"{'workload':<18}{'ops':>6}{'sent B':>10}{'in place B':>12}{'saved':>8}"
        f"{'envelope':>10}{'shared':>8}{'built':>8}{'skipped':>9}"
    )
    problems = 0
    for name in names:
        window = asyncio.run(window_of(name, args.seed, args.seconds))
        count = lambda key: window.counters.get(f"net/{key}", 0)  # noqa: E731
        ops = window.completed
        if count("census_bytes") != count("bytes_sent"):
            window.problems.append(
                f"census saw {count('census_bytes')} bytes, the transport sent {count('bytes_sent')}"
            )
        in_place = count("census_in_place_bytes")
        met = count("envelope_intern_hits") + count("envelopes_interned")
        print(
            f"{name:<18}{ops:>6}{count('bytes_sent') / ops:>10.1f}{in_place / ops:>12.1f}"
            f"{1 - count('bytes_sent') / in_place:>8.3f}"
            f"{count('census_envelope_records') / ops:>10.2f}"
            f"{count('census_shared_records') / ops:>8.2f}"
            f"{count('envelopes_interned') / ops:>8.2f}"
            + (f"{count('envelope_intern_hits') / met:>9.3f}" if met else f"{'—':>9}")
        )
        for problem in window.problems:
            print(f"  PROBLEM: {problem}")
        problems += len(window.problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
