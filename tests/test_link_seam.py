"""Tests: the one link seam every fabric shares (``repro.process.LinkPolicy``).

One scripted policy runs unchanged on the simulator's ``Network`` and on
two ``PeerTransport``s — one scenario body on the loopback twin's
virtual-time loop and over real sockets on 127.0.0.1 — and each
receiver must see the same stream. A fault plan's
injector installed as the simulator's policy must get the network's
per-link accounting like any other policy.
"""

from __future__ import annotations

import asyncio

from repro.faults.plan import FaultPlan
from repro.faults.sim_runner import SIM_TIME_SCALE, build_sim_system
from repro.net.cluster import make_genesis
from repro.net.transport import PeerTransport
from repro.observability.registry import MODULE_NETWORK
from repro.observability.trace import Trace
from repro.sim.network import FixedDelay, Network
from repro.sim.scheduler import Scheduler

from tests.helpers import run_virtual

#: Seconds (virtual or wall) m3 is held back: enough for m4 to overtake.
LATE = 0.2
SENT = ["m1", "m2", "m3", "m4"]
#: Drop m1, duplicate m2, delay m3 past m4, leave m4 alone.
EXPECTED = ["m2", "m2", "m4", "m3"]


def scripted(now, src, dst, payload):
    return {
        "m1": [],
        "m2": [("m2", 0.0), ("m2", 0.0)],
        "m3": [("m3", LATE)],
        "m4": None,
    }[payload]


class TestOnePolicyThreeFabrics:
    def test_sim_network(self):
        scheduler, trace = Scheduler(seed=0), Trace()
        network = Network(
            scheduler, trace, delay_model=FixedDelay(1.0), link=scripted
        )
        got: list[str] = []
        network.register(0, lambda src, msg: None)
        network.register(1, lambda src, msg: got.append(msg))
        for message in SENT:
            network.send(0, 1, message)
        scheduler.run()
        assert got == EXPECTED
        assert (network.messages_dropped, network.messages_duplicated) == (1, 1)
        assert trace.first("link-drop").detail["reason"] == "link"

    def test_loopback_hub(self):
        genesis = make_genesis(4, seed=41, name="link-seam")
        assert run_virtual(two_transports(genesis)) == EXPECTED

    def test_peer_transports_over_tcp(self):
        genesis = make_genesis(4, seed=41, name="link-seam")
        assert asyncio.run(two_transports(genesis)) == EXPECTED


async def two_transports(genesis):
    """Replica 0 sends ``SENT`` to replica 1 under ``scripted``; returns
    what replica 1 received."""
    got: list[str] = []
    arrived = asyncio.Event()

    def receive(src, message):
        got.append(message)
        arrived.set()

    sender = PeerTransport(genesis, 0, lambda src, msg: None, link=scripted)
    receiver = PeerTransport(genesis, 1, receive)
    await sender.start()
    await receiver.start()
    try:
        for message in SENT:
            sender.send(1, message)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 8.0
        while len(got) < len(EXPECTED):
            arrived.clear()
            await asyncio.wait_for(
                arrived.wait(), max(0.05, deadline - loop.time())
            )
        # Nothing else is on its way: m1 stays dropped.
        await asyncio.sleep(2 * LATE)
        return got
    finally:
        await sender.stop()
        await receiver.stop()


def test_a_fault_plan_gets_the_per_link_accounting():
    plan = FaultPlan(
        name="link-accounting", seed=5, requests=8, loss=0.1, duplication=0.2
    )
    system, _injector, _registry = build_sim_system(plan)
    world = system.world
    world.run(max_events=200_000, max_time=plan.duration * SIM_TIME_SCALE)
    network = world.network
    totals = world.metrics.totals_by_module()[MODULE_NETWORK]

    def per_link(kind):
        return sum(v for name, v in totals.items() if name.startswith(kind + "["))

    assert network.messages_dropped > 0 and network.messages_duplicated > 0
    assert per_link("drop") == network.messages_dropped
    assert per_link("dup") == network.messages_duplicated
