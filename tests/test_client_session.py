"""Tests: the one client protocol, with no I/O, and under forged replies.

:class:`ClientSession` is the f+1 rule every client runs — TCP, loopback
and simulated. The unit tests drive it by hand. The two forged-reply
tests run it under its real drivers: a Byzantine replica names its peers
in the ``replica`` field of replies it sends itself, and the client must
count each reply under the sender its channel authenticated.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.client import NetClient, NetClientError, open_get, open_status
from repro.net.genesis import Genesis
from repro.net.loopback import TWIN_KNOBS, LoopbackCluster, fixed_addresses
from repro.net.messages import ReadReply, ReadRequest, StatusReply
from repro.net.transport import PeerTransport
from repro.net.wire import FrameAssembler, encode_frame
from repro.service.messages import ClientReply, ClientRequest
from repro.service.session import ClientSession

from tests.helpers import Ops, group_state

N, F = 4, 1
PID = N  # the first client


def session() -> ClientSession:
    return ClientSession(PID, N, F, first_req_id=100)


def ack(replica: int, req_id: int, slot: int = 7, client: int = PID) -> ClientReply:
    return ClientReply(replica=replica, client=client, req_id=req_id, slot=slot)


def read(replica: int, req_id: int, found: bool, value) -> ReadReply:
    return ReadReply(
        replica=replica, client=PID, req_id=req_id, key="k",
        found=found, value=value, applied=0,
    )


def status(replica: int, req_id: int, committed: int = 0) -> StatusReply:
    return StatusReply(
        replica=replica, client=PID, req_id=req_id, applied=0,
        committed=committed, store_applied=0, digest="d", stable_count=0,
        transfers=0, suffix_rejections=0,
    )


class TestClientSession:
    def test_ids_and_requests(self):
        core = session()
        first, second = core.set("k", "v"), open_get(core, "k")
        assert (first.req_id, second.req_id, core.next_req_id) == (100, 101, 102)
        assert first.request == core.submit(100)
        assert isinstance(first.request, ClientRequest)
        assert isinstance(second.request, ReadRequest)
        assert first.request.client == second.request.client == PID

    def test_a_duplicate_reply_from_one_sender_counts_once(self):
        core = session()
        op = core.set("k", "v")
        assert core.on_reply(0, ack(0, op.req_id)) is None
        assert core.on_reply(0, ack(0, op.req_id)) is None
        assert core.on_reply(1, ack(1, op.req_id, slot=9)) is op
        assert op.done and op.result == 9 and set(op.replies) == {0, 1}

    def test_a_reply_naming_someone_but_its_sender_is_dropped(self):
        core = session()
        op = core.set("k", "v")
        for name in (0, 1, 2):
            assert core.on_reply(3, ack(name, op.req_id)) is None
        assert op.replies == {} and op.req_id in core.ops
        # Nor does a sender outside the replica group count, named or not.
        assert core.on_reply(PID + 1, ack(PID + 1, op.req_id)) is None
        assert op.replies == {}

    def test_replies_for_another_client_or_an_unknown_id_are_ignored(self):
        core = session()
        op = core.set("k", "v")
        assert core.on_reply(0, ack(0, op.req_id, client=PID + 1)) is None
        assert core.on_reply(0, ack(0, op.req_id + 50)) is None
        assert core.on_reply(0, "not a reply") is None
        # A reply of the wrong kind for the id is not an ack either.
        assert core.on_reply(0, read(0, op.req_id, True, "v")) is None
        assert op.replies == {}

    def test_a_reply_after_completion_is_ignored(self):
        core = session()
        op = core.set("k", "v")
        core.on_reply(0, ack(0, op.req_id))
        assert core.on_reply(1, ack(1, op.req_id)) is op
        assert core.on_reply(2, ack(2, op.req_id)) is None
        assert set(op.replies) == {0, 1} and core.ops == {}

    def test_a_get_completes_on_f_plus_one_matching_answers(self):
        core = session()
        op = open_get(core, "k")
        assert core.on_reply(0, read(0, op.req_id, True, "old")) is None
        assert core.on_reply(1, read(1, op.req_id, True, "new")) is None
        # (found, value) is the vote: a stored None is not an absent key,
        # and 1 is not True.
        assert core.on_reply(2, read(2, op.req_id, False, None)) is None
        assert core.on_reply(3, read(3, op.req_id, True, "new")) is op
        assert op.result == (True, "new")
        other = open_get(core, "k")
        for replica, value in ((0, 1), (1, True), (2, [1]), (3, [1])):
            settled = core.on_reply(replica, read(replica, other.req_id, True, value))
        assert settled is other and other.result == (True, [1])

    def test_status_keeps_one_reply_per_sender(self):
        core = session()
        op = open_status(core)
        core.on_reply(0, status(0, op.req_id, committed=5))
        core.on_reply(0, status(0, op.req_id, committed=99))
        core.on_reply(2, status(2, op.req_id))
        assert {pid: reply.committed for pid, reply in op.replies.items()} == {0: 5, 2: 0}
        assert not op.done
        core.on_reply(1, status(1, op.req_id))
        assert core.on_reply(3, status(3, op.req_id)) is op
        assert set(op.result) == {0, 1, 2, 3}

    def test_each_resubmission_counts_once(self):
        core = session()
        op, other = core.set("a", "1"), core.set("b", "2")
        assert core.submit(op.req_id) is op.request  # the first send
        assert core.resubmissions == 0
        core.submit(op.req_id)
        core.submit(other.req_id)
        core.submit(other.req_id)
        assert (op.attempts, other.attempts, core.resubmissions) == (2, 2, 2)
        core.on_reply(0, ack(0, op.req_id))
        core.on_reply(1, ack(1, op.req_id))
        assert core.submit(op.req_id) is None  # settled: nothing to resend
        assert core.abandon(other.req_id) is other
        assert core.submit(other.req_id) is None
        assert core.resubmissions == 2

    def test_a_status_probe_goes_out_once(self):
        core = session()
        op = open_status(core)
        assert core.submit(op.req_id) is op.request
        assert core.submit(op.req_id) is None
        assert core.resubmissions == 0


def test_loopback_forged_replica_names_complete_nothing():
    # Replica 3 is Byzantine: for every request it answers with two acks
    # of its own, one naming replica 0 and one naming replica 1. The
    # correct replicas' acks never reach the client.
    genesis = Genesis(
        name="forged",
        seed=3,
        n_replicas=N,
        addresses=fixed_addresses(N, 48_000),
        **TWIN_KNOBS,
    )

    def drop_correct_acks(now, src, dst, payload):
        return [] if isinstance(payload, ClientReply) and src != 3 else None

    forged = []

    def rogue(src, message):
        if isinstance(message, ClientRequest):
            for name in (0, 1):
                forged.append(name)
                transport.send(message.client, ack(name, message.req_id, slot=0))

    with LoopbackCluster(genesis, link=drop_correct_acks) as cluster:
        cluster.kill(3)
        transport = cluster.transports[3] = PeerTransport(genesis, 3, rogue)
        cluster.spawn(transport.start())
        client = Ops(cluster)
        req_id = client.set("k", "v")
        cluster.pump(3.0)
        assert forged  # the forgeries were sent
        assert req_id not in client.completed
        # The three correct replicas did commit it; their acks were lost.
        assert set(group_state(cluster, "committed").values()) == {1}


def test_tcp_forged_read_quorum_returns_nothing():
    # One fake replica answers each read with F+1 replies naming distinct
    # replicas and carrying one fabricated value; the others read and
    # stay silent. No value may come back.
    async def scenario():
        def serve(answer: bool):
            async def handle(reader, writer):
                assembler = FrameAssembler()
                try:
                    while data := await reader.read(1 << 16):
                        for message in assembler.feed(data):
                            if answer and isinstance(message, ReadRequest):
                                for name in range(F + 1):
                                    writer.write(encode_frame(ReadReply(
                                        replica=name, client=message.client,
                                        req_id=message.req_id, key=message.key,
                                        found=True, value="forged", applied=9,
                                    )))
                finally:
                    writer.close()

            return handle

        servers = [
            await asyncio.start_server(serve(replica == 0), "127.0.0.1", 0)
            for replica in range(N)
        ]
        genesis = Genesis(
            name="forged-read",
            seed=5,
            n_replicas=N,
            addresses=tuple(server.sockets[0].getsockname()[:2] for server in servers),
            request_timeout=0.2,
        )
        client = NetClient(genesis)
        try:
            with pytest.raises(NetClientError, match="get 'k'"):
                await client.get("k", attempts=3)
        finally:
            await client.close()
            for server in servers:
                server.close()
                await server.wait_closed()
        assert client.gets_completed == 0 and client.resubmissions == 2

    asyncio.run(asyncio.wait_for(scenario(), 20))
