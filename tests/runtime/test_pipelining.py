"""One connection, many messages in flight: the scheduler orders them."""

import asyncio
import socket

from repro.runtime import LocalCluster
from repro.runtime.protocol import Message, write_message
from repro.runtime.server import KVServer

from tests.runtime.test_server_errors import read_reply


def run(coro):
    return asyncio.run(coro)


class TestPipelinedConnection:
    def test_short_mget_overtakes_long_one_on_the_same_connection(self):
        async def scenario():
            # 1 MB/s: a 20 kB value is 20 ms of emulated service.
            server = KVServer(scheduler="sbf", byte_rate=1e6, per_op_overhead=0.0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i, size in enumerate((20_000, 20_000, 20_000, 100)):
                    write_message(
                        writer, Message("put", i, {"key": f"k{i}", "value": b"v" * size})
                    )
                for _ in range(4):
                    await read_reply(reader)
                long = Message(
                    "mget", 100, {"keys": ["k0", "k1", "k2"], "tags": {"bottleneck": 0.06}}
                )
                short = Message("mget", 101, {"keys": ["k3"], "tags": {"bottleneck": 1e-4}})
                write_message(writer, long)
                write_message(writer, short)  # sent after, on the same connection
                first = await read_reply(reader)
                second = await read_reply(reader)
                assert (first.id, second.id) == (101, 100)
                assert first.fields["values"] == {"k3": b"v" * 100}
                assert set(second.fields["values"]) == {"k0", "k1", "k2"}
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_messages_of_one_connection_meet_in_the_queue(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=1e6, per_op_overhead=0.0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                write_message(writer, Message("put", 1, {"key": "k", "value": b"v" * 5000}))
                await read_reply(reader)
                for i in range(6):
                    write_message(writer, Message("get", 10 + i, {"key": "k"}))
                replies = [await read_reply(reader) for _ in range(6)]
                # FCFS keeps arrival order, and each later reply saw the
                # others waiting behind it in the same queue.
                assert [r.id for r in replies] == [10, 11, 12, 13, 14, 15]
                lengths = [r.fields["feedback"]["queue_length"] for r in replies]
                assert lengths == [5, 4, 3, 2, 1, 0]
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_delay_fault_holds_back_one_reply_not_the_connection(self):
        from repro.runtime.faults import DelayReplies

        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                server.faults.add(DelayReplies(delay=0.1, count=1))
                write_message(writer, Message("get", 1, {"key": "a"}))  # delayed
                write_message(writer, Message("get", 2, {"key": "b"}))
                assert (await read_reply(reader)).id == 2
                assert (await read_reply(reader)).id == 1
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_client_that_stops_reading_pauses_the_servers_reads(self):
        value = b"v" * (1 << 20)
        requests = 48

        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", server.port)
                )
                reader, writer = await asyncio.open_connection(sock=sock, limit=1 << 16)
                write_message(writer, Message("put", 0, {"key": "big", "value": value}))
                await read_reply(reader)
                (connection,) = server._connections
                # Ask for 48 MiB, one request at a time, reading nothing.
                for i in range(requests):
                    write_message(writer, Message("get", 1 + i, {"key": "big"}))
                    await asyncio.sleep(0.002)
                await asyncio.sleep(0.05)
                transport = connection.transport
                assert not transport.is_reading()
                served_while_stalled = server.executor.ops_executed - 1
                assert served_while_stalled < requests
                # What the server holds for this peer is bounded by the
                # high-water mark plus the replies of one read, not by what
                # the peer has asked for.
                assert transport.get_write_buffer_size() < 8 * len(value)
                # The peer reads again: everything asked for arrives.
                ids = [(await read_reply(reader)).id for _ in range(requests)]
                assert sorted(ids) == list(range(1, requests + 1))
                assert transport.is_reading()
                writer.close()
            finally:
                await server.stop()

        run(scenario())


class TestStorageAccounting:
    def test_hits_equal_keys_served(self):
        async def scenario():
            async with LocalCluster(n_servers=4, scheduler="das", byte_rate=None) as cluster:
                keys = [f"key-{i}" for i in range(8)]
                await cluster.preload({key: b"x" * 64 for key in keys})
                values = await cluster.client.multiget(keys + ["ghost-1", "ghost-2"])
                assert [values[k] for k in keys] == [b"x" * 64] * 8
                assert values["ghost-1"] is None and values["ghost-2"] is None

        run(scenario())

    def test_size_dependent_delay_does_not_count_reads(self):
        from repro.runtime.faults import DelayReplies

        async def scenario():
            async with LocalCluster(n_servers=1, scheduler="fcfs", byte_rate=None) as cluster:
                await cluster.client.put("k", b"x" * 1000)
                cluster.inject(0, DelayReplies(delay_per_byte=1e-6))
                assert await cluster.client.get("k") == b"x" * 1000

        run(scenario())
