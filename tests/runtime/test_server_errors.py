"""Runtime server behaviour on malformed and edge-case requests."""

import asyncio
import logging

from repro.runtime.protocol import Message, write_message
from repro.runtime.server import KVServer


def run(coro):
    return asyncio.run(coro)


async def read_reply(reader: asyncio.StreamReader) -> Message:
    length = int.from_bytes(await reader.readexactly(4), "big")
    return Message.decode(await reader.readexactly(length))


async def raw_call(port: int, message: Message) -> Message:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        write_message(writer, message)
        return await read_reply(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestServerErrorHandling:
    def test_missing_field_reported_not_fatal(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reply = await raw_call(
                    server.port, Message(type="get", id=1, fields={})
                )
                assert reply.type == "reply"
                assert reply.fields["ok"] is False
                assert "missing field" in reply.fields["error"]
                put = await raw_call(
                    server.port, Message(type="put", id=2, fields={"key": "k"})
                )
                assert put.fields["ok"] is False
                assert "missing field 'value'" in put.fields["error"]
                # Server still alive for a valid request afterwards.
                reply2 = await raw_call(
                    server.port,
                    Message(type="get", id=2, fields={"key": "ghost"}),
                )
                assert reply2.fields["ok"] is True
                assert reply2.fields["values"]["ghost"] is None
                assert server.errors_returned == 2
            finally:
                await server.stop()

        run(scenario())

    def test_malformed_frame_closes_connection(self, caplog):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                bystander = await asyncio.open_connection("127.0.0.1", server.port)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A well-formed frame first: it is answered.
                write_message(writer, Message("get", 1, {"key": "x"}))
                assert (await read_reply(reader)).id == 1
                # Then a frame whose key claims more bytes than the body has.
                body = b"\x00\x00\x01" + (2).to_bytes(8, "big") + b"\xff\xffkey"
                writer.write(len(body).to_bytes(4, "big") + body)
                assert await reader.read() == b""  # dropped, no reply
                writer.close()
                # The other connection, open throughout, is still served.
                write_message(bystander[1], Message("get", 3, {"key": "x"}))
                assert (await read_reply(bystander[0])).id == 3
                bystander[1].close()
            finally:
                await server.stop()

        with caplog.at_level(logging.WARNING, logger="repro.runtime.protocol"):
            run(scenario())
        assert any(
            "protocol error from peer" in r.message and "past the end" in r.message
            for r in caplog.records
        )

    def test_garbage_bytes_close_connection_not_server(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A length prefix promising more than the limit.
                writer.write((2**31).to_bytes(4, "big"))
                await writer.drain()
                # The server drops this connection...
                data = await reader.read()
                assert data == b""
                writer.close()
                # ...but keeps serving new ones.
                reply = await raw_call(
                    server.port,
                    Message(type="get", id=1, fields={"key": "x"}),
                )
                assert reply.type == "reply"
            finally:
                await server.stop()

        run(scenario())

    def test_reply_always_carries_feedback(self):
        async def scenario():
            server = KVServer(scheduler="das", byte_rate=None)
            await server.start()
            try:
                reply = await raw_call(
                    server.port, Message(type="get", id=1, fields={"key": "a"})
                )
                feedback = reply.fields["feedback"]
                assert {"queued_work", "queue_length", "rate_sample"} <= set(
                    feedback
                )
            finally:
                await server.stop()

        run(scenario())

    def test_multiple_sequential_requests_same_connection(self):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(5):
                    write_message(
                        writer,
                        Message(type="get", id=i, fields={"key": f"k{i}"}),
                    )
                    reply = await read_reply(reader)
                    assert reply.id == i
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_empty_mget_answered(self):
        async def scenario():
            server = KVServer(scheduler="das", byte_rate=None)
            await server.start()
            try:
                reply = await raw_call(
                    server.port, Message("mget", 1, {"keys": [], "tags": {}})
                )
                assert reply.fields["ok"] is True
                assert reply.fields["values"] == {}
            finally:
                await server.stop()

        run(scenario())

    def test_reply_too_large_for_a_frame_is_an_error_reply(self, monkeypatch):
        async def scenario():
            server = KVServer(scheduler="fcfs", byte_rate=None)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(4):
                    write_message(
                        writer, Message("put", i, {"key": f"k{i}", "value": b"v" * 400})
                    )
                    assert (await read_reply(reader)).fields["ok"] is True
                # Each value fits a frame; the four together do not.
                write_message(
                    writer, Message("mget", 9, {"keys": [f"k{i}" for i in range(4)]})
                )
                reply = await read_reply(reader)
                assert reply.id == 9
                assert reply.fields["ok"] is False
                assert "too large" in reply.fields["error"]
                # The connection and the executor live on.
                write_message(writer, Message("get", 10, {"key": "k0"}))
                assert (await read_reply(reader)).fields["values"]["k0"] == b"v" * 400
                writer.close()
            finally:
                await server.stop()

        monkeypatch.setattr("repro.runtime.protocol.MAX_MESSAGE_BYTES", 1024)
        run(scenario())
