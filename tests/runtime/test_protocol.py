"""Tests for the runtime wire protocol: the binary frame and its parser."""

import hashlib
import json
import random
import struct

import pytest

from repro.errors import ProtocolError
from repro.runtime.protocol import (
    MAX_MESSAGE_BYTES,
    TAG_NAMES,
    VALID_TYPES,
    FrameProtocol,
    Message,
    write_message,
)

FEEDBACK = {"queued_work": 0.00125, "queue_length": 3, "rate_sample": 1.02}
TAGS = {"rpt": 1.5e-4, "bottleneck": 1.1e-4, "total_demand": 3e-4}

#: One message of every type, with the irregular shapes the codec must carry.
SAMPLES = [
    Message("get", 7, {"key": "k", "tags": {"rpt": 1.5}}),
    Message("get", 8, {"key": "clé-ключ-鍵", "tags": dict(TAGS, trace=True)}),
    Message("put", 9, {"key": "k", "value": bytes(range(256)), "tags": TAGS}),
    Message("put", 10, {"key": "empty", "value": b"", "tags": {}}),
    Message("put", 11, {"key": "big", "value": b"\xff" * 16384, "tags": TAGS}),
    Message("mget", 12, {"keys": ["a", "b", "ü"], "tags": dict(TAGS, trace=False)}),
    Message("mget", 13, {"keys": [], "tags": {}}),
    Message(
        "mget",
        14,
        {"keys": ["a"], "tags": {"lane": "small", "n": -3, "none": None, "on": True}},
    ),
    Message("stats", 15),
    Message("probe", 2**64 - 1),
    Message(
        "reply",
        16,
        {
            "ok": True,
            "values": {"a": b"\x00\x01", "b": None, "c": True, "d": b"", "ü": b"x" * 16384},
            "error": None,
            "feedback": FEEDBACK,
        },
    ),
    Message(
        "reply",
        17,
        {"ok": False, "values": {}, "error": "missing field 'key'", "feedback": FEEDBACK},
    ),
    Message(
        "reply",
        18,
        {
            "ok": True,
            "values": {"a": b"v"},
            "error": None,
            "feedback": FEEDBACK,
            "spans": [{"key": "a", "server_id": 0, "enqueue": 1.5, "band": None}],
            "in_flight": 4,
            "stats": {"ops_served": 3, "faults": {"dropped": 0}},
        },
    ),
    Message("load_report", 0, {"feedback": FEEDBACK, "in_flight": 2}),
]


def body_of(message: Message) -> bytes:
    return message.encode()[4:]


def frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def header(type_code: int, sections: int, mid: int = 1) -> bytes:
    return struct.pack(">BHQ", type_code, sections, mid)


class Recorder(FrameProtocol):
    """A parser wired to nothing: collects messages and protocol errors."""

    class _Transport:
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

        def is_closing(self):
            return self.closed

    def __init__(self):
        super().__init__()
        self.messages = []
        self.errors = []
        self.connection_made(self._Transport())

    def message_received(self, message):
        self.messages.append(message)

    def protocol_error(self, exc):
        self.errors.append(exc)
        super().protocol_error(exc)


class TestMessage:
    def test_roundtrip(self):
        message = Message(type="get", id=7, fields={"key": "k", "tags": {"rpt": 1.5}})
        decoded = Message.decode(message.encode()[4:])
        assert decoded.type == "get"
        assert decoded.id == 7
        assert decoded.fields == {"key": "k", "tags": {"rpt": 1.5}}

    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: f"{m.type}-{m.id}")
    def test_roundtrip_every_type(self, message):
        decoded = Message.decode(body_of(message))
        assert decoded == message
        # Exact types, not just equality: True is not 1, bytes stay bytes.
        for name, value in message.fields.get("tags", {}).items():
            assert type(decoded.fields["tags"][name]) is type(value)
        for key, value in message.fields.get("values", {}).items():
            assert type(decoded.fields["values"][key]) is type(value)

    def test_every_type_has_a_sample(self):
        assert {m.type for m in SAMPLES} == set(VALID_TYPES)

    def test_invalid_type_rejected(self):
        with pytest.raises(ProtocolError):
            Message(type="steal", id=1)

    def test_invalid_id_rejected(self):
        with pytest.raises(ProtocolError):
            Message(type="get", id=-1)
        with pytest.raises(ProtocolError):
            Message(type="get", id=2**64).encode()

    def test_decode_bad_json(self):
        blob = b"{broken"
        body = header(5, 1 << 8) + len(blob).to_bytes(4, "big") + blob
        with pytest.raises(ProtocolError, match="malformed"):
            Message.decode(body)

    def test_decode_non_object(self):
        blob = b"[1, 2]"
        body = header(5, 1 << 8) + len(blob).to_bytes(4, "big") + blob
        with pytest.raises(ProtocolError, match="JSON object"):
            Message.decode(body)

    def test_decode_json_may_not_repeat_a_packed_field(self):
        blob = json.dumps({"key": "smuggled"}).encode()
        body = header(0, 1 << 8) + len(blob).to_bytes(4, "big") + blob
        with pytest.raises(ProtocolError, match="repeats"):
            Message.decode(body)

    def test_decode_missing_fields(self):
        # A body too short to hold the type / sections / id header.
        with pytest.raises(ProtocolError, match="missing"):
            Message.decode(b"\x00\x00\x01")

    def test_length_prefix(self):
        raw = Message(type="get", id=1, fields={"key": "k"}).encode()
        length = int.from_bytes(raw[:4], "big")
        assert length == len(raw) - 4

    def test_interned_tag_names_cost_one_byte(self):
        spelled = {f"x{i}": 1.0 for i in range(len(TAG_NAMES))}
        interned = dict.fromkeys(TAG_NAMES, 1.0)
        saved = len(body_of(Message("get", 1, {"tags": spelled}))) - len(
            body_of(Message("get", 1, {"tags": interned}))
        )
        assert saved == sum(1 + len(name) for name in spelled)

    def test_unknown_type_code_rejected(self):
        with pytest.raises(ProtocolError, match="type code"):
            Message.decode(header(len(VALID_TYPES), 0))

    def test_unknown_section_bit_rejected(self):
        with pytest.raises(ProtocolError, match="section bits"):
            Message.decode(header(0, 1 << 9))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="after the last section"):
            Message.decode(body_of(SAMPLES[0]) + b"\x00")

    def test_oversized_inner_length_rejected(self):
        # A key that claims 65535 bytes in a 20-byte body.
        with pytest.raises(ProtocolError, match="past the end"):
            Message.decode(header(0, 1) + b"\xff\xff" + b"abcdefg")
        # A value that claims 4 GiB.
        with pytest.raises(ProtocolError, match="past the end"):
            Message.decode(header(1, 1 << 2) + b"\xff\xff\xff\xff" + b"abc")
        # 65535 keys promised, none present.
        with pytest.raises(ProtocolError):
            Message.decode(header(2, 1 << 1) + b"\xff\xff")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="malformed text"):
            Message.decode(header(0, 1) + b"\x00\x02\xff\xfe")

    def test_unknown_kind_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="tag value kind"):
            Message.decode(header(0, 1 << 3) + b"\x01\x00\x09")
        with pytest.raises(ProtocolError, match="tag name code"):
            Message.decode(header(0, 1 << 3) + b"\x01\x7f\x00")
        with pytest.raises(ProtocolError, match="value kind"):
            Message.decode(header(5, 1 << 6) + b"\x00\x01\x00\x01k\x07")

    def test_too_large_message_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.protocol.MAX_MESSAGE_BYTES", 64)
        with pytest.raises(ProtocolError, match="too large"):
            Message("put", 1, {"key": "k", "value": b"x" * 64}).encode()

    @pytest.mark.parametrize(
        "fields",
        [
            {"keys": [1, 2]},
            {"keys": 5},
            {"key": b"bytes"},
            {"key": "k" * 70000},
            {"tags": {"rpt": object()}},
            {"tags": {"rpt": 2**70}},
            {"tags": ["rpt"]},
            {"values": {"k": "text"}},
            {"values": {"k": 1}},
            {"feedback": {"queued_work": 1.0}},
            {"feedback": {"queued_work": "x", "queue_length": 0, "rate_sample": 1.0}},
            {"stats": {"unserialisable": object()}},
        ],
    )
    def test_unencodable_fields_rejected(self, fields):
        with pytest.raises(ProtocolError):
            Message("reply", 1, fields).encode()


class TestWireFormat:
    """The exact frames of the messages a multiget exchanges, byte for byte.

    Recorded from the encoder before the runtime's request path was
    flattened; a faster codec must still send these very bytes, and read
    them back into the messages they came from.
    """

    VALUES = {f"key-{i:05d}": bytes((i + j) % 256 for j in range(256)) for i in range(3)}
    #: name -> (message, frame as hex); the 256 B values reply by digest.
    FRAMES = {
        "mget": (
            Message("mget", 41, {"keys": list(VALUES), "tags": TAGS}),
            "0000004d02000a0000000000000029000300096b65792d30303030300009"
            "6b65792d303030303100096b65792d30303030320300033f23a92a305532"
            "6101033f1cd5f99c38b04b02033f33a92a30553261",
        ),
        "put": (
            Message("put", 42, {"key": "key-00007", "value": b"v" * 16, "tags": TAGS}),
            "0000004901000d000000000000002a00096b65792d303030303700000010"
            "767676767676767676767676767676760300033f23a92a3055326101033f"
            "1cd5f99c38b04b02033f33a92a30553261",
        ),
        "error-reply": (
            Message(
                "reply",
                43,
                {"ok": False, "values": {}, "error": "missing field 'keys'", "feedback": FEEDBACK},
            ),
            "0000003c0500f0000000000000002b0000146d697373696e67206669656c"
            "6420276b6579732700003f547ae147ae147b00000000000000033ff051eb"
            "851eb852",
        ),
        "probe-reply": (
            Message(
                "reply",
                44,
                {"ok": True, "values": {}, "error": None, "feedback": FEEDBACK, "in_flight": 5},
            ),
            "000000390501d0000000000000002c0100003f547ae147ae147b00000000"
            "000000033ff051eb851eb8520000000f7b22696e5f666c69676874223a35"
            "7d",
        ),
        "load_report": (
            Message("load_report", 0, {"feedback": FEEDBACK, "in_flight": 2}),
            "0000003606018000000000000000003f547ae147ae147b00000000000000"
            "033ff051eb851eb8520000000f7b22696e5f666c69676874223a327d",
        ),
    }
    REPLY = Message(
        "reply", 41, {"ok": True, "values": VALUES, "error": None, "feedback": FEEDBACK}
    )
    REPLY_SHA256 = "3f401a16eb6763f51bda64e380ebdbe323dd3f884b05e438c8b420c360c1ebf3"

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_frame_bytes_are_pinned(self, name):
        message, expected = self.FRAMES[name]
        raw = message.encode()
        assert raw.hex() == expected
        assert Message.decode(raw[4:]) == message

    def test_value_reply_is_pinned(self):
        raw = self.REPLY.encode()
        assert len(raw) == 858
        assert hashlib.sha256(raw).hexdigest() == self.REPLY_SHA256
        assert Message.decode(raw[4:]) == self.REPLY


class TestValues:
    def test_value_roundtrip(self):
        payload = bytes(range(256))
        put = Message.decode(body_of(Message("put", 1, {"key": "k", "value": payload})))
        assert put.fields["value"] == payload
        reply = Message.decode(body_of(Message("reply", 1, {"values": {"k": payload}})))
        assert reply.fields["values"]["k"] == payload
        # Raw on the wire: no text encoding inflates it.
        assert payload in Message("put", 1, {"key": "k", "value": payload}).encode()

    def test_bad_encoding_rejected(self):
        # Values are bytes; text (the JSON codec's base64 strings) is refused.
        with pytest.raises(ProtocolError, match="must be bytes"):
            Message("put", 1, {"key": "k", "value": "bm90IGJ5dGVz"}).encode()


class TestFuzz:
    """Whatever bytes arrive: a Message or a ProtocolError, nothing else."""

    BODIES = [body_of(m) for m in SAMPLES]

    @staticmethod
    def decode_or_reject(body: bytes):
        try:
            return Message.decode(body)
        except ProtocolError:
            return None

    def test_truncated_at_every_offset(self):
        for body in self.BODIES:
            for cut in range(len(body)):
                assert self.decode_or_reject(body[:cut]) is None, (body, cut)

    def test_flipped_bytes(self):
        rng = random.Random(20211)
        for body in self.BODIES:
            for _ in range(300):
                mutated = bytearray(body)
                for _ in range(rng.randint(1, 3)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                decoded = self.decode_or_reject(bytes(mutated))
                assert decoded is None or isinstance(decoded, Message)

    def test_trailing_garbage(self):
        rng = random.Random(20212)
        for body in self.BODIES:
            garbage = rng.randbytes(rng.randint(1, 16))
            assert self.decode_or_reject(body + garbage) is None

    def test_oversized_declared_lengths(self):
        # Overwrite each aligned 16- and 32-bit field in turn with all ones.
        for body in self.BODIES:
            if len(body) > 2000:
                continue  # the 16 KiB samples add no field, only 16k offsets
            for offset in range(11, len(body) - 1):
                for width in (2, 4):
                    mutated = body[:offset] + b"\xff" * width + body[offset + width :]
                    decoded = self.decode_or_reject(mutated)
                    assert decoded is None or isinstance(decoded, Message)

    def test_random_bytes(self):
        rng = random.Random(20213)
        for _ in range(3000):
            blob = rng.randbytes(rng.randint(0, 64))
            decoded = self.decode_or_reject(blob)
            assert decoded is None or isinstance(decoded, Message)
        # With a plausible header in front, deeper paths are reached.
        for _ in range(3000):
            head = header(rng.randrange(len(VALID_TYPES)), rng.randrange(1 << 9))
            decoded = self.decode_or_reject(head + rng.randbytes(rng.randint(0, 48)))
            assert decoded is None or isinstance(decoded, Message)

    def test_parser_survives_random_streams(self):
        rng = random.Random(20214)
        for _ in range(300):
            parser = Recorder()
            for _ in range(rng.randint(1, 6)):
                parser.data_received(rng.randbytes(rng.randint(1, 40)))
                if parser.transport.closed:
                    break
            assert all(isinstance(e, ProtocolError) for e in parser.errors)


class TestStreamIO:
    """The callback parser: frames in, ``message_received`` calls out."""

    def test_write_then_read(self):
        class Sink:
            def __init__(self):
                self.data = b""

            def write(self, data):
                self.data += data

        sink = Sink()
        message = Message(type="mget", id=3, fields={"keys": ["a", "b"]})
        write_message(sink, message)
        assert sink.data == message.encode()
        parser = Recorder()
        parser.data_received(sink.data)
        assert parser.messages == [message]
        assert parser.messages[0].fields["keys"] == ["a", "b"]

    def test_clean_eof_returns_none(self):
        parser = Recorder()
        parser.data_received(SAMPLES[0].encode())
        assert not parser.eof_received()  # falsy: the transport closes itself
        assert parser.errors == []

    def test_mid_header_eof_raises(self):
        parser = Recorder()
        parser.data_received(b"\x00\x00")  # truncated length prefix
        parser.eof_received()
        assert len(parser.errors) == 1
        assert "mid-message" in str(parser.errors[0])
        assert parser.transport.closed

    def test_mid_message_eof_raises(self):
        parser = Recorder()
        raw = Message(type="get", id=1, fields={"key": "k"}).encode()
        parser.data_received(raw[:-2])  # drop the body's tail
        assert parser.messages == []
        parser.eof_received()
        assert "mid-message" in str(parser.errors[0])

    def test_oversized_declared_length_rejected(self):
        parser = Recorder()
        parser.data_received((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
        assert "exceeds limit" in str(parser.errors[0])
        assert parser.transport.closed

    def test_multiple_messages_in_sequence(self):
        parser = Recorder()
        for i in range(3):
            parser.data_received(Message(type="get", id=i, fields={"key": f"k{i}"}).encode())
        assert [m.id for m in parser.messages] == [0, 1, 2]

    def test_split_and_coalesced_arbitrarily(self):
        stream = b"".join(m.encode() for m in SAMPLES)
        rng = random.Random(20215)
        for _ in range(60):
            parser = Recorder()
            pos = 0
            while pos < len(stream):
                step = rng.choice((1, 2, 3, 5, 11, 64, 700, 20000))
                parser.data_received(stream[pos : pos + step])
                pos += step
            assert parser.messages == SAMPLES
            assert parser.errors == []
        whole = Recorder()
        whole.data_received(stream)
        assert whole.messages == SAMPLES

    def test_byte_at_a_time(self):
        stream = b"".join(m.encode() for m in SAMPLES[:4])
        parser = Recorder()
        for i in range(len(stream)):
            parser.data_received(stream[i : i + 1])
        assert parser.messages == SAMPLES[:4]

    def test_malformed_frame_stops_the_connection(self):
        parser = Recorder()
        good = SAMPLES[0].encode()
        bad = frame(header(0, 1) + b"\xff\xff")
        parser.data_received(good + bad + good)
        # The frame before the bad one is served, nothing after it.
        assert parser.messages == [SAMPLES[0]]
        assert len(parser.errors) == 1
        assert parser.transport.closed

    def test_nothing_served_after_handler_hangs_up(self):
        class HangUp(Recorder):
            def message_received(self, message):
                super().message_received(message)
                self.transport.close()

        parser = HangUp()
        parser.data_received(SAMPLES[0].encode() * 3)
        assert len(parser.messages) == 1
