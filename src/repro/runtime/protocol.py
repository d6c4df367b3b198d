"""Wire protocol for the asyncio runtime: a length-prefixed binary frame.

Frame
-----
::

    frame   := length:u32  body            (all integers big-endian)
    body    := header  section*
    header  := type:u8  sections:u16  id:u64

``length`` counts the body only and may not exceed
:data:`MAX_MESSAGE_BYTES`.  ``type`` indexes :data:`VALID_TYPES`.  ``id``
is the correlation id chosen by the sender (a reply echoes it).
``sections`` is a bitmap; the sections present follow the header in bit
order, each one field of :attr:`Message.fields`:

====  ============  ====================================================
bit   field         layout
====  ============  ====================================================
0     ``key``       ``str``
1     ``keys``      ``count:u16``, then ``count`` × ``str``
2     ``value``     ``len:u32`` + raw bytes (no text encoding)
3     ``tags``      ``count:u8``, then ``count`` × ``name  scalar``
4     ``ok``        ``u8`` (0 / 1)
5     ``error``     ``str``
6     ``values``    ``count:u16``, then ``count`` × ``str  value``
7     ``feedback``  ``queued_work:f64  queue_length:i64  rate_sample:f64``
8     *(blob)*      ``len:u32`` + one UTF-8 JSON object
====  ============  ====================================================

* ``str`` is ``len:u16`` + UTF-8.
* A tag ``name`` is one byte: an index into :data:`TAG_NAMES` (the tags
  every request carries are interned), or ``0xFF`` followed by
  ``len:u8`` + UTF-8 for any other name.
* ``scalar`` is a kind byte and its payload: ``0`` None, ``1`` False,
  ``2`` True, ``3`` ``f64``, ``4`` ``i64``, ``5`` ``str``.
* ``value`` (in ``values``) is a kind byte and its payload: ``0`` None
  (key absent), ``1`` True (put acknowledged), ``2`` ``len:u32`` + raw
  bytes.
* The blob carries every other field — the irregular, cold ones
  (``stats``, ``spans``, ``in_flight``) — as one JSON object whose
  members are merged into ``fields``.  A field the table names never
  rides the blob, and ``error: None`` is spelled by leaving bit 5 clear
  on a message that has bit 4.

A decoder rejects, with :class:`~repro.errors.ProtocolError`: an unknown
type code or section bit, any length that runs past the end of the body,
bytes left over after the last section, invalid UTF-8, an unknown kind
byte, and a blob that is not a JSON object.

Messages
--------
Request types (client -> server):

* ``get``  — ``key``, ``tags``
* ``put``  — ``key``, ``value``, ``tags``
* ``mget`` — ``keys``, ``tags``
* ``stats`` — no fields — scrape the server's observability surface; the
  reply's ``stats`` field carries the counter snapshot and the metrics
  registry snapshot (see ``repro.obs``).  Served from the control plane
  (never queued behind data operations).
* ``probe`` — no fields — Prequal-style load probe.  Served from the
  control plane like ``stats``; the reply carries the usual ``feedback``
  snapshot plus ``in_flight`` (queued + in-service operations), feeding
  the client's probe pool without queueing behind data operations.

Server-push (server -> client, unsolicited):

* ``load_report`` — ``feedback``, ``in_flight`` with ``id=0`` (never a
  valid correlation id, so clients absorb the feedback and drop the
  frame).  Broadcast periodically to every open connection when the
  server runs with a ``load_report_interval`` — the Dodoor-style control
  plane whose cost scales with servers and time, not with the request
  rate.

Response (server -> client):

* ``reply`` — ``ok``, ``values`` (key -> bytes, None or True), ``error``
  (str or None), ``feedback`` (``queued_work``, ``queue_length``,
  ``rate_sample``).  When the request's tags carried ``"trace": true``
  the reply additionally includes ``spans``: one ``{key, server_id,
  enqueue, service_start, service_end, band, threshold, promoted}``
  object per operation, timestamped with the server's monotonic clock.

``tags`` carries the scheduler priority payload (e.g. DAS's ``rpt``) —
the protocol-level realization of "priorities travel with operations".

Replies on one connection may arrive in any order: the server serves a
connection's messages concurrently and the scheduler, not arrival order,
decides which finishes first.  Correlate by ``id``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
#: Sanity bound so a corrupt length prefix cannot allocate gigabytes.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

VALID_TYPES = ("get", "put", "mget", "stats", "probe", "reply", "load_report")
_TYPE_CODES = {name: code for code, name in enumerate(VALID_TYPES)}

#: Tag names sent as a one-byte index instead of spelled out.
TAG_NAMES = ("rpt", "bottleneck", "total_demand", "trace")
_TAG_CODES = {name: code for code, name in enumerate(TAG_NAMES)}
_TAG_SPELLED = 0xFF

_HEADER = struct.Struct(">BHQ")
#: The length prefix and the header, packed together.
_PREFIX_HEADER = struct.Struct(">IBHQ")
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")
_FEEDBACK = struct.Struct(">dqd")

_KEY, _KEYS, _VALUE, _TAGS, _OK, _ERROR, _VALUES, _FEEDBACK_BIT, _BLOB = (
    1 << bit for bit in range(9)
)
_KNOWN_SECTIONS = (1 << 9) - 1
#: Fields with a section of their own; every other field rides the blob.
_SECTION_FIELDS = frozenset(
    ("key", "keys", "value", "tags", "ok", "error", "values", "feedback")
)

#: Kind bytes of a tag's ``scalar`` and of an entry of ``values``.
_NONE, _FALSE, _TRUE, _FLOAT, _INT, _STR = range(6)
_ABSENT, _ACK, _BYTES = range(3)
#: The kind bytes as bytes, indexed by kind.
_KIND = [bytes((kind,)) for kind in range(6)]
#: An interned tag name's code, its kind byte and a float, in one pack.
_FLOAT_TAG = struct.Struct(">BBd")
#: A ``values`` entry's kind byte and its value's length, in one pack.
_BYTES_ENTRY = struct.Struct(">BI")
_INTERNED = len(TAG_NAMES)
#: Builds a decoded :class:`Message` without its constructor.
_new = object.__new__


def _overrun(size: int) -> ProtocolError:
    return ProtocolError(f"declared length {size} runs past the end of the message")


def _pack_tag(out: List[bytes], name: str, value: Any) -> None:
    """One tag that is not an interned name with a float value."""
    code = _TAG_CODES.get(name)
    if code is None:
        raw = name.encode("utf-8")
        out.append(bytes((_TAG_SPELLED, len(raw))))
        out.append(raw)
    else:
        out.append(bytes((code,)))
    # bool before int: True is an int.
    if value is None:
        out.append(_KIND[_NONE])
    elif value is True or value is False:
        out.append(_KIND[_TRUE if value else _FALSE])
    elif isinstance(value, float):
        out.append(_KIND[_FLOAT])
        out.append(_F64.pack(value))
    elif isinstance(value, int):
        out.append(_KIND[_INT])
        out.append(_I64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_KIND[_STR])
        out.append(_U16.pack(len(raw)))
        out.append(raw)
    else:
        raise ProtocolError(f"tag {name!r} has unsupported value {value!r}")


def _unpack_tag(tags: Dict[str, Any], body: bytes, pos: int, end: int) -> int:
    """Read the tag at ``pos`` into ``tags``; returns the position after it."""
    code = body[pos]
    pos += 1
    if code < _INTERNED:
        name = TAG_NAMES[code]
    elif code == _TAG_SPELLED:
        stop = pos + 1 + body[pos]
        if stop > end:
            raise _overrun(body[pos])
        name = body[pos + 1 : stop].decode("utf-8")
        pos = stop
    else:
        raise ProtocolError(f"unknown tag name code {code}")
    kind = body[pos]
    pos += 1
    if kind == _FLOAT:
        (tags[name],) = _F64.unpack_from(body, pos)
        pos += 8
    elif kind == _TRUE or kind == _FALSE:
        tags[name] = kind == _TRUE
    elif kind == _INT:
        (tags[name],) = _I64.unpack_from(body, pos)
        pos += 8
    elif kind == _STR:
        (size,) = _U16.unpack_from(body, pos)
        stop = pos + 2 + size
        if stop > end:
            raise _overrun(size)
        tags[name] = body[pos + 2 : stop].decode("utf-8")
        pos = stop
    elif kind == _NONE:
        tags[name] = None
    else:
        raise ProtocolError(f"unknown tag value kind {kind}")
    return pos


@dataclass(init=False, slots=True)
class Message:
    """One protocol message (either direction).

    Building one validates its type and id; :meth:`decode` builds its
    messages without going through the constructor, having checked the
    type code itself (any id a ``u64`` holds is valid).
    """

    type: str
    id: int
    fields: Dict[str, Any]

    def __init__(self, type: str, id: int, fields: Optional[Dict[str, Any]] = None):
        if type not in _TYPE_CODES:
            raise ProtocolError(f"invalid message type {type!r}")
        if not isinstance(id, int) or id < 0:
            raise ProtocolError(f"invalid message id {id!r}")
        self.type = type
        self.id = id
        self.fields = {} if fields is None else fields

    def encode(self) -> bytes:
        """The full frame: length prefix, header, sections."""
        try:
            fields = self.fields
            sections = 0
            # A placeholder for the length prefix and the header, known last.
            out: List[bytes] = [b""]
            append = out.append
            pack_u16 = _U16.pack
            if "key" in fields:
                sections |= _KEY
                raw = fields["key"].encode("utf-8")
                append(pack_u16(len(raw)))
                append(raw)
            if "keys" in fields:
                sections |= _KEYS
                keys = fields["keys"]
                append(pack_u16(len(keys)))
                for key in keys:
                    raw = key.encode()
                    append(pack_u16(len(raw)))
                    append(raw)
            if "value" in fields:
                sections |= _VALUE
                value = fields["value"]
                if not isinstance(value, (bytes, bytearray)):
                    raise ProtocolError("value must be bytes")
                append(_LEN.pack(len(value)))
                append(value)
            if "tags" in fields:
                sections |= _TAGS
                tags = fields["tags"]
                append(bytes((len(tags),)))
                for name, value in tags.items():
                    code = _TAG_CODES.get(name)
                    if code is not None and type(value) is float:
                        # What every request carries: an interned name and a float.
                        append(_FLOAT_TAG.pack(code, _FLOAT, value))
                    else:
                        _pack_tag(out, name, value)
            if "ok" in fields:
                sections |= _OK
                append(b"\x01" if fields["ok"] else b"\x00")
            if fields.get("error") is not None:
                sections |= _ERROR
                raw = fields["error"].encode("utf-8")
                append(pack_u16(len(raw)))
                append(raw)
            if "values" in fields:
                sections |= _VALUES
                values = fields["values"]
                append(pack_u16(len(values)))
                for key, value in values.items():
                    raw = key.encode()
                    append(pack_u16(len(raw)))
                    append(raw)
                    if type(value) is bytes or isinstance(value, (bytes, bytearray)):
                        append(_BYTES_ENTRY.pack(_BYTES, len(value)))
                        append(value)
                    elif value is None:
                        append(_KIND[_ABSENT])
                    elif value is True:
                        append(_KIND[_ACK])
                    else:
                        raise ProtocolError(f"value of {key!r} must be bytes, None or True")
            if "feedback" in fields:
                sections |= _FEEDBACK_BIT
                feedback = fields["feedback"]
                append(
                    _FEEDBACK.pack(
                        feedback["queued_work"],
                        feedback["queue_length"],
                        feedback["rate_sample"],
                    )
                )
            if not fields.keys() <= _SECTION_FIELDS:
                sections |= _BLOB
                blob = {k: v for k, v in fields.items() if k not in _SECTION_FIELDS}
                raw = json.dumps(blob, separators=(",", ":")).encode("utf-8")
                append(_LEN.pack(len(raw)))
                append(raw)
            length = _HEADER.size + sum(map(len, out))
            out[0] = _PREFIX_HEADER.pack(length, _TYPE_CODES[self.type], sections, self.id)
        except (struct.error, ValueError, TypeError, AttributeError, KeyError) as exc:
            # A length or number that does not fit its field, or a field
            # of the wrong shape (keys that are not strings, ...).
            raise ProtocolError(f"cannot encode {self.type} message: {exc}") from exc
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message too large: {length} bytes")
        return b"".join(out)

    @classmethod
    def decode(cls, body: bytes) -> "Message":
        """Parse one frame body (the bytes after the length prefix)."""
        end = len(body)
        if end > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message too large: {end} bytes")
        if end < _HEADER.size:
            raise ProtocolError(f"message missing header: {end} of {_HEADER.size} bytes")
        code, sections, mid = _HEADER.unpack_from(body, 0)
        if code >= len(VALID_TYPES):
            raise ProtocolError(f"unknown message type code {code}")
        if sections & ~_KNOWN_SECTIONS:
            raise ProtocolError(f"unknown section bits {sections:#06x}")
        pos = _HEADER.size
        unpack_u16 = _U16.unpack_from
        fields: Dict[str, Any] = {}
        try:
            if sections & _KEY:
                (size,) = unpack_u16(body, pos)
                stop = pos + 2 + size
                if stop > end:
                    raise _overrun(size)
                fields["key"] = body[pos + 2 : stop].decode("utf-8")
                pos = stop
            if sections & _KEYS:
                (count,) = unpack_u16(body, pos)
                pos += 2
                keys = fields["keys"] = []
                for _ in range(count):
                    (size,) = unpack_u16(body, pos)
                    stop = pos + 2 + size
                    if stop > end:
                        raise _overrun(size)
                    keys.append(body[pos + 2 : stop].decode())
                    pos = stop
            if sections & _VALUE:
                (size,) = _LEN.unpack_from(body, pos)
                stop = pos + 4 + size
                if stop > end:
                    raise _overrun(size)
                fields["value"] = body[pos + 4 : stop]
                pos = stop
            if sections & _TAGS:
                tags = fields["tags"] = {}
                count = body[pos]
                pos += 1
                for _ in range(count):
                    name_code = body[pos]
                    if name_code < _INTERNED and body[pos + 1] == _FLOAT:
                        (tags[TAG_NAMES[name_code]],) = _F64.unpack_from(body, pos + 2)
                        pos += 10
                    else:
                        pos = _unpack_tag(tags, body, pos, end)
            if sections & _OK:
                fields["ok"] = body[pos] != 0
                fields["error"] = None
                pos += 1
            if sections & _ERROR:
                (size,) = unpack_u16(body, pos)
                stop = pos + 2 + size
                if stop > end:
                    raise _overrun(size)
                fields["error"] = body[pos + 2 : stop].decode("utf-8")
                pos = stop
            if sections & _VALUES:
                (count,) = unpack_u16(body, pos)
                pos += 2
                values = fields["values"] = {}
                for _ in range(count):
                    (size,) = unpack_u16(body, pos)
                    stop = pos + 2 + size
                    if stop >= end:  # the kind byte follows the key
                        raise _overrun(size)
                    key = body[pos + 2 : stop].decode()
                    kind = body[stop]
                    pos = stop + 1
                    if kind == _BYTES:
                        (size,) = _LEN.unpack_from(body, pos)
                        stop = pos + 4 + size
                        if stop > end:
                            raise _overrun(size)
                        values[key] = body[pos + 4 : stop]
                        pos = stop
                    elif kind == _ABSENT:
                        values[key] = None
                    elif kind == _ACK:
                        values[key] = True
                    else:
                        raise ProtocolError(f"unknown value kind {kind}")
            if sections & _FEEDBACK_BIT:
                queued_work, queue_length, rate_sample = _FEEDBACK.unpack_from(body, pos)
                pos += _FEEDBACK.size
                fields["feedback"] = {
                    "queued_work": queued_work,
                    "queue_length": queue_length,
                    "rate_sample": rate_sample,
                }
            if sections & _BLOB:
                (size,) = _LEN.unpack_from(body, pos)
                stop = pos + 4 + size
                if stop > end:
                    raise _overrun(size)
                try:
                    blob = json.loads(body[pos + 4 : stop])
                except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                    raise ProtocolError(f"malformed JSON section: {exc}") from exc
                if not isinstance(blob, dict):
                    raise ProtocolError("JSON section must be a JSON object")
                if not _SECTION_FIELDS.isdisjoint(blob):
                    raise ProtocolError("JSON section repeats a packed field")
                fields.update(blob)
                pos = stop
        except (struct.error, IndexError) as exc:
            # A fixed-size item that starts within the body and ends
            # beyond it (variable-size ones are checked where they are read).
            raise ProtocolError(f"truncated message: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed text in message: {exc}") from exc
        if pos != end:
            # Also where a fixed-size item that ended past the body lands.
            raise ProtocolError(f"{end - pos} bytes after the last section")
        message = _new(cls)
        message.type = VALID_TYPES[code]
        message.id = mid
        message.fields = fields
        return message


def write_message(transport: asyncio.WriteTransport, message: Message) -> None:
    """Encode ``message`` and hand the frame to ``transport``.

    Synchronous: the transport buffers what the socket does not take at
    once, and tells the protocol through ``pause_writing`` when that
    buffer is filling up.
    """
    transport.write(message.encode())


class FrameProtocol(asyncio.Protocol):
    """Frame parser for one connection, either side.

    Buffers what arrives, decodes every complete frame in
    ``data_received`` and calls :meth:`message_received` with it, inline —
    no reader task, one event-loop callback per socket read however many
    frames it holds.  A frame costs one :meth:`Message.decode` call, which
    builds the message without re-validating it, and a reply one
    :func:`write_message` call.  A malformed frame closes the connection
    (:meth:`protocol_error`): after one, the frame boundaries that follow
    cannot be trusted.
    """

    def __init__(self) -> None:
        self.transport: asyncio.Transport = None  # set by connection_made
        self._buffer = bytearray()
        #: Bytes the buffer must hold before its first frame is complete.
        self._need = _LEN.size

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def message_received(self, message: Message) -> None:
        raise NotImplementedError

    def protocol_error(self, exc: ProtocolError) -> None:
        logger.warning("protocol error from peer: %s", exc)
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            # Only copy out once the frame being waited for is complete, so
            # a large frame arriving in many reads is not re-scanned.
            buffer += data
            if len(buffer) < self._need:
                return
            data = bytes(buffer)
            buffer.clear()
        pos, size = 0, len(data)
        need = _LEN.size
        while size - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_MESSAGE_BYTES:
                self.protocol_error(
                    ProtocolError(f"declared message length {length} exceeds limit")
                )
                return
            end = pos + _LEN.size + length
            if end > size:
                need = _LEN.size + length
                break
            try:
                message = Message.decode(data[pos + _LEN.size : end])
            except ProtocolError as exc:
                self.protocol_error(exc)
                return
            pos = end
            self.message_received(message)
            if self.transport.is_closing():
                return  # the handler hung up; what follows is not served
        if pos < size:
            buffer += data[pos:]
        self._need = need

    def eof_received(self) -> bool:
        if self._buffer:
            self.protocol_error(ProtocolError("connection closed mid-message"))
        return False  # let the transport close
