"""Fuzzing the wire surface: malformed frames must die typed, never hang.

Every byte sequence a hostile or broken peer can send must produce a typed
error (:class:`ServiceError` from the frame codec, :class:`TraceFormatError`
from the trace decoder) or a clean close — never an unhandled
``UnicodeDecodeError``/``KeyError``, never a poisoned sibling session, and
never a server that stops accepting.  Random cases derive from ``TEST_SEED``
so failures replay with ``REPRO_TEST_SEED=...``.
"""

from __future__ import annotations

import asyncio
import json
import random
import re

import pytest

from repro.core.errors import ReproError, ServiceError, TraceFormatError
from repro.io.formats import JsonlDecoder, operation_to_dict
from repro.service import AuditClient, AuditServer
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    error_to_exception,
)
from repro.workloads.synthetic import practical_history

from tests.conftest import TEST_SEED

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ----------------------------------------------------------------------
# decode_frame
# ----------------------------------------------------------------------
GOOD_FRAME = encode_frame({"type": "hello", "session": "s", "k": 2})


def test_decode_frame_round_trips():
    assert decode_frame(GOOD_FRAME) == {"type": "hello", "session": "s", "k": 2}
    assert decode_frame(GOOD_FRAME.decode("utf-8")) == decode_frame(GOOD_FRAME)


@pytest.mark.parametrize(
    "line",
    [
        b"",
        b"\n",
        b"{",
        b'{"type": "hello"',
        b"not json at all",
        b"[1, 2, 3]",
        b'"just a string"',
        b"42",
        b"null",
        b'{"no_type": true}',
        b"\xff\xfe garbage bytes",
        b'{"type": \xff}',
        GOOD_FRAME[: len(GOOD_FRAME) // 2],
    ],
    ids=[
        "empty", "newline", "brace", "unterminated", "prose", "array",
        "string", "number", "null", "typeless", "invalid-utf8",
        "utf8-inside-json", "truncated-half",
    ],
)
def test_decode_frame_rejects_malformed_lines_typed(line):
    with pytest.raises(ServiceError):
        decode_frame(line)


def test_decode_frame_survives_random_truncation_and_corruption():
    rng = random.Random(TEST_SEED)
    for _ in range(300):
        raw = bytearray(GOOD_FRAME)
        for _ in range(rng.randint(1, 3)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        cut = rng.randint(0, len(raw))
        for candidate in (bytes(raw), bytes(raw[:cut])):
            try:
                frame = decode_frame(candidate)
            except ServiceError:
                continue  # typed rejection is the expected common case
            assert isinstance(frame, dict) and "type" in frame


def test_error_frame_round_trips_code_and_retryable():
    frame = error_frame("boom", code="overloaded", retryable=True, session="s")
    exc = error_to_exception(decode_frame(encode_frame(frame)))
    assert exc.code == "overloaded" and exc.retryable
    vague = error_to_exception({"type": "error"})
    assert isinstance(vague, ServiceError) and not vague.retryable


# ----------------------------------------------------------------------
# JsonlDecoder
# ----------------------------------------------------------------------
def trace_bytes(num_ops: int, *, frames: bool = False) -> bytes:
    ops = practical_history(random.Random(TEST_SEED), num_ops).operations
    lines = [json.dumps(operation_to_dict(op)) for op in ops]
    if frames:
        lines.insert(0, json.dumps({"type": "hello", "session": "s"}))
        lines.append(json.dumps({"type": "end"}))
    return ("\n".join(lines) + "\n").encode("utf-8")


def feed_all(decoder: JsonlDecoder, data: bytes, rng: random.Random):
    """Feed ``data`` in random-sized chunks, collecting everything decoded."""
    out = []
    view = memoryview(data)
    while view:
        take = rng.randint(1, min(len(view), 37))
        out.extend(decoder.feed(bytes(view[:take])))
        view = view[take:]
    out.extend(decoder.flush())
    return out


def test_decoder_is_chunking_invariant():
    data = trace_bytes(120)
    whole = JsonlDecoder().feed(data)
    for trial in range(10):
        rng = random.Random(TEST_SEED + trial)
        chunked = feed_all(JsonlDecoder(), data, rng)
        assert [op.key for op in chunked] == [op.key for op in whole]
        assert [op.start for op in chunked] == [op.start for op in whole]


def test_decoder_handles_multibyte_utf8_split_across_chunks():
    record = json.dumps({"op_type": "write", "key": "r\u00e9\u00fc", "value": "\u221e",
                         "start": 0.0, "finish": 1.0}).encode("utf-8")
    data = record + b"\n"
    for cut in range(1, len(data)):
        decoder = JsonlDecoder()
        ops = decoder.feed(data[:cut]) + decoder.feed(data[cut:]) + decoder.flush()
        assert len(ops) == 1 and ops[0].key == "r\u00e9\u00fc"


def test_decoder_mixed_mode_interleaves_control_frames():
    data = trace_bytes(40, frames=True)
    items = feed_all(JsonlDecoder(mixed=True), data, random.Random(TEST_SEED))
    assert isinstance(items[0], dict) and items[0]["type"] == "hello"
    assert isinstance(items[-1], dict) and items[-1]["type"] == "end"
    assert len(items) == 42
    # Without mixed mode the same frames are malformed operation records.
    with pytest.raises(TraceFormatError):
        JsonlDecoder().feed(data)


def test_decoder_fuzz_raises_only_typed_errors():
    """Random corruption of a valid stream: TraceFormatError or success."""
    data = trace_bytes(60, frames=True)
    rng = random.Random(TEST_SEED)
    for _ in range(200):
        raw = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        decoder = JsonlDecoder(mixed=True, source="fuzz")
        try:
            feed_all(decoder, bytes(raw), rng)
        except TraceFormatError as exc:
            assert "fuzz" in str(exc)  # tagged with the stream source
        # No other exception type may escape: UnicodeDecodeError, KeyError,
        # and ValueError from deep inside record parsing are all bugs.


def test_decoder_truncation_fuzz():
    data = trace_bytes(30)
    rng = random.Random(TEST_SEED)
    for _ in range(100):
        cut = rng.randint(0, len(data))
        decoder = JsonlDecoder()
        try:
            ops = feed_all(decoder, data[:cut], rng)
        except TraceFormatError:
            continue
        assert all(op.finish >= op.start for op in ops)


def test_decoder_invalid_utf8_is_typed():
    decoder = JsonlDecoder(source="wire")
    with pytest.raises(TraceFormatError, match="wire"):
        decoder.feed(b"\xff\xff\xff")
    # A truncated multi-byte sequence at EOF is typed too, not a crash.
    decoder = JsonlDecoder(source="wire")
    decoder.feed("\u00e9".encode("utf-8")[:1])
    with pytest.raises(TraceFormatError, match="wire"):
        decoder.flush()


def test_decoder_pending_bytes_counts_encoded_size():
    decoder = JsonlDecoder()
    decoder.feed("ßß")  # no newline: buffered; 2 chars, 4 bytes
    assert decoder.pending and decoder.pending_bytes == 4
    # The buffered text is not valid JSON, so draining it raises — but the
    # buffer must still reset either way.
    with pytest.raises(TraceFormatError):
        decoder.feed("\n")
    assert not decoder.pending


# ----------------------------------------------------------------------
# Server under hostile bytes
# ----------------------------------------------------------------------
async def send_raw(address: str, payload: bytes, *, read_reply: bool = True):
    """Open a raw connection, write bytes, return (reply_line, closed_clean)."""
    host, port = address.split(":")[1], int(address.rsplit(":", 1)[1])
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        writer.write_eof()
        reply = b""
        if read_reply:
            try:
                reply = await asyncio.wait_for(reader.readline(), 5.0)
            except (asyncio.TimeoutError, ConnectionError):
                reply = b""
        return reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


HOSTILE_FIRST_FRAMES = [
    b"\xff\xfe\x00\x01 binary garbage\n",
    b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
    b"not json\n",
    b'{"type": "feed"}\n',  # valid JSON, wrong opening frame
    b'{"no_type": 1}\n',
    b"[]\n",
]


def test_server_answers_hostile_first_frames_typed_and_keeps_serving():
    ops = practical_history(random.Random(TEST_SEED), 40).operations

    async def scenario():
        server = AuditServer(port=0)
        await server.start()
        try:
            address = server.addresses[0]
            replies = []
            for payload in HOSTILE_FIRST_FRAMES:
                replies.append(await send_raw(address, payload))
            # The server survived every one of them: a real session works.
            client = await AuditClient.connect(address, session="after", k=2)
            await client.feed_ops(ops)
            report = await client.finish()
            return replies, report
        finally:
            await server.stop()

    replies, report = asyncio.run(scenario())
    assert report.ops == 40
    for payload, reply in zip(HOSTILE_FIRST_FRAMES, replies):
        if not reply:
            continue  # a clean close is acceptable for undecodable openings
        frame = json.loads(reply)
        assert frame["type"] == "error", payload


def test_server_rejects_oversized_first_line_without_dying():
    async def scenario():
        server = AuditServer(port=0)
        await server.start()
        try:
            address = server.addresses[0]
            blob = b'{"type": "hello", "pad": "' + b"x" * (MAX_FRAME_BYTES + 64)
            await send_raw(address, blob, read_reply=False)
            client = await AuditClient.connect(address, session="ok", k=2)
            await client.close()
            return True
        finally:
            await server.stop()

    assert asyncio.run(scenario())


def test_mid_stream_garbage_fails_one_session_not_its_siblings():
    ops = practical_history(random.Random(TEST_SEED), 80).operations

    async def scenario():
        server = AuditServer(port=0)
        await server.start()
        try:
            address = server.addresses[0]
            victim = await AuditClient.connect(address, session="victim", k=2)
            healthy = await AuditClient.connect(address, session="healthy", k=2)
            await victim.feed_ops(ops[:20])
            await healthy.feed_ops(ops[:40])
            # Inject raw garbage into the victim's open stream.
            victim._writer.write(b"\xff\xff not a frame \xff\n")
            await victim._writer.drain()
            with pytest.raises(ReproError):
                await victim.finish()
            await healthy.feed_ops(ops[40:])
            report = await healthy.finish()
            return report
        finally:
            await server.stop()

    report = asyncio.run(scenario())
    assert report.ops == 80
    assert report.session_id == "healthy"


def test_random_garbage_connections_never_wedge_the_server():
    rng = random.Random(TEST_SEED)

    async def scenario():
        server = AuditServer(port=0)
        await server.start()
        try:
            address = server.addresses[0]
            for _ in range(20):
                blob = bytes(rng.randrange(256) for _ in range(rng.randint(1, 512)))
                if rng.random() < 0.5:
                    blob += b"\n"
                await send_raw(address, blob)
            client = await AuditClient.connect(address, session="still-up", k=2)
            await client.close()
            return True
        finally:
            await server.stop()

    assert asyncio.run(scenario())


def test_decoder_yields_the_items_before_a_malformed_line():
    data = trace_bytes(3) + b'{"op_type": "wri\n' + trace_bytes(2)
    decoder = JsonlDecoder(source="wire")
    got = []
    with pytest.raises(TraceFormatError, match="wire:4"):
        for op in decoder.iter_feed(data):
            got.append(op)
    assert len(got) == 3


async def raw_session_frames(port: int, hello: bytes, chunks):
    """Send ``chunks`` after the handshake; return every frame until EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(hello)
        await writer.drain()
        frames = [json.loads(await asyncio.wait_for(reader.readline(), 5.0))]
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.01)  # let the server read each write alone
        while True:
            line = await asyncio.wait_for(reader.readline(), 5.0)
            if not line:
                return frames
            frames.append(json.loads(line))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def test_ops_before_a_malformed_line_are_fed_however_the_bytes_arrive():
    lines = trace_bytes(8).splitlines(keepends=True) + [b'{"op_type": "write", "val\n']
    hello = encode_frame({"type": "hello", "session": "cut", "k": 2,
                          "window": {"mode": "count", "size": 4}})

    async def scenario(chunks):
        server = AuditServer(port=0)
        await server.start()
        try:
            frames = await raw_session_frames(server.tcp_port, hello, chunks)
            (stats,) = server.service_report().sessions
            return frames, (stats.num_ops, stats.num_windows)
        finally:
            await server.stop()

    runs = [asyncio.run(scenario(chunks)) for chunks in ([b"".join(lines)], lines)]
    for frames, _stats in runs:
        # The error names the peer's address, which differs per connection.
        frames[-1]["error"] = re.sub(r"session@\(.*?\)", "session@peer", frames[-1]["error"])
    (frames, stats), per_line = runs
    assert per_line == (frames, stats)
    assert [f["type"] for f in frames] == ["welcome", "window", "window", "error"]
    assert [f["index"] for f in frames[1:3]] == [0, 1]
    assert frames[-1]["error"].startswith("session@peer:9: invalid JSON")
    assert stats == (8, 2)
