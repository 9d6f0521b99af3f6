"""Audit-service tests: concurrent multiplexing, resume parity, protocol.

The acceptance bar for the serving layer: one server process must handle
eight-plus concurrent sessions whose final per-session reports equal
``verify_trace`` batch output over the same traces, and a
checkpointed-then-resumed session must yield the same verdicts and witnesses
as an uninterrupted one.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.api import verify_trace
from repro.core.errors import ServiceError
from repro.core.result import StreamVerdict, VerificationResult
from repro.io.formats import JsonlDecoder
from repro.service import (
    AuditClient,
    AuditServer,
    CheckpointStore,
    verify_remote,
)
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    format_address,
    hashable_key,
    parse_address,
    result_from_dict,
    result_to_dict,
    verdict_from_dict,
    verdict_to_dict,
)
from repro.service.session import SessionConfig
from repro.workloads.synthetic import synthetic_trace

from tests.conftest import TEST_SEED


def make_trace_ops(rng, *, registers=4, ops=30, staleness=0.1):
    trace = synthetic_trace(
        rng, registers, ops, staleness_probability=staleness, max_staleness=1
    )
    stream = sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )
    return trace, stream


def result_signature(result, *, witness=True):
    order = None
    if witness and result.witness is not None:
        order = tuple(
            (op.op_type.value, op.value, op.start, op.finish) for op in result.witness
        )
    return (bool(result), result.k, result.algorithm, result.reason, order)


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------
def test_frame_round_trip():
    frame = {"type": "hello", "k": 2, "window": {"mode": "count", "size": 8}}
    assert decode_frame(encode_frame(frame)) == frame
    with pytest.raises(ServiceError):
        decode_frame(b"not json\n")
    with pytest.raises(ServiceError):
        decode_frame(b"[1, 2]\n")


def test_result_round_trip_with_witness():
    from repro.core.operation import read, write

    result = VerificationResult.yes(
        2, "LBT", witness=[write("a", 0.0, 1.0), read("a", 2.0, 3.0)], reason="ok"
    )
    decoded = result_from_dict(result_to_dict(result, witness=True))
    assert result_signature(decoded) == result_signature(result)
    # Witness omitted by default.
    assert result_from_dict(result_to_dict(result)).witness is None

    verdict = StreamVerdict(result=result, ops_seen=7, final=False)
    round_tripped = verdict_from_dict(verdict_to_dict(verdict))
    assert round_tripped.ops_seen == 7 and not round_tripped.final


def test_addresses_and_keys():
    assert parse_address("unix:/tmp/a.sock") == ("unix", "/tmp/a.sock")
    assert parse_address("10.0.0.1:7400") == ("tcp", ("10.0.0.1", 7400))
    assert parse_address(":7400") == ("tcp", ("127.0.0.1", 7400))
    assert format_address(*[*parse_address("unix:/x")]) == "unix:/x"
    for bad in ("nope", "host:port", "unix:"):
        with pytest.raises(ServiceError):
            parse_address(bad)
    assert hashable_key([1, [2, 3]]) == (1, (2, 3))


def test_session_config_validation():
    config = SessionConfig.from_dict({"k": 1, "window": {"size": 8, "overlap": 2}})
    assert config.k == 1 and config.window_policy().describe() == "count(8, overlap=2)"
    with pytest.raises(ServiceError):
        SessionConfig.from_dict({"k": 0})
    with pytest.raises(ServiceError):
        SessionConfig.from_dict({"window": {"mode": "bogus"}})
    with pytest.raises(ServiceError):
        SessionConfig.from_dict({"k": "not-a-number"})


def test_jsonl_decoder_mixed_frames():
    decoder = JsonlDecoder(mixed=True)
    chunk = (
        b'{"type":"hello","k":2}\n'
        b'{"op_type":"write","value":"a","start":0.0,"finish":1.0}\n'
    )
    # Split mid-record to exercise partial-line buffering.
    items = decoder.feed(chunk[:30])
    items += decoder.feed(chunk[30:])
    assert items[0] == {"type": "hello", "k": 2}
    assert items[1].is_write and items[1].value == "a"
    assert not decoder.pending


def test_jsonl_decoder_handles_split_multibyte_utf8():
    decoder = JsonlDecoder()
    record = '{"op_type":"write","value":"café","start":0.0,"finish":1.0}\n'.encode()
    split = record.index("é".encode()) + 1  # cut inside the 2-byte sequence
    ops = decoder.feed(record[:split])
    ops += decoder.feed(record[split:])
    assert len(ops) == 1 and ops[0].value == "café"


def test_invalid_utf8_gets_in_band_error_not_a_hang():
    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(server.addresses[0], k=2)
        client._writer.write(b"\xff\xfe\xff\xfe\n")
        await client._writer.drain()
        with pytest.raises(ServiceError, match="decode|invalid"):
            await asyncio.wait_for(client._expect("report"), timeout=5)
        await client.close()
        await server.stop()

    asyncio.run(scenario())


def test_abrupt_abort_frees_the_session_id():
    """A client that vanishes while the server is emitting window frames must
    not leave its id locked in _active (that would block resume forever)."""
    import json as jsonlib

    from repro.io.formats import operation_to_dict

    rng = random.Random(TEST_SEED + 97)
    _, stream = make_trace_ops(rng, registers=2, ops=40)

    async def scenario():
        server = AuditServer()
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.tcp_port)
        payload = b'{"type":"hello","session":"ghost","k":2,"window":8}\n'
        for op in stream:
            payload += (jsonlib.dumps(operation_to_dict(op)) + "\n").encode()
        writer.write(payload)
        await writer.drain()
        # Vanish without reading a single verdict frame or sending 'end'.
        writer.transport.abort()
        # The id must come free once the server notices.
        for _ in range(100):
            try:
                client = await AuditClient.connect(
                    server.addresses[0], session="ghost", k=2
                )
                break
            except ServiceError:
                await asyncio.sleep(0.05)
        else:
            raise AssertionError("session id never came free after abort")
        await client.close()
        await server.stop()

    asyncio.run(scenario())


def test_jsonl_decoder_counts_physical_lines():
    from repro.core.errors import TraceFormatError

    decoder = JsonlDecoder(source="t")
    decoder.feed("\n\n")  # two blank physical lines
    with pytest.raises(TraceFormatError, match="t:3"):
        decoder.feed("not json\n")


# ----------------------------------------------------------------------
# Concurrent multiplexing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 3], ids=["in-process", "pool-3"])
def test_eight_plus_concurrent_sessions_match_batch(workers):
    rng = random.Random(TEST_SEED)
    cases = [make_trace_ops(random.Random(TEST_SEED + i), staleness=0.05 * (i % 3))
             for i in range(9)]
    # The rolling k=2 checkers delegate to LBT, so the batch reference uses
    # the same algorithm to make reports comparable *exactly* — verdict,
    # reason, and witness — not just boolean-wise.
    batch = [verify_trace(trace, 2, algorithm="lbt") for trace, _ in cases]

    async def scenario():
        server = AuditServer(workers=workers)
        await server.start()
        address = server.addresses[0]

        async def one_session(index):
            trace, stream = cases[index]
            client = await AuditClient.connect(
                address, session=f"mux-{index}", k=2, algorithm="lbt",
                window=16, witness=True,
            )
            await client.feed_ops(stream)
            return await client.finish()

        reports = await asyncio.gather(*[one_session(i) for i in range(9)])
        service = server.service_report()
        await server.stop()
        return reports, service

    reports, service = asyncio.run(scenario())
    assert service.num_sessions == 9 and service.active_sessions == 0
    if workers:
        assert len(service.workers) == workers
        assert sum(row.batches for row in service.workers) > 0
    for index, report in enumerate(reports):
        assert report.session_id == f"mux-{index}"
        assert report.ops == len(cases[index][1])
        expected = batch[index]
        assert set(report.results) == set(expected)
        for key, result in expected.items():
            assert result_signature(report.results[key]) == result_signature(result), (
                f"session {index} register {key!r} (seed {TEST_SEED:#x})"
            )


def test_backpressure_small_queue_still_exact():
    rng = random.Random(TEST_SEED + 50)
    trace, stream = make_trace_ops(rng, registers=2, ops=60)
    expected = {key: bool(r) for key, r in verify_trace(trace, 2).items()}

    async def scenario():
        server = AuditServer(queue_size=2)  # pathologically tight bound
        await server.start()
        windows_seen = []
        client = await AuditClient.connect(
            server.addresses[0], k=2, window=8, on_window=windows_seen.append
        )
        await client.feed_ops(stream)
        report = await client.finish()
        await server.stop()
        return report, windows_seen

    report, windows_seen = asyncio.run(scenario())
    assert {key: bool(r) for key, r in report.results.items()} == expected
    assert report.ops == len(stream)
    # 120 ops over count(8) windows: every window closed mid-stream and its
    # rolling-verdict frame arrived despite the 2-item queue bound.
    assert len(windows_seen) == report.num_windows == len(stream) // 8


def test_unix_socket_session(tmp_path):
    rng = random.Random(TEST_SEED + 60)
    trace, stream = make_trace_ops(rng, registers=2, ops=20)
    expected = {key: bool(r) for key, r in verify_trace(trace, 2).items()}

    async def scenario():
        server = AuditServer(port=None, unix_path=tmp_path / "audit.sock")
        await server.start()
        address = server.addresses[0]
        assert address.startswith("unix:")
        client = await AuditClient.connect(address, k=2, window=8)
        await client.feed_ops(stream)
        report = await client.finish()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    assert {key: bool(r) for key, r in report.results.items()} == expected


# ----------------------------------------------------------------------
# Checkpoint / crash / resume
# ----------------------------------------------------------------------
def test_checkpoint_resume_across_server_restart(tmp_path):
    rng = random.Random(TEST_SEED + 70)
    trace, stream = make_trace_ops(rng, registers=3, ops=30, staleness=0.1)
    reference = verify_trace(trace, 2, algorithm="lbt")
    cut = len(stream) // 2

    async def phase_one():
        server = AuditServer(checkpoint_dir=tmp_path)
        await server.start()
        client = await AuditClient.connect(
            server.addresses[0], session="crashy", k=2, algorithm="lbt", window=8
        )
        await client.feed_ops(stream[:cut])
        ack = await client.checkpoint()
        await client.close()  # abrupt disconnect: the "crash"
        await server.stop()  # the whole server goes down too
        return ack

    ack = asyncio.run(phase_one())
    assert ack["ops"] == cut
    assert "crashy" in CheckpointStore(tmp_path)

    async def phase_two():
        server = AuditServer(checkpoint_dir=tmp_path)  # a fresh process, morally
        await server.start()
        client = await AuditClient.connect(
            server.addresses[0], session="crashy", resume=True, witness=True
        )
        assert client.resumed and client.ops_restored == cut
        await client.feed_ops(stream[cut:])
        report = await client.finish()
        await server.stop()
        return report

    report = asyncio.run(phase_two())
    assert set(report.results) == set(reference)
    for key, result in reference.items():
        assert result_signature(report.results[key]) == result_signature(result), (
            f"register {key!r} after resume (seed {TEST_SEED:#x})"
        )
    # The completed session's checkpoint is garbage-collected.
    assert "crashy" not in CheckpointStore(tmp_path)


def test_server_rejects_unknown_state_backend(capsys):
    # One state store is left: --state-backend is gone from both commands
    # that had it, and argparse refuses it instead of ignoring it.
    from repro.cli import build_parser

    for argv in (
        ["serve", "--state-backend", "json"],
        ["watch", "-", "--state-backend", "json"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments: --state-backend" in capsys.readouterr().err


def test_automatic_checkpoints_every_n_ops(tmp_path):
    rng = random.Random(TEST_SEED + 80)
    _, stream = make_trace_ops(rng, registers=2, ops=15)

    async def scenario():
        server = AuditServer(checkpoint_dir=tmp_path, checkpoint_every=10)
        await server.start()
        client = await AuditClient.connect(server.addresses[0], session="auto", k=2)
        await client.feed_ops(stream[:25])
        await client.close()  # vanish without an end frame
        await server.stop()

    asyncio.run(scenario())
    store = CheckpointStore(tmp_path)
    assert "auto" in store  # periodic checkpoint survived the disconnect
    payload = store.load("auto")
    assert payload["stream"]["ops_fed"] in (10, 20)


# ----------------------------------------------------------------------
# Protocol errors and service stats
# ----------------------------------------------------------------------
def test_duplicate_and_unknown_sessions_are_refused():
    async def scenario():
        server = AuditServer()
        await server.start()
        address = server.addresses[0]
        first = await AuditClient.connect(address, session="dup", k=2)
        with pytest.raises(ServiceError, match="already connected"):
            await AuditClient.connect(address, session="dup", k=2)
        with pytest.raises(ServiceError, match="no checkpoint store"):
            await AuditClient.connect(address, session="ghost", resume=True)
        await first.close()
        await server.stop()

    asyncio.run(scenario())


def test_malformed_stream_reports_error():
    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(server.addresses[0], k=2)
        client._writer.write(b'{"op_type": "write", "value": "a"}\n')  # no times
        await client._writer.drain()
        with pytest.raises(ServiceError, match="malformed"):
            await client.finish()
        await client.close()
        await server.stop()

    asyncio.run(scenario())


def test_newline_less_flood_is_refused():
    """A frame with no newline must hit the size cap, not grow memory forever."""
    from repro.service import protocol

    async def scenario(monkey_max):
        original = protocol.MAX_FRAME_BYTES
        from repro.service import server as server_module

        server_module.MAX_FRAME_BYTES = monkey_max
        try:
            server = AuditServer()
            await server.start()
            client = await AuditClient.connect(server.addresses[0], k=2)
            client._writer.write(b"x" * (monkey_max * 3))  # never a newline
            await client._writer.drain()
            # The server must refuse in-band without ever seeing a newline.
            with pytest.raises(ServiceError, match="exceeds"):
                await client._expect("report")
            await client.close()
            await server.stop()
        finally:
            server_module.MAX_FRAME_BYTES = original

    asyncio.run(scenario(4096))


def test_hello_window_shorthand_and_validation():
    async def scenario():
        server = AuditServer()
        await server.start()
        address = server.addresses[0]
        # Raw protocol: a bare number is accepted as a count-window size...
        reader, writer = await asyncio.open_connection("127.0.0.1", server.tcp_port)
        writer.write(b'{"type":"hello","session":"shorthand","k":2,"window":16}\n')
        await writer.drain()
        welcome = decode_frame(await reader.readline())
        assert welcome["type"] == "welcome"
        writer.close()
        await writer.wait_closed()
        # ...while a non-numeric, non-object window gets an in-band error.
        reader, writer = await asyncio.open_connection("127.0.0.1", server.tcp_port)
        writer.write(b'{"type":"hello","window":"big"}\n')
        await writer.drain()
        refusal = decode_frame(await reader.readline())
        assert refusal["type"] == "error" and "window" in refusal["error"]
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_resume_with_pipelined_ops_keeps_op_ids_distinct(tmp_path):
    """A client that pipelines ops straight after a resume hello (never
    waiting for welcome) must still get verdicts equal to an uninterrupted
    run — the handshake completes restore before any op record is decoded,
    so fresh auto op-ids cannot collide with restored ones."""
    import json as jsonlib

    from repro.io.formats import operation_to_dict

    rng = random.Random(TEST_SEED + 95)
    trace, stream = make_trace_ops(rng, registers=3, ops=20, staleness=0.1)
    reference = verify_trace(trace, 2, algorithm="lbt")
    cut = len(stream) // 2

    async def scenario():
        server = AuditServer(checkpoint_dir=tmp_path)
        await server.start()
        client = await AuditClient.connect(
            server.addresses[0], session="pipeliner", k=2, window=8
        )
        await client.feed_ops(stream[:cut])
        await client.checkpoint()
        await client.close()

        # Raw reconnect: hello + every remaining op + end in ONE write.
        reader, writer = await asyncio.open_connection("127.0.0.1", server.tcp_port)
        payload = b'{"type":"hello","session":"pipeliner","resume":true,"witness":true}\n'
        for op in stream[cut:]:
            payload += (jsonlib.dumps(operation_to_dict(op)) + "\n").encode()
        payload += b'{"type":"end"}\n'
        writer.write(payload)
        await writer.drain()
        report_frame = None
        while report_frame is None:
            frame = decode_frame(await reader.readline())
            assert frame["type"] != "error", frame
            if frame["type"] == "report":
                report_frame = frame
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return report_frame

    frame = asyncio.run(scenario())
    from repro.service.protocol import results_from_pairs

    results = results_from_pairs(frame["results"])
    assert set(results) == set(reference)
    for key, result in reference.items():
        assert result_signature(results[key]) == result_signature(result), (
            f"register {key!r} diverged after pipelined resume (seed {TEST_SEED:#x})"
        )


def test_completed_sessions_are_frozen_to_stats(tmp_path):
    """The service log must not retain live checker state after a session ends."""
    rng = random.Random(TEST_SEED + 96)
    _, stream = make_trace_ops(rng, registers=2, ops=10)

    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(server.addresses[0], session="brief", k=2)
        await client.feed_ops(stream)
        await client.finish()
        entries = list(server._session_log.values())
        report = server.service_report()
        await server.stop()
        return entries, report

    entries, report = asyncio.run(scenario())
    assert len(entries) == 1
    assert type(entries[0]).__name__ == "SessionStats"  # not a live AuditSession
    assert report.sessions[0].finished and report.sessions[0].num_ops == len(stream)


def test_resume_does_not_double_count_service_stats(tmp_path):
    rng = random.Random(TEST_SEED + 85)
    _, stream = make_trace_ops(rng, registers=2, ops=20)
    cut = len(stream) // 2

    async def scenario():
        server = AuditServer(checkpoint_dir=tmp_path)
        await server.start()
        client = await AuditClient.connect(server.addresses[0], session="once", k=2)
        await client.feed_ops(stream[:cut])
        await client.checkpoint()
        await client.close()
        client = await AuditClient.connect(
            server.addresses[0], session="once", resume=True
        )
        await client.feed_ops(stream[cut:])
        await client.finish()
        report = server.service_report()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    # One logical session: the resumed entry replaces its predecessor.
    assert report.num_sessions == 1
    assert report.active_sessions == 0
    assert report.total_ops == len(stream)


def test_detached_sessions_reported_distinctly():
    """A client that vanishes without 'end' leaves a *detached* row — it must
    not be counted as actively streaming forever."""

    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(server.addresses[0], session="dt", k=2)
        await client.close()
        for _ in range(200):
            report = server.service_report()
            if report.sessions and report.sessions[0].state == "detached":
                break
            await asyncio.sleep(0.02)
        report = server.service_report()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    assert report.active_sessions == 0
    assert report.detached_sessions == 1
    assert "detached" in report.render()


def test_stats_frame_and_service_report():
    rng = random.Random(TEST_SEED + 90)
    _, stream = make_trace_ops(rng, registers=2, ops=10)

    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(server.addresses[0], session="statsy", k=2)
        await client.feed_ops(stream)
        stats = await client.stats()
        report = await client.finish()
        service = server.service_report()
        await server.stop()
        return stats, report, service

    stats, report, service = asyncio.run(scenario())
    assert stats["type"] == "stats" and stats["sessions"] == 1
    assert stats["ops"] == len(stream)
    rendered = service.render()
    assert "statsy" in rendered and "audit service" in rendered
    assert service.total_ops == len(stream)


def test_oversized_report_frame_reaches_the_client():
    """A witness report bigger than the protocol's inbound frame cap must
    still be delivered — the client asked for that data."""
    from repro.service import protocol
    from repro.workloads.synthetic import serial_history

    # A 12k-op serial register's witness serialises past MAX_FRAME_BYTES
    # (1 MiB) — the size that used to kill the client's readline.
    ops = list(serial_history(12000, 1, key="big").operations)

    async def scenario():
        server = AuditServer()
        await server.start()
        client = await AuditClient.connect(
            server.addresses[0], session="bigwit", k=2, witness=True, window=8192
        )
        # Bulk write without per-op drain: this test cares about the frame
        # size on the way back, not about feed pacing.
        import json as jsonlib

        from repro.io.formats import operation_to_dict

        payload = b"".join(
            (jsonlib.dumps(operation_to_dict(op)) + "\n").encode() for op in ops
        )
        client._writer.write(payload)
        await client._writer.drain()
        client._ops_sent += len(ops)
        report = await client.finish()
        await server.stop()
        return report

    report = asyncio.run(scenario())
    result = report.results["big"]
    assert bool(result) and result.witness is not None
    assert len(result.witness) == len(ops)
    encoded = len(
        __import__("json").dumps(
            protocol.result_to_dict(result, witness=True)
        ).encode()
    )
    assert encoded > protocol.MAX_FRAME_BYTES  # frame really exceeded the cap


def test_verify_remote_sync_helper(tmp_path):
    from repro.io.formats import dump_jsonl

    rng = random.Random(TEST_SEED + 100)
    trace, stream = make_trace_ops(rng, registers=3, ops=20)
    path = tmp_path / "trace.jsonl"
    dump_jsonl(stream, path)
    expected = {key: bool(r) for key, r in verify_trace(trace, 2).items()}

    import threading

    server = AuditServer(max_sessions=1)
    loop_ready = threading.Event()
    holder = {}

    def run_server():
        async def go():
            await server.start()
            holder["address"] = server.addresses[0]
            loop_ready.set()
            await server.serve_forever()
            await server.stop()

        asyncio.run(go())

    thread = threading.Thread(target=run_server)
    thread.start()
    assert loop_ready.wait(timeout=10)
    try:
        report = verify_remote(path, 2, address=holder["address"], window=8)
    finally:
        thread.join(timeout=10)
    assert {key: bool(r) for key, r in report.results.items()} == expected
    assert report.ops == len(stream)
    assert not thread.is_alive()


def test_hello_state_backend_key_is_ignored():
    # Like any other key the hello schema does not know.
    assert SessionConfig.from_dict({"state_backend": "bogus"}) == SessionConfig()
