"""Worker pool, session placement, failover, and graceful drain.

The contract under test everywhere here is *verdict parity*: a pooled audit
session — even one that loses its home worker mid-stream, or is drained and
resumed — must emit the exact verdict stream (reasons and
witnesses included) of a single-process session over the same operations.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import random
import signal
import sys
import threading
import warnings

import pytest

from repro.core.api import verify_trace
from repro.core.errors import ServiceError
from repro.engine.codec import decode_feed_batches, encode_feed_batches
from repro.service import (
    AuditClient,
    AuditServer,
    AuditSession,
    PooledAuditSession,
    WorkerPool,
)
from repro.service import pool as pool_module
from repro.service.checkpoint import CheckpointStore
from repro.service.session import SessionConfig

from tests.conftest import TEST_SEED
from tests.test_legacy_snapshots import cut_mid_window, stream_ops
from tests.test_service import make_trace_ops, result_signature

CONFIG = SessionConfig(k=2, algorithm="lbt", window_mode="count", window_size=16)

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_single_process(ops, config=CONFIG):
    """Reference: windows + final report from an in-process session."""
    session = AuditSession.start("ref", config)
    windows = [r for op in ops if (r := session.feed(op)) is not None]
    return windows, session.finish()


def assert_window_parity(ref_windows, got_windows):
    """Window verdicts equal field for field, and carry no witness."""
    assert len(ref_windows) == len(got_windows)
    for index, (ref, got) in enumerate(zip(ref_windows, got_windows)):
        assert list(ref.verdicts) == list(got.verdicts), f"window {index}"
        for key in ref.verdicts:
            a, b = ref.verdicts[key], got.verdicts[key]
            where = f"window {index} register {key!r}"
            assert a.result.witness is None and b.result.witness is None, where
            assert a == b, where  # verdict, reason, stats, ops_seen, final


def assert_report_parity(ref_report, got_report):
    assert list(ref_report.results) == list(got_report.results)
    for key, expected in ref_report.results.items():
        assert result_signature(expected) == result_signature(
            got_report.results[key]
        ), f"register {key!r} (seed {TEST_SEED:#x})"


# ----------------------------------------------------------------------
# Feed-batch codec
# ----------------------------------------------------------------------
def test_feed_batch_codec_round_trips_stream_order():
    _trace, stream = make_trace_ops(random.Random(TEST_SEED), staleness=0.1)
    by_key = {}
    for op in stream:
        by_key.setdefault(op.key, []).append(op)
    blob = encode_feed_batches(list(by_key.items()))
    decoded = decode_feed_batches(blob)
    assert [key for key, _ in decoded] == list(by_key)
    for (key, ops) in decoded:
        originals = by_key[key]
        assert len(ops) == len(originals)
        for got, want in zip(ops, originals):
            assert (
                got.op_id, got.op_type, got.value, got.start,
                got.finish, got.key, got.client, got.weight,
            ) == (
                want.op_id, want.op_type, want.value, want.start,
                want.finish, want.key, want.client, want.weight,
            )


# ----------------------------------------------------------------------
# Pooled sessions: parity, placement, failover
# ----------------------------------------------------------------------
def test_pooled_session_matches_single_process_exactly():
    trace, stream = make_trace_ops(
        random.Random(TEST_SEED), registers=6, ops=80, staleness=0.15
    )
    ref_windows, ref_report = run_single_process(stream)
    batch = verify_trace(trace, 2, algorithm="lbt")

    async def scenario():
        pool = WorkerPool(3)
        await pool.start()
        try:
            session = PooledAuditSession.start("p1", CONFIG, pool)
            windows = [
                r for op in stream if (r := await session.afeed(op)) is not None
            ]
            return windows, await session.afinish()
        finally:
            await pool.stop()

    windows, report = asyncio.run(scenario())
    assert_window_parity(ref_windows, windows)
    assert_window_parity(ref_report.timeline, report.timeline)
    assert_report_parity(ref_report, report)
    # ...and the final verdicts equal batch verification, witness included.
    for key, result in batch.items():
        assert result_signature(report.results[key]) == result_signature(result)


def test_worker_kill_failover_keeps_verdict_stream_identical():
    rng = random.Random(TEST_SEED + 2)
    trace, stream = make_trace_ops(
        rng, registers=6, ops=70, staleness=0.2
    )
    ref_windows, ref_report = run_single_process(stream)
    # Kill the session's home worker at randomized feed indices — including
    # mid-window positions — across a few runs; parity must hold at every one.
    kill_points = sorted(rng.sample(range(20, len(stream) - 10), 3))

    async def scenario(kill_at):
        pool = WorkerPool(3)
        await pool.start()
        try:
            session = PooledAuditSession.start("kill", CONFIG, pool)
            windows = []
            for index, op in enumerate(stream):
                if index == kill_at:
                    os.kill(pool.worker_pids()[pool.home_of("kill")], signal.SIGKILL)
                report = await session.afeed(op)
                if report is not None:
                    windows.append(report)
            final = await session.afinish()
            return windows, final, pool.worker_stats()
        finally:
            await pool.stop()

    for kill_at in kill_points:
        windows, report, stats = asyncio.run(scenario(kill_at))
        assert_window_parity(ref_windows, windows)
        assert_report_parity(ref_report, report)
        assert sum(row.restarts for row in stats) >= 1
        assert sum(row.restored_sessions for row in stats) >= 1


def test_concurrent_sessions_are_placed_apart_one_request_per_window():
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 7), registers=4, ops=48, staleness=0.1
    )
    ref_windows, ref_report = run_single_process(stream)

    async def run(session):
        windows = [r for op in stream if (r := await session.afeed(op)) is not None]
        return windows, await session.afinish()

    async def scenario():
        pool = WorkerPool(2)
        await pool.start()
        try:
            sessions = [PooledAuditSession.start(f"c{i}", CONFIG, pool) for i in range(2)]
            homes = [pool.home_of(session.session_id) for session in sessions]
            assert [row.sessions for row in pool.worker_stats()] == [1, 1]
            results = await asyncio.gather(*(run(session) for session in sessions))
            return homes, results, pool.worker_stats()
        finally:
            await pool.stop()

    homes, results, stats = asyncio.run(scenario())
    assert sorted(homes) == [0, 1]
    for windows, report in results:
        assert_window_parity(ref_windows, windows)
        assert_report_parity(ref_report, report)
    # One feed request per closed window; finishing ships the tail with it.
    assert [row.batches for row in stats] == [len(ref_windows)] * 2
    assert [row.sessions for row in stats] == [0, 0]


def test_pool_adds_no_threads_and_stop_leaves_no_task_or_socket():
    """The pool's pipes live on the event loop: starting it and feeding a
    window start no thread, and stopping it leaves no task pending and no
    socket or transport to be finalised (a ResourceWarning under "error")."""
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 11), registers=3, ops=40, staleness=0.1
    )
    unraisable = []

    async def scenario():
        before = set(threading.enumerate())
        pool = WorkerPool(2)
        await pool.start()
        session = PooledAuditSession.start("t", CONFIG, pool)
        for op in stream:
            if await session.afeed(op) is not None:
                break
        assert set(threading.enumerate()) - before == set()  # no new thread
        handles = list(pool._workers.values())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            await pool.stop()
        assert asyncio.all_tasks() == {asyncio.current_task()}
        assert all(handle._sock.fileno() == -1 for handle in handles)
        assert not any(handle.process.is_alive() for handle in handles)

    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        asyncio.run(scenario())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gc.collect()
    finally:
        sys.unraisablehook = hook
    assert unraisable == []


def test_multi_mib_frames_cross_both_ways_while_the_worker_replies():
    """Frames several times the socket buffer: a window of 30,000 ops
    (~1 MiB request) and session snapshots (~2 MiB replies).  One worker
    homes two sessions, and the second session's window-closing request is
    written while the worker is still sending the first one's snapshot, so
    the parent's partial writes wait on a peer that is itself blocked on
    the parent reading.  Verdicts and reports must equal in-process."""
    config = SessionConfig(k=2, algorithm="lbt", window_mode="count", window_size=30_000)
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 12), registers=8, ops=4000, staleness=0.1
    )
    ref_windows, ref_report = run_single_process(stream, config)
    last = config.window_size - 1

    async def scenario():
        pool = WorkerPool(1)
        await pool.start()
        try:
            first = PooledAuditSession.start("big-a", config, pool)
            second = PooledAuditSession.start("big-b", config, pool)
            windows = {first: [], second: []}

            async def feed(session, ops):
                for op in ops:
                    if (report := await session.afeed(op)) is not None:
                        windows[session].append(report)

            await feed(first, stream)
            await feed(second, stream[:last])
            snapshot, _ = await asyncio.wait_for(asyncio.gather(
                first.acheckpoint_payload(), feed(second, stream[last:last + 1])
            ), timeout=60)
            await feed(second, stream[last + 1:])
            await second.acheckpoint_payload()
            reports = [await first.afinish(), await second.afinish()]
            return [windows[first], windows[second]], reports, snapshot
        finally:
            await pool.stop()

    windows, reports, snapshot = asyncio.run(scenario())
    assert len(pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)) > 3 * 2**20 // 2
    for got_windows, report in zip(windows, reports):
        assert_window_parity(ref_windows, got_windows)
        assert_window_parity(ref_report.timeline, report.timeline)
        assert_report_parity(ref_report, report)


def test_feeder_parked_on_a_dead_worker_wakes_with_its_replacement(monkeypatch):
    """A feed that meets a dead worker before its replacement exists parks
    on the dead handle; the respawn must wake it, not the recovery timeout
    (30 s).  Recovery is held back so the feed always gets there first."""
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 9), registers=3, ops=40, staleness=0.1
    )
    ref_windows, ref_report = run_single_process(stream)
    recover = WorkerPool._recover

    async def slow_recover(self, worker_id, generation):
        await asyncio.sleep(0.3)
        await recover(self, worker_id, generation)

    monkeypatch.setattr(WorkerPool, "_recover", slow_recover)
    half = len(stream) // 2

    async def scenario():
        pool = WorkerPool(1)
        await pool.start()
        try:
            session = PooledAuditSession.start("parked", CONFIG, pool)
            windows = [r for op in stream[:half] if (r := await session.afeed(op)) is not None]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            while pool.worker_stats()[0].alive:
                await asyncio.sleep(0.005)

            async def rest():
                for op in stream[half:]:
                    if (report := await session.afeed(op)) is not None:
                        windows.append(report)
                return await session.afinish()

            final = await asyncio.wait_for(rest(), timeout=10.0)
            return windows, final, pool.worker_stats()
        finally:
            await pool.stop()

    windows, report, stats = asyncio.run(scenario())
    assert_window_parity(ref_windows, windows)
    assert_report_parity(ref_report, report)
    assert stats[0].restarts == 1


def test_unreadable_reply_fails_over_like_a_dead_worker(monkeypatch):
    """A reply that does not unpickle loses the worker: its pending request
    is retried on the respawned worker after replay, and parity holds."""
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 13), registers=3, ops=40, staleness=0.1
    )
    ref_windows, ref_report = run_single_process(stream)
    dispatch = pool_module._WorkerHandle._dispatch
    replies = []

    def garble_third_reply(handle, blob):
        replies.append(blob)
        if len(replies) == 3:
            raise pickle.UnpicklingError("garbled reply")
        dispatch(handle, blob)

    async def scenario():
        pool = WorkerPool(1)
        await pool.start()
        try:
            session = PooledAuditSession.start("garbled", CONFIG, pool)
            monkeypatch.setattr(pool_module._WorkerHandle, "_dispatch", garble_third_reply)
            windows = [r for op in stream if (r := await session.afeed(op)) is not None]
            return windows, await session.afinish(), pool.worker_stats()
        finally:
            await pool.stop()

    windows, report, stats = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    assert len(replies) > 3
    assert_window_parity(ref_windows, windows)
    assert_report_parity(ref_report, report)
    assert stats[0].restarts == 1 and stats[0].restored_sessions == 1


def test_pooled_and_in_process_checkpoints_are_interchangeable():
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 4), registers=5, ops=60, staleness=0.15
    )
    _ref_windows, ref_report = run_single_process(stream)
    half = len(stream) // 2

    async def pooled_then_inproc():
        pool = WorkerPool(2)
        await pool.start()
        try:
            session = PooledAuditSession.start("x1", CONFIG, pool)
            for op in stream[:half]:
                await session.afeed(op)
            payload = await session.acheckpoint_payload()
            await session.aclose()
        finally:
            await pool.stop()
        resumed = AuditSession.resume(payload)
        for op in stream[half:]:
            resumed.feed(op)
        return resumed.finish()

    async def inproc_then_pooled():
        session = AuditSession.start("x2", CONFIG)
        for op in stream[:half]:
            session.feed(op)
        payload = session.checkpoint_payload()
        pool = WorkerPool(2)
        await pool.start()
        try:
            resumed = await PooledAuditSession.resume(payload, pool)
            assert resumed.resumed and resumed.ops_fed == half
            for op in stream[half:]:
                await resumed.afeed(op)
            return await resumed.afinish()
        finally:
            await pool.stop()

    assert_report_parity(ref_report, asyncio.run(pooled_then_inproc()))
    assert_report_parity(ref_report, asyncio.run(inproc_then_pooled()))


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_checkpoints_live_sessions_and_resumes_exactly(tmp_path):
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 5), registers=5, ops=60, staleness=0.1
    )
    _ref_windows, ref_report = run_single_process(stream)
    cut = (len(stream) * 2) // 3

    async def scenario():
        server = AuditServer(
            port=0, checkpoint_dir=tmp_path, workers=2,
            default_config=CONFIG,
        )
        await server.start()
        address = server.addresses[0]
        client = await AuditClient.connect(
            address, session="dr", k=2, algorithm="lbt", window=16, witness=True
        )
        await client.feed_ops(stream[:cut])
        # The checkpoint ack doubles as a sync barrier: the drain sentinel
        # queues behind whatever the pump has produced, so without it the
        # drain could legitimately land before the ops left the socket.
        ack = await client.checkpoint()
        assert ack["ops"] == cut
        drained = asyncio.create_task(server.drain())
        # The drain frame must arrive in-band after the fed operations.
        frame = await asyncio.wait_for(client._frames.get(), timeout=10)
        assert frame["type"] == "draining", frame
        assert frame["resumable"] is True
        assert frame["ops"] == cut
        await client.close()
        await asyncio.wait_for(drained, timeout=10)
        await server.stop()

        # A fresh server (different pool size, to prove routing is not
        # baked into the checkpoint) resumes and finishes the stream.
        server2 = AuditServer(
            port=0, checkpoint_dir=tmp_path, workers=3, default_config=CONFIG
        )
        await server2.start()
        client2 = await AuditClient.connect(
            server2.addresses[0], session="dr", resume=True,
            k=2, algorithm="lbt", window=16, witness=True,
        )
        assert client2.resumed and client2.ops_restored == cut
        await client2.feed_ops(stream[cut:])
        report = await client2.finish()
        await client2.close()
        await server2.stop()
        return report

    report = asyncio.run(scenario())
    assert_report_parity(ref_report, report)


def test_drain_refuses_new_connections(tmp_path):
    async def scenario():
        server = AuditServer(
            port=0, checkpoint_dir=tmp_path, workers=1, default_config=CONFIG
        )
        await server.start()
        await server.drain()
        # The listener is gone: connecting must fail outright.
        with pytest.raises((ConnectionError, OSError, asyncio.TimeoutError)):
            await asyncio.wait_for(
                AuditClient.connect(f"127.0.0.1:{server.tcp_port or 1}", k=2),
                timeout=5,
            )
        await server.stop()

    asyncio.run(scenario())


def test_sigterm_drains_the_cli_server_and_exits_cleanly(tmp_path):
    """``repro serve`` + SIGTERM: checkpoint, notify the client, exit 0."""
    import subprocess
    import sys

    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 6), registers=4, ops=40, staleness=0.1
    )
    cut = len(stream) // 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO_SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1", "--algorithm", "lbt",
            "--checkpoint-dir", str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "audit service listening on" in banner, banner
        address = banner.strip().rsplit(" ", 1)[-1]

        async def drive():
            client = await AuditClient.connect(
                address, session="sig", k=2, algorithm="lbt", window=16
            )
            await client.feed_ops(stream[:cut])
            ack = await client.checkpoint()  # barrier: ops are all fed
            assert ack["ops"] == cut
            proc.send_signal(signal.SIGTERM)
            frame = await asyncio.wait_for(client._frames.get(), timeout=15)
            assert frame["type"] == "draining", frame
            assert frame["ops"] == cut and frame["resumable"] is True
            await client.close()

        asyncio.run(drive())
        assert proc.wait(timeout=20) == 0
        output = proc.stdout.read()
        assert "draining audit service" in output
        assert "worker pool:" in output  # final report includes pool stats
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The drain-time checkpoint resumes: finish on an in-process server.
    async def resume_and_finish():
        server = AuditServer(
            port=0, checkpoint_dir=tmp_path, default_config=CONFIG
        )
        await server.start()
        client = await AuditClient.connect(
            server.addresses[0], session="sig", resume=True,
            k=2, algorithm="lbt", window=16, witness=True,
        )
        assert client.resumed and client.ops_restored == cut
        await client.feed_ops(stream[cut:])
        report = await client.finish()
        await server.stop()
        return report

    _ref_windows, ref_report = run_single_process(stream)
    assert_report_parity(ref_report, asyncio.run(resume_and_finish()))


def test_pool_rejects_bad_sizes():
    with pytest.raises(ServiceError):
        WorkerPool(0)
    with pytest.raises(ServiceError):
        AuditServer(workers=-1)


# ----------------------------------------------------------------------
# Checkpoint interchange through the store
# ----------------------------------------------------------------------
def test_pooled_checkpoint_interchange_through_the_store(tmp_path):
    """A pooled session's checkpoint, persisted and reloaded from disk,
    finishes in-process with the reference verdicts."""
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 4), registers=5, ops=60, staleness=0.15
    )
    _ref_windows, ref_report = run_single_process(stream)
    half = len(stream) // 2
    store = CheckpointStore(tmp_path)

    async def pooled_half():
        pool = WorkerPool(2)
        await pool.start()
        try:
            session = PooledAuditSession.start("x1", CONFIG, pool)
            for op in stream[:half]:
                await session.afeed(op)
            store.save("x1", await session.acheckpoint_payload())
            await session.aclose()
        finally:
            await pool.stop()

    asyncio.run(pooled_half())
    # The checkpoint persisted by the pooled session finishes in-process.
    resumed = AuditSession.resume(store.load("x1"))
    for op in stream[half:]:
        resumed.feed(op)
    assert_report_parity(ref_report, resumed.finish())
    store.close()


def test_num_registers_counts_closed_windows_alike_in_process_and_pooled():
    """Mid-window, no session counts a register only the open window holds."""
    ops = stream_ops(29)  # registers r0-r2 from the start, r3 joins late
    config = SessionConfig(k=2, window_size=8)
    local = AuditSession.start("n1", config)
    cut = cut_mid_window(local, ops, "r3")
    assert local.stats().num_registers == 3

    async def scenario():
        pool = WorkerPool(1)
        await pool.start()
        try:
            pooled = PooledAuditSession.start("n2", config, pool)
            for op in ops[:cut]:
                await pooled.afeed(op)
            counts = [pooled.stats().num_registers]
            payload = await pooled.acheckpoint_payload()
            for source in (payload, local.checkpoint_payload()):
                resumed = await PooledAuditSession.resume(source, pool)
                counts.append(resumed.stats().num_registers)
                counts.append(AuditSession.resume(source).stats().num_registers)
                await resumed.aclose()
            await pooled.aclose()
            return counts
        finally:
            await pool.stop()

    assert asyncio.run(scenario()) == [3] * 5
