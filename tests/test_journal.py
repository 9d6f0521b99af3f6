"""Checkpoint journals: a base snapshot plus deltas resumes exactly.

After its first save a session checkpoints as a *delta* — the ops and window
frames since the last persisted save — and folds back to a full snapshot
every ``FOLD_EVERY``-th save.  The contract under test everywhere here is the
one full snapshots always had: a session resumed from whatever the store
holds (base + journal) and fed the rest of the stream produces the same
verdicts, NO reasons, window frames, alarmed registers and tiering counters
as a run that was never interrupted — whichever placement (in-process or
pooled) wrote the journal and whichever resumes it.  The
store's own rules are pinned too: deltas of another base are ignored, a
numbering gap and unreadable records raise a typed, non-retryable error.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import time

import pytest

from repro.core.errors import CorruptCheckpointError, ServiceError, StateError
from repro.service import (
    AuditClient,
    AuditServer,
    AuditSession,
    PooledAuditSession,
    WorkerPool,
)
from repro.service.checkpoint import (
    JOURNAL_NAMESPACE,
    SESSIONS_NAMESPACE,
    CheckpointStore,
)
from repro.service.protocol import verdict_to_dict
from repro.service.session import FOLD_EVERY, SessionConfig
from repro.state import StateStore
from repro.workloads.synthetic import synthetic_trace

from tests.conftest import TEST_SEED
from tests.test_service import make_trace_ops, result_signature

TIERS = ("exact", "screen", "auto")


def journal_stream(offset, registers=3, ops=20):
    """Reads up to two writes stale, so registers fail k = 2 mid-stream."""
    trace = synthetic_trace(
        random.Random(TEST_SEED + offset), registers, ops,
        staleness_probability=0.5, max_staleness=2,
    )
    return sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )


def unsynced_store(directory):
    """A checkpoint store without fsync (these tests save thousands of times)."""
    return CheckpointStore(store=StateStore(directory, durable=False))


def log_window(session, report):
    """Append the window frame the server would send (server semantics)."""
    if report is None:
        return
    frame = {
        "type": "window",
        "session": session.session_id,
        "index": report.stats.index,
        "ops": report.stats.num_ops,
        "registers": report.stats.num_registers,
        "alarms": sorted(report.alarms(), key=repr),
        "verdicts": [[key, verdict_to_dict(v)] for key, v in report.verdicts.items()],
    }
    log = session.window_log
    if not log or frame["index"] > log[-1]["index"]:
        log.append(frame)


def save(store, session):
    """One checkpoint with the server's commit rule: count it once it lands."""
    store.save(session.session_id, session.checkpoint_payload())
    session.checkpoints += 1


async def asave(store, session):
    store.save(session.session_id, await session.acheckpoint_payload())
    session.checkpoints += 1


def outcome(session, report):
    """Everything a client or the service report can observe of a session."""
    return {
        "ops": session.ops_fed,
        "frames": list(session.window_log),
        "results": {key: result_signature(r) for key, r in report.results.items()},
        "alarmed": sorted(session.alarmed_keys, key=repr),
        "tiering": (session.escalations, session.windows_bypassed),
    }


def run_in_process(session, ops, store=None, every=None):
    for op in ops:
        log_window(session, session.feed(op))
        if store is not None and session.ops_fed % every == 0:
            save(store, session)
    return session


async def run_pooled(session, ops, store=None, every=None):
    for op in ops:
        log_window(session, await session.afeed(op))
        if store is not None and session.ops_fed % every == 0:
            await asave(store, session)
    return session


def reference_outcome(config, stream):
    session = run_in_process(AuditSession.start("j", config), stream)
    return outcome(session, session.finish())


# ----------------------------------------------------------------------
# Resume at every op index, across folds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("every", [1, 3])
def test_resume_at_every_op_index_equals_uninterrupted(tmp_path, tier, every):
    stream = journal_stream(90, ops=16)
    config = SessionConfig(k=2, window_size=4, tier=tier)
    reference = reference_outcome(config, stream)
    assert reference["alarmed"], "the stream should raise alarms mid-stream"

    store = unsynced_store(tmp_path)
    session = AuditSession.start("j", config)
    states = {0: pickle.dumps(None)}  # what a crash after `cut` ops leaves
    journal_lengths = set()
    for cut, op in enumerate(stream, 1):
        run_in_process(session, [op], store, every)
        loaded = store.load("j") if "j" in store else None
        if loaded is not None:
            journal_lengths.add(len(loaded.get("journal", ())))
        states[cut] = pickle.dumps(loaded)
    # Both sides of a fold were exercised: fresh bases and full journals.
    assert {0, FOLD_EVERY - 1} <= journal_lengths

    for cut, blob in states.items():
        loaded = pickle.loads(blob)
        if loaded is None:
            resumed = AuditSession.start("j", config)
        else:
            resumed = AuditSession.resume(loaded)
            assert resumed.ops_fed == (cut // every) * every
            assert resumed.checkpoints == cut // every
        run_in_process(resumed, stream[resumed.ops_fed:])
        got = outcome(resumed, resumed.finish())
        assert got == reference, (
            f"tier={tier}, every={every}: resume after op {cut} diverged "
            f"(seed {TEST_SEED:#x})"
        )


def test_delta_bytes_follow_the_ops_since_the_last_save(tmp_path):
    """Saves 2.. store fewer bytes than a full payload at the same point."""
    _trace, stream = make_trace_ops(
        random.Random(TEST_SEED + 91), registers=4, ops=40, staleness=0.1
    )
    store = unsynced_store(tmp_path)
    session = AuditSession.start("j", SessionConfig(k=2, window_size=8))
    twin = AuditSession.start("twin", SessionConfig(k=2, window_size=8))
    for start in range(0, len(stream), 16):
        run_in_process(session, stream[start:start + 16])
        run_in_process(twin, stream[start:start + 16])
        payload = session.checkpoint_payload()
        delta = "base" in payload
        assert delta == (session.checkpoints % FOLD_EVERY != 0)
        if delta:
            assert len(payload["ops"]) == 16
            # The twin is never saved, so it always builds full payloads.
            full = pickle.dumps(twin.checkpoint_payload(), protocol=pickle.HIGHEST_PROTOCOL)
            assert len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) < len(full)
        save(store, session)


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
def test_journal_resumes_across_placements(tmp_path):
    stream = journal_stream(94)
    every = 2
    # Cut with a full journal, right after a fold, and mid-way through one.
    cuts = [every * FOLD_EVERY, every * (FOLD_EVERY + 1) + 1, len(stream) - 3]

    async def scenario():
        pool = WorkerPool(2)
        await pool.start()
        try:
            for tier in TIERS:
                config = SessionConfig(k=2, window_size=4, tier=tier)
                reference = reference_outcome(config, stream)
                assert reference["alarmed"]
                for cut in cuts:
                    # pooled -> in-process
                    store = unsynced_store(tmp_path / f"{tier}-{cut}-p")
                    pooled = PooledAuditSession.start("j", config, pool)
                    await run_pooled(pooled, stream[:cut], store, every)
                    await pooled.aclose()
                    resumed = AuditSession.resume(store.load("j"))
                    run_in_process(resumed, stream[resumed.ops_fed:])
                    got = outcome(resumed, resumed.finish())
                    assert got == reference, f"{tier}: pooled->in-process at {cut}"
                    store.close()
                    # in-process -> pooled
                    store = unsynced_store(tmp_path / f"{tier}-{cut}-i")
                    run_in_process(AuditSession.start("j", config), stream[:cut], store, every)
                    resumed = await PooledAuditSession.resume(store.load("j"), pool)
                    await run_pooled(resumed, stream[resumed.ops_fed:])
                    got = outcome(resumed, await resumed.afinish())
                    assert got == reference, f"{tier}: in-process->pooled at {cut}"
                    store.close()
        finally:
            await pool.stop()

    asyncio.run(scenario())


def test_pooled_session_on_a_server_without_store_records_nothing():
    _trace, stream = make_trace_ops(random.Random(TEST_SEED + 93), registers=3, ops=20)

    async def scenario():
        server = AuditServer(workers=2)
        await server.start()
        try:
            client = await AuditClient.connect(
                server.addresses[0], session="bare", k=2, window=8
            )
            await client.feed_ops(stream)
            await client.stats()  # a round trip: every op fed was processed
            session = server._active["bare"]
            assert isinstance(session, PooledAuditSession)
            assert session.ops_fed == len(stream)
            assert session._recorded is None and not session._marks
            await client.finish()
        finally:
            await server.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Failed saves and the store's journal rules
# ----------------------------------------------------------------------
def test_failed_save_is_covered_by_the_next(tmp_path, monkeypatch):
    stream = journal_stream(94)
    config = SessionConfig(k=2, window_size=4)
    reference = reference_outcome(config, stream)
    store = unsynced_store(tmp_path)
    real_put = store.store.put
    puts = {SESSIONS_NAMESPACE: 0, JOURNAL_NAMESPACE: 0}

    def flaky_put(namespace, key, blob, **kwargs):
        puts[namespace] += 1
        if puts[namespace] == 2:  # the second delta, and the first fold
            raise StateError("disk full")
        return real_put(namespace, key, blob, **kwargs)

    monkeypatch.setattr(store.store, "put", flaky_put)
    session = AuditSession.start("j", config)
    failures = 0
    landed_at = 0
    for op in stream:
        log_window(session, session.feed(op))
        if session.ops_fed % 3:
            continue
        try:
            save(store, session)
            landed_at = session.ops_fed
        except ServiceError:
            failures += 1
        # The stored chain ends at the last save that landed, and resumes
        # to the uninterrupted outcome.
        loaded = store.load("j")
        deltas = loaded.get("journal", ())
        assert (deltas[-1]["ops_fed"] if deltas else loaded["stream"]["ops_fed"]) == landed_at
        resumed = AuditSession.resume(loaded)
        assert resumed.checkpoints == session.checkpoints
        run_in_process(resumed, stream[resumed.ops_fed:])
        assert outcome(resumed, resumed.finish()) == reference
    assert failures == 2
    assert session.checkpoints == len(stream) // 3 - failures


def _journal_records(store, session_id):
    return {
        key: store.store.get(JOURNAL_NAMESPACE, key)
        for key in store.store.keys(JOURNAL_NAMESPACE)
        if key.startswith(session_id + "\x1f")
    }


def test_crash_between_fold_and_deletes_ignores_old_deltas(tmp_path):
    stream = journal_stream(94)
    config = SessionConfig(k=2, window_size=4)
    reference = reference_outcome(config, stream)
    store = unsynced_store(tmp_path)
    session = AuditSession.start("j", config)
    run_in_process(session, stream[: 2 * FOLD_EVERY], store, 2)  # base + 7 deltas
    old = _journal_records(store, "j")
    assert len(old) == FOLD_EVERY - 1
    run_in_process(session, stream[2 * FOLD_EVERY : 2 * FOLD_EVERY + 4], store, 2)
    assert not set(old) & set(_journal_records(store, "j"))  # the fold dropped them
    for key, blob in old.items():  # ... unless the process died first
        store.store.put(JOURNAL_NAMESPACE, key, blob)
    loaded = store.load("j")
    assert loaded["checkpoints"] == FOLD_EVERY + 1
    assert [d["checkpoints"] for d in loaded["journal"]] == [FOLD_EVERY + 2]
    resumed = AuditSession.resume(loaded)
    run_in_process(resumed, stream[resumed.ops_fed:])
    assert outcome(resumed, resumed.finish()) == reference
    store.discard("j")
    assert not _journal_records(store, "j") and "j" not in store


def test_stale_journal_under_a_reused_session_id_is_ignored(tmp_path):
    config = SessionConfig(k=2, window_size=4)
    store = unsynced_store(tmp_path)
    first = AuditSession.start("j", config)
    run_in_process(first, journal_stream(95)[:9], store, 3)  # base + 2 deltas, abandoned
    stale = _journal_records(store, "j")
    assert len(stale) == 2

    stream = journal_stream(96)
    reference = reference_outcome(config, stream)
    second = AuditSession.start("j", config)  # a new session under the same id
    run_in_process(second, stream[:3], store, 3)
    for key, blob in stale.items():  # a crash kept the old deltas around
        store.store.put(JOURNAL_NAMESPACE, key, blob)
    loaded = store.load("j")
    assert "journal" not in loaded and loaded["stream"]["ops_fed"] == 3
    run_in_process(second, stream[3:6], store, 3)
    loaded = store.load("j")
    assert [d["checkpoints"] for d in loaded["journal"]] == [2]
    resumed = AuditSession.resume(loaded)
    run_in_process(resumed, stream[6:])
    assert outcome(resumed, resumed.finish()) == reference


def test_journal_gap_and_misplaced_ops_raise_typed_errors(tmp_path):
    store = unsynced_store(tmp_path)
    session = AuditSession.start("j", SessionConfig(k=2, window_size=4))
    run_in_process(session, journal_stream(94)[:12], store, 3)  # base + 3 deltas
    records = sorted(_journal_records(store, "j"))
    assert len(records) == 3
    blob = store.store.get(JOURNAL_NAMESPACE, records[0])
    store.store.delete(JOURNAL_NAMESPACE, records[0])
    with pytest.raises(CorruptCheckpointError, match="gap"):
        store.load("j")
    # A delta whose ops do not end where its header says is refused too.
    delta = pickle.loads(blob)
    delta["ops_fed"] += 1
    store.store.put(JOURNAL_NAMESPACE, records[0], pickle.dumps(delta))
    with pytest.raises(CorruptCheckpointError, match="ends at op"):
        AuditSession.resume(store.load("j"))
    error = CorruptCheckpointError("x")
    assert isinstance(error, ServiceError) and not error.retryable


# ----------------------------------------------------------------------
# Unreadable checkpoints reach the client as typed errors
# ----------------------------------------------------------------------
#: Blobs on which ``pickle.loads`` raises each error type a bit-flipped
#: checkpoint was seen to raise.  Crafted rather than drawn from random
#: flips: a flipped memo index can make the unpickler allocate gigabytes.
UNPICKLABLE = {
    pickle.UnpicklingError: b"\x80\x05\x95\x00\x00\x00\x00\x00\x00\x00\x00\xff.",
    EOFError: b"",
    UnicodeDecodeError: b"\x80\x04X\x02\x00\x00\x00\xff\xfe.",
    TypeError: b"cbuiltins\nint\n(I1\nI2\nI3\ntR.",
    AttributeError: b"cbuiltins\nno_such_name\n.",
    ModuleNotFoundError: b"cno_such_module_for_checkpoints\nx\n.",
    ValueError: b"cbuiltins\nint\n(S'x'\ntR.",
    # bytearray(2**63 - 1): malloc refuses at once, nothing is committed.
    MemoryError: b"cbuiltins\nbytearray\n(I9223372036854775807\ntR.",
}

#: Blobs that unpickle, but not to a resumable checkpoint.
MALFORMED = {
    "a pickled list": pickle.dumps([1, 2, 3]),
    "no stream algorithm": pickle.dumps(
        {"session_id": "bad", "config": {"k": 2}, "stream": {"k": 2}}
    ),
}


def test_crafted_blobs_raise_each_unpickling_error():
    for error, blob in UNPICKLABLE.items():
        with pytest.raises(error):
            pickle.loads(blob)


async def wait_released(server, session_id, timeout_s=10.0):
    """Poll until the server has closed ``session_id``'s connection.

    The ``report`` frame goes out before the server discards the finished
    session's checkpoint, so a client may hold the report while the
    discard still runs.
    """
    deadline = time.monotonic() + timeout_s
    while any(
        row.session_id == session_id and row.connected
        for row in server.service_report().sessions
    ):
        assert time.monotonic() < deadline, f"{session_id!r} was never released"
        await asyncio.sleep(0.005)


@pytest.mark.parametrize("workers", [0, 2])
def test_unreadable_checkpoints_give_typed_error_frames(tmp_path, workers):
    unreadable_checkpoints_scenario(tmp_path, workers)


@pytest.mark.parametrize("workers", [0, 2])
def test_unreadable_checkpoints_after_a_slow_discard(tmp_path, monkeypatch, workers):
    # Widen the window between the report frame and the id's release.
    discard = CheckpointStore.discard

    def delayed_discard(self, session_id):
        time.sleep(0.2)
        return discard(self, session_id)

    monkeypatch.setattr(CheckpointStore, "discard", delayed_discard)
    unreadable_checkpoints_scenario(tmp_path, workers)


def unreadable_checkpoints_scenario(tmp_path, workers):
    _trace, stream = make_trace_ops(random.Random(TEST_SEED + 97), registers=2, ops=8)
    blobs = {error.__name__: blob for error, blob in UNPICKLABLE.items()}
    blobs.update(MALFORMED)

    async def scenario():
        server = AuditServer(checkpoint_dir=tmp_path, workers=workers)
        await server.start()
        address = server.addresses[0]
        try:
            for name, blob in blobs.items():
                server.store.store.put(SESSIONS_NAMESPACE, "bad", blob)
                with pytest.raises(CorruptCheckpointError) as raised:
                    await AuditClient.connect(address, session="bad", resume=True)
                assert not raised.value.retryable, name
                # The id is free again: a fresh session replaces the checkpoint.
                client = await AuditClient.connect(address, session="bad", k=2, window=4)
                await client.feed_ops(stream)
                await client.checkpoint()
                report = await client.finish()
                assert report.ops == len(stream), name
                await wait_released(server, "bad")
        finally:
            await server.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("workers", [0, 2])
def test_reused_id_opens_right_after_the_report(tmp_path, monkeypatch, workers):
    """An ended session frees its id with the report, not after the discard.

    The reuse waits for the old checkpoint discard instead of failing with
    ``SessionBusy``, so the discard cannot delete the new session's first
    checkpoint either.
    """
    discard = CheckpointStore.discard

    def delayed_discard(self, session_id):
        time.sleep(0.2)
        return discard(self, session_id)

    monkeypatch.setattr(CheckpointStore, "discard", delayed_discard)
    _trace, stream = make_trace_ops(random.Random(TEST_SEED + 98), registers=2, ops=8)

    async def scenario():
        server = AuditServer(checkpoint_dir=tmp_path, workers=workers)
        await server.start()
        address = server.addresses[0]
        try:
            first = await AuditClient.connect(address, session="reuse", k=2, window=4)
            await first.feed_ops(stream)
            await first.checkpoint()
            await first.finish()
            second = await AuditClient.connect(address, session="reuse", k=2, window=4)
            await second.feed_ops(stream[:4])
            await second.checkpoint()
            await asyncio.sleep(0.3)  # past any discard still in flight
            assert server.store.load("reuse")["stream"]["ops_fed"] == 4
            report = await second.finish()
            assert report.ops == 4
            await wait_released(server, "reuse")
            assert "reuse" not in server.store
        finally:
            await server.stop()

    asyncio.run(scenario())
