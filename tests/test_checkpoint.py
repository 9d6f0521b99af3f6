"""Checkpoint parity: kill/resume at every index equals an uninterrupted run.

The resumability contract of the audit service rests on
:meth:`Checker.snapshot`/:meth:`restore` (and their
:class:`~repro.engine.streaming.StreamSession` composition): a checker
checkpointed after feeding ``i`` operations and rehydrated — in another
object, through a pickle round trip, in "another process" — must produce the
*identical* remaining verdict sequence, final verdict, and witness as one
that was never interrupted.  These tests enforce that at **every** feed
index of several small histories, for every checker class.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.algorithms.online import (
    IncrementalGKChecker,
    IncrementalLBTChecker,
    RecheckChecker,
    checker_for,
    restore_checker,
)
from repro.core.errors import ServiceError, VerificationError
from repro.core.history import History
from repro.core.windows import WindowPolicy
from repro.engine.streaming import StreamingEngine
from repro.service.checkpoint import CheckpointStore
from repro.service.session import AuditSession, SessionConfig
from repro.workloads.adversarial import (
    concurrent_batch_history,
    non_2atomic_batch_history,
)

from tests.conftest import TEST_SEED, make_random_history


def completion_order(history: History):
    return sorted(history.operations, key=lambda op: (op.finish, op.op_id))


def small_histories():
    rng = random.Random(TEST_SEED)
    return [
        make_random_history(rng, 4, 6),
        make_random_history(rng, 6, 9, span=4.0),
        concurrent_batch_history(2, 3),
        non_2atomic_batch_history(1, 3),
    ]


def result_signature(result):
    """Everything observable about a final result (witness included)."""
    witness = None
    if result.witness is not None:
        witness = tuple(
            (op.op_type.value, op.value, op.start, op.finish) for op in result.witness
        )
    return (bool(result), result.k, result.algorithm, result.reason, witness)


def verdict_signature(verdict):
    if verdict is None:
        return None
    return (bool(verdict), verdict.final, verdict.ops_seen, verdict.result.algorithm)


# ----------------------------------------------------------------------
# Checker-level parity at every feed index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [1, 2])
def test_kill_resume_at_every_index_matches_uninterrupted(k):
    for case, history in enumerate(small_histories()):
        ops = completion_order(history)
        # The uninterrupted reference: verdict sequence and final result.
        reference = checker_for(k)
        reference_verdicts = [verdict_signature(reference.feed(op)) for op in ops]
        reference_final = result_signature(reference.finish())

        for cut in range(len(ops) + 1):
            checker = checker_for(k)
            for op in ops[:cut]:
                checker.feed(op)
            state = pickle.loads(pickle.dumps(checker.snapshot()))
            resumed = restore_checker(state)
            tail_verdicts = [verdict_signature(resumed.feed(op)) for op in ops[cut:]]
            assert tail_verdicts == reference_verdicts[cut:], (
                f"case {case}, k={k}: verdicts after resuming at index {cut} "
                f"differ from the uninterrupted run (seed {TEST_SEED:#x})"
            )
            assert result_signature(resumed.finish()) == reference_final, (
                f"case {case}, k={k}: final verdict after resuming at index "
                f"{cut} differs (seed {TEST_SEED:#x})"
            )


def test_recheck_checker_snapshot_for_k3():
    rng = random.Random(TEST_SEED + 5)
    history = make_random_history(rng, 4, 4)
    ops = completion_order(history)
    reference = RecheckChecker(3, algorithm="exact")
    for op in ops:
        reference.feed(op)
    expected = result_signature(reference.finish())
    for cut in range(len(ops) + 1):
        checker = RecheckChecker(3, algorithm="exact")
        for op in ops[:cut]:
            checker.feed(op)
        resumed = restore_checker(pickle.loads(pickle.dumps(checker.snapshot())))
        for op in ops[cut:]:
            resumed.feed(op)
        assert result_signature(resumed.finish()) == expected


def test_snapshot_preserves_introspection_counters():
    history = concurrent_batch_history(2, 3)
    checker = checker_for(1)
    for op in completion_order(history):
        checker.feed(op)
    resumed = restore_checker(checker.snapshot())
    assert resumed.ops_seen == checker.ops_seen
    assert resumed.pending_reads == checker.pending_reads
    assert resumed.checks_run == checker.checks_run
    assert resumed.key == checker.key


def test_restore_rejects_mismatched_checker():
    gk = IncrementalGKChecker()
    lbt = IncrementalLBTChecker()
    with pytest.raises(VerificationError):
        lbt.restore(gk.snapshot())
    with pytest.raises(VerificationError):
        restore_checker({"class": "NoSuchChecker"})


# ----------------------------------------------------------------------
# Session-level parity (assembler + checkers + timeline)
# ----------------------------------------------------------------------
def test_stream_session_kill_resume_every_index():
    rng = random.Random(TEST_SEED + 6)
    history = make_random_history(rng, 6, 10)
    ops = completion_order(history)
    policy = WindowPolicy.count(4)

    reference = StreamingEngine(window=policy).open_session(2)
    for op in ops:
        reference.feed(op)
    reference_report = reference.finish()
    expected_results = {
        key: result_signature(result)
        for key, result in reference_report.results.items()
    }

    for cut in range(len(ops) + 1):
        session = StreamingEngine(window=policy).open_session(2)
        for op in ops[:cut]:
            session.feed(op)
        state = pickle.loads(pickle.dumps(session.snapshot()))
        resumed = StreamingEngine(window=policy).resume_session(state)
        for op in ops[cut:]:
            resumed.feed(op)
        report = resumed.finish()
        assert {
            key: result_signature(result) for key, result in report.results.items()
        } == expected_results, f"resume at index {cut} (seed {TEST_SEED:#x})"
        assert report.num_windows == reference_report.num_windows
        # The timeline verdicts the resumed session produced after the cut
        # must match the reference run's window-for-window.
        for window_index in range(len(report.timeline)):
            got = report.timeline[window_index]
            want = reference_report.timeline[window_index]
            assert {
                key: verdict_signature(v) for key, v in got.verdicts.items()
            } == {key: verdict_signature(v) for key, v in want.verdicts.items()}


def test_session_restore_rejects_config_mismatch():
    session = StreamingEngine(window=WindowPolicy.count(4)).open_session(2)
    state = session.snapshot()
    with pytest.raises(VerificationError):
        StreamingEngine(window=WindowPolicy.count(8)).open_session(2).restore(state)
    with pytest.raises(VerificationError):
        StreamingEngine(window=WindowPolicy.count(4)).open_session(1).restore(state)
    with pytest.raises(VerificationError):
        StreamingEngine(window=WindowPolicy.count(4), mode="windowed").open_session(2)


# ----------------------------------------------------------------------
# CheckpointStore + AuditSession round trip
# ----------------------------------------------------------------------
def test_checkpoint_store_round_trip(tmp_path):
    store = CheckpointStore(tmp_path / "ckpts")
    config = SessionConfig(k=2, window_size=4)
    session = AuditSession.start("audit/1", config)
    ops = completion_order(concurrent_batch_history(2, 3))
    for op in ops[:5]:
        session.feed(op)
    store.save(session.session_id, session.checkpoint_payload())
    assert "audit/1" in store
    assert store.session_ids() == ["audit/1"]

    resumed = AuditSession.resume(store.load("audit/1"))
    assert resumed.resumed
    assert resumed.ops_fed == 5
    for op in ops[5:]:
        session.feed(op)
        resumed.feed(op)
    original = session.finish()
    recovered = resumed.finish()
    assert {key: result_signature(r) for key, r in original.results.items()} == {
        key: result_signature(r) for key, r in recovered.results.items()
    }
    assert store.discard("audit/1")
    assert not store.discard("audit/1")
    assert "audit/1" not in store


def test_checkpoint_store_quotes_session_ids(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.path_for("../escape me/..")
    assert path.parent == store.directory  # quoting keeps files inside the dir
    store.save("../escape me/..", {"session_id": "x"})
    assert store.session_ids() == ["../escape me/.."]


# ----------------------------------------------------------------------
# Store round trip
# ----------------------------------------------------------------------
def test_checkpoint_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    session = AuditSession.start("audit/1", SessionConfig(k=2, window_size=4))
    ops = completion_order(concurrent_batch_history(2, 3))
    for op in ops[:5]:
        session.feed(op)
    store.save(session.session_id, session.checkpoint_payload())
    assert "audit/1" in store
    assert store.session_ids() == ["audit/1"]

    resumed = AuditSession.resume(store.load("audit/1"))
    assert resumed.resumed and resumed.ops_fed == 5
    for op in ops[5:]:
        session.feed(op)
        resumed.feed(op)
    original = session.finish()
    recovered = resumed.finish()
    assert {key: result_signature(r) for key, r in original.results.items()} == {
        key: result_signature(r) for key, r in recovered.results.items()
    }
    assert store.discard("audit/1")
    assert "audit/1" not in store
    store.close()


def test_checkpoint_store_accepts_only_the_json_backend_name(tmp_path):
    CheckpointStore(tmp_path, backend="json").close()
    with pytest.raises(ServiceError, match="only 'json' remains"):
        CheckpointStore(tmp_path, backend="segments")
