"""Differential tests for the incremental 2-AV re-check.

:class:`~repro.algorithms.online.IncrementalLBTChecker` re-verifies its
resolved prefix with a growing LBT that carries normalisation and epoch
boundaries across checks.  Every verdict it emits must equal the batch call
``verify(History(prefix), 2, algorithm="lbt", preprocess=True)`` field for
field, except that window verdicts carry no witness: verdict, algorithm,
reason and stats.  After every check the growing checker's
:meth:`~repro.algorithms.lbt.LBTChecker.witness` must equal batch's witness
in operation ids *and* times (operations compare equal by id alone, so a
witness holding an un-shortened write would slip past ``==``), and every
``finish()`` must equal batch with its witness.
"""

from __future__ import annotations

import asyncio
import pickle
import random
from dataclasses import replace

import pytest

from repro.algorithms import lbt as lbt_module
from repro.algorithms.online import (
    IncrementalGKChecker,
    IncrementalLBTChecker,
    RecheckChecker,
    restore_checker,
)
from repro.core.api import verify
from repro.core.errors import DuplicateValueError
from repro.core.history import History
from repro.core.operation import read, write
from repro.service import AuditSession, PooledAuditSession, WorkerPool
from repro.service.session import SessionConfig
from repro.workloads.synthetic import practical_history, synthetic_trace

from tests.conftest import TEST_SEED
from tests.test_service import make_trace_ops


def signature(result):
    """Every field of a result, with the witness as (op_id, start, finish)."""
    witness = None
    if result.witness is not None:
        witness = tuple((op.op_id, op.start, op.finish) for op in result.witness)
    return (
        result.is_k_atomic,
        result.k,
        result.algorithm,
        result.reason,
        tuple(result.stats.items()),
        witness,
    )


def batch_on_prefix(checker):
    prefix = History(checker._resolved, key=checker.key)
    return verify(prefix, 2, algorithm="lbt", preprocess=True)


def assert_check_equals_batch(checker, verdict, where):
    """A window verdict is batch's on the prefix minus the witness, and the
    growing checker's ledger (when it is still live) builds batch's witness."""
    expected = batch_on_prefix(checker)
    assert signature(verdict.result) == signature(replace(expected, witness=None)), (
        f"{where} differs from batch"
    )
    if checker._lbt is not None:
        witness = checker._lbt.witness()
        assert signature(replace(expected, witness=witness)) == signature(expected), (
            f"witness after {where} differs from batch"
        )


def completion_order(ops):
    return sorted(ops, key=lambda op: (op.finish, op.op_id))


def drive(checker, ops, *, check_every=1, stream=None):
    """Feed ``ops``; compare every verdict a check produced with batch LBT.

    ``check_every=1`` calls ``check_now`` after every operation, the
    window-size-1 extreme.  ``finish()`` must equal batch LBT on ``stream``
    (default: ``ops``).  Returns the number of verdicts compared.
    """
    compared = 0
    for i, op in enumerate(ops):
        before = checker.checks_run
        verdict = checker.feed(op)
        if verdict is not None:
            assert checker.checks_run == before + 1
            assert_check_equals_batch(checker, verdict, f"cadence check after op {i}")
            compared += 1
        if check_every and i % check_every == 0:
            before = checker.checks_run
            verdict = checker.check_now()
            if checker.checks_run != before:
                assert_check_equals_batch(checker, verdict, f"check_now after op {i}")
                compared += 1
    final = checker.finish()
    expected = verify(History(stream or ops), 2, algorithm="lbt", preprocess=True)
    assert signature(final) == signature(expected)
    return compared


def random_ops(rng, n, *, span, coarse=False):
    """A random 2-AV-ish register stream; ``coarse`` rounds times to ties."""
    ops = []
    values = []
    for i in range(n):
        start = rng.uniform(0.0, span)
        finish = start + rng.uniform(0.05, 2.0)
        if coarse:
            start, finish = float(round(start)), float(round(finish) + 1)
        if not values or rng.random() < 0.3:
            ops.append(write(i, start, finish))
            values.append(i)
        else:
            ops.append(read(values[max(0, len(values) - 1 - rng.randrange(3))], start, finish))
    return ops


class TestDifferential:
    @pytest.mark.parametrize("check_interval", [1, 4, 16])
    def test_synthetic_streams(self, check_interval):
        rng = random.Random(TEST_SEED)
        compared = 0
        for _ in range(6):
            trace = synthetic_trace(
                rng, 2, 80, staleness_probability=0.02, max_staleness=2
            )
            for key in trace.keys():
                ops = completion_order(trace[key].operations)
                checker = IncrementalLBTChecker(check_interval=check_interval)
                compared += drive(checker, ops, check_every=3)
        assert compared > 50

    def test_window_size_one(self):
        rng = random.Random(TEST_SEED + 1)
        history = practical_history(rng, 120, staleness_probability=0.0)
        ops = completion_order(history.operations)
        checker = IncrementalLBTChecker(check_interval=1, cadence_growth=1.0)
        assert drive(checker, ops, check_every=1) >= len(ops)

    def test_coarse_tie_heavy_timestamps_take_the_batch_path(self):
        rng = random.Random(TEST_SEED + 2)
        for _ in range(10):
            ops = completion_order(random_ops(rng, 40, span=10.0, coarse=True))
            checker = IncrementalLBTChecker(check_interval=2)
            drive(checker, ops, check_every=2)
            assert checker._lbt is None  # ties force the fallback

    def test_read_before_write_admitted_mid_stream(self):
        ops = [
            write("a", 0.0, 1.0),
            read("a", 1.5, 2.0),
            # Finishes before its dictating write starts: pending until the
            # write arrives, then admitted as a Section II-C anomaly.
            read("b", 2.5, 3.0),
            write("b", 3.5, 4.0),
            read("b", 4.5, 5.0),
        ]
        checker = IncrementalLBTChecker(check_interval=1)
        drive(checker, ops)
        assert not checker.finish()
        assert checker._latched.result.algorithm == "preprocess"

    def test_late_read_shortens_an_old_write(self):
        ops = [
            write("a", 0.0, 1.0),
            write("b", 2.0, 9.0),
            read("b", 9.5, 10.0),
            write("c", 10.5, 11.0),
            read("c", 11.5, 12.0),
            # Arrives late, finishes before "b" does: shortens "b" to 5 - eps.
            read("b", 3.0, 5.0),
            write("d", 12.5, 13.0),
        ]
        checker = IncrementalLBTChecker(check_interval=1)
        drive(checker, ops)
        assert checker._lbt is not None  # stayed on the growing path
        shortened = [op for op in batch_on_prefix(checker).witness if op.value == "b"]
        assert shortened[0].finish < 5.0

    @pytest.mark.parametrize("collide_first", [False, True])
    def test_shortened_finish_meeting_a_timestamp_takes_the_batch_path(
        self, collide_first
    ):
        # Shortening "a" to 5 - 1e-9 lands on another operation's start:
        # raw timestamps are tie-free, normalised ones are not.
        shortened = 5.0 - 1e-9
        late = write("b", shortened, 12.0)
        ops = [write("a", 0.0, 10.0), read("a", 1.0, 5.0), read("a", 10.5, 11.0)]
        ops = [late] + ops if collide_first else ops + [late]
        ops.append(read("b", 12.5, 13.0))
        checker = IncrementalLBTChecker(check_interval=1)
        drive(checker, ops)
        assert checker._lbt is None

    def test_reads_resolved_late(self):
        rng = random.Random(TEST_SEED + 3)
        history = practical_history(rng, 150, staleness_probability=0.05)
        # Deliver each read before its dictating write so it waits pending.
        ops = sorted(
            history.operations,
            key=lambda op: (op.start if op.is_read else op.finish, op.op_id),
        )
        checker = IncrementalLBTChecker(check_interval=2)
        drive(checker, ops, check_every=2)

    def test_matches_the_batch_path_twin_verdict_for_verdict(self):
        rng = random.Random(TEST_SEED + 4)
        history = practical_history(rng, 200, staleness_probability=0.02, max_staleness=2)
        ops = completion_order(history.operations)
        fast = IncrementalLBTChecker()
        twin = RecheckChecker(2, algorithm="lbt")  # always the batch path
        for op in ops:
            a, b = fast.feed(op), twin.feed(op)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.result.witness is None and b.result.witness is None
                assert signature(a.result) == signature(b.result)
                assert (a.ops_seen, a.final) == (b.ops_seen, b.final)
        assert signature(fast.finish()) == signature(twin.finish())

    def test_snapshot_restore_at_every_index(self):
        rng = random.Random(TEST_SEED + 5)
        history = practical_history(rng, 60, staleness_probability=0.05, max_staleness=2)
        ops = completion_order(history.operations)
        for cut in range(len(ops) + 1):
            checker = IncrementalLBTChecker(check_interval=2)
            for op in ops[:cut]:
                checker.feed(op)
                checker.check_now()
            state = pickle.loads(pickle.dumps(checker.snapshot()))
            resumed = restore_checker(state)
            drive(resumed, ops[cut:], check_every=1, stream=ops)


class TestSplice:
    def test_splice_fires_on_a_practical_stream(self, monkeypatch):
        splices = []
        original = lbt_module.LBTChecker._splice

        def spy(self, epochs, deltas, boundary):
            result = original(self, epochs, deltas, boundary)
            splices.append((len(epochs), result.stats["epochs"]))
            return result

        monkeypatch.setattr(lbt_module.LBTChecker, "_splice", spy)
        rng = random.Random(TEST_SEED + 6)
        history = practical_history(rng, 400, staleness_probability=0.0)
        ops = completion_order(history.operations)
        checker = IncrementalLBTChecker(check_interval=1, cadence_growth=1.0)
        drive(checker, ops, check_every=4)
        assert checker._lbt is not None
        # Late checks re-run only the last few of many epochs.
        late = splices[len(splices) // 2 :]
        assert late and all(total >= 10 for _, total in late)
        assert sum(run for run, _ in late) * 4 < sum(total for _, total in late)

    def test_work_per_check_stays_flat(self, monkeypatch):
        # A 4,096-op register checked every 16 ops: each check re-places the
        # new operations and the few epochs they reach, so the removals the
        # last checks log stay at the first checks' level (a re-run of the
        # prefix would log ~100x more), and the ledger is cut back in place.
        removals = []
        original = lbt_module.LBTChecker._end_run

        def spy(self):
            removals.append(len(self.H.log))
            original(self)

        monkeypatch.setattr(lbt_module.LBTChecker, "_end_run", spy)
        history = practical_history(
            random.Random(TEST_SEED + 8), 4096, staleness_probability=0.0
        )
        ops = completion_order(history.operations)
        checker = IncrementalLBTChecker(check_interval=16, cadence_growth=1.0)
        ledger = None
        for op in ops:
            if checker.feed(op) is None:
                continue
            lbt = checker._lbt
            lists = (lbt._ledger, lbt._starts, lbt._before)
            if ledger is None:
                ledger = lists
            assert all(now is then for now, then in zip(lists, ledger))
        assert checker._lbt is not None and len(removals) == len(ops) // 16
        quarter = len(removals) // 4
        assert sum(removals[-quarter:]) <= 1.5 * sum(removals[:quarter]), removals
        assert len(checker._lbt._ledger) == len(ops)

    def test_snapshots_carry_no_derived_state(self):
        checker = IncrementalLBTChecker()
        for op in [write("a", 0.0, 1.0), read("a", 2.0, 3.0)]:
            checker.feed(op)
        state = checker.snapshot()
        assert state["monitor"] == {}
        assert set(state) == set(RecheckChecker(2).snapshot())

    def test_restore_accepts_the_retired_monitor_keys(self):
        rng = random.Random(TEST_SEED + 7)
        history = practical_history(rng, 80, staleness_probability=0.05, max_staleness=2)
        ops = completion_order(history.operations)
        reference = IncrementalLBTChecker()
        expected = [reference.feed(op) for op in ops]
        cut = len(ops) // 2
        checker = IncrementalLBTChecker()
        for op in ops[:cut]:
            checker.feed(op)
        state = checker.snapshot()
        state["monitor"] = {
            "write_ids": {op.value: op.op_id for op in ops[:cut] if op.is_write},
            "clusters": {},
            "max_write_finish": 12.5,
            "concurrent_write_hint": 3,
        }
        resumed = restore_checker(pickle.loads(pickle.dumps(state)))
        for op, want in zip(ops[cut:], expected[cut:]):
            got = resumed.feed(op)
            assert (got is None) == (want is None)
            if got is not None:
                assert signature(got.result) == signature(want.result)
        assert signature(resumed.finish()) == signature(reference.finish())


class TestLatchedNo:
    @pytest.mark.parametrize("make", [IncrementalGKChecker, IncrementalLBTChecker])
    def test_finish_reports_the_whole_stream(self, make):
        # Stale by two from the start: NO at k=1 and k=2 on the first check.
        ops = [
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            write("c", 4.0, 5.0),
            read("a", 6.0, 7.0),
        ]
        t = 8.0
        for i in range(12):  # a clean tail: batch places it before failing
            ops.append(write(f"x{i}", t, t + 1.0))
            ops.append(read(f"x{i}", t + 1.5, t + 2.5))
            t += 3.0
        checker = make(check_interval=1)
        latched = None
        for i, op in enumerate(ops):
            checker.feed(op)
            verdict = checker.check_now()
            if i == 3:
                latched = verdict
                assert verdict.final and not verdict
            if latched is not None:
                assert checker.check_now() is latched  # frames stay as they were
                assert checker.peek() is latched
        assert checker.ops_seen == len(ops)
        result = checker.finish()
        expected = verify(History(ops), checker.k, algorithm=checker.algorithm)
        assert signature(result) == signature(expected)
        prefix = verify(History(ops[:4]), checker.k, algorithm=checker.algorithm)
        assert result.reason != prefix.reason or result.stats != prefix.stats

    def test_validation_continues_after_the_latch(self):
        checker = IncrementalLBTChecker(check_interval=1)
        for op in [write("a", 0.0, 1.0), write("b", 2.0, 3.0), write("c", 4.0, 5.0)]:
            checker.feed(op)
        checker.feed(read("a", 6.0, 7.0))
        assert not checker.check_now()
        with pytest.raises(DuplicateValueError):
            checker.feed(write("a", 8.0, 9.0))


@pytest.fixture
def batch_calls(monkeypatch):
    """Count the checkers' batch verifications (``RecheckChecker._batch_verify``)."""
    calls = []
    original = RecheckChecker._batch_verify

    def spy(self, ops):
        calls.append(len(ops))
        return original(self, ops)

    monkeypatch.setattr(RecheckChecker, "_batch_verify", spy)
    return calls


def finish_and_compare(checker, stream, batch_calls):
    """Finish; assert it equals batch on ``stream``; return its batch calls."""
    before = len(batch_calls)
    final = checker.finish()
    expected = verify(History(stream), 2, algorithm=checker.algorithm, preprocess=True)
    assert signature(final) == signature(expected)
    assert checker._last_verdict.final and checker._last_verdict.result is final
    return len(batch_calls) - before


def clean_stream(seed, n=120):
    history = practical_history(random.Random(seed), n, staleness_probability=0.0)
    return completion_order(history.operations)


class TestFinish:
    @pytest.mark.parametrize("check_before_finish", [True, False])
    def test_clean_streams_finish_on_the_growing_path(
        self, batch_calls, check_before_finish
    ):
        tails = 0
        for seed in range(8):
            ops = clean_stream(TEST_SEED + 100 + seed)
            checker = IncrementalLBTChecker()
            for op in ops:
                checker.feed(op)
            if check_before_finish:
                checker.check_now()
            before = checker.checks_run
            assert checker._lbt is not None and not checker.pending_reads
            assert finish_and_compare(checker, ops, batch_calls) == 0
            # A cached verdict costs nothing; tail ops cost one growing check.
            assert checker.checks_run - before == (0 if check_before_finish else 1)
            tails += checker.checks_run - before
        assert batch_calls == []
        assert tails == (0 if check_before_finish else 8)

    def test_a_non_atomic_tail_finishes_no_on_the_growing_path(self, batch_calls):
        ops = clean_stream(TEST_SEED + 120, n=60)
        t = max(op.finish for op in ops) + 1.0
        ops += [  # stale by two: NO at k=2
            write("s1", t, t + 1.0),
            write("s2", t + 2.0, t + 3.0),
            write("s3", t + 4.0, t + 5.0),
            read("s1", t + 6.0, t + 7.0),
        ]
        checker = IncrementalLBTChecker(check_interval=len(ops) + 1)
        for op in ops:
            checker.feed(op)
        assert finish_and_compare(checker, ops, batch_calls) == 0
        assert not checker.peek() and batch_calls == []

    def test_finish_after_restore_at_every_index(self, batch_calls):
        ops = clean_stream(TEST_SEED + 121, n=60)
        for cut in range(len(ops) + 1):
            checker = IncrementalLBTChecker(check_interval=4)
            for i, op in enumerate(ops[:cut]):
                checker.feed(op)
                if i % 3 == 0:
                    checker.check_now()
            resumed = restore_checker(pickle.loads(pickle.dumps(checker.snapshot())))
            for op in ops[cut:]:
                resumed.feed(op)
            assert finish_and_compare(resumed, ops, batch_calls) == 0, cut
        assert batch_calls == []

    def test_finish_right_after_restore_carries_the_witness(self, batch_calls):
        # Checked after every op, so each snapshot holds a clean cached YES
        # while the restored growing checker's ledger is still empty.
        ops = clean_stream(TEST_SEED + 124, n=60)
        growing = 0
        for cut in range(len(ops) + 1):
            checker = IncrementalLBTChecker(check_interval=4)
            for op in ops[:cut]:
                checker.feed(op)
                checker.check_now()
            resumed = restore_checker(pickle.loads(pickle.dumps(checker.snapshot())))
            on_growing_path = resumed._lbt is not None and not resumed.pending_reads
            calls = finish_and_compare(resumed, ops[:cut], batch_calls)
            assert calls == (0 if on_growing_path else 1), cut
            growing += on_growing_path
        assert growing > len(ops) // 2

    def test_read_whose_write_never_arrives(self, batch_calls):
        ops = [write("a", 0.0, 1.0), read("a", 2.0, 3.0), read("ghost", 4.0, 5.0)]
        checker = IncrementalLBTChecker(check_interval=1)
        for op in ops:
            checker.feed(op)
        assert checker._lbt is not None and checker.pending_reads == 1
        assert finish_and_compare(checker, ops, batch_calls) == 1
        assert not checker.peek().result

    def test_read_preceding_its_write(self, batch_calls):
        ops = [write("a", 0.0, 1.0), read("b", 2.5, 3.0), write("b", 3.5, 4.0)]
        checker = IncrementalLBTChecker(check_interval=100)
        for op in ops:
            checker.feed(op)
        assert checker._lbt is None and not checker.pending_reads
        assert finish_and_compare(checker, ops, batch_calls) == 1

    def test_a_tie(self, batch_calls):
        ops = [write("a", 0.0, 1.0), read("a", 1.0, 2.0), write("b", 3.0, 4.0)]
        checker = IncrementalLBTChecker(check_interval=100)
        for op in ops:
            checker.feed(op)
        assert checker._lbt is None
        assert finish_and_compare(checker, ops, batch_calls) == 1

    def test_a_shortened_finish_meeting_a_timestamp(self, batch_calls):
        shortened = 5.0 - 1e-9
        ops = [
            write("a", 0.0, 10.0),
            read("a", 1.0, 5.0),
            read("a", 10.5, 11.0),
            write("b", shortened, 12.0),
            read("b", 12.5, 13.0),
        ]
        checker = IncrementalLBTChecker(check_interval=100)
        for op in ops:
            checker.feed(op)
        assert checker._lbt is None
        assert finish_and_compare(checker, ops, batch_calls) == 1

    def test_a_latched_no(self, batch_calls):
        ops = [
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            write("c", 4.0, 5.0),
            read("a", 6.0, 7.0),
            write("d", 8.0, 9.0),
            read("d", 9.5, 10.0),
        ]
        checker = IncrementalLBTChecker(check_interval=1)
        for op in ops:
            checker.feed(op)
        assert checker._latched is not None and checker._lbt is None
        assert batch_calls == []  # the growing checker latched it
        assert finish_and_compare(checker, ops, batch_calls) == 1

    @pytest.mark.parametrize("delegate", ["fzf", "lbt-reference"])
    def test_other_delegates(self, batch_calls, delegate):
        ops = clean_stream(TEST_SEED + 122, n=40)
        checker = IncrementalLBTChecker(algorithm=delegate)
        for op in ops:
            checker.feed(op)
        before = len(batch_calls)
        assert finish_and_compare(checker, ops, batch_calls) == 1
        assert before > 0  # its cadence checks were batch calls too

    def test_pooled_final_report_equals_the_in_process_one(self):
        _trace, stream = make_trace_ops(
            random.Random(TEST_SEED + 123), registers=4, ops=60, staleness=0.1
        )
        config = SessionConfig(k=2, algorithm="lbt", window_mode="count", window_size=16)
        local = AuditSession.start("local", config)
        for op in stream:
            local.feed(op)
        expected = local.finish()

        async def pooled():
            pool = WorkerPool(2)
            await pool.start()
            try:
                session = PooledAuditSession.start("pooled", config, pool)
                for op in stream:
                    await session.afeed(op)
                return await session.afinish()
            finally:
                await pool.stop()

        report = asyncio.run(pooled())
        assert list(report.results) == list(expected.results)
        for key, result in expected.results.items():
            assert signature(report.results[key]) == signature(result), key
