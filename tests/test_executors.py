"""The process executor's warm pool: reuse, early close, broken pools, fork.

``ProcessExecutor`` keeps one pool of ``jobs`` workers per process and reuses
it run after run.  These tests pin what that must never change: every result
equals the serial object reference on first and repeated runs, a run closed
early leaks nothing into the next one, a pool whose worker died is rebuilt
rather than kept, and a forked child never uses its parent's pool.

Worker pids are read from ``multiprocessing.active_children()``.  A test that
counts workers first runs one task on a one-worker pool (``baseline``), so
the pool under test is built fresh and its workers are exactly the children
that appear afterwards.
"""

import multiprocessing
import os
import random
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_sentinels

import pytest

from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine, get_executor
from repro.io.formats import dump_jsonl
from repro.io.registry import load_trace
from repro.workloads.synthetic import synthetic_trace
from tests.conftest import TEST_SEED, result_fields
from tests.test_batch_ingest import _fields
from tests.test_streaming_engine import trace_stream

PROCESSES = get_executor("processes")


def _pid(_task):
    return os.getpid()


def _step(task):
    """Sleep ``delay`` seconds, then return ``name`` — or die if it is "die"."""
    name, delay = task
    time.sleep(delay)
    if name == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return name


def _children():
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def baseline():
    """Children alive before the pool under test: its workers are the rest."""
    list(PROCESSES.run(_pid, [0], 1))
    return _children()


@pytest.fixture(scope="module")
def trace():
    # A fixed seed whose registers both pass 2-atomicity (with a witness)
    # and fail it, so reports compare witnesses and reasons alike.
    return synthetic_trace(
        random.Random(7), 8, 60, staleness_probability=0.02, max_staleness=3
    )


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("warm") / "trace.jsonl"
    dump_jsonl(trace, path)
    return path


def _kill_and_wait(pid):
    (process,) = [p for p in multiprocessing.active_children() if p.pid == pid]
    os.kill(pid, signal.SIGKILL)
    assert wait_sentinels([process.sentinel], timeout=10)


class TestWarmPool:
    def test_repeated_file_audits_equal_the_object_reference(self, trace_file):
        want = _fields(Engine().verify_trace(load_trace(trace_file), 2))
        verdicts = [result[0] for result in want[0].values()]
        assert True in verdicts and False in verdicts
        assert any(result[5] for result in want[0].values())
        engine = Engine(executor="processes", jobs=2)
        for run in range(3):
            assert _fields(engine.verify_file(trace_file, 2)) == want, run

    def test_file_and_trace_audits_share_the_workers(self, baseline, trace, trace_file):
        engine = Engine(executor="processes", jobs=2)
        engine.verify_file(trace_file, 2)  # a decode round and a verify round
        workers = _children() - baseline
        assert 1 <= len(workers) <= 2
        report = engine.verify_trace(trace, 2)
        assert _children() - baseline == workers
        assert _fields(report) == _fields(Engine().verify_trace(trace, 2))

    def test_early_close_leaks_nothing_into_the_next_run(self, trace):
        stream = PROCESSES.run(_step, [("a0", 0.0)] + [(f"a{i}", 0.2) for i in range(1, 5)], 2)
        assert next(stream) == "a0"
        stream.close()
        assert sorted(PROCESSES.run(_step, [("b0", 0.0), ("b1", 0.0)], 2)) == ["b0", "b1"]

        short = Engine(executor="processes", jobs=2, shards_per_job=4, fail_fast=True)
        assert not short.verify_trace(trace, 2).is_k_atomic
        fresh = synthetic_trace(random.Random(TEST_SEED + 1), 5, 30, max_staleness=2)
        got = Engine(executor="processes", jobs=2).verify_trace(fresh, 2)
        assert _fields(got) == _fields(Engine().verify_trace(fresh, 2))

    def test_switching_jobs_keeps_at_most_jobs_workers(self, baseline):
        previous = set()
        for jobs in (2, 3, 2):
            pids = set(PROCESSES.run(_pid, range(4 * jobs), jobs))
            workers = _children() - baseline
            assert pids <= workers and 1 <= len(workers) <= jobs, jobs
            assert not workers & previous, jobs
            previous = workers


class TestBrokenPool:
    def test_idle_worker_killed_between_runs(self, baseline, trace):
        engine = Engine(executor="processes", jobs=2)
        first = _fields(engine.verify_trace(trace, 2))
        _kill_and_wait(min(_children() - baseline))
        assert _fields(engine.verify_trace(trace, 2)) == first
        assert first == _fields(Engine().verify_trace(trace, 2))

    def test_worker_dying_mid_run_raises_and_the_next_run_succeeds(self):
        stream = PROCESSES.run(_step, [("ok", 0.0), ("die", 0.5)], 2)
        assert next(stream) == "ok"
        with pytest.raises(BrokenProcessPool):
            list(stream)
        assert sorted(PROCESSES.run(_step, [("b0", 0.0), ("b1", 0.0)], 2)) == ["b0", "b1"]

    def test_a_task_that_always_kills_its_worker_is_retried_once(self):
        # It breaks the pool before anything was yielded, so the run
        # resubmits to a fresh pool once; the second break is raised.
        with pytest.raises(BrokenProcessPool):
            list(PROCESSES.run(_step, [("die", 0.0)], 2))
        assert list(PROCESSES.run(_step, [("b0", 0.0)], 2)) == ["b0"]


def _audit_in_child(conn, trace):
    report = Engine(executor="processes", jobs=2).verify_trace(trace, 2)
    conn.send((_fields(report), _children()))


def _close_inherited_descriptors():
    """What a forked service worker does first: drop every inherited fd."""
    for fd in range(3, 1024):
        try:
            os.close(fd)
        except OSError:
            pass


def _exit_code(child, workers=()):
    """The child's exit code; a child still running after 30 s is killed,
    with its pool ``workers``, which would otherwise outlive the test."""
    child.join(30)
    if child.exitcode is None:
        for pid in (child.pid, *workers):
            os.kill(pid, signal.SIGKILL)
        child.join()
        return None
    return child.exitcode


class TestFork:
    def test_forked_child_builds_its_own_pool(self, baseline, trace):
        Engine(executor="processes", jobs=2).verify_trace(trace, 2)
        parent_workers = _children() - baseline
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_audit_in_child, args=(writer, trace))
        child.start()
        assert reader.poll(60)
        fields, child_workers = reader.recv()
        assert _exit_code(child, child_workers) == 0
        assert fields == _fields(Engine().verify_trace(trace, 2))
        assert child_workers and not child_workers & parent_workers
        assert _children() - baseline == parent_workers

    def test_forked_child_closing_inherited_descriptors_exits_cleanly(self, trace):
        # Interpreter exit must not write to the parent pool's pipes.
        Engine(executor="processes", jobs=2).verify_trace(trace, 2)
        child = multiprocessing.get_context("fork").Process(target=_close_inherited_descriptors)
        child.start()
        assert _exit_code(child) == 0


class TestWindowedStreaming:
    def test_windows_reuse_the_workers_and_match_serial(self, baseline, trace):
        ops = trace_stream(trace)
        window = WindowPolicy.count(60)
        seen = []
        got = StreamingEngine(
            window=window, mode="windowed", executor="processes", jobs=2
        ).verify_stream(ops, 2, on_window=lambda _: seen.append(frozenset(_children() - baseline)))
        assert len(seen) >= 3 and len(set(seen)) == 1 and 1 <= len(seen[0]) <= 2

        want = StreamingEngine(window=window, mode="windowed").verify_stream(ops, 2)
        assert list(got.results) == list(want.results)
        for key in want.results:
            assert result_fields(got.results[key]) == result_fields(want.results[key]), key
        assert [w.verdicts for w in got.timeline] == [w.verdicts for w in want.timeline]
