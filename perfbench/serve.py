"""The served workloads: closed-loop audit sessions against ``repro serve``.

Untraced, a ``repro serve`` subprocess is driven by ``AuditClient`` over TCP:
two connections, each sending one 64-op window, waiting for that window's
``window`` frame, then sending the next (a closed loop), and starting a new
session whenever one ends, until the run's time is up.

Traced, the benchmark plays the server's part in-process, one session at a
time, through the service layer's public pieces: ``JsonlDecoder.feed`` on
the bytes a client sends, ``AuditSession.start``/``afeed``/``afinish`` (or
their pooled twins over a ``WorkerPool``), frame encode/decode, and
``CheckpointStore.save``.  Spans around the window assembler and the
incremental checkers come from wrapping the session's own instances; if a
session no longer exposes them those spans are missing and a note says so.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

from .common import (
    IO_TIMEOUT,
    SETUP_SAMPLES,
    Context,
    Outcome,
    per_layer_metrics,
    run_traced,
    self_time_table,
    stop_process,
    wait_for_line,
)
from .inputs import WINDOW, SessionInput, cache_dir, session_inputs, shape_of
from .stats import Tally, highest_percentile, min_samples_for, percentile
from .tracing import Tracer
from .verdicts import no_count, session_check

#: Connections open at once: one per core of a 2-core host.
CONCURRENCY = 2

#: serve-short checkpoints each session every this many operations.
CHECKPOINT_EVERY = 128

#: A run measures until it has this many windows (a p95 with ten beyond it).
MIN_WINDOWS = min_samples_for(95)

#: Never measure longer than this, even short of ``MIN_WINDOWS``.
CAP_S = 120.0


def _latched_note(latched: int) -> str:
    return (
        f"{latched} register verdicts latched NO mid-stream with a prefix's "
        "reason, not the full trace's (see README.md)"
    )


def _pooled(workload: str) -> bool:
    return workload == "serve-short"


class Server:
    """One ``repro serve`` subprocess; ``setup_s`` is launch until the banner
    (the pool's workers are spawned and pinged before the banner prints)."""

    def __init__(self, ctx: Context, workload: str, scratch):
        args = ["--host", "127.0.0.1", "--port", "0"]
        if _pooled(workload):
            args += [
                "--workers", str(CONCURRENCY),
                "--checkpoint-dir", str(scratch),
                "--checkpoint-every", str(CHECKPOINT_EVERY),
            ]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ctx.root,
            env=env,
            text=True,
        )
        try:
            line = wait_for_line(self.proc, "listening on")
        except RuntimeError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        self.address = line.rsplit(" ", 1)[-1].strip()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        stop_process(self.proc)


def run(ctx: Context, workload: str) -> Outcome:
    from repro.core.api import verify_trace

    sessions = session_inputs(ctx.root, ctx.seed, workload)
    # Sessions verify 2-atomicity with the incremental LBT checker, whose
    # final verdict must equal batch LBT on the same operations.
    references = [verify_trace(s.trace, 2, algorithm="lbt") for s in sessions]
    num_ops = sum(len(s.ops) for s in sessions)
    registers = sum(len(r) for r in references)
    shape = shape_of(
        num_ops, registers, sum(no_count(r) for r in references),
        windows_per_session=len(sessions[0].ops) // WINDOW,
    )
    shape["distinct_sessions"] = len(sessions)
    scratch = cache_dir(ctx.root) / f"scratch-{os.getpid()}"
    try:
        if ctx.trace:
            return _traced(ctx, workload, sessions, references, shape, scratch)
        return _untraced(ctx, workload, sessions, references, shape, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Untraced: a real server and real clients
# ----------------------------------------------------------------------
def _untraced(ctx, workload, sessions, references, shape, scratch) -> Outcome:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        probe = Server(ctx, workload, scratch / f"probe{i}")
        setups.append(probe.setup_s)
        probe.close()
    server = Server(ctx, workload, scratch / "server")
    setups.append(server.setup_s)
    try:
        drive = asyncio.run(_drive(server.address, ctx.seconds, sessions, references))
    finally:
        server.close()
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    windows = drive["windows"]
    notes = [
        f"{drive['sessions']} sessions, {len(windows)} windows, {len(setups)} set-ups",
        _latched_note(drive["latched"]),
    ]
    if windows:
        top = highest_percentile(len(windows))
        notes.append(
            f"window_p95_ms = {percentile(windows, 95) * 1e3:.3f} ms (n={len(windows)}; "
            f"highest percentile with >=10 samples beyond: p{top})"
        )
    if drive["session_walls"]:
        notes.append(
            f"session_p50_ms = {median(drive['session_walls']) * 1e3:.3f} ms "
            f"(n={len(drive['session_walls'])})"
        )
    tally = drive["tally"]
    return Outcome(
        correct=drive["correct"],
        tally=tally,
        metrics={
            "setup_s": median(setups),
            "ops_per_s": drive["acked_ops"] / drive["wall_s"],
            "p50_ms": median(windows) * 1e3 if windows else float("nan"),
            "peak_rss_mb": rss_kib / 1024.0,
            "success_frac": 1.0 - tally.failed_frac,
        },
        shape=shape,
        notes=notes,
    )


async def _drive(address: str, seconds: float, sessions: List[SessionInput],
                 references: List[dict]) -> dict:
    from repro.core.errors import ReproError
    from repro.service.client import AuditClient

    state = {
        "windows": [], "session_walls": [], "acked_ops": 0, "sessions": 0,
        "correct": True, "tally": Tally(), "latched": 0, "done": [], "measured": 0,
    }
    tally: Tally = state["tally"]
    counter = itertools.count()
    t0 = time.perf_counter()

    async def one_session(index: int) -> None:
        inp, want = sessions[index % len(sessions)], references[index % len(sessions)]
        windows = inp.windows
        expected_windows = len(inp.ops) // WINDOW
        got: Dict[int, float] = {}
        arrived = asyncio.Event()

        def on_window(frame: dict) -> None:
            got[frame["index"]] = time.perf_counter()
            arrived.set()

        latencies = []
        client = None
        start = time.perf_counter()
        try:
            client = await AuditClient.connect(
                address, k=2, window=WINDOW, on_window=on_window,
                connect_timeout=IO_TIMEOUT, io_timeout=IO_TIMEOUT,
            )
            for w, chunk in enumerate(windows):
                await client.feed_ops(chunk[:-1])
                sent = time.perf_counter()
                await client.feed(chunk[-1])
                if len(chunk) < WINDOW:
                    continue
                deadline = sent + IO_TIMEOUT
                while w not in got:
                    arrived.clear()
                    await asyncio.wait_for(arrived.wait(), max(0.0, deadline - time.perf_counter()))
                latencies.append(got[w] - sent)
            report = await client.finish()
        except (ReproError, OSError, asyncio.TimeoutError):
            if client is not None:
                await client.close()
            state["correct"] = False
            tally.add(1, 1)
            tally.add_windows(expected_windows, len(got))
            tally.add(len(inp.ops), len(inp.ops))
            return
        state["measured"] += len(latencies)
        state["done"].append((inp, want, report, len(got), latencies, time.perf_counter() - start))

    async def connection() -> None:
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= CAP_S or (elapsed >= seconds and state["measured"] >= MIN_WINDOWS):
                return
            await one_session(next(counter))

    await asyncio.gather(*(connection() for _ in range(CONCURRENCY)))
    state["wall_s"] = time.perf_counter() - t0
    # Verdicts are checked after the clock stops, off the measured path.
    for inp, want, report, received, latencies, wall in state.pop("done"):
        expected_windows = len(inp.ops) // WINDOW
        same, latched = session_check(report.results, want, inp.ops)
        state["latched"] += latched
        ok = same and report.ops == len(inp.ops) and report.num_windows == expected_windows
        state["correct"] &= ok and received == expected_windows
        tally.add(1, 0 if ok else 1)
        tally.add_windows(expected_windows, received)
        tally.add(len(inp.ops), 0 if ok else len(inp.ops))
        state["windows"].extend(latencies)
        state["session_walls"].append(wall)
        state["sessions"] += 1
        if ok:
            state["acked_ops"] += report.ops
    return state


# ----------------------------------------------------------------------
# Traced: the same sessions through the service layer in-process
# ----------------------------------------------------------------------
class TracedChecker:
    """Wraps one incremental checker, timing ``feed`` and ``check_now`` and
    counting the operations each authoritative re-check verified again
    (from the checker's public ``checks_run``/``ops_seen``/``pending_reads``;
    a checker without them is timed but not counted)."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def feed(self, op):
        before = self._checks_run()
        span = self._tracer.begin("algorithms.online_feed")
        verdict = self._inner.feed(op)
        self._tracer.end(span)
        self._tracer.add("algorithms.fed_ops")
        self._note_recheck(before)
        return verdict

    def check_now(self):
        before = self._checks_run()
        span = self._tracer.begin("algorithms.online_check")
        verdict = self._inner.check_now()
        self._tracer.end(span)
        self._tracer.add("algorithms.online_checks")
        self._note_recheck(before)
        return verdict

    def _checks_run(self) -> int:
        return getattr(self._inner, "checks_run", 0)

    def _note_recheck(self, before: int) -> None:
        if self._checks_run() != before:
            inner = self._inner
            self._tracer.add("algorithms.reverified_ops", inner.ops_seen - inner.pending_reads)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _install_hooks(session, tracer: Tracer, notes: set) -> None:
    """Wrap the session's window assembler and checker factory instances."""
    stream = session.stream
    assembler = getattr(stream, "_assembler", None)
    if assembler is not None and callable(getattr(assembler, "feed", None)):
        inner_feed = assembler.feed

        def feed(op):
            span = tracer.begin("core.window_assemble")
            try:
                return inner_feed(op)
            finally:
                tracer.end(span)

        assembler.feed = feed
    else:
        notes.add("session has no window assembler to trace: core.window_assemble_s missing")
    engine = getattr(stream, "engine", None)
    make = getattr(engine, "_make_checker", None)
    if callable(make):
        engine._make_checker = lambda k: TracedChecker(make(k), tracer)
    elif not hasattr(stream, "pool"):  # pooled checkers live in the workers
        notes.add("session has no checker factory to trace: algorithms.online_* missing")


def _window_bytes(inp: SessionInput) -> List[bytes]:
    """Each window's operations exactly as ``AuditClient.feed`` encodes them."""
    from repro.io.formats import operation_to_dict

    return [
        b"".join(
            (json.dumps(operation_to_dict(op), sort_keys=True) + "\n").encode("utf-8")
            for op in chunk
        )
        for chunk in inp.windows
    ]


async def _traced_session(inp, chunks, want, tracer, index, pool, store, tally, counts, notes) -> bool:
    from repro.engine.codec import decode_feed_batches, encode_feed_batches
    from repro.io.formats import JsonlDecoder
    from repro.service.pool import PooledAuditSession
    from repro.service.protocol import (
        decode_frame,
        encode_frame,
        results_to_pairs,
        verdict_to_dict,
    )
    from repro.service.session import AuditSession, SessionConfig

    sid = f"{inp.session_id}-t{index}"
    expected_windows = len(inp.ops) // WINDOW
    root = tracer.begin("bench.session", trace_id=sid)
    span = tracer.begin("service.frame")
    decode_frame(encode_frame({"type": "hello", "k": 2, "window": {"mode": "count", "size": WINDOW}}))
    tracer.end(span)
    config = SessionConfig(k=2, window_size=WINDOW)
    span = tracer.begin("service.session_open")
    if pool is not None:
        session = PooledAuditSession.start(sid, config, pool)
    else:
        session = AuditSession.start(sid, config)
    tracer.end(span)
    if tracer.enabled:
        _install_hooks(session, tracer, notes)
    flush_name = "service.pooled_feed" if pool is not None else "service.window_flush"
    decoder = JsonlDecoder(source=sid, mixed=True)
    windows = 0
    fresh: List = []
    try:
        for chunk in chunks:
            span = tracer.begin("io.stream_decode")
            ops = decoder.feed(chunk)
            tracer.end(span)
            for op in ops:
                span = tracer.begin("service.feed")
                report = await session.afeed(op)
                tracer.end(span, name=flush_name if report is not None else None)
                fresh.append(op)
                if report is not None:
                    windows += 1
                    span = tracer.begin("service.frame")
                    frame = {
                        "type": "window", "session": sid, "index": report.stats.index,
                        "ops": report.stats.num_ops, "registers": report.stats.num_registers,
                        "alarms": sorted(report.alarms(), key=repr),
                        "verdicts": [[k, verdict_to_dict(v)] for k, v in report.verdicts.items()],
                    }
                    decode_frame(encode_frame(frame))
                    tracer.end(span)
                    session.window_log.append(frame)  # checkpoints carry it, as in the server
                    if pool is not None and tracer.enabled:
                        # The pool encodes and decodes these batches across
                        # its pipe; the same public codec is timed on them.
                        batches: Dict = {}
                        for item in fresh:
                            batches.setdefault(item.key, []).append(item)
                        span = tracer.begin("engine.feed_codec")
                        blob = encode_feed_batches(list(batches.items()))
                        decode_feed_batches(blob)
                        tracer.end(span)
                        tracer.add("engine.feed_bytes", len(blob))
                    fresh = []
                if store is not None and session.ops_fed % CHECKPOINT_EVERY == 0:
                    span = tracer.begin("service.checkpoint")
                    payload = await session.acheckpoint_payload()
                    tracer.end(span)
                    span = tracer.begin("state.save")
                    path = store.save(sid, payload)
                    tracer.end(span)
                    session.checkpoints += 1
                    tracer.add("state.saves")
                    tracer.add("state.save_bytes", os.path.getsize(path))
        span = tracer.begin("service.finish")
        final = await session.afinish()
        tracer.end(span)
        tracer.add("algorithms.no_registers", no_count(final.results))
        span = tracer.begin("service.frame")
        decode_frame(encode_frame({
            "type": "report", "session": sid, "k": final.k, "ops": session.ops_fed,
            "windows": final.num_windows, "results": results_to_pairs(final.results),
        }))
        tracer.end(span)
        if store is not None:
            store.discard(sid)
    finally:
        if pool is not None:
            await session.aclose()
    tracer.end(root)
    same, latched = session_check(final.results, want, inp.ops)
    counts["latched"] += latched
    ok = same and session.ops_fed == len(inp.ops) and windows == expected_windows
    tally.add(1, 0 if ok else 1)
    tally.add_windows(expected_windows, windows)
    tally.add(len(inp.ops), 0 if ok else len(inp.ops))
    return ok


def _traced(ctx, workload, sessions, references, shape, scratch) -> Outcome:
    from repro.service.checkpoint import CheckpointStore
    from repro.service.pool import WorkerPool

    chunks = [_window_bytes(s) for s in sessions]
    tally = Tally()
    counts = {"latched": 0}
    notes: set = set()
    loop = asyncio.new_event_loop()
    pool = store = None
    try:
        if _pooled(workload):
            pool = WorkerPool(CONCURRENCY)
            loop.run_until_complete(pool.start())
            store = CheckpointStore(scratch / "traced", backend="json")

        def one_pass(tracer: Tracer, index: int):
            i = index % len(sessions)
            ok = loop.run_until_complete(
                _traced_session(sessions[i], chunks[i], references[i], tracer, index,
                                pool, store, tally, counts, notes)
            )
            root = next((s[0] for s in tracer.spans if s[3] == "bench.session"), None)
            return root, {}, ok

        one_pass(Tracer(), -1)  # warm-up
        run = run_traced(ctx.seconds, one_pass, min_flushes=MIN_WINDOWS, cap_s=CAP_S)
    finally:
        if store is not None:
            store.close()
        if pool is not None:
            loop.run_until_complete(pool.stop())
        loop.close()
    return Outcome(
        correct=run.correct,
        tally=tally,
        metrics=per_layer_metrics(run),
        shape=shape,
        notes=[
            f"{len(run.plain_walls)} untraced + {len(run.traced_walls)} traced sessions, "
            f"{len(run.flushes)} traced window flushes",
            _latched_note(counts["latched"]),
            *sorted(notes),
            self_time_table(run),
        ],
        spans=run.spans,
    )
