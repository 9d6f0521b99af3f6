"""The batch workloads: audit one trace file, as JSONL or as ``.rcol``.

Untraced, a host process (``batch_host.py``) runs
``Engine(executor="processes", jobs=nproc).verify_file`` on the file again
and again for the run's duration; the benchmark only sends paths and checks
digests.  Traced, the benchmark itself walks the same pipeline through each
layer's public calls — decode, build, plan, encode, then per-shard decode,
normalise, columnar encoding and kernel inside the engine's own process
executor — recording a span around each call.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Tuple

from .common import (
    SETUP_SAMPLES,
    Context,
    Outcome,
    per_layer_metrics,
    run_traced,
    self_time_table,
    stop_process,
    wait_for_line,
)
from .inputs import batch_inputs, shape_of
from .stats import Tally
from .tracing import Tracer
from .verdicts import digest, no_count

#: Untraced passes measured at least, whatever ``--seconds`` says.
MIN_PASSES = 3


class BatchHost:
    """One ``batch_host.py`` process; ``setup_s`` is launch until ready."""

    def __init__(self, ctx: Context):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ctx.root / "perfbench" / "batch_host.py"), str(ctx.root)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ctx.root,
            text=True,
        )
        try:
            wait_for_line(self.proc, '"ready"')
        except RuntimeError:
            self.proc.kill()
            stop_process(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def verify(self, path) -> dict:
        self.proc.stdin.write(f"{path}\n")
        self.proc.stdin.flush()
        return json.loads(wait_for_line(self.proc, '"wall_s"'))

    def close(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.close()
        wait_for_line(self.proc, '"maxrss_kib"')
        stop_process(self.proc)


def run(ctx: Context, fmt: str) -> Outcome:
    from repro.core.api import verify_trace

    inputs = batch_inputs(ctx.root, ctx.seed)
    path = inputs.jsonl if fmt == "jsonl" else inputs.rcol
    reference = verify_trace(inputs.trace, 2)
    # The out-of-core .rcol route skips witness decoding by design, so its
    # digest covers verdict, algorithm and reason only.
    witness = fmt == "jsonl"
    expected = digest(reference, witness=witness)
    shape = shape_of(inputs.num_ops, inputs.num_registers, no_count(reference))
    if ctx.trace:
        return _traced(ctx, fmt, path, inputs, expected, witness, shape)
    return _untraced(ctx, path, inputs, expected, witness, shape)


def _untraced(ctx, path, inputs, expected, witness, shape) -> Outcome:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = BatchHost(ctx)
        setups.append(probe.setup_s)
        probe.close()
    host = BatchHost(ctx)
    setups.append(host.setup_s)
    tally = Tally()
    walls: List[float] = []
    correct = True
    key = "witness_digest" if witness else "digest"
    try:
        host.verify(path)  # warm-up: lazy imports inside the engine
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < ctx.seconds or len(walls) < MIN_PASSES:
            reply = host.verify(path)
            ok = reply[key] == expected and reply["ops"] == inputs.num_ops
            correct &= ok
            tally.add(inputs.num_registers, 0 if ok else inputs.num_registers)
            walls.append(reply["wall_s"])
    finally:
        host.close()
    wall = median(walls)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return Outcome(
        correct=correct,
        tally=tally,
        metrics={
            "setup_s": median(setups),
            "ops_per_s": inputs.num_ops / wall,
            "p50_ms": wall * 1e3,
            "peak_rss_mb": rss_kib / 1024.0,
            "success_frac": 1.0 - tally.failed_frac,
        },
        shape=shape,
        notes=[f"{len(walls)} audits, {len(setups)} set-ups"],
    )


# ----------------------------------------------------------------------
# Traced decomposition
# ----------------------------------------------------------------------
def _jsonl_shard(args) -> Tuple[int, list, float, int, list, Dict[str, float]]:
    """Worker side of a JSONL shard: what ``run_shard`` does, call by call."""
    from repro.core.api import verify
    from repro.core.columnar import columnar_of
    from repro.core.preprocess import find_anomalies, normalize
    from repro.engine.codec import decode_shard_items

    blob, shard_id, parent, trace_id, traced = args
    tracer = _worker_tracer(shard_id, parent, trace_id, traced)
    t0 = time.perf_counter()
    span = tracer.begin("engine.codec_decode")
    items = decode_shard_items(blob)
    tracer.end(span)
    results = []
    for key, history in items:
        span = tracer.begin("core.normalize")
        anomalies = find_anomalies(history)
        if not anomalies:
            history = normalize(history)
        tracer.end(span)
        if anomalies:  # verify's preprocessing answers NO with the anomaly list
            span = tracer.begin("algorithms.kernel")
            result = verify(history, 2)
            tracer.end(span)
        else:
            span = tracer.begin("core.columnar")
            columnar_of(history)
            tracer.end(span)
            span = tracer.begin("algorithms.kernel")
            result = verify(history, 2, preprocess=False)
            tracer.end(span)
        results.append((key, result))
    num_ops = sum(len(history) for _key, history in items)
    return shard_id, results, time.perf_counter() - t0, num_ops, tracer.spans, dict(tracer.counts)


def _rcol_shard(args) -> Tuple[int, list, float, int, list, Dict[str, float]]:
    """Worker side of an ``.rcol`` shard: lazy per-register load, then kernel."""
    from repro.core import vector
    from repro.io.rcol import RcolFile

    path, keys, shard_id, parent, trace_id, traced = args
    tracer = _worker_tracer(shard_id, parent, trace_id, traced)
    t0 = time.perf_counter()
    results = []
    num_ops = 0
    with RcolFile(path) as rf:
        for key in keys:
            span = tracer.begin("io.rcol_load")
            col = rf.load_columnar(key)
            tracer.end(span)
            num_ops += col.n
            span = tracer.begin("algorithms.kernel")
            result = vector.verify_columnar(col, 2, decode_witness=False)
            tracer.end(span)
            results.append((key, result))
    return shard_id, results, time.perf_counter() - t0, num_ops, tracer.spans, dict(tracer.counts)


def _worker_tracer(shard_id, parent, trace_id, traced) -> Tracer:
    from .tracing import NullTracer

    if not traced:
        return NullTracer()
    return Tracer(prefix=f"w{os.getpid()}.{shard_id}.", parent=parent, trace_id=trace_id)


def _traced(ctx, fmt, path, inputs, expected, witness, shape) -> Outcome:
    from repro import Engine
    from repro.analysis.report import ShardStats, TraceVerificationReport
    from repro.core.builder import TraceBuilder
    from repro.engine.codec import encode_shard_items
    from repro.engine.executors import default_jobs
    from repro.io.rcol import RcolFile
    from repro.io.registry import stream_trace

    engine = Engine(executor="processes", jobs=default_jobs())
    tally = Tally()
    trace_id = path.name

    def one_pass(tracer: Tracer, index: int):
        root = tracer.begin("bench.pass", trace_id=trace_id)
        if fmt == "jsonl":
            span = tracer.begin("io.decode")
            ops = list(stream_trace(path))
            tracer.end(span)
            tracer.add("io.decode_ops", len(ops))
            span = tracer.begin("core.build")
            builder = TraceBuilder(ops)
            registers = [(key, builder.history(key)) for key in builder.keys()]
            tracer.end(span)
            span = tracer.begin("engine.plan")
            tasks = engine.plan(registers, 2)
            tracer.end(span)
            span = tracer.begin("engine.codec_encode")
            blobs = [(task.shard_id, encode_shard_items(task.items)) for task in tasks]
            tracer.end(span)
            tracer.add("engine.codec_bytes", sum(len(blob) for _, blob in blobs))
            key_order = [key for key, _ in registers]
            dispatch = tracer.begin("engine.dispatch")
            work = [(blob, sid, dispatch and dispatch[0], trace_id, tracer.enabled) for sid, blob in blobs]
            shard_fn = _jsonl_shard
        else:
            span = tracer.begin("engine.plan")
            rf = RcolFile(path)
            sized = rf.register_sizes()
            rf.close()
            shards = max(1, min(len(sized), engine.jobs * engine.shards_per_job))
            assignment = [keys for keys in engine.partitioner.partition(sized, shards) if keys]
            tracer.end(span)
            key_order = [key for key, _ in sized]
            dispatch = tracer.begin("engine.dispatch")
            work = [
                (str(path), tuple(keys), sid, dispatch and dispatch[0], trace_id, tracer.enabled)
                for sid, keys in enumerate(assignment)
            ]
            shard_fn = _rcol_shard
        t_dispatch = time.perf_counter()
        outcomes = list(engine.executor.run(shard_fn, work, engine.jobs))
        dispatch_wall = time.perf_counter() - t_dispatch
        tracer.end(dispatch)
        merged = {}
        for _sid, results, _busy, _ops, spans, counts in outcomes:
            merged.update(results)
            tracer.adopt(spans, counts)
        results = {key: merged[key] for key in key_order if key in merged}
        tracer.add("algorithms.no_registers", no_count(results))
        stats = tuple(
            ShardStats(shard_id=sid, num_registers=len(res), num_ops=ops, elapsed_s=busy)
            for sid, res, busy, ops, _spans, _counts in outcomes
        )
        span = tracer.begin("analysis.render")
        TraceVerificationReport(
            k=2, results=results, executor=engine.executor.name,
            partitioner=engine.partitioner.name, jobs=engine.jobs,
            num_shards=len(stats), shard_stats=stats, elapsed_s=dispatch_wall,
        ).render()
        tracer.end(span)
        tracer.end(root)
        ok = digest(results, witness=witness) == expected
        tally.add(inputs.num_registers, 0 if ok else inputs.num_registers)
        busy = [s.elapsed_s for s in stats]
        extra = {
            "engine.shard_busy_s": sum(busy),
            "engine.shard_skew": max(busy) / (sum(busy) / len(busy)),
            "engine.dispatch_s": dispatch_wall - max(busy),
        }
        return (root[0] if root else None), extra, ok

    one_pass(Tracer(), -1)  # warm-up, as in the untraced run
    run = run_traced(ctx.seconds, one_pass)
    return Outcome(
        correct=run.correct,
        tally=tally,
        metrics=per_layer_metrics(run),
        shape=shape,
        notes=[
            f"{len(run.plain_walls)} untraced + {len(run.traced_walls)} traced passes",
            self_time_table(run),
        ],
        spans=run.spans,
    )
