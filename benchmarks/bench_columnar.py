"""Columnar fast path vs object path: end-to-end verification speedups.

The columnar encoding (:mod:`repro.core.columnar`) exists to make the paper's
``O(n log n)`` bounds real in CPython; this benchmark measures how much it
buys end to end and doubles as a parity test:

* **single-register sweep** — ``verify(h, 1)`` (GK) followed by
  ``verify(h, 2)`` (FZF) on one practical history, over a range of trace
  sizes, on fresh history instances each repeat so the derived-structure
  cache cannot leak between paths.  Three tiers: the object path, the
  columnar (struct-of-arrays) kernels, and the vectorized numpy kernels fed
  straight from a memory-mapped ``.rcol`` file (load + GK + FZF, witnesses
  left undecoded — the engine's out-of-core configuration);
* **multi-register engine pass** — the serial engine over a synthetic trace,
  columnar vs object path;
* **ingestion** — trace file → per-register histories: the streaming
  object reader vs :func:`repro.io.formats.load_columnar` (records →
  columns, no ``Operation`` objects) vs lazy ``.rcol`` memory-mapping
  (:class:`repro.io.rcol.RcolFile` — a footer parse plus zero-copy views);
* **shard IPC payload** — both directions of a process-executor shard:
  pickled ``ShardTask`` object graphs vs the compact column codec, and the
  pickled object-path outcome vs the worker's column-encoded results
  (witnesses as positions, :mod:`repro.engine.codec`), decoded and compared
  field for field with the object path.

Every timed verdict is cross-checked between the paths (verdict, reason,
stats and witness validity), so a kernel divergence fails the run loudly.

Run with::

    PYTHONPATH=src python benchmarks/bench_columnar.py [--sizes 10000,30000,100000]
        [--registers N] [--repeat R] [--json PATH] [--check [--baseline PATH]]

``--check`` re-validates the recorded baseline invariants (parity, minimum
columnar and vectorized speedups, payload and result reduction with witness
parity) at whatever size was run
— CI runs it at a small size as a regression smoke test; the committed
reference numbers live in ``benchmarks/results/bench_columnar.json``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.analysis.report import format_table
from repro.core import vector
from repro.core.api import verify
from repro.core.history import History
from repro.core.preprocess import normalize
from repro.engine import Engine, run_shard
from repro.io.formats import dump_jsonl, load_columnar, load_trace
from repro.io.rcol import RcolFile, dump_rcol
from repro.workloads.synthetic import practical_history, synthetic_trace

DEFAULT_BASELINE = Path(__file__).parent / "results" / "bench_columnar.json"


def timed(fn, repeat):
    """Run ``fn`` ``repeat`` times; return (best seconds, last result)."""
    best, result = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def check_parity(history, res_obj, res_col, k):
    """Assert the two paths agree on verdict, reason, stats and witness."""
    assert bool(res_obj) == bool(res_col), (
        f"verdict divergence at k={k}: object={bool(res_obj)} columnar={bool(res_col)}"
    )
    assert res_obj.reason == res_col.reason, (
        f"reason divergence at k={k}: {res_obj.reason!r} != {res_col.reason!r}"
    )
    assert res_obj.stats == res_col.stats, (
        f"stats divergence at k={k}: {res_obj.stats!r} != {res_col.stats!r}"
    )
    for res in (res_obj, res_col):
        if res.witness is not None:
            assert history.is_k_atomic_total_order(res.witness, k), (
                f"invalid witness from {res.algorithm} at k={k}"
            )


def fresh(history):
    """A cache-free copy of ``history`` (same operations, empty derived cache)."""
    return History(history.operations, key=history.key)


def check_numpy_parity(col, obj_r1, obj_r2, np_r1, np_r2):
    """Assert the vectorized tier matches the object path on both verdicts.

    The timed vectorized runs leave witnesses undecoded, so witness validity
    is checked on a separate decoded (untimed) run against the decoded
    operations of the memory-mapped columns.
    """
    decoded = None
    for k, obj_r, np_r in ((1, obj_r1, np_r1), (2, obj_r2, np_r2)):
        assert bool(obj_r) == bool(np_r), (
            f"verdict divergence at k={k}: object={bool(obj_r)} numpy={bool(np_r)}"
        )
        assert obj_r.reason == np_r.reason, (
            f"reason divergence at k={k}: {obj_r.reason!r} != {np_r.reason!r}"
        )
        assert obj_r.stats == np_r.stats, (
            f"stats divergence at k={k}: {obj_r.stats!r} != {np_r.stats!r}"
        )
        dec = vector.verify_columnar(col, k, preprocess=False)
        if dec.witness is not None:
            if decoded is None:
                decoded = col.to_history()
            assert decoded.is_k_atomic_total_order(dec.witness, k), (
                f"invalid witness from {dec.algorithm} at k={k} (numpy kernel)"
            )


def bench_single_register(sizes, repeat, seed, out):
    """GK then FZF on one register: object vs columnar vs vectorized tiers."""
    rows = []
    records = []
    for n in sizes:
        rng = random.Random(seed)
        history = normalize(
            practical_history(rng, n, staleness_probability=0.05, max_staleness=1)
        )

        def run_pair(use_columnar):
            h = fresh(history)
            r1 = verify(h, 1, preprocess=False, columnar=use_columnar)
            r2 = verify(h, 2, preprocess=False, columnar=use_columnar)
            return r1, r2

        obj_s, (obj_r1, obj_r2) = timed(lambda: run_pair(False), repeat)
        col_s, (col_r1, col_r2) = timed(lambda: run_pair(True), repeat)
        check_parity(history, obj_r1, col_r1, 1)
        check_parity(history, obj_r2, col_r2, 2)
        speedup = obj_s / col_s if col_s > 0 else float("inf")
        np_s = np_speedup = np_vs_col = None
        if vector.NUMPY_AVAILABLE:
            # The vectorized tier is timed the way the out-of-core engine
            # runs it: memory-map the .rcol file, build columns lazily and
            # verify without decoding the YES witness back into Operation
            # objects.  The dump itself is one-time conversion cost and is
            # measured separately by bench_ingestion.
            with tempfile.TemporaryDirectory() as tmp:
                rcol_path = Path(tmp) / "trace.rcol"
                dump_rcol(history, rcol_path)

                def run_numpy_pair():
                    with RcolFile(rcol_path) as rf:
                        col = rf.load_columnar(history.key)
                        r1 = vector.verify_columnar(
                            col, 1, preprocess=False, decode_witness=False
                        )
                        r2 = vector.verify_columnar(
                            col, 2, preprocess=False, decode_witness=False
                        )
                    return r1, r2

                np_s, (np_r1, np_r2) = timed(run_numpy_pair, repeat)
                with RcolFile(rcol_path) as rf:
                    check_numpy_parity(
                        rf.load_columnar(history.key), obj_r1, obj_r2, np_r1, np_r2
                    )
            np_speedup = obj_s / np_s if np_s > 0 else float("inf")
            np_vs_col = col_s / np_s if np_s > 0 else float("inf")
        rows.append(
            [n, f"{obj_s:.3f}", f"{col_s:.3f}",
             "-" if np_s is None else f"{np_s:.3f}",
             f"{speedup:.2f}x",
             "-" if np_speedup is None else f"{np_speedup:.2f}x",
             "YES" if col_r2 else "NO"]
        )
        records.append(
            {
                "ops": n,
                "object_s": round(obj_s, 6),
                "columnar_s": round(col_s, 6),
                "numpy_s": None if np_s is None else round(np_s, 6),
                "speedup": round(speedup, 3),
                "numpy_speedup": (
                    None if np_speedup is None else round(np_speedup, 3)
                ),
                "numpy_vs_columnar": (
                    None if np_vs_col is None else round(np_vs_col, 3)
                ),
            }
        )
    print("single-register GK+FZF sweep (fresh caches per run):", file=out)
    print(
        format_table(
            ["ops", "object (s)", "columnar (s)", "numpy (s)", "col x",
             "numpy x", "2-atomic"],
            rows,
        ),
        file=out,
    )
    return records


def bench_engine(num_registers, ops_per_register, repeat, seed, out):
    """Serial engine over a multi-register trace, columnar vs object."""
    rng = random.Random(seed)
    trace = synthetic_trace(
        rng, num_registers, ops_per_register,
        staleness_probability=0.05, max_staleness=1, size_skew=1.0,
    )

    def run(use_columnar):
        rebuilt = synthetic_trace(
            random.Random(seed), num_registers, ops_per_register,
            staleness_probability=0.05, max_staleness=1, size_skew=1.0,
        )
        return Engine(columnar=use_columnar).verify_trace(rebuilt, 2)

    # Trace regeneration inside run() guarantees cache-free histories, so
    # time the verification via the report's own elapsed clock.
    _, obj_report = timed(lambda: run(False), repeat)
    _, col_report = timed(lambda: run(True), repeat)
    assert {k: bool(r) for k, r in obj_report.results.items()} == {
        k: bool(r) for k, r in col_report.results.items()
    }, "engine verdicts diverge between object and columnar paths"
    obj_s, col_s = obj_report.elapsed_s, col_report.elapsed_s
    print("", file=out)
    print(
        f"multi-register serial engine ({num_registers} registers, "
        f"{trace.total_operations()} ops, k=2): "
        f"object {obj_s:.3f}s vs columnar {col_s:.3f}s "
        f"({obj_s / col_s:.2f}x)",
        file=out,
    )
    return {
        "registers": num_registers,
        "total_ops": trace.total_operations(),
        "object_s": round(obj_s, 6),
        "columnar_s": round(col_s, 6),
        "speedup": round(obj_s / col_s, 3) if col_s else None,
    }


def bench_ingestion(num_registers, ops_per_register, repeat, seed, out):
    """Trace-file ingestion: object reader vs columnar decode vs .rcol memmap."""
    rng = random.Random(seed)
    trace = synthetic_trace(rng, num_registers, ops_per_register)
    rcol_s = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        count = dump_jsonl(trace, path)
        object_s, _ = timed(lambda: load_trace(path), repeat)
        columnar_s, cols = timed(lambda: load_columnar(path), repeat)
        if vector.NUMPY_AVAILABLE:
            rcol_path = Path(tmp) / "trace.rcol"
            dump_rcol(trace, rcol_path)

            def load_rcol():
                with RcolFile(rcol_path) as rf:
                    return {key: rf.load_columnar(key) for key in rf.keys()}

            rcol_s, rcols = timed(load_rcol, repeat)
            assert sum(c.n for c in rcols.values()) == count
    assert sum(c.n for c in cols.values()) == count
    print("", file=out)
    rcol_part = (
        ""
        if rcol_s is None
        else f" vs .rcol memmap {rcol_s:.3f}s ({object_s / rcol_s:.2f}x)"
    )
    print(
        f"trace ingestion ({count} ops): JSONL object reader {object_s:.3f}s vs "
        f"JSONL columnar decode {columnar_s:.3f}s "
        f"({object_s / columnar_s:.2f}x){rcol_part}",
        file=out,
    )
    return {
        "total_ops": count,
        "object_s": round(object_s, 6),
        "columnar_s": round(columnar_s, 6),
        "rcol_s": None if rcol_s is None else round(rcol_s, 6),
        "speedup": round(object_s / columnar_s, 3) if columnar_s else None,
        "rcol_speedup": (
            round(object_s / rcol_s, 3) if rcol_s else None
        ),
    }


def _result_fields(result):
    witness = None
    if result.witness is not None:
        witness = [
            (op.op_id, op.op_type, op.value, op.key, op.client, op.weight, op.start, op.finish)
            for op in result.witness
        ]
    return (result.is_k_atomic, result.k, result.algorithm, result.reason, result.stats, witness)


def bench_ipc_payload(num_registers, ops_per_register, seed, out):
    """Shard bytes both ways: pickled object graphs vs the column codecs.

    Tasks: pickled ``ShardTask`` vs its encoded form.  Results: the pickled
    outcome of the object path vs the outcome a worker returns (results in
    the result codec), whose host-side decode must equal the object path
    field for field, witnesses included.
    """
    rng = random.Random(seed)
    trace = synthetic_trace(rng, num_registers, ops_per_register)
    engine = Engine(executor="processes", jobs=2)
    tasks = engine.plan(engine._as_register_histories(trace), 2)
    object_bytes = sum(len(pickle.dumps(t, pickle.HIGHEST_PROTOCOL)) for t in tasks)
    column_bytes = sum(
        len(pickle.dumps(t.encode(), pickle.HIGHEST_PROTOCOL)) for t in tasks
    )
    result_object_bytes = result_column_bytes = witness_mismatches = 0
    for task in tasks:
        reference = run_shard(task)
        outcome = run_shard(task.encode())
        result_object_bytes += len(pickle.dumps(reference, pickle.HIGHEST_PROTOCOL))
        result_column_bytes += len(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        decoded = dict(outcome.resolve(dict(task.items)).results)
        witness_mismatches += sum(
            _result_fields(decoded.get(key)) != _result_fields(result)
            if key in decoded
            else 1
            for key, result in reference.results
        )
    total_ops = trace.total_operations()
    print("", file=out)
    print(
        f"process-executor shard payload ({total_ops} ops): "
        f"pickled objects {object_bytes} B vs columns {column_bytes} B "
        f"({object_bytes / column_bytes:.2f}x smaller, "
        f"{column_bytes / total_ops:.1f} B/op)",
        file=out,
    )
    print(
        f"process-executor shard results: pickled objects {result_object_bytes} B "
        f"vs columns {result_column_bytes} B "
        f"({result_object_bytes / result_column_bytes:.2f}x smaller, "
        f"{result_column_bytes / total_ops:.1f} B/op), "
        f"{witness_mismatches} registers differing from the object path",
        file=out,
    )
    return {
        "total_ops": total_ops,
        "object_bytes": object_bytes,
        "column_bytes": column_bytes,
        "reduction": round(object_bytes / column_bytes, 3),
        "result_object_bytes": result_object_bytes,
        "result_column_bytes": result_column_bytes,
        "result_reduction": round(result_object_bytes / result_column_bytes, 3),
        "result_mismatches": witness_mismatches,
    }


def run(sizes, num_registers, ops_per_register, repeat, seed, json_path, check,
        check_min_speedup, check_min_numpy_speedup=None, out=sys.stdout):
    print(
        f"columnar benchmark: sizes={sizes}, engine trace "
        f"{num_registers}x{ops_per_register}, repeat={repeat}, seed={seed}",
        file=out,
    )
    print("", file=out)
    single = bench_single_register(sizes, repeat, seed, out)
    engine = bench_engine(num_registers, ops_per_register, repeat, seed, out)
    ingestion = bench_ingestion(num_registers, ops_per_register, repeat, seed, out)
    ipc = bench_ipc_payload(num_registers, ops_per_register, seed, out)

    record = {
        "config": {
            "sizes": list(sizes),
            "registers": num_registers,
            "ops_per_register": ops_per_register,
            "repeat": repeat,
            "seed": seed,
        },
        "single_register": single,
        "engine": engine,
        "ingestion": ingestion,
        "ipc_payload": ipc,
    }
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nrecorded results in {json_path}", file=out)

    if check:
        failures = []
        worst = min(entry["speedup"] for entry in single)
        largest = max(single, key=lambda entry: entry["ops"])
        if largest["speedup"] < check_min_speedup:
            failures.append(
                f"columnar GK+FZF speedup {largest['speedup']:.2f}x at "
                f"{largest['ops']} ops is below the required "
                f"{check_min_speedup:.2f}x"
            )
        numpy_note = "numpy tier unavailable (not checked)"
        if vector.NUMPY_AVAILABLE and check_min_numpy_speedup is not None:
            np_ratio = largest["numpy_vs_columnar"]
            if np_ratio is None or np_ratio < check_min_numpy_speedup:
                failures.append(
                    f"vectorized GK+FZF is {np_ratio}x the columnar kernels at "
                    f"{largest['ops']} ops, below the required "
                    f"{check_min_numpy_speedup:.2f}x"
                )
            else:
                numpy_note = (
                    f"vectorized tier {np_ratio:.2f}x over columnar"
                )
        if ipc["column_bytes"] >= ipc["object_bytes"]:
            failures.append(
                f"column payload {ipc['column_bytes']} B is not smaller than "
                f"pickled objects {ipc['object_bytes']} B"
            )
        if ipc["result_column_bytes"] >= ipc["result_object_bytes"]:
            failures.append(
                f"column results {ipc['result_column_bytes']} B are not smaller "
                f"than pickled results {ipc['result_object_bytes']} B"
            )
        if ipc["result_mismatches"]:
            failures.append(
                f"{ipc['result_mismatches']} registers' decoded results differ "
                "from the object path (verdict, stats or witness)"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            return record, 1
        print(
            f"CHECK OK: parity held, columnar speedup {largest['speedup']:.2f}x "
            f"at {largest['ops']} ops (worst across sizes {worst:.2f}x), "
            f"{numpy_note}, payload {ipc['reduction']:.2f}x smaller, "
            f"results {ipc['result_reduction']:.2f}x smaller with witness parity",
            file=out,
        )
    return record, 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="10000,30000,100000",
        help="comma-separated single-register trace sizes (default 10000,30000,100000)",
    )
    parser.add_argument("--registers", type=int, default=32)
    parser.add_argument("--ops", type=int, default=1500, help="operations per register")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when parity breaks, the largest-size speedup drops "
        "below --check-min-speedup, or the column payload or results stop "
        "shrinking",
    )
    parser.add_argument(
        "--check-min-speedup",
        type=float,
        default=None,
        dest="check_min_speedup",
        help="minimum required GK+FZF speedup at the largest size "
        "(default: 2.0 at >=100k ops, 1.2 below — small sizes amortise "
        "the encoding less)",
    )
    parser.add_argument(
        "--check-min-numpy-speedup",
        type=float,
        default=None,
        dest="check_min_numpy_speedup",
        help="minimum required vectorized-over-columnar ratio at the largest "
        "size (default: 10.0 at >=100k ops, 2.0 below; skipped when numpy "
        "is unavailable)",
    )
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    min_speedup = args.check_min_speedup
    if min_speedup is None:
        min_speedup = 2.0 if max(sizes) >= 100_000 else 1.2
    min_numpy = args.check_min_numpy_speedup
    if min_numpy is None:
        min_numpy = 10.0 if max(sizes) >= 100_000 else 2.0
    _, status = run(
        sizes=sizes,
        num_registers=args.registers,
        ops_per_register=args.ops,
        repeat=args.repeat,
        seed=args.seed,
        json_path=args.json,
        check=args.check,
        check_min_speedup=min_speedup,
        check_min_numpy_speedup=min_numpy,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
