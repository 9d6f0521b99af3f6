"""Online verification latency: per-operation cost and window-flush latency.

The online stack trades one big batch pass for many small increments; this
benchmark quantifies that trade on a 64-register synthetic trace:

* **batch baseline** — ``Engine`` (serial) over the complete trace: the cost
  an offline audit pays once, *after* the trace is finished;
* **per-operation feed cost** — incremental checkers driven one operation at
  a time (the rolling-mode hot path), reported as p50/p95/max microseconds;
  this is the latency budget a live audit adds to each completed operation;
* **window-flush latency** — ``WindowStats.elapsed_s``, the close step of
  one window in the streaming engine.  In rolling mode each operation
  reaches its checker as it arrives, so the close step is the window's
  checks and its report: what the operator waits for between the
  window's last operation and its verdict block, with the feed of every
  other operation outside it.  In windowed mode it is the window's whole
  batch verification.  The table prints each run's total per operation
  beside it, which covers the feed;
* **growing k = 2 checks** — the cost of one ``check_now`` on a single
  256- and 4,096-op register streamed with a check every 16 operations.
  A check should cost what the new operations cost, so the last quarter's
  mean check should sit at the first quarter's.  This is a record only;
  no gate reads it.

Every register's final result from the per-op, rolling and peek arms is
cross-checked field for field (verdict, algorithm, reason, stats, and the
witness's operation ids and times) against batch verification of that
register with the incremental checker's algorithm, ``verify(history, k,
algorithm="lbt", preprocess=True)`` at k = 2, so the benchmark doubles as a
parity test.  The rolling and peek records carry ``finish_s``, the wall time
from the last window's verdicts to the end-of-stream results.  Use ``--json
PATH`` to record the numbers; the committed baseline lives in
``benchmarks/results/bench_online_latency.json`` so future PRs can track the
trajectory.

``--check`` turns the run into a regression gate (the online counterpart of
``bench_columnar.py --check``): field-for-field parity must hold (always
asserted), and the price of online verdicts must stay bounded, each as a
machine-independent *ratio* to the batch engine's total, so it is safe on
noisy CI runners:

* the per-op incremental feed and the peek-mode streaming run may not exceed
  ``--check-max-slowdown`` times the batch total;
* the rolling run that re-checks every touched register at every window
  close (``check_per_window=True``) may not exceed ``ROLLING_MAX_SLOWDOWN``
  times it.  On the CI shape (16 registers x 200 ops) it measures 10-11x,
  against 26-44x before the incremental LBT re-check; on the default shape
  22x, against ~160x before.

Run with::

    PYTHONPATH=src python benchmarks/bench_online_latency.py [--registers N]
        [--ops N] [--k K] [--window W] [--repeat R] [--json PATH]
        [--check [--check-max-slowdown X]]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.algorithms.online import checker_for
from repro.analysis.report import format_table
from repro.core.api import verify
from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine
from repro.workloads.synthetic import practical_history, synthetic_trace


#: ``--check`` bound on the rolling (check-per-window) total / batch total:
#: about twice the 10-11x measured on the CI shape.
ROLLING_MAX_SLOWDOWN = 20.0
#: Register lengths of the growing-check record.
GROWING_SIZES = (256, 4096)
#: Operations between two growing checks.
GROWING_CHECK_EVERY = 16


def completion_order(trace):
    return sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )


def result_fields(result):
    """Every field of a result, with the witness as (op_id, start, finish)."""
    witness = None
    if result.witness is not None:
        witness = tuple((op.op_id, op.start, op.finish) for op in result.witness)
    return (
        result.is_k_atomic,
        result.algorithm,
        result.reason,
        dict(result.stats),
        witness,
    )


def check_parity(arm, finals, expected):
    """Assert each register's final result equals its batch reference."""
    assert finals.keys() == expected.keys(), f"{arm}: registers differ from the trace"
    for key, want in expected.items():
        assert result_fields(finals[key]) == want, (
            f"{arm}: register {key!r} final differs from batch verification"
        )


def timed(fn, repeat):
    """Run ``fn`` ``repeat`` times; return (best seconds, last result)."""
    best, result = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def bench_per_op_feed(ops, k):
    """Feed every operation through per-register checkers, timing each feed."""
    checkers = {}
    costs_us = []
    t_total = time.perf_counter()
    for op in ops:
        checker = checkers.get(op.key)
        if checker is None:
            checker = checkers[op.key] = checker_for(k)
        t0 = time.perf_counter()
        checker.feed(op)
        costs_us.append((time.perf_counter() - t0) * 1e6)
    finals = {key: checker.finish() for key, checker in checkers.items()}
    total_s = time.perf_counter() - t_total
    return costs_us, total_s, finals


def bench_streaming(ops, k, *, mode, window, check_per_window=True):
    """One streaming run: (total s, finish s, per-window flush ms, report).

    The finish wall runs from the last window's callback to the return, so
    it covers the end-of-stream ``finish()`` of every register.
    """
    engine = StreamingEngine(
        window=window, mode=mode, check_per_window=check_per_window
    )
    last_window = []
    t0 = time.perf_counter()
    report = engine.verify_stream(
        ops, k, on_window=lambda _: last_window.append(time.perf_counter())
    )
    end = time.perf_counter()
    flush_ms = [w.stats.elapsed_s * 1e3 for w in report.timeline]
    return end - t0, end - last_window[-1], flush_ms, report


def bench_growing_checks(size, seed, repeat):
    """Per-check µs of one ``size``-op register's growing k = 2 re-check.

    The register streams in completion order and ``check_now`` runs every
    ``GROWING_CHECK_EVERY`` operations (cadence checks are switched off);
    of ``repeat`` passes the one with the smallest total is kept.  The final
    result must equal batch LBT, witness included.
    """
    history = practical_history(random.Random(seed), size, staleness_probability=0.0)
    ops = sorted(history.operations, key=lambda op: (op.finish, op.op_id))
    expected = result_fields(verify(history, 2, algorithm="lbt", preprocess=True))
    best = None
    for _ in range(repeat):
        checker = checker_for(2, check_interval=len(ops) + 1)
        costs_us = []
        for i, op in enumerate(ops, start=1):
            checker.feed(op)
            if i % GROWING_CHECK_EVERY == 0:
                t0 = time.perf_counter()
                checker.check_now()
                costs_us.append((time.perf_counter() - t0) * 1e6)
        assert result_fields(checker.finish()) == expected, (
            f"growing checks: {size}-op register final differs from batch"
        )
        if best is None or sum(costs_us) < sum(best):
            best = costs_us
    quarter = max(1, len(best) // 4)
    return {
        "checks": len(best),
        "p50_us": round(percentile(best, 0.50), 2),
        "first_quarter_mean_us": round(statistics.fmean(best[:quarter]), 2),
        "last_quarter_mean_us": round(statistics.fmean(best[-quarter:]), 2),
    }


def run(num_registers=64, ops_per_register=300, k=2, window_size=256, repeat=3,
        seed=0, json_path=None, check=False, check_max_slowdown=15.0,
        out=sys.stdout):
    rng = random.Random(seed)
    trace = synthetic_trace(
        rng,
        num_registers,
        ops_per_register,
        staleness_probability=0.05,
        max_staleness=1,
        size_skew=1.0,
    )
    ops = completion_order(trace)
    print(
        f"online-latency benchmark: {len(trace)} registers, {len(ops)} ops, "
        f"k={k}, window=count({window_size})",
        file=out,
    )

    batch_s, _ = timed(lambda: Engine().verify_trace(trace, k), repeat)
    algorithm = checker_for(k).algorithm  # the batch algorithm it must equal
    expected = {
        key: result_fields(verify(trace[key], k, algorithm=algorithm, preprocess=True))
        for key in trace.keys()
    }

    feed_costs_us, feed_total_s, feed_finals = bench_per_op_feed(ops, k)
    check_parity("per-op incremental feed", feed_finals, expected)

    window = WindowPolicy.count(window_size)
    rolling_s, rolling_finish_s, rolling_flush_ms, rolling_report = bench_streaming(
        ops, k, mode="rolling", window=window
    )
    check_parity("rolling streaming", rolling_report.results, expected)
    peek_s, peek_finish_s, peek_flush_ms, peek_report = bench_streaming(
        ops, k, mode="rolling", window=window, check_per_window=False
    )
    check_parity("peek streaming", peek_report.results, expected)
    windowed_s, _, windowed_flush_ms, _ = bench_streaming(
        ops, k, mode="windowed", window=window
    )
    growing = {
        str(size): bench_growing_checks(size, seed, repeat) for size in GROWING_SIZES
    }

    rows = [
        ["batch engine (serial)", f"{batch_s:.3f}", "-", "-", "-"],
        [
            "per-op incremental feed",
            f"{feed_total_s:.3f}",
            f"{percentile(feed_costs_us, 0.50):.1f}",
            f"{percentile(feed_costs_us, 0.95):.1f}",
            f"{max(feed_costs_us):.0f}",
        ],
        [
            "streaming rolling (exact windows)",
            f"{rolling_s:.3f}",
            "-",
            "-",
            "-",
        ],
        [
            "streaming rolling (peek windows)",
            f"{peek_s:.3f}",
            "-",
            "-",
            "-",
        ],
        [
            "streaming windowed",
            f"{windowed_s:.3f}",
            "-",
            "-",
            "-",
        ],
    ]
    print("", file=out)
    print(
        format_table(
            ["path", "total (s)", "p50 op (µs)", "p95 op (µs)", "max op (µs)"],
            rows,
        ),
        file=out,
    )
    print("", file=out)
    print(
        format_table(
            ["mode", "windows", "mean close step (ms)", "max close step (ms)",
             "run total per op (µs)"],
            [
                [
                    name,
                    len(flush_ms),
                    f"{statistics.fmean(flush_ms):.2f}",
                    f"{max(flush_ms):.2f}",
                    f"{total_s / len(ops) * 1e6:.1f}",
                ]
                for name, flush_ms, total_s in (
                    ("rolling (exact windows)", rolling_flush_ms, rolling_s),
                    ("rolling (peek windows)", peek_flush_ms, peek_s),
                    ("windowed", windowed_flush_ms, windowed_s),
                )
            ],
        ),
        file=out,
    )
    print("", file=out)
    print(
        format_table(
            [
                f"growing k=2 check (every {GROWING_CHECK_EVERY} ops)",
                "checks",
                "p50 (µs)",
                "first quarter mean (µs)",
                "last quarter mean (µs)",
            ],
            [
                [
                    f"{size}-op register",
                    row["checks"],
                    f"{row['p50_us']:.1f}",
                    f"{row['first_quarter_mean_us']:.1f}",
                    f"{row['last_quarter_mean_us']:.1f}",
                ]
                for size, row in growing.items()
            ],
        ),
        file=out,
    )
    slowdown = feed_total_s / batch_s if batch_s > 0 else float("inf")
    print(
        f"\nincremental total / batch total = {slowdown:.2f}x "
        f"(the price of having verdicts during the stream)",
        file=out,
    )

    record = {
        "config": {
            "registers": num_registers,
            "ops_per_register": ops_per_register,
            "total_ops": len(ops),
            "k": k,
            "window": window_size,
            "seed": seed,
            "repeat": repeat,
        },
        "batch_s": round(batch_s, 6),
        "per_op_feed": {
            "total_s": round(feed_total_s, 6),
            "p50_us": round(percentile(feed_costs_us, 0.50), 2),
            "p95_us": round(percentile(feed_costs_us, 0.95), 2),
            "max_us": round(max(feed_costs_us), 1),
        },
        "rolling": {
            "total_s": round(rolling_s, 6),
            "total_per_op_us": round(rolling_s / len(ops) * 1e6, 3),
            "finish_s": round(rolling_finish_s, 6),
            "windows": len(rolling_flush_ms),
            "mean_flush_ms": round(statistics.fmean(rolling_flush_ms), 4),
            "max_flush_ms": round(max(rolling_flush_ms), 4),
        },
        "rolling_peek": {
            "total_s": round(peek_s, 6),
            "finish_s": round(peek_finish_s, 6),
            "windows": len(peek_flush_ms),
            "mean_flush_ms": round(statistics.fmean(peek_flush_ms), 4),
            "max_flush_ms": round(max(peek_flush_ms), 4),
        },
        "windowed": {
            "total_s": round(windowed_s, 6),
            "windows": len(windowed_flush_ms),
            "mean_flush_ms": round(statistics.fmean(windowed_flush_ms), 4),
            "max_flush_ms": round(max(windowed_flush_ms), 4),
        },
        "growing_check": growing,
    }
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded results in {json_path}", file=out)

    status = 0
    if check:
        failures = []
        peek_slowdown = peek_s / batch_s if batch_s > 0 else float("inf")
        rolling_slowdown = rolling_s / batch_s if batch_s > 0 else float("inf")
        if slowdown > check_max_slowdown:
            failures.append(
                f"per-op incremental feed is {slowdown:.2f}x batch, above the "
                f"allowed {check_max_slowdown:.2f}x"
            )
        if peek_slowdown > check_max_slowdown:
            failures.append(
                f"peek-mode streaming is {peek_slowdown:.2f}x batch, above the "
                f"allowed {check_max_slowdown:.2f}x"
            )
        if rolling_slowdown > ROLLING_MAX_SLOWDOWN:
            failures.append(
                f"rolling streaming with a check per window is "
                f"{rolling_slowdown:.2f}x batch, above the allowed "
                f"{ROLLING_MAX_SLOWDOWN:.2f}x"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            status = 1
        else:
            print(
                f"CHECK OK: field-for-field parity held; per-op feed {slowdown:.2f}x "
                f"and peek streaming {peek_slowdown:.2f}x batch "
                f"(allowed {check_max_slowdown:.2f}x); rolling streaming "
                f"{rolling_slowdown:.2f}x (allowed {ROLLING_MAX_SLOWDOWN:.2f}x)",
                file=out,
            )
    return record, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=64)
    parser.add_argument("--ops", type=int, default=300, help="operations per register")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when online/batch parity breaks or the online "
        "overhead ratios exceed --check-max-slowdown",
    )
    parser.add_argument(
        "--check-max-slowdown",
        type=float,
        default=15.0,
        dest="check_max_slowdown",
        help="largest allowed online-total / batch-total ratio in --check "
        "mode (default 15.0; the recorded baseline is ~3-4x)",
    )
    args = parser.parse_args(argv)
    _, status = run(
        num_registers=args.registers,
        ops_per_register=args.ops,
        k=args.k,
        window_size=args.window,
        repeat=args.repeat,
        seed=args.seed,
        json_path=args.json,
        check=args.check,
        check_max_slowdown=args.check_max_slowdown,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
