"""Engine scaling: sharded parallel verification vs the serial baseline.

The locality theorem (Section II-B) makes per-register verification
embarrassingly parallel; this benchmark measures how much of that parallelism
the engine actually harvests.  On a synthetic many-register trace (>= 64
registers by default) it times:

* the seed-style serial baseline (one ``verify`` call per register, in order),
* ``Engine(executor="serial")`` — measures engine overhead (should be ~1x),
* ``Engine(executor="processes")`` — the multi-core path, swept over worker
  counts.

All verdicts are cross-checked against the baseline, so the benchmark doubles
as a parity test.  The process executor's speedup scales with the CPUs the
host actually grants (on a single-core box it can only break even minus
IPC overhead, and the report says so instead of pretending otherwise).

Run with::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py [--registers N]
        [--ops N] [--jobs a,b,c] [--skew S] [--repeat R]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.analysis.report import format_table
from repro.core.api import verify
from repro.engine import Engine, default_jobs
from repro.workloads.synthetic import synthetic_trace


def serial_baseline(trace, k):
    """The seed-style loop: verify each register in trace order."""
    return {key: verify(trace[key], k) for key in trace.keys()}


def timed(fn, repeat):
    """Run ``fn`` ``repeat`` times; return (best seconds, last result)."""
    best, result = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(num_registers=64, ops_per_register=600, k=2, jobs_sweep=None, skew=1.0, repeat=3):
    cpus = default_jobs()
    if jobs_sweep is None:
        jobs_sweep = sorted({2, max(2, cpus // 2), cpus} - {1})
    rng = random.Random(20130708)  # ICDCS'13 publication date as the seed
    print(
        f"building synthetic trace: {num_registers} registers x ~{ops_per_register} ops "
        f"(size skew {skew}), k={k}, {cpus} usable CPU(s)"
    )
    trace = synthetic_trace(
        rng, num_registers, ops_per_register, staleness_probability=0.08, size_skew=skew
    )
    total_ops = trace.total_operations()
    print(f"trace ready: {total_ops} operations\n")

    base_s, base_results = timed(lambda: serial_baseline(trace, k), repeat)
    base_verdicts = {key: bool(r) for key, r in base_results.items()}

    rows = [["baseline (seed loop)", 1, f"{base_s:.3f}", "1.00x", f"{total_ops / base_s:,.0f}"]]
    process_speedups = {}

    def bench(label, engine, jobs):
        elapsed, report = timed(lambda: engine.verify_trace(trace, k), repeat)
        if report.verdicts() != base_verdicts:
            raise AssertionError(f"{label}: verdicts diverge from the serial baseline")
        rows.append(
            [label, jobs, f"{elapsed:.3f}", f"{base_s / elapsed:.2f}x", f"{total_ops / elapsed:,.0f}"]
        )
        return base_s / elapsed

    bench("engine serial", Engine(executor="serial"), 1)
    for jobs in jobs_sweep:
        process_speedups[jobs] = bench(
            f"engine processes", Engine(executor="processes", jobs=jobs), jobs
        )

    print(format_table(["configuration", "jobs", "best s", "speedup", "ops/s"], rows))
    best_jobs, best_speedup = max(process_speedups.items(), key=lambda kv: kv[1])
    print(
        f"\nbest process-executor speedup: {best_speedup:.2f}x at jobs={best_jobs} "
        f"({cpus} usable CPU(s))"
    )
    if cpus > 1 and best_speedup <= 1.0:
        print("WARNING: multiple CPUs available but no speedup — investigate.")
        return 1
    if cpus == 1:
        print(
            "note: single-CPU host — process workers serialise on one core, so the "
            "achievable speedup is capped at ~1x; run on a multi-core host to see scaling."
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=64)
    parser.add_argument("--ops", type=int, default=600, help="operations per register (approx)")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--jobs", default=None, help="comma-separated worker counts to sweep")
    parser.add_argument("--skew", type=float, default=1.0, help="register size skew")
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions (best-of)")
    args = parser.parse_args(argv)
    sweep = [int(j) for j in args.jobs.split(",")] if args.jobs else None
    return run(
        num_registers=args.registers,
        ops_per_register=args.ops,
        k=args.k,
        jobs_sweep=sweep,
        skew=args.skew,
        repeat=args.repeat,
    )


if __name__ == "__main__":
    sys.exit(main())
