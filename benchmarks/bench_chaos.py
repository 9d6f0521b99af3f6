"""Resilience benchmark: audit-stream cost and recovery under injected faults.

The chaos layer's headline invariant is qualitative — under any fault
schedule the completed verdict stream matches the fault-free run.  This
benchmark quantifies what the recovery costs:

* **chaos overhead** — wall-clock of a :class:`ResilientAuditClient`
  streaming one trace through a :class:`ChaosProxy` at increasing fault
  rates, relative to the fault-free baseline over the same trace;
* **recovery effort** — reconnects, retries, replayed operations, and
  injected-fault counts per rate;
* **parity gate** (always asserted) — final per-register results and the
  deduplicated window-frame stream must match the baseline structurally,
  witnesses included, at every fault rate.

Fault schedules derive from ``--seed``, so a failing run reproduces exactly.

Run with::

    PYTHONPATH=src python benchmarks/bench_chaos.py
        [--ops N] [--rates 0,0.01,0.05] [--seed S] [--tier auto]
        [--json PATH] [--check]

``--tier`` runs every session — baseline and chaotic alike — under an
adaptive verification tier, so the parity gate also proves the tiered
window stream deduplicates identically under faults.
"""

from __future__ import annotations

import argparse
import asyncio
import json
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
from repro.chaos import FaultPlan
from repro.service import (
    AuditClient,
    AuditServer,
    ChaosProxy,
    ResilientAuditClient,
    RetryPolicy,
)
from repro.workloads.synthetic import practical_history


def result_signature(result):
    """Structural identity of one verdict (op ids are connection-local)."""
    return (
        bool(result),
        result.k,
        result.algorithm,
        result.reason,
        tuple(
            (op.op_type.value, op.value, op.start, op.finish)
            for op in (result.witness or ())
        ),
    )


def window_signature(frame):
    return {k: v for k, v in frame.items() if k != "session"}


def fault_plan(seed: int, rate: float) -> FaultPlan:
    """Drops, corruption, delay and duplication, all scaled by one rate."""
    return (
        FaultPlan(name=f"bench-rate-{rate}", seed=seed)
        .add("frame_drop", probability=rate)
        .add("frame_corrupt", probability=rate / 2)
        .add("frame_delay", probability=min(1.0, rate * 4), delay_ms=1)
        .add("frame_duplicate", probability=rate)
    )


async def baseline_run(ops, tmp_dir, tier=None):
    server = AuditServer(port=0, checkpoint_dir=tmp_dir / "baseline")
    await server.start()
    try:
        windows = []
        t0 = time.perf_counter()
        client = await AuditClient.connect(
            server.addresses[0], session="baseline", k=2, window=50,
            witness=True, tier=tier, on_window=windows.append,
        )
        await client.feed_ops(ops)
        report = await client.finish()
        return report, windows, time.perf_counter() - t0
    finally:
        await server.stop()


async def chaos_run(ops, plan, tmp_dir, tier=None):
    server = AuditServer(port=0, checkpoint_dir=tmp_dir / plan.name)
    await server.start()
    try:
        async with ChaosProxy(server.addresses[0], plan) as proxy:
            t0 = time.perf_counter()
            client = ResilientAuditClient(
                proxy.address, session="chaotic", k=2, window=50,
                witness=True, tier=tier, seed=plan.seed, checkpoint_every=25,
                policy=RetryPolicy(
                    max_attempts=12, base_delay_s=0.02, io_timeout_s=10.0
                ),
            )
            await client.feed_ops(ops)
            report = await client.finish()
            elapsed = time.perf_counter() - t0
            return report, client, dict(proxy.counts), elapsed
    finally:
        await server.stop()


def assert_parity(base_report, base_windows, report, windows, rate):
    base_sig = {k: result_signature(v) for k, v in base_report.results.items()}
    sig = {k: result_signature(v) for k, v in report.results.items()}
    assert sig == base_sig, f"verdict stream diverged at fault rate {rate}"
    assert [window_signature(w) for w in windows] == [
        window_signature(w) for w in base_windows
    ], f"window stream diverged at fault rate {rate}"


def run_bench(args, tmp_dir):
    ops = practical_history(
        random.Random(args.seed), args.ops, num_clients=8
    ).operations
    base_report, base_windows, base_elapsed = asyncio.run(
        baseline_run(ops, tmp_dir, args.tier)
    )
    rows = [
        {
            "rate": 0.0,
            "elapsed_s": base_elapsed,
            "ops_per_s": len(ops) / base_elapsed,
            "overhead": 1.0,
            "reconnects": 0,
            "retries": 0,
            "faults": 0,
        }
    ]
    for rate in args.rates:
        if rate <= 0:
            continue
        plan = fault_plan(args.seed, rate)
        report, client, counts, elapsed = asyncio.run(
            chaos_run(ops, plan, tmp_dir, args.tier)
        )
        assert_parity(base_report, base_windows, report, client.windows, rate)
        rows.append(
            {
                "rate": rate,
                "elapsed_s": elapsed,
                "ops_per_s": len(ops) / elapsed,
                "overhead": elapsed / base_elapsed,
                "reconnects": client.reconnects,
                "retries": client.retries,
                "faults": sum(counts.values()),
            }
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=1500)
    parser.add_argument(
        "--rates",
        type=lambda s: [float(x) for x in s.split(",")],
        default=[0.005, 0.02],
        help="comma-separated frame-fault rates to sweep",
    )
    parser.add_argument("--seed", type=int, default=0xC0FFEE)
    parser.add_argument(
        "--tier",
        choices=("exact", "screen", "auto"),
        default=None,
        help="run every session (baseline and chaotic alike) under this "
        "adaptive verification tier — parity then also covers the tiered "
        "window stream under faults",
    )
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: parity (always on) plus a recovery bound — "
        "the highest swept rate must still complete within --check-max-overhead",
    )
    parser.add_argument("--check-max-overhead", type=float, default=50.0)
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        rows = run_bench(args, Path(tmp))

    print(f"bench_chaos: {args.ops} ops, seed {args.seed}")
    print(
        format_table(
            ["rate", "elapsed_s", "ops_per_s", "overhead",
             "reconnects", "retries", "faults"],
            [
                [
                    f"{row['rate']:g}",
                    f"{row['elapsed_s']:.3f}",
                    f"{row['ops_per_s']:.0f}",
                    f"{row['overhead']:.2f}x",
                    row["reconnects"],
                    row["retries"],
                    row["faults"],
                ]
                for row in rows
            ],
        )
    )
    print("parity: OK at every rate (witnesses included)")

    if args.json:
        args.json.write_text(
            json.dumps({"ops": args.ops, "seed": args.seed, "rows": rows}, indent=2)
        )
        print(f"wrote {args.json}")

    if args.check:
        worst = max(rows, key=lambda row: row["rate"])
        if worst["overhead"] > args.check_max_overhead:
            print(
                f"CHECK FAILED: overhead {worst['overhead']:.1f}x at rate "
                f"{worst['rate']:g} exceeds {args.check_max_overhead:.1f}x"
            )
            return 1
        print(
            f"check: OK (overhead {worst['overhead']:.1f}x at rate "
            f"{worst['rate']:g} within {args.check_max_overhead:.1f}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
