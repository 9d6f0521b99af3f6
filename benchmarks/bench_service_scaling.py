"""Audit-service fleet scaling: worker-pool throughput and verdict latency.

The audit service multiplexes every session onto one event loop; with
``--workers N`` its sessions move onto a pool of N processes, each session
whole on one worker.  This benchmark measures what that buys under
a concurrent fleet of sessions:

* **sustained throughput** — an asyncio load generator drives many concurrent
  sessions (hundreds of registers in aggregate) against a server subprocess
  and reports sustained operations/second across the whole fleet;
* **window-verdict latency** — for every closed window, the time from the
  client sending the window-closing operation to the ``window`` verdict frame
  arriving back, reported as p50/p99 milliseconds;
* **scaling efficiency** — throughput at 1/2/4 workers relative to the
  single-process server (``workers = 0``), i.e. how much of the ideal N-times
  speedup session placement and IPC actually deliver;
* **closing-``afeed`` cost** — in this process, uncontended, one session at
  a time: the median time of the ``afeed`` call that closes a session's
  one 64-op window, for a pooled session (one worker) against an
  in-process one.  The difference is what a window's round trip to a
  worker costs on top of the check itself.

One session per run streams with ``witness=True`` and its final report is
compared against a local batch verification — reason- and witness-exact — so
the benchmark doubles as an end-to-end parity test for the pooled path.

The server runs as a **separate process** (spawned via ``repro serve``), so
load generation never shares a Python interpreter — or a GIL — with the
event loop being measured.

Each configuration runs the fleet three times, each against a fresh server
and taking turns with the other configurations, and reports the median
run's throughput and the latency percentiles of all three.

``--check`` turns the run into a regression gate: parity must hold (always
asserted), a 1-worker pool must keep at least ``--check-min-pool-ratio`` of
the single-process throughput (the IPC overhead bound), and — **only when the
machine has enough cores to make the comparison meaningful** — the 2-worker
speedup must reach ``--check-min-speedup2`` (4-worker: ``--check-min-speedup4``).
Core-gated checks report SKIPPED instead of failing on small machines; the
recorded baseline carries ``cpu_count`` so numbers are never compared across
incomparable hardware.  The committed baseline lives in
``benchmarks/results/bench_service_scaling.json``.

Run with::

    PYTHONPATH=src python benchmarks/bench_service_scaling.py
        [--sessions N] [--registers N] [--ops N] [--window W]
        [--workers 0,1,2,4] [--json PATH] [--check]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.analysis.report import format_table
from repro.core.api import verify_trace
from repro.service.client import AuditClient
from repro.service.pool import PooledAuditSession, WorkerPool
from repro.service.session import AuditSession, SessionConfig
from repro.workloads.synthetic import synthetic_trace

_SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def make_fleet(seed, sessions, registers, ops_per_register):
    """One synthetic trace + completion-ordered stream per session."""
    fleet = []
    for index in range(sessions):
        rng = random.Random(seed + index)
        trace = synthetic_trace(
            rng,
            registers,
            ops_per_register,
            staleness_probability=0.05,
            max_staleness=1,
        )
        stream = sorted(
            (op for key in trace.keys() for op in trace[key].operations),
            key=lambda op: (op.finish, op.op_id),
        )
        fleet.append((trace, stream))
    return fleet


class ServerProcess:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, workers, algorithm="lbt"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC_DIR), env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", str(workers),
                "--algorithm", algorithm,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            rest = self.proc.stdout.read()
            self.proc.kill()
            raise RuntimeError(f"server failed to start: {banner!r} {rest!r}")
        self.address = banner.strip().rsplit(" ", 1)[-1]

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


async def drive_session(address, index, stream, window_size, latencies,
                        witness=False):
    """Stream one session; returns its RemoteReport.

    Window-verdict latency: the send timestamp of every window-closing
    operation (each ``window_size``-th) is recorded, and the matching
    ``window`` frame's arrival completes the sample.
    """
    sent_at = {}

    def on_window(frame):
        t_sent = sent_at.pop(frame["index"], None)
        if t_sent is not None:
            latencies.append((time.perf_counter() - t_sent) * 1e3)

    client = await AuditClient.connect(
        address, session=f"bench-{index}", k=2, algorithm="lbt",
        window=window_size, witness=witness, on_window=on_window,
    )
    for position, op in enumerate(stream, start=1):
        if position % window_size == 0:
            sent_at[position // window_size - 1] = time.perf_counter()
        await client.feed(op)
    return await client.finish()


async def run_fleet(address, fleet, window_size, *, witness_session=None):
    latencies = []
    t0 = time.perf_counter()
    reports = await asyncio.gather(
        *(
            drive_session(
                address, index, stream, window_size, latencies,
                witness=(index == witness_session),
            )
            for index, (_trace, stream) in enumerate(fleet)
        )
    )
    elapsed = time.perf_counter() - t0
    return reports, elapsed, latencies


#: Closing-``afeed`` probe: sessions of this many registers x ops per
#: register, i.e. one window of ``AFEED_REGISTERS * AFEED_OPS`` operations.
AFEED_SESSIONS, AFEED_REGISTERS, AFEED_OPS = 40, 8, 8


async def closing_afeed_ms(fleet, pool=None):
    """Median ms of the ``afeed`` that closes each session's only window,
    feeding one session at a time (pooled when ``pool`` is given)."""
    samples = []
    for index, (_trace, stream) in enumerate(fleet):
        config = SessionConfig(k=2, window_size=len(stream))
        session = (AuditSession.start(f"afeed-{index}", config) if pool is None
                   else PooledAuditSession.start(f"afeed-{index}", config, pool))
        for op in stream[:-1]:
            await session.afeed(op)
        t0 = time.perf_counter()
        report = await session.afeed(stream[-1])
        samples.append((time.perf_counter() - t0) * 1e3)
        assert report is not None, "the last operation must close the window"
        await session.afinish()
    return percentile(samples, 0.50)


async def bench_closing_afeed(seed):
    fleet = make_fleet(seed, AFEED_SESSIONS, AFEED_REGISTERS, AFEED_OPS)
    in_process = await closing_afeed_ms(fleet)
    pool = WorkerPool(1)
    await pool.start()
    try:
        pooled = await closing_afeed_ms(fleet, pool)
    finally:
        await pool.stop()
    return {
        "sessions": AFEED_SESSIONS,
        "window_ops": AFEED_REGISTERS * AFEED_OPS,
        "in_process_p50_ms": round(in_process, 3),
        "pooled_p50_ms": round(pooled, 3),
    }


def result_signature(result, witness=True):
    order = None
    if witness and result.witness is not None:
        order = tuple(
            (op.op_type.value, op.value, op.start, op.finish)
            for op in result.witness
        )
    return (bool(result), result.k, result.algorithm, result.reason, order)


def check_parity(report, trace):
    expected = verify_trace(trace, 2, algorithm="lbt")
    assert set(report.results) == set(expected), "register sets diverge"
    for key, want in expected.items():
        got = report.results[key]
        assert result_signature(got) == result_signature(want), (
            f"pooled verdict for register {key!r} diverges from batch"
        )


#: Fleet runs per arm; an arm's throughput is the median run's.  One run
#: takes ~0.2 s, too short for a single sample to gate on.
FLEET_RUNS = 3


def fleet_run(workers, fleet, window_size, *, parity=False):
    """One fleet run against a fresh server: ``(ops, elapsed_s, latencies)``."""
    server = ServerProcess(workers)
    try:
        witness_session = 0 if parity else None
        reports, elapsed, latencies = asyncio.run(
            run_fleet(
                server.address, fleet, window_size,
                witness_session=witness_session,
            )
        )
    finally:
        server.stop()
    if parity:
        check_parity(reports[0], fleet[0][0])
    return sum(report.ops for report in reports), elapsed, latencies


def bench_config(workers, fleet, runs):
    """One arm from its fleet runs: the median run's throughput, and the
    latency percentiles over every run's windows."""
    ops, elapsed, _ = sorted(runs, key=lambda run: run[0] / run[1])[len(runs) // 2]
    latencies = [sample for run in runs for sample in run[2]]
    return {
        "workers": workers,
        "sessions": len(fleet),
        "ops": ops,
        "runs": len(runs),
        "elapsed_s": round(elapsed, 4),
        "ops_per_s": round(ops / elapsed, 1),
        "window_latency_p50_ms": round(percentile(latencies, 0.50), 3),
        "window_latency_p99_ms": round(percentile(latencies, 0.99), 3),
        "windows_sampled": len(latencies),
    }


def run(sessions=8, registers=4, ops_per_register=150, window_size=32,
        worker_counts=(0, 1, 2, 4), seed=0, json_path=None, check=False,
        check_min_pool_ratio=0.5, check_min_speedup2=1.6,
        check_min_speedup4=3.0, out=sys.stdout):
    cpu_count = os.cpu_count() or 1
    fleet = make_fleet(seed, sessions, registers, ops_per_register)
    total_ops = sum(len(stream) for _trace, stream in fleet)
    print(
        f"service-scaling benchmark: {sessions} concurrent sessions, "
        f"{registers} registers x {ops_per_register} ops each "
        f"({total_ops} ops total), window=count({window_size}), "
        f"{cpu_count} cpus",
        file=out,
    )

    # The arms take turns, so drift in the host's speed reaches each alike.
    runs = {workers: [] for workers in worker_counts}
    for _ in range(FLEET_RUNS):
        for workers in worker_counts:
            # Parity is checked on the largest pool: the config where placement
            # and the parent/worker split matter most.
            parity = workers == max(worker_counts)
            runs[workers].append(fleet_run(workers, fleet, window_size, parity=parity))
    results = []
    for workers in worker_counts:
        results.append(bench_config(workers, fleet, runs[workers]))
        label = "in-process" if workers == 0 else f"{workers} workers"
        print(f"  measured {label}: {results[-1]['ops_per_s']:,.0f} ops/s", file=out)

    base = next((r for r in results if r["workers"] == 0), results[0])
    for record in results:
        record["speedup"] = round(record["ops_per_s"] / base["ops_per_s"], 3)
        record["efficiency"] = (
            round(record["speedup"] / record["workers"], 3)
            if record["workers"] else 1.0
        )

    print("", file=out)
    print(
        format_table(
            ["config", "ops/s", "speedup", "efficiency",
             "p50 window (ms)", "p99 window (ms)"],
            [
                [
                    "in-process" if r["workers"] == 0 else f"{r['workers']} workers",
                    f"{r['ops_per_s']:,.0f}",
                    f"{r['speedup']:.2f}x",
                    f"{r['efficiency']:.2f}",
                    f"{r['window_latency_p50_ms']:.2f}",
                    f"{r['window_latency_p99_ms']:.2f}",
                ]
                for r in results
            ],
        ),
        file=out,
    )
    print("\nverdict parity (reasons and witnesses) held on the largest pool", file=out)
    afeed = asyncio.run(bench_closing_afeed(seed))
    print(
        f"closing afeed, one {afeed['window_ops']}-op window per session, "
        f"median of {afeed['sessions']}: pooled {afeed['pooled_p50_ms']:.2f} ms, "
        f"in-process {afeed['in_process_p50_ms']:.2f} ms",
        file=out,
    )

    record = {
        "config": {
            "sessions": sessions,
            "registers_per_session": registers,
            "ops_per_register": ops_per_register,
            "total_ops": total_ops,
            "window": window_size,
            "seed": seed,
            "worker_counts": list(worker_counts),
        },
        "cpu_count": cpu_count,
        "results": results,
        "closing_afeed": afeed,
    }
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded results in {json_path}", file=out)

    status = 0
    if check:
        failures = []
        skipped = []
        by_workers = {r["workers"]: r for r in results}
        pool1 = by_workers.get(1)
        if pool1 is not None:
            ratio = pool1["ops_per_s"] / base["ops_per_s"]
            if ratio < check_min_pool_ratio:
                failures.append(
                    f"1-worker pool keeps only {ratio:.2f}x of single-process "
                    f"throughput (IPC overhead bound is {check_min_pool_ratio:.2f}x)"
                )
        # Scaling gates only make sense with cores for the workers *plus*
        # the server loop and the load generator; on smaller machines the
        # processes time-slice one core and "speedup" measures the scheduler.
        for workers, minimum, needed in (
            (2, check_min_speedup2, 4),
            (4, check_min_speedup4, 6),
        ):
            entry = by_workers.get(workers)
            if entry is None:
                continue
            if cpu_count < needed:
                skipped.append(
                    f"{workers}-worker speedup gate (needs >= {needed} cpus, "
                    f"have {cpu_count})"
                )
                continue
            if entry["speedup"] < minimum:
                failures.append(
                    f"{workers}-worker speedup is {entry['speedup']:.2f}x, "
                    f"below the required {minimum:.2f}x"
                )
        print("", file=out)
        for entry in skipped:
            print(f"CHECK SKIPPED: {entry}", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            status = 1
        else:
            print(
                "CHECK OK: pooled/batch verdict parity held"
                + (
                    f"; 1-worker pool keeps {pool1['ops_per_s'] / base['ops_per_s']:.2f}x "
                    f"of single-process throughput"
                    if pool1 is not None
                    else ""
                ),
                file=out,
            )
    return record, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=8,
                        help="concurrent audit sessions in the fleet")
    parser.add_argument("--registers", type=int, default=4,
                        help="registers per session")
    parser.add_argument("--ops", type=int, default=150,
                        help="operations per register per session")
    parser.add_argument("--window", type=int, default=32)
    parser.add_argument(
        "--workers", default="0,1,2,4",
        help="comma-separated worker counts to measure (0 = in-process)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="record results to this JSON path")
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on parity breaks, pool-overhead regressions, or "
        "(given enough cpus) insufficient multi-worker speedup",
    )
    parser.add_argument("--check-min-pool-ratio", type=float, default=0.5,
                        dest="check_min_pool_ratio")
    parser.add_argument("--check-min-speedup2", type=float, default=1.6,
                        dest="check_min_speedup2")
    parser.add_argument("--check-min-speedup4", type=float, default=3.0,
                        dest="check_min_speedup4")
    args = parser.parse_args(argv)
    worker_counts = tuple(int(part) for part in args.workers.split(","))
    _, status = run(
        sessions=args.sessions,
        registers=args.registers,
        ops_per_register=args.ops,
        window_size=args.window,
        worker_counts=worker_counts,
        seed=args.seed,
        json_path=args.json,
        check=args.check,
        check_min_pool_ratio=args.check_min_pool_ratio,
        check_min_speedup2=args.check_min_speedup2,
        check_min_speedup4=args.check_min_speedup4,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
