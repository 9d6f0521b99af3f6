"""Out-of-core verification: memory-mapped ``.rcol`` vs in-memory columns.

The ``.rcol`` backend exists so traces larger than RAM can be verified
without ever materialising them: the engine partitions registers by the
footer index alone, each shard memory-maps the file independently, builds
columns as zero-copy views and verifies with the vectorized kernels,
leaving YES witnesses undecoded.  This benchmark measures what that buys on
a multi-million-operation trace:

* **generate** — stream a synthetic sequential (1-atomic) trace straight to
  disk through :class:`repro.io.rcol.RcolWriter`, chunk by chunk, so the
  generator itself never holds more than one column chunk;
* **memmap arm** — ``Engine().verify_file(path, k)`` with one register per
  shard: every shard maps, verifies and unmaps its registers in turn, so
  peak RSS is bounded by the largest register, not the trace;
* **in-memory arm** — the counterfactual: copy every register's columns off
  the memmap into RAM (and decode every value table) first, then verify the
  same kernels over the resident arrays.

Each arm runs in its own subprocess and reports wall time, throughput and
``ru_maxrss`` so the peak-RSS comparison is honest — the arms share nothing,
not even numpy's allocator state.

Run with::

    PYTHONPATH=src python benchmarks/bench_outofcore.py [--registers 16]
        [--ops 640000] [--k 1] [--json PATH] [--check]

The default 16x640000 trace is ~10.2M operations.  ``--check`` fails when
either arm returns a wrong verdict, or (at >= 1M operations) when the
memmap arm's peak RSS is not under ``--check-max-rss-frac`` of the
in-memory arm's.  CI runs a reduced size as a smoke test.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__" and __package__ is None:
    # Allow running as a plain script without an installed package.
    _src = Path(__file__).resolve().parents[1] / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.core import vector

CHUNK_ROWS = 262_144
WRITE_EVERY = 8


def write_synthetic_rcol(path, num_registers, ops_per_register, seed):
    """Stream a sequential 1-atomic multi-register trace to ``path``.

    Each register is a non-overlapping sequence of operations where every
    ``WRITE_EVERY``-th operation (starting with the first) is a write and
    every read returns the latest written value — trivially k-atomic for
    every k, so both arms must answer YES everywhere.
    """
    import numpy as np

    from repro.io.rcol import RcolWriter

    rng = np.random.default_rng(seed)
    with RcolWriter(path) as writer:
        for r in range(num_registers):
            n = ops_per_register
            writer.begin_register(f"reg{r:03d}")
            idx = np.arange(n, dtype=np.int64)
            is_write = (idx % WRITE_EVERY == 0).astype(np.uint8)
            value_id = (np.cumsum(is_write) - 1).astype(np.int32)
            writer.add_values(range(int(value_id[-1]) + 1))
            start = idx.astype(np.float64)
            finish = start + rng.uniform(0.3, 0.9, size=n)
            for lo in range(0, n, CHUNK_ROWS):
                hi = min(lo + CHUNK_ROWS, n)
                writer.append_chunk(
                    start[lo:hi], finish[lo:hi], is_write[lo:hi], value_id[lo:hi]
                )
            writer.end_register()
    return num_registers * ops_per_register


# ----------------------------------------------------------------------
# Subprocess arms (invoked via --arm; print a JSON record on stdout)
# ----------------------------------------------------------------------
def arm_memmap(path, k, num_registers):
    """Lazy engine pass: one register per shard, witnesses undecoded."""
    from repro.engine import Engine

    engine = Engine(shards_per_job=max(2, num_registers))
    t0 = time.perf_counter()
    report = engine.verify_file(path, k)
    elapsed = time.perf_counter() - t0
    return elapsed, all(bool(res) for res in report.results.values())


def arm_inmemory(path, k, num_registers):
    """Counterfactual: materialise every register in RAM, then verify."""
    import numpy as np

    from repro.io.rcol import RcolFile

    t0 = time.perf_counter()
    cols = []
    with RcolFile(path) as rf:
        for key in rf.keys():
            lazy = rf.load_columnar(key)
            cols.append(
                vector.columnar_from_numpy(
                    key=lazy.key,
                    start=np.array(lazy.start),
                    finish=np.array(lazy.finish),
                    is_write=np.array(lazy.is_write),
                    value_id=np.array(lazy.value_id),
                    values=list(lazy.values),
                    op_ids=np.array(lazy.op_ids),
                    weights=np.array(lazy.weights),
                    has_key=bool(lazy.n == 0 or lazy.has_key[0]),
                )
            )
    ok = True
    for col in cols:
        res = vector.verify_columnar(
            col, k, preprocess=False, decode_witness=False
        )
        ok = ok and bool(res)
    return time.perf_counter() - t0, ok


def run_arm(arm, path, k, num_registers):
    elapsed, ok = (arm_memmap if arm == "memmap" else arm_inmemory)(
        path, k, num_registers
    )
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"elapsed_s": elapsed, "ok": ok, "peak_rss_kb": int(peak_kb)}


def spawn_arm(arm, path, k, num_registers):
    """Run one arm in a fresh interpreter; return its JSON record."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--arm",
            arm,
            "--trace",
            str(path),
            "--k",
            str(k),
            "--registers",
            str(num_registers),
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{arm} arm failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run(num_registers, ops_per_register, k, seed, json_path, check,
        check_max_rss_frac, trace_path=None, out=sys.stdout):
    total = num_registers * ops_per_register
    with tempfile.TemporaryDirectory() as tmp:
        if trace_path is None:
            path = Path(tmp) / "trace.rcol"
            t0 = time.perf_counter()
            write_synthetic_rcol(path, num_registers, ops_per_register, seed)
            gen_s = time.perf_counter() - t0
        else:
            path = Path(trace_path)
            gen_s = None
        size_mb = path.stat().st_size / 1e6
        gen_part = "" if gen_s is None else f", streamed to disk in {gen_s:.2f}s"
        print(
            f"out-of-core benchmark: {num_registers} registers x "
            f"{ops_per_register} ops = {total} operations, k={k} "
            f"({size_mb:.1f} MB .rcol{gen_part})",
            file=out,
        )
        arms = {}
        for arm in ("memmap", "inmemory"):
            arms[arm] = spawn_arm(arm, path, k, num_registers)

    for arm, rec in arms.items():
        rec["ops_per_s"] = round(total / rec["elapsed_s"]) if rec["elapsed_s"] else None
        print(
            f"  {arm:9s} verify: {rec['elapsed_s']:.3f}s "
            f"({rec['ops_per_s']} ops/s), peak RSS "
            f"{rec['peak_rss_kb'] / 1024:.1f} MB, "
            f"verdicts {'OK' if rec['ok'] else 'WRONG'}",
            file=out,
        )
    rss_frac = arms["memmap"]["peak_rss_kb"] / arms["inmemory"]["peak_rss_kb"]
    print(
        f"  memmap peak RSS is {rss_frac:.2f}x the in-memory arm's",
        file=out,
    )

    record = {
        "config": {
            "registers": num_registers,
            "ops_per_register": ops_per_register,
            "total_ops": total,
            "k": k,
            "seed": seed,
        },
        "trace_mb": round(size_mb, 3),
        "generate_s": None if gen_s is None else round(gen_s, 3),
        "memmap": arms["memmap"],
        "inmemory": arms["inmemory"],
        "rss_fraction": round(rss_frac, 4),
    }
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nrecorded results in {json_path}", file=out)

    if check:
        failures = []
        for arm, rec in arms.items():
            if not rec["ok"]:
                failures.append(f"{arm} arm returned a wrong verdict")
        if total >= 1_000_000 and rss_frac >= check_max_rss_frac:
            failures.append(
                f"memmap peak RSS fraction {rss_frac:.2f} is not under "
                f"{check_max_rss_frac:.2f} of the in-memory arm at "
                f"{total} ops — lazy ingestion is not bounding memory"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            return record, 1
        print(
            f"CHECK OK: verdicts correct in both arms, memmap peak RSS "
            f"{arms['memmap']['peak_rss_kb'] / 1024:.1f} MB "
            f"({rss_frac:.2f}x in-memory)",
            file=out,
        )
    return record, 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=16)
    parser.add_argument(
        "--ops", type=int, default=640_000, help="operations per register"
    )
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default=None, help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on a wrong verdict, or (at >= 1M ops) when the "
        "memmap arm's peak RSS is not under --check-max-rss-frac of the "
        "in-memory arm's",
    )
    parser.add_argument(
        "--check-max-rss-frac",
        type=float,
        default=0.75,
        dest="check_max_rss_frac",
        help="maximum allowed memmap/in-memory peak-RSS fraction (default 0.75)",
    )
    parser.add_argument(
        "--trace", default=None, help="reuse an existing .rcol trace file"
    )
    parser.add_argument("--arm", choices=("memmap", "inmemory"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.arm:
        # Subprocess mode: run one arm and print its JSON record.
        print(json.dumps(run_arm(args.arm, args.trace, args.k, args.registers)))
        return 0
    _, status = run(
        num_registers=args.registers,
        ops_per_register=args.ops,
        k=args.k,
        seed=args.seed,
        json_path=args.json,
        check=args.check,
        check_max_rss_frac=args.check_max_rss_frac,
        trace_path=args.trace,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
