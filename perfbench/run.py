"""One benchmark for the 2-AV verifier: batch audits and served sessions.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-jsonl --seed 1 --seconds 30 --trace 0

Workloads: ``batch-jsonl``, ``batch-rcol``, ``serve-long``, ``serve-short``
(see README.md), or ``all`` to run the four in turn.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs the
same work through each layer's public calls with spans on and reports the
per-layer metrics.  A human-readable report goes
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when any
verdict digest or expected window frame is wrong, or the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("batch-jsonl", "batch-rcol", "serve-long", "serve-short")


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    if args.workload == "all":
        return _run_all(args)
    from perfbench import batch, serve
    from perfbench.common import END_TO_END, PER_LAYER, Context
    from perfbench.inputs import cache_dir, prune
    from perfbench.tracing import write_spans

    ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    if args.workload.startswith("batch-"):
        outcome = batch.run(ctx, args.workload.split("-", 1)[1])
    else:
        outcome = serve.run(ctx, args.workload)
    catalogue = PER_LAYER if ctx.trace else END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({time.perf_counter() - started:.1f} s)")
    print("shape: " + json.dumps(outcome.shape, sort_keys=True))
    for note in outcome.notes:
        print(note)
    width = max(len(name) for name in catalogue)
    for name, unit in catalogue.items():
        print(f"  {name:<{width}}  {outcome.metrics[name]:>14.6g} {unit}")
    if outcome.spans:
        spans_dir = cache_dir(ROOT) / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        out = spans_dir / f"{args.workload}-{args.seed}.jsonl"
        write_spans(out, outcome.spans)
        prune(spans_dir, f"{args.workload}-*.jsonl")
        print(f"{len(outcome.spans)} spans written to {out.relative_to(ROOT)}")
    if not outcome.correct:
        print("VERDICT MISMATCH: a digest, an op count or an expected window frame was wrong",
              file=sys.stderr)

    missing = [name for name in catalogue if not math.isfinite(outcome.metrics[name])]
    result = {
        "correct": outcome.correct and not missing,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in catalogue.items()
            if name not in missing
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process tree)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
