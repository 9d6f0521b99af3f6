"""Adaptive tiered streaming: wall-clock, bypassed checks, and parity.

A tier policy (:mod:`repro.engine.tiering`) lets a rolling
:class:`StreamingEngine` answer a (register, window) with the checker's O(1)
peek and escalates to the authoritative check only where trigger features —
anomalous reads, value lag >= k, a latched alarm, overlap density under
``auto`` — say a NO is possible.  This benchmark measures both sides of that
bargain on a clean and a stale workload arm: the wall-clock of an untiered
(``exact``) and each tiered rolling pass, the register-windows that rode the
peek instead of the check (``register_windows_bypassed`` — the "no silent
caps" counter), and a verdict+reason digest of the final results.

Every pass streams a freshly generated trace (same seed, new objects), so no
pass runs on histories whose caches an earlier pass warmed.  Batch audits
have no tier: on complete traces the exact checker was never beaten
(``docs/performance.md``).

Run with::

    PYTHONPATH=src python benchmarks/bench_tiering.py [--registers 12]
        [--ops 400] [--window 32] [--repeat 1] [--json PATH] [--check]

``--check`` fails when a tiered digest diverges from the untiered stream's,
when a register the untiered stream fails never had a ``check`` window, or
when the clean arm's ``auto`` pass never bypassed a register-window.  CI runs
a reduced size.
"""

from __future__ import annotations

import argparse
import hashlib
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

from repro.core.windows import WindowPolicy
from repro.engine import StreamingEngine
from repro.workloads.synthetic import synthetic_trace

SEED = 0xC0FFEE
K = 2
TIERS = ("exact", "screen", "auto")

#: The two workload arms: screening heaven and escalation purgatory.
ARMS = {
    "clean": (SEED, dict(staleness_probability=0.0)),
    "stale": (SEED + 1, dict(staleness_probability=0.15, max_staleness=2)),
}


def fresh_stream(arm, registers, ops_per_register):
    """A newly generated trace of ``arm``, in completion order."""
    seed, knobs = ARMS[arm]
    trace = synthetic_trace(random.Random(seed), registers, ops_per_register, **knobs)
    return sorted(
        (op for key in trace.keys() for op in trace[key].operations),
        key=lambda op: (op.finish, op.op_id),
    )


def verdict_digest(report):
    """Order-independent digest of every (key, verdict, NO reason) triple."""
    parts = []
    for key in sorted(report.results, key=repr):
        result = report.results[key]
        reason = result.reason if not result else ""
        parts.append(f"{key!r}={bool(result)}:{reason}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def bench_arm(arm, registers, ops_per_register, window, repeat, out):
    record = {}
    for tier in TIERS:
        walls = []
        for _ in range(repeat):
            ops = fresh_stream(arm, registers, ops_per_register)
            engine = StreamingEngine(window=WindowPolicy.count(window), tier=tier)
            t0 = time.perf_counter()
            report = engine.verify_stream(ops, K)
            walls.append(time.perf_counter() - t0)
        # Untiered windows always check; tiered ones record their route.
        checked = {
            key for w in report.timeline for key, mode in w.tiers.items() if mode == "check"
        }
        rec = {
            "elapsed_s": round(statistics.median(walls), 4),
            "digest": verdict_digest(report),
            "register_windows_bypassed": report.register_windows_bypassed,
            "windows_bypassed_exact": report.windows_bypassed_exact,
            "escalated_checks": report.escalated_checks,
            "unchecked_nos": sorted(
                repr(key)
                for key, r in report.results.items()
                if not r and tier != "exact" and key not in checked
            ),
        }
        record[tier] = rec
        print(
            f"    {tier:8s} {rec['elapsed_s']:7.4f}s  bypassed "
            f"{rec['register_windows_bypassed']:5d} register-windows, "
            f"{rec['escalated_checks']:5d} escalations  digest {rec['digest']}",
            file=out,
        )
    return record


def run(registers, ops_per_register, window, repeat, json_path, check, out=sys.stdout):
    print(
        f"tiering benchmark (rolling stream): {registers} registers x "
        f"{ops_per_register} ops, k={K}, window={window}, median of {repeat}",
        file=out,
    )
    record = {
        "config": {
            "registers": registers, "ops_per_register": ops_per_register,
            "k": K, "window": window, "repeat": repeat,
        },
        "arms": {},
    }
    for arm in ARMS:
        print(f"  {arm} arm:", file=out)
        record["arms"][arm] = bench_arm(arm, registers, ops_per_register, window, repeat, out)

    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nrecorded results in {json_path}", file=out)

    if check:
        failures = []
        for arm, tiers in record["arms"].items():
            expected = tiers["exact"]["digest"]
            for tier, rec in tiers.items():
                if rec["digest"] != expected:
                    failures.append(
                        f"{arm}/tier={tier}: verdict digest {rec['digest']} != "
                        f"untiered {expected} — the screen changed a final "
                        "verdict or a NO reason"
                    )
                if rec["unchecked_nos"]:
                    failures.append(
                        f"{arm}/tier={tier}: NO registers never checked: "
                        + ", ".join(rec["unchecked_nos"])
                    )
        # Whole-window bypasses need every register of a window to peek at
        # once, which dense multi-register windows rarely line up; the
        # per-register counter is the inertness gate.
        bypassed = record["arms"]["clean"]["auto"]["register_windows_bypassed"]
        if bypassed == 0:
            failures.append(
                "clean arm never bypassed a register-window under auto — "
                "tiering is inert in the stream path"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            return record, 1
        print(
            f"CHECK OK: every tiered digest matches the untiered stream, every "
            f"NO register was checked, {bypassed} clean register-windows "
            "bypassed under auto",
            file=out,
        )
    return record, 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registers", type=int, default=12)
    parser.add_argument("--ops", type=int, default=400,
                        help="operations per register")
    parser.add_argument("--window", type=int, default=32,
                        help="streaming window size (count policy)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed passes per tier and arm; the median is kept")
    parser.add_argument("--json", default=None,
                        help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on digest divergence, an unchecked NO register, "
        "or an inert clean-arm tier",
    )
    args = parser.parse_args(argv)
    _, status = run(
        registers=args.registers,
        ops_per_register=args.ops,
        window=args.window,
        repeat=args.repeat,
        json_path=args.json,
        check=args.check,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
