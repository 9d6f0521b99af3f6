"""State-store backends: checkpoint latency and eviction-bounded memory.

The state tier (:mod:`repro.state`) carries three kinds of hot data —
session checkpoints, the worker pool's failover journal, and spilled window
timelines — behind one ``(namespace, key) -> bytes`` interface with three
backends: fsync-ed file-per-key ``json``, WAL-mode ``sqlite``, and
log-structured ``segments``.  This benchmark measures what each costs and
what segment eviction buys:

* **latency section** — per-backend checkpoint ``save`` (durable put:
  fsync / WAL commit / segment append) and ``load`` + session resume,
  over a realistic mid-stream :class:`AuditSession` payload;
* **journal section** — per backend, one session checkpointed every
  ``JOURNAL_EVERY`` ops (a full base, then deltas, folding every
  ``FOLD_EVERY``-th save): the bytes each delta stores against a full
  payload at the same point, and, after every save, a resume from the
  stored base + deltas finished against the uninterrupted run;
* **retention arms** — a long window stream driven through
  :class:`StreamSession` twice in separate subprocesses: *retain-all*
  keeps every closed :class:`WindowReport` in memory (the pre-1.8
  behaviour), *evict* bounds the hot set with
  ``StreamingEngine(state_store=segments, retain_windows=N)``.  Each arm
  reports ``ru_maxrss`` and an incremental verdict digest, so the memory
  comparison is honest and the verdict stream provably identical.

Run with::

    PYTHONPATH=src python benchmarks/bench_statestore.py [--ops 40000]
        [--window 8] [--retain 16] [--saves 50] [--json PATH] [--check]

``--check`` fails when the stored checkpoint bytes differ across backends
(the interchange guarantee), when a delta save stores as many bytes as a
full payload at the same point, when a resume from base + deltas differs
from the uninterrupted run on any backend (both counts, not timings), when
the two retention arms' verdict digests diverge, when the default (json)
backend's durable save exceeds the ``--check-max-save-ms`` ceiling, or — at
>= 2000 windows — when the evict arm's peak RSS is not under
``--check-max-rss-frac`` of retain-all's.  CI runs a reduced size.
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

from repro.state import available_backends

SEED = 0xC0FFEE

#: Ops between checkpoints in the journal section: two folds' worth of
#: saves (2 x FOLD_EVERY) cover 1024 ops.
JOURNAL_EVERY = 64


def make_stream(num_ops, seed):
    """A deterministic multi-register operation stream in completion order."""
    import random

    from repro.workloads.synthetic import synthetic_trace

    trace = synthetic_trace(
        random.Random(seed), 8, max(1, num_ops // 8),
        staleness_probability=0.05, max_staleness=1,
    )
    ops = [op for key in trace.keys() for op in trace[key].operations]
    return sorted(ops, key=lambda op: (op.finish, op.op_id))


def session_payload(ops):
    """A mid-stream checkpoint payload — what the audit server saves."""
    from repro.service.session import AuditSession, SessionConfig

    session = AuditSession.start(
        "bench", SessionConfig(k=2, algorithm="lbt", window_size=16)
    )
    for op in ops[: min(len(ops), 500)]:
        session.feed(op)
    return session.checkpoint_payload()


# ----------------------------------------------------------------------
# Latency section
# ----------------------------------------------------------------------
def bench_latency(backend, payload, saves, directory):
    from repro.service.checkpoint import CheckpointStore

    store = CheckpointStore(directory, backend=backend)
    try:
        t0 = time.perf_counter()
        for i in range(saves):
            store.save("bench", payload)
        save_s = (time.perf_counter() - t0) / saves

        from repro.service.session import AuditSession

        t0 = time.perf_counter()
        for i in range(saves):
            AuditSession.resume(store.load("bench"))
        load_s = (time.perf_counter() - t0) / saves
        raw = store.raw("bench")
    finally:
        store.close()
    return {
        "save_ms": round(save_s * 1e3, 3),
        "load_resume_ms": round(load_s * 1e3, 3),
        "payload_bytes": len(raw),
        "raw": raw,
    }


# ----------------------------------------------------------------------
# Journal section
# ----------------------------------------------------------------------
def _results(report):
    return {
        key: (bool(r), r.reason, None if r.witness is None else [op.op_id for op in r.witness])
        for key, r in report.results.items()
    }


def bench_journal(backend, ops, every, directory):
    """Checkpoint one session every ``every`` ops; count oversized deltas and
    resumes that do not finish like the uninterrupted run."""
    import pickle

    from repro.service.checkpoint import CheckpointStore
    from repro.service.session import AuditSession, SessionConfig

    config = SessionConfig(k=2, algorithm="lbt", window_size=16)
    reference = AuditSession.start("bench", config)
    for op in ops:
        reference.feed(op)
    expected = _results(reference.finish())

    store = CheckpointStore(directory, backend=backend)
    session = AuditSession.start("bench", config)
    twin = AuditSession.start("twin", config)  # never saved: always full
    kinds = {"full": 0, "delta": 0}
    delta_bytes, full_bytes, delta_save_s = [], [], []
    oversized = mismatches = 0
    try:
        for i, op in enumerate(ops, 1):
            session.feed(op)
            twin.feed(op)
            if i % every:
                continue
            payload = session.checkpoint_payload()
            t0 = time.perf_counter()
            store.save("bench", payload)
            elapsed = time.perf_counter() - t0
            session.checkpoints += 1
            if "base" not in payload:
                kinds["full"] += 1
                continue
            kinds["delta"] += 1
            delta_save_s.append(elapsed)
            size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            full = len(pickle.dumps(twin.checkpoint_payload(), protocol=pickle.HIGHEST_PROTOCOL))
            delta_bytes.append(size)
            full_bytes.append(full)
            oversized += size >= full
            resumed = AuditSession.resume(store.load("bench"))
            for rest in ops[resumed.ops_fed:]:
                resumed.feed(rest)
            mismatches += _results(resumed.finish()) != expected
    finally:
        store.close()
    return {
        "saves": kinds,
        "delta_bytes_median": sorted(delta_bytes)[len(delta_bytes) // 2] if delta_bytes else 0,
        "full_bytes_median": sorted(full_bytes)[len(full_bytes) // 2] if full_bytes else 0,
        "delta_save_ms": round(sum(delta_save_s) / max(1, len(delta_save_s)) * 1e3, 3),
        "oversized_deltas": oversized,
        "resume_mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# Retention arms (invoked via --arm; print a JSON record on stdout)
# ----------------------------------------------------------------------
def run_arm(arm, num_ops, window, retain, state_dir):
    from repro.core.windows import WindowPolicy
    from repro.engine.streaming import StreamingEngine
    from repro.state import open_state_store

    ops = make_stream(num_ops, SEED)
    store = None
    if arm == "evict":
        store = open_state_store("segments", state_dir)
        engine = StreamingEngine(
            window=WindowPolicy.count(window), state_store=store,
            retain_windows=retain,
        )
    else:
        engine = StreamingEngine(window=WindowPolicy.count(window))
    session = engine.open_session(2)
    windows = 0
    digest = 0
    t0 = time.perf_counter()
    for op in ops:
        report = session.feed(op)
        if report is not None:
            windows += 1
            # Incremental digest: verdict booleans in window order.  Both
            # arms must produce the same digest or eviction changed verdicts.
            for key in sorted(report.verdicts, key=repr):
                digest = (digest * 31 + (2 if report.verdicts[key].result else 1)) % (
                    2**61 - 1
                )
    elapsed = time.perf_counter() - t0
    spills = getattr(session._timeline, "spills", 0)
    if store is not None:
        store.close()
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "elapsed_s": round(elapsed, 3),
        "windows": windows,
        "digest": digest,
        "spills": spills,
        "peak_rss_kb": int(peak_kb),
    }


def spawn_arm(arm, num_ops, window, retain, state_dir):
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--arm", arm, "--ops", str(num_ops), "--window", str(window),
            "--retain", str(retain), "--state-dir", str(state_dir),
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{arm} arm failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run(num_ops, window, retain, saves, json_path, check, check_max_rss_frac,
        check_max_save_ms, out=sys.stdout):
    ops = make_stream(num_ops, SEED)
    payload = session_payload(ops)
    print(
        f"state-store benchmark: {len(ops)} ops, window={window}, "
        f"retain={retain}, {saves} saves per backend",
        file=out,
    )

    latency = {}
    raws = {}
    with tempfile.TemporaryDirectory() as tmp:
        for backend in available_backends():
            rec = bench_latency(backend, payload, saves, Path(tmp) / backend)
            raws[backend] = rec.pop("raw")
            latency[backend] = rec
            print(
                f"  {backend:9s} save {rec['save_ms']:7.3f} ms   "
                f"load+resume {rec['load_resume_ms']:7.3f} ms   "
                f"payload {rec['payload_bytes']} B",
                file=out,
            )
    interchangeable = len(set(raws.values())) == 1

    from repro.service.session import FOLD_EVERY

    journal = {}
    journal_ops = ops[: JOURNAL_EVERY * 2 * FOLD_EVERY]
    with tempfile.TemporaryDirectory() as tmp:
        for backend in available_backends():
            rec = bench_journal(backend, journal_ops, JOURNAL_EVERY, Path(tmp) / backend)
            journal[backend] = rec
            print(
                f"  {backend:9s} journal: {rec['saves']['full']} full + "
                f"{rec['saves']['delta']} delta saves, delta "
                f"{rec['delta_bytes_median']} B vs full {rec['full_bytes_median']} B "
                f"(medians), delta save {rec['delta_save_ms']:.3f} ms, "
                f"{rec['resume_mismatches']} resume mismatches",
                file=out,
            )

    arms = {}
    with tempfile.TemporaryDirectory() as tmp:
        for arm in ("retain-all", "evict"):
            arms[arm] = spawn_arm(arm, num_ops, window, retain, Path(tmp) / arm)
            rec = arms[arm]
            print(
                f"  {arm:10s} {rec['windows']} windows in {rec['elapsed_s']}s, "
                f"peak RSS {rec['peak_rss_kb'] / 1024:.1f} MB"
                + (f", {rec['spills']} spills" if arm == "evict" else ""),
                file=out,
            )
    rss_frac = arms["evict"]["peak_rss_kb"] / arms["retain-all"]["peak_rss_kb"]
    print(f"  evict peak RSS is {rss_frac:.2f}x retain-all's", file=out)

    record = {
        "config": {
            "ops": len(ops), "window": window, "retain": retain, "saves": saves,
            "journal_every": JOURNAL_EVERY,
        },
        "latency": latency,
        "interchangeable": interchangeable,
        "journal": journal,
        "retain_all": arms["retain-all"],
        "evict": arms["evict"],
        "rss_fraction": round(rss_frac, 4),
    }
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nrecorded results in {json_path}", file=out)

    if check:
        failures = []
        if not interchangeable:
            failures.append(
                "checkpoint bytes differ across backends: "
                + ", ".join(f"{b}={len(r)}B" for b, r in raws.items())
            )
        for backend, rec in journal.items():
            if rec["saves"]["delta"] == 0:
                failures.append(f"{backend}: the journal section took no delta saves")
            if rec["oversized_deltas"]:
                failures.append(
                    f"{backend}: {rec['oversized_deltas']} delta saves stored as "
                    "many bytes as a full payload at the same point"
                )
            if rec["resume_mismatches"]:
                failures.append(
                    f"{backend}: {rec['resume_mismatches']} resumes from base + "
                    "deltas finished unlike the uninterrupted run"
                )
        if arms["evict"]["digest"] != arms["retain-all"]["digest"]:
            failures.append(
                "verdict digests diverge between retention arms — eviction "
                "changed the verdict stream"
            )
        if arms["evict"]["spills"] == 0:
            failures.append("evict arm never spilled — retention is not engaged")
        json_save = latency["json"]["save_ms"]
        if json_save > check_max_save_ms:
            failures.append(
                f"default (json) backend durable save {json_save:.3f} ms "
                f"exceeds the {check_max_save_ms:.1f} ms ceiling — the "
                "fsync-ed atomic write path has regressed"
            )
        if arms["retain-all"]["windows"] >= 2000 and rss_frac >= check_max_rss_frac:
            failures.append(
                f"evict peak RSS fraction {rss_frac:.2f} is not under "
                f"{check_max_rss_frac:.2f} of retain-all at "
                f"{arms['retain-all']['windows']} windows — eviction is not "
                "bounding memory"
            )
        print("", file=out)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=out)
            return record, 1
        print(
            f"CHECK OK: payloads byte-interchangeable across "
            f"{len(raws)} backends, every delta smaller than a full payload "
            f"and every journal resume exact, verdict digests identical, evict peak "
            f"RSS {arms['evict']['peak_rss_kb'] / 1024:.1f} MB "
            f"({rss_frac:.2f}x retain-all)",
            file=out,
        )
    return record, 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=40_000)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument(
        "--retain", type=int, default=16,
        help="hot windows kept in memory by the evict arm",
    )
    parser.add_argument(
        "--saves", type=int, default=50, help="checkpoint saves per backend"
    )
    parser.add_argument("--json", default=None, help="record results to this JSON path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on non-interchangeable payloads, diverging "
        "retention arms, or (at >= 2000 windows) unbounded evict-arm RSS",
    )
    parser.add_argument(
        "--check-max-rss-frac",
        type=float,
        default=0.9,
        dest="check_max_rss_frac",
        help="maximum allowed evict/retain-all peak-RSS fraction (default 0.9)",
    )
    parser.add_argument(
        "--check-max-save-ms",
        type=float,
        default=50.0,
        dest="check_max_save_ms",
        help="ceiling on the default (json) backend's mean durable save "
        "latency in milliseconds (default 50)",
    )
    parser.add_argument("--arm", choices=("retain-all", "evict"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--state-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.arm:
        print(json.dumps(run_arm(
            args.arm, args.ops, args.window, args.retain, args.state_dir
        )))
        return 0
    _, status = run(
        num_ops=args.ops,
        window=args.window,
        retain=args.retain,
        saves=args.saves,
        json_path=args.json,
        check=args.check,
        check_max_rss_frac=args.check_max_rss_frac,
        check_max_save_ms=args.check_max_save_ms,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
