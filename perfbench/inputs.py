"""Seeded workload inputs, generated once per seed and cached in the checkout.

The system under test only ever sees what this module writes: trace files
for the batch workloads and per-session operation streams for the served
ones.  Generation is never timed.  Inputs are cached under
``.bench_cache/`` keyed by seed, shape and the generator's source, so a
repeated seed skips generation.

Every trace comes from :func:`repro.workloads.synthetic_trace` with k = 2 in
mind: reads return a value up to two writes old with a small probability,
scaled by register length so that roughly a tenth of registers are NO at
k = 2 and NO reasons stay on the measured path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List

#: Operations per count window, the service's default session window.
WINDOW = 64

#: One batch trace: registers x ops per register (32k ops: ~0.7 s per JSONL
#: audit on a 2-core host, so a 10 s run takes several passes).
BATCH_SHAPE = {"registers": 32, "ops": 1000}

#: Long sessions: 16 registers x 256 ops = 64 windows each, so the rolling
#: re-check of ever-longer registers dominates.  Distinct traces are cycled.
SERVE_LONG_SHAPE = {"registers": 16, "ops": 256, "sessions": 8}

#: Short sessions: 8 registers x 64 ops = 8 windows each, so handshake,
#: framing, pool routing and checkpoints dominate.
SERVE_SHORT_SHAPE = {"registers": 8, "ops": 64, "sessions": 48}


def staleness_for(ops_per_register: int) -> float:
    """Stale-read probability leaving about a tenth of registers NO at k = 2.

    Measured on this generator: the NO share grows roughly as
    0.19 x probability x register length (0.5 / length gives ~10%).
    """
    return 0.5 / ops_per_register


@dataclass
class BatchInputs:
    jsonl: Path
    rcol: Path
    trace: object  # MultiHistory
    num_ops: int
    num_registers: int


@dataclass
class SessionInput:
    session_id: str
    ops: List[object]  # Operations in stream (finish) order
    trace: object  # the same operations as a MultiHistory

    @property
    def windows(self) -> List[List[object]]:
        """The stream cut into the count windows the server will close."""
        return [self.ops[i : i + WINDOW] for i in range(0, len(self.ops), WINDOW)]


def _fingerprint(root: Path, family: str, shape: dict, seed: int) -> str:
    h = hashlib.sha256()
    h.update(repr((family, sorted(shape.items()), seed, WINDOW)).encode())
    for rel in ("src/repro/workloads/synthetic.py", "perfbench/inputs.py"):
        h.update((root / rel).read_bytes())
    return h.hexdigest()[:16]


#: Cache entries (and span files) kept per family; older ones are pruned.
CACHE_KEEP = 8


def cache_dir(root: Path) -> Path:
    return root / ".bench_cache"


def prune(directory: Path, pattern: str, keep: int = CACHE_KEEP) -> None:
    """Delete all but the ``keep`` most recently modified matches of ``pattern``."""
    entries = sorted(directory.glob(pattern), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[keep:]:
        if stale.is_dir():
            shutil.rmtree(stale, ignore_errors=True)
        else:
            stale.unlink(missing_ok=True)


def _cached(root: Path, family: str, shape: dict, seed: int, build):
    """Return the cache entry directory, building it atomically if absent."""
    entry = cache_dir(root) / f"{family}-{seed}-{_fingerprint(root, family, shape, seed)}"
    if not (entry / "inputs.pickle").is_file():
        tmp = entry.with_name(entry.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        payload = build(tmp)
        with open(tmp / "inputs.pickle", "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(tmp, entry)
        prune(entry.parent, f"{family}-*-*")
    with open(entry / "inputs.pickle", "rb") as fh:
        payload = pickle.load(fh)
    _reserve_op_ids(payload)
    return entry, payload


def _reserve_op_ids(payload) -> None:
    """Keep ids minted in this process clear of the unpickled operations'."""
    from repro.core.operation import ensure_op_ids_above

    traces = payload if isinstance(payload, list) else [payload]
    top = -1
    for trace in traces:
        for key in trace.keys():
            top = max(top, max(op.op_id for op in trace[key]))
    ensure_op_ids_above(top)


def _trace(seed: int, registers: int, ops: int, prefix: str):
    from repro.workloads.synthetic import synthetic_trace

    return synthetic_trace(
        random.Random(seed),
        registers,
        ops,
        staleness_probability=staleness_for(ops),
        max_staleness=2,
        key_prefix=prefix,
    )


def batch_inputs(root: Path, seed: int) -> BatchInputs:
    """One multi-register trace, written as JSONL and as ``.rcol``."""
    shape = BATCH_SHAPE

    def build(directory: Path):
        from repro.io.formats import dump_jsonl
        from repro.io.rcol import dump_rcol

        trace = _trace(seed, shape["registers"], shape["ops"], "reg")
        dump_jsonl(trace, directory / "trace.jsonl")
        dump_rcol(trace, directory / "trace.rcol")
        return trace

    entry, trace = _cached(root, "batch", shape, seed, build)
    return BatchInputs(
        jsonl=entry / "trace.jsonl",
        rcol=entry / "trace.rcol",
        trace=trace,
        num_ops=sum(len(trace[key]) for key in trace.keys()),
        num_registers=len(trace.keys()),
    )


def session_inputs(root: Path, seed: int, family: str) -> List[SessionInput]:
    """Distinct per-session traces for a served workload, in stream order."""
    shape = SERVE_LONG_SHAPE if family == "serve-long" else SERVE_SHORT_SHAPE

    def build(_directory: Path):
        rng = random.Random(seed)
        return [
            _trace(rng.getrandbits(64), shape["registers"], shape["ops"], f"s{i}-reg")
            for i in range(shape["sessions"])
        ]

    _entry, traces = _cached(root, family, shape, seed, build)
    sessions = []
    for i, trace in enumerate(traces):
        ops = sorted(
            (op for key in trace.keys() for op in trace[key]),
            key=lambda op: (op.finish, op.start, str(op.key)),
        )
        sessions.append(SessionInput(session_id=f"bench-{seed}-{i}", ops=ops, trace=trace))
    return sessions


def shape_of(num_ops: int, num_registers: int, no_registers: int, windows_per_session=None) -> dict:
    """The measured shape of a workload's inputs, recorded with every run."""
    shape = {
        "ops": num_ops,
        "registers": num_registers,
        "mean_register_len": round(num_ops / num_registers, 1) if num_registers else 0.0,
        "no_share": round(no_registers / num_registers, 4) if num_registers else 0.0,
    }
    if windows_per_session is not None:
        shape["windows_per_session"] = windows_per_session
    return shape

