"""Snapshots written before checkers took operations on arrival resume unchanged.

A :class:`~repro.engine.streaming.StreamSession` used to feed a window's
operations to their checkers only when the window closed, so the snapshots
it wrote hold checkers that have not seen the open window's fresh
operations; restoring one feeds them.  ``tests/data/legacy_snapshots.pkl``
holds two states that earlier code pickled mid-window: a
``StreamSession.snapshot()`` and a full ``AuditSession.checkpoint_payload()``.
Each comes with the operations that follow it and with the timeline and
final results the earlier code produced by resuming it.  Resumed here, both
must reproduce those exactly, ``ops_seen`` included.

``python tests/test_legacy_snapshots.py OUT.pkl`` writes the fixture with
whichever ``repro`` is importable; tests/data/README.md says how the
committed one was made.
"""

from __future__ import annotations

import pickle
import random
import sys
from pathlib import Path

from repro.core.operation import read, write
from repro.core.windows import WindowPolicy
from repro.engine.streaming import StreamingEngine
from repro.service.session import AuditSession, SessionConfig
from repro.workloads.synthetic import practical_history

FIXTURE = Path(__file__).parent / "data" / "legacy_snapshots.pkl"
STREAM_WINDOW = WindowPolicy.count(8, overlap=3)
AUDIT_CONFIG = SessionConfig(k=2, window_mode="time", window_size=6.0, window_overlap=2.0)


def stream_ops(seed: int):
    """Three registers from the start and a fourth that joins late."""
    rng = random.Random(seed)
    ops = []
    for index in range(4):
        history = practical_history(
            random.Random(rng.getrandbits(64)), 14, num_clients=2,
            staleness_probability=0.3, max_staleness=2, key=f"r{index}",
        )
        shift = 12.0 if index == 3 else 0.0
        for op in history.operations:
            make = write if op.is_write else read
            ops.append(make(op.value, op.start + shift, op.finish + shift, key=op.key))
    return sorted(ops, key=lambda op: (op.finish, op.op_id))


def timeline_rows(timeline):
    """Everything a window report says, timing aside."""
    return [
        (
            report.stats.index,
            report.stats.num_ops,
            report.stats.num_registers,
            {
                key: (v.result.is_k_atomic, v.ops_seen, v.final, v.result.reason)
                for key, v in report.verdicts.items()
            },
            dict(report.tiers),
            dict(report.escalations),
        )
        for report in timeline
    ]


def result_rows(results):
    return {key: (r.is_k_atomic, r.algorithm, r.reason) for key, r in results.items()}


def cut_mid_window(session, ops, late_key):
    """Feed ``ops`` until the late register has arrived mid-window; returns the cut."""
    for cut, op in enumerate(ops, 1):
        report = session.feed(op)
        if op.key == late_key and report is None and cut > 12:
            return cut
    raise AssertionError("the stream never left the late register mid-window")


def resumed_stream(snapshot, rest):
    session = StreamingEngine(window=STREAM_WINDOW).resume_session(snapshot)
    registers = session.num_registers
    for op in rest:
        session.feed(op)
    return registers, session.finish()


def resumed_audit(payload, rest):
    session = AuditSession.resume(payload)
    registers = session.stats().num_registers
    for op in rest:
        session.feed(op)
    return registers, session.finish()


def make_fixture() -> dict:
    """Snapshot both sessions mid-window and record how they resume."""
    fixture = {}
    ops = stream_ops(29)
    session = StreamingEngine(window=STREAM_WINDOW).open_session(2)
    cut = cut_mid_window(session, ops, "r3")
    snapshot = session.snapshot()
    registers, report = resumed_stream(pickle.loads(pickle.dumps(snapshot)), ops[cut:])
    fixture["stream"] = {
        "snapshot": snapshot, "rest": ops[cut:], "num_registers": registers,
        "timeline": timeline_rows(report.timeline), "results": result_rows(report.results),
    }
    ops = stream_ops(31)
    audit = AuditSession.start("legacy", AUDIT_CONFIG)
    cut = cut_mid_window(audit, ops, "r3")
    payload = audit.checkpoint_payload()
    registers, report = resumed_audit(pickle.loads(pickle.dumps(payload)), ops[cut:])
    fixture["audit"] = {
        "payload": payload, "rest": ops[cut:], "num_registers": registers,
        "timeline": timeline_rows(report.timeline), "results": result_rows(report.results),
    }
    return fixture


def load_fixture() -> dict:
    with open(FIXTURE, "rb") as fh:
        return pickle.load(fh)


def assert_open_window_matters(stream_state):
    """The fixture covers what restore must add: fresh ops, a new register."""
    assembler = stream_state["assembler"]
    fresh = assembler["buffer"][assembler["carried"]:]
    known = {key for key, _checker in stream_state["checkers"]}
    assert "closed_registers" not in stream_state
    assert fresh and any(op.key in known for op in fresh)
    assert any(op.key not in known for op in fresh)


def test_legacy_stream_snapshot_resumes_to_the_recorded_timeline():
    case = load_fixture()["stream"]
    assert_open_window_matters(case["snapshot"])
    registers, report = resumed_stream(case["snapshot"], case["rest"])
    assert registers == case["num_registers"]
    assert timeline_rows(report.timeline) == case["timeline"]
    assert result_rows(report.results) == case["results"]


def test_legacy_checkpoint_payload_resumes_to_the_recorded_timeline():
    case = load_fixture()["audit"]
    assert_open_window_matters(case["payload"]["stream"])
    registers, report = resumed_audit(case["payload"], case["rest"])
    assert registers == case["num_registers"]
    assert timeline_rows(report.timeline) == case["timeline"]
    assert result_rows(report.results) == case["results"]


def test_a_fresh_snapshot_resumes_to_the_same_timeline():
    """The current format, cut at the same point, agrees with the fixture."""
    case = load_fixture()["stream"]
    ops = stream_ops(29)
    session = StreamingEngine(window=STREAM_WINDOW).open_session(2)
    cut = cut_mid_window(session, ops, "r3")
    assert len(ops) - cut == len(case["rest"])
    state = pickle.loads(pickle.dumps(session.snapshot()))
    registers, report = resumed_stream(state, ops[cut:])
    assert registers == case["num_registers"]
    assert timeline_rows(report.timeline) == case["timeline"]
    assert result_rows(report.results) == case["results"]


if __name__ == "__main__":
    with open(sys.argv[1], "wb") as fh:
        pickle.dump(make_fixture(), fh, protocol=4)
