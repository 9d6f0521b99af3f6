"""Adaptive tiered streaming: parity with the untiered stream, escalation soundness.

A tier policy (:mod:`repro.engine.tiering`) lets a rolling stream answer a
(register, window) with the checker's O(1) peek and escalates to the
authoritative check when trigger features say a NO is possible.  The
contract pinned here:

* streaming final verdicts and NO reasons equal the untiered stream's,
  in process and on a worker pool,
* every register the exact oracle fails has at least one escalated
  (``check``) window — a cheap screen is never silently trusted where a NO
  was possible,
* every bypassed exact check is counted in the reports,
* batch verification and windowed streaming refuse a tier rather than
  ignore it.

Seeds derive from ``REPRO_TEST_SEED`` (printed in the pytest header) so
failures are reproducible.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.errors import ServiceError, VerificationError
from repro.core.operation import read, write
from repro.core.windows import WindowPolicy
from repro.engine import StreamingEngine
from repro.engine.tiering import (
    CONFIRM_INTERVAL,
    TIER_NAMES,
    TierPolicy,
    TierStreamState,
    get_tier_policy,
)
from repro.io.formats import dump_jsonl
from repro.workloads.synthetic import synthetic_trace

from tests.conftest import TEST_SEED

#: The screening tiers under test; "exact" resolves to the passthrough.
SCREEN_TIERS = ("screen", "auto")


# ----------------------------------------------------------------------
# Policy resolution
# ----------------------------------------------------------------------
def test_get_tier_policy_resolution():
    assert get_tier_policy(None) is None
    assert get_tier_policy("exact") is None  # passthrough: no ladder
    for name in SCREEN_TIERS:
        policy = get_tier_policy(name)
        assert isinstance(policy, TierPolicy) and policy.name == name
        assert get_tier_policy(policy) is policy
    assert get_tier_policy("auto").feature_gated
    assert not get_tier_policy("screen").feature_gated


def test_unknown_tier_name_is_a_typed_error_not_a_fallback():
    with pytest.raises(VerificationError, match="unknown tier 'bogus'"):
        get_tier_policy("bogus")
    with pytest.raises(VerificationError, match="unknown tier"):
        StreamingEngine(window=WindowPolicy.count(8), tier="none")


def test_tier_names_cover_the_presets():
    assert TIER_NAMES == ("exact", "screen", "auto")


# ----------------------------------------------------------------------
# Streaming: parity, escalation soundness, bypass counters
# ----------------------------------------------------------------------
def _stream(ops):
    return sorted(ops, key=lambda o: (o.finish, o.op_id))


def _staircase_ops(n=40, lag=2):
    """Writes w(0)..w(n) with reads lagging ``lag`` writes behind."""
    ops, t = [], 0.0
    for i in range(n):
        ops.append(write(i, t, t + 0.5, key="x", client=f"c{i % 3}"))
        ops.append(
            read(max(0, i - lag), t + 0.6, t + 0.9, key="x", client=f"r{i % 3}")
        )
        t += 1.0
    return ops


@pytest.mark.parametrize("tier", SCREEN_TIERS)
def test_streaming_tiered_final_verdicts_equal_untiered(tier):
    rng = random.Random(TEST_SEED + 41)
    trace = synthetic_trace(rng, 4, 50, staleness_probability=0.2, max_staleness=2)
    ops = _stream(op for key in trace.keys() for op in trace[key].operations)

    def final(tier_arg):
        engine = StreamingEngine(window=WindowPolicy.count(16), tier=tier_arg)
        return engine.verify_stream(list(ops), 2)

    exact = final(None)
    tiered = final(tier)
    assert tiered.tier == tier and exact.tier == "exact"
    assert set(exact.results) == set(tiered.results)
    for key, expected in exact.results.items():
        got = tiered.results[key]
        assert bool(got) == bool(expected), (key, tier)
        if not expected:
            assert got.reason == expected.reason, (key, tier)


@pytest.mark.parametrize("seed_offset", [0, 1, 2])
def test_tiered_parity_randomised(seed_offset):
    """Random small histories, streamed: every tier's final verdicts and NO
    reasons equal the untiered stream's at k = 1 and k = 2."""
    from tests.test_differential_fuzz import random_case

    def finals(report):
        return {
            key: (bool(r), None if r else r.reason) for key, r in report.results.items()
        }

    rng = random.Random(TEST_SEED + 1000 * seed_offset)
    for iteration in range(12):
        history, origin = random_case(rng)
        stream = _stream(history.operations)
        for k in (1, 2):
            untiered = StreamingEngine(window=WindowPolicy.count(3)).verify_stream(stream, k)
            for tier in SCREEN_TIERS:
                engine = StreamingEngine(window=WindowPolicy.count(3), tier=tier)
                assert finals(engine.verify_stream(stream, k)) == finals(untiered), (
                    f"seed_offset {seed_offset} iteration {iteration} ({origin}): "
                    f"tier={tier} diverges at k={k} (seed {TEST_SEED:#x})"
                )


def test_tiered_report_summary_mentions_the_tier():
    ops = _stream(_staircase_ops(n=20, lag=0))
    report = StreamingEngine(window=WindowPolicy.count(10), tier="auto").verify_stream(ops, 2)
    assert "tier=auto" in report.summary()
    untiered = StreamingEngine(window=WindowPolicy.count(10)).verify_stream(ops, 2)
    assert "tier=" not in untiered.summary()


def test_streaming_escalation_soundness_value_lag_forces_check():
    """The adversarial case: the O(1) peek is stale-YES where exact says NO.

    Every window that makes a NO possible carries a value-lag trigger, so
    the tier state must route it to ``check_now`` — the screen is never
    trusted on a NO-capable window.
    """
    ops = _staircase_ops(n=24, lag=2)
    engine = StreamingEngine(window=WindowPolicy.count(12), tier="auto")
    report = engine.verify_stream(_stream(ops), 2)
    assert not report.results["x"].is_k_atomic
    # At least one window escalated, and the triggers say why.
    assert report.escalated_checks >= 1
    triggers = [
        trig
        for window in report.timeline
        for trigs in window.escalations.values()
        for trig in trigs
    ]
    assert "value-lag" in triggers
    # Soundness property: a register the oracle fails never rides only peeks.
    escalated_keys = {
        key
        for window in report.timeline
        for key, mode in window.tiers.items()
        if mode == "check"
    }
    for key, result in report.results.items():
        if not result:
            assert key in escalated_keys, (
                f"register {key!r} is NO but no window escalated to check"
            )


def test_streaming_clean_trace_bypasses_exact_but_counts_it():
    """No silent caps: skipped exact checks surface in the report counters."""
    ops = _staircase_ops(n=30, lag=0)
    engine = StreamingEngine(window=WindowPolicy.count(10), tier="auto")
    report = engine.verify_stream(_stream(ops), 2)
    assert report.results["x"].is_k_atomic  # finish() is authoritative
    assert report.windows_bypassed_exact > 0
    assert report.register_windows_bypassed > 0
    assert "bypassed exact" in report.summary()
    # The periodic confirm bounds how long a register can ride peeks.
    longest_run = run = 0
    for window in report.timeline:
        if window.tiers.get("x") == "peek":
            run += 1
            longest_run = max(longest_run, run)
        else:
            run = 0
    assert longest_run <= CONFIRM_INTERVAL


def test_streaming_untiered_reports_have_no_tier_noise():
    ops = _staircase_ops(n=10, lag=0)
    engine = StreamingEngine(window=WindowPolicy.count(10))
    report = engine.verify_stream(_stream(ops), 2)
    assert report.tier == "exact"
    assert all(not window.tiers for window in report.timeline)
    assert report.windows_bypassed_exact == 0
    assert "bypassed" not in report.summary()


def test_tier_stream_state_triggers():
    state = TierStreamState(get_tier_policy("screen"), k=2)
    w = [write(i, float(i), i + 0.5, key="x") for i in range(4)]
    # Fresh read: no trigger, peek suffices.
    mode, triggers = state.decide("x", [w[0], read(0, 0.6, 0.9, key="x")])
    assert mode == "peek" and triggers == ()
    # Anomalous read (never-written value): must check.
    mode, triggers = state.decide("x", [read("ghost", 1.0, 1.1, key="x")])
    assert mode == "check" and "anomaly" in triggers
    # Value lag >= k: must check.
    mode, triggers = state.decide(
        "x", [w[1], w[2], w[3], read(1, 4.0, 4.2, key="x")]
    )
    assert mode == "check" and "value-lag" in triggers
    # A latched alarm keeps forcing checks.
    state.note_verdict("x", False)
    mode, triggers = state.decide("x", [read(3, 5.0, 5.2, key="x")])
    assert mode == "check" and "checker-alarm" in triggers


def test_tier_stream_state_periodic_confirm_and_snapshot():
    policy = get_tier_policy("screen")
    state = TierStreamState(policy, k=2)
    state.decide("x", [write(0, 0.0, 0.5, key="x")])
    modes = [
        state.decide("x", [read(0, i + 1.0, i + 1.2, key="x")])[0]
        for i in range(CONFIRM_INTERVAL + 1)
    ]
    assert "check" in modes, "periodic confirm never fired"
    # Snapshot/restore preserves the cadence and the value table.
    restored = TierStreamState.restore(policy, state.snapshot())
    assert restored.snapshot() == state.snapshot()


# ----------------------------------------------------------------------
# Service sessions: config validation, counters, checkpoints
# ----------------------------------------------------------------------
def test_session_config_rejects_unknown_tier():
    from repro.service.session import SessionConfig

    with pytest.raises(ServiceError, match="unknown tier"):
        SessionConfig.from_dict({"k": 2, "tier": "bogus"})


def test_session_config_tier_is_conditional_in_to_dict():
    from repro.service.session import SessionConfig

    assert "tier" not in SessionConfig(k=2).to_dict()
    record = SessionConfig(k=2, tier="auto").to_dict()
    assert record["tier"] == "auto"
    assert SessionConfig.from_dict(record).tier == "auto"


def test_audit_session_tier_counters_and_checkpoint_payload():
    from repro.service.session import AuditSession, SessionConfig

    config = SessionConfig(k=2, window_size=16, tier="auto")
    session = AuditSession.start("s-tier", config)
    for op in _staircase_ops(n=30, lag=0):
        session.feed(op)
    assert session.windows_bypassed > 0
    payload = session.checkpoint_payload()
    assert payload["tiering"]["windows_bypassed"] == session.windows_bypassed
    resumed = AuditSession.resume(payload)
    assert resumed.windows_bypassed == session.windows_bypassed
    assert resumed.config.tier == "auto"
    stats = resumed.stats()
    assert stats.tier == "auto"
    # Default sessions keep the pre-tiering payload schema byte-for-byte.
    plain = AuditSession.start("s-plain", SessionConfig(k=2, window_size=16))
    plain_payload = plain.checkpoint_payload()
    assert "tiering" not in plain_payload
    assert "tier" not in plain_payload["config"]
    assert "tier" not in plain_payload["stream"]


def test_service_report_surfaces_escalations():
    from repro.analysis.report import ServiceReport

    from repro.service.session import AuditSession, SessionConfig

    session = AuditSession.start(
        "s-esc", SessionConfig(k=2, window_size=12, tier="auto")
    )
    for op in _staircase_ops(n=24, lag=2):
        session.feed(op)
    session.finish()
    rendered = ServiceReport(sessions=(session.stats(),), uptime_s=1.0).render()
    assert "escalations are never silent" in rendered
    assert "s-esc" in rendered


# ----------------------------------------------------------------------
# Pooled sessions: escalation parity
# ----------------------------------------------------------------------
def test_pooled_tiered_session_matches_in_process():
    from repro.service import PooledAuditSession, WorkerPool
    from repro.service.session import AuditSession, SessionConfig

    config = SessionConfig(k=2, window_size=16, tier="auto")
    ops = _staircase_ops(n=40, lag=2) + [
        op
        for i in range(40)
        for op in (
            write(i, 1.0 * i, 1.0 * i + 0.5, key="y", client="cy"),
            read(i, 1.0 * i + 0.6, 1.0 * i + 0.9, key="y", client="ry"),
        )
    ]
    stream = _stream(ops)
    ref = AuditSession.start("ref", config)
    ref_windows = [r for op in stream if (r := ref.feed(op)) is not None]
    ref_report = ref.finish()

    async def scenario():
        pool = WorkerPool(2)
        await pool.start()
        try:
            session = PooledAuditSession.start("p-tier", config, pool)
            windows = [
                r for op in stream if (r := await session.afeed(op)) is not None
            ]
            return session, windows, await session.afinish()
        finally:
            await pool.stop()

    session, windows, report = asyncio.run(scenario())
    # Window for window: the pooled session is the in-process one, so
    # verdicts, reasons, tier routing and escalation triggers all agree.
    assert len(windows) == len(ref_windows)
    for index, (got, want) in enumerate(zip(windows, ref_windows)):
        assert got.verdicts == want.verdicts, index
        assert got.tiers == want.tiers, index
        assert got.escalations == want.escalations, index
    assert list(report.results) == list(ref_report.results)
    for key, expected in ref_report.results.items():
        got = report.results[key]
        assert bool(got) == bool(expected), key
        assert got.reason == expected.reason, key
    # Per-register escalation: the hot register pays checks, the cold one peeks.
    assert report.tier == "auto"
    modes_x = [w.tiers.get("x") for w in windows if "x" in w.tiers]
    modes_y = [w.tiers.get("y") for w in windows if "y" in w.tiers]
    assert "check" in modes_x, "stale register never escalated"
    assert "peek" in modes_y, "clean register never screened"
    assert session.escalations == ref.escalations >= 1
    # The pooled checkpoint schema matches the in-process one.
    payload = asyncio.run(_pooled_checkpoint(config, stream))
    assert "tiering" in payload and "tier" in payload["stream"]


async def _pooled_checkpoint(config, stream):
    from repro.service import PooledAuditSession, WorkerPool

    pool = WorkerPool(2)
    await pool.start()
    try:
        session = PooledAuditSession.start("p-ckpt", config, pool)
        for op in stream[: len(stream) // 2]:
            await session.afeed(op)
        payload = await session.acheckpoint_payload()
        # The payload must rehydrate on a pool and keep counting.
        resumed = await PooledAuditSession.resume(payload, pool)
        assert resumed.config.tier == config.tier
        assert resumed.windows_bypassed == session.windows_bypassed
        await resumed.aclose()
        return payload
    finally:
        await pool.stop()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_rejects_unknown_tier_at_parse_time(capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["verify", "t.jsonl", "--tier", "fastest"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_verify_tier_auto_prints_tier_summary(tmp_path):
    import io

    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    dump_jsonl(_staircase_ops(n=20, lag=0), path)
    out = io.StringIO()
    assert main(
        ["verify", str(path), "--k", "2", "--online", "--tier", "auto"], out=out
    ) == 0
    assert "tier=auto" in out.getvalue()


def test_cli_verify_tier_conflicts_with_remote(tmp_path):
    import io

    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    dump_jsonl(_staircase_ops(n=4, lag=0), path)
    out = io.StringIO()
    code = main(
        ["verify", str(path), "--remote", "127.0.0.1:1", "--tier", "auto"],
        out=out,
    )
    assert code == 2 and "--tier" in out.getvalue()


def test_cli_serve_parser_accepts_tier():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--tier", "screen", "--port", "0"])
    assert args.tier == "screen"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--tier", "bogus"])


# ----------------------------------------------------------------------
# Typed refusals: a tier is never silently ignored
# ----------------------------------------------------------------------
def test_windowed_streaming_refuses_a_tier():
    for tier in SCREEN_TIERS:
        with pytest.raises(VerificationError, match="windowed"):
            StreamingEngine(window=WindowPolicy.count(8), mode="windowed", tier=tier)
    # exact is the untiered route, which windowed mode runs anyway.
    assert StreamingEngine(mode="windowed", tier="exact").tier is None


def test_cli_batch_verify_refuses_tier_without_online(tmp_path):
    import io

    from repro.cli import main

    path = tmp_path / "trace.jsonl"
    dump_jsonl(_staircase_ops(n=4, lag=0), path)
    for tier in TIER_NAMES:
        out = io.StringIO()
        assert main(["verify", str(path), "--tier", tier], out=out) == 2
        assert "--tier" in out.getvalue() and "--online" in out.getvalue()
    out = io.StringIO()
    args = ["verify", str(path), "--online", "--stream-mode", "windowed", "--tier", "auto"]
    assert main(args, out=out) == 2
    assert "windowed" in out.getvalue()
