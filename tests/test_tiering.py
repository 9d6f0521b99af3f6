"""Adaptive tiered verification: differential parity and escalation soundness.

The tier ladder (:mod:`repro.engine.tiering`) screens each register with the
cheapest sound verifier and escalates to the exact rung when trigger
features say a NO is possible.  The contract pinned here is *structural
identity with the exact-only run*:

* every boolean verdict matches, on every kernel tier and executor,
* every NO carries the identical reason and algorithm (NOs only ever come
  from the exact rung),
* every witness that is present validates against its history,
* streaming final verdicts equal the untiered stream, and every register
  the exact oracle fails has at least one escalated (``check``) window —
  a cheap screen is never silently trusted where a NO was possible.

On a batch-parity failure the harness shrinks the history to a local
minimum and writes it to ``tests/corpus/tier-*.jsonl``;
``test_corpus_replays_tier_parity`` replays every stored entry forever
after.  Seeds derive from ``REPRO_TEST_SEED`` (printed in the pytest
header) so failures are reproducible.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from pathlib import Path
from typing import List, Sequence

import pytest

from repro.core.api import verify
from repro.core.builder import TraceBuilder
from repro.core.errors import ServiceError, VerificationError
from repro.core.history import History
from repro.core.operation import Operation, read, write
from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine
from repro.engine.tiering import (
    TIER_NAMES,
    CostModel,
    TierPolicy,
    TierStats,
    TierStreamState,
    TraceFeatures,
    get_tier_policy,
)
from repro.io.formats import dump_jsonl, load_jsonl
from repro.workloads.synthetic import synthetic_trace

from tests.conftest import TEST_SEED, make_random_history
from tests.test_differential_fuzz import KERNELS, random_case, shrink

CORPUS_DIR = Path(__file__).parent / "corpus"

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
        Engine(tier="fastest")
    with pytest.raises(VerificationError, match="unknown tier"):
        StreamingEngine(window=WindowPolicy.count(8), tier="none")


def test_tier_names_cover_the_presets():
    assert TIER_NAMES == ("exact", "screen", "auto")


# ----------------------------------------------------------------------
# Trace features and gates
# ----------------------------------------------------------------------
def test_trace_features_on_known_history(stale_by_two_history, atomic_history):
    stale = TraceFeatures.from_history(stale_by_two_history)
    assert stale.num_ops == 4 and stale.num_writes == 3 and stale.num_reads == 1
    assert stale.anomaly_score == 0.0  # the read's value was written
    assert stale.max_value_lag == 2  # two completed fresher writes skipped
    fresh = TraceFeatures.from_history(atomic_history)
    assert fresh.max_value_lag == 0 and fresh.anomaly_score == 0.0


def test_trace_features_anomaly_score():
    history = History(
        [write("a", 0.0, 1.0), read("ghost", 2.0, 3.0), read("a", 4.0, 5.0)]
    )
    features = TraceFeatures.from_history(history)
    assert features.anomaly_score == pytest.approx(0.5)


def test_trace_features_from_columns_match_from_history(
    stale_by_two_history, atomic_history
):
    from repro.core.columnar import columnar_of

    rng = random.Random(TEST_SEED)
    # A read finishing exactly when its write starts does not precede it.
    touching = History([write("a", 2.0, 3.0), read("a", 1.0, 2.0)])
    histories = [stale_by_two_history, atomic_history, touching]
    histories += [make_random_history(rng, 6, 10) for _ in range(40)]
    histories += [
        trace[key]
        for trace in [synthetic_trace(rng, 4, 60, staleness_probability=0.3, max_staleness=3)]
        for key in trace.keys()
    ]
    for history in histories:
        assert TraceFeatures.from_columnar(columnar_of(history)) == TraceFeatures.from_history(
            history
        )


def test_gate_triggers_force_escalation_features():
    policy = get_tier_policy("auto")
    stale = TraceFeatures.from_history(
        History(
            [
                write("a", 0.0, 1.0),
                write("b", 2.0, 3.0),
                write("c", 4.0, 5.0),
                read("a", 6.0, 7.0),
            ]
        )
    )
    assert "value-lag" in policy.gate_triggers(stale, 2)
    assert "value-lag" not in policy.gate_triggers(stale, 3)
    anomalous = TraceFeatures.from_history(
        History([write("a", 0.0, 1.0), read("ghost", 2.0, 3.0)])
    )
    assert "anomaly" in policy.gate_triggers(anomalous, 2)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_cost_model_predict_is_linear_and_monotone():
    model = CostModel()
    for stage in ("screen", "confirm", "exact"):
        for kernel in ("object", "numpy"):
            small = model.predict(stage, kernel, 10)
            large = model.predict(stage, kernel, 10_000)
            assert 0 < small <= large


def test_cost_model_fit_recovers_a_linear_curve():
    model = CostModel()
    samples = [
        ("screen:object", n, 1e-4 + 2e-6 * n) for n in (10, 50, 100, 500, 1000)
    ]
    errors = model.fit(samples)
    a, b = model.coeffs["screen:object"]
    assert a == pytest.approx(1e-4, rel=0.01)
    assert b == pytest.approx(2e-6, rel=0.01)
    assert errors["screen:object"] < 0.01
    assert model.fit_errors == errors


def test_cost_model_roundtrip_and_knob_picks():
    model = CostModel()
    clone = CostModel.from_dict(model.to_dict())
    assert clone.coeffs == model.coeffs
    assert clone.confirm_interval == model.confirm_interval
    # Payloads written before the window budget was dropped still load.
    older = CostModel.from_dict({**model.to_dict(), "window_budget_s": 0.04})
    assert older.to_dict() == model.to_dict()
    assert model.choose_kernel(100) in ("object", "numpy")


def test_cost_model_calibrate_refits_from_real_probes(rng):
    histories = {
        f"r{i}": make_random_history(rng, 10, 15) for i in range(3)
    }
    model = CostModel.calibrate(histories)
    # Calibration must produce usable curves for the rungs it probed.
    assert model.predict("screen", "object", 100) > 0
    assert model.choose_kernel(100) in ("object", "numpy")


def test_tier_stats_accounting():
    policy = get_tier_policy("screen")
    stats = TierStats()
    history = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
    _result, decision = policy.verify_with_decision(history, 2, key="x")
    stats.record(decision)
    assert stats.total == 1 and stats.screened == 1 and stats.exact == 0
    assert stats.screen_rate == 1.0 and stats.escalation_rate == 0.0
    payload = stats.to_dict()
    assert payload["screen_rate"] == 1.0 and payload["escalation_rate"] == 0.0
    other = TierStats()
    other.record(decision)
    stats.merge(other)
    assert stats.total == 2


# ----------------------------------------------------------------------
# Differential parity: tiered vs exact, batch
# ----------------------------------------------------------------------
def tier_disagreements(ops: Sequence[Operation]) -> List[str]:
    """Tiered verdict stream vs the exact-only run, on every kernel/tier."""
    history = History(ops)
    problems: List[str] = []
    for k in (1, 2):
        for kernel in KERNELS:
            exact = verify(history, k, kernel=kernel)
            for tier in SCREEN_TIERS:
                policy = get_tier_policy(tier)
                tiered, decision = policy.verify_with_decision(
                    history, k, key="x", kernel=kernel
                )
                where = f"tier={tier}/kernel={kernel}/k={k}"
                if bool(tiered) != bool(exact):
                    problems.append(
                        f"{where}: tiered says {bool(tiered)} but exact says "
                        f"{bool(exact)} (route {decision.describe()})"
                    )
                    continue
                if not exact and (tiered.reason, tiered.algorithm) != (
                    exact.reason, exact.algorithm,
                ):
                    problems.append(
                        f"{where}: NO diverges — tiered "
                        f"({tiered.algorithm}: {tiered.reason!r}) vs exact "
                        f"({exact.algorithm}: {exact.reason!r})"
                    )
                if tiered.witness is not None and not tiered.check_witness(history):
                    problems.append(f"{where}: tiered witness does not validate")
                if not exact and decision.tier != "exact":
                    problems.append(
                        f"{where}: a NO came from the {decision.tier!r} rung — "
                        "NOs must only ever come from the exact rung"
                    )
    return problems


def report_tier_divergence(
    ops: List[Operation], problems: List[str], origin: str
) -> None:
    """Shrink, persist to the corpus, and fail with a replayable message."""
    minimal = shrink(list(ops), lambda c: bool(tier_disagreements(c)))
    digest = hashlib.sha256(
        "".join(
            f"{op.op_type.value}:{op.value!r}:{op.start!r}:{op.finish!r};"
            for op in minimal
        ).encode()
    ).hexdigest()[:12]
    CORPUS_DIR.mkdir(exist_ok=True)
    path = CORPUS_DIR / f"tier-{digest}.jsonl"
    dump_jsonl(minimal, path)
    pytest.fail(
        f"tier parity divergence from {origin} (seed {TEST_SEED:#x}):\n  "
        + "\n  ".join(tier_disagreements(minimal))
        + f"\nminimised to {len(minimal)} ops, written to {path} "
        "(replay: pytest tests/test_tiering.py::test_corpus_replays_tier_parity)"
    )


@pytest.mark.parametrize("seed_offset", [0, 1, 2])
def test_tiered_parity_randomised(seed_offset):
    """>= 3 independent seeds x all kernels x both screening tiers."""
    rng = random.Random(TEST_SEED + 1000 * seed_offset)
    for iteration in range(12):
        history, origin = random_case(rng)
        problems = tier_disagreements(history.operations)
        if problems:
            report_tier_divergence(
                list(history.operations),
                problems,
                f"seed_offset {seed_offset} iteration {iteration}: {origin}",
            )


def test_corpus_replays_tier_parity():
    """Every minimised tier divergence ever recorded must stay fixed."""
    entries = sorted(CORPUS_DIR.glob("tier-*.jsonl"))
    if not entries:
        pytest.skip("tier corpus is empty (no divergence has ever been recorded)")
    for path in entries:
        trace = load_jsonl(path)
        for key in trace.keys():
            problems = tier_disagreements(trace[key].operations)
            assert not problems, (
                f"corpus entry {path.name} diverges again:\n  "
                + "\n  ".join(problems)
            )


@pytest.mark.parametrize("tier", SCREEN_TIERS)
@pytest.mark.parametrize(
    "executor,jobs", [("serial", None), ("threads", 2), ("processes", 2)]
)
def test_engine_tiered_parity_across_executors(tier, executor, jobs):
    """Engine(tier=...) equals Engine() register-for-register, every executor."""
    rng = random.Random(TEST_SEED + 31)
    trace = synthetic_trace(
        rng, 6, 40, staleness_probability=0.2, max_staleness=2
    )
    exact = Engine(executor=executor, jobs=jobs).verify_trace(trace, 2)
    tiered = Engine(executor=executor, jobs=jobs, tier=tier).verify_trace(trace, 2)
    assert set(exact.results) == set(tiered.results)
    for key, expected in exact.results.items():
        got = tiered.results[key]
        assert bool(got) == bool(expected), (key, tier, executor)
        if not expected:
            assert (got.reason, got.algorithm) == (
                expected.reason, expected.algorithm,
            ), (key, tier, executor)
    # The report must carry the tier accounting: nothing skipped silently.
    assert tiered.tier == tier
    stats = dict(tiered.tier_stats)
    assert stats["total"] == len(trace.keys())
    assert stats["screened"] + stats["exact"] == stats["total"]
    assert set(tiered.tier_decisions) == set(exact.results)


def test_tiered_report_summary_mentions_the_tier():
    rng = random.Random(TEST_SEED + 32)
    trace = synthetic_trace(rng, 3, 20, staleness_probability=0.0)
    report = Engine(tier="auto").verify_trace(trace, 2)
    assert "tier=auto" in report.summary()
    untiered = Engine().verify_trace(trace, 2)
    assert "tier=" not in untiered.summary()


def test_screened_yes_records_the_screen_rung():
    """A clean register at k=2 settles on the k'=1 GK screen."""
    history = History(
        [write(i, 2.0 * i, 2.0 * i + 0.5) for i in range(5)]
        + [read(i, 2.0 * i + 1.0, 2.0 * i + 1.5) for i in range(5)]
    )
    policy = get_tier_policy("screen")
    result, decision = policy.verify_with_decision(history, 2, key="x")
    assert bool(result)
    assert decision.tier == "screen" and decision.screen_k == 1
    assert not decision.escalated
    assert "1-atomic" in (result.reason or "")
    assert result.stats.get("tier") == "screen"


def test_exact_no_always_escalates_with_triggers(stale_by_two_history):
    """Where exact says NO, the decision must be an escalated exact route."""
    for tier in SCREEN_TIERS:
        policy = get_tier_policy(tier)
        result, decision = policy.verify_with_decision(
            stale_by_two_history, 2, key="x"
        )
        assert not result
        assert decision.tier == "exact" and decision.escalated
        assert decision.triggers, "an escalation must say why"


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
    confirm = get_tier_policy("auto").cost_model.confirm_interval
    longest_run = run = 0
    for window in report.timeline:
        if window.tiers.get("x") == "peek":
            run += 1
            longest_run = max(longest_run, run)
        else:
            run = 0
    assert longest_run <= confirm


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
    interval = policy.cost_model.confirm_interval
    state = TierStreamState(policy, k=2)
    state.decide("x", [write(0, 0.0, 0.5, key="x")])
    modes = [
        state.decide("x", [read(0, i + 1.0, i + 1.2, key="x")])[0]
        for i in range(interval + 1)
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
# Pooled sessions: per-shard escalation parity
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
    for op in stream:
        ref.feed(op)
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
    # Final verdicts (the sound surface) are identical to in-process tiered —
    # which the streaming tests pin to exact.
    assert set(ref_report.results) == set(report.results)
    for key, expected in ref_report.results.items():
        got = report.results[key]
        assert bool(got) == bool(expected), key
        if not expected:
            assert got.reason == expected.reason, key
    # Per-shard escalation: the hot register pays checks, the cold one peeks.
    assert report.tier == "auto"
    modes_x = [w.tiers.get("x") for w in windows if "x" in w.tiers]
    modes_y = [w.tiers.get("y") for w in windows if "y" in w.tiers]
    assert "check" in modes_x, "stale shard never escalated"
    assert "peek" in modes_y, "clean shard never screened"
    assert session.escalations >= 1
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
    assert main(["verify", str(path), "--k", "2", "--tier", "auto"], out=out) == 0
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
# Experiments
# ----------------------------------------------------------------------
def test_tiering_experiment_kind_reports_parity():
    from repro.experiments import load_spec, run_experiment

    spec = load_spec("experiments/tiered_cost_model.toml")
    report = run_experiment(spec, smoke=True)
    assert report.kind == "tiering"
    for row in report.rows:
        assert row.metrics["parity_ok"] == 1.0, row.params
        assert 0.0 <= row.metrics["escalation_rate_k2"] <= 1.0
        assert "fit_error" in row.metrics


def test_tiering_experiment_rejects_exact_tier():
    from repro.experiments import ExperimentSpec, run_experiment
    from repro.experiments.spec import ExperimentError

    spec = ExperimentSpec.from_dict(
        {
            "experiment": {"name": "bad", "kind": "tiering"},
            "workload": {"kind": "synthetic", "registers": 2,
                         "ops_per_register": 10, "tier": "exact"},
        }
    )
    with pytest.raises(ExperimentError, match="screen"):
        run_experiment(spec, smoke=True)


# ----------------------------------------------------------------------
# Multi-register batch: decisions per register
# ----------------------------------------------------------------------
def test_engine_tier_decisions_are_per_register():
    builder = TraceBuilder()
    for op in _staircase_ops(n=20, lag=2):
        builder.append(op)
    for i in range(20):
        builder.append(write(i, 1.0 * i, 1.0 * i + 0.4, key="clean"))
        builder.append(read(i, 1.0 * i + 0.5, 1.0 * i + 0.9, key="clean"))
    trace = builder.build()
    report = Engine(tier="auto").verify_trace(trace, 2)
    decisions = report.tier_decisions
    assert decisions["x"].tier == "exact" and decisions["x"].escalated
    assert decisions["clean"].tier == "screen"
    assert not report.results["x"]
    assert report.results["clean"]
