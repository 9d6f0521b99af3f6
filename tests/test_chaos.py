"""The chaos layer: fault plans, hostile generators, and self-healing parity.

The headline contract: a :class:`ResilientAuditClient` streaming through a
:class:`ChaosProxy` that drops/corrupts/delays/duplicates frames — against a
server whose pool workers are being SIGKILLed and stalled — must deliver the
exact verdict stream (window frames and witnesses included) of a fault-free
run, recovering from every fault without help.  Fault schedules derive from
``TEST_SEED``, so a CI failure replays locally with ``REPRO_TEST_SEED=...``.
"""

from __future__ import annotations

import asyncio
import json
import random
from pathlib import Path

import pytest

from repro.chaos import FAULT_KINDS, FaultClause, FaultPlan, load_plan
from repro.core.errors import (
    RetryableServiceError,
    ServerDraining,
    ServerOverloaded,
    ServiceError,
    SessionBusy,
    SessionIdleTimeout,
    SimulationError,
    WorkerCrashLoopError,
)
from repro.service import (
    AuditClient,
    AuditServer,
    ChaosProxy,
    ResilientAuditClient,
    RetryPolicy,
    WorkerChaos,
)
from repro.simulation.clock import SkewedClocks
from repro.simulation.faults import FaultSchedule
from repro.workloads.chaos import (
    apply_clock_skew,
    dump_chaos_fixtures,
    history_from_plan,
    hot_key_trace,
    indeterminate_storm_trace,
)
from repro.workloads.synthetic import practical_history

from tests.conftest import TEST_SEED
from tests.test_service import result_signature

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def op_signature(op):
    return (op.op_type.value, op.key, op.value, op.start, op.finish, op.client)


def window_signature(frame):
    """A window frame minus the session id (differs between runs by design)."""
    return {k: v for k, v in frame.items() if k != "session"}


# ----------------------------------------------------------------------
# FaultPlan schema
# ----------------------------------------------------------------------
def test_plan_round_trips_through_json(tmp_path):
    plan = (
        FaultPlan(name="mixed", seed=7)
        .add("split_brain", at_ms=100.0, duration_ms=200.0)
        .add("hot_key", num_keys=4, num_operations=64)
        .add("frame_drop", probability=0.25, direction="c2s")
    )
    assert FaultPlan.loads(plan.dumps()) == plan
    path = plan.save(tmp_path / "plan.json")
    assert load_plan(path) == plan
    assert plan.domains() == ("simulation", "workload", "service")
    # Params are stored order-independently: dict input and sorted tuples
    # compare equal, so plans hash/compare structurally.
    a = FaultClause("frame_drop", {"probability": 0.5, "direction": "s2c"})
    b = FaultClause("frame_drop", (("direction", "s2c"), ("probability", 0.5)))
    assert a == b


def test_plan_rejects_unknown_kinds_and_bad_params():
    with pytest.raises(SimulationError):
        FaultClause("frame_scramble")
    with pytest.raises(SimulationError):
        FaultClause("frame_drop", {"probability": object()})
    with pytest.raises(SimulationError):
        FaultPlan.loads("not json {")
    with pytest.raises(SimulationError):
        FaultPlan.from_dict({"clauses": [{"params": {}}]})


def test_clause_streams_are_independent():
    """Appending a clause must not reshuffle earlier clauses' decisions."""
    base = FaultPlan(seed=3).add("frame_drop", probability=0.5)
    extended = base.add("frame_corrupt")
    draws = [base.rng_for(0).random() for _ in range(8)]
    assert [extended.rng_for(0).random() for _ in range(8)] == draws
    assert extended.rng_for(1).random() != pytest.approx(draws[0])
    # Same (seed, index, kind) → same stream on a rebuilt plan.
    rebuilt = FaultPlan.loads(extended.dumps())
    assert [rebuilt.rng_for(0).random() for _ in range(8)] == draws


def test_every_registered_kind_names_a_domain():
    assert set(FAULT_KINDS.values()) == {"simulation", "workload", "service"}


# ----------------------------------------------------------------------
# Workload arm: hostile trace generators
# ----------------------------------------------------------------------
def test_hot_key_trace_is_deterministic_and_skewed():
    ops_a = hot_key_trace(random.Random(TEST_SEED), num_keys=8, num_operations=400)
    ops_b = hot_key_trace(random.Random(TEST_SEED), num_keys=8, num_operations=400)
    assert [op_signature(op) for op in ops_a] == [op_signature(op) for op in ops_b]
    counts = {}
    for op in ops_a:
        counts[op.key] = counts.get(op.key, 0) + 1
    hottest = max(counts.values())
    # Zipf theta=0.99: the hottest register must dominate a uniform share.
    assert hottest > 2 * (len(ops_a) / 8)


def test_indeterminate_storm_extends_writes_past_the_horizon():
    rng = random.Random(TEST_SEED)
    ops = indeterminate_storm_trace(rng, num_keys=2, ops_per_key=80, fraction=0.3)
    horizon = max(op.finish for op in ops)
    stormed = [op for op in ops if op.is_write and op.finish == horizon]
    writes = [op for op in ops if op.is_write]
    assert stormed, "a 0.3 fraction over ~30 writes must hit at least once"
    assert len(stormed) < len(writes)
    for op in stormed:
        assert op.finish > op.start


def test_zero_clock_skew_is_identity():
    history = practical_history(random.Random(TEST_SEED), 60)
    ops = list(history.operations)
    restamped = apply_clock_skew(ops, SkewedClocks(0.0, 0.0, seed=1))
    assert [op_signature(op) for op in restamped] == [op_signature(op) for op in ops]


def test_clock_skew_shifts_clients_coherently():
    history = practical_history(random.Random(TEST_SEED), 60, num_clients=4)
    ops = list(history.operations)
    model = SkewedClocks(max_skew_ms=50.0, drift_ppm=0.0, seed=2)
    restamped = apply_clock_skew(ops, model)
    # Output is re-sorted into skewed start order with fresh op ids, so
    # compare as multisets: every op lands exactly where its own client's
    # clock says, and with 50 ms half-width the order actually changes.
    expected = sorted(
        (model.stamp(op.client, op.start), model.stamp(op.client, op.finish),
         op.key, op.value, op.op_type.value, op.client)
        for op in ops
    )
    actual = sorted(
        (op.start, op.finish, op.key, op.value, op.op_type.value, op.client)
        for op in restamped
    )
    assert actual == expected
    assert [op.start for op in restamped] == sorted(op.start for op in restamped)
    assert {op.client for op in restamped} == {op.client for op in ops}
    assert any(model.params_for(c)[0] != 0.0 for c in {op.client for op in ops})


def test_history_from_plan_is_deterministic_and_composes():
    plan = (
        FaultPlan(name="load", seed=TEST_SEED)
        .add("hot_key", num_keys=4, num_operations=120)
        .add("indeterminate_storm", num_keys=2, ops_per_key=40, fraction=0.2)
        .add("clock_skew", max_skew_ms=20.0)
    )
    ops_a = history_from_plan(plan)
    ops_b = history_from_plan(FaultPlan.loads(plan.dumps()))
    assert [op_signature(op) for op in ops_a] == [op_signature(op) for op in ops_b]
    prefixes = {str(op.key).split("-")[0] for op in ops_a}
    assert prefixes == {"c0", "c1"}  # clause index prefixes never collide
    assert history_from_plan(FaultPlan(seed=1)) == []


def test_fault_schedule_from_plan_pins_and_draws_deterministically():
    plan = (
        FaultPlan(name="sim", seed=TEST_SEED)
        .add("crash", replica="r1", at_ms=50.0, duration_ms=100.0)
        .add("partition")
        .add("split_brain")
    )
    replicas = ["r0", "r1", "r2", "r3"]
    a = FaultSchedule.from_plan(plan, replica_ids=replicas, client_ids=["client-0"])
    b = FaultSchedule.from_plan(plan, replica_ids=replicas, client_ids=["client-0"])
    assert [(e.kind, e.time_ms, e.target) for e in a.events] == [
        (e.kind, e.time_ms, e.target) for e in b.events
    ]
    crash = a.events[0]
    assert (crash.target, crash.time_ms) == (("r1",), 50.0)
    split = [e for e in a.events if "split" in e.kind][0]
    members = {m for group in split.target for m in group}
    assert "client-0" in members  # clients get stranded on one side


def test_chaos_fixture_export_round_trips(tmp_path):
    plan = FaultPlan(seed=TEST_SEED).add("hot_key", num_keys=2, num_operations=60)
    ops = history_from_plan(plan)
    paths = dump_chaos_fixtures(ops, tmp_path, "hostile")
    jepsen = json.loads(paths["jepsen"].read_text())
    assert len(jepsen) >= len(ops)  # invoke/ok event pairs
    lines = paths["porcupine"].read_text().strip().splitlines()
    assert len(lines) == len(ops)
    assert all(json.loads(line) for line in lines)


# ----------------------------------------------------------------------
# Service arm: the headline self-healing parity invariant
# ----------------------------------------------------------------------
def frame_fault_plan(seed: int) -> FaultPlan:
    return (
        FaultPlan(name="wire", seed=seed)
        .add("frame_drop", probability=0.02)
        .add("frame_corrupt", probability=0.01)
        .add("frame_delay", probability=0.05, delay_ms=2)
        .add("frame_duplicate", probability=0.1)
    )


def pool_fault_plan(seed: int) -> FaultPlan:
    return (
        FaultPlan(name="wire+workers", seed=seed)
        .add("frame_drop", probability=0.02)
        .add("frame_delay", probability=0.05, delay_ms=2)
        .add("worker_kill", at_s=0.2)
        .add("worker_slow", at_s=0.1, duration_s=0.3)
    )


async def fault_free_run(ops, *, workers=None):
    server = AuditServer(port=0, workers=workers)
    await server.start()
    try:
        windows = []
        client = await AuditClient.connect(
            server.addresses[0], session="baseline", k=2, window=50,
            witness=True, on_window=windows.append,
        )
        await client.feed_ops(ops)
        report = await client.finish()
        return report, windows
    finally:
        await server.stop()


async def chaotic_run(ops, plan, tmp_path, *, workers=None, worker_chaos=False):
    server = AuditServer(
        port=0, workers=workers, checkpoint_dir=tmp_path / f"ckpt-{plan.seed}"
    )
    await server.start()
    try:
        async with ChaosProxy(server.addresses[0], plan) as proxy:
            chaos_task = None
            if worker_chaos:
                chaos = WorkerChaos(server._pool, plan, horizon_s=1.0)
                chaos_task = asyncio.create_task(chaos.run())
            client = ResilientAuditClient(
                proxy.address, session="chaotic", k=2, window=50,
                witness=True, seed=plan.seed, checkpoint_every=25,
                policy=RetryPolicy(max_attempts=10, io_timeout_s=10.0),
            )
            await client.feed_ops(ops)
            report = await client.finish()
            if chaos_task is not None:
                await chaos_task
            return report, client.windows, proxy.counts, client.retries
    finally:
        await server.stop()


#: Minimised failing plans land here; the CI chaos-smoke job uploads them
#: as artifacts so a red run ships its own reproducer.
PLANS_DIR = Path(__file__).parent / "chaos_plans"


def parity_failure(baseline, ops, plan, tmp_path, *, workers, worker_chaos):
    """Run the chaotic side of the invariant; ``None`` iff parity holds.

    Returns ``(reason, counts)`` — a human-readable divergence description
    (or ``None``) plus the proxy's injected-fault counters.
    """
    base_report, base_windows = baseline
    try:
        report, windows, counts, _retries = asyncio.run(
            chaotic_run(
                ops, plan, tmp_path, workers=workers, worker_chaos=worker_chaos
            )
        )
    except Exception as exc:  # a crash is a failure too — and minimizable
        return f"chaotic run died: {exc!r}", {}
    base_sigs = {k: result_signature(v) for k, v in base_report.results.items()}
    sigs = {k: result_signature(v) for k, v in report.results.items()}
    if sigs != base_sigs:
        diverged = sorted(
            str(k) for k in set(base_sigs) | set(sigs)
            if base_sigs.get(k) != sigs.get(k)
        )
        return f"verdicts diverged for registers {diverged}", counts
    if [window_signature(w) for w in windows] != [
        window_signature(w) for w in base_windows
    ]:
        return (
            f"window streams diverged ({len(windows)} vs "
            f"{len(base_windows)} frames)",
            counts,
        )
    if report.ops != base_report.ops:
        return f"op counts diverged ({report.ops} vs {base_report.ops})", counts
    return None, counts


def minimize_plan(plan, still_fails):
    """Greedy single-clause removal while ``still_fails`` keeps holding."""
    changed = True
    while changed and len(plan.clauses) > 1:
        changed = False
        for index in range(len(plan.clauses)):
            candidate = FaultPlan(
                name=plan.name,
                seed=plan.seed,
                clauses=plan.clauses[:index] + plan.clauses[index + 1:],
            )
            if still_fails(candidate):
                plan = candidate
                changed = True
                break
    return plan


@pytest.mark.parametrize("schedule", [0, 1, 2])
@pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "pool-2"])
def test_chaos_parity_with_self_healing_client(tmp_path, schedule, workers):
    """Randomized fault schedules leave the verdict stream byte-identical.

    Frame faults ride a :class:`ChaosProxy`; the pooled variant additionally
    SIGKILLs one worker and duty-cycle stalls another mid-stream.  The
    self-healing client must reconnect/resume/replay unaided and deliver
    per-register results (witnesses included) plus a window-frame stream
    structurally identical to the fault-free baseline.  On divergence the
    plan is shrunk to a minimal failing clause set and saved under
    ``tests/chaos_plans/`` (uploaded by the CI chaos-smoke job).
    """
    seed = TEST_SEED + schedule
    ops = practical_history(random.Random(seed), 300, num_clients=6).operations
    plan = pool_fault_plan(seed) if workers else frame_fault_plan(seed)
    baseline = asyncio.run(fault_free_run(ops, workers=workers or None))

    failure, counts = parity_failure(
        baseline, ops, plan, tmp_path,
        workers=workers or None, worker_chaos=bool(workers),
    )
    if failure is not None:
        minimized = minimize_plan(
            plan,
            lambda candidate: parity_failure(
                baseline, ops, candidate, tmp_path,
                workers=workers or None, worker_chaos=bool(workers),
            )[0] is not None,
        )
        PLANS_DIR.mkdir(exist_ok=True)
        path = minimized.save(
            PLANS_DIR / f"failing-{minimized.name}-{seed:#x}.json"
        )
        pytest.fail(
            f"chaos parity broken under seed {seed:#x}: {failure}; "
            f"minimized fault plan saved to {path}"
        )
    assert counts, "the schedule must actually inject faults"


@pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "pool-2"])
def test_resume_racing_the_old_handler_heals(tmp_path, workers):
    """A resume that reaches the server before the dropped connection's
    handler has released the session is refused as retryable, and heals.

    The old handler is held after its stream ends — before it releases the
    session id — until the session has been refused twice, which the old
    non-retryable refusal never survived (the client's fresh-start fallback
    is refused too).  The healed run must match the fault-free one.
    """
    ops = practical_history(random.Random(TEST_SEED), 120, num_clients=4).operations
    baseline_report, baseline_windows = asyncio.run(fault_free_run(ops, workers=workers))

    async def scenario():
        server = AuditServer(port=0, workers=workers, checkpoint_dir=tmp_path)
        await server.start()
        release = asyncio.Event()
        refused = []
        run_session, open_session = server._run_session, server._open_session

        async def held_run_session(reader, writer):
            try:
                return await run_session(reader, writer)
            finally:
                if not release.is_set():  # the dropped connection
                    await release.wait()

        async def counted_open_session(hello):
            try:
                return await open_session(hello)
            except SessionBusy:
                refused.append(bool(hello.get("resume")))
                if len(refused) == 2:
                    release.set()
                raise

        server._run_session = held_run_session
        server._open_session = counted_open_session
        try:
            client = ResilientAuditClient(
                server.addresses[0], session="baseline", k=2, window=50, witness=True,
            )
            await client.feed_ops(ops[:70])
            await client.checkpoint()
            await client.close()  # drop the connection mid-stream
            await client.feed_ops(ops[70:])
            report = await client.finish()
            return report, client.windows, refused
        finally:
            release.set()
            await server.stop()

    report, windows, refused = asyncio.run(scenario())
    assert refused == [True, True]
    assert {k: result_signature(v) for k, v in report.results.items()} == {
        k: result_signature(v) for k, v in baseline_report.results.items()
    }
    assert [window_signature(w) for w in windows] == [
        window_signature(w) for w in baseline_windows
    ]


def test_resilient_client_survives_resume_refusal():
    """With no checkpoint store, a severed stream falls back to fresh replay."""
    ops = practical_history(random.Random(TEST_SEED), 120).operations
    plan = FaultPlan(seed=TEST_SEED).add(
        "frame_drop", probability=1.0, max_injections=1, direction="c2s"
    )

    async def scenario():
        server = AuditServer(port=0)  # deliberately no checkpoint_dir
        await server.start()
        try:
            async with ChaosProxy(server.addresses[0], plan) as proxy:
                client = ResilientAuditClient(
                    proxy.address, session="norestore", k=2, window=50, witness=True
                )
                await client.feed_ops(ops)
                report = await client.finish()
                return report, client.retries
        finally:
            await server.stop()

    report, retries = asyncio.run(scenario())
    assert retries >= 1
    assert report.ops == len(ops)
    assert all(bool(r) for r in report.results.values())


def test_window_frames_survive_loss_after_covering_checkpoint(tmp_path):
    """A window frame lost in flight is re-delivered from the window log.

    The hole this guards: a window closes, its frame is dropped by the
    network, and a checkpoint then covers the window's operations — replay
    resumes *after* the checkpoint, so without the persisted window log the
    verdict would be gone for good.
    """
    ops = practical_history(random.Random(TEST_SEED), 120).operations

    async def scenario():
        server = AuditServer(port=0, checkpoint_dir=tmp_path)
        await server.start()
        try:
            address = server.addresses[0]
            first_windows = []
            client = await AuditClient.connect(
                address, session="wlog", k=2, window=30,
                on_window=first_windows.append,
            )
            await client.feed_ops(ops[:70])  # closes windows 0 and 1
            await client.checkpoint()  # covers them
            await client.close()  # vanish without finishing

            redelivered = []
            client = await AuditClient.connect(
                address, session="wlog", k=2, window=30, resume=True,
                on_window=redelivered.append,
            )
            assert client.resumed and client.ops_restored == 70
            await client.feed_ops(ops[70:])
            report = await client.finish()
            return first_windows, redelivered, report
        finally:
            await server.stop()

    first_windows, redelivered, report = asyncio.run(scenario())
    assert len(first_windows) == 2
    # The resumed connection re-delivers both logged frames byte-identically,
    # then streams the remaining windows.
    assert redelivered[: len(first_windows)] == first_windows
    assert report.ops == len(ops)


# ----------------------------------------------------------------------
# Typed failure taxonomy
# ----------------------------------------------------------------------
def test_drain_raises_typed_exception_with_resume_token(tmp_path):
    ops = practical_history(random.Random(TEST_SEED), 60).operations

    async def scenario():
        server = AuditServer(port=0, checkpoint_dir=tmp_path)
        await server.start()
        try:
            client = await AuditClient.connect(
                server.addresses[0], session="draining", k=2, window=30
            )
            await client.feed_ops(ops[:40])
            await client.checkpoint()  # sync: feed frames are pipelined
            await server.drain()
            with pytest.raises(ServerDraining) as excinfo:
                await client.finish()
            return excinfo.value
        finally:
            await server.stop()

    exc = asyncio.run(scenario())
    assert exc.retryable and exc.code == "draining"
    assert exc.session == "draining"
    assert exc.ops == 40
    assert exc.resumable and exc.checkpoints >= 1


def test_overload_raises_typed_retryable_error():
    async def scenario():
        server = AuditServer(port=0, max_active_sessions=1)
        await server.start()
        try:
            first = await AuditClient.connect(server.addresses[0], session="one")
            with pytest.raises(ServerOverloaded) as excinfo:
                await AuditClient.connect(server.addresses[0], session="two")
            await first.close()
            await asyncio.sleep(0.05)  # let the server reap the session
            second = await AuditClient.connect(server.addresses[0], session="two")
            await second.close()
            return excinfo.value
        finally:
            await server.stop()

    exc = asyncio.run(scenario())
    assert exc.retryable and exc.code == "overloaded"


def test_idle_watchdog_checkpoints_and_raises_typed_error(tmp_path):
    ops = practical_history(random.Random(TEST_SEED), 50).operations

    async def scenario():
        server = AuditServer(
            port=0, checkpoint_dir=tmp_path, session_idle_timeout=0.2
        )
        await server.start()
        try:
            client = await AuditClient.connect(
                server.addresses[0], session="idler", k=2
            )
            await client.feed_ops(ops[:30])
            await asyncio.sleep(0.6)  # trip the watchdog
            with pytest.raises(SessionIdleTimeout) as excinfo:
                await client.finish()
            resumed = await AuditClient.connect(
                server.addresses[0], session="idler", k=2, resume=True
            )
            restored = resumed.ops_restored
            await resumed.feed_ops(ops[30:])
            report = await resumed.finish()
            return excinfo.value, restored, report
        finally:
            await server.stop()

    exc, restored, report = asyncio.run(scenario())
    assert exc.retryable and exc.code == "idle_timeout"
    assert restored == 30  # the watchdog checkpointed before closing
    assert report.ops == len(ops)


def test_crash_loop_detection_raises_typed_error():
    from repro.service.session import SessionConfig
    from repro.service import PooledAuditSession, WorkerPool

    ops = practical_history(random.Random(TEST_SEED), 80).operations
    config = SessionConfig(k=2, algorithm="lbt", window_mode="count", window_size=16)

    async def scenario():
        import os, signal as sig

        pool = WorkerPool(1, crash_loop_threshold=2, crash_loop_window_s=60.0)
        await pool.start()
        try:
            session = PooledAuditSession.start("loopy", config, pool)
            for op in ops[:20]:
                await session.afeed(op)
            for _ in range(3):  # past the threshold of 2
                pids = pool.worker_pids()
                if not pids:
                    break
                os.kill(pids[0], sig.SIGKILL)
                await asyncio.sleep(0.3)
            with pytest.raises(WorkerCrashLoopError):
                for op in ops[20:]:
                    await session.afeed(op)
        finally:
            await pool.stop()

    asyncio.run(scenario())


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ServiceError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ServiceError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ServiceError):
        RetryPolicy(base_delay_s=-1.0)
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
    rng = random.Random(0)
    assert policy.delay_s(0, rng) == pytest.approx(0.1)
    assert policy.delay_s(1, rng) == pytest.approx(0.2)
    assert policy.delay_s(10, rng) == pytest.approx(0.5)  # capped
    with pytest.raises(ServiceError):
        ResilientAuditClient("tcp:127.0.0.1:1", session="")
    with pytest.raises(ServiceError):
        ResilientAuditClient("tcp:127.0.0.1:1", session="x", checkpoint_every=0)


def test_chaos_proxy_rejects_unix_upstream():
    plan = FaultPlan(seed=1).add("frame_drop")
    with pytest.raises(ServiceError):
        ChaosProxy("unix:/tmp/sock", plan)
    proxy = ChaosProxy("tcp:127.0.0.1:1", plan)
    with pytest.raises(ServiceError):
        proxy.address  # not started


def test_retryable_taxonomy_is_typed_not_parsed():
    assert ServerOverloaded("x").retryable
    assert SessionIdleTimeout("x").retryable
    assert ServerDraining().retryable
    assert not WorkerCrashLoopError("x").retryable
    assert not ServiceError("x").retryable
    assert issubclass(ServerDraining, RetryableServiceError)
    token = ServerDraining(session="s", ops=9, checkpoints=2, resumable=True)
    assert (token.session, token.ops, token.checkpoints, token.resumable) == (
        "s", 9, 2, True
    )
