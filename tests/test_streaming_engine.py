"""Unit tests for the streaming verification engine."""

import random

import pytest

from repro.analysis.report import StreamVerificationReport, TraceVerificationReport
from repro.core.api import verify
from repro.core.errors import DuplicateValueError, VerificationError
from repro.core.history import History
from repro.core.operation import read, write
from repro.core.windows import WindowPolicy
from repro.engine import Engine, StreamingEngine
from repro.workloads.synthetic import synthetic_trace


def completion_order(ops):
    return sorted(ops, key=lambda op: (op.finish, op.op_id))


def trace_stream(trace):
    return completion_order(op for key in trace.keys() for op in trace[key].operations)


@pytest.fixture
def small_trace():
    return synthetic_trace(random.Random(5), 4, 40, staleness_probability=0.2)


class TestConfiguration:
    def test_invalid_mode_rejected(self):
        with pytest.raises(VerificationError):
            StreamingEngine(mode="batch")

    def test_rolling_rejects_process_executor(self):
        with pytest.raises(VerificationError):
            StreamingEngine(executor="processes")

    def test_rolling_refuses_jobs(self):
        with pytest.raises(VerificationError, match="windowed"):
            StreamingEngine(jobs=2)
        assert StreamingEngine(jobs=1).jobs == 1

    def test_only_windowed_mode_builds_a_batch_engine(self):
        assert StreamingEngine(mode="rolling")._batch_engine is None
        assert StreamingEngine(mode="windowed")._batch_engine is not None

    def test_windowed_accepts_process_executor(self):
        engine = StreamingEngine(mode="windowed", executor="processes", jobs=2)
        assert engine.executor.name == "processes"

    def test_invalid_jobs_rejected(self):
        with pytest.raises(VerificationError):
            StreamingEngine(jobs=0)

    def test_invalid_k_rejected(self, small_trace):
        with pytest.raises(VerificationError):
            StreamingEngine().verify_stream(trace_stream(small_trace), 0)


class TestRollingMode:
    def test_report_shape(self, small_trace):
        ops = trace_stream(small_trace)
        report = StreamingEngine(window=WindowPolicy.count(50)).verify_stream(ops, 2)
        assert isinstance(report, StreamVerificationReport)
        assert report.mode == "rolling"
        assert report.total_ops == len(ops)
        assert report.num_registers == len(small_trace)
        assert report.num_windows == len(report.timeline)
        assert report.window == "count(50)"

    def test_on_window_called_per_window(self, small_trace):
        ops = trace_stream(small_trace)
        calls = []
        report = StreamingEngine(window=WindowPolicy.count(30)).verify_stream(
            ops, 2, on_window=calls.append
        )
        assert [w.stats.index for w in calls] == [
            w.stats.index for w in report.timeline
        ]

    def test_peek_windows_match_exact_final_verdicts(self, small_trace):
        ops = trace_stream(small_trace)
        exact = StreamingEngine(window=WindowPolicy.count(25)).verify_stream(ops, 2)
        peeked = StreamingEngine(
            window=WindowPolicy.count(25), check_per_window=False
        ).verify_stream(ops, 2)
        assert {k: bool(v) for k, v in exact.results.items()} == {
            k: bool(v) for k, v in peeked.results.items()
        }
        # Peeked windows still carry verdict objects for every touched register.
        assert all(w.verdicts for w in peeked.timeline)

    def test_time_windows_supported(self, small_trace):
        ops = trace_stream(small_trace)
        span = ops[-1].finish - ops[0].finish
        report = StreamingEngine(
            window=WindowPolicy.time(max(span / 5, 1e-6))
        ).verify_stream(ops, 1)
        assert report.num_windows >= 2
        assert report.total_ops == len(ops)

    def test_empty_stream(self):
        report = StreamingEngine().verify_stream([], 2)
        assert report.num_windows == 0
        assert report.num_registers == 0
        assert report.is_k_atomic  # vacuously


class TestTimeline:
    def test_first_alarm_location(self):
        # Register "bad" turns non-linearizable in the second window.
        ops = [
            write("a", 0.0, 1.0, key="bad"),
            read("a", 2.0, 3.0, key="bad"),
            write("b", 4.0, 5.0, key="bad"),
            read("a", 6.0, 7.0, key="bad"),  # stale: not 1-atomic
        ]
        report = StreamingEngine(window=WindowPolicy.count(2)).verify_stream(ops, 1)
        alarm = report.first_alarm
        assert alarm is not None
        window_index, key, verdict = alarm
        assert key == "bad" and window_index == 1
        assert verdict.final and not verdict

    def test_to_trace_report_round_trip(self, small_trace):
        ops = trace_stream(small_trace)
        streaming = StreamingEngine(window=WindowPolicy.count(40)).verify_stream(ops, 2)
        merged = streaming.to_trace_report()
        assert isinstance(merged, TraceVerificationReport)
        assert merged.executor == "streaming-rolling"
        assert merged.num_shards == streaming.num_windows
        assert merged.total_ops == streaming.total_ops
        assert {k: bool(v) for k, v in merged.results.items()} == {
            k: bool(v) for k, v in streaming.results.items()
        }
        assert merged.summary()  # renders

    def test_render_outputs_timeline_and_failures(self):
        ops = [
            write("a", 0.0, 1.0, key="r"),
            write("b", 2.0, 3.0, key="r"),
            read("a", 4.0, 5.0, key="r"),
        ]
        report = StreamingEngine(window=WindowPolicy.count(2)).verify_stream(ops, 1)
        text = report.render()
        assert "window timeline:" in text
        assert "failing registers:" in text

    def test_window_report_render_lines(self, small_trace):
        ops = trace_stream(small_trace)
        captured = []
        StreamingEngine(window=WindowPolicy.count(30)).verify_stream(
            ops, 2, on_window=captured.append
        )
        lines = captured[0].render_lines()
        assert lines[0].startswith("[window ")
        assert len(lines) == 1 + len(captured[0].verdicts)


class TestWindowedMode:
    def test_pending_reads_do_not_false_alarm_across_windows(self):
        # Write and read overlap; the read completes first and lands one
        # window before its dictating write.  Windowed mode must wait, not
        # report a spurious anomaly.
        ops = [
            write("x", 0.0, 1.0, key="r"),
            read("x", 1.5, 2.0, key="r"),
            read("y", 2.5, 3.0, key="r"),  # completes before write("y") does
            write("y", 2.4, 4.0, key="r"),
            read("y", 5.0, 6.0, key="r"),
        ]
        report = StreamingEngine(
            window=WindowPolicy.count(2), mode="windowed"
        ).verify_stream(ops, 2)
        assert bool(report.results["r"]), report.results["r"].reason

    def test_never_written_value_is_anomaly_at_end(self):
        ops = [
            write("x", 0.0, 1.0, key="r"),
            read("ghost", 2.0, 3.0, key="r"),
        ]
        report = StreamingEngine(
            window=WindowPolicy.count(10), mode="windowed"
        ).verify_stream(ops, 2)
        result = report.results["r"]
        assert not result and "ever assigned" in result.reason

    def test_dictating_write_injected_for_stale_cross_window_reads(self):
        # A read in window 2 returns the value written in window 0; the
        # carried write must be injected so the window verifies (2-atomically)
        # rather than failing with a missing-write anomaly.
        ops = [
            write("a", 0.0, 1.0, key="r"),
            read("a", 2.0, 3.0, key="r"),
            write("b", 4.0, 5.0, key="r"),
            read("b", 6.0, 7.0, key="r"),
            read("a", 8.0, 9.0, key="r"),  # stale read of window-0 value
            read("b", 10.0, 11.0, key="r"),
        ]
        report = StreamingEngine(
            window=WindowPolicy.count(2), mode="windowed"
        ).verify_stream(ops, 2)
        assert bool(report.results["r"]), report.results["r"].reason
        # The same trace is NOT 1-atomic, and windowed mode must catch it
        # inside the window containing the stale read.
        report1 = StreamingEngine(
            window=WindowPolicy.count(2), mode="windowed"
        ).verify_stream(ops, 1)
        assert not report1.results["r"]
        assert report1.first_alarm is not None

    def test_ops_seen_is_per_register_like_rolling_mode(self):
        ops = [
            write("a", 0.0, 1.0, key="r1"),
            write("x", 0.5, 1.5, key="r2"),
            write("b", 2.0, 3.0, key="r1"),
            read("a", 4.0, 5.0, key="r1"),  # r1 not 1-atomic after its 3rd op
            read("x", 4.5, 5.5, key="r2"),
        ]
        report = StreamingEngine(
            window=WindowPolicy.count(len(ops)), mode="windowed"
        ).verify_stream(ops, 1)
        alarm = report.first_alarm
        assert alarm is not None
        _, key, verdict = alarm
        assert key == "r1"
        # Stamped with r1's own stream count (3), not the global count (5).
        assert verdict.ops_seen == 3

    def test_final_yes_is_labelled_approximate(self, small_trace):
        ops = trace_stream(small_trace)
        report = StreamingEngine(
            window=WindowPolicy.count(30), mode="windowed"
        ).verify_stream(ops, 2)
        for result in report.results.values():
            if result:
                assert result.algorithm == "windowed"
                assert "approximation" in result.reason


class TestArrivalFeed:
    """Checkers take each operation as it arrives; windows only pay checks."""

    def test_time_boundary_op_opens_the_next_window(self):
        # r(a) crosses the boundary at 11, so it belongs to window 1: window
        # 0 must be checked before r(a) reaches the checker.
        ops = [write("a", 0, 1, key="x"), write("b", 2, 3, key="x"),
               read("a", 12, 13, key="x")]
        report = StreamingEngine(window=WindowPolicy.time(10.0)).verify_stream(ops, 1)
        first, second = (w.verdicts["x"] for w in report.timeline)
        assert (bool(first), first.ops_seen) == (True, 2)
        assert (bool(second), second.ops_seen) == (False, 3)
        # A count window's last op belongs to it: checked with that op.
        report = StreamingEngine(window=WindowPolicy.count(3)).verify_stream(ops, 1)
        (only,) = (w.verdicts["x"] for w in report.timeline)
        assert (bool(only), only.ops_seen) == (False, 3)

    def test_duplicate_write_raises_at_the_offending_op(self):
        session = StreamingEngine(window=WindowPolicy.count(8)).open_session(2)
        session.feed(write("a", 0, 1, key="x"))
        with pytest.raises(DuplicateValueError):
            session.feed(write("a", 2, 3, key="x"))

    @pytest.mark.parametrize("policy", [
        WindowPolicy.count(5), WindowPolicy.count(5, overlap=2),
        WindowPolicy.time(3.0), WindowPolicy.time(3.0, overlap=1.0),
    ], ids=lambda p: p.describe())
    @pytest.mark.parametrize("tier", ["exact", "screen", "auto"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_window_verdicts_match_verify_stream_and_batch_prefixes(self, policy, tier, k):
        trace = synthetic_trace(
            random.Random(11 * k), 3, 12, staleness_probability=0.3, max_staleness=2
        )
        ops = trace_stream(trace)
        engine = StreamingEngine(window=policy, tier=tier)
        session = engine.open_session(k)
        reports, fed = [], []
        for op in ops:
            if policy.mode == "count":
                fed.append(op)  # a count window closes on its own last op
            report = session.feed(op)
            if report is not None:
                reports.append((report, list(fed)))
            if policy.mode == "time":
                fed.append(op)  # a time window closes on the next window's first op
        final = session.finish()
        if len(final.timeline) > len(reports):
            reports.append((final.timeline[-1], fed))

        streamed = []
        reference = engine.verify_stream(ops, k, on_window=streamed.append)
        assert len(streamed) == len(reports) == reference.num_windows
        for (report, _), other in zip(reports, streamed):
            assert report.stats.num_registers == other.stats.num_registers
            assert report.tiers == other.tiers
            assert {key: (bool(v), v.ops_seen, v.final) for key, v in report.verdicts.items()} \
                == {key: (bool(v), v.ops_seen, v.final) for key, v in other.verdicts.items()}
        assert {key: bool(r) for key, r in final.results.items()} \
            == {key: bool(r) for key, r in reference.results.items()}
        for report, prefix in reports:
            for key, verdict in report.verdicts.items():
                if report.tiers.get(key, "check") != "check":
                    continue  # a screened window's verdict is the last check's
                register = [op for op in prefix if op.key == key]
                batch = verify(History(register), k)
                assert (bool(verdict), verdict.ops_seen) == (bool(batch), len(register)), (
                    report.stats.index, key)
