"""Unit tests for the command-line interface."""

import io

import pytest

import repro
from repro.cli import build_parser, main
from repro.core.history import MultiHistory
from repro.io.formats import dump_csv, dump_jsonl
from repro.workloads.synthetic import exactly_k_atomic_history, serial_history


@pytest.fixture
def trace_path(tmp_path):
    ops = []
    ops.extend(serial_history(4, 1, key="fresh").operations)
    ops.extend(exactly_k_atomic_history(2, 4, key="lagging").operations)
    path = tmp_path / "trace.jsonl"
    dump_jsonl(MultiHistory(ops), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify", "t.jsonl"])
        assert args.k == 2 and args.algorithm == "auto"

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])


class TestVerifyCommand:
    def test_verify_k2_passes_both_registers(self, trace_path):
        out = io.StringIO()
        status = main(["verify", str(trace_path), "--k", "2"], out=out)
        assert status == 0
        text = out.getvalue()
        assert "2/2 registers are 2-atomic" in text

    def test_verify_k1_reports_failure(self, trace_path):
        out = io.StringIO()
        status = main(["verify", str(trace_path), "--k", "1"], out=out)
        assert status == 0  # non-strict mode always exits 0
        assert "1/2 registers are 1-atomic" in out.getvalue()

    def test_strict_mode_exit_status(self, trace_path):
        assert main(["verify", str(trace_path), "--k", "1", "--strict"], out=io.StringIO()) == 1
        assert main(["verify", str(trace_path), "--k", "2", "--strict"], out=io.StringIO()) == 0

    def test_explicit_algorithm(self, trace_path):
        out = io.StringIO()
        main(["verify", str(trace_path), "--k", "2", "--algorithm", "lbt"], out=out)
        assert "LBT" in out.getvalue()

    def test_csv_traces_supported(self, tmp_path):
        ops = serial_history(3, 1, key="only").operations
        path = tmp_path / "trace.csv"
        dump_csv(MultiHistory(ops), path)
        out = io.StringIO()
        assert main(["verify", str(path), "--k", "1"], out=out) == 0
        assert "1/1 registers" in out.getvalue()


class TestAuditCommand:
    def test_audit_renders_report(self, trace_path):
        out = io.StringIO()
        status = main(["audit", str(trace_path)], out=out)
        assert status == 0
        text = out.getvalue()
        assert "staleness spectrum" in text
        assert "fresh" in text and "lagging" in text


class TestSimulateCommand:
    def test_simulate_writes_trace_and_verifies(self, tmp_path):
        out_path = tmp_path / "sim.jsonl"
        out = io.StringIO()
        status = main(
            [
                "simulate",
                "--out",
                str(out_path),
                "--replicas",
                "3",
                "--read-quorum",
                "2",
                "--write-quorum",
                "2",
                "--clients",
                "4",
                "--ops-per-client",
                "10",
                "--keys",
                "2",
                "--seed",
                "5",
            ],
            out=out,
        )
        assert status == 0
        assert out_path.exists()
        assert "wrote" in out.getvalue()
        # The recorded trace is immediately verifiable by the verify command.
        verify_out = io.StringIO()
        assert main(["verify", str(out_path), "--k", "2"], out=verify_out) == 0


class TestEngineFlags:
    def test_engine_defaults(self):
        args = build_parser().parse_args(["verify", "t.jsonl"])
        assert args.engine == "serial" and args.jobs is None
        assert args.partitioner == "size-balanced"

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "t.jsonl", "--engine", "gpu"])

    @pytest.mark.parametrize("engine", ["serial", "processes"])
    def test_engines_agree_on_verdicts(self, trace_path, engine):
        out = io.StringIO()
        status = main(
            ["verify", str(trace_path), "--k", "2", "--engine", engine, "--jobs", "2"],
            out=out,
        )
        assert status == 0
        assert "2/2 registers are 2-atomic" in out.getvalue()

    def test_parallel_run_prints_engine_summary(self, trace_path):
        out = io.StringIO()
        main(
            ["verify", str(trace_path), "--k", "2", "--engine", "processes", "--jobs", "2"],
            out=out,
        )
        assert "shards via processes" in out.getvalue()

    def test_partitioner_flag_accepted(self, trace_path):
        out = io.StringIO()
        status = main(
            ["verify", str(trace_path), "--k", "2", "--partitioner", "hash"], out=out
        )
        assert status == 0

    def test_non_positive_jobs_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "t.jsonl", "--jobs", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "t.jsonl", "--jobs", "-2"])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestOnlineVerify:
    def test_online_flag_defaults(self):
        args = build_parser().parse_args(["verify", "t.jsonl", "--online"])
        assert args.online and args.window == 256
        assert args.window_mode == "count" and args.stream_mode == "rolling"

    def test_online_verdicts_match_offline(self, trace_path):
        offline, online = io.StringIO(), io.StringIO()
        assert main(["verify", str(trace_path), "--k", "2"], out=offline) == 0
        assert (
            main(
                ["verify", str(trace_path), "--k", "2", "--online", "--window", "5"],
                out=online,
            )
            == 0
        )
        assert "2/2 registers are 2-atomic" in online.getvalue()
        assert "window timeline:" in online.getvalue()

    def test_online_strict_exit_status(self, trace_path):
        status = main(
            ["verify", str(trace_path), "--k", "1", "--online", "--strict"],
            out=io.StringIO(),
        )
        assert status == 1

    def test_online_windowed_mode(self, trace_path):
        out = io.StringIO()
        status = main(
            [
                "verify",
                str(trace_path),
                "--k",
                "2",
                "--online",
                "--window",
                "6",
                "--overlap",
                "2",
                "--stream-mode",
                "windowed",
            ],
            out=out,
        )
        assert status == 0
        assert "windowed" in out.getvalue()

    def test_online_rolling_rejects_process_engine(self, trace_path):
        out = io.StringIO()
        status = main(
            ["verify", str(trace_path), "--online", "--engine", "processes"],
            out=out,
        )
        assert status == 2
        assert "shared-memory" in out.getvalue()


class TestServeAndRemote:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port is None and args.queue_size == 1024

    def test_serve_checkpoint_every_without_dir_is_a_clean_error(self):
        out = io.StringIO()
        status = main(["serve", "--checkpoint-every", "5"], out=out)
        assert status == 2
        assert "checkpoint_dir" in out.getvalue()

    def test_remote_flag_parses(self):
        args = build_parser().parse_args(
            ["verify", "t.jsonl", "--remote", "unix:/tmp/a.sock", "--session", "s1"]
        )
        assert args.remote == "unix:/tmp/a.sock" and args.session == "s1"

    def test_remote_rejects_local_execution_flags(self, trace_path):
        out = io.StringIO()
        status = main(
            [
                "verify",
                str(trace_path),
                "--remote",
                "127.0.0.1:1",
                "--online",
                "--engine",
                "processes",
            ],
            out=out,
        )
        assert status == 2
        assert "--online" in out.getvalue() and "--engine" in out.getvalue()

    def test_remote_unreachable_reports_error(self, trace_path):
        out = io.StringIO()
        status = main(
            ["verify", str(trace_path), "--remote", "127.0.0.1:1"], out=out
        )
        assert status == 2
        assert "cannot audit via" in out.getvalue()

    def test_serve_then_remote_verify_round_trip(self, trace_path):
        import re
        import threading
        import time

        serve_out = io.StringIO()
        rc = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(["serve", "--port", "0", "--max-sessions", "1"], out=serve_out)
            )
        )
        thread.start()
        port = None
        for _ in range(200):
            found = re.search(r"listening on 127\.0\.0\.1:(\d+)", serve_out.getvalue())
            if found:
                port = int(found.group(1))
                break
            time.sleep(0.02)
        assert port is not None, serve_out.getvalue()

        out = io.StringIO()
        status = main(
            [
                "verify",
                str(trace_path),
                "--k",
                "2",
                "--remote",
                f"127.0.0.1:{port}",
                "--window",
                "8",
            ],
            out=out,
        )
        thread.join(timeout=15)
        assert not thread.is_alive() and rc == [0]
        assert status == 0
        text = out.getvalue()
        assert "2/2 registers are 2-atomic" in text
        assert "audit service" in serve_out.getvalue()  # final service report


class TestWatchCommand:
    def test_watch_defaults_to_stdin(self):
        args = build_parser().parse_args(["watch"])
        assert args.trace == "-" and args.k == 2 and args.window == 64

    def test_watch_file_emits_intermediate_verdicts(self, trace_path):
        out = io.StringIO()
        status = main(["watch", str(trace_path), "--k", "2", "--window", "5"], out=out)
        assert status == 0
        text = out.getvalue()
        # At least two window blocks closed before the end-of-stream summary,
        # i.e. verdicts existed mid-stream.
        assert text.count("[window ") >= 2
        assert "provisional" in text
        assert "2-atomic: YES" in text

    def test_watch_stdin_stream(self, trace_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", open(trace_path, "r", encoding="utf-8"))
        out = io.StringIO()
        status = main(["watch", "-", "--k", "1", "--window", "4", "--strict"], out=out)
        assert status == 1  # the 'lagging' register is not 1-atomic
        assert "[window " in out.getvalue()

    def test_watch_follow_consumes_growing_file(self, tmp_path, trace_path):
        # Non-growing file with an idle timeout: the tail path terminates and
        # still verifies everything that was appended.
        out = io.StringIO()
        status = main(
            [
                "watch",
                str(trace_path),
                "--follow",
                "--idle-timeout",
                "0.2",
                "--poll-interval",
                "0.05",
                "--window",
                "5",
            ],
            out=out,
        )
        assert status == 0
        assert "[window " in out.getvalue()
