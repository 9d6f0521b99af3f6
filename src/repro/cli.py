"""Command-line interface for trace verification and store auditing.

Five subcommands cover the audit workflow — offline, online, and served —
end to end::

    python -m repro verify TRACE --k 2        # per-register k-AV verdicts
    python -m repro verify TRACE --online     # windowed streaming verification
    python -m repro verify TRACE --remote A   # stream the trace to a server
    python -m repro verify H --format jepsen  # verify a foreign (Jepsen) history
    python -m repro watch TRACE --follow      # rolling verdicts while a log grows
    python -m repro audit TRACE               # staleness spectrum + report
    python -m repro serve --port 7400         # run the concurrent audit service
    python -m repro simulate --out TRACE ...  # record a sloppy-quorum trace
    python -m repro convert A B --to jepsen   # convert between trace formats
    python -m repro formats                   # list the registered formats
    python -m repro experiment run SPEC       # run a declarative experiment grid
    python -m repro chaos kinds               # list fault-injection kinds
    python -m repro chaos trace PLAN --out T  # hostile trace from a fault plan

``watch`` reads JSON Lines from a file, a growing log (``--follow``) or
stdin (``-``) and prints a verdict block every time a window closes, so a
piped stream yields intermediate verdicts long before end-of-input.
``serve`` runs the audit service of :mod:`repro.service` — many concurrent
sessions, rolling verdicts, checkpoint/resume — and ``verify --remote``
streams a trace to such a server instead of verifying in-process.  Trace
formats are resolved by the format registry (:mod:`repro.io.registry`):
native JSON Lines and CSV plus the foreign Jepsen/Porcupine adapters,
sniffed by extension or forced with ``--format``.  ``experiment run``
executes the declarative grids of :mod:`repro.experiments` (the canned specs
under ``experiments/`` regenerate the paper's evaluation).  The CLI is a
thin layer over the library API so that everything it does can also be
scripted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .analysis.report import audit_trace, format_table
from .core.errors import VerificationError
from .core.windows import WindowPolicy
from .engine import Engine, StreamingEngine
from .io.formats import dump_jsonl, follow_jsonl, iter_jsonl_handle, load_trace, stream_trace
from .io.registry import FORMATS, available_formats, dump_trace, resolve_format
from .simulation import ExponentialLatency, QuorumConfig, SloppyQuorumStore, StoreConfig
from .workloads import UniformKeys, WorkloadSpec, ZipfianKeys

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _window_policy(args: argparse.Namespace) -> WindowPolicy:
    """Build the window policy from --window/--window-mode/--overlap flags.

    Values are passed through unrounded; WindowPolicy rejects fractional
    sizes/overlaps in count mode instead of silently truncating them.
    """
    return WindowPolicy(
        mode=args.window_mode, size=args.window, overlap=args.overlap
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    """The trace-format flag, with choices drawn from the format registry.

    The registry (:mod:`repro.io.registry`) is the single source of truth:
    adding a format there makes it selectable here (and sniffable by
    extension) without touching the CLI.
    """
    parser.add_argument(
        "--format",
        dest="fmt",
        default=None,
        choices=sorted(FORMATS),
        help="trace format (default: sniffed from the file extension)",
    )


def _add_window_flags(parser: argparse.ArgumentParser, *, default_window: float) -> None:
    parser.add_argument(
        "--window",
        type=float,
        default=default_window,
        help=f"window size: operations, or time units with --window-mode time "
        f"(default {default_window:g})",
    )
    parser.add_argument(
        "--window-mode",
        choices=["count", "time"],
        default="count",
        dest="window_mode",
        help="cut windows by operation count or by finish-timestamp grid (default count)",
    )
    parser.add_argument(
        "--overlap",
        type=float,
        default=0,
        help="sliding-window overlap margin carried between windows (default 0: tumbling)",
    )
    parser.add_argument(
        "--stream-mode",
        choices=["rolling", "windowed"],
        default="rolling",
        dest="stream_mode",
        help="rolling: persistent incremental checkers (exact final verdicts); "
        "windowed: independent per-window batch verification (window-bounded "
        "buffering, approximate YES verdicts)",
    )


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _print_results_table(results, k, out, *, op_counts=None, epilogue="") -> int:
    """Render the per-register verdict table shared by the local and remote
    ``verify`` paths; returns the number of failing registers."""
    headers = ["key"] + (["ops"] if op_counts is not None else [])
    headers += [f"{k}-atomic", "algorithm", "reason"]
    rows = []
    failures = 0
    for key in sorted(results, key=repr):
        result = results[key]
        if not result:
            failures += 1
        row = [key] + ([op_counts[key]] if op_counts is not None else [])
        row += [
            "YES" if result else "NO",
            result.algorithm,
            result.reason if not result else "",
        ]
        rows.append(row)
    print(format_table(headers, rows), file=out)
    print(
        f"\n{len(results) - failures}/{len(results)} registers are "
        f"{k}-atomic{epilogue}",
        file=out,
    )
    return failures


def _cmd_verify(args: argparse.Namespace, out) -> int:
    if args.remote:
        return _cmd_verify_remote(args, out)
    if args.online:
        return _cmd_verify_online(args, out)
    if args.tier is not None:
        print(
            "error: --tier screens rolling stream windows only; add --online "
            "(batch verification always runs the exact check)",
            file=out,
        )
        return 2
    engine = Engine(
        executor=args.engine,
        jobs=args.jobs,
        partitioner=args.partitioner,
        algorithm=args.algorithm,
        max_exact_ops=args.max_exact_ops,
        kernel=args.kernel,
    )
    # Any format, .rcol included: the engine reads the file as columns and
    # reports each register's size, so the trace is decoded once.
    report = engine.verify_file(args.trace, args.k, fmt=args.fmt)
    failures = _print_results_table(
        report.results, args.k, out, op_counts=report.register_sizes
    )
    if args.engine != "serial" or args.jobs:
        print(report.summary(), file=out)
    return 1 if failures and args.strict else 0


def _cmd_verify_remote(args: argparse.Namespace, out) -> int:
    """The --remote path of ``verify``: stream the trace to an audit server."""
    from .core.errors import ServiceError
    from .service import verify_remote

    # Local-execution flags have no effect on a remote session; refuse the
    # combination loudly rather than silently dropping what the user asked for.
    conflicts = [
        flag
        for flag, used in (
            ("--online", args.online),
            ("--engine", args.engine != "serial"),
            ("--jobs", args.jobs is not None),
            ("--partitioner", args.partitioner != "size-balanced"),
            ("--kernel", args.kernel is not None),
            ("--tier", args.tier is not None),
            ("--stream-mode", args.stream_mode != "rolling"),
        )
        if used
    ]
    if conflicts:
        print(
            f"error: {', '.join(conflicts)} select local execution and cannot "
            "be combined with --remote (the server controls its own execution)",
            file=out,
        )
        return 2
    try:
        report = verify_remote(
            args.trace,
            args.k,
            address=args.remote,
            algorithm=args.algorithm,
            window=_window_policy(args),
            session=args.session,
            fmt=args.fmt,
        )
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"error: cannot audit via {args.remote}: {exc}", file=out)
        return 2
    failures = _print_results_table(
        report.results,
        args.k,
        out,
        epilogue=(
            f" (session {report.session_id!r} on {args.remote}: "
            f"{report.ops} ops, {report.num_windows} windows)"
        ),
    )
    return 1 if failures and args.strict else 0


def _cmd_verify_online(args: argparse.Namespace, out) -> int:
    """The --online path of ``verify``: windowed streaming over the trace."""
    if args.stream_mode == "rolling" and args.engine == "processes":
        print(
            "error: rolling streaming needs a shared-memory executor; use "
            "--engine serial or --stream-mode windowed",
            file=out,
        )
        return 2
    try:
        engine = StreamingEngine(
            window=_window_policy(args),
            mode=args.stream_mode,
            algorithm=args.algorithm,
            executor=args.engine,
            jobs=args.jobs,
            max_exact_ops=args.max_exact_ops,
            tier=args.tier,
        )
    except VerificationError as exc:  # e.g. a tier on windowed mode
        print(f"error: {exc}", file=out)
        return 2
    report = engine.verify_stream(stream_trace(args.trace, args.fmt), args.k)
    print(report.render(), file=out)
    if args.tier:
        print(report.summary(), file=out)
    print(
        f"\n{report.num_registers - len(report.failures)}/{report.num_registers} "
        f"registers are {args.k}-atomic",
        file=out,
    )
    return 1 if report.failures and args.strict else 0


def _cmd_watch(args: argparse.Namespace, out) -> int:
    """Rolling verdicts over a JSONL stream: stdin, a file, or a growing log."""
    state_store = None
    if args.retain_windows is not None:
        if args.state_dir is None:
            print("error: --retain-windows needs --state-dir", file=out)
            return 2
        from .core.errors import StateError
        from .state import open_state_store

        try:
            state_store = open_state_store(args.state_backend, args.state_dir)
        except StateError as exc:
            print(f"error: {exc}", file=out)
            return 2
    elif args.state_dir is not None:
        print("error: --state-dir needs --retain-windows", file=out)
        return 2
    engine = StreamingEngine(
        window=_window_policy(args),
        mode=args.stream_mode,
        algorithm=args.algorithm,
        executor="serial",
        state_store=state_store,
        retain_windows=args.retain_windows,
    )
    if args.trace == "-":
        if args.fmt not in (None, "jsonl"):
            print(
                f"error: stdin streams are always JSON Lines; --format {args.fmt} "
                "applies only to files (convert first: repro convert)",
                file=out,
            )
            return 2
        ops = iter_jsonl_handle(sys.stdin, source="<stdin>")
    elif args.follow:
        # Resolve the format the non-follow path would use (flag or sniffed
        # extension), so `watch history.jepsen.json --follow` fails as
        # clearly as `--format jepsen --follow` does.
        resolved = resolve_format(args.trace, args.fmt).name
        if resolved != "jsonl":
            print(
                f"error: --follow tails JSON Lines logs; {resolved!r} "
                "is not a line-appendable format",
                file=out,
            )
            return 2
        ops = follow_jsonl(
            args.trace,
            poll_interval_s=args.poll_interval,
            idle_timeout_s=args.idle_timeout,
        )
    else:
        ops = stream_trace(args.trace, args.fmt)

    def on_window(window_report) -> None:
        for line in window_report.render_lines():
            print(line, file=out)
        if hasattr(out, "flush"):
            out.flush()

    try:
        report = engine.verify_stream(ops, args.k, on_window=on_window)
    finally:
        if state_store is not None:
            state_store.close()
    print("", file=out)
    print(report.summary(), file=out)
    failures = report.failures
    if failures:
        print("", file=out)
        print(
            format_table(
                ["key", "algorithm", "reason"],
                [[key, r.algorithm, r.reason] for key, r in failures.items()],
            ),
            file=out,
        )
    return 1 if failures and args.strict else 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Run the concurrent audit service until interrupted (or quota reached)."""
    import asyncio

    from .service import AuditServer
    from .service.session import SessionConfig

    from .core.errors import ServiceError, StateError

    port = args.port
    if port is None and args.unix is None:
        port = 7400
    try:
        server = AuditServer(
            host=args.host,
            port=port,
            unix_path=args.unix,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            queue_size=args.queue_size,
            max_sessions=args.max_sessions,
            default_config=SessionConfig(
                k=args.k,
                algorithm=args.algorithm,
                state_backend=args.state_backend,
                tier=args.tier,
            ),
            state_backend=args.state_backend,
            workers=args.workers,
            session_idle_timeout=args.idle_timeout,
            max_active_sessions=args.max_active,
        )
    except (ServiceError, StateError) as exc:
        print(f"error: {exc}", file=out)
        return 2

    async def run() -> None:
        import signal

        await server.start()
        # Graceful drain on SIGTERM/SIGINT: stop accepting, checkpoint every
        # live session at an operation boundary, then fall out of
        # serve_forever.  A second signal cancels the drain the hard way.
        loop = asyncio.get_running_loop()
        drain_task: list = []

        def _begin_drain(signame: str) -> None:
            if drain_task:
                for task in drain_task:
                    task.cancel()
                return
            print(f"{signame}: draining audit service...", file=out)
            if hasattr(out, "flush"):
                out.flush()
            drain_task.append(asyncio.ensure_future(server.drain()))

        for signame in ("SIGTERM", "SIGINT"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame), _begin_drain, signame
                )
            except (NotImplementedError, RuntimeError):  # non-unix loops
                pass
        for address in server.addresses:
            print(f"audit service listening on {address}", file=out)
        if hasattr(out, "flush"):
            out.flush()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print("", file=out)
    print(server.service_report().render(), file=out)
    return 0


def _cmd_chaos_kinds(args: argparse.Namespace, out) -> int:
    """List the registered fault kinds and the arm each one drives."""
    from .chaos import FAULT_KINDS

    rows = [[kind, domain] for kind, domain in sorted(FAULT_KINDS.items())]
    print(format_table(["kind", "domain"], rows), file=out)
    return 0


def _cmd_chaos_trace(args: argparse.Namespace, out) -> int:
    """Generate the hostile trace a fault plan's workload clauses describe."""
    from .chaos import load_plan
    from .core.errors import ReproError
    from .workloads.chaos import dump_chaos_fixtures, history_from_plan

    try:
        plan = load_plan(args.plan)
        ops = history_from_plan(plan)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if not ops:
        print(
            f"error: plan {plan.name!r} has no workload clauses "
            "(hot_key / indeterminate_storm / clock_skew)",
            file=out,
        )
        return 2
    count = dump_trace(iter(ops), args.out, "jsonl")
    print(
        f"plan {plan.name!r} (seed {plan.seed}): wrote {count} operations "
        f"to {args.out}",
        file=out,
    )
    if args.fixtures is not None:
        stem = Path(args.out).stem
        paths = dump_chaos_fixtures(ops, args.fixtures, stem)
        for fmt, path in sorted(paths.items()):
            print(f"wrote {fmt} fixture: {path}", file=out)
    return 0


def _cmd_audit(args: argparse.Namespace, out) -> int:
    trace = load_trace(args.trace, args.fmt)
    report = audit_trace(
        trace,
        title=f"consistency audit of {Path(args.trace).name}",
        resolve_exact=args.resolve_exact,
    )
    print(report.render(), file=out)
    return 0


def _cmd_convert(args: argparse.Namespace, out) -> int:
    """Convert a trace between registered formats.

    The writers materialise the operation list before emitting (the event
    formats must interleave and sort by time anyway), so conversion memory
    is O(trace) — same as ``load_trace`` — not constant.
    """
    from .core.errors import TraceFormatError

    try:
        source = resolve_format(args.source, args.from_fmt)
        target = resolve_format(args.target, args.to_fmt)
        count = dump_trace(source.reader(args.source), args.target, target.name)
    except TraceFormatError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(
        f"converted {count} operations: {args.source} ({source.name}) -> "
        f"{args.target} ({target.name})",
        file=out,
    )
    return 0


def _cmd_formats(args: argparse.Namespace, out) -> int:
    """List the registered trace formats and their sniffable extensions."""
    rows = []
    for name, description in available_formats().items():
        spec = FORMATS[name]
        rows.append([name, " ".join(spec.extensions), description])
    print(format_table(["format", "extensions", "description"], rows), file=out)
    return 0


def _cmd_experiment_run(args: argparse.Namespace, out) -> int:
    from .experiments import ExperimentError, load_spec, run_experiment, validate_report

    try:
        spec = load_spec(args.spec)
    except ExperimentError as exc:
        print(f"error: {exc}", file=out)
        return 2

    progress = None
    if not args.quiet:
        def progress(line: str) -> None:
            print(f"  {line}", file=out)
            if hasattr(out, "flush"):
                out.flush()

    trials = (spec.smoke() if args.smoke else spec).trials()
    print(
        f"running experiment {spec.name!r} ({spec.kind}): {len(trials)} trials"
        + (" [smoke]" if args.smoke else ""),
        file=out,
    )
    try:
        report = run_experiment(spec, smoke=args.smoke, progress=progress)
    except ExperimentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    validate_report(report.to_dict(), source=spec.name)  # the schema CI asserts
    paths = report.write(args.out)
    print("", file=out)
    print(report.render_text(), file=out)
    print("", file=out)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind:>4}: {path}", file=out)
    return 0


def _cmd_experiment_report(args: argparse.Namespace, out) -> int:
    from .experiments import ExperimentError, load_report

    try:
        report = load_report(args.report)
    except ExperimentError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.emit == "markdown":
        print(report.to_markdown(), file=out, end="")
    elif args.emit == "csv":
        print(report.to_csv(), file=out, end="")
    elif args.emit == "json":
        print(report.to_json(), file=out)
    else:  # table
        print(report.render_text(), file=out)
    return 0


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    config = StoreConfig(
        quorum=QuorumConfig(
            num_replicas=args.replicas,
            read_quorum=args.read_quorum,
            write_quorum=args.write_quorum,
            read_repair=args.read_repair,
        ),
        latency=ExponentialLatency(mean_ms=args.mean_latency_ms),
        drop_probability=args.drop_probability,
    )
    selector = UniformKeys(args.keys) if args.uniform_keys else ZipfianKeys(args.keys)
    workload = WorkloadSpec(
        num_clients=args.clients,
        operations_per_client=args.ops_per_client,
        write_ratio=args.write_ratio,
        key_selector=selector,
        mean_think_time_ms=args.think_time_ms,
        seed=args.seed,
    )
    result = SloppyQuorumStore(config, seed=args.seed).run(workload)
    count = dump_jsonl(result.history, args.out)
    print(result.summary(), file=out)
    print(f"wrote {count} operations to {args.out}", file=out)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-atomicity verification for replicated storage histories",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify k-atomicity of every register in a trace")
    p_verify.add_argument("trace", help="trace file (.jsonl or .csv)")
    p_verify.add_argument("--k", type=int, default=2, help="staleness bound to verify (default 2)")
    p_verify.add_argument(
        "--algorithm",
        default="auto",
        help="auto, gk, lbt, lbt-reference, fzf, or exact (default auto)",
    )
    p_verify.add_argument(
        "--max-exact-ops",
        type=int,
        default=40,
        dest="max_exact_ops",
        help="size guard for the exponential k>=3 fallback",
    )
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 1 if any register fails verification",
    )
    p_verify.add_argument(
        "--engine",
        choices=["serial", "processes"],
        default="serial",
        help="shard executor for per-register verification (default serial)",
    )
    p_verify.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker count for parallel engines (default: available CPUs)",
    )
    p_verify.add_argument(
        "--partitioner",
        choices=["hash", "round-robin", "size-balanced"],
        default="size-balanced",
        help="register-to-shard assignment strategy (default size-balanced)",
    )
    p_verify.add_argument(
        "--kernel",
        choices=["object", "numpy"],
        default=None,
        help="kernel for the verification hot loops: object (the reference) "
        "or numpy (default); both produce identical verdicts",
    )
    p_verify.add_argument(
        "--tier",
        choices=["exact", "screen", "auto"],
        default=None,
        help="with --online (rolling mode): exact (every window pays the "
        "authoritative check), screen (an O(1) peek unless a trigger says a "
        "NO is possible) or auto (screen plus an overlap-density gate); "
        "final verdicts are exact either way (default: exact)",
    )
    p_verify.add_argument(
        "--online",
        action="store_true",
        help="stream the trace through windows and report a verdict timeline "
        "instead of one batch pass",
    )
    p_verify.add_argument(
        "--remote",
        default=None,
        metavar="ADDRESS",
        help="stream the trace to a running audit service (HOST:PORT or "
        "unix:PATH) instead of verifying in-process",
    )
    p_verify.add_argument(
        "--session",
        default=None,
        help="session identifier for --remote (default: server-assigned)",
    )
    _add_window_flags(p_verify, default_window=256)
    _add_format_flag(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_watch = sub.add_parser(
        "watch",
        help="rolling k-AV verdicts over a JSONL stream (file, growing log, or stdin)",
    )
    p_watch.add_argument(
        "trace",
        nargs="?",
        default="-",
        help="JSONL trace file, or '-' for stdin (default '-')",
    )
    p_watch.add_argument("--k", type=int, default=2, help="staleness bound to watch (default 2)")
    p_watch.add_argument(
        "--algorithm",
        default="auto",
        help="auto or a registered algorithm name (default auto)",
    )
    _add_window_flags(p_watch, default_window=64)
    p_watch.add_argument(
        "--follow",
        action="store_true",
        help="tail the file for appended operations (tail -f style)",
    )
    p_watch.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        dest="poll_interval",
        help="seconds between polls while following (default 0.2)",
    )
    p_watch.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        dest="idle_timeout",
        help="stop following after this many idle seconds (default: follow forever)",
    )
    p_watch.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 1 if any register fails verification",
    )
    p_watch.add_argument(
        "--state-dir",
        dest="state_dir",
        default=None,
        metavar="DIR",
        help="spill cold window reports to a state store in DIR so "
        "long-running watches hold a bounded working set (needs "
        "--retain-windows)",
    )
    p_watch.add_argument(
        "--state-backend",
        dest="state_backend",
        default="segments",
        metavar="NAME",
        help="state-store backend for --state-dir: json, sqlite or segments "
        "(default segments)",
    )
    p_watch.add_argument(
        "--retain-windows",
        dest="retain_windows",
        type=_positive_int,
        default=None,
        metavar="N",
        help="keep only the N most recent window reports in memory, spilling "
        "older ones to --state-dir",
    )
    _add_format_flag(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_serve = sub.add_parser(
        "serve",
        help="run the concurrent audit service (many sessions, rolling verdicts)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default 7400; 0 picks a free port; TCP is disabled "
        "when only --unix is given)",
    )
    p_serve.add_argument(
        "--unix",
        default=None,
        metavar="PATH",
        help="additionally (or exclusively) listen on this unix socket path",
    )
    p_serve.add_argument(
        "--checkpoint-dir",
        dest="checkpoint_dir",
        default=None,
        help="directory for session checkpoints (enables checkpoint/resume)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        dest="checkpoint_every",
        type=_positive_int,
        default=None,
        help="checkpoint each session every N operations (needs --checkpoint-dir)",
    )
    p_serve.add_argument(
        "--state-backend",
        dest="state_backend",
        default="json",
        metavar="NAME",
        help="durable state-store backend under --checkpoint-dir: json "
        "(one fsync-ed file per session, the default), sqlite (one WAL "
        "database) or segments (log-structured segment files); checkpoint "
        "payloads are byte-identical across backends",
    )
    p_serve.add_argument(
        "--queue-size",
        dest="queue_size",
        type=_positive_int,
        default=1024,
        help="per-session backpressure queue bound in stream items (default 1024)",
    )
    p_serve.add_argument(
        "--max-sessions",
        dest="max_sessions",
        type=_positive_int,
        default=None,
        help="exit after N sessions complete (default: serve until interrupted)",
    )
    p_serve.add_argument(
        "--k", type=int, default=2, help="default staleness bound for sessions"
    )
    p_serve.add_argument(
        "--algorithm", default="auto", help="default algorithm for sessions"
    )
    p_serve.add_argument(
        "--tier",
        choices=["exact", "screen", "auto"],
        default="exact",
        help="default adaptive tier for sessions (exact, screen or auto); "
        "escalations and bypassed windows surface per session in the "
        "service report",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run checkers on a pool of N worker processes (default 0: "
        "in-process, single-core)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        dest="idle_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close sessions quiet for this long (checkpointing first when "
        "--checkpoint-dir is set), surfacing a typed retryable error",
    )
    p_serve.add_argument(
        "--max-active",
        dest="max_active",
        type=_positive_int,
        default=None,
        help="load-shed: refuse new sessions beyond N concurrently active "
        "ones with a typed retryable 'overloaded' error",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection plans: list kinds, generate hostile traces",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_chaos_kinds = chaos_sub.add_parser(
        "kinds", help="list the registered fault kinds and their domains"
    )
    p_chaos_kinds.set_defaults(func=_cmd_chaos_kinds)
    p_chaos_trace = chaos_sub.add_parser(
        "trace",
        help="generate the hostile trace a plan's workload clauses describe",
    )
    p_chaos_trace.add_argument("plan", help="fault-plan file (.json)")
    p_chaos_trace.add_argument(
        "--out", required=True, help="output trace path (.jsonl)"
    )
    p_chaos_trace.add_argument(
        "--fixtures",
        default=None,
        metavar="DIR",
        help="additionally export Jepsen + Porcupine fixtures to this directory",
    )
    p_chaos_trace.set_defaults(func=_cmd_chaos_trace)

    p_audit = sub.add_parser("audit", help="full staleness-spectrum audit of a trace")
    p_audit.add_argument("trace", help="trace file (.jsonl or .csv)")
    p_audit.add_argument(
        "--resolve-exact",
        action="store_true",
        dest="resolve_exact",
        help="resolve minimal k exactly for small k>=3 registers (exponential)",
    )
    _add_format_flag(p_audit)
    p_audit.set_defaults(func=_cmd_audit)

    p_convert = sub.add_parser(
        "convert",
        help="convert a trace between registered formats (jsonl/csv/jepsen/porcupine)",
    )
    p_convert.add_argument("source", help="input trace file")
    p_convert.add_argument("target", help="output trace file")
    p_convert.add_argument(
        "--from",
        dest="from_fmt",
        default=None,
        choices=sorted(FORMATS),
        help="input format (default: sniffed from the extension)",
    )
    p_convert.add_argument(
        "--to",
        dest="to_fmt",
        default=None,
        choices=sorted(FORMATS),
        help="output format (default: sniffed from the extension)",
    )
    p_convert.set_defaults(func=_cmd_convert)

    p_formats = sub.add_parser(
        "formats", help="list the registered trace formats and their extensions"
    )
    p_formats.set_defaults(func=_cmd_formats)

    p_experiment = sub.add_parser(
        "experiment",
        help="run declarative experiment specs and re-emit their reports",
    )
    experiment_sub = p_experiment.add_subparsers(dest="experiment_command", required=True)
    p_exp_run = experiment_sub.add_parser(
        "run", help="run an experiment spec (.toml or .json) and write its report"
    )
    p_exp_run.add_argument("spec", help="experiment spec file (see experiments/)")
    p_exp_run.add_argument(
        "--out",
        default="experiment-results",
        help="directory for the JSON/CSV/Markdown report (default experiment-results/)",
    )
    p_exp_run.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the grid to one tiny point per axis (the CI configuration)",
    )
    p_exp_run.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress lines"
    )
    p_exp_run.set_defaults(func=_cmd_experiment_run)
    p_exp_report = experiment_sub.add_parser(
        "report", help="re-emit a written experiment report in another form"
    )
    p_exp_report.add_argument("report", help="a <name>.json report written by 'run'")
    p_exp_report.add_argument(
        "--emit",
        choices=["markdown", "csv", "json", "table"],
        default="markdown",
        help="output form (default markdown)",
    )
    p_exp_report.set_defaults(func=_cmd_experiment_report)

    p_sim = sub.add_parser("simulate", help="record a trace from the sloppy-quorum simulator")
    p_sim.add_argument("--out", required=True, help="output trace path (.jsonl)")
    p_sim.add_argument("--replicas", type=int, default=5)
    p_sim.add_argument("--read-quorum", type=int, default=1, dest="read_quorum")
    p_sim.add_argument("--write-quorum", type=int, default=2, dest="write_quorum")
    p_sim.add_argument("--read-repair", action="store_true", dest="read_repair")
    p_sim.add_argument("--clients", type=int, default=12)
    p_sim.add_argument("--ops-per-client", type=int, default=50, dest="ops_per_client")
    p_sim.add_argument("--write-ratio", type=float, default=0.4, dest="write_ratio")
    p_sim.add_argument("--keys", type=int, default=4)
    p_sim.add_argument("--uniform-keys", action="store_true", dest="uniform_keys")
    p_sim.add_argument("--mean-latency-ms", type=float, default=3.0, dest="mean_latency_ms")
    p_sim.add_argument("--think-time-ms", type=float, default=2.0, dest="think_time_ms")
    p_sim.add_argument("--drop-probability", type=float, default=0.0, dest="drop_probability")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
