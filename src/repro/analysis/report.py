"""Human-readable consistency reports.

The report module renders the results of a store audit — the staleness
spectrum, per-key staleness statistics, and the store/workload configuration —
as plain text tables suitable for terminals and log files.  The example
programs and the benchmark harness use it to print the rows the paper-style
experiments produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.history import History, MultiHistory
from ..core.result import StreamVerdict, VerificationResult
from .metrics import StalenessStats, staleness_stats
from .spectrum import StalenessBucket, StalenessSpectrum, atomicity_spectrum

__all__ = [
    "format_table",
    "ConsistencyReport",
    "audit_trace",
    "ShardStats",
    "TraceVerificationReport",
    "WindowStats",
    "WindowReport",
    "StreamVerificationReport",
    "SessionStats",
    "WorkerStats",
    "ServiceReport",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table (no external dependencies).

    Column widths adapt to the longest cell; all values are converted with
    ``str``.  Used by the examples and the benchmark harness for the
    paper-style result tables.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


@dataclass(frozen=True)
class ConsistencyReport:
    """The result of auditing one recorded trace."""

    spectrum: StalenessSpectrum
    per_key_staleness: Tuple[Tuple[Hashable, StalenessStats], ...]
    title: str = "consistency audit"

    @property
    def num_keys(self) -> int:
        """Number of registers covered by the audit."""
        return self.spectrum.num_keys

    def worst_observed_lag(self) -> int:
        """The largest certified value lag over all reads of all registers."""
        lags = [stats.max_value_lag for _, stats in self.per_key_staleness]
        return max(lags) if lags else 0

    def render(self) -> str:
        """Render the full report as text."""
        lines: List[str] = [self.title, "=" * len(self.title), ""]
        counts = self.spectrum.counts()
        lines.append("staleness spectrum (registers per bucket):")
        for bucket in (
            StalenessBucket.ATOMIC,
            StalenessBucket.TWO_ATOMIC,
            StalenessBucket.THREE_PLUS,
            StalenessBucket.ANOMALOUS,
            StalenessBucket.EMPTY,
        ):
            if counts.get(bucket):
                lines.append(f"  {bucket.value:>10}: {counts[bucket]}")
        lines.append("")
        rows = []
        stats_by_key = dict(self.per_key_staleness)
        for verdict in self.spectrum.verdicts:
            stats = stats_by_key.get(verdict.key)
            rows.append(
                [
                    verdict.key,
                    verdict.num_operations,
                    verdict.bucket.value,
                    verdict.minimal_k if verdict.minimal_k is not None else "?",
                    f"{stats.stale_fraction:.1%}" if stats else "-",
                    stats.max_value_lag if stats else "-",
                ]
            )
        lines.append(
            format_table(
                ["key", "ops", "bucket", "minimal k", "stale reads", "max lag"], rows
            )
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardStats:
    """Timing and size of one shard processed by the verification engine."""

    shard_id: int
    num_registers: int
    num_ops: int
    elapsed_s: float

    @property
    def ops_per_second(self) -> float:
        """Verification throughput of the shard (ops / wall-clock second)."""
        return self.num_ops / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True)
class TraceVerificationReport:
    """Aggregated outcome of an engine run over a multi-register trace.

    Merges the per-register :class:`~repro.core.result.VerificationResult`
    objects produced by the shards with run-level context: which executor and
    partitioner ran, per-shard timing, total wall-clock time, and — when the
    engine short-circuited on the first failure — which registers were never
    verified.

    By the locality theorem the trace is k-atomic iff *every* register is, so
    :attr:`is_k_atomic` additionally requires that no register was skipped.
    """

    k: int
    #: Per-register results in the trace's register order (skipped registers
    #: are absent; see :attr:`skipped_keys`).
    results: Mapping[Hashable, VerificationResult]
    executor: str
    partitioner: str
    jobs: int
    num_shards: int
    shard_stats: Tuple[ShardStats, ...]
    elapsed_s: float
    #: Registers left unverified because the engine short-circuited.
    skipped_keys: Tuple[Hashable, ...] = ()
    #: Operations per register of the whole trace, in register order
    #: (skipped registers included).
    register_sizes: Mapping[Hashable, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_registers(self) -> int:
        """Registers with a verdict (excludes skipped ones)."""
        return len(self.results)

    @property
    def total_ops(self) -> int:
        """Total operations verified across all shards."""
        return sum(s.num_ops for s in self.shard_stats)

    @property
    def failures(self) -> Dict[Hashable, VerificationResult]:
        """The registers that failed verification, in trace order."""
        return {key: r for key, r in self.results.items() if not r}

    @property
    def first_failure(self) -> Optional[Tuple[Hashable, VerificationResult]]:
        """The first failing ``(key, result)`` in trace order, if any."""
        for key, r in self.results.items():
            if not r:
                return key, r
        return None

    @property
    def is_k_atomic(self) -> bool:
        """True iff every register was verified and every verdict is YES."""
        return not self.skipped_keys and all(bool(r) for r in self.results.values())

    def verdicts(self) -> Dict[Hashable, bool]:
        """Plain boolean verdict per verified register."""
        return {key: bool(r) for key, r in self.results.items()}

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        verdict = "YES" if self.is_k_atomic else "NO"
        parts = [
            f"{self.k}-atomic: {verdict}",
            f"{self.num_registers} registers / {self.total_ops} ops",
            f"{self.num_shards} shards via {self.executor} (jobs={self.jobs}, "
            f"partitioner={self.partitioner})",
            f"{self.elapsed_s:.3f}s",
        ]
        if self.skipped_keys:
            parts.append(f"{len(self.skipped_keys)} registers skipped after first failure")
        return " — ".join(parts)

    def render(self) -> str:
        """Render the full report (summary, shard table, failures) as text."""
        lines: List[str] = [self.summary(), ""]
        if self.shard_stats:
            lines.append("per-shard statistics:")
            lines.append(
                format_table(
                    ["shard", "registers", "ops", "elapsed (s)", "ops/s"],
                    [
                        [
                            s.shard_id,
                            s.num_registers,
                            s.num_ops,
                            f"{s.elapsed_s:.4f}",
                            f"{s.ops_per_second:,.0f}",
                        ]
                        for s in sorted(self.shard_stats, key=lambda s: s.shard_id)
                    ],
                )
            )
        failures = self.failures
        if failures:
            lines.append("")
            lines.append("failing registers:")
            lines.append(
                format_table(
                    ["key", "algorithm", "reason"],
                    [[key, r.algorithm, r.reason] for key, r in failures.items()],
                )
            )
        if self.skipped_keys:
            lines.append("")
            skipped = ", ".join(repr(k) for k in self.skipped_keys[:8])
            more = "" if len(self.skipped_keys) <= 8 else f" (+{len(self.skipped_keys) - 8} more)"
            lines.append(f"skipped (fail-fast): {skipped}{more}")
        return "\n".join(lines)


@dataclass(frozen=True)
class WindowStats:
    """Size and timing of one stream window processed by the streaming engine.

    ``elapsed_s`` times the window's close step.  In rolling mode that is
    the checks and the report only: operations reach their checkers as they
    arrive, before the close, and that feed is not counted.  In windowed
    mode it is the window's whole batch verification.
    """

    index: int
    num_ops: int
    num_registers: int
    t_low: float
    t_high: float
    elapsed_s: float

    @property
    def ops_per_second(self) -> float:
        """Fresh ops per second of the close step (``num_ops / elapsed_s``)."""
        return self.num_ops / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True)
class WindowReport:
    """Rolling verdicts produced when one stream window closed.

    ``verdicts`` maps each register *touched by the window* to its current
    :class:`~repro.core.result.StreamVerdict` — provisional YES or final NO.
    """

    stats: WindowStats
    verdicts: Mapping[Hashable, StreamVerdict]
    #: Per-register check mode this window under a tier policy: ``"check"``
    #: (authoritative) or ``"peek"`` (O(1) screen).  Empty when tiering off.
    tiers: Mapping[Hashable, str] = field(default_factory=dict)
    #: Per-register escalation triggers (why ``"check"`` ran), so a bypassed
    #: exact check is never silent.  Empty when tiering off.
    escalations: Mapping[Hashable, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def num_escalated(self) -> int:
        """Registers forced to an authoritative check by a trigger."""
        return sum(1 for trigs in self.escalations.values() if trigs)

    @property
    def has_alarm(self) -> bool:
        """True iff some register's verdict turned (finally) negative."""
        return any(v.final and not v for v in self.verdicts.values())

    def alarms(self) -> Dict[Hashable, StreamVerdict]:
        """The registers whose verdict is a final NO, in report order."""
        return {key: v for key, v in self.verdicts.items() if v.final and not v}

    def render_lines(self) -> List[str]:
        """Terminal-friendly one-line-per-register rendering of the window."""
        s = self.stats
        header = (
            f"[window {s.index:>3}] ops={s.num_ops} registers={s.num_registers} "
            f"t=[{s.t_low:g}, {s.t_high:g}]"
        )
        lines = [header]
        for key, verdict in self.verdicts.items():
            mark = "NO " if not verdict else "yes"
            strength = "final" if verdict.final else "provisional"
            line = f"  {key!r}: {mark} ({strength})"
            if self.tiers.get(key):
                line += f" [{self.tiers[key]}"
                if self.escalations.get(key):
                    line += ": " + ", ".join(self.escalations[key])
                line += "]"
            if not verdict and verdict.result.reason:
                line += f" — {verdict.result.reason}"
            lines.append(line)
        return lines


@dataclass(frozen=True)
class StreamVerificationReport:
    """Aggregated outcome of a streaming-engine run over an operation stream.

    The timeline preserves every mid-stream :class:`WindowReport`; ``results``
    holds the final per-register verdicts after end-of-stream (in rolling mode
    these equal the batch algorithms' verdicts exactly; in windowed mode YES
    verdicts are per-window approximations and say so in their ``reason``).
    """

    k: int
    #: ``"rolling"`` (persistent incremental checkers) or ``"windowed"``
    #: (independent per-window batch verification).
    mode: str
    #: Human-readable window policy, e.g. ``count(64, overlap=8)``.
    window: str
    results: Mapping[Hashable, VerificationResult]
    timeline: Tuple[WindowReport, ...]
    executor: str
    jobs: int
    elapsed_s: float
    #: Tier policy the run used (``"exact"`` when tiering was off).
    tier: str = "exact"

    # ------------------------------------------------------------------
    @property
    def num_registers(self) -> int:
        """Registers that received at least one operation."""
        return len(self.results)

    @property
    def num_windows(self) -> int:
        """Windows the stream was cut into."""
        return len(self.timeline)

    @property
    def total_ops(self) -> int:
        """Total operations pumped through the engine."""
        return sum(w.stats.num_ops for w in self.timeline)

    @property
    def failures(self) -> Dict[Hashable, VerificationResult]:
        """The registers whose final verdict is NO."""
        return {key: r for key, r in self.results.items() if not r}

    @property
    def is_k_atomic(self) -> bool:
        """True iff every register's final verdict is YES."""
        return all(bool(r) for r in self.results.values())

    @property
    def first_alarm(self) -> Optional[Tuple[int, Hashable, StreamVerdict]]:
        """The earliest mid-stream final NO as ``(window index, key, verdict)``."""
        for window in self.timeline:
            for key, verdict in window.verdicts.items():
                if verdict.final and not verdict:
                    return (window.stats.index, key, verdict)
        return None

    # -- tiering accounting (no silent caps) ---------------------------
    @property
    def windows_bypassed_exact(self) -> int:
        """Windows whose every touched register skipped the authoritative check.

        Under a tier policy the O(1) ``peek`` screen may stand in for the
        per-window authoritative check; this counter keeps those bypasses
        visible (the end-of-stream verdicts are still exact — ``finish()``
        always runs the authoritative checker).  Always 0 when tiering off.
        """
        return sum(
            1
            for w in self.timeline
            if w.tiers and all(mode != "check" for mode in w.tiers.values())
        )

    @property
    def register_windows_bypassed(self) -> int:
        """(register, window) units that peeked instead of checking."""
        return sum(
            sum(1 for mode in w.tiers.values() if mode != "check")
            for w in self.timeline
        )

    @property
    def escalated_checks(self) -> int:
        """(register, window) units escalated to an authoritative check by a
        trigger (checker alarm, anomaly, value lag, overlap, periodic)."""
        return sum(w.num_escalated for w in self.timeline)

    # ------------------------------------------------------------------
    def to_trace_report(self) -> TraceVerificationReport:
        """Merge the timeline into the batch :class:`TraceVerificationReport`.

        Windows take the place of shards (one :class:`ShardStats` entry per
        window, in stream order) and the window policy takes the partitioner
        slot, so every consumer of the batch report — renderers, benchmark
        tables, comparison scripts — works unchanged on streaming output.
        """
        return TraceVerificationReport(
            k=self.k,
            results=dict(self.results),
            executor=f"streaming-{self.mode}",
            partitioner=self.window,
            jobs=self.jobs,
            num_shards=len(self.timeline),
            shard_stats=tuple(
                ShardStats(
                    shard_id=w.stats.index,
                    num_registers=w.stats.num_registers,
                    num_ops=w.stats.num_ops,
                    elapsed_s=w.stats.elapsed_s,
                )
                for w in self.timeline
            ),
            elapsed_s=self.elapsed_s,
        )

    def summary(self) -> str:
        """One-line human-readable summary of the streaming run."""
        verdict = "YES" if self.is_k_atomic else "NO"
        parts = [
            f"{self.k}-atomic: {verdict}",
            f"{self.num_registers} registers / {self.total_ops} ops",
            f"{self.num_windows} windows of {self.window} via {self.mode} "
            f"({self.executor}, jobs={self.jobs})",
            f"{self.elapsed_s:.3f}s",
        ]
        if self.tier != "exact":
            parts.append(
                f"tier={self.tier}: {self.windows_bypassed_exact}/"
                f"{self.num_windows} windows bypassed exact, "
                f"{self.escalated_checks} escalations"
            )
        alarm = self.first_alarm
        if alarm is not None:
            index, key, verdict_obj = alarm
            parts.append(
                f"first alarm in window {index} on register {key!r} "
                f"after {verdict_obj.ops_seen} ops"
            )
        return " — ".join(parts)

    def render(self) -> str:
        """Render the summary, per-window table, and failing registers."""
        lines: List[str] = [self.summary(), ""]
        if self.timeline:
            lines.append("window timeline:")
            lines.append(
                format_table(
                    ["window", "ops", "registers", "t range", "alarms", "elapsed (s)"],
                    [
                        [
                            w.stats.index,
                            w.stats.num_ops,
                            w.stats.num_registers,
                            f"[{w.stats.t_low:g}, {w.stats.t_high:g}]",
                            len(w.alarms()),
                            f"{w.stats.elapsed_s:.4f}",
                        ]
                        for w in self.timeline
                    ],
                )
            )
        failures = self.failures
        if failures:
            lines.append("")
            lines.append("failing registers:")
            lines.append(
                format_table(
                    ["key", "algorithm", "reason"],
                    [[key, r.algorithm, r.reason] for key, r in failures.items()],
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class SessionStats:
    """Per-session accounting of one audit-service stream.

    One row of the service-level report: how much one client session fed,
    how many windows closed, whether any register raised a final NO, and the
    checkpoint/resume history of the session.
    """

    session_id: str
    k: int
    window: str
    num_ops: int
    num_windows: int
    num_registers: int
    num_alarms: int
    checkpoints: int
    resumed: bool
    finished: bool
    elapsed_s: float
    #: False once the session's connection has gone away without an ``end``
    #: frame — it is resumable (detached), but nothing is streaming.
    connected: bool = True
    #: Tier policy of the session (``"exact"`` when tiering off).
    tier: str = "exact"
    #: (register, window) units escalated to an authoritative check.
    escalations: int = 0
    #: Windows whose every touched register skipped the authoritative check.
    windows_bypassed: int = 0

    @property
    def ops_per_second(self) -> float:
        """Feed throughput of the session (ops / wall-clock second)."""
        return self.num_ops / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def state(self) -> str:
        """``done`` / ``active`` / ``detached`` (resumable but disconnected)."""
        if self.finished:
            return "done"
        return "active" if self.connected else "detached"


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker accounting of the audit service's process pool.

    One row per pool worker: how many live sessions it currently homes, the
    feed traffic it has absorbed (``batches`` counts window requests, one per
    closed window), and its failover history (``restarts`` counts respawns
    after a worker-process death; ``restored_sessions`` counts sessions
    rehydrated onto this worker from snapshots — failover and checkpoint
    resumes alike).
    """

    worker_id: int
    pid: Optional[int]
    alive: bool
    sessions: int
    batches: int
    ops: int
    snapshots: int
    restarts: int
    restored_sessions: int


@dataclass(frozen=True)
class ServiceReport:
    """Service-level view of an audit-server run.

    ``sessions`` holds one :class:`SessionStats` per session the server has
    seen — completed and still-active alike — in arrival order.  When the
    server runs a worker pool, ``workers`` carries one :class:`WorkerStats`
    row per checker process (empty for single-process servers).
    """

    sessions: Tuple[SessionStats, ...]
    uptime_s: float
    workers: Tuple[WorkerStats, ...] = ()

    @property
    def num_sessions(self) -> int:
        """Sessions the server accepted over its lifetime."""
        return len(self.sessions)

    @property
    def active_sessions(self) -> int:
        """Sessions still streaming (connected, no final report yet)."""
        return sum(1 for s in self.sessions if s.state == "active")

    @property
    def detached_sessions(self) -> int:
        """Disconnected-without-``end`` sessions (resumable, not streaming)."""
        return sum(1 for s in self.sessions if s.state == "detached")

    @property
    def total_ops(self) -> int:
        """Operations fed across all sessions."""
        return sum(s.num_ops for s in self.sessions)

    @property
    def total_alarms(self) -> int:
        """Final NO verdicts raised across all sessions."""
        return sum(s.num_alarms for s in self.sessions)

    def summary(self) -> str:
        """One-line human-readable summary of the service run."""
        detached = (
            f", {self.detached_sessions} detached" if self.detached_sessions else ""
        )
        pool = f" / {len(self.workers)} workers" if self.workers else ""
        return (
            f"audit service — {self.num_sessions} sessions "
            f"({self.active_sessions} active{detached}) / {self.total_ops} ops / "
            f"{self.total_alarms} alarms{pool} — up {self.uptime_s:.1f}s"
        )

    def render(self) -> str:
        """Render the summary plus a one-row-per-session table."""
        lines = [self.summary()]
        if self.sessions:
            lines.append("")
            lines.append(
                format_table(
                    [
                        "session", "k", "window", "ops", "windows", "registers",
                        "alarms", "ckpts", "resumed", "state", "ops/s",
                    ],
                    [
                        [
                            s.session_id,
                            s.k,
                            s.window,
                            s.num_ops,
                            s.num_windows,
                            s.num_registers,
                            s.num_alarms,
                            s.checkpoints,
                            "yes" if s.resumed else "no",
                            s.state,
                            f"{s.ops_per_second:,.0f}",
                        ]
                        for s in self.sessions
                    ],
                )
            )
        tiered = [s for s in self.sessions if s.tier != "exact"]
        if tiered:
            lines.append("")
            lines.append("tiering (escalations are never silent):")
            lines.append(
                format_table(
                    ["session", "tier", "escalations", "windows bypassed"],
                    [
                        [s.session_id, s.tier, s.escalations, s.windows_bypassed]
                        for s in tiered
                    ],
                )
            )
        if self.workers:
            lines.append("")
            lines.append("worker pool:")
            lines.append(
                format_table(
                    [
                        "worker", "pid", "state", "sessions", "batches", "ops",
                        "snapshots", "restarts", "restored",
                    ],
                    [
                        [
                            w.worker_id,
                            w.pid if w.pid is not None else "-",
                            "up" if w.alive else "down",
                            w.sessions,
                            w.batches,
                            w.ops,
                            w.snapshots,
                            w.restarts,
                            w.restored_sessions,
                        ]
                        for w in self.workers
                    ],
                )
            )
        return "\n".join(lines)


def audit_trace(
    trace: MultiHistory,
    *,
    title: str = "consistency audit",
    resolve_exact: bool = False,
) -> ConsistencyReport:
    """Audit a trace: spectrum plus per-key staleness statistics."""
    spectrum = atomicity_spectrum(trace, resolve_exact=resolve_exact)
    per_key: List[Tuple[Hashable, StalenessStats]] = []
    for key in sorted(trace.keys(), key=repr):
        history = trace[key]
        if history.is_empty or any(
            history.dictating_write(r) is None for r in history.reads
        ):
            continue
        per_key.append((key, staleness_stats(history)))
    return ConsistencyReport(
        spectrum=spectrum, per_key_staleness=tuple(per_key), title=title
    )
