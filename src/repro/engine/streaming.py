"""The streaming verification engine (online mode).

Where :class:`repro.engine.engine.Engine` verifies a *complete* trace, the
streaming engine verifies an *operation stream*: operations are pumped
through the core windowing machinery (:mod:`repro.core.windows`) and every
closed window produces rolling per-register verdicts, merged into a
:class:`~repro.analysis.report.StreamVerificationReport` timeline.  Verdicts
exist *while the stream runs* — the live-audit posture of the paper's
introduction, where an operator watches consistency of a running store rather
than post-processing a finished trace.

Two modes:

* ``"rolling"`` (default) — each register owns a persistent incremental
  checker (:mod:`repro.algorithms.online`).  Window boundaries only set the
  verdict cadence; the final verdicts equal batch verification exactly, and
  memory grows with the stream (the checkers buffer for exactness).
* ``"windowed"`` — each window is verified *independently* with the batch
  engine: operation buffering is bounded by the window size at the price of
  exactness.  YES verdicts cover one window at a time (cross-window
  interleavings are unchecked; use a sliding overlap margin so zones spanning
  a boundary are seen whole by at least one window), while NO verdicts remain
  sound and final because every checked window — reads paired with their
  carried dictating writes — is a dictating-closed sub-history of the full
  trace.  Retained state is the per-register write cache used to pair stale
  reads with their dictating writes, which grows with the number of
  *distinct written values*, not with total stream length.

Both modes demultiplex the stream per register (k-atomicity is local,
Section II-B).  Rolling mode feeds each register's checker in this process,
because checker state persists across windows, and feeds it each operation
as it arrives, so a window close pays only its checks; windowed mode runs
each window through the batch engine on the configured executor,
``processes`` included, since each window is a self-contained batch job.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..algorithms.online import (
    DEFAULT_CADENCE_GROWTH,
    DEFAULT_CHECK_INTERVAL,
    Checker,
    checker_for,
    restore_checker,
)
from ..core.api import DEFAULT_MAX_EXACT_OPS
from ..core.builder import TraceBuilder
from ..core.errors import VerificationError
from ..core.operation import Operation
from ..core.result import StreamVerdict, VerificationResult
from ..core.windows import Window, WindowAssembler, WindowPolicy, iter_windows
from ..analysis.report import StreamVerificationReport, WindowReport, WindowStats
from ..state.retention import TimelineRetention
from .engine import Engine
from .executors import ShardExecutor, default_jobs, get_executor
from .tiering import TierPolicy, TierStreamState, get_tier_policy

__all__ = ["StreamingEngine", "StreamSession", "DEFAULT_WINDOW"]

#: Default window policy: tumbling, 256 fresh operations per window.
DEFAULT_WINDOW = WindowPolicy.count(256)

#: Distinguishes the spilled-timeline key prefixes of concurrent streams
#: sharing one state store (several sessions in one server process).
_TIMELINE_SEQ = itertools.count()


class _RegisterCarry:
    """Per-register carry state for windowed mode.

    Keeps one write per distinct written value (so reads in later windows can
    be paired with their dictating write — the state that grows with distinct
    values, not stream length) and parks reads that completed before their
    dictating write arrived (a completion-ordered stream can deliver them out
    of dictation order) until the write shows up.
    """

    __slots__ = ("writes", "pending", "ops_admitted")

    def __init__(self) -> None:
        self.writes: Dict[Hashable, Operation] = {}
        self.pending: Dict[Hashable, List[Operation]] = {}
        self.ops_admitted = 0

    def admit(self, op: Operation) -> List[Operation]:
        """Record one fresh operation; returns the ops that became checkable."""
        self.ops_admitted += 1
        if op.is_write:
            self.writes[op.value] = op
            return [op] + self.pending.pop(op.value, [])
        if op.value in self.writes:
            return [op]
        self.pending.setdefault(op.value, []).append(op)
        return []

    @property
    def pending_count(self) -> int:
        return sum(len(reads) for reads in self.pending.values())


class StreamingEngine:
    """Windowed, online k-atomicity verification of operation streams.

    Parameters
    ----------
    window:
        The :class:`~repro.core.windows.WindowPolicy` cutting the stream
        (default: tumbling windows of 256 operations).
    mode:
        ``"rolling"`` (persistent incremental checkers, exact final verdicts)
        or ``"windowed"`` (independent per-window batch verification;
        buffering bounded by the window size, plus a per-register write cache
        that grows with distinct written values).
    algorithm:
        Algorithm selection forwarded to the checkers / the batch engine
        (``"auto"`` or a registry name).
    executor, jobs:
        Windowed mode only: the batch engine's executor and worker count for
        each window (``"serial"`` or ``"processes"``).  Rolling mode keeps
        checker state in this process and refuses other executors and
        ``jobs > 1``.
    check_interval, cadence_growth:
        Cadence of the incremental checkers' authoritative re-checks
        (rolling mode only; see :mod:`repro.algorithms.online`).
    check_per_window:
        Rolling mode only.  When true (default) every window close forces an
        authoritative re-check of each touched register, so window verdicts
        are exact for the stream so far — the live-monitoring posture, where
        stream arrival dominates cost anyway.  When false, window closes only
        :meth:`~repro.algorithms.online.Checker.peek` at the latest
        cadence-driven verdict (possibly one cadence gap stale), keeping
        total work at the geometric-cadence bound — the high-throughput
        replay posture.  Final verdicts are identical either way.
    max_exact_ops:
        Size guard for the exponential ``k >= 3`` fallback.
    tier:
        Rolling mode only: ``None``/``"exact"`` (every window pays the
        authoritative check), ``"screen"`` or ``"auto"``
        (:mod:`repro.engine.tiering`).  Windowed mode refuses a tier.

    Example
    -------
    >>> from repro.core.windows import WindowPolicy
    >>> from repro.core.operation import read, write
    >>> from repro.engine import StreamingEngine
    >>> ops = [write("a", 0.0, 1.0, key="x"), read("a", 2.0, 3.0, key="x"),
    ...        write("b", 4.0, 5.0, key="x"), read("b", 6.0, 7.0, key="x")]
    >>> engine = StreamingEngine(window=WindowPolicy.count(2))
    >>> report = engine.verify_stream(ops, 1)
    >>> report.num_windows, report.is_k_atomic
    (2, True)
    """

    def __init__(
        self,
        *,
        window: WindowPolicy = DEFAULT_WINDOW,
        mode: str = "rolling",
        algorithm: str = "auto",
        executor: str = "serial",
        jobs: Optional[int] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        cadence_growth: float = DEFAULT_CADENCE_GROWTH,
        check_per_window: bool = True,
        max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
        tier=None,
        state_store=None,
        retain_windows: Optional[int] = None,
    ):
        if mode not in ("rolling", "windowed"):
            raise VerificationError(
                f"streaming mode must be 'rolling' or 'windowed', got {mode!r}"
            )
        if retain_windows is not None and retain_windows < 1:
            raise VerificationError(
                f"retain_windows must be >= 1, got {retain_windows}"
            )
        self.window = window
        self.mode = mode
        self.algorithm = algorithm
        self.executor: ShardExecutor = (
            get_executor(executor) if isinstance(executor, str) else executor
        )
        if mode == "rolling" and self.executor.crosses_process_boundary:
            raise VerificationError(
                "rolling streaming mode keeps checker state in this process; "
                "use executor='serial' (or mode='windowed' for process-based "
                "windows)"
            )
        if jobs is not None and jobs < 1:
            raise VerificationError(f"jobs must be >= 1, got {jobs}")
        if mode == "rolling" and jobs not in (None, 1):
            raise VerificationError(
                f"jobs={jobs} applies to mode='windowed' only; rolling mode "
                "feeds every register's checker in this process"
            )
        self.jobs = jobs if jobs is not None else (
            1 if self.executor.name == "serial" else default_jobs()
        )
        self.check_interval = check_interval
        self.cadence_growth = cadence_growth
        self.check_per_window = check_per_window
        self.max_exact_ops = max_exact_ops
        #: Adaptive tier policy (:mod:`repro.engine.tiering`): decides per
        #: (register, window) whether the authoritative ``check_now`` runs or
        #: the O(1) ``peek`` screen suffices — NO-capable windows (checker
        #: alarms, anomalous reads, value lag >= k) always escalate, and
        #: ``finish()`` stays authoritative, so final verdicts are exact
        #: either way.  ``None``/``"exact"`` disables.
        self.tier: Optional[TierPolicy] = get_tier_policy(tier)
        if self.tier is not None and mode == "windowed":
            raise VerificationError(
                f"tier={self.tier.name!r} screens rolling windows only; "
                "windowed mode always runs the exact batch check"
            )
        self.tier_name = self.tier.name if self.tier is not None else "exact"
        #: Optional :class:`repro.state.StateStore` + bound: when both are
        #: set, closed-window timelines keep only the ``retain_windows`` most
        #: recent reports hot and spill colder ones to the store, so
        #: long-running ``repro watch`` sessions hold a bounded working set.
        self.state_store = state_store
        self.retain_windows = retain_windows
        #: Only windowed mode verifies its windows with the batch engine.
        self._batch_engine: Optional[Engine] = None
        if mode == "windowed":
            self._batch_engine = Engine(
                executor=self.executor,
                jobs=self.jobs,
                algorithm=algorithm,
                max_exact_ops=max_exact_ops,
            )

    # ------------------------------------------------------------------
    def _new_timeline(self) -> TimelineRetention:
        """A timeline container honouring this engine's retention policy."""
        if self.state_store is not None and self.retain_windows is not None:
            return TimelineRetention(
                self.state_store,
                self.retain_windows,
                prefix=f"stream-{next(_TIMELINE_SEQ)}",
            )
        return TimelineRetention()

    # ------------------------------------------------------------------
    def verify_stream(
        self,
        ops: Iterable[Operation],
        k: int,
        *,
        on_window: Optional[Callable[[WindowReport], None]] = None,
    ) -> StreamVerificationReport:
        """Pump a stream through windows and aggregate rolling verdicts.

        ``on_window`` is invoked with every :class:`WindowReport` the moment
        its window closes — this is the live-consumption hook the ``repro
        watch`` command prints from.  The returned report carries the full
        timeline plus the end-of-stream per-register verdicts.  Rolling mode
        runs one :class:`StreamSession` over the stream.
        """
        if self.mode == "rolling":
            session = self.open_session(k)
            for op in ops:
                report = session.feed(op)
                if report is not None and on_window is not None:
                    on_window(report)
            closed = session.num_windows
            final = session.finish()
            if on_window is not None and final.num_windows > closed:
                on_window(final.timeline[-1])  # the tail window finish() closed
            return final
        if k < 1:
            raise VerificationError(f"k must be a positive integer, got {k!r}")
        t0 = time.perf_counter()
        timeline = self._new_timeline()
        carries: Dict[Hashable, _RegisterCarry] = {}
        latched: Dict[Hashable, VerificationResult] = {}
        key_order: List[Hashable] = []
        for window in iter_windows(ops, self.window):
            report = self._run_windowed_window(window, k, carries, latched, key_order)
            timeline.append(report)
            if on_window is not None:
                on_window(report)
        return StreamVerificationReport(
            k=k,
            mode=self.mode,
            window=self.window.describe(),
            results=self._finalize_windowed(k, carries, latched, key_order, len(timeline)),
            timeline=tuple(timeline),
            executor=self.executor.name,
            jobs=self.jobs,
            elapsed_s=time.perf_counter() - t0,
            tier=self.tier_name,
        )

    def verify_file(
        self,
        path,
        k: int,
        *,
        fmt: Optional[str] = None,
        on_window: Optional[Callable[[WindowReport], None]] = None,
    ) -> StreamVerificationReport:
        """Stream a trace file in any registered format through the windows.

        The online counterpart of :meth:`Engine.verify_file`: ``fmt`` names a
        format from :mod:`repro.io.registry` (``None`` sniffs the extension),
        and the file's operations are pumped through :meth:`verify_stream`.
        """
        from ..io.registry import stream_trace

        return self.verify_stream(stream_trace(path, fmt), k, on_window=on_window)

    # ------------------------------------------------------------------
    # Sessions: push-driven, checkpointable streams
    # ------------------------------------------------------------------
    def open_session(self, k: int) -> "StreamSession":
        """Open a push-driven audit session over this engine's configuration.

        Where :meth:`verify_stream` *pulls* a complete iterable, a session is
        *pushed* one operation at a time by a long-lived caller (the audit
        service multiplexes many of them in one process) and can be
        checkpointed to disk mid-stream via :meth:`StreamSession.snapshot`.
        Rolling mode only: sessions exist for exactness and resumability,
        both properties of the persistent incremental checkers.
        """
        if self.mode != "rolling":
            raise VerificationError(
                "sessions require mode='rolling' (windowed mode keeps no "
                "resumable checker state)"
            )
        if k < 1:
            raise VerificationError(f"k must be a positive integer, got {k!r}")
        return StreamSession(self, k)

    def resume_session(self, state: dict) -> "StreamSession":
        """Rebuild a session from a :meth:`StreamSession.snapshot` mapping."""
        session = self.open_session(state["k"])
        session.restore(state)
        return session

    # ------------------------------------------------------------------
    # Rolling mode: persistent incremental checkers
    # ------------------------------------------------------------------
    def _make_checker(self, k: int) -> Checker:
        return checker_for(
            k,
            algorithm=self.algorithm,
            check_interval=self.check_interval,
            cadence_growth=self.cadence_growth,
            max_exact_ops=self.max_exact_ops,
        )

    # ------------------------------------------------------------------
    # Windowed mode: independent per-window batch verification
    # ------------------------------------------------------------------
    def _run_windowed_window(
        self,
        window: Window,
        k: int,
        carries: Dict[Hashable, _RegisterCarry],
        latched: Dict[Hashable, VerificationResult],
        key_order: List[Hashable],
    ) -> WindowReport:
        t0 = time.perf_counter()
        # Admit fresh operations; collect the checkable ops per register.
        checkable: Dict[Hashable, Dict[int, Operation]] = {}
        for op in window.fresh_ops:
            carry = carries.get(op.key)
            if carry is None:
                carry = carries[op.key] = _RegisterCarry()
                key_order.append(op.key)
            for ready in carry.admit(op):
                checkable.setdefault(op.key, {})[ready.op_id] = ready
        # Replay the overlap margin (already admitted in an earlier window) so
        # boundary-spanning zones are seen whole at least once.
        for op in window.ops[: window.carried]:
            carry = carries.get(op.key)
            if carry is not None and (op.is_write or op.value in carry.writes):
                checkable.setdefault(op.key, {}).setdefault(op.op_id, op)
        # Pair every read with its dictating write so a window never reports a
        # spurious Section II-C anomaly for a write that simply arrived in an
        # earlier window.  The injected writes keep their original timestamps,
        # which makes each checked window a dictating-closed sub-history of
        # the full trace — the property that makes its NO verdicts final.
        builder = TraceBuilder()
        for key, ops_by_id in checkable.items():
            writes_cache = carries[key].writes
            injected: Dict[int, Operation] = dict(ops_by_id)
            for op in ops_by_id.values():
                if op.is_read:
                    write = writes_cache[op.value]
                    injected.setdefault(write.op_id, write)
            builder.extend(injected.values())

        verdicts: Dict[Hashable, StreamVerdict] = {}
        if len(builder):
            report = self._batch_engine.verify_trace(builder, k)
            for key, result in report.results.items():
                final = not result
                if final and key not in latched:
                    latched[key] = result
                # ops_seen is the register's cumulative stream count, matching
                # what rolling-mode checkers report for the same stream.
                verdicts[key] = StreamVerdict(
                    result=result, ops_seen=carries[key].ops_admitted, final=final
                )
        return WindowReport(
            stats=WindowStats(
                index=window.index,
                num_ops=window.num_fresh,
                num_registers=len(verdicts),
                t_low=window.t_low,
                t_high=window.t_high,
                elapsed_s=time.perf_counter() - t0,
            ),
            verdicts=verdicts,
        )

    def _finalize_windowed(
        self,
        k: int,
        carries: Dict[Hashable, _RegisterCarry],
        latched: Dict[Hashable, VerificationResult],
        key_order: List[Hashable],
        num_windows: int,
    ) -> Dict[Hashable, VerificationResult]:
        results: Dict[Hashable, VerificationResult] = {}
        for key in key_order:
            if key in latched:
                results[key] = latched[key]
                continue
            pending = carries[key].pending_count
            if pending:
                results[key] = VerificationResult.no(
                    k,
                    "windowed",
                    reason=f"{pending} reads returned values no write in the "
                    "stream ever assigned (Section II-C anomaly)",
                )
            else:
                results[key] = VerificationResult.yes(
                    k,
                    "windowed",
                    reason=f"every one of {num_windows} windows verified YES "
                    "(windowed approximation: cross-window interleavings are "
                    "not checked; rolling mode gives exact verdicts)",
                )
        return results


class StreamSession:
    """One push-driven, checkpointable rolling-mode audit stream.

    Obtained from :meth:`StreamingEngine.open_session` (and run by
    :meth:`StreamingEngine.verify_stream` over an iterable).  The caller
    feeds operations one at a time; every window the feed closes comes back
    as a :class:`~repro.analysis.report.WindowReport`.  Each operation
    reaches its register's checker as it arrives, so a close pays only one
    ``check_now`` (or tier ``peek``) per register it touched.  A count
    window's last operation is fed before its close; the operation crossing
    a time boundary opens the next window and is fed after it.

    :meth:`snapshot` captures everything the stream position depends on —
    the open window's buffer, each register's checker state (cadence
    position, monitor indexes, latched verdicts, the open window's
    operations), the closed-window timeline — as one picklable mapping, and
    :meth:`restore` rehydrates it, so a session checkpointed at operation
    *i* and resumed in a fresh process emits, for the remaining operations,
    the *identical* verdict sequence an uninterrupted session would have:
    the state is saved verbatim, never approximated by replay.
    """

    def __init__(self, engine: StreamingEngine, k: int):
        self.engine = engine
        self.k = k
        self._assembler = WindowAssembler(engine.window)
        self._close_first = engine.window.mode == "time"
        #: One checker per register, in arrival order; the first
        #: ``_closed_registers`` of them have reached a closed window.
        self._checkers: Dict[Hashable, Checker] = {}
        self._closed_registers = 0
        self._tier_state = (
            TierStreamState(engine.tier, k) if engine.tier is not None else None
        )
        self._timeline = engine._new_timeline()
        self._ops_fed = 0
        self._elapsed_prior = 0.0
        self._t0 = time.perf_counter()
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def ops_fed(self) -> int:
        """Operations fed into the session (open window included)."""
        return self._ops_fed

    @property
    def num_windows(self) -> int:
        """Windows closed so far."""
        return len(self._timeline)

    @property
    def num_registers(self) -> int:
        """Registers that have reached a closed window."""
        return self._closed_registers

    @property
    def timeline(self) -> Tuple[WindowReport, ...]:
        """The closed-window reports, in stream order."""
        return tuple(self._timeline)

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has sealed the session."""
        return self._finished

    # ------------------------------------------------------------------
    def feed(self, op: Operation) -> Optional[WindowReport]:
        """Ingest one operation; returns the report of the window it closed."""
        if self._finished:
            raise VerificationError(
                "session already finished; open a new session for a new stream"
            )
        self._ops_fed += 1
        window = self._assembler.feed(op)
        if window is None:
            self._admit(op)
            return None
        if self._close_first:  # the op opens the next time window
            report = self._close(window)
            self._admit(op)
            return report
        self._admit(op)
        return self._close(window)

    def finish(self) -> StreamVerificationReport:
        """Seal the stream and return the full report (batch-equal verdicts)."""
        if self._finished:
            raise VerificationError("session already finished")
        tail = self._assembler.flush()
        if tail is not None:
            self._close(tail)
        self._finished = True
        return StreamVerificationReport(
            k=self.k,
            mode=self.engine.mode,
            window=self.engine.window.describe(),
            results={key: checker.finish() for key, checker in self._checkers.items()},
            timeline=tuple(self._timeline),
            executor=self.engine.executor.name,
            jobs=self.engine.jobs,
            elapsed_s=self._elapsed(),
            tier=self.engine.tier_name,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the complete session state as one picklable mapping."""
        return {
            "k": self.k,
            "algorithm": self.engine.algorithm,
            "window": (
                self.engine.window.mode,
                self.engine.window.size,
                self.engine.window.overlap,
            ),
            "assembler": self._assembler.snapshot(),
            "checkers": [
                (key, checker.snapshot()) for key, checker in self._checkers.items()
            ],
            # Also marks the checkers as holding the open window's fresh
            # operations; snapshots without it predate feeding on arrival.
            "closed_registers": self._closed_registers,
            "timeline": list(self._timeline),
            "ops_fed": self._ops_fed,
            "elapsed_s": self._elapsed(),
            "finished": self._finished,
            # Tier escalation state rides along only when tiering is active,
            # keeping default snapshots byte-identical to pre-tiering builds.
            **(
                {"tier": self._tier_state.snapshot()}
                if self._tier_state is not None
                else {}
            ),
        }

    def restore(self, state: dict) -> None:
        """Rehydrate the state captured by :meth:`snapshot`.

        A snapshot without ``closed_registers`` predates feeding on arrival:
        its open window's fresh operations are fed to the checkers here.
        """
        if state["k"] != self.k:
            raise VerificationError(
                f"snapshot verifies k={state['k']}; this session is for k={self.k}"
            )
        if state["algorithm"] != self.engine.algorithm:
            raise VerificationError(
                f"snapshot used algorithm={state['algorithm']!r}; this engine "
                f"is configured with {self.engine.algorithm!r}"
            )
        self._assembler.restore(state["assembler"])
        self._checkers = {
            key: restore_checker(checker_state) for key, checker_state in state["checkers"]
        }
        if self.engine.tier is not None:
            # A pre-tiering snapshot simply restarts the escalation state —
            # conservative (extra authoritative checks), never unsound.
            self._tier_state = (
                TierStreamState.restore(self.engine.tier, state["tier"])
                if "tier" in state
                else TierStreamState(self.engine.tier, self.k)
            )
        self._timeline = self.engine._new_timeline()
        self._timeline.extend(state["timeline"])
        self._ops_fed = state["ops_fed"]
        self._elapsed_prior = state["elapsed_s"]
        self._t0 = time.perf_counter()
        self._finished = state["finished"]
        # Buffered ops carry another process's op_ids, and in an older
        # snapshot no restored checker holds (and so guards) the fresh ones.
        from ..core.operation import ensure_op_ids_above

        buffer = state["assembler"]["buffer"]
        ensure_op_ids_above(max((op.op_id for op in buffer), default=-1))
        if "closed_registers" in state:
            self._closed_registers = state["closed_registers"]
        else:
            self._closed_registers = len(self._checkers)
            for op in buffer[state["assembler"]["carried"]:]:
                self._admit(op)

    # ------------------------------------------------------------------
    def _admit(self, op: Operation) -> None:
        """Feed one arriving operation to its register's checker."""
        checker = self._checkers.get(op.key)
        if checker is None:
            checker = self._checkers[op.key] = self.engine._make_checker(self.k)
        checker.feed(op)

    def _close(self, window: Window) -> WindowReport:
        """Check every register the window's fresh operations touched."""
        t0 = time.perf_counter()
        by_key: Dict[Hashable, List[Operation]] = {}
        for op in window.fresh_ops:
            by_key.setdefault(op.key, []).append(op)
        tier_state = self._tier_state
        verdicts: Dict[Hashable, StreamVerdict] = {}
        tiers: Dict[Hashable, str] = {}
        escalations: Dict[Hashable, Tuple[str, ...]] = {}
        for key, register_ops in by_key.items():
            checker = self._checkers[key]
            if tier_state is None:
                verdicts[key] = (
                    checker.check_now() if self.engine.check_per_window else checker.peek()
                )
                continue
            # Tiered: the O(1) peek is the screen; the tier state decides
            # whether this (register, window) is NO-capable and must pay the
            # authoritative check.  A latched alarm in the peek counts too.
            quick = checker.peek()
            mode, triggers = tier_state.decide(
                key, register_ops, alarmed=not quick.result.is_k_atomic
            )
            verdict = verdicts[key] = checker.check_now() if mode == "check" else quick
            tier_state.note_verdict(key, verdict.result.is_k_atomic)
            tiers[key] = mode
            if triggers:
                escalations[key] = triggers
        self._closed_registers = len(self._checkers)
        report = WindowReport(
            stats=WindowStats(
                index=window.index,
                num_ops=window.num_fresh,
                num_registers=len(by_key),
                t_low=window.t_low,
                t_high=window.t_high,
                elapsed_s=time.perf_counter() - t0,
            ),
            verdicts=verdicts,
            tiers=tiers,
            escalations=escalations,
        )
        self._timeline.append(report)
        return report

    def _elapsed(self) -> float:
        return self._elapsed_prior + (time.perf_counter() - self._t0)
