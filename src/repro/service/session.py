"""Audit-session state: one client stream, one checkpointable engine session.

An :class:`AuditSession` binds a session identifier and configuration to a
:class:`~repro.engine.streaming.StreamSession` — the per-register incremental
checkers plus the window assembler — and tracks the service-level accounting
(ops fed, alarms raised, checkpoints taken) that ends up in the
:class:`~repro.analysis.report.ServiceReport`.  The server keeps one of these
per connected stream; the session itself is transport-agnostic, so tests and
embedders can drive it directly.

Checkpoints are a journal.  A session's state is a function of its
configuration and the operations it has been fed, so after its first save
a checkpoint is a *delta*: the ops and window frames since the last
persisted save.  Every :data:`FOLD_EVERY`-th save is a full snapshot again,
so a resume restores one snapshot and replays at most ``FOLD_EVERY - 1``
deltas — ``(FOLD_EVERY - 1) * checkpoint_every`` operations on a server
that checkpoints every ``checkpoint_every`` ops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..analysis.report import SessionStats, StreamVerificationReport, WindowReport
from ..core.errors import (
    CorruptCheckpointError,
    HistoryError,
    ServiceError,
    VerificationError,
)
from ..core.operation import Operation, OpType, ensure_op_ids_above
from ..core.windows import WindowPolicy
from ..engine.streaming import StreamingEngine, StreamSession
from ..engine.tiering import TIER_NAMES

__all__ = ["SessionConfig", "AuditSession", "DEFAULT_SESSION_WINDOW", "FOLD_EVERY"]

#: Default per-session window: tumbling, 64 fresh operations.
DEFAULT_SESSION_WINDOW = 64

#: Every FOLD_EVERY-th checkpoint of a session is a full snapshot; the ones
#: between are journal deltas.  Measured on a 2-vCPU VM (docs/performance.md,
#: "Served checkpoints"): a delta save costs under a millisecond at any
#: session length while a full one grows with it (1.5 s at 64k ops), and
#: replaying 7 deltas added ~7 ms to a 512-op resume and ~0.7 s to a 3 s
#: 64k-op one.  Resumes are rare and saves are not, so folds stay rare.
FOLD_EVERY = 8

#: What a malformed checkpoint makes restore or replay raise.
_CORRUPT = (KeyError, TypeError, ValueError, AttributeError, IndexError,
            VerificationError, HistoryError)


def _op_rows(ops: Iterable[Operation]) -> List[Tuple]:
    """Operations as plain tuples: ~60% of the objects' pickled bytes, and
    built and pickled in ~40% of the time."""
    return [
        (op.is_write, op.value, op.start, op.finish, op.key, op.client, op.op_id, op.weight)
        for op in ops
    ]


def _row_ops(rows: Iterable[Tuple]) -> List[Operation]:
    """Inverse of :func:`_op_rows`, validating every operation."""
    return [
        Operation(OpType.WRITE if is_write else OpType.READ, value, start, finish,
                  key=key, client=client, op_id=op_id, weight=weight)
        for is_write, value, start, finish, key, client, op_id, weight in rows
    ]


@contextmanager
def _corrupt_on_error(session_id):
    """Turn what a malformed checkpoint raises into CorruptCheckpointError."""
    try:
        yield
    except _CORRUPT as exc:
        raise CorruptCheckpointError(
            f"cannot resume session {session_id!r} from its checkpoint: {exc!r}"
        ) from exc


def _parse_checkpoint(payload) -> Tuple[str, "SessionConfig", Dict, List]:
    """Read a base payload and decode its journal deltas' ops.

    Returns the session id, configuration, stream snapshot and the journal
    as ``(ops, delta)`` pairs.  With the restore and replay that follow
    (also under :func:`_corrupt_on_error`), this is where a checkpoint is
    validated: whatever a malformed one makes them raise is re-raised as
    :class:`CorruptCheckpointError`.
    """
    if not isinstance(payload, dict):
        raise CorruptCheckpointError(
            f"a checkpoint is a mapping, not a {type(payload).__name__}"
        )
    with _corrupt_on_error(payload.get("session_id")):
        config = SessionConfig.from_dict(payload["config"])
        journal = [(_row_ops(delta["ops"]), delta) for delta in payload.get("journal", ())]
        return payload["session_id"], config, payload["stream"], journal


@dataclass(frozen=True)
class SessionConfig:
    """What one audit session verifies and how its stream is windowed.

    Built from the ``hello`` frame of the session protocol; every field has
    a server-side default so a minimal ``{"type": "hello"}`` opens a
    2-atomicity session over 64-operation tumbling windows.
    """

    k: int = 2
    algorithm: str = "auto"
    window_mode: str = "count"
    window_size: float = DEFAULT_SESSION_WINDOW
    window_overlap: float = 0.0
    #: Adaptive tier policy (:data:`repro.engine.tiering.TIER_NAMES`).  The
    #: default ``"exact"`` keeps the pre-tiering behaviour — and is omitted
    #: from :meth:`to_dict` so default checkpoint payloads stay byte-identical
    #: to earlier releases.
    tier: str = "exact"

    def window_policy(self) -> WindowPolicy:
        """The window policy the configuration describes (validating it)."""
        return WindowPolicy(
            mode=self.window_mode, size=self.window_size, overlap=self.window_overlap
        )

    def to_dict(self) -> Dict:
        """JSON/pickle-friendly form (stored in checkpoints)."""
        record: Dict = {
            "k": self.k,
            "algorithm": self.algorithm,
            "window": {
                "mode": self.window_mode,
                "size": self.window_size,
                "overlap": self.window_overlap,
            },
        }
        if self.tier != "exact":
            record["tier"] = self.tier
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "SessionConfig":
        """Build a configuration from a ``hello`` frame or checkpoint record."""
        window = record.get("window") or {}
        try:
            config = cls(
                k=int(record.get("k", 2)),
                algorithm=str(record.get("algorithm", "auto")),
                window_mode=str(window.get("mode", "count")),
                window_size=float(window.get("size", DEFAULT_SESSION_WINDOW)),
                window_overlap=float(window.get("overlap", 0.0)),
                tier=str(record.get("tier", "exact")),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed session configuration: {record!r}") from exc
        try:
            config.window_policy()  # validate eagerly, before the stream starts
        except VerificationError as exc:
            raise ServiceError(str(exc)) from exc
        if config.k < 1:
            raise ServiceError(f"k must be a positive integer, got {config.k!r}")
        if config.tier not in TIER_NAMES:
            raise ServiceError(
                f"unknown tier {config.tier!r}; available: {', '.join(TIER_NAMES)}"
            )
        return config


class AuditSession:
    """One multiplexed audit stream inside the service.

    Construction goes through :meth:`start` (a fresh stream) or
    :meth:`resume` (rehydrating a checkpoint payload); the server then calls
    :meth:`feed` per operation, :meth:`checkpoint_payload` when persisting,
    and :meth:`finish` on the ``end`` frame.
    """

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        stream: StreamSession,
        *,
        resumed: bool = False,
        checkpoints: int = 0,
        elapsed_prior: float = 0.0,
    ):
        self.session_id = session_id
        self.config = config
        self.stream = stream
        self.resumed = resumed
        self.checkpoints = checkpoints
        self.alarmed_keys = set()
        #: Every window frame sent so far, in index order (no witnesses, so
        #: they stay small).  Checkpoints persist the log and a resume
        #: re-delivers it: a frame lost between a window close and a covering
        #: checkpoint would otherwise be gone for good — replay restarts
        #: *after* the checkpoint and never re-closes that window.  Clients
        #: deduplicate by window index, so re-delivery is idempotent.
        self.window_log: List[Dict] = []
        #: Tiering accounting for :meth:`stats` (zero when tier == "exact").
        self.escalations = 0
        self.windows_bypassed = 0
        self.finished = False
        self._elapsed_prior = elapsed_prior
        self._t0 = time.monotonic()
        #: Journal recording: the ops fed since the last persisted save.
        #: None until the first payload, so a never-checkpointed session
        #: holds nothing extra.
        self._recorded: Optional[List[Operation]] = None
        #: Checkpoint number -> (ops_fed, len(window_log), base number) when
        #: that payload was built; a delta covers the ops since the mark of
        #: the last persisted save, ``marks[self.checkpoints]``.
        self._marks: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def _engine(cls, config: SessionConfig) -> StreamingEngine:
        if config.tier != "exact":
            return StreamingEngine(
                window=config.window_policy(),
                mode="rolling",
                algorithm=config.algorithm,
                executor="serial",
                tier=config.tier,
            )
        return StreamingEngine(
            window=config.window_policy(),
            mode="rolling",
            algorithm=config.algorithm,
            executor="serial",
        )

    @classmethod
    def start(cls, session_id: str, config: SessionConfig) -> "AuditSession":
        """Open a fresh session."""
        engine = cls._engine(config)
        return cls(session_id, config, engine.open_session(config.k))

    @classmethod
    def resume(cls, payload: Dict) -> "AuditSession":
        """Rehydrate a session from a checkpoint.

        ``payload`` is a full :meth:`checkpoint_payload` mapping, with the
        deltas that extend it under ``"journal"`` when it comes from
        :meth:`CheckpointStore.load`; the deltas' ops are replayed through
        :meth:`feed`, so windows close exactly as they did the first time.
        """
        session_id, config, stream_state, journal = _parse_checkpoint(payload)
        with _corrupt_on_error(session_id):
            stream = cls._engine(config).resume_session(stream_state)
            session = cls._resumed(payload, session_id, config, stream)
            for op in session._replay(journal):
                session.feed(op)
        return session

    @classmethod
    def _resumed(cls, payload: Dict, session_id: str, config: SessionConfig, stream):
        """The session a restored base stands for (before journal replay)."""
        session = cls(
            session_id,
            config,
            stream,
            resumed=True,
            checkpoints=payload.get("checkpoints", 0),
            elapsed_prior=payload.get("elapsed_s", 0.0),
        )
        session.alarmed_keys = set(payload.get("alarmed_keys", ()))
        session.window_log = [dict(frame) for frame in payload.get("window_log", ())]
        tiering = payload.get("tiering") or {}
        session.escalations = int(tiering.get("escalations", 0))
        session.windows_bypassed = int(tiering.get("windows_bypassed", 0))
        return session

    def _replay(self, journal: List[Tuple[List[Operation], Dict]]) -> Iterator[Operation]:
        """Yield each delta's ops for the caller to feed, then take over its
        header and window frames."""
        for ops, delta in journal:
            if self.ops_fed + len(ops) != delta["ops_fed"]:
                raise CorruptCheckpointError(
                    f"delta {delta.get('checkpoints')!r} of session "
                    f"{self.session_id!r} ends at op {delta['ops_fed']}, but "
                    f"replaying its {len(ops)} ops from op {self.ops_fed} does not"
                )
            # The replayed ops carry a previous process's ids.
            ensure_op_ids_above(max((op.op_id for op in ops), default=-1))
            yield from ops
            self.window_log.extend(dict(frame) for frame in delta["window_log"])
            self.checkpoints = delta["checkpoints"]
            self._elapsed_prior = delta["elapsed_s"]
            self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def ops_fed(self) -> int:
        """Operations fed into the session so far."""
        return self.stream.ops_fed

    @property
    def num_alarms(self) -> int:
        """Registers whose verdict has turned into a final NO."""
        return len(self.alarmed_keys)

    def feed(self, op: Operation) -> Optional[WindowReport]:
        """Feed one operation; returns the closed window's report, if any."""
        return self._fed(op, self.stream.feed(op))

    def _fed(self, op: Operation, report: Optional[WindowReport]):
        """Session-level accounting for one operation the stream took."""
        if self._recorded is not None:
            self._recorded.append(op)
        if report is not None:
            self.alarmed_keys.update(report.alarms())
            self._note_tiering(report)
        return report

    def _note_tiering(self, report: WindowReport) -> None:
        """Fold one window's tier routing into the session counters."""
        if not report.tiers:
            return
        self.escalations += report.num_escalated
        if all(mode != "check" for mode in report.tiers.values()):
            self.windows_bypassed += 1

    def finish(self) -> StreamVerificationReport:
        """Seal the stream and return the final (batch-equal) report."""
        report = self.stream.finish()
        self.alarmed_keys.update(report.failures)
        self.finished = True
        return report

    # ------------------------------------------------------------------
    # Async surface
    # ------------------------------------------------------------------
    # The server drives every session through these coroutines so pooled
    # sessions (repro.service.pool.PooledAuditSession), whose streams answer
    # over a process boundary, plug in without the server caring.  For the
    # in-process session they simply delegate: the synchronous calls are
    # sub-millisecond per operation and already yield to the loop through the
    # server's own cadence.

    async def afeed(self, op: Operation) -> Optional[WindowReport]:
        """Coroutine form of :meth:`feed`."""
        return self.feed(op)

    async def afinish(self) -> StreamVerificationReport:
        """Coroutine form of :meth:`finish`."""
        return self.finish()

    async def acheckpoint_payload(self) -> Dict:
        """Coroutine form of :meth:`checkpoint_payload`."""
        return self._delta_payload() or self._full_payload(await self._astream_snapshot())

    async def _astream_snapshot(self) -> Dict:
        """The stream's snapshot (pooled sessions await their workers)."""
        return self.stream.snapshot()

    async def aclose(self) -> None:
        """Release per-session resources on abandonment (no-op in-process)."""

    def checkpoint_payload(self) -> Dict:
        """The picklable mapping the next checkpoint of this session stores.

        The session's first payload, and every :data:`FOLD_EVERY`-th after
        it, is a full snapshot.  The others are journal deltas: the ops fed
        and window frames logged since the last *persisted* save, and a
        header.  The embedded ``checkpoints`` count includes the checkpoint
        being taken; the live :attr:`checkpoints` counter is bumped by the
        caller only once the save actually lands.  So a failed save never
        inflates the session's statistics, and the next delta covers the
        failed one's ops again.
        """
        return self._delta_payload() or self._full_payload(self.stream.snapshot())

    def _full_payload(self, stream_state: Dict) -> Dict:
        number = self.checkpoints + 1
        payload = {
            "session_id": self.session_id,
            "config": self.config.to_dict(),
            "stream": stream_state,
            "checkpoints": number,
            "alarmed_keys": list(self.alarmed_keys),
            "window_log": [dict(frame) for frame in self.window_log],
            "elapsed_s": self.elapsed_s,
        }
        if self.config.tier != "exact":
            # Conditional like SessionConfig.tier: default payloads stay
            # byte-identical to pre-tiering releases.
            payload["tiering"] = {
                "escalations": self.escalations,
                "windows_bypassed": self.windows_bypassed,
            }
        self._recorded = []
        self._marks = {number: (self.ops_fed, len(self.window_log), number)}
        return payload

    def _delta_payload(self) -> Optional[Dict]:
        """The next checkpoint as a delta, or None when it must be full."""
        last = self._marks.get(self.checkpoints)
        number = self.checkpoints + 1
        if last is None or number - last[2] >= FOLD_EVERY:
            return None
        ops_at, log_at, base = last
        # The last persisted save covers everything before its mark.
        del self._recorded[: len(self._recorded) - (self.ops_fed - ops_at)]
        self._marks = {
            self.checkpoints: last,
            number: (self.ops_fed, len(self.window_log), base),
        }
        return {
            "session_id": self.session_id,
            "base": base,
            "checkpoints": number,
            "ops_fed": self.ops_fed,
            "elapsed_s": self.elapsed_s,
            "ops": _op_rows(self._recorded),
            "window_log": [dict(frame) for frame in self.window_log[log_at:]],
        }

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds this session has been live (across resumes)."""
        return self._elapsed_prior + (time.monotonic() - self._t0)

    def stats(self) -> SessionStats:
        """The service-report row for this session."""
        return SessionStats(
            session_id=self.session_id,
            k=self.config.k,
            window=self.config.window_policy().describe(),
            num_ops=self.ops_fed,
            num_windows=self.stream.num_windows,
            num_registers=self.stream.num_registers,
            num_alarms=self.num_alarms,
            checkpoints=self.checkpoints,
            resumed=self.resumed,
            finished=self.finished,
            elapsed_s=self.elapsed_s,
            tier=self.config.tier,
            escalations=self.escalations,
            windows_bypassed=self.windows_bypassed,
        )
