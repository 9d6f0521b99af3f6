"""Incremental (online) k-atomicity checkers.

The paper frames k-atomicity verification as an *audit* operators run against
live stores; every batch algorithm in this package needs the complete history
up front.  This module adds the streaming counterpart: a :class:`Checker`
ingests one operation at a time and emits :class:`~repro.core.result.StreamVerdict`
objects while the stream is still running.

The protocol exploits a simple monotonicity property.  Call a set of
operations *dictating-closed* when it contains the dictating write of every
read in the set.  Restricting a valid k-atomic total order of a history to a
dictating-closed subset yields a valid k-atomic total order of the subset
(validity survives subsequencing, and removing writes only shrinks the number
of intervening writes between a read and its dictating write).  Hence:

* a **NO** on any dictating-closed prefix is *final* — no continuation of the
  stream can make the complete history k-atomic;
* a **YES** on a prefix is *provisional* — later operations can still ruin it.

Checkers therefore keep reads whose dictating write has not yet arrived in a
*pending* buffer (a read may complete before its dictating write does, so a
completion-ordered stream can deliver them out of dictation order) and check
only the resolved, dictating-closed prefix.  :meth:`Checker.finish` folds the
still-pending reads back in (where they surface as Section II-C anomalies if
their writes truly never arrived) and delegates to the batch algorithm over
the complete buffered history, so the final verdict of an incremental checker
is *identical* to its batch counterpart's by construction — a NO latched
mid-stream included: operations keep being buffered after the latch, so the
final reason is the whole stream's, not the latched prefix's.  (With no read
pending, :class:`IncrementalLBTChecker` finishes from its batch-equal re-check.)
Mid-stream verdicts never carry a witness (an O(prefix) order); finish does.

Three cost controls keep the per-operation work low:

* **geometric check cadence** — authoritative re-checks run when the resolved
  prefix reaches geometrically spaced sizes (doubling by default), so the
  total re-check cost over a stream of ``n`` operations is a constant factor
  of one batch run, not ``n`` of them;
* **zone monitoring** (GK) — the Gibbons–Korach conditions are interval
  conditions over cluster zones, so :class:`IncrementalGKChecker` maintains
  the cluster/zone state in O(1) per operation and an ordered forward-zone
  index in O(log n); when the raw-zone state trips a GK condition the checker
  confirms immediately with an authoritative check instead of waiting for the
  next cadence point;
* **incremental re-check** (LBT) — LBT places operations back to front in
  epochs, and consecutive checks of a stream share all but the last few.
  :class:`IncrementalLBTChecker` keeps the normalised prefix and a growing
  :class:`~repro.algorithms.lbt.LBTChecker` across checks, re-runs only the
  epochs the new operations reach and keeps the rest of the previous run's
  ledger, so a re-check — a check per window included — costs about what
  the new operations cost, and still equals batch LBT field for field.

Memory is O(n) — the buffer must be retained for exact batch parity.  The
bounded-memory alternative is the *windowed* mode of
:mod:`repro.engine.streaming`, which trades exactness for a fixed footprint.

Checkers are also **checkpointable**: :meth:`Checker.snapshot` captures the
complete internal state (buffers, cadence position, latched verdicts, monitor
indexes) as one picklable object and :meth:`Checker.restore` rehydrates it, so
a long-running audit service can persist sessions to disk and resume them
after a crash with a verdict stream *identical* to an uninterrupted run.  The
GK monitor state is saved verbatim rather than rebuilt by replay, so even the
eager-check timing of :class:`IncrementalGKChecker` survives the round trip;
the LBT checker's admission state and epoch ledger only speed checks up and
are rebuilt from the buffer instead of being saved.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.errors import DuplicateValueError, HistoryError, VerificationError
from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import shortened_finish
from ..core.result import StreamVerdict, VerificationResult
from .lbt import LBTChecker

__all__ = [
    "Checker",
    "RecheckChecker",
    "IncrementalGKChecker",
    "IncrementalLBTChecker",
    "checker_for",
    "restore_checker",
]

#: Default number of resolved operations before the first authoritative check.
DEFAULT_CHECK_INTERVAL = 16
#: Default geometric growth factor between authoritative checks.
DEFAULT_CADENCE_GROWTH = 2.0


class Checker(ABC):
    """Protocol for incremental k-atomicity checkers.

    A checker verifies a *single register's* operation stream (k-atomicity is
    local, Section II-B; multi-register streams are demultiplexed by the
    streaming engine).  The lifecycle is::

        checker = IncrementalGKChecker()
        for op in stream:
            verdict = checker.feed(op)      # StreamVerdict | None
            if verdict is not None and verdict.final and not verdict:
                alarm(verdict)              # violation: sound, irrevocable
        result = checker.finish()           # == batch verdict on the stream

    ``feed`` returns a verdict only when the checker actually (re)checked on
    that operation; ``check_now`` forces a verdict at any point; neither
    carries a witness.  The streaming engine follows the same lifecycle per
    register: it feeds each operation the moment it arrives, and at each
    window close calls ``check_now`` (or ``peek``) once on every register
    the window touched.
    ``reset`` returns the checker to its initial state for reuse.
    """

    #: The staleness bound this checker decides.
    k: int

    @abstractmethod
    def feed(self, op: Operation) -> Optional[StreamVerdict]:
        """Ingest one operation; returns a verdict if one was produced."""

    @abstractmethod
    def check_now(self) -> StreamVerdict:
        """Produce a verdict for the stream seen so far."""

    @abstractmethod
    def peek(self) -> StreamVerdict:
        """Return the latest known verdict without forcing a re-check.

        Unlike :meth:`check_now`, the returned verdict may lag behind the
        stream by up to one check-cadence gap; it is O(1) (after the first
        call) and is what high-throughput consumers poll between cadence
        points.
        """

    @abstractmethod
    def finish(self) -> VerificationResult:
        """End the stream and return the final (batch-equal) verdict."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all ingested operations and start over."""

    @abstractmethod
    def snapshot(self) -> dict:
        """Capture the complete checker state as one picklable mapping.

        The snapshot is self-describing (it records the checker class and
        configuration) and deep enough that ``restore`` reproduces not just
        the final verdict but the *entire future verdict sequence* of an
        uninterrupted checker fed the same remaining operations.
        """

    @abstractmethod
    def restore(self, state: dict) -> None:
        """Rehydrate the state captured by :meth:`snapshot`.

        Raises :class:`~repro.core.errors.VerificationError` when the
        snapshot was taken from an incompatible checker (different class,
        ``k``, or delegate algorithm).
        """


class RecheckChecker(Checker):
    """Incremental checking by buffered re-check at geometric checkpoints.

    This is the generic fallback of the protocol: operations are buffered,
    reads whose dictating write has not arrived wait in a pending set, and the
    registered batch algorithm re-verifies the resolved prefix whenever it
    reaches the next geometrically spaced checkpoint.  A NO latches (it is
    final by the monotonicity argument in the module docstring);
    :meth:`finish` verifies the complete buffer with the batch algorithm, so
    final verdicts agree with batch verification exactly.

    Subclasses add cheap per-operation *monitors* that can trigger an
    authoritative check ahead of cadence (see :class:`IncrementalGKChecker`).

    Parameters
    ----------
    k:
        The staleness bound to verify.
    algorithm:
        Batch algorithm name used for authoritative checks (a
        :mod:`~repro.algorithms.registry` name, or ``"auto"``).
    check_interval:
        Resolved-prefix size of the first authoritative check.
    cadence_growth:
        Multiplicative gap between checkpoint sizes (>= 1.0; ``1.0`` checks
        every ``check_interval`` operations, the quadratic-cost extreme).
    max_exact_ops:
        Forwarded to :func:`repro.core.api.verify` for the ``k >= 3`` oracle
        guard.
    """

    def __init__(
        self,
        k: int,
        *,
        algorithm: str = "auto",
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        cadence_growth: float = DEFAULT_CADENCE_GROWTH,
        max_exact_ops: Optional[int] = None,
    ):
        if k < 1:
            raise VerificationError(f"k must be a positive integer, got {k!r}")
        if check_interval < 1:
            raise VerificationError(
                f"check_interval must be >= 1, got {check_interval!r}"
            )
        if cadence_growth < 1.0:
            raise VerificationError(
                f"cadence_growth must be >= 1.0, got {cadence_growth!r}"
            )
        self.k = k
        self.algorithm = algorithm
        self.check_interval = check_interval
        self.cadence_growth = cadence_growth
        self.max_exact_ops = max_exact_ops
        self.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ops_seen(self) -> int:
        """Total operations ingested (pending reads included)."""
        return self._ops_seen

    @property
    def pending_reads(self) -> int:
        """Reads whose dictating write has not yet arrived."""
        return sum(len(reads) for reads in self._pending.values())

    @property
    def key(self) -> Optional[Hashable]:
        """The register this checker is bound to (set by the first keyed op)."""
        return self._key

    @property
    def checks_run(self) -> int:
        """Authoritative checks executed so far (a finish may add one)."""
        return self._checks_run

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all ingested operations and start over."""
        self._resolved: List[Operation] = []
        self._pending: Dict[Hashable, List[Operation]] = {}
        self._written: Dict[Hashable, Operation] = {}
        self._key: Optional[Hashable] = None
        self._ops_seen = 0
        self._latched: Optional[StreamVerdict] = None
        self._last_verdict: Optional[StreamVerdict] = None
        self._dirty = False
        self._next_check = self.check_interval
        self._checks_run = 0
        self._finished = False
        self._reset_monitor()

    def feed(self, op: Operation) -> Optional[StreamVerdict]:
        """Ingest one operation; returns a verdict if a check ran on it."""
        if self._finished:
            raise VerificationError(
                "checker already finished; call reset() to start a new stream"
            )
        if op.key is not None:
            if self._key is None:
                self._key = op.key
            elif op.key != self._key:
                raise HistoryError(
                    f"checker for register {self._key!r} received an operation "
                    f"on register {op.key!r}; demultiplex multi-register "
                    "streams with the streaming engine"
                )
        self._ops_seen += 1
        monitor_hit = False
        if op.is_write:
            if op.value in self._written:
                raise DuplicateValueError(
                    f"two writes assign the value {op.value!r} (operations "
                    f"#{self._written[op.value].op_id} and #{op.op_id}); the "
                    "model requires uniquely-valued writes (Section II-C)"
                )
            self._written[op.value] = op
            self._admit(op)
            monitor_hit |= self._monitor(op)
            # A write resolves every read of its value that arrived early.
            for r in self._pending.pop(op.value, ()):
                self._admit(r)
                monitor_hit |= self._monitor(r)
        elif op.value in self._written:
            self._admit(op)
            monitor_hit |= self._monitor(op)
        else:
            self._pending.setdefault(op.value, []).append(op)
        if self._latched is None and (
            monitor_hit or len(self._resolved) >= self._next_check
        ):
            return self._run_check()
        return None

    def check_now(self) -> StreamVerdict:
        """Produce a verdict for the stream seen so far (cached when clean)."""
        if self._latched is not None:
            return self._latched
        if not self._dirty and self._last_verdict is not None:
            return self._last_verdict
        return self._run_check()

    def peek(self) -> StreamVerdict:
        """Latest known verdict, possibly one cadence gap stale; O(1)."""
        if self._latched is not None:
            return self._latched
        if self._last_verdict is not None:
            return self._last_verdict
        return self._run_check()

    def finish(self) -> VerificationResult:
        """End the stream; the verdict equals the batch algorithm's.

        Pending reads are folded back into the history, where the batch
        preprocessing reports them as Section II-C anomalies if their
        dictating writes truly never arrived.  A latched NO stays NO, but
        its reason and stats come from the whole stream, as batch
        verification's do, not from the prefix that latched.
        """
        self._finished = True
        ops = list(self._resolved)
        for reads in self._pending.values():
            ops.extend(reads)
        result = self._batch_verify(ops)
        self._last_verdict = StreamVerdict(
            result=result, ops_seen=self._ops_seen, final=True
        )
        self._dirty = False
        return result

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the complete checker state as one picklable mapping."""
        return {
            "class": type(self).__name__,
            "k": self.k,
            "algorithm": self.algorithm,
            "check_interval": self.check_interval,
            "cadence_growth": self.cadence_growth,
            "max_exact_ops": self.max_exact_ops,
            "resolved": list(self._resolved),
            "pending": {value: list(reads) for value, reads in self._pending.items()},
            "written": dict(self._written),
            "key": self._key,
            "ops_seen": self._ops_seen,
            "latched": self._latched,
            "last_verdict": self._last_verdict,
            "dirty": self._dirty,
            "next_check": self._next_check,
            "checks_run": self._checks_run,
            "finished": self._finished,
            "monitor": self._monitor_snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Rehydrate the state captured by :meth:`snapshot`."""
        if state.get("class") != type(self).__name__:
            raise VerificationError(
                f"snapshot was taken from a {state.get('class')!r} checker; "
                f"cannot restore into {type(self).__name__!r}"
            )
        if state.get("k") != self.k or state.get("algorithm") != self.algorithm:
            raise VerificationError(
                f"snapshot verifies k={state.get('k')} via "
                f"{state.get('algorithm')!r}; this checker is configured for "
                f"k={self.k} via {self.algorithm!r}"
            )
        self._resolved = list(state["resolved"])
        self._pending = {value: list(reads) for value, reads in state["pending"].items()}
        self._written = dict(state["written"])
        self._key = state["key"]
        self._ops_seen = state["ops_seen"]
        self._latched = state["latched"]
        self._last_verdict = state["last_verdict"]
        self._dirty = state["dirty"]
        self._next_check = state["next_check"]
        self._checks_run = state["checks_run"]
        self._finished = state["finished"]
        self._restore_monitor(state["monitor"])
        # Restored operations carry op_ids minted by another process; keep
        # this process's auto-ids clear of them (ids are the identity of an
        # Operation, so a collision would corrupt op-keyed indexes).
        ids = [op.op_id for op in self._resolved]
        for reads in self._pending.values():
            ids.extend(op.op_id for op in reads)
        from ..core.operation import ensure_op_ids_above

        ensure_op_ids_above(max(ids, default=-1))

    def _monitor_snapshot(self) -> dict:
        """Subclass hook: picklable copy of the incremental monitor state."""
        return {}

    def _restore_monitor(self, state: dict) -> None:
        """Subclass hook: rehydrate :meth:`_monitor_snapshot` output."""
        self._reset_monitor()

    # ------------------------------------------------------------------
    # Internals (and subclass hooks)
    # ------------------------------------------------------------------
    def _admit(self, op: Operation) -> None:
        self._resolved.append(op)
        self._dirty = True

    def _reset_monitor(self) -> None:
        """Subclass hook: clear incremental monitor state."""

    def _monitor(self, op: Operation) -> bool:
        """Subclass hook: O(log n) state update for one resolved operation.

        Returns ``True`` to trigger an immediate authoritative check (a
        *hint*; soundness always comes from the batch re-check).
        """
        return False

    def _batch_verify(self, ops: Sequence[Operation]) -> VerificationResult:
        from ..core.api import verify  # local import: core.api depends on registry

        kwargs = {} if self.max_exact_ops is None else {"max_exact_ops": self.max_exact_ops}
        return verify(
            History(ops, key=self._key),
            self.k,
            algorithm=self.algorithm,
            preprocess=True,
            **kwargs,
        )

    def _verify_resolved(self) -> VerificationResult:
        """Subclass hook: verify the resolved prefix, batch-equal."""
        return self._batch_verify(self._resolved)

    def _run_check(self) -> StreamVerdict:
        self._checks_run += 1
        result = self._verify_resolved()
        if result.witness is not None:  # O(prefix); only finish() hands one out
            result = replace(result, witness=None)
        verdict = StreamVerdict(
            result=result, ops_seen=self._ops_seen, final=not result
        )
        if not result:
            self._latched = verdict
        self._last_verdict = verdict
        self._dirty = False
        self._next_check = max(
            len(self._resolved) + self.check_interval,
            math.ceil(len(self._resolved) * self.cadence_growth),
        )
        return verdict


class _ForwardZoneIndex:
    """Ordered index of (raw) forward zones with O(log n) overlap queries.

    Zones are intervals ``[low, high]`` keyed by the cluster's written value.
    While no two indexed zones overlap, inserting or growing a zone only needs
    to compare against its immediate neighbours in low-endpoint order, so a
    single :func:`bisect.bisect_left` plus two comparisons decides whether the
    Gibbons–Korach forward-overlap condition just fired.
    """

    __slots__ = ("_lows", "_entries", "_current")

    def __init__(self) -> None:
        self._lows: List[float] = []
        self._entries: List[Tuple[float, float, int]] = []  # (low, high, write op_id)
        self._current: Dict[int, Tuple[float, float]] = {}

    def update(self, write_id: int, low: float, high: float) -> bool:
        """Insert or move one zone; returns True iff it overlaps a neighbour."""
        previous = self._current.get(write_id)
        if previous == (low, high):
            return False
        if previous is not None:
            idx = bisect.bisect_left(self._lows, previous[0])
            while idx < len(self._entries) and self._entries[idx][2] != write_id:
                idx += 1
            if idx < len(self._entries):
                del self._lows[idx]
                del self._entries[idx]
        self._current[write_id] = (low, high)
        idx = bisect.bisect_left(self._lows, low)
        overlap = False
        if idx > 0 and self._entries[idx - 1][1] >= low:
            overlap = True
        if idx < len(self._entries) and self._entries[idx][0] <= high:
            overlap = True
        self._lows.insert(idx, low)
        self._entries.insert(idx, (low, high, write_id))
        return overlap

    def containing(self, low: float, high: float) -> bool:
        """True iff some indexed zone contains the interval ``[low, high]``.

        Correct whenever the indexed zones are pairwise disjoint (the only
        regime in which the checker keeps relying on the index): the sole
        candidate container is the zone with the largest low endpoint not
        exceeding ``low``.
        """
        idx = bisect.bisect_right(self._lows, low) - 1
        return idx >= 0 and self._entries[idx][1] >= high

    def snapshot(self) -> dict:
        """Picklable copy of the index state."""
        return {
            "lows": list(self._lows),
            "entries": list(self._entries),
            "current": dict(self._current),
        }

    def restore(self, state: dict) -> None:
        """Rehydrate :meth:`snapshot` output."""
        self._lows = list(state["lows"])
        self._entries = [tuple(entry) for entry in state["entries"]]
        self._current = {
            write_id: tuple(zone) for write_id, zone in state["current"].items()
        }


class IncrementalGKChecker(RecheckChecker):
    """Incremental Gibbons–Korach 1-atomicity (linearizability) checking.

    Maintains cluster/zone state as operations arrive: each resolved
    operation updates its cluster's ``(min finish, max start)`` aggregate in
    O(1), and forward zones live in an ordered index
    (:class:`_ForwardZoneIndex`) that answers both GK conditions —
    forward-forward overlap and backward-zone-inside-forward-zone — against
    the updated zone in O(log n).  Cluster zones are monotone in a useful way
    (``min finish`` only decreases, ``max start`` only increases, so forward
    zones only grow and backward zones only shrink or flip forward), which is
    what makes neighbour-only overlap checks complete while the history is
    still violation-free.

    The index sees *raw* timestamps, whereas the authoritative GK verdict is
    defined on the normalised history (ties broken, writes shortened —
    Section II-C), so an index hit is treated as a trigger for an immediate
    authoritative re-check rather than as a verdict by itself.  After a
    false-alarm trigger the monitor is suppressed until the resolved prefix
    grows past the next cadence point, keeping the worst-case cost at the
    cadence bound.
    """

    def __init__(
        self,
        *,
        algorithm: str = "gk",
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        cadence_growth: float = DEFAULT_CADENCE_GROWTH,
    ):
        super().__init__(
            1,
            algorithm=algorithm,
            check_interval=check_interval,
            cadence_growth=cadence_growth,
        )

    def _reset_monitor(self) -> None:
        self._clusters: Dict[int, Tuple[float, float]] = {}  # write op_id -> (min_f, max_s)
        self._write_ids: Dict[Hashable, int] = {}  # value -> write op_id
        self._fwd = _ForwardZoneIndex()
        self._suppress_until = 0

    def _monitor_snapshot(self) -> dict:
        return {
            "clusters": dict(self._clusters),
            "write_ids": dict(self._write_ids),
            "fwd": self._fwd.snapshot(),
            "suppress_until": self._suppress_until,
        }

    def _restore_monitor(self, state: dict) -> None:
        self._reset_monitor()
        self._clusters = {
            write_id: tuple(zone) for write_id, zone in state["clusters"].items()
        }
        self._write_ids = dict(state["write_ids"])
        self._fwd.restore(state["fwd"])
        self._suppress_until = state["suppress_until"]

    def _monitor(self, op: Operation) -> bool:
        if op.is_write:
            self._write_ids[op.value] = op.op_id
            write_id = op.op_id
            aggregate = (op.finish, op.start)
        else:
            write_id = self._write_ids[op.value]
            current = self._clusters[write_id]
            aggregate = (min(current[0], op.finish), max(current[1], op.start))
        self._clusters[write_id] = aggregate
        min_finish, max_start = aggregate
        if min_finish < max_start:  # forward zone: grows monotonically
            hit = self._fwd.update(write_id, min_finish, max_start)
        else:  # backward zone: check containment in a forward zone
            hit = self._fwd.containing(max_start, min_finish)
        if hit and len(self._resolved) >= self._suppress_until:
            # One authoritative check per alarm; if it comes back YES the raw
            # zones were lying (normalisation moved an endpoint), so stay
            # quiet for at least check_interval more resolved operations —
            # eager checks are a latency optimisation, never a cost hazard.
            self._suppress_until = len(self._resolved) + self.check_interval
            return True
        return False


class IncrementalLBTChecker(RecheckChecker):
    """Incremental 2-atomicity checking on top of LBT.

    LBT builds its order back to front (Section III), so a new operation can
    change every epoch in principle; in a stream it rarely changes more than
    the last few.  With the default ``lbt`` delegate every re-check runs one
    growing :class:`~repro.algorithms.lbt.LBTChecker` over the resolved
    prefix, kept across checks:

    * **normalisation from admission state** — as operations are admitted the
      checker keeps each write's minimum dictated-read finish and the set of
      raw and normalised timestamps, and watches for a read preceding its
      dictating write.  While every timestamp is distinct both tie-breaking
      passes of :func:`~repro.core.preprocess.normalize` are the identity, so
      the normalised prefix is the buffer with shortened writes, updated in
      place;
    * **epoch splicing** — the growing checker re-runs LBT only until the
      new operations are placed and the placed old ones line up with an
      epoch boundary of its previous run, then keeps that run's ledger front
      and stats (see :meth:`LBTChecker.verify`).

    Each re-check therefore equals ``verify(History(prefix), 2,
    algorithm="lbt", preprocess=True)`` but for the witness, at a cost that
    tracks the new operations rather than the prefix.  Ties, an anomaly, or
    any other delegate send checks down the batch path, as does
    :meth:`finish` with reads pending; with none it finishes from the growing
    checker and its ledger's witness.  The admission state is derived data:
    snapshots never carry it, and :meth:`restore` rebuilds it from the
    buffer.  NO verdicts latch and are final; the finished verdict equals
    batch LBT exactly.
    """

    def __init__(
        self,
        *,
        algorithm: str = "lbt",
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        cadence_growth: float = DEFAULT_CADENCE_GROWTH,
    ):
        super().__init__(
            2,
            algorithm=algorithm,
            check_interval=check_interval,
            cadence_growth=cadence_growth,
        )

    def _reset_monitor(self) -> None:
        # ``None`` once the prefix needs the batch path (ties, an anomaly, a
        # latched NO, or a delegate other than LBT); it never comes back.
        self._lbt: Optional[LBTChecker] = LBTChecker() if self.algorithm == "lbt" else None
        self._min_read_finish: Dict[Hashable, float] = {}
        # Every raw and normalised timestamp seen.  Meeting one again means
        # normalisation would (or, for a superseded shortened finish, might)
        # break a tie, so the register takes the batch path.
        self._times: Set[float] = set()

    def _restore_monitor(self, state: dict) -> None:
        # Older snapshots carry a write-only monitor under "monitor"; the
        # admission state replaces it and is rebuilt from the buffer.
        self._reset_monitor()
        if self._latched is not None:
            self._lbt = None
        for op in self._resolved:
            if self._lbt is None:
                break
            self._track(op)

    def _admit(self, op: Operation) -> None:
        super()._admit(op)
        if self._lbt is not None:
            self._track(op)

    def _track(self, op: Operation) -> None:
        """Fold one admitted operation into the normalised growing prefix."""
        times = self._times
        for t in (op.start, op.finish):
            if t in times:
                self._lbt = None
                return
            times.add(t)
        if op.is_write:
            self._lbt.add(op)
            return
        write = self._written[op.value]
        if op.precedes(write):
            self._lbt = None  # a Section II-C anomaly
            return
        previous = self._min_read_finish.get(op.value)
        if previous is None or op.finish < previous:
            self._min_read_finish[op.value] = op.finish
            old = write.finish if previous is None else shortened_finish(write, previous)
            new = shortened_finish(write, op.finish)
            if new != old:
                if new in times:
                    self._lbt = None
                    return
                times.add(new)
                self._lbt.replace(write.with_times(finish=new))
        self._lbt.add(op)

    def finish(self) -> VerificationResult:
        """End the stream; the verdict equals batch LBT's on the stream.

        With nothing pending the resolved prefix is the stream, so the live
        growing checker's verdict (cached, or one more check) and witness are
        batch's.  A restored checker's ledger starts empty even when its
        verdict is cached; ``witness()`` then re-runs the check.
        """
        if self._lbt is None or self._pending:
            return super().finish()
        result = self.check_now().result
        if result:
            result = replace(result, witness=self._lbt.witness())
        self._finished = True
        self._last_verdict = StreamVerdict(
            result=result, ops_seen=self._ops_seen, final=True
        )
        return result

    def _verify_resolved(self) -> VerificationResult:
        if self._lbt is None:
            return super()._verify_resolved()
        result = self._lbt.verify()
        if not result:
            self._lbt = None  # latched: no more re-checks to speed up
        return result


def checker_for(
    k: int,
    *,
    algorithm: str = "auto",
    check_interval: int = DEFAULT_CHECK_INTERVAL,
    cadence_growth: float = DEFAULT_CADENCE_GROWTH,
    max_exact_ops: Optional[int] = None,
) -> Checker:
    """Build an incremental checker for staleness bound ``k``.

    ``algorithm="auto"`` selects :class:`IncrementalGKChecker` for ``k = 1``,
    :class:`IncrementalLBTChecker` for ``k = 2``, and a generic
    :class:`RecheckChecker` over the batch ``auto`` selection for ``k >= 3``.
    Any registered batch algorithm name is accepted explicitly; ``"gk"`` keeps
    its dedicated incremental class, and the 2-AV names (``"lbt"``,
    ``"lbt-reference"``, ``"fzf"``) become the re-check delegate of
    :class:`IncrementalLBTChecker`.
    """
    if algorithm == "auto":
        if k == 1:
            return IncrementalGKChecker(
                check_interval=check_interval, cadence_growth=cadence_growth
            )
        if k == 2:
            return IncrementalLBTChecker(
                check_interval=check_interval,
                cadence_growth=cadence_growth,
            )
        return RecheckChecker(
            k,
            algorithm="auto",
            check_interval=check_interval,
            cadence_growth=cadence_growth,
            max_exact_ops=max_exact_ops,
        )
    name = algorithm.strip().lower()
    if name == "gk":
        if k != 1:
            raise VerificationError("GK decides only 1-atomicity")
        return IncrementalGKChecker(
            check_interval=check_interval, cadence_growth=cadence_growth
        )
    if name in ("lbt", "lbt-reference", "fzf"):
        if k != 2:
            raise VerificationError(f"{name} decides only 2-atomicity")
        return IncrementalLBTChecker(
            algorithm=name,
            check_interval=check_interval,
            cadence_growth=cadence_growth,
        )
    # Validate the name eagerly so typos fail at construction, not first check.
    from .registry import get_algorithm

    spec = get_algorithm(name)
    if not spec.supports(k):
        raise VerificationError(
            f"algorithm {spec.name!r} cannot decide {k}-atomicity"
        )
    return RecheckChecker(
        k,
        algorithm=name,
        check_interval=check_interval,
        cadence_growth=cadence_growth,
        max_exact_ops=max_exact_ops,
    )


def restore_checker(state: dict) -> Checker:
    """Reconstruct a checker from a :meth:`Checker.snapshot` mapping.

    The snapshot records the checker class and configuration, so the caller
    needs nothing beyond the stored state — this is what checkpoint files
    deserialise through.
    """
    classes = {
        cls.__name__: cls
        for cls in (RecheckChecker, IncrementalGKChecker, IncrementalLBTChecker)
    }
    try:
        cls = classes[state["class"]]
    except KeyError:
        raise VerificationError(
            f"snapshot names unknown checker class {state.get('class')!r}"
        ) from None
    kwargs = {
        "algorithm": state["algorithm"],
        "check_interval": state["check_interval"],
        "cadence_growth": state["cadence_growth"],
    }
    if cls is RecheckChecker:
        checker = cls(state["k"], max_exact_ops=state["max_exact_ops"], **kwargs)
    else:
        checker = cls(**kwargs)
    checker.restore(state)
    return checker
