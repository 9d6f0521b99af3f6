"""Anomaly detection and history normalisation (Section II-C).

The verification algorithms assume:

1. every read has a dictating write present in the history,
2. no read precedes its dictating write,
3. every write finishes before each of its dictated reads finishes
   (enforceable without loss of generality by *shortening* writes),
4. all start/finish timestamps are distinct.

:func:`find_anomalies` detects violations of (1) and (2), which make a history
trivially non-k-atomic for every ``k``.  :func:`normalize` enforces (3) and
(4) by adjusting timestamps, exactly as the paper prescribes, and raises if
(1) or (2) is violated (unless asked to drop the offending reads instead).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import AnomalyError
from .history import History
from .operation import Operation

__all__ = [
    "AnomalyKind",
    "Anomaly",
    "find_anomalies",
    "has_anomalies",
    "shorten_writes",
    "shortened_finish",
    "perturb_equal_timestamps",
    "normalize",
]


class AnomalyKind(enum.Enum):
    """The anomalies of Section II-C that rule out k-atomicity outright."""

    READ_WITHOUT_WRITE = "read-without-dictating-write"
    READ_BEFORE_WRITE = "read-precedes-dictating-write"


@dataclass(frozen=True)
class Anomaly:
    """A single anomaly found in a history."""

    kind: AnomalyKind
    read: Operation
    write: Optional[Operation] = None

    def describe(self) -> str:
        """A human-readable description of the anomaly."""
        if self.kind is AnomalyKind.READ_WITHOUT_WRITE:
            return (
                f"read #{self.read.op_id} returned value {self.read.value!r} "
                "which no write in the history assigned"
            )
        return (
            f"read #{self.read.op_id} of value {self.read.value!r} finished at "
            f"{self.read.finish:g}, before its dictating write #{self.write.op_id} "
            f"started at {self.write.start:g}"
        )


def _scan_anomalies(history: History) -> List[Anomaly]:
    anomalies: List[Anomaly] = []
    for r in history.reads:
        w = history.dictating_write(r)
        if w is None:
            anomalies.append(Anomaly(AnomalyKind.READ_WITHOUT_WRITE, r))
        elif r.precedes(w):
            anomalies.append(Anomaly(AnomalyKind.READ_BEFORE_WRITE, r, w))
    return anomalies


def find_anomalies(history: History) -> List[Anomaly]:
    """Return all Section II-C anomalies present in ``history``.

    An anomaly is either a read whose value was never written, or a read that
    *precedes* its dictating write (finishes before the write starts).  Either
    one makes the history non-k-atomic for every ``k``, so the verification
    algorithms require the history to be anomaly-free.  The scan is memoized
    on the history; treat the returned list as read-only.
    """
    return history.cached("anomalies", lambda: _scan_anomalies(history))


def has_anomalies(history: History) -> bool:
    """True iff :func:`find_anomalies` would return a non-empty list."""
    cached = history._derived.get("anomalies")
    if cached is not None:
        return bool(cached)
    for r in history.reads:
        w = history.dictating_write(r)
        if w is None or r.precedes(w):
            return True
    history._derived["anomalies"] = []
    return False


def shorten_writes(history: History, *, epsilon: float = 1e-9) -> History:
    """Enforce the assumption that a write ends before its dictated reads end.

    Section II-C: "we assume that a write ends before any of its dictated
    reads.  If a given history does not satisfy this assumption, we can
    enforce it by shortening writes so that their finish time is slightly
    smaller than the minimum finish time of their dictated reads."  The
    shortening never moves a write's finish before its own start (the model
    guarantees this is possible because a read cannot precede its dictating
    write in an anomaly-free history).
    """
    replacements = {}
    for w in history.writes:
        reads = history.dictated_reads(w)
        if not reads:
            continue
        new_finish = shortened_finish(w, min(r.finish for r in reads), epsilon)
        if new_finish != w.finish:
            replacements[w] = w.with_times(finish=new_finish)
    if not replacements:
        return history
    ops = [replacements.get(op, op) for op in history.operations]
    return History(ops, key=history.key)


def shortened_finish(
    write: Operation, min_read_finish: float, epsilon: float = 1e-9
) -> float:
    """The finish :func:`shorten_writes` gives ``write`` (its own if kept).

    ``min_read_finish`` is the minimum finish time of the write's dictated
    reads.  Shared with the incremental 2-AV checker, which keeps that
    minimum per write as reads arrive instead of re-normalising its buffer.
    """
    if write.finish < min_read_finish:
        return write.finish
    new_finish = min_read_finish - epsilon
    if new_finish <= write.start:
        # Keep the write non-degenerate; place the finish just after the
        # start but still before the read finish (possible because the
        # read finishes after the write starts in anomaly-free input).
        new_finish = write.start + (min_read_finish - write.start) / 2.0
        if new_finish <= write.start:
            # Degenerate borderline case: a dictated read finishes at (or
            # numerically indistinguishably after) the write's start, so
            # no positive-length shortening exists.  Leave the write as is
            # and let the timestamp perturbation separate the tie.
            return write.finish
    return new_finish


def perturb_equal_timestamps(history: History, *, epsilon: float = 1e-9) -> History:
    """Make all start/finish timestamps distinct.

    The model assumes unique timestamps (Section II-C).  Real traces often
    contain ties because of coarse clocks; this helper breaks ties by nudging
    later events forward by multiples of ``epsilon`` in a deterministic order
    (timestamp, then operation id, finishes before starts).  The perturbation
    is strictly order-preserving for already-distinct timestamps, and
    a history whose timestamps are all distinct comes back unchanged.
    """
    stamps = {op.start for op in history.operations}
    stamps.update(op.finish for op in history.operations)
    if len(stamps) == 2 * len(history.operations):
        # Set membership, as in the loop below, which would nudge nothing.
        return history
    events: List[Tuple[float, int, int, Operation, str]] = []
    for op in history.operations:
        events.append((op.start, 0, op.op_id, op, "start"))
        events.append((op.finish, 1, op.op_id, op, "finish"))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    seen = set()
    new_times = {}
    for t, _, _, op, which in events:
        t_new = t
        while t_new in seen:
            t_new += epsilon
        seen.add(t_new)
        new_times[(op.op_id, which)] = t_new

    ops = []
    changed = False
    for op in history.operations:
        s = new_times[(op.op_id, "start")]
        f = new_times[(op.op_id, "finish")]
        if s != op.start or f != op.finish:
            changed = True
            if f <= s:
                f = s + epsilon
            ops.append(op.with_times(start=s, finish=f))
        else:
            ops.append(op)
    if not changed:
        return history
    return History(ops, key=history.key)


def normalize(
    history: History,
    *,
    drop_anomalous_reads: bool = False,
    epsilon: float = 1e-9,
) -> History:
    """Produce a history satisfying every Section II-C assumption.

    Steps, in order:

    1. detect anomalies; raise :class:`~repro.core.errors.AnomalyError`
       (or drop the anomalous reads if ``drop_anomalous_reads=True``),
    2. break timestamp ties,
    3. shorten writes so they finish strictly before their dictated reads
       finish,
    4. break timestamp ties once more (shortening may land a write's finish
       exactly on an existing timestamp; the perturbation preserves the strict
       order of distinct timestamps, so it cannot undo step 3).

    The result is suitable input for every verifier in
    :mod:`repro.algorithms`.

    With the default options the result is memoized on the input history (and
    the output normalises to itself), so GK, FZF and the per-k staleness
    sweep pay the normalisation cost once per history rather than once per
    verifier call.
    """
    default_args = not drop_anomalous_reads and epsilon == 1e-9
    if default_args:
        cached = history._derived.get("normalized")
        if cached is not None:
            return cached
    anomalies = find_anomalies(history)
    if anomalies:
        if not drop_anomalous_reads:
            raise AnomalyError(
                f"history contains {len(anomalies)} anomalies that rule out "
                "k-atomicity for every k; pass drop_anomalous_reads=True to "
                "remove the offending reads instead",
                anomalies,
            )
        bad_reads = {a.read for a in anomalies}
        history = history.without(bad_reads)
    result = perturb_equal_timestamps(history, epsilon=epsilon)
    result = shorten_writes(result, epsilon=epsilon)
    result = perturb_equal_timestamps(result, epsilon=epsilon)
    if default_args:
        # Normalisation is idempotent: distinct timestamps stay distinct and
        # already-shortened writes are untouched, so the output may safely
        # normalise to itself.
        history._derived["normalized"] = result
        result._derived.setdefault("normalized", result)
    return result
