"""LBT — 2-atomicity verification by Limited BackTracking (Section III).

LBT conceptually constructs a 2-atomic total order back to front, placing
operations into *write slots* and *read containers* (Figure 1).  It runs in
*epochs*: at the start of an epoch a candidate write is tentatively placed in
the latest unfilled write slot; that choice then uniquely determines the rest
of the epoch's placements (no further search), and backtracking is limited to
the choice of the epoch's first write.  The paper gives the pseudo-code in
Figure 2 and proves correctness (Theorem 3.1) and an
``O(n log n + c·n)`` bound (Theorem 3.2) where ``c`` is the maximum number of
concurrent writes.

This module provides two interchangeable implementations:

* :func:`verify_2atomic_reference` — a direct, easily-auditable transcription
  of Figure 2 operating on plain Python sets (quadratic bookkeeping, used as a
  readable reference and in cross-validation tests);
* :class:`LBTChecker` / :func:`verify_2atomic` — the efficient variant from
  the Theorem 3.2 proof, using linked-list removal with an undo log and
  iterative-deepening candidate exploration.  A growing :class:`LBTChecker`
  re-verifies a stream's prefix as it grows, re-running only the epochs the
  new operations reach.

Both produce an explicit witness total order on YES.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import has_anomalies, normalize
from ..core.result import VerificationResult

__all__ = [
    "verify_2atomic",
    "verify_2atomic_reference",
    "is_2atomic",
    "LBTChecker",
]

_ALGORITHM = "LBT"
_ALGORITHM_REF = "LBT-reference"


# ======================================================================
# Reference implementation (direct transcription of Figure 2)
# ======================================================================
def _run_epoch_reference(
    first: Operation,
    H: Set[Operation],
    W: Set[Operation],
    history: History,
) -> Tuple[bool, List[List[Operation]]]:
    """Run one epoch starting from candidate ``first``.

    Mutates ``H`` and ``W``.  Returns ``(success, segments)`` where
    ``segments[i]`` holds the write placed in the i-th slot of the epoch
    (latest first) followed by the reads placed in its read container.
    """
    w = first
    segments: List[List[Operation]] = []
    while True:
        w_next: Optional[Operation] = None
        container: List[Operation] = []
        # Line 13: every remaining operation that starts after w finishes.
        after = [op for op in H if w.finish < op.start]
        for op in after:
            if op.is_write:
                return False, segments  # line 14
            dictating = history.dictating_write(op)
            if dictating is not w and dictating is not w_next:
                if w_next is not None:
                    return False, segments  # line 16
                w_next = dictating  # line 17
            container.append(op)
        for op in after:
            H.discard(op)  # line 18
        # Lines 19-20: remaining dictated reads of w, then w itself.
        rest = [r for r in history.dictated_reads(w) if r in H]
        for r in rest:
            H.discard(r)
            container.append(r)
        H.discard(w)
        W.discard(w)
        container.sort(key=lambda op: (op.start, op.finish, op.op_id))
        segments.append([w] + container)
        if w_next is None:
            return True, segments  # line 21
        w = w_next  # line 22


def verify_2atomic_reference(history: History) -> VerificationResult:
    """Decide 2-atomicity with a literal transcription of Figure 2.

    Quadratic-or-worse bookkeeping, but very close to the paper's pseudo-code;
    primarily used as a cross-validation reference for :func:`verify_2atomic`.
    The input must satisfy the Section II-C assumptions (use
    :func:`repro.core.preprocess.normalize`).
    """
    if history.is_empty:
        return VerificationResult.yes(2, _ALGORITHM_REF, witness=())
    if has_anomalies(history):
        return VerificationResult.no(
            2, _ALGORITHM_REF, reason="history contains Section II-C anomalies"
        )

    H: Set[Operation] = set(history.operations)
    W: Set[Operation] = set(history.writes)
    witness_suffix: List[Operation] = []
    epochs = 0
    candidates_tried = 0

    while H:
        epochs += 1
        # Line 3: writes in W that do not precede any other write in W.
        candidates = [
            w for w in W if not any(w.precedes(other) for other in W if other is not w)
        ]
        # Deterministic order: latest-finishing candidates first.
        candidates.sort(key=lambda w: (-w.finish, w.op_id))
        success = False
        for candidate in candidates:
            candidates_tried += 1
            H_trial = set(H)
            W_trial = set(W)
            ok, segments = _run_epoch_reference(candidate, H_trial, W_trial, history)
            if ok:
                H, W = H_trial, W_trial
                epoch_ops: List[Operation] = []
                for segment in reversed(segments):
                    epoch_ops.extend(segment)
                witness_suffix = epoch_ops + witness_suffix
                success = True
                break
        if not success:
            return VerificationResult.no(
                2,
                _ALGORITHM_REF,
                reason=f"all {len(candidates)} epoch candidates failed with "
                f"{len(H)} operations left",
                stats={"epochs": epochs, "candidates_tried": candidates_tried},
            )
    return VerificationResult.yes(
        2,
        _ALGORITHM_REF,
        witness=witness_suffix,
        stats={"epochs": epochs, "candidates_tried": candidates_tried},
    )


# ======================================================================
# Efficient implementation (Theorem 3.2)
# ======================================================================
class _LinkedList:
    """An intrusive doubly linked list over integer node ids with an undo log.

    Nodes are identified by their index in the original sorted array.  Removal
    is O(1) and logged; :meth:`undo_to` restores removals in reverse order,
    which re-links nodes correctly because a removed node keeps its own
    ``prev``/``next`` pointers.
    """

    __slots__ = ("prev", "next", "head", "tail", "removed", "log")

    def __init__(self, n: int):
        self.prev = list(range(-1, n - 1))
        self.next = list(range(1, n + 1))
        self.head = 0 if n else -1
        self.tail = n - 1
        if n:
            self.next[n - 1] = -1
        self.removed = [False] * n
        self.log: List[int] = []

    def remove(self, i: int) -> None:
        """Unlink node ``i`` and record the removal."""
        if self.removed[i]:
            return
        self.detach(i)
        self.removed[i] = True
        self.log.append(i)

    def undo_to(self, mark: int) -> None:
        """Undo removals until the log has length ``mark``."""
        while len(self.log) > mark:
            i = self.log.pop()
            p, nx = self.prev[i], self.next[i]
            if p != -1:
                self.next[p] = i
            else:
                self.head = i
            if nx != -1:
                self.prev[nx] = i
            else:
                self.tail = i
            self.removed[i] = False

    def attach(self, i: int, after: int) -> None:
        """Link node ``i`` right after node ``after`` (``-1``: at the head).

        ``i == len(self.removed)`` appends a new node.  Unlogged: only valid
        while nothing is removed, which is how a growing checker inserts.
        """
        if i == len(self.removed):
            self.prev.append(-1)
            self.next.append(-1)
            self.removed.append(False)
        nx = self.head if after == -1 else self.next[after]
        self.prev[i] = after
        self.next[i] = nx
        if after == -1:
            self.head = i
        else:
            self.next[after] = i
        if nx == -1:
            self.tail = i
        else:
            self.prev[nx] = i

    def detach(self, i: int) -> None:
        """Unlink node ``i``; unlike :meth:`remove`, nothing is logged."""
        p, nx = self.prev[i], self.next[i]
        if p != -1:
            self.next[p] = nx
        else:
            self.head = nx
        if nx != -1:
            self.prev[nx] = p
        else:
            self.tail = p

    def mark(self) -> int:
        """Return the current undo-log position."""
        return len(self.log)

    def is_empty(self) -> bool:
        """True iff every node has been removed."""
        return self.head == -1


class LBTChecker:
    """Efficient LBT with linked-list removal and iterative deepening.

    The data-structure choices follow the proof of Theorem 3.2:

    * ``H`` is kept as a doubly linked list sorted by start time, so the
      operations that start after a write's finish form a suffix;
    * ``W`` is kept as a doubly linked list sorted by finish time, so the
      epoch candidates (writes that do not precede any other remaining write)
      form a suffix;
    * every removal is O(1) and reverted through an undo log when an epoch
      attempt is aborted;
    * candidates of an epoch are explored with iterative deepening (budget
      doubling), so the cost of an epoch is O(c · t) where ``t`` is the cost
      of the cheapest successful candidate.

    Built without a history the checker *grows*: :meth:`add` and
    :meth:`replace` feed it a normalised prefix one operation at a time, and
    :meth:`verify` may run after any of them.  This is the incremental 2-AV
    checker's re-check; the epoch-boundary ledger described under
    :meth:`verify` makes each re-check cost about what the new operations
    cost.
    """

    def __init__(self, history: Optional[History] = None, *, kernel: Optional[str] = None):
        self.history = history
        self.stats = {"epochs": 0, "candidates_tried": 0, "deepening_rounds": 0}
        # Container order: node ids are start-time ranks in a batch checker,
        # admission order (sorted by start on demand) in a growing one.
        self._order = None
        if history is None:
            self._init_growing()
            return
        from ..core import vector

        # Operations sorted by start time define the H linked list.  The hot
        # loops below never touch the Operation objects themselves: all
        # per-operation state is pre-extracted into parallel index columns so
        # the suffix walks are array lookups, not attribute chases.
        self.ops: List[Operation] = list(history.operations)
        self.H = _LinkedList(len(self.ops))
        if vector.resolve_kernel(kernel, None) == "numpy" and self.ops:
            # Vectorized setup: the same columns, built with array ops
            # (lexsort / stable argsort) instead of per-operation Python.
            cols = vector.lbt_setup(history)
            self.h_starts = cols["h_starts"]
            self.h_is_write = cols["h_is_write"]
            self.h_of_w = cols["h_of_w"]
            self.writes = [self.ops[i] for i in self.h_of_w]
            self.w_starts = cols["w_starts"]
            self.w_finishes = cols["w_finishes"]
            self.dictated_of_w = cols["dictated_of_w"]
            self.dictating_w_of_h = cols["dictating_w_of_h"]
            self.W = _LinkedList(len(self.writes))
            return
        h_index: Dict[Operation, int] = {op: i for i, op in enumerate(self.ops)}
        self.h_starts: List[float] = [op.start for op in self.ops]
        self.h_is_write: List[bool] = [op.is_write for op in self.ops]
        # Writes sorted by finish time define the W linked list.
        self.writes: List[Operation] = sorted(
            history.writes, key=lambda w: (w.finish, w.op_id)
        )
        self.W = _LinkedList(len(self.writes))
        self.w_starts: List[float] = [w.start for w in self.writes]
        self.w_finishes: List[float] = [w.finish for w in self.writes]
        # Cross map between the two index spaces.
        self.h_of_w: List[int] = [h_index[w] for w in self.writes]
        # Dictated reads of each write (by W index), as H indices; and for
        # each read, the W index of its dictating write.
        self.dictated_of_w: List[List[int]] = [
            [h_index[r] for r in history.dictated_reads(w)] for w in self.writes
        ]
        dictating_w = [-1] * len(self.ops)
        for wi, read_indices in enumerate(self.dictated_of_w):
            for hi in read_indices:
                dictating_w[hi] = wi
        self.dictating_w_of_h: List[int] = dictating_w

    # ------------------------------------------------------------------
    # Growing checker: one register's normalised prefix, re-verified as it
    # grows (the incremental 2-AV checker's authoritative re-check)
    # ------------------------------------------------------------------
    def _init_growing(self) -> None:
        self.ops = []
        self.writes = []
        self.h_starts = []
        self.h_is_write = []
        self.dictating_w_of_h = []
        self.h_of_w = []
        self.w_starts = []
        self.w_finishes = []
        self.dictated_of_w = []
        self.H = _LinkedList(0)
        self.W = _LinkedList(0)
        self._order = self.h_starts.__getitem__
        # Sorted insertion keys: H by start, W by (finish, op_id).
        self._h_keys: List[float] = []
        self._h_nodes: List[int] = []
        self._w_keys: List[Tuple[float, int]] = []
        self._w_nodes: List[int] = []
        self._w_of_value: Dict[object, int] = {}
        self._forget_run()

    def _forget_run(self) -> None:
        """Drop the epoch-boundary ledger: the next run starts from scratch."""
        self._witness: List[Operation] = []
        self._starts: List[int] = [0]
        self._before: List[Tuple[int, int, int]] = [(0, 0, 0)]
        self._front: List[int] = [-1] * len(self.ops)
        self._dirty: Set[int] = set(range(len(self.ops)))

    def add(self, op: Operation) -> None:
        """Append one normalised operation to a growing checker.

        The growing checker requires what normalisation guarantees, and
        trusts its caller for it: all timestamps distinct, every read added
        after its dictating write and never preceding it, and each write's
        finish before its dictated reads' (use :meth:`replace` to shorten a
        write when an earlier-finishing read arrives).
        """
        h = len(self.ops)
        self.ops.append(op)
        self.h_starts.append(op.start)
        self.h_is_write.append(op.is_write)
        if op.is_write:
            wi = len(self.writes)
            self._w_of_value[op.value] = wi
            self.writes.append(op)
            self.h_of_w.append(h)
            self.w_starts.append(op.start)
            self.w_finishes.append(op.finish)
            self.dictated_of_w.append([])
            self._link_w(wi)
            self.dictating_w_of_h.append(-1)
        else:
            wi = self._w_of_value[op.value]
            self.dictated_of_w[wi].append(h)
            self.dictating_w_of_h.append(wi)
        p = bisect.bisect_left(self._h_keys, op.start)
        self.H.attach(h, self._h_nodes[p - 1] if p else -1)
        self._h_keys.insert(p, op.start)
        self._h_nodes.insert(p, h)
        self._front.append(-1)
        self._dirty.add(h)

    def replace(self, write: Operation) -> None:
        """Swap in a re-normalised copy of an added write (a new finish)."""
        wi = self._w_of_value[write.value]
        h = self.h_of_w[wi]
        p = bisect.bisect_left(self._w_keys, (self.w_finishes[wi], self.writes[wi].op_id))
        del self._w_keys[p]
        del self._w_nodes[p]
        self.W.detach(wi)
        self.ops[h] = self.writes[wi] = write
        self.w_finishes[wi] = write.finish
        self._link_w(wi)
        self._dirty.add(h)

    def _link_w(self, wi: int) -> None:
        key = (self.w_finishes[wi], self.writes[wi].op_id)
        p = bisect.bisect_left(self._w_keys, key)
        self.W.attach(wi, self._w_nodes[p - 1] if p else -1)
        self._w_keys.insert(p, key)
        self._w_nodes.insert(p, wi)

    # ------------------------------------------------------------------
    def _candidate_indices(self) -> List[int]:
        """W indices of the epoch candidates (line 3), latest-finishing first.

        As argued in the Theorem 3.2 proof, the candidates form a suffix of W
        when W is sorted by finish time: a write can only precede writes with
        a strictly larger finish time, so scanning from the tail while
        tracking the maximum start time seen so far identifies the whole
        candidate set in O(c) steps, and the scan can stop at the first
        non-candidate (every earlier write then precedes the same later
        write).
        """
        candidates: List[int] = []
        max_start_seen = float("-inf")
        w_starts = self.w_starts
        w_finishes = self.w_finishes
        w_prev = self.W.prev
        i = self.W.tail
        while i != -1:
            if w_finishes[i] < max_start_seen:
                break
            candidates.append(i)
            s = w_starts[i]
            if s > max_start_seen:
                max_start_seen = s
            i = w_prev[i]
        return candidates

    def _candidates(self) -> List[Operation]:
        """The epoch-candidate writes (object view of :meth:`_candidate_indices`)."""
        return [self.writes[i] for i in self._candidate_indices()]

    # ------------------------------------------------------------------
    def _run_epoch(
        self, first_w: int, budget: Optional[int]
    ) -> Tuple[str, List[List[int]], Tuple[int, int]]:
        """Attempt an epoch starting at W index ``first_w`` with a step budget.

        Returns ``(outcome, segments, marks)`` where outcome is ``"success"``,
        ``"fail"`` (the epoch is definitively impossible) or ``"budget"`` (the
        step budget ran out before a verdict).  ``segments`` hold H indices —
        decoded to operations only when a witness is assembled.  ``marks`` are
        the undo-log positions of H and W before the attempt, so the caller
        can revert.
        """
        h_mark = self.H.mark()
        w_mark = self.W.mark()
        segments: List[List[int]] = []
        steps = 0
        wi = first_w
        h_starts = self.h_starts
        h_is_write = self.h_is_write
        h_prev = self.H.prev
        h_of_w = self.h_of_w
        dictating_w = self.dictating_w_of_h
        while True:
            w_next = -1
            w_h = h_of_w[wi]
            w_finish = self.w_finishes[wi]
            container: List[int] = []
            # Operations starting after w.finish form a suffix of H (sorted
            # by start time): walk backwards from the tail.
            i = self.H.tail
            to_remove: List[int] = []
            while i != -1 and h_starts[i] > w_finish:
                if h_is_write[i]:
                    if i != w_h:
                        return "fail", segments, (h_mark, w_mark)
                else:
                    dw = dictating_w[i]
                    if dw != wi and dw != w_next:
                        if w_next != -1:
                            return "fail", segments, (h_mark, w_mark)
                        w_next = dw
                    container.append(i)
                    to_remove.append(i)
                i = h_prev[i]
                steps += 1
                if budget is not None and steps > budget:
                    return "budget", segments, (h_mark, w_mark)
            for idx in to_remove:
                self.H.remove(idx)
            # Remaining dictated reads of w, then w itself.
            for idx in self.dictated_of_w[wi]:
                if not self.H.removed[idx]:
                    container.append(idx)
                    self.H.remove(idx)
                steps += 1
            self.H.remove(w_h)
            self.W.remove(wi)
            steps += 1
            container.sort(key=self._order)
            segments.append([w_h] + container)
            if budget is not None and steps > budget:
                return "budget", segments, (h_mark, w_mark)
            if w_next == -1:
                return "success", segments, (h_mark, w_mark)
            wi = w_next

    # ------------------------------------------------------------------
    def verify(self) -> VerificationResult:
        """Run LBT to completion and return the verdict with a witness.

        A growing checker (built with no history, fed by :meth:`add` and
        :meth:`replace`) re-verifies its whole prefix on every call, but
        keeps an *epoch-boundary ledger* of its previous YES run: the
        witness, where each epoch starts in it, the cumulative stats at each
        boundary, and the epoch every operation was placed in.  Every epoch
        places whole clusters (a read lands in its dictating write's epoch),
        and from a given set of remaining operations the rest of the run is
        determined by that set alone.  So once this run has placed every
        operation added or re-normalised since the previous run, and the old
        operations it placed are exactly the previous run's first ``j``
        epochs, the remaining set — and hence the rest of the run — equals
        the previous run's after ``j`` epochs: its witness front and stats
        delta are spliced in instead of being recomputed.  The result equals
        a fresh batch run's field for field.
        """
        history = self.history
        growing = history is None
        if growing:
            if not self.ops:
                return VerificationResult.yes(2, _ALGORITHM, witness=())
            self.stats = {"epochs": 0, "candidates_tried": 0, "deepening_rounds": 0}
            front, dirty, starts = self._front, self._dirty, self._starts
            boundary = len(starts) - 1  # earliest previous-run epoch re-placed
            dirty_left = len(dirty)
            old_placed = 0
            old_total = len(self._witness)
            deltas: List[Tuple[int, int, int]] = []
        elif history.is_empty:
            return VerificationResult.yes(2, _ALGORITHM, witness=())
        elif has_anomalies(history):
            return VerificationResult.no(
                2, _ALGORITHM, reason="history contains Section II-C anomalies"
            )
        stats = self.stats
        epochs: List[List[int]] = []  # in placement order: latest first
        while not self.H.is_empty():
            tried, rounds = stats["candidates_tried"], stats["deepening_rounds"]
            stats["epochs"] += 1
            candidates = self._candidate_indices()
            outcome_segments = self._explore_candidates(candidates)
            if outcome_segments is None:
                if growing:
                    self._end_run()
                    self._forget_run()
                return VerificationResult.no(
                    2,
                    _ALGORITHM,
                    reason=f"all {len(candidates)} epoch candidates failed",
                    stats=dict(stats),
                )
            epoch = [i for segment in reversed(outcome_segments) for i in segment]
            epochs.append(epoch)
            if growing:
                deltas.append(
                    (1, stats["candidates_tried"] - tried, stats["deepening_rounds"] - rounds)
                )
                for h in epoch:
                    if h in dirty:
                        dirty_left -= 1
                    f = front[h]
                    if f >= 0:
                        old_placed += 1
                        if f < boundary:
                            boundary = f
                if dirty_left == 0 and old_placed == old_total - starts[boundary]:
                    return self._splice(epochs, deltas, boundary)
        ops = self.ops
        return VerificationResult.yes(
            2,
            _ALGORITHM,
            witness=[ops[i] for epoch in reversed(epochs) for i in epoch],
            stats=dict(stats),
        )

    def _splice(
        self,
        epochs: List[List[int]],
        deltas: List[Tuple[int, int, int]],
        boundary: int,
    ) -> VerificationResult:
        """Close a growing run on the previous run's epochs before ``boundary``.

        Those epochs keep their ledger entries (numbered from the witness
        front); this run's epochs take the numbers from ``boundary`` on.
        """
        ops, front = self.ops, self._front
        witness = self._witness[: self._starts[boundary]]
        starts = self._starts[: boundary + 1]
        before = self._before[: boundary + 1]
        for number, (epoch, delta) in enumerate(
            zip(reversed(epochs), reversed(deltas)), start=boundary
        ):
            for h in epoch:
                front[h] = number
            witness.extend([ops[h] for h in epoch])
            starts.append(len(witness))
            e, c, r = before[-1]
            before.append((e + delta[0], c + delta[1], r + delta[2]))
        self._witness, self._starts, self._before = witness, starts, before
        self._dirty = set()
        self._end_run()
        epochs_run, tried, rounds = before[-1]
        self.stats = {
            "epochs": epochs_run,
            "candidates_tried": tried,
            "deepening_rounds": rounds,
        }
        return VerificationResult.yes(2, _ALGORITHM, witness=witness, stats=self.stats)

    def _end_run(self) -> None:
        """Put every removed node back, ready for more :meth:`add` calls."""
        self.H.undo_to(0)
        self.W.undo_to(0)

    def _explore_candidates(
        self, candidates: Sequence[int]
    ) -> Optional[List[List[int]]]:
        """Find a successful candidate (by W index) via iterative deepening.

        Returns the segments of the successful epoch (with H/W permanently
        updated), or ``None`` if every candidate definitively fails.
        """
        alive = list(candidates)
        budget = 4
        while alive:
            self.stats["deepening_rounds"] += 1
            survivors: List[int] = []
            for candidate in alive:
                self.stats["candidates_tried"] += 1
                outcome, segments, (h_mark, w_mark) = self._run_epoch(candidate, budget)
                if outcome == "success":
                    return segments
                # Revert this attempt.
                self.H.undo_to(h_mark)
                self.W.undo_to(w_mark)
                if outcome == "budget":
                    survivors.append(candidate)
            alive = survivors
            budget *= 2
        return None


def verify_2atomic(
    history: History,
    *,
    preprocess: bool = False,
    kernel: Optional[str] = None,
) -> VerificationResult:
    """Decide whether ``history`` is 2-atomic using the efficient LBT.

    Parameters
    ----------
    history:
        The history to verify.  Must satisfy the Section II-C assumptions
        unless ``preprocess=True``.
    preprocess:
        When true, run :func:`repro.core.preprocess.normalize` first
        (timestamp tie-breaking and write shortening).  Anomalous histories
        then yield a NO verdict instead of an exception.
    kernel:
        Kernel tier for the checker's setup columns
        (:func:`repro.core.vector.resolve_kernel`); the epoch loops
        themselves are inherently sequential and identical across tiers.
    """
    if preprocess:
        if has_anomalies(history):
            return VerificationResult.no(
                2, _ALGORITHM, reason="history contains Section II-C anomalies"
            )
        history = normalize(history)
    return LBTChecker(history, kernel=kernel).verify()


def is_2atomic(history: History, *, preprocess: bool = False) -> bool:
    """Boolean convenience wrapper around :func:`verify_2atomic`."""
    return bool(verify_2atomic(history, preprocess=preprocess))
