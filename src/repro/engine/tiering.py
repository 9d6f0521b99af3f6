"""Adaptive tiered verification: screen cheap, escalate only when suspicious.

The paper's checkers span orders of magnitude in cost — the online GK peek
runs at about a microsecond per operation while the exact oracle is
combinatorial — yet a static configuration makes every window pay for
whichever checker the caller picked.  This module closes ROADMAP item 3 with
a *tier ladder* built on one soundness fact:

    **k-monotonicity** (Section II): if a history is j-atomic for some
    j <= k then it is k-atomic.  A cheap verifier run at a *smaller*
    staleness bound can therefore prove a YES for the real ``k`` — but
    never a NO.

The ladder screens each register with the cheapest rung first and walks up
only on refusal:

* ``screen`` — verify at k' = 1 (GK, near-linear).  YES here is YES at any k.
* ``confirm`` — for k >= 3, verify at k' = 2 (FZF / LBT, O(n log n)).
* ``exact`` — the authoritative checker for the requested ``k``.

Every NO verdict comes from the ``exact`` rung (a screen's NO only triggers
escalation), so a tiered run's failures — verdict, reason, witness — are
*identical* to an exact-only run; only sound YES shortcuts differ, and those
carry a valid witness (a j-atomic total order satisfies the k-atomic
freshness constraint for every k >= j).  ``tests/test_tiering.py`` pins this
equivalence differentially.

Escalation is additionally *feature gated*: registers whose trace features
already smell of staleness (anomalous reads, value lag >= k, dense interval
overlap) skip the screens and go straight to exact, so the screen cost is
never wasted on windows that were going to escalate anyway.  The features
are deliberately invariant under the metamorphic symmetries (time shift and
positive scale, client/value rename) so tier decisions are reproducible
properties of the trace shape, not of its encoding.

A :class:`CostModel` — linear per-rung cost curves calibrated from observed
trace stats — picks the kernel, executor, k-sweep range and window size for
the ``auto`` policy.  The ``tiering`` experiment kind fits and validates the
model against measured runtimes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.errors import VerificationError
from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import find_anomalies
from ..core.result import VerificationResult

__all__ = [
    "TIER_NAMES",
    "TraceFeatures",
    "TierDecision",
    "TierStats",
    "CostModel",
    "TierPolicy",
    "TierStreamState",
    "get_tier_policy",
]

#: The registered tier policy names, in escalating order of adaptivity.
#: ``exact`` is the pre-tiering behaviour (every register pays the
#: authoritative checker), ``screen`` always tries the cheap ladder first,
#: and ``auto`` adds feature gating plus cost-model knob selection.
TIER_NAMES: Tuple[str, ...] = ("exact", "screen", "auto")

#: Names of the ladder rungs, cheapest first.
TIER_RUNGS: Tuple[str, ...] = ("screen", "confirm", "exact")


# ----------------------------------------------------------------------
# Trace features
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceFeatures:
    """Cheap summary statistics of a (single-register) history.

    Escalation gates use only the *transform-invariant* features —
    ``anomaly_score``, ``max_value_lag`` and ``overlap_density`` survive
    time shifts, positive time scaling and client/value renames — so tier
    decisions are metamorphically stable.  ``op_rate`` and ``duration`` are
    *not* invariant and feed only the cost model's knob picks (kernel,
    executor, window size), which never change a verdict.
    """

    num_ops: int
    num_writes: int
    num_reads: int
    #: Wall-clock span of the trace (finish of last op minus start of first).
    duration: float
    #: Operations per second over the span; 0 for degenerate spans.
    op_rate: float
    #: Fraction of start-ordered adjacent operation pairs whose intervals
    #: overlap — the concurrency density that drives zone complexity.
    overlap_density: float
    #: Fraction of reads that are Section II-C anomalies (no dictating
    #: write, or the read precedes its write).  Any anomaly forces NO.
    anomaly_score: float
    #: Maximum "writes-behind" distance of any read: how many *completed*
    #: fresher writes the read skipped.  A lag >= k rules out k-atomicity
    #: along the precedence order and is the strongest escalation signal.
    max_value_lag: int

    @classmethod
    def from_history(cls, history: History) -> "TraceFeatures":
        """Extract features from a single-register :class:`History`."""
        ops = history.operations
        n = len(ops)
        if n == 0:
            return cls(0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0)
        writes = history.writes
        reads = history.reads
        lo, hi = history.span()
        duration = max(0.0, hi - lo)
        rate = (n / duration) if duration > 0 else 0.0

        by_start = sorted(ops, key=lambda op: (op.start, op.finish))
        overlaps = sum(
            1 for prev, nxt in zip(by_start, by_start[1:]) if nxt.start < prev.finish
        )
        density = overlaps / (n - 1) if n > 1 else 0.0

        anomalies = len(find_anomalies(history)) if reads else 0
        score = anomalies / len(reads) if reads else 0.0

        return cls(
            num_ops=n,
            num_writes=len(writes),
            num_reads=len(reads),
            duration=duration,
            op_rate=rate,
            overlap_density=density,
            anomaly_score=score,
            max_value_lag=_max_value_lag(history),
        )

    @classmethod
    def from_columnar(cls, col: Any) -> "TraceFeatures":
        """The :meth:`from_history` features of a columnar encoding.

        Vectorized over the canonical-order columns, without decoding any
        operation; equal to ``from_history(col.to_history())`` field for
        field (``tests/test_tiering.py`` pins it).
        """
        from ..core import vector  # local: numpy-side column views

        n = col.n
        if not vector.NUMPY_AVAILABLE or n == 0:
            return cls.from_history(col.to_history())
        np = vector.np
        c = vector._columns(col)
        start, finish = c.start, c.finish
        lo, hi = float(start.min()), float(finish.max())
        duration = max(0.0, hi - lo)
        rate = (n / duration) if duration > 0 else 0.0
        # Canonical order sorts by (start, finish), like from_history's scan.
        overlaps = int(np.count_nonzero(start[1:] < finish[:-1]))
        density = overlaps / (n - 1) if n > 1 else 0.0

        reads, writes = c.reads, c.writes
        d = c.dictating[reads].astype(np.int64)
        known = d >= 0
        late = np.zeros(reads.size, dtype=bool)
        late[known] = finish[reads[known]] < start[d[known]]
        anomalies = int(np.count_nonzero(~known | late))
        score = anomalies / int(reads.size) if reads.size else 0.0

        # Writes ranked by (finish, start), canonical order breaking ties;
        # a read skips the fresher-ranked writes finishing before it starts.
        order = np.lexsort((start[writes], finish[writes]))
        rank_of_ord = np.empty(writes.size, dtype=np.int64)
        rank_of_ord[order] = np.arange(writes.size, dtype=np.int64)
        lag = 0
        if known.any():
            read_pos = reads[known]
            base = rank_of_ord[c.write_ord[d[known]]]
            finished = np.searchsorted(finish[writes][order], start[read_pos], side="left")
            lag = max(0, int((finished - base - 1).max()))
        return cls(
            num_ops=n,
            num_writes=int(writes.size),
            num_reads=int(reads.size),
            duration=duration,
            op_rate=rate,
            overlap_density=density,
            anomaly_score=score,
            max_value_lag=lag,
        )


def _max_value_lag(history: History) -> int:
    """Largest number of completed fresher writes skipped by any read.

    Writes are ranked by finish time (start as tie-break); a read of value
    ``v`` lags by the number of writes that wholly precede the read
    (``finish < read.start``) yet rank strictly fresher than ``v``'s write.
    Comparisons only — invariant under time shift/scale and renames.
    """
    writes = sorted(history.writes, key=lambda w: (w.finish, w.start))
    rank = {w: i for i, w in enumerate(writes)}
    worst = 0
    for r in history.reads:
        w = history.dictating_write(r)
        if w is None:
            continue
        base = rank[w]
        lag = sum(
            1
            for other in writes[base + 1 :]
            if other.finish < r.start
        )
        if lag > worst:
            worst = lag
    return worst


# ----------------------------------------------------------------------
# Decisions and aggregate stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TierDecision:
    """The route one register (or one register-window) took through the ladder.

    ``tier`` names the rung that produced the verdict; ``escalated`` is true
    when a cheaper rung was consulted (or gated away) first; ``triggers``
    records *why* — feature gates and screen alarms — so a skipped exact
    check is never silent.
    """

    key: str
    tier: str
    escalated: bool
    triggers: Tuple[str, ...] = ()
    screen_k: Optional[int] = None

    def describe(self) -> str:
        extra = f" [{', '.join(self.triggers)}]" if self.triggers else ""
        return f"{self.key}: {self.tier}{extra}"


@dataclass
class TierStats:
    """Aggregate tier hit-rates over a run (mutable accumulator)."""

    screened: int = 0  #: registers/windows settled by a sub-k rung
    escalated: int = 0  #: routed to the exact rung after a screen or gate
    exact: int = 0  #: total units that paid the exact checker
    total: int = 0
    trigger_counts: Dict[str, int] = field(default_factory=dict)

    def record(self, decision: TierDecision) -> None:
        self.total += 1
        if decision.tier == "exact":
            self.exact += 1
            if decision.escalated:
                self.escalated += 1
        else:
            self.screened += 1
        for trig in decision.triggers:
            self.trigger_counts[trig] = self.trigger_counts.get(trig, 0) + 1

    def merge(self, other: "TierStats") -> None:
        self.screened += other.screened
        self.escalated += other.escalated
        self.exact += other.exact
        self.total += other.total
        for trig, count in other.trigger_counts.items():
            self.trigger_counts[trig] = self.trigger_counts.get(trig, 0) + count

    @property
    def escalation_rate(self) -> float:
        """Fraction of units that paid the exact checker."""
        return (self.exact / self.total) if self.total else 0.0

    @property
    def screen_rate(self) -> float:
        """Fraction of units settled without the exact checker."""
        return (self.screened / self.total) if self.total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "screened": self.screened,
            "escalated": self.escalated,
            "exact": self.exact,
            "total": self.total,
            "escalation_rate": round(self.escalation_rate, 6),
            "screen_rate": round(self.screen_rate, 6),
            "triggers": dict(sorted(self.trigger_counts.items())),
        }

    def summary(self) -> str:
        return (
            f"tiering: {self.screened}/{self.total} screened, "
            f"{self.exact} exact ({self.escalated} escalated, "
            f"rate {self.escalation_rate:.0%})"
        )


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
#: Baked-in per-operation cost curves (intercept seconds, seconds/op),
#: seeded from the committed benchmark baselines on the reference runner
#: (bench_online_latency.json, bench_columnar.json).  ``calibrate`` or the
#: ``tiering`` experiment kind refit them to the current machine.
_DEFAULT_COEFFS: Dict[str, Tuple[float, float]] = {
    "screen:object": (2.0e-5, 9.0e-7),
    "screen:columnar": (3.0e-5, 4.0e-7),
    "screen:numpy": (1.2e-4, 6.0e-8),
    "confirm:object": (3.0e-5, 2.2e-6),
    "confirm:columnar": (4.0e-5, 9.0e-7),
    "confirm:numpy": (1.5e-4, 1.0e-7),
    "exact:object": (3.0e-5, 2.5e-6),
    "exact:columnar": (4.0e-5, 1.0e-6),
    "exact:numpy": (1.5e-4, 1.2e-7),
}


@dataclass
class CostModel:
    """Linear cost curves ``cost(rung, kernel, n) = a + b*n`` plus knob picks.

    The model is deliberately tiny — two coefficients per (rung, kernel)
    pair — because the verifiers it prices are near-linear in practice
    (Sections III-IV) and a model cheap enough to evaluate per window must
    not itself become a tier.  ``fit`` refits from ``(stage, n, seconds)``
    samples by least squares; the ``tiering`` experiment kind reports the
    relative fit error so a drifting model is visible.
    """

    coeffs: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: dict(_DEFAULT_COEFFS)
    )
    #: Overlap density at or above which ``auto`` escalates straight to exact.
    overlap_threshold: float = 0.85
    #: Streaming: force an authoritative check every this many windows per
    #: register even with no trigger, bounding peek staleness.
    confirm_interval: int = 8
    #: Per-window check budget (seconds) used by :meth:`choose_window`.
    window_budget_s: float = 0.040
    #: Mean relative error per stage of the last :meth:`fit`/:meth:`calibrate`
    #: (diagnostic only — excluded from :meth:`to_dict`).
    fit_errors: Dict[str, float] = field(default_factory=dict)

    # -- prediction ----------------------------------------------------
    def predict(self, rung: str, kernel: str, num_ops: int) -> float:
        """Predicted seconds to run ``rung`` with ``kernel`` on ``num_ops``."""
        a, b = self.coeffs.get(f"{rung}:{kernel}", self.coeffs["exact:object"])
        return a + b * max(0, num_ops)

    def fit(self, samples: Iterable[Tuple[str, int, float]]) -> Dict[str, float]:
        """Least-squares refit from ``(stage, num_ops, seconds)`` samples.

        Returns the per-stage mean relative error of the *refit* model so
        callers (the experiment harness) can validate the linear form.
        """
        grouped: Dict[str, List[Tuple[int, float]]] = {}
        for stage, n, secs in samples:
            grouped.setdefault(stage, []).append((n, secs))
        errors: Dict[str, float] = {}
        for stage, points in grouped.items():
            if len(points) < 2:
                continue
            xs = [float(n) for n, _ in points]
            ys = [max(0.0, s) for _, s in points]
            mx = sum(xs) / len(xs)
            my = sum(ys) / len(ys)
            var = sum((x - mx) ** 2 for x in xs)
            slope = (
                sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
                if var > 0
                else 0.0
            )
            slope = max(0.0, slope)
            intercept = max(0.0, my - slope * mx)
            self.coeffs[stage] = (intercept, slope)
            rel = [
                abs((intercept + slope * x) - y) / y
                for x, y in zip(xs, ys)
                if y > 0
            ]
            errors[stage] = sum(rel) / len(rel) if rel else 0.0
        self.fit_errors = dict(errors)
        return errors

    # -- knob selection ------------------------------------------------
    def choose_kernel(self, num_ops: int) -> str:
        """Cheapest kernel tier for a register of ``num_ops`` operations."""
        from ..core import vector  # local import: numpy availability probe

        candidates = ["object", "columnar"]
        if vector.NUMPY_AVAILABLE:
            candidates.append("numpy")
        return min(candidates, key=lambda k: self.predict("screen", k, num_ops))

    def choose_executor(self, total_ops: int, num_registers: int) -> str:
        """Executor for a batch run: stay serial until fan-out pays.

        Process pools cost milliseconds of spawn/IPC per shard; threads are
        cheaper but still lose on small traces.  The thresholds compare the
        predicted serial screen cost against those fixed overheads.
        """
        kernel = self.choose_kernel(max(1, total_ops // max(1, num_registers)))
        serial_cost = self.predict("screen", kernel, total_ops)
        if num_registers >= 4 and serial_cost > 0.25:
            return "process"
        if num_registers >= 2 and serial_cost > 0.020:
            return "thread"
        return "serial"

    def choose_window(self, op_rate: float) -> int:
        """Streaming window size whose check cost fits the window budget."""
        kernel = self.choose_kernel(4096)
        a, b = self.coeffs.get(
            f"exact:{kernel}", self.coeffs["exact:object"]
        )
        if b <= 0:
            return 4096
        size = int((self.window_budget_s - a) / b)
        return max(16, min(65536, size))

    def choose_k_sweep(self, features: TraceFeatures, k: int) -> Tuple[int, ...]:
        """The k values worth sweeping for a staleness spectrum of this trace.

        The observed value lag bounds the interesting range from below:
        every k <= max_value_lag is certainly NO, so the sweep starts where
        the answer can change.
        """
        lo = min(k, features.max_value_lag + 1) if features.max_value_lag else 1
        return tuple(range(max(1, lo), k + 1))

    # -- calibration ---------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        histories: Mapping[str, History],
        *,
        probe_ops: int = 512,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "CostModel":
        """Fit a model by timing the real rungs on slices of ``histories``.

        Probes are capped at ``probe_ops`` operations per register so
        calibration stays far cheaper than the verification it prices.
        """
        from ..core.api import verify  # local: avoid import cycle

        model = cls()
        samples: List[Tuple[str, int, float]] = []
        rungs = (("screen", 1), ("confirm", 2), ("exact", 2))
        for history in list(histories.values())[:4]:
            ops = history.operations
            if not ops:
                continue
            for frac in (0.25, 0.5, 1.0):
                n = min(probe_ops, max(4, int(len(ops) * frac)))
                slice_h = History(list(ops[:n]), key=history.key)
                for rung, probe_k in rungs:
                    for kernel in ("object", "columnar", "numpy"):
                        stage = f"{rung}:{kernel}"
                        try:
                            t0 = clock()
                            verify(slice_h, probe_k, kernel=kernel)
                            samples.append((stage, n, clock() - t0))
                        except VerificationError:
                            continue
        model.fit(samples)
        return model

    # -- (de)serialisation --------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "coeffs": {stage: list(ab) for stage, ab in sorted(self.coeffs.items())},
            "overlap_threshold": self.overlap_threshold,
            "confirm_interval": self.confirm_interval,
            "window_budget_s": self.window_budget_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CostModel":
        return cls(
            coeffs={
                stage: (float(a), float(b))
                for stage, (a, b) in dict(payload.get("coeffs", {})).items()
            }
            or dict(_DEFAULT_COEFFS),
            overlap_threshold=float(payload.get("overlap_threshold", 0.85)),
            confirm_interval=int(payload.get("confirm_interval", 8)),
            window_budget_s=float(payload.get("window_budget_s", 0.040)),
        )


# ----------------------------------------------------------------------
# The policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TierPolicy:
    """Routes registers/windows through the checker ladder.

    Frozen so it can ride inside the frozen engine task dataclasses and
    cross process boundaries by ordinary pickling.
    """

    name: str
    #: When false the policy is a passthrough: every unit pays exact.
    screen: bool = True
    #: When true, suspicious features skip the screens entirely (``auto``).
    feature_gated: bool = False
    cost_model: CostModel = field(default_factory=CostModel)

    # -- batch ---------------------------------------------------------
    def gate_triggers(self, features: TraceFeatures, k: int) -> Tuple[str, ...]:
        """Transform-invariant reasons to distrust the cheap rungs."""
        triggers: List[str] = []
        if features.anomaly_score > 0:
            triggers.append("anomaly")
        if features.max_value_lag >= k:
            triggers.append("value-lag")
        if features.overlap_density >= self.cost_model.overlap_threshold:
            triggers.append("overlap-density")
        return tuple(triggers)

    def verify_with_decision(
        self,
        history: History,
        k: int,
        *,
        key: str = "",
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = 40,
        columnar: Optional[bool] = None,
        kernel: Optional[str] = None,
    ) -> Tuple[VerificationResult, TierDecision]:
        """Verify one register through the ladder.

        Soundness: a sub-k rung may only *confirm* (its YES is YES for ``k``
        by k-monotonicity, witness included); any refusal falls through to
        the exact rung, whose result is returned untouched — so NO verdicts,
        reasons and witnesses match an exact-only run exactly.
        """
        from ..core.api import verify  # local: avoid import cycle

        def exact_run() -> VerificationResult:
            return verify(
                history,
                k,
                algorithm=algorithm,
                preprocess=preprocess,
                max_exact_ops=max_exact_ops,
                columnar=columnar,
                kernel=kernel,
            )

        name = key or (history.key or "")
        if not self.screen or k <= 1 or history.is_empty:
            return exact_run(), TierDecision(name, "exact", escalated=False)
        if kernel is None and columnar is None and self.feature_gated:
            # Cost-model kernel pick: object beats the vectorized tiers on
            # tiny registers (fixed numpy overhead), numpy wins at scale.
            kernel = self.cost_model.choose_kernel(len(history.operations))

        triggers: List[str] = []
        if self.feature_gated:
            gates = self.gate_triggers(TraceFeatures.from_history(history), k)
            if gates:
                return exact_run(), TierDecision(
                    name, "exact", escalated=True, triggers=gates
                )

        ladder: List[Tuple[int, str]] = [(1, "screen")]
        if k >= 3:
            ladder.append((2, "confirm"))
        for screen_k, rung in ladder:
            try:
                screened = verify(
                    history,
                    screen_k,
                    algorithm="auto",
                    preprocess=preprocess,
                    max_exact_ops=max_exact_ops,
                    columnar=columnar,
                    kernel=kernel,
                )
            except VerificationError:
                triggers.append(f"{rung}-error")
                break
            if screened.is_k_atomic:
                # k-monotonicity: screened.witness is a screen_k-atomic total
                # order, hence k-atomic; re-badge the result for the real k.
                result = VerificationResult.yes(
                    k,
                    screened.algorithm,
                    witness=screened.witness,
                    reason=(
                        f"{screen_k}-atomic per {screened.algorithm}; "
                        f"k-monotonicity implies {k}-atomic"
                    ),
                    stats={**screened.stats, "tier": rung, "screen_k": screen_k},
                )
                return result, TierDecision(
                    name,
                    rung,
                    escalated=False,
                    triggers=tuple(triggers),
                    screen_k=screen_k,
                )
            triggers.append(f"{rung}-alarm")
        return exact_run(), TierDecision(
            name, "exact", escalated=True, triggers=tuple(triggers)
        )

    def columnar_verdict_with_decision(
        self,
        col: Any,
        k: int,
        *,
        key: str = "",
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = 40,
        kernel: Optional[str] = None,
    ) -> Tuple[Any, TierDecision]:
        """The ladder on a :class:`~repro.core.columnar.ColumnarHistory`.

        Used by the column-fed shard paths (process workers and ``.rcol``
        shards), which never build object histories.  Routes exactly like
        :meth:`verify_with_decision`: the feature gates read the same
        features from the columns (:meth:`TraceFeatures.from_columnar`).
        Returns a :class:`~repro.core.vector.ColumnarVerdict`, whose YES
        witness may still be positions.
        """
        from ..core import vector  # local: avoid import cycle

        def run(run_k: int, run_algorithm: str):
            return vector.columnar_verdict(
                col,
                run_k,
                algorithm=run_algorithm,
                preprocess=preprocess,
                max_exact_ops=max_exact_ops,
                kernel=kernel,
            )

        name = key or getattr(col, "key", "") or ""
        if not self.screen or k <= 1 or col.n == 0:
            return run(k, algorithm), TierDecision(name, "exact", escalated=False)
        if self.feature_gated:
            gates = self.gate_triggers(TraceFeatures.from_columnar(col), k)
            if gates:
                return run(k, algorithm), TierDecision(
                    name, "exact", escalated=True, triggers=gates
                )
        triggers: List[str] = []
        ladder: List[Tuple[int, str]] = [(1, "screen")]
        if k >= 3:
            ladder.append((2, "confirm"))
        for screen_k, rung in ladder:
            try:
                screened = run(screen_k, "auto")
            except VerificationError:
                triggers.append(f"{rung}-error")
                break
            if screened.result.is_k_atomic:
                result = VerificationResult.yes(
                    k,
                    screened.result.algorithm,
                    witness=screened.result.witness,
                    reason=(
                        f"{screen_k}-atomic per {screened.result.algorithm}; "
                        f"k-monotonicity implies {k}-atomic"
                    ),
                    stats={**screened.result.stats, "tier": rung, "screen_k": screen_k},
                )
                return screened._replace(result=result), TierDecision(
                    name,
                    rung,
                    escalated=False,
                    triggers=tuple(triggers),
                    screen_k=screen_k,
                )
            triggers.append(f"{rung}-alarm")
        return run(k, algorithm), TierDecision(
            name, "exact", escalated=True, triggers=tuple(triggers)
        )

    @property
    def active(self) -> bool:
        """False for the ``exact`` passthrough policy."""
        return self.screen


#: Preset policies by name.  ``screen`` trusts the ladder on every register;
#: ``auto`` adds feature gating and cost-model knob selection.
_PRESETS: Dict[str, TierPolicy] = {
    "exact": TierPolicy(name="exact", screen=False, feature_gated=False),
    "screen": TierPolicy(name="screen", screen=True, feature_gated=False),
    "auto": TierPolicy(name="auto", screen=True, feature_gated=True),
}


def get_tier_policy(
    tier: Union[None, str, TierPolicy],
) -> Optional[TierPolicy]:
    """Resolve a tier argument to a policy (``None``/``"exact"`` -> ``None``).

    Unknown names raise :class:`VerificationError` listing the registered
    tiers — callers must not fall back silently.
    """
    if tier is None:
        return None
    if isinstance(tier, TierPolicy):
        return tier if tier.active else None
    name = str(tier).strip().lower()
    if name not in _PRESETS:
        raise VerificationError(
            f"unknown tier {tier!r}; available: {', '.join(TIER_NAMES)}"
        )
    policy = _PRESETS[name]
    return policy if policy.active else None


# ----------------------------------------------------------------------
# Streaming tier state
# ----------------------------------------------------------------------
class TierStreamState:
    """Per-register escalation state for the streaming/rolling engines.

    In streaming the cheap rung is the incremental checker's O(1)
    :meth:`peek` (possibly one cadence stale) and the exact rung is
    :meth:`check_now`.  This state watches each window's operations for the
    same invariant trigger features as the batch gate — plus the checker's
    own latched alarms — and decides per (register, window) whether the
    authoritative check must run.  The decision protocol is deliberately
    plain data (``"check"`` / ``"peek"``) so the worker pool can ship it
    per shard and journal it for replay.
    """

    def __init__(self, policy: TierPolicy, k: int) -> None:
        self.policy = policy
        self.k = max(1, k)
        #: key -> {"seq": next write seq, "values": {value: write seq},
        #:          "since": windows since last authoritative check,
        #:          "alarmed": a NO has been observed for this key}
        self._registers: Dict[str, Dict[str, Any]] = {}

    # -- bookkeeping ---------------------------------------------------
    def _state_for(self, key: str) -> Dict[str, Any]:
        state = self._registers.get(key)
        if state is None:
            state = {"seq": 0, "values": {}, "since": 0, "alarmed": False}
            self._registers[key] = state
        return state

    def decide(
        self,
        key: str,
        ops: Sequence[Operation],
        *,
        alarmed: bool = False,
    ) -> Tuple[str, Tuple[str, ...]]:
        """Consume one window's operations; return ``(mode, triggers)``.

        ``mode`` is ``"check"`` (run the authoritative checker now) or
        ``"peek"`` (the O(1) screen suffices).  Soundness: every feature
        that can make a NO possible — an anomalous read, a value lag >= k,
        a latched checker alarm — forces ``"check"``, so the screen is
        never trusted on its own for a NO-capable window.  ``alarmed`` is
        the caller's signal that the register's checker already latched a
        NO (e.g. from a free ``peek``).
        """
        state = self._state_for(key)
        triggers: List[str] = []
        if alarmed or state["alarmed"]:
            state["alarmed"] = True
            triggers.append("checker-alarm")
        values = state["values"]
        overlaps = 0
        prev_finish: Optional[float] = None
        saw_anomaly = False
        saw_lag = False
        for op in sorted(ops, key=lambda o: (o.start, o.finish)):
            if prev_finish is not None and op.start < prev_finish:
                overlaps += 1
            prev_finish = (
                op.finish if prev_finish is None else max(prev_finish, op.finish)
            )
            if op.is_write:
                values[op.value] = state["seq"]
                state["seq"] += 1
            else:
                seq = values.get(op.value)
                if seq is None:
                    saw_anomaly = True
                elif state["seq"] - 1 - seq >= self.k:
                    saw_lag = True
        if saw_anomaly:
            triggers.append("anomaly")
        if saw_lag:
            triggers.append("value-lag")
        if (
            self.policy.feature_gated
            and len(ops) > 1
            and overlaps / (len(ops) - 1) >= self.policy.cost_model.overlap_threshold
        ):
            triggers.append("overlap-density")
        state["since"] += 1
        if not triggers and state["since"] >= self.policy.cost_model.confirm_interval:
            triggers.append("periodic-confirm")
        if triggers:
            state["since"] = 0
            return "check", tuple(triggers)
        return "peek", ()

    def note_verdict(self, key: str, is_k_atomic: Optional[bool]) -> None:
        """Latch a register whose (authoritative or peeked) verdict was NO."""
        if is_k_atomic is False:
            self._state_for(key)["alarmed"] = True

    # -- checkpointing -------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data state for the engine's checkpoint payloads."""
        return {
            "policy": self.policy.name,
            "k": self.k,
            "registers": {
                key: {
                    "seq": st["seq"],
                    "values": list(st["values"].items()),
                    "since": st["since"],
                    "alarmed": st["alarmed"],
                }
                for key, st in self._registers.items()
            },
        }

    @classmethod
    def restore(
        cls, policy: TierPolicy, payload: Mapping[str, Any]
    ) -> "TierStreamState":
        state = cls(policy, int(payload.get("k", 1)))
        for key, st in dict(payload.get("registers", {})).items():
            state._registers[key] = {
                "seq": int(st["seq"]),
                "values": {value: int(seq) for value, seq in st["values"]},
                "since": int(st["since"]),
                "alarmed": bool(st["alarmed"]),
            }
        return state
