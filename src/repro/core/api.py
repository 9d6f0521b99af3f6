"""Unified verification API.

This module is the front door of the library: given a history (or a
multi-register trace) and a staleness bound ``k``, it picks an appropriate
algorithm, applies the Section II-C preprocessing when requested, and returns
a :class:`~repro.core.result.VerificationResult`.

Algorithm selection (``algorithm="auto"``):

* ``k = 1`` → Gibbons–Korach zone conditions,
* ``k = 2`` → FZF (worst-case ``O(n log n)``); LBT can be requested by name,
* ``k >= 3`` → the exact exponential oracle (no polynomial algorithm is known;
  the paper leaves this case open), guarded by ``max_exact_ops``.

GK, FZF and LBT's setup run on one of two kernels (``kernel=``): ``"object"``,
the reference over :class:`~repro.core.operation.Operation` objects, or
``"numpy"`` (the default), its vectorized twin in :mod:`repro.core.vector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..algorithms.registry import get_algorithm
from .errors import VerificationError
from .history import History, MultiHistory
from .preprocess import find_anomalies, normalize
from .result import VerificationResult

__all__ = [
    "verify",
    "verify_trace",
    "minimal_k",
    "minimal_k_bound",
    "MinimalKBound",
    "DEFAULT_MAX_EXACT_OPS",
]

#: Histories larger than this are refused by the exact oracle in "auto" mode
#: (the caller can always invoke the oracle directly, or raise the limit).
DEFAULT_MAX_EXACT_OPS = 40


def _select_algorithm(k: int, algorithm: str, history: History, max_exact_ops: int) -> str:
    if algorithm != "auto":
        return algorithm
    if k == 1:
        return "gk"
    if k == 2:
        return "fzf"
    if len(history) > max_exact_ops:
        raise VerificationError(
            f"k={k} requires the exact (exponential) oracle, but the history has "
            f"{len(history)} operations (> max_exact_ops={max_exact_ops}); "
            "no polynomial algorithm for k >= 3 is known (the paper leaves it open). "
            "Pass algorithm='exact' or raise max_exact_ops to force the search."
        )
    return "exact"


def verify(
    history: History,
    k: int,
    *,
    algorithm: str = "auto",
    preprocess: bool = True,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
    kernel: Optional[str] = None,
) -> VerificationResult:
    """Decide whether ``history`` is k-atomic.

    Parameters
    ----------
    history:
        The single-register history to verify.
    k:
        The staleness bound (``k >= 1``).
    algorithm:
        ``"auto"`` (default) or one of the registered algorithm names
        (``"gk"``, ``"lbt"``, ``"lbt-reference"``, ``"fzf"``, ``"exact"``).
    preprocess:
        When true (default), anomalies yield an immediate NO verdict and the
        history is normalised (timestamp tie-breaking, write shortening)
        before verification, per Section II-C.
    max_exact_ops:
        Size guard for the automatic ``k >= 3`` fallback to the exponential
        oracle.
    kernel:
        ``"object"`` (the reference implementation over operations) or
        ``"numpy"`` (the vectorized kernels of :mod:`repro.core.vector`,
        the default) for the algorithms that have both (GK, FZF and LBT's
        setup).  Both produce identical results; the option exists for
        benchmarks and cross-validation.

    Returns
    -------
    VerificationResult

    Example
    -------
    >>> from repro import History, read, write, verify
    >>> h = History([
    ...     write("a", 0.0, 1.0),
    ...     write("b", 2.0, 3.0),
    ...     read("a", 4.0, 5.0),      # stale by one write
    ... ])
    >>> bool(verify(h, 1)), bool(verify(h, 2))
    (False, True)
    >>> verify(h, 2).algorithm
    'FZF'
    """
    if k < 1:
        raise VerificationError(f"k must be a positive integer, got {k!r}")
    if preprocess and not history.is_empty:
        anomalies = find_anomalies(history)
        if anomalies:
            reasons = "; ".join(a.describe() for a in anomalies[:3])
            more = "" if len(anomalies) <= 3 else f" (+{len(anomalies) - 3} more)"
            return VerificationResult.no(
                k,
                "preprocess",
                reason=f"history contains anomalies that rule out k-atomicity: {reasons}{more}",
            )
        history = normalize(history)
    name = _select_algorithm(k, algorithm, history, max_exact_ops)
    spec = get_algorithm(name)
    if not spec.supports(k):
        raise VerificationError(
            f"algorithm {spec.name!r} cannot decide {k}-atomicity; "
            f"it supports k in {tuple(spec.supported_k)}"
        )
    return spec.run(history, k, kernel=kernel)


def verify_trace(
    trace: MultiHistory,
    k: int,
    *,
    algorithm: str = "auto",
    preprocess: bool = True,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
    executor: str = "serial",
    jobs: Optional[int] = None,
    kernel: Optional[str] = None,
) -> Dict[Hashable, VerificationResult]:
    """Verify every per-register history of a multi-register trace.

    k-atomicity is a local property (Section II-B), so the trace is k-atomic
    iff every returned result is positive.  Verification is delegated to the
    sharded engine (:class:`repro.engine.Engine`); the default serial executor
    with a single round-robin shard reproduces the historical behaviour
    exactly — registers verified one by one, in trace order.  Pass
    ``executor="processes"`` (and optionally ``jobs``) to verify
    registers in parallel, or use :class:`repro.engine.Engine` directly for
    the full report (per-shard timing, fail-fast, pluggable partitioning).
    """
    from ..engine import Engine  # local import; the engine builds on this module

    report = Engine(
        executor=executor,
        jobs=jobs,
        partitioner="round-robin" if executor == "serial" else "size-balanced",
        shards_per_job=1 if executor == "serial" else 2,
        algorithm=algorithm,
        preprocess=preprocess,
        max_exact_ops=max_exact_ops,
        kernel=kernel,
    ).verify_trace(trace, k)
    return dict(report.results)


@dataclass(frozen=True)
class MinimalKBound:
    """Structured answer to "what is the minimal staleness bound?".

    Attributes
    ----------
    k:
        The minimal staleness bound when :attr:`exact` is true; otherwise a
        certified *lower* bound (the history is not ``(k-1)``-atomic, but its
        true minimal bound may be larger).  ``None`` when the history contains
        anomalies, in which case no finite ``k`` exists.
    exact:
        Whether :attr:`k` is the exact minimal bound.
    reason:
        Human-readable explanation, non-empty whenever the answer is not an
        exact finite ``k``.
    """

    k: Optional[int]
    exact: bool
    reason: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.k is None:
            return "no finite k (anomalous)"
        return f"k = {self.k}" if self.exact else f"k >= {self.k}"


def minimal_k_bound(
    history: History,
    *,
    preprocess: bool = True,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
    max_k: Optional[int] = None,
) -> MinimalKBound:
    """Compute the minimal staleness bound, or a certified lower bound.

    This is the total (never-raising for large inputs) form of
    :func:`minimal_k`:

    * anomalous history → ``MinimalKBound(None, exact=True)`` — no finite
      ``k`` exists;
    * minimal bound 1 or 2 → exact, via the polynomial algorithms;
    * minimal bound >= 3 with at most ``max_exact_ops`` operations → exact,
      via binary search over the exponential oracle;
    * minimal bound >= 3 on a larger history → ``MinimalKBound(3,
      exact=False)``: a certified lower bound (the history is provably not
      2-atomic), with the exact search declined as infeasible.
    """
    if history.is_empty:
        return MinimalKBound(k=1, exact=True)
    if preprocess:
        if find_anomalies(history):
            return MinimalKBound(
                k=None,
                exact=True,
                reason="history contains anomalies; it is not k-atomic for any k",
            )
        history = normalize(history)
    if verify(history, 1, preprocess=False):
        return MinimalKBound(k=1, exact=True)
    if verify(history, 2, preprocess=False):
        return MinimalKBound(k=2, exact=True)
    if len(history) > max_exact_ops:
        return MinimalKBound(
            k=3,
            exact=False,
            reason=(
                f"history needs k >= 3 and has {len(history)} operations "
                f"(> max_exact_ops={max_exact_ops}); the exact search would be "
                "exponential and was not attempted"
            ),
        )
    upper = max_k if max_k is not None else max(1, len(history.writes))
    lo, hi = 3, upper
    if not verify(history, hi, algorithm="exact", preprocess=False):
        raise VerificationError(
            f"history unexpectedly not {hi}-atomic; was max_k set too low?"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if verify(history, mid, algorithm="exact", preprocess=False):
            hi = mid
        else:
            lo = mid + 1
    return MinimalKBound(k=lo, exact=True)


def minimal_k(
    history: History,
    *,
    preprocess: bool = True,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
    max_k: Optional[int] = None,
) -> Optional[int]:
    """Compute the smallest ``k`` for which ``history`` is k-atomic.

    Returns ``None`` when the history contains anomalies (no finite ``k``
    exists).  For ``k <= 2`` the polynomial algorithms are used; beyond that
    the exact oracle takes over.

    Raises
    ------
    VerificationError
        When the history needs ``k >= 3`` but has more than ``max_exact_ops``
        operations: the exact search would be exponential, so this function
        *does not return* in that case.  Callers that want a total answer —
        the certified lower bound ``k >= 3`` instead of an exception — should
        use :func:`minimal_k_bound`; callers that only need "1, 2, or more"
        can use :func:`repro.analysis.spectrum.staleness_bucket`.
    """
    bound = minimal_k_bound(
        history, preprocess=preprocess, max_exact_ops=max_exact_ops, max_k=max_k
    )
    if not bound.exact:
        raise VerificationError(bound.reason)
    return bound.k
