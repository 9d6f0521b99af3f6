"""Gibbons–Korach 1-atomicity (linearizability) verification.

Section IV of the paper recalls the classical zone conditions of Gibbons and
Korach [9]: a (uniquely-valued, anomaly-free) history is 1-atomic if and only
if

1. no two forward zones overlap, and
2. no backward zone is contained entirely in a forward zone.

This module implements the conditions with an ``O(n log n)`` sweep and is the
baseline 1-AV algorithm of the library (the ``k = 1`` case of the unified
API).  It reports which pair of zones violates a condition when the answer is
NO, which is useful when auditing a storage system.  The sweep here is the
reference; the default ``numpy`` kernel runs its vectorized twin
(:func:`repro.core.vector.gk_result_np`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core import vector
from ..core.columnar import columnar_of
from ..core.history import History
from ..core.preprocess import has_anomalies
from ..core.result import VerificationResult
from ..core.zones import Cluster, build_clusters

__all__ = ["verify_1atomic", "is_1atomic", "find_1atomicity_violation"]

_ALGORITHM = "GK"


def find_1atomicity_violation(history: History) -> Optional[Tuple[str, Cluster, Cluster]]:
    """Return a violated Gibbons–Korach condition, or ``None`` if 1-atomic.

    The return value is ``(condition, cluster_a, cluster_b)`` where
    ``condition`` is ``"forward-overlap"`` (two forward zones overlap) or
    ``"backward-in-forward"`` (a backward zone lies inside a forward zone).
    """
    clusters = build_clusters(history)
    forward = [cl for cl in clusters if cl.is_forward]
    backward = [cl for cl in clusters if cl.is_backward]

    # Condition 1: no two forward zones overlap.  Sorted by low endpoint, an
    # overlap exists iff some zone starts before the running maximum high
    # endpoint of the earlier zones.
    forward_sorted = sorted(forward, key=lambda cl: cl.zone.low)
    prev: Optional[Cluster] = None
    running_high = float("-inf")
    for cl in forward_sorted:
        if prev is not None and cl.zone.low <= running_high:
            return ("forward-overlap", prev, cl)
        if cl.zone.high > running_high:
            running_high = cl.zone.high
            prev = cl
    # Condition 2: no backward zone contained entirely in a forward zone.
    # Forward zones are now known to be pairwise disjoint, so a merge-style
    # scan over the two sorted lists suffices.
    backward_sorted = sorted(backward, key=lambda cl: cl.zone.low)
    fi = 0
    for b in backward_sorted:
        while fi < len(forward_sorted) and forward_sorted[fi].zone.high < b.zone.low:
            fi += 1
        if fi < len(forward_sorted):
            f = forward_sorted[fi]
            if f.zone.low <= b.zone.low and b.zone.high <= f.zone.high:
                return ("backward-in-forward", f, b)
    return None


def verify_1atomic(history: History, *, kernel: Optional[str] = None) -> VerificationResult:
    """Decide whether ``history`` is 1-atomic (linearizable).

    The history must satisfy the Section II-C assumptions (anomaly-free,
    uniquely-valued writes); use :func:`repro.core.preprocess.normalize`
    first if unsure.

    By default the zone conditions are evaluated by the vectorized numpy
    sweeps (:func:`repro.core.vector.gk_result_np`), an index-based twin of
    :func:`find_1atomicity_violation` with identical verdicts and reasons.
    Pass ``kernel="object"`` to run the reference sweep.

    Returns
    -------
    VerificationResult
        YES/NO verdict with the violated condition in ``reason`` when NO.
        The GK test is decision-based and does not construct a witness.
    """
    if history.is_empty:
        return VerificationResult.yes(1, _ALGORITHM, witness=(), reason="empty history")
    if vector.resolve_kernel(kernel) == "numpy":
        return vector.gk_result_np(columnar_of(history))
    if has_anomalies(history):
        return VerificationResult.no(
            1, _ALGORITHM, reason="history contains Section II-C anomalies"
        )
    violation = find_1atomicity_violation(history)
    if violation is None:
        return VerificationResult.yes(
            1,
            _ALGORITHM,
            reason="no overlapping forward zones and no backward zone inside a forward zone",
            stats={"clusters": len(history.writes)},
        )
    condition, a, b = violation
    return VerificationResult.no(
        1,
        _ALGORITHM,
        reason=(
            f"{condition}: cluster of value {a.value!r} (zone {a.zone!r}) conflicts "
            f"with cluster of value {b.value!r} (zone {b.zone!r})"
        ),
        stats={"clusters": len(history.writes)},
    )


def is_1atomic(history: History) -> bool:
    """Boolean convenience wrapper around :func:`verify_1atomic`."""
    return bool(verify_1atomic(history))
