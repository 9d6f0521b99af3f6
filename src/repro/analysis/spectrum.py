"""Staleness spectrum: classify each register of a trace by its minimal k.

The introduction of the paper argues that operators want to know not just
*whether* a store is atomic but *how far* from atomic it is, so that
consistency "tuning knobs" (quorum sizes, replication factor) can be relaxed
or tightened.  The spectrum analysis answers exactly that question for a
recorded trace: for every register it reports the smallest ``k`` for which
the per-register history is k-atomic, bucketed as ``1``, ``2``, or ``3+``
(because no polynomial algorithm is known beyond ``k = 2``, larger histories
are not sent to the exponential oracle unless explicitly requested).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.api import DEFAULT_MAX_EXACT_OPS, verify
from ..core.history import History, MultiHistory
from ..core.preprocess import find_anomalies, normalize
from ..core.result import StreamVerdict

__all__ = [
    "StalenessBucket",
    "staleness_bucket",
    "KeyVerdict",
    "StalenessSpectrum",
    "atomicity_spectrum",
    "OnlineSpectrum",
]


class StalenessBucket(enum.Enum):
    """Coarse classification of a register's minimal staleness bound."""

    ATOMIC = "k=1"
    TWO_ATOMIC = "k=2"
    THREE_PLUS = "k>=3"
    ANOMALOUS = "anomalous"
    EMPTY = "empty"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def staleness_bucket(
    history: History,
    *,
    resolve_exact: bool = False,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
) -> Tuple[StalenessBucket, Optional[int]]:
    """Classify one register history.

    Returns ``(bucket, minimal_k)`` where ``minimal_k`` is known exactly for
    buckets ``ATOMIC`` and ``TWO_ATOMIC``; for ``THREE_PLUS`` it is only
    resolved when ``resolve_exact=True`` and the history is small enough for
    the exponential oracle, otherwise ``None``.

    The per-k sweep shares every derived structure: normalisation, the
    anomaly scan, the cluster table and the columnar encoding are computed
    once on the history and reused by the k=1 and k=2 verifiers.
    """
    if history.is_empty:
        return (StalenessBucket.EMPTY, None)
    if find_anomalies(history):
        return (StalenessBucket.ANOMALOUS, None)
    normalized = normalize(history)
    if verify(normalized, 1, preprocess=False):
        return (StalenessBucket.ATOMIC, 1)
    if verify(normalized, 2, preprocess=False):
        return (StalenessBucket.TWO_ATOMIC, 2)
    if resolve_exact and len(normalized) <= max_exact_ops:
        k = 3
        while not verify(normalized, k, algorithm="exact", preprocess=False):
            k += 1
        return (StalenessBucket.THREE_PLUS, k)
    return (StalenessBucket.THREE_PLUS, None)


@dataclass(frozen=True)
class KeyVerdict:
    """Spectrum entry for one register."""

    key: Hashable
    bucket: StalenessBucket
    minimal_k: Optional[int]
    num_operations: int


@dataclass(frozen=True)
class StalenessSpectrum:
    """The staleness spectrum of a whole trace."""

    verdicts: Tuple[KeyVerdict, ...]

    @property
    def num_keys(self) -> int:
        """Number of registers analysed."""
        return len(self.verdicts)

    def counts(self) -> Dict[StalenessBucket, int]:
        """How many registers fall into each bucket."""
        result: Dict[StalenessBucket, int] = {}
        for v in self.verdicts:
            result[v.bucket] = result.get(v.bucket, 0) + 1
        return result

    def fraction(self, bucket: StalenessBucket) -> float:
        """The fraction of registers in ``bucket``."""
        if not self.verdicts:
            return 0.0
        return self.counts().get(bucket, 0) / len(self.verdicts)

    @property
    def fraction_atomic(self) -> float:
        """Fraction of registers that are linearizable (k = 1)."""
        return self.fraction(StalenessBucket.ATOMIC)

    @property
    def fraction_within_2(self) -> float:
        """Fraction of registers that are at worst 2-atomic."""
        return self.fraction(StalenessBucket.ATOMIC) + self.fraction(
            StalenessBucket.TWO_ATOMIC
        )

    def worst_bucket(self) -> StalenessBucket:
        """The worst bucket observed across all registers."""
        severity = {
            StalenessBucket.EMPTY: 0,
            StalenessBucket.ATOMIC: 1,
            StalenessBucket.TWO_ATOMIC: 2,
            StalenessBucket.THREE_PLUS: 3,
            StalenessBucket.ANOMALOUS: 4,
        }
        if not self.verdicts:
            return StalenessBucket.EMPTY
        return max((v.bucket for v in self.verdicts), key=lambda b: severity[b])

    def is_k_atomic(self, k: int) -> Optional[bool]:
        """Whether the whole trace is k-atomic, if determinable from buckets.

        Returns ``True``/``False`` when the bucket information suffices
        (k-atomicity is local, Section II-B) and ``None`` when some register
        landed in the unresolved ``k >= 3`` bucket and ``k >= 3`` was asked.
        """
        worst = self.worst_bucket()
        if worst is StalenessBucket.ANOMALOUS:
            return False
        if worst is StalenessBucket.EMPTY or worst is StalenessBucket.ATOMIC:
            return True
        if worst is StalenessBucket.TWO_ATOMIC:
            return k >= 2
        # THREE_PLUS
        if k <= 2:
            return False
        resolved = [v.minimal_k for v in self.verdicts if v.bucket is StalenessBucket.THREE_PLUS]
        if all(m is not None for m in resolved):
            return all(m <= k for m in resolved)
        return None


class OnlineSpectrum:
    """A staleness spectrum maintained incrementally, one window at a time.

    The batch :func:`atomicity_spectrum` classifies a *finished* trace; the
    online spectrum answers the same "how far from atomic is each register?"
    question while the trace is still being recorded.  A live audit runs a
    bank of incremental checkers per register (typically ``k = 1`` and
    ``k = 2``; see :class:`repro.simulation.auditor.LiveAuditor`) and calls
    :meth:`observe` with the rolling verdicts at each window close; the
    spectrum folds them into the per-register bucket:

    * 1-atomic YES → ``ATOMIC``;
    * 1-atomic NO, 2-atomic YES → ``TWO_ATOMIC``;
    * both NO → ``THREE_PLUS`` (or ``ANOMALOUS`` when the verdict came from
      the Section II-C preprocessing rather than an algorithm).

    Because NO stream verdicts are final and YES verdicts are provisional,
    buckets only ever move toward more staleness as the stream continues —
    the online spectrum at any instant is an optimistic-but-sound view that
    converges to the batch spectrum at end-of-stream.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, StalenessBucket] = {}
        self._minimal: Dict[Hashable, Optional[int]] = {}
        self._num_ops: Dict[Hashable, int] = {}
        self._key_order: List[Hashable] = []
        self._updates = 0

    # ------------------------------------------------------------------
    @property
    def num_keys(self) -> int:
        """Registers observed so far."""
        return len(self._key_order)

    @property
    def updates(self) -> int:
        """How many :meth:`observe` calls the spectrum has folded in."""
        return self._updates

    def observe(
        self,
        key: Hashable,
        *,
        one_atomic: Optional[StreamVerdict] = None,
        two_atomic: Optional[StreamVerdict] = None,
        num_ops: int = 0,
    ) -> StalenessBucket:
        """Fold one register's rolling verdicts into the spectrum.

        Either verdict may be ``None`` when the corresponding checker was not
        run; the bucket is then derived from the available one (a lone
        1-atomic NO yields ``TWO_ATOMIC`` as the optimistic-but-sound bound).
        Returns the register's updated bucket.
        """
        self._updates += 1
        if key not in self._buckets:
            self._key_order.append(key)
        if num_ops:
            self._num_ops[key] = num_ops
        anomalous = any(
            v is not None and not v and v.result.algorithm == "preprocess"
            for v in (one_atomic, two_atomic)
        )
        if anomalous:
            bucket, minimal = StalenessBucket.ANOMALOUS, None
        elif one_atomic is not None and one_atomic:
            bucket, minimal = StalenessBucket.ATOMIC, 1
        elif two_atomic is not None and two_atomic:
            bucket, minimal = StalenessBucket.TWO_ATOMIC, 2
        elif two_atomic is not None and not two_atomic:
            bucket, minimal = StalenessBucket.THREE_PLUS, None
        elif one_atomic is not None and not one_atomic:
            bucket, minimal = StalenessBucket.TWO_ATOMIC, None
        else:
            bucket, minimal = StalenessBucket.EMPTY, None
        self._buckets[key] = bucket
        self._minimal[key] = minimal
        return bucket

    def bucket_of(self, key: Hashable) -> Optional[StalenessBucket]:
        """The register's current bucket, or ``None`` if never observed."""
        return self._buckets.get(key)

    def snapshot(self) -> StalenessSpectrum:
        """Freeze the current state into a :class:`StalenessSpectrum`."""
        verdicts = tuple(
            KeyVerdict(
                key=key,
                bucket=self._buckets[key],
                minimal_k=self._minimal[key],
                num_operations=self._num_ops.get(key, 0),
            )
            for key in sorted(self._key_order, key=repr)
        )
        return StalenessSpectrum(verdicts=verdicts)


def atomicity_spectrum(
    trace: MultiHistory,
    *,
    resolve_exact: bool = False,
    max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
) -> StalenessSpectrum:
    """Compute the staleness spectrum of a multi-register trace."""
    verdicts: List[KeyVerdict] = []
    for key in sorted(trace.keys(), key=repr):
        history = trace[key]
        bucket, minimal = staleness_bucket(
            history,
            resolve_exact=resolve_exact,
            max_exact_ops=max_exact_ops,
        )
        verdicts.append(
            KeyVerdict(
                key=key,
                bucket=bucket,
                minimal_k=minimal,
                num_operations=len(history),
            )
        )
    return StalenessSpectrum(verdicts=tuple(verdicts))
