"""Verification results with witnesses and refutations.

Every verifier in :mod:`repro.algorithms` returns a
:class:`VerificationResult` rather than a bare boolean so that callers can

* inspect a *witness* — a valid k-atomic total order — when the answer is YES,
* read a human-oriented *reason* when the answer is NO,
* and record which algorithm produced the verdict (useful when
  cross-validating LBT, FZF and the exact oracle).

Results are truthy exactly when the history was verified k-atomic, so the
common idiom ``if verify_2atomic(h): ...`` works as expected.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .history import History
from .operation import Operation

__all__ = ["VerificationResult", "StreamVerdict", "Verdict"]


# Backwards-compatible alias used in a few call sites and examples.
Verdict = bool

#: Serialises first reads of deferred witnesses: racing readers get one tuple.
_WITNESS_LOCK = threading.Lock()


class _Witness:
    """The ``witness`` field: a value in the instance dict shadows this
    descriptor, which builds a deferred witness from its source once."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default
        fields = result.__dict__
        with _WITNESS_LOCK:
            if "witness" not in fields:
                decode, args = fields["_witness_source"]
                fields["witness"] = decode(*args)
                del fields["_witness_source"]
        return fields["witness"]


@dataclass(frozen=True)
class VerificationResult:
    """The outcome of a k-atomicity (or weighted k-atomicity) verification.

    Attributes
    ----------
    is_k_atomic:
        The verdict: ``True`` iff the history admits a valid k-atomic total
        order for the ``k`` that was asked about.
    k:
        The staleness bound that was verified.
    algorithm:
        Short name of the algorithm that produced the verdict (``"LBT"``,
        ``"FZF"``, ``"GK"``, ``"exact"``, ``"wkav-exact"`` …).
    witness:
        A valid k-atomic total order over all operations when the verdict is
        YES and the algorithm produces one (LBT and the exact oracle do; FZF
        produces per-chunk witnesses that are stitched together).  ``None``
        when the verdict is NO or the algorithm is purely decision-based.
        A result built by :meth:`deferred` (every YES result the engine
        decodes from a shard) builds its witness on the first read and
        caches it; equality, ``repr`` and pickling read it like any field.
    reason:
        A human-readable explanation, primarily for NO verdicts (e.g. which
        chunk failed, or which zone condition was violated).
    stats:
        Free-form counters the algorithm chose to expose (epochs run,
        candidates tried, chunks examined…), for benchmarking and debugging.
    """

    is_k_atomic: bool
    k: int
    algorithm: str
    witness: Optional[Tuple[Operation, ...]] = _Witness()
    reason: str = ""
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.is_k_atomic

    def __getstate__(self) -> dict:
        witness = self.witness  # a deferred witness is built: its source stays here
        return {**self.__dict__, "witness": witness}

    def require_witness(self) -> Tuple[Operation, ...]:
        """Return the witness order, raising if there is none."""
        if self.witness is None:
            raise ValueError(
                f"verification result from {self.algorithm} carries no witness "
                f"(verdict={self.is_k_atomic})"
            )
        return self.witness

    def check_witness(self, history: History) -> bool:
        """Re-validate the witness against ``history``.

        Returns ``True`` iff the stored witness is a valid k-atomic total
        order of the history.  Useful in tests and when results cross module
        boundaries.
        """
        if self.witness is None:
            return False
        return history.is_k_atomic_total_order(self.witness, self.k)

    def summary(self) -> str:
        """One-line human-readable summary of the result."""
        verdict = "YES" if self.is_k_atomic else "NO"
        parts = [f"{self.algorithm}: {verdict} (k={self.k})"]
        if self.reason:
            parts.append(self.reason)
        return " — ".join(parts)

    @staticmethod
    def yes(
        k: int,
        algorithm: str,
        witness: Optional[Sequence[Operation]] = None,
        reason: str = "",
        stats: Optional[dict] = None,
    ) -> "VerificationResult":
        """Construct a positive result."""
        return VerificationResult(
            is_k_atomic=True,
            k=k,
            algorithm=algorithm,
            witness=tuple(witness) if witness is not None else None,
            reason=reason,
            stats=dict(stats or {}),
        )

    @staticmethod
    def deferred(decode, args: tuple, **fields) -> "VerificationResult":
        """A result whose witness is ``decode(*args)``, built on its first read."""
        result = VerificationResult(**fields)
        del result.__dict__["witness"]
        result.__dict__["_witness_source"] = (decode, args)
        return result

    @staticmethod
    def no(
        k: int,
        algorithm: str,
        reason: str = "",
        stats: Optional[dict] = None,
    ) -> "VerificationResult":
        """Construct a negative result."""
        return VerificationResult(
            is_k_atomic=False,
            k=k,
            algorithm=algorithm,
            witness=None,
            reason=reason,
            stats=dict(stats or {}),
        )


@dataclass(frozen=True)
class StreamVerdict:
    """A mid-stream verdict emitted by an incremental checker.

    Online verification is asymmetric: a history that is not k-atomic stays
    not k-atomic when more operations arrive (any dictating-closed prefix of a
    k-atomic history is itself k-atomic), whereas a prefix that *is* k-atomic
    may still be ruined by later operations.  A stream verdict therefore comes
    in two strengths:

    * ``final=True`` — a NO that will never be retracted (or the verdict of a
      finished stream); the audit can alarm immediately;
    * ``final=False`` — a provisional YES: every operation seen so far admits
      a k-atomic total order, subject to revision as the stream continues.

    Attributes
    ----------
    result:
        The underlying :class:`VerificationResult` for the checked prefix.
    ops_seen:
        How many operations the checker had ingested when the verdict was
        produced (pending/unresolved reads included).
    final:
        Whether the verdict is immune to future operations.
    """

    result: VerificationResult
    ops_seen: int
    final: bool

    def __bool__(self) -> bool:
        return bool(self.result)

    def summary(self) -> str:
        """One-line human-readable summary of the stream verdict."""
        strength = "final" if self.final else "provisional"
        return f"{self.result.summary()} [{strength}, after {self.ops_seen} ops]"
