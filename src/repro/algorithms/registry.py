"""Registry mapping algorithm names to verifier callables.

The unified API (:mod:`repro.core.api`) and the benchmark harness select
algorithms by name; this registry is the single source of truth for which
names exist and which staleness bounds each algorithm supports.  Batch
verifiers live in :data:`REGISTRY`; their incremental (streaming)
counterparts live in :data:`CHECKERS` and are constructed per register by the
streaming engine.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..core.errors import VerificationError
from ..core.history import History
from ..core.result import VerificationResult
from . import exact, fzf, gk, lbt
from .online import Checker, IncrementalGKChecker, IncrementalLBTChecker

__all__ = [
    "AlgorithmSpec",
    "REGISTRY",
    "get_algorithm",
    "algorithms_for_k",
    "available_algorithms",
    "CheckerSpec",
    "CHECKERS",
    "get_checker",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata about a registered verification algorithm."""

    name: str
    #: The staleness bounds the algorithm can decide (``None`` = any k).
    supported_k: Optional[Sequence[int]]
    #: ``fn(history, k, **options) -> VerificationResult``.  Registered
    #: adapters accept (and may ignore) keyword options such as ``kernel``;
    #: ad-hoc two-argument callables keep working through :meth:`run`.
    fn: Callable[..., VerificationResult]
    description: str

    def run(self, history: History, k: int, **options) -> VerificationResult:
        """Invoke the verifier, dropping options the callable does not take."""
        if options and not _accepts_options(self.fn):
            options = {}
        return self.fn(history, k, **options)

    def supports(self, k: int) -> bool:
        """True iff the algorithm can decide k-atomicity for this ``k``."""
        return self.supported_k is None or k in self.supported_k

    def __reduce__(self):
        # Pickle registered specs by *name*, never by function object: worker
        # processes of the parallel engine resolve the spec against their own
        # registry, so the adapter closures never cross the process boundary
        # and un-pickling always yields the (single) registered instance.
        # Ad-hoc specs that are not in the registry keep default pickling.
        if REGISTRY.get(self.name) is self:
            return (get_algorithm, (self.name,))
        return super().__reduce__()


def _accepts_options(fn) -> bool:
    """Whether ``fn`` takes keyword options beyond ``(history, k)`` (cached)."""
    cached = _OPTION_SUPPORT.get(fn)
    if cached is None:
        try:
            params = inspect.signature(fn).parameters.values()
        except (TypeError, ValueError):  # pragma: no cover - C callables etc.
            cached = False
        else:
            cached = any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                or (
                    p.kind is inspect.Parameter.KEYWORD_ONLY
                    and p.name == "kernel"
                )
                for p in params
            )
        _OPTION_SUPPORT[fn] = cached
    return cached


_OPTION_SUPPORT: Dict[Callable, bool] = {}


def _gk_adapter(
    history: History, k: int, *, kernel: Optional[str] = None
) -> VerificationResult:
    if k != 1:
        raise VerificationError("GK decides only 1-atomicity")
    return gk.verify_1atomic(history, kernel=kernel)


def _lbt_adapter(
    history: History, k: int, *, kernel: Optional[str] = None, **_options
) -> VerificationResult:
    if k != 2:
        raise VerificationError("LBT decides only 2-atomicity")
    return lbt.verify_2atomic(history, kernel=kernel)


def _lbt_reference_adapter(history: History, k: int, **_options) -> VerificationResult:
    if k != 2:
        raise VerificationError("LBT (reference) decides only 2-atomicity")
    return lbt.verify_2atomic_reference(history)


def _fzf_adapter(
    history: History, k: int, *, kernel: Optional[str] = None
) -> VerificationResult:
    if k != 2:
        raise VerificationError("FZF decides only 2-atomicity")
    return fzf.verify_2atomic_fzf(history, kernel=kernel)


def _exact_adapter(history: History, k: int, **_options) -> VerificationResult:
    return exact.verify_k_atomic_exact(history, k)


REGISTRY: Dict[str, AlgorithmSpec] = {
    "gk": AlgorithmSpec(
        name="gk",
        supported_k=(1,),
        fn=_gk_adapter,
        description="Gibbons–Korach zone conditions for 1-atomicity (linearizability)",
    ),
    "lbt": AlgorithmSpec(
        name="lbt",
        supported_k=(2,),
        fn=_lbt_adapter,
        description="Limited-backtracking 2-AV (Section III), efficient variant",
    ),
    "lbt-reference": AlgorithmSpec(
        name="lbt-reference",
        supported_k=(2,),
        fn=_lbt_reference_adapter,
        description="Literal Figure 2 transcription of LBT (reference implementation)",
    ),
    "fzf": AlgorithmSpec(
        name="fzf",
        supported_k=(2,),
        fn=_fzf_adapter,
        description="Forward-Zones-First 2-AV (Section IV), O(n log n) worst case",
    ),
    "exact": AlgorithmSpec(
        name="exact",
        supported_k=None,
        fn=_exact_adapter,
        description="Exact exponential oracle for any k (testing / k >= 3 fallback)",
    ),
}


@dataclass(frozen=True)
class CheckerSpec:
    """Metadata about a registered incremental (streaming) checker."""

    name: str
    #: The staleness bounds the checker can decide.
    supported_k: Sequence[int]
    #: Zero-argument-friendly factory: ``factory(**options) -> Checker``.
    factory: Callable[..., Checker]
    #: Name of the batch algorithm whose verdicts the checker reproduces.
    batch_counterpart: str
    description: str

    def supports(self, k: int) -> bool:
        """True iff the checker can decide k-atomicity for this ``k``."""
        return k in self.supported_k


CHECKERS: Dict[str, CheckerSpec] = {
    "gk-online": CheckerSpec(
        name="gk-online",
        supported_k=(1,),
        factory=IncrementalGKChecker,
        batch_counterpart="gk",
        description="Incremental Gibbons–Korach 1-AV: O(1) cluster/zone upkeep, "
        "O(log n) forward-zone index, batch-confirmed alarms",
    ),
    "lbt-online": CheckerSpec(
        name="lbt-online",
        supported_k=(2,),
        factory=IncrementalLBTChecker,
        batch_counterpart="lbt",
        description="Incremental 2-AV by LBT re-check at geometric checkpoints; "
        "each re-check re-runs only the epochs new operations reach",
    ),
}


def get_checker(name: str) -> CheckerSpec:
    """Look up an incremental checker by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in CHECKERS:
        raise VerificationError(
            f"unknown incremental checker {name!r}; available: {', '.join(sorted(CHECKERS))}"
        )
    return CHECKERS[key]


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up an algorithm by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in REGISTRY:
        raise VerificationError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[key]


def algorithms_for_k(k: int) -> Dict[str, AlgorithmSpec]:
    """All registered algorithms that can decide k-atomicity for ``k``."""
    return {name: spec for name, spec in REGISTRY.items() if spec.supports(k)}


def available_algorithms() -> Dict[str, str]:
    """Mapping from algorithm name to its one-line description."""
    return {name: spec.description for name, spec in REGISTRY.items()}
