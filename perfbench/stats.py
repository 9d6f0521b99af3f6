"""Summary statistics and failure accounting shared by every workload."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def min_samples_for(pct: float) -> int:
    """Smallest sample count that leaves ``MIN_SAMPLES_BEYOND`` beyond ``pct``."""
    n = 1
    while samples_beyond(n, pct) < MIN_SAMPLES_BEYOND:
        n += 1
    return n


def highest_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


@dataclass
class Tally:
    """Attempted and failed units of work (sessions, windows, ops, registers).

    A unit that errored, came back wrong, or never came back counts as
    failed; ``failed_frac`` is failed over attempted.
    """

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        if failed > attempted or failed < 0:
            raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
        self.attempted += attempted
        self.failed += failed

    def add_windows(self, expected: int, received: int) -> None:
        """Count ``expected`` windows, of which the missing ones failed."""
        self.add(expected, max(0, expected - received))

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
