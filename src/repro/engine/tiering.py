"""Adaptive tiered verification of streams: peek cheap, check when suspicious.

In a rolling stream each register owns an incremental checker with two
rungs: the O(1) :meth:`~repro.algorithms.online.Checker.peek` (the latest
cadence-driven verdict, possibly one cadence stale) and the authoritative
:meth:`~repro.algorithms.online.Checker.check_now`.  A tier policy lets a
(register, window) pay only the peek unless a trigger fires: an anomalous
read (Section II-C), a read lagging >= k writes behind, a latched checker
alarm, dense interval overlap under ``auto``, or a periodic confirm.  Only
window verdicts are screened: ``finish()`` always runs the authoritative
checker, so final verdicts equal the untiered stream's exactly.

The triggers are invariant under the metamorphic symmetries (time shift and
positive scale, client/value rename), so tier decisions are properties of
the trace shape, not of its encoding.

Batch audits run the exact checker only: on complete traces a screen at
k' = 1 never beat it (``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import VerificationError
from ..core.operation import Operation

__all__ = [
    "TIER_NAMES",
    "OVERLAP_THRESHOLD",
    "CONFIRM_INTERVAL",
    "TierPolicy",
    "TierStreamState",
    "get_tier_policy",
]

#: The registered tier policy names, in escalating order of adaptivity.
#: ``exact`` is the untiered behaviour (every window pays the authoritative
#: check), ``screen`` peeks unless a trigger fires, and ``auto`` adds the
#: overlap-density gate.
TIER_NAMES: Tuple[str, ...] = ("exact", "screen", "auto")

#: Overlap density of a window at or above which ``auto`` checks anyway.
OVERLAP_THRESHOLD = 0.85

#: Windows a register may ride the peek before a check is forced even with
#: no trigger, bounding peek staleness.
CONFIRM_INTERVAL = 8


@dataclass(frozen=True)
class TierPolicy:
    """A named screening policy for the rolling stream's per-window checks."""

    name: str
    #: When true, dense interval overlap also forces a check (``auto``).
    feature_gated: bool = False


#: The screening policies by name; ``exact`` resolves to no policy.
_PRESETS: Dict[str, TierPolicy] = {
    "screen": TierPolicy(name="screen"),
    "auto": TierPolicy(name="auto", feature_gated=True),
}


def get_tier_policy(
    tier: Union[None, str, TierPolicy],
) -> Optional[TierPolicy]:
    """Resolve a tier argument to a policy (``None``/``"exact"`` -> ``None``).

    Unknown names raise :class:`VerificationError` listing the registered
    tiers — callers must not fall back silently.
    """
    if tier is None or isinstance(tier, TierPolicy):
        return tier
    name = str(tier).strip().lower()
    if name not in TIER_NAMES:
        raise VerificationError(
            f"unknown tier {tier!r}; available: {', '.join(TIER_NAMES)}"
        )
    return _PRESETS.get(name)


class TierStreamState:
    """Per-register escalation state for the streaming/rolling engines.

    This state watches each window's operations for the trigger features —
    anomalous reads, value lag >= k, dense overlap under ``auto``, plus the
    checker's own latched alarms — and decides per (register, window)
    whether the authoritative check must run.  The decision protocol is
    deliberately plain data (``"check"`` / ``"peek"``) so the worker pool can
    ship it per shard and journal it for replay.
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
            and overlaps / (len(ops) - 1) >= OVERLAP_THRESHOLD
        ):
            triggers.append("overlap-density")
        state["since"] += 1
        if not triggers and state["since"] >= CONFIRM_INTERVAL:
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
