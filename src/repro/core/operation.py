"""Operation model for read/write register histories (Section II-A).

An *operation* is an invocation of ``read`` or ``write`` on a single register.
It carries a start time, a finish time, a type and a value.  Two operations
are related by the *precedes* partial order iff one finishes before the other
starts; otherwise they are concurrent.

The classes here are deliberately small, immutable and hashable so they can be
used as graph nodes, dictionary keys and members of frozensets throughout the
verification algorithms.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Optional

from .errors import MalformedOperationError

__all__ = [
    "OpType",
    "Operation",
    "read",
    "write",
    "precedes",
    "concurrent",
    "trusted_operation",
    "ensure_op_ids_above",
    "reserve_op_ids",
]

_OP_COUNTER = itertools.count()


def ensure_op_ids_above(minimum: int) -> None:
    """Advance the auto-id counter past ``minimum``.

    Checkpoint restoration rehydrates operations that carry op_ids assigned by
    a *previous* process, while this process's counter restarts at zero; a
    freshly decoded operation could then collide with a restored one (equality
    and hashing are id-based).  Restorers call this with the largest restored
    id so every id minted afterwards is unique.  Consumes at most one id.
    """
    global _OP_COUNTER
    if next(_OP_COUNTER) <= minimum:
        _OP_COUNTER = itertools.count(minimum + 1)


def reserve_op_ids(n: int) -> range:
    """Reserve ``n`` consecutive fresh operation ids in one jump.

    Bulk producers (the columnar readers) mint a whole trace's ids at once
    instead of ``n`` ``next()`` calls; ids drawn later stay unique.
    """
    base = next(_OP_COUNTER)
    if n > 1:
        ensure_op_ids_above(base + n - 1)
    return range(base, base + n)


class OpType(enum.Enum):
    """The type of an operation: a read or a write."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=False)
class Operation:
    """A single read or write operation on a register.

    Attributes
    ----------
    op_type:
        Whether the operation is a read or a write.
    value:
        The value written (for writes) or returned (for reads).  The paper
        assumes values are unique per write; the library enforces this when a
        :class:`repro.core.history.History` is constructed.
    start:
        Invocation timestamp.  Timestamps are floats on a global clock.
    finish:
        Response timestamp.  Must be strictly greater than ``start``.
    key:
        Optional register/key identifier.  k-atomicity is a local property, so
        multi-key traces are split per key before verification.
    client:
        Optional identifier of the client/process that issued the operation.
    op_id:
        A unique identifier.  Auto-assigned when not given; used only for
        reporting and stable tie-breaking, never for algorithmic decisions.
    weight:
        Positive integer weight of a write, used by the weighted k-AV problem
        (Section V).  Ignored for reads.  Defaults to 1, which makes plain
        k-AV the special case of k-WAV described in the paper.
    """

    op_type: OpType
    value: Hashable
    start: float
    finish: float
    key: Optional[Hashable] = None
    client: Optional[Hashable] = None
    op_id: int = field(default_factory=lambda: next(_OP_COUNTER))
    weight: int = 1

    def __post_init__(self) -> None:
        if self.finish <= self.start:
            raise MalformedOperationError(
                f"operation {self.op_id!r} has finish {self.finish!r} <= start "
                f"{self.start!r}; operations must take a positive amount of time"
            )
        if self.op_type is OpType.WRITE and self.weight < 1:
            raise MalformedOperationError(
                f"write {self.op_id!r} has non-positive weight {self.weight!r}; "
                "weights must be positive integers (Section V)"
            )

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    @property
    def is_read(self) -> bool:
        """True iff this operation is a read."""
        return self.op_type is OpType.READ

    @property
    def is_write(self) -> bool:
        """True iff this operation is a write."""
        return self.op_type is OpType.WRITE

    @property
    def interval(self) -> tuple:
        """The ``(start, finish)`` interval of the operation."""
        return (self.start, self.finish)

    def precedes(self, other: "Operation") -> bool:
        """True iff this operation finishes before ``other`` starts."""
        return self.finish < other.start

    def concurrent_with(self, other: "Operation") -> bool:
        """True iff neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def with_times(self, start: float = None, finish: float = None) -> "Operation":
        """Return a copy of this operation with adjusted start/finish times.

        Used by the preprocessing step of Section II-C that shortens writes so
        that each write finishes before any of its dictated reads.
        """
        new_start = self.start if start is None else start
        new_finish = self.finish if finish is None else finish
        return replace(self, start=new_start, finish=new_finish)

    def __hash__(self) -> int:
        return hash(self.op_id)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return self.op_id == other.op_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "w" if self.is_write else "r"
        key = "" if self.key is None else f"{self.key}:"
        return (
            f"{kind}({key}{self.value!r})[{self.start:g},{self.finish:g}]#{self.op_id}"
        )


# ----------------------------------------------------------------------
# Factory helpers
# ----------------------------------------------------------------------
_object_new = object.__new__
_object_setattr = object.__setattr__


def trusted_operation(
    op_type: OpType,
    value: Hashable,
    start: float,
    finish: float,
    key: Optional[Hashable] = None,
    client: Optional[Hashable] = None,
    op_id: Optional[int] = None,
    weight: int = 1,
) -> Operation:
    """Build an :class:`Operation` without re-running ``__post_init__``.

    Internal fast path for *trusted* producers — the columnar decoder, the
    shard codec, and the streaming ingestion layer — whose inputs either were
    validated once already or are validated inline by the caller.  Skipping the
    dataclass ``__init__``/``__post_init__`` machinery roughly halves
    construction cost, which matters when materialising 100k+ operations.

    The caller is responsible for the invariants ``finish > start`` and
    ``weight >= 1``; external (untrusted) inputs must keep going through
    :class:`Operation` directly.
    """
    op = _object_new(Operation)
    _object_setattr(op, "op_type", op_type)
    _object_setattr(op, "value", value)
    _object_setattr(op, "start", start)
    _object_setattr(op, "finish", finish)
    _object_setattr(op, "key", key)
    _object_setattr(op, "client", client)
    _object_setattr(op, "op_id", next(_OP_COUNTER) if op_id is None else op_id)
    _object_setattr(op, "weight", weight)
    return op


def read(
    value: Hashable,
    start: float,
    finish: float,
    *,
    key: Optional[Hashable] = None,
    client: Optional[Hashable] = None,
    op_id: Optional[int] = None,
) -> Operation:
    """Create a read operation.

    Example
    -------
    >>> r = read("a", 1.0, 2.0)
    >>> r.is_read
    True
    """
    kwargs = dict(op_type=OpType.READ, value=value, start=start, finish=finish,
                  key=key, client=client)
    if op_id is not None:
        kwargs["op_id"] = op_id
    return Operation(**kwargs)


def write(
    value: Hashable,
    start: float,
    finish: float,
    *,
    key: Optional[Hashable] = None,
    client: Optional[Hashable] = None,
    op_id: Optional[int] = None,
    weight: int = 1,
) -> Operation:
    """Create a write operation.

    Example
    -------
    >>> w = write("a", 0.0, 0.5)
    >>> w.is_write
    True
    """
    kwargs = dict(op_type=OpType.WRITE, value=value, start=start, finish=finish,
                  key=key, client=client, weight=weight)
    if op_id is not None:
        kwargs["op_id"] = op_id
    return Operation(**kwargs)


def precedes(op1: Operation, op2: Operation) -> bool:
    """Module-level form of :meth:`Operation.precedes` (``op1 < op2``)."""
    return op1.precedes(op2)


def concurrent(op1: Operation, op2: Operation) -> bool:
    """Module-level form of :meth:`Operation.concurrent_with`."""
    return op1.concurrent_with(op2)
