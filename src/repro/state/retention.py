"""Bounded-memory window-timeline retention backed by a state store.

``StreamingEngine`` and ``repro watch`` accumulate one ``WindowReport`` per
closed window for the life of a stream — unbounded growth for a
months-long session.  :class:`TimelineRetention` is a list-shaped container
that keeps only the most recent ``keep`` reports hot in memory and spills
colder ones (pickled) into the ``timeline`` namespace of a
:class:`~repro.state.StateStore`; indexing a cold entry transparently
reloads it.  With no store or no ``keep`` bound it degrades to a plain
in-memory list, which is the behaviour-preserving default.

Spilled writes use ``durable=False``: the timeline is derived state — its
authority is the session checkpoint — so it needs crash *atomicity* but
not power-loss durability on every window.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Any, Iterator, List, Optional

from .store import StateStore

__all__ = ["TimelineRetention"]

#: State-store namespace holding spilled window reports.
TIMELINE_NAMESPACE = "timeline"


class TimelineRetention:
    """Append-mostly sequence of window reports with cold-entry spill.

    ``keep`` is the number of most-recent entries held in memory; ``None``
    (or no ``store``) retains everything in memory.  ``prefix`` namespaces
    the spilled keys so several streams can share one store.
    """

    def __init__(
        self,
        store: Optional[StateStore] = None,
        keep: Optional[int] = None,
        prefix: str = "stream",
    ):
        self._store = store if keep is not None else None
        self._keep = max(1, int(keep)) if keep is not None else None
        self._prefix = str(prefix)
        #: Hot tail: absolute index -> report, oldest first.
        self._hot: "OrderedDict[int, Any]" = OrderedDict()
        self._count = 0
        self.spills = 0
        self.reloads = 0

    @property
    def bounded(self) -> bool:
        """Whether cold entries are spilled (store attached and keep set)."""
        return self._store is not None

    def _key(self, index: int) -> str:
        return f"{self._prefix}:{index:010d}"

    # -- sequence surface ------------------------------------------------
    def append(self, report: Any) -> None:
        index = self._count
        self._hot[index] = report
        self._count += 1
        if self._store is None:
            return
        while len(self._hot) > self._keep:
            cold_index, cold = self._hot.popitem(last=False)
            self._store.put(
                TIMELINE_NAMESPACE,
                self._key(cold_index),
                pickle.dumps(cold, protocol=pickle.HIGHEST_PROTOCOL),
                durable=False,
            )
            self.spills += 1

    def extend(self, reports) -> None:
        for report in reports:
            self.append(report)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("timeline index out of range")
        hot = self._hot.get(index)
        if hot is not None or index in self._hot:
            return hot
        blob = self._store.get(TIMELINE_NAMESPACE, self._key(index))
        self.reloads += 1
        return pickle.loads(blob)

    def __iter__(self) -> Iterator[Any]:
        for index in range(self._count):
            yield self[index]

    # -- bulk ------------------------------------------------------------
    def materialize(self) -> List[Any]:
        """Every report, cold entries reloaded — snapshot/finish parity."""
        return list(self)

    def clear(self) -> None:
        if self._store is not None:
            for index in range(self._count - len(self._hot)):
                self._store.delete(TIMELINE_NAMESPACE, self._key(index))
        self._hot.clear()
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bounded" if self.bounded else "unbounded"
        return f"<TimelineRetention {kind} len={self._count} hot={len(self._hot)}>"
