"""Pluggable shard executors: serial and process pool.

An executor turns a list of shard tasks into a stream of shard results.  Both
implementations share one contract (:meth:`ShardExecutor.run`): they yield
results *as they complete*, which is what lets the engine short-circuit on
the first failing register without waiting for the remaining shards.

* ``serial`` — runs shards inline, in order; zero overhead, exact seed
  semantics.  The default.
* ``processes`` — a :class:`~concurrent.futures.ProcessPoolExecutor`; the
  multi-core path.  Shard tasks carry algorithm *names*, never function
  objects, so everything crossing the process boundary is picklable (see
  :mod:`repro.algorithms.registry`).

When the generator returned by :meth:`run` is closed early (engine
short-circuit), the process executor cancels all not-yet-started shards;
shards already running finish but their results are discarded.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, Iterator, Sequence, TypeVar

from ..core.errors import VerificationError

__all__ = [
    "ShardExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "get_executor",
    "default_jobs",
]

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Default worker count: the CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class ShardExecutor:
    """Base class for shard executors."""

    #: Registry name; subclasses override.
    name = "base"
    #: Whether separate worker processes are involved (tasks must pickle).
    crosses_process_boundary = False

    def run(
        self, fn: Callable[[T], R], tasks: Sequence[T], jobs: int
    ) -> Iterator[R]:
        """Yield ``fn(task)`` results in *completion* order.

        Exceptions raised by ``fn`` propagate to the consumer.  Closing the
        returned generator cancels outstanding work (best effort).
        """
        raise NotImplementedError


class SerialExecutor(ShardExecutor):
    """Run shards inline, in submission order."""

    name = "serial"

    def run(self, fn, tasks, jobs):
        for task in tasks:
            yield fn(task)


class ProcessExecutor(ShardExecutor):
    """Process-pool executor (true multi-core parallelism)."""

    name = "processes"
    crosses_process_boundary = True

    def run(self, fn, tasks, jobs):
        if jobs < 1:
            raise VerificationError(f"jobs must be >= 1, got {jobs}")
        pool = ProcessPoolExecutor(max_workers=min(jobs, max(1, len(tasks))))
        try:
            pending = {pool.submit(fn, task) for task in tasks}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        finally:
            for future in pending:
                future.cancel()
            pool.shutdown(wait=True)


EXECUTORS: Dict[str, ShardExecutor] = {
    e.name: e for e in (SerialExecutor(), ProcessExecutor())
}


def get_executor(name: str) -> ShardExecutor:
    """Look up an executor by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in EXECUTORS:
        raise VerificationError(
            f"unknown executor {name!r}; available: {', '.join(sorted(EXECUTORS))}"
        )
    return EXECUTORS[key]
