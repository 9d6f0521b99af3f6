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

The process executor keeps its workers warm: one pool of ``jobs`` workers
per process, built on the first run and reused by every later run (both
rounds of a JSONL audit, every later audit, every window of a windowed
stream).  A run with another ``jobs`` replaces it; a forked child builds its
own and never touches the one it inherited.

When the generator returned by :meth:`run` is closed early (engine
short-circuit), the process executor cancels all not-yet-started shards and
waits for the running ones, so a later run never sees a stale result.  A
pool that breaks (a worker died) is dropped; a run that had yielded nothing
yet retries once on a fresh pool, otherwise it raises
:class:`~concurrent.futures.process.BrokenProcessPool`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import process as futures_process
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import util as mp_util
from typing import Callable, Dict, Iterator, Optional, Sequence, TypeVar

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
    """Process-pool executor (true multi-core parallelism) on warm workers.

    All instances share this process's one pool, built under a lock.  The
    pool is keyed by process: an at-fork hook makes a child drop the pool it
    inherited, and a finalizer shuts the pool down when the process exits.
    """

    name = "processes"
    crosses_process_boundary = True

    _lock = threading.Lock()
    _pool: Optional[ProcessPoolExecutor] = None
    _pool_jobs = 0
    #: The process that registered :meth:`_shutdown` to run at its exit.
    _exit_hook_pid = 0

    def run(self, fn, tasks, jobs):
        if jobs < 1:
            raise VerificationError(f"jobs must be >= 1, got {jobs}")
        yielded = False
        for retry in (False, True):
            pending = set()
            try:
                with self._lock:
                    pool = self._warm_pool(jobs)
                    pending = {pool.submit(fn, task) for task in tasks}
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        result = future.result()
                        yielded = True
                        yield result
                return
            except BrokenProcessPool:
                self._drop(pool)
                if yielded or retry:
                    raise
            finally:
                for future in pending:
                    future.cancel()
                wait(pending)

    @classmethod
    def _warm_pool(cls, jobs: int) -> ProcessPoolExecutor:
        """This process's pool of ``jobs`` workers; the caller holds the lock."""
        if cls._pool is None or cls._pool_jobs != jobs:
            cls._shutdown()
            cls._pool, cls._pool_jobs = ProcessPoolExecutor(max_workers=jobs), jobs
            if cls._exit_hook_pid != os.getpid():
                # A multiprocessing child joins its children before its
                # threads stop the pool, so an idle pool would hang its exit.
                # Run before the pool's queues' own exit finalizers (10).
                mp_util.Finalize(None, cls._shutdown, exitpriority=100)
                cls._exit_hook_pid = os.getpid()
        return cls._pool

    @classmethod
    def _shutdown(cls) -> None:
        """Shut down this process's pool, if any, reaping its workers."""
        pool, cls._pool = cls._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @classmethod
    def _drop(cls, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool (if it is still the cached one) and reap it."""
        with cls._lock:
            if cls._pool is pool:
                cls._pool = None
        pool.shutdown(wait=True)

    @classmethod
    def _forget_pool(cls) -> None:
        """Run in a forked child, where the inherited pool is unusable: its
        manager thread did not survive the fork and its pipes are the
        parent's.  Park it for good (freeing it would signal the parent's
        pipe under a lock the fork may have caught held), renew the lock, and
        unregister the dead manager threads, which interpreter exit would
        otherwise wake by writing to the parent's pipes."""
        if cls._pool is not None:
            _INHERITED_POOLS.append(cls._pool)
        cls._pool, cls._lock = None, threading.Lock()
        getattr(futures_process, "_threads_wakeups", {}).clear()


#: Pools inherited across ``fork``, kept referenced so they are never freed.
_INHERITED_POOLS = []

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=ProcessExecutor._forget_pool)


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
