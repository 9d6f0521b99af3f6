"""The audit worker pool: checker work on many cores, event loop on one.

The single-process :class:`~repro.service.server.AuditServer` multiplexes
every session onto one event loop, so all checker CPU — the per-window
``check_now`` re-checks especially — runs on one core.  This module moves the
checkers into a pool of long-lived worker *processes* while the event loop
keeps doing what it is good at: socket pumping, JSONL decoding, backpressure
and window bookkeeping.

Architecture
------------
* **Shards.**  The unit of placement is a ``(session_id, register_key)``
  shard — the per-register locality theorem (Section II-B) makes a
  register's verdict independent of every other register, so a shard can live
  on any worker as long as all of its operations arrive there in stream
  order.  :class:`~repro.service.routing.HashRing` maps shards to workers
  deterministically and moves only ``~1/N`` of them when the pool resizes.
* **Feed batches.**  When a session's window closes, the event loop groups
  the window's fresh operations per register, groups registers per home
  worker, and ships one compact request per worker over the stream-order
  feed-batch codec (:func:`repro.engine.codec.encode_feed_batches` — the
  PR 3 column wire format, ~35-40 B/op).  Workers feed their incremental
  checkers and return per-register :class:`~repro.core.result.StreamVerdict`
  payloads, which the loop merges back into the ordinary
  :class:`~repro.analysis.report.WindowReport` stream — verdict-for-verdict
  identical to the single-process path, because the *same* checker code sees
  the *same* operations in the *same* order.
* **Failover.**  The pool keeps, per shard, the last checker snapshot (taken
  piggyback on a feed every ``snapshot_every`` windows) plus the operation
  batches fed since.  When a worker process dies, a replacement is spawned
  under the same worker id (so routing never changes), every shard homed
  there is restored from its snapshot, and the logged batches are replayed
  with their original check cadence — the rebuilt checker state is
  *identical* to the lost one, so the resumed verdict stream matches an
  uninterrupted run.  :meth:`WorkerPool.resize` migrates moved shards the
  same way, preferring a live snapshot from the old home.

Memory trade-off: the parent's snapshot+replay copy roughly doubles resident
checker state versus single-process serving; ``snapshot_every`` bounds the
replay log, and a full session checkpoint (which pulls fresh snapshots
anyway) resets it for free.  Passing a :class:`repro.state.StateStore` as
the pool's ``journal`` moves that copy out of parent memory instead:
snapshots land in the ``pool-snap`` namespace and replay batches in
``pool-log``, loaded back only on the (rare) failover or resize path.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import threading
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..analysis.report import (
    StreamVerificationReport,
    WindowReport,
    WindowStats,
    WorkerStats,
)
from ..core.errors import (
    ReproError,
    ServiceError,
    VerificationError,
    WorkerCrashLoopError,
)
from ..core.operation import Operation, ensure_op_ids_above
from ..core.windows import Window, WindowAssembler
from ..engine.codec import decode_feed_batches, encode_feed_batches
from ..engine.tiering import TierStreamState, get_tier_policy
from .session import AuditSession, SessionConfig, _corrupt_on_error, _parse_checkpoint

__all__ = ["WorkerPool", "PooledStreamSession", "PooledAuditSession"]

#: Take a piggyback checker snapshot every this many windows per shard
#: (bounds the failover replay log).
DEFAULT_SNAPSHOT_EVERY = 16

#: How long a caller waits for a dead worker's replacement before giving up.
RECOVERY_TIMEOUT_S = 30.0

#: Feed attempts per window batch before the pool declares the shard lost.
_MAX_ATTEMPTS = 5

#: Crash-loop detection default: this many respawns of one worker id...
DEFAULT_CRASH_LOOP_THRESHOLD = 10

#: ...within this many seconds stops respawning it and fails its shards.
DEFAULT_CRASH_LOOP_WINDOW_S = 10.0

#: First respawn delay; doubles per respawn inside the crash-loop window.
_RESPAWN_BACKOFF_BASE_S = 0.05

#: Longest delay the respawn backoff grows to.
_RESPAWN_BACKOFF_CAP_S = 2.0


def _default_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (3 ms worker starts), else ``spawn``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class _WorkerDied(Exception):
    """Internal: the home worker's process ended before replying."""

    def __init__(self, worker_id: int, generation: int):
        super().__init__(f"worker {worker_id} (generation {generation}) died")
        self.worker_id = worker_id
        self.generation = generation


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _make_checker(config: Dict):
    from ..algorithms.online import checker_for

    return checker_for(
        int(config["k"]), algorithm=str(config.get("algorithm", "auto"))
    )


def _close_inherited_fds(keep: Sequence[int]) -> None:
    """Close every descriptor a forked worker inherited except ``keep``.

    A ``fork`` start leaves the child holding duplicates of every parent
    descriptor — listening sockets and *established connections* included.
    A worker respawned mid-serving would then keep the parent's closed TCP
    connections half-alive (the kernel only sends FIN once the last copy
    closes), so a peer blocked on ``read`` never sees the disconnect.  The
    worker talks exclusively over its pipe: everything else gets closed.
    """
    keep_fds = set(keep) | {0, 1, 2}
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no procfs (spawn ctx: nothing leaks)
        return
    for fd in fds:
        if fd in keep_fds:
            continue
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed / listdir's own fd
            pass


def _worker_main(conn, worker_id: int) -> None:
    """Entry point of one pool worker process.

    A single-threaded request loop over a duplex pipe: requests arrive as
    pickled ``(request_id, command, *args)`` tuples and are answered with
    ``(request_id, ok, payload)``.  One worker owns each of its shards
    exclusively, so there is no locking anywhere — the request order *is* the
    feed order.
    """
    _close_inherited_fds([conn.fileno()])
    # The serving parent handles SIGINT/SIGTERM itself (graceful drain);
    # workers must not die out from under it when a Ctrl-C hits the group.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    from ..algorithms.online import restore_checker

    checkers: Dict[Tuple, object] = {}

    def handle(command: str, args: tuple):
        if command == "feed":
            entries, blobs = args
            replies = []
            for (shard_id, mode, config, want_snapshot), blob in zip(entries, blobs):
                ((_key, ops),) = decode_feed_batches(blob)
                checker = checkers.get(shard_id)
                if checker is None:
                    if config is None:
                        raise ServiceError(
                            f"worker {worker_id} has no checker for shard "
                            f"{shard_id!r} and no config to create one"
                        )
                    checker = checkers[shard_id] = _make_checker(config)
                for op in ops:
                    checker.feed(op)
                if mode == "check":
                    verdict = checker.check_now()
                elif mode == "peek":
                    verdict = checker.peek()
                else:  # "none": replay path, no verdict needed
                    verdict = None
                replies.append(
                    (verdict, checker.snapshot() if want_snapshot else None)
                )
            return replies
        if command == "finish":
            (shard_ids,) = args
            results = []
            for shard_id in shard_ids:
                checker = checkers.pop(shard_id, None)
                if checker is None:
                    raise ServiceError(
                        f"worker {worker_id} has no checker for shard {shard_id!r}"
                    )
                results.append(checker.finish())
            return results
        if command == "snapshot":
            (shard_ids,) = args
            return [checkers[shard_id].snapshot() for shard_id in shard_ids]
        if command == "restore":
            (entries,) = args
            restored = 0
            for shard_id, config, state, replay_blobs in entries:
                if state is None:
                    checker = _make_checker(config)
                else:
                    checker = restore_checker(state)
                for blob, mode in replay_blobs:
                    for _key, ops in decode_feed_batches(blob):
                        for op in ops:
                            checker.feed(op)
                        # Re-issue the original per-window check call: the
                        # cadence counters it advances are part of checker
                        # state, and state identity is what makes the resumed
                        # verdict stream equal an uninterrupted one.
                        if mode == "check":
                            checker.check_now()
                        elif mode == "peek":
                            checker.peek()
                checkers[shard_id] = checker
                restored += 1
            return restored
        if command == "drop":
            (shard_ids,) = args
            for shard_id in shard_ids:
                checkers.pop(shard_id, None)
            return len(checkers)
        if command == "ping":
            return ("pong", os.getpid(), len(checkers))
        raise ServiceError(f"unknown worker command {command!r}")

    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent went away: exit quietly
        request_id, command, *args = pickle.loads(message)
        if command == "stop":
            try:
                conn.send_bytes(
                    pickle.dumps((request_id, True, None), pickle.HIGHEST_PROTOCOL)
                )
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            payload = (request_id, True, handle(command, tuple(args)))
        except ReproError as exc:
            payload = (request_id, False, str(exc))
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            payload = (request_id, False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send_bytes(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side view of one worker process.

    Owns the duplex pipe, a blocking reader thread that resolves response
    futures back on the event loop, and the per-worker traffic counters.  A
    respawned replacement is a *new* handle under the same worker id with
    ``generation + 1``.
    """

    def __init__(self, worker_id: int, generation: int, ctx, loop):
        self.worker_id = worker_id
        self.generation = generation
        self._loop = loop
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id),
            name=f"repro-audit-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent's copy; the child keeps its own
        self.ready = asyncio.Event()
        self.dead = False
        self.stopping = False
        self._futures: Dict[int, asyncio.Future] = {}
        self._request_counter = 0
        self._send_lock = asyncio.Lock()
        self.on_death = None  # set by the pool before first use
        self.batches = 0
        self.ops = 0
        self.snapshots = 0
        self.restored_shards = 0
        self._reader = threading.Thread(
            target=self._read_loop, name=f"audit-pool-reader-{worker_id}", daemon=True
        )
        self._reader.start()

    # -- reader thread --------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                blob = self.conn.recv_bytes()
                self._loop.call_soon_threadsafe(self._dispatch, blob)
        except (EOFError, OSError):
            pass
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            self._loop.call_soon_threadsafe(self._mark_dead)
        except RuntimeError:  # loop already closed (interpreter shutdown)
            pass

    # -- event-loop side ------------------------------------------------
    def _dispatch(self, blob: bytes) -> None:
        request_id, ok, payload = pickle.loads(blob)
        future = self._futures.pop(request_id, None)
        if future is None or future.done():
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(ServiceError(payload))

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        self.ready.clear()
        for future in self._futures.values():
            if not future.done():
                future.set_exception(
                    _WorkerDied(self.worker_id, self.generation)
                )
        self._futures.clear()
        if self.on_death is not None and not self.stopping:
            self.on_death(self.worker_id, self.generation)

    async def request(self, command: str, *args):
        """Send one request and await its reply (raises ``_WorkerDied``)."""
        if self.dead:
            raise _WorkerDied(self.worker_id, self.generation)
        self._request_counter += 1
        request_id = self._request_counter
        future = self._loop.create_future()
        self._futures[request_id] = future
        blob = pickle.dumps(
            (request_id, command, *args), pickle.HIGHEST_PROTOCOL
        )
        async with self._send_lock:
            try:
                # The pipe write can block when the kernel buffer is full, so
                # it runs off the loop; the per-handle lock keeps frames whole.
                await asyncio.to_thread(self.conn.send_bytes, blob)
            except (BrokenPipeError, OSError):
                self._futures.pop(request_id, None)
                self._mark_dead()
                raise _WorkerDied(self.worker_id, self.generation) from None
        return await future

    async def stop(self, timeout: float = 2.0) -> None:
        """Orderly shutdown: ask, wait briefly, then kill."""
        self.stopping = True
        if not self.dead:
            try:
                await asyncio.wait_for(self.request("stop"), timeout)
            except (ServiceError, _WorkerDied, asyncio.TimeoutError):
                pass
        await asyncio.to_thread(self.process.join, timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            await asyncio.to_thread(self.process.join, timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass


#: State-store namespaces of the journalled worker-pool failover state.
POOL_SNAP_NAMESPACE = "pool-snap"
POOL_LOG_NAMESPACE = "pool-log"


class _ReplayLog:
    """The feed batches logged since a shard's last snapshot.

    List-shaped (``append``/``clear``/``bool``/iteration — all the pool
    uses); with a journal attached, entries live in the ``pool-log``
    namespace of the state store instead of parent memory and are loaded
    back only when failover or resize actually replays them.
    """

    __slots__ = ("_journal", "_prefix", "_entries", "_count")

    def __init__(self, journal, prefix: str):
        self._journal = journal
        self._prefix = prefix
        self._entries: Optional[List[Tuple[bytes, str]]] = (
            [] if journal is None else None
        )
        self._count = 0

    def _key(self, index: int) -> str:
        return f"{self._prefix}:{index:08d}"

    def append(self, entry: Tuple[bytes, str]) -> None:
        if self._journal is None:
            self._entries.append(entry)
        else:
            self._journal.put(
                POOL_LOG_NAMESPACE,
                self._key(self._count),
                pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
                durable=False,
            )
        self._count += 1

    def clear(self) -> None:
        if self._journal is None:
            self._entries.clear()
        else:
            for index in range(self._count):
                self._journal.delete(POOL_LOG_NAMESPACE, self._key(index))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self):
        if self._journal is None:
            return iter(list(self._entries))
        return iter(
            [
                pickle.loads(self._journal.get(POOL_LOG_NAMESPACE, self._key(i)))
                for i in range(self._count)
            ]
        )


class _ShardState:
    """What the parent remembers about one shard, for failover and resize.

    With a journal (a :class:`repro.state.StateStore`), the snapshot blob
    and replay log are persisted there rather than held in parent memory;
    the hot path only ever touches the cheap ``has_snapshot`` flag and the
    replay count.
    """

    __slots__ = (
        "session_id",
        "key",
        "config",
        "replay",
        "since_snapshot",
        "_journal",
        "_journal_key",
        "_snapshot",
        "_has_snapshot",
    )

    def __init__(self, session_id: str, key: Hashable, config: Dict, journal=None):
        self.session_id = session_id
        self.key = key
        self.config = config
        self._journal = journal
        # \x1f (unit separator) cannot collide with ':'-indexed log keys.
        self._journal_key = f"{session_id}\x1f{key!r}"
        self._snapshot: Optional[Dict] = None  # in-memory copy (no journal)
        self._has_snapshot = False
        self.replay = _ReplayLog(journal, self._journal_key)
        self.since_snapshot = 0

    @property
    def has_snapshot(self) -> bool:
        """Cheap presence test — never loads the journalled blob."""
        if self._journal is None:
            return self._snapshot is not None
        return self._has_snapshot

    @property
    def snapshot(self) -> Optional[Dict]:
        if self._journal is None:
            return self._snapshot
        if not self._has_snapshot:
            return None
        return pickle.loads(
            self._journal.get(POOL_SNAP_NAMESPACE, self._journal_key)
        )

    @snapshot.setter
    def snapshot(self, value: Optional[Dict]) -> None:
        if self._journal is None:
            self._snapshot = value
            return
        if value is None:
            self._journal.delete(POOL_SNAP_NAMESPACE, self._journal_key)
            self._has_snapshot = False
        else:
            self._journal.put(
                POOL_SNAP_NAMESPACE,
                self._journal_key,
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                durable=False,
            )
            self._has_snapshot = True

    def discard_journal(self) -> None:
        """Drop journalled state when the shard is retired."""
        if self._journal is not None:
            self._journal.delete(POOL_SNAP_NAMESPACE, self._journal_key)
            self.replay.clear()


class WorkerPool:
    """A pool of long-lived checker processes fed by the audit event loop.

    Parameters
    ----------
    size:
        Number of worker processes.
    snapshot_every:
        Piggyback a checker snapshot on a feed every N windows per shard
        (bounds the failover replay log; ``0`` disables piggybacking, leaving
        the replay log to grow until a session checkpoint resets it).
    replicas:
        Ring points per worker for the consistent-hash router.
    mp_context:
        ``multiprocessing`` start-method name (default: ``fork`` where
        available, else ``spawn``).
    crash_loop_threshold, crash_loop_window_s:
        Crash-loop breaker: after ``crash_loop_threshold`` respawns of one
        worker id within ``crash_loop_window_s`` seconds, the pool stops
        respawning it and every request routed there raises
        :class:`~repro.core.errors.WorkerCrashLoopError` — a deterministic
        crasher (poisoned input, broken native lib) must surface as a typed
        error on the affected shards, not as an infinite respawn spin that
        also starves healthy sessions.  Respawns inside the window back off
        exponentially.  ``crash_loop_threshold=0`` disables the breaker.
    journal:
        Optional :class:`repro.state.StateStore`: per-shard failover
        snapshots and replay logs are persisted there (``pool-snap`` /
        ``pool-log`` namespaces) instead of parent memory, read back only
        on failover or resize.  Stale journal entries from a previous run
        are swept at :meth:`start`.

    The pool is asyncio-native: create it on the event loop that will use it
    and ``await`` :meth:`start` before the first feed.
    """

    def __init__(
        self,
        size: int,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        replicas: Optional[int] = None,
        mp_context: Optional[str] = None,
        crash_loop_threshold: int = DEFAULT_CRASH_LOOP_THRESHOLD,
        crash_loop_window_s: float = DEFAULT_CRASH_LOOP_WINDOW_S,
        journal=None,
    ):
        from .routing import DEFAULT_REPLICAS, HashRing

        if size < 1:
            raise ServiceError(f"worker pool size must be >= 1, got {size!r}")
        if snapshot_every < 0:
            raise ServiceError(
                f"snapshot_every must be >= 0, got {snapshot_every!r}"
            )
        self.size = size
        self.snapshot_every = snapshot_every
        #: Optional :class:`repro.state.StateStore` holding the failover
        #: snapshots and replay logs instead of parent memory.
        self.journal = journal
        self.replicas = replicas if replicas is not None else DEFAULT_REPLICAS
        self._ring_class = HashRing
        self._ctx = (
            multiprocessing.get_context(mp_context)
            if mp_context is not None
            else _default_context()
        )
        self._workers: Dict[int, _WorkerHandle] = {}
        self._ring = None
        self._shards: Dict[Tuple, _ShardState] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._stopping = False
        self._recoveries: Dict[int, asyncio.Task] = {}
        self._resize_lock = asyncio.Lock()
        self._resizing: Optional[asyncio.Future] = None
        self._active_feeds = 0
        self._feeds_idle: Optional[asyncio.Event] = None
        self._restarts = 0
        if crash_loop_threshold < 0:
            raise ServiceError(
                f"crash_loop_threshold must be >= 0, got {crash_loop_threshold!r}"
            )
        if crash_loop_window_s <= 0:
            raise ServiceError(
                f"crash_loop_window_s must be positive, got {crash_loop_window_s!r}"
            )
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window_s = crash_loop_window_s
        #: Recent respawn times per worker id (pruned to the breaker window).
        self._respawn_times: Dict[int, List[float]] = {}
        #: Worker ids the breaker tripped on: never respawned, always raise.
        self._crash_looping: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker processes and build the routing ring."""
        if self._started:
            raise ServiceError("worker pool already started")
        if self.journal is not None:
            # Failover state is only meaningful within one parent process:
            # sweep whatever a previous (crashed) run left in the store.
            for namespace in (POOL_SNAP_NAMESPACE, POOL_LOG_NAMESPACE):
                for key in self.journal.keys(namespace):
                    self.journal.delete(namespace, key)
        self._loop = asyncio.get_running_loop()
        self._feeds_idle = asyncio.Event()
        self._feeds_idle.set()
        for worker_id in range(self.size):
            self._spawn(worker_id, generation=0)
        self._ring = self._ring_class(range(self.size), replicas=self.replicas)
        self._started = True
        # One ping per worker: surfaces a worker that died on arrival now,
        # not on the first session's first window.
        await asyncio.gather(
            *(handle.request("ping") for handle in self._workers.values())
        )

    async def stop(self) -> None:
        """Stop every worker process (shards and their state are dropped)."""
        self._stopping = True
        for task in list(self._recoveries.values()):
            task.cancel()
        if self._recoveries:
            await asyncio.gather(*self._recoveries.values(), return_exceptions=True)
        self._recoveries.clear()
        await asyncio.gather(
            *(handle.stop() for handle in self._workers.values()),
            return_exceptions=True,
        )
        for state in self._shards.values():
            state.discard_journal()
        self._workers.clear()
        self._shards.clear()

    def _spawn(self, worker_id: int, generation: int) -> _WorkerHandle:
        handle = _WorkerHandle(worker_id, generation, self._ctx, self._loop)
        handle.on_death = self._on_worker_death
        handle.ready.set()
        self._workers[worker_id] = handle
        return handle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_pids(self) -> Dict[int, int]:
        """Live worker process ids by worker id (tests kill through this)."""
        return {
            worker_id: handle.process.pid
            for worker_id, handle in self._workers.items()
            if handle.process.pid is not None
        }

    def home_of(self, session_id: str, key: Hashable) -> int:
        """The worker id a shard routes to under the current ring."""
        return self._ring.route((session_id, key))

    def shard_count(self) -> int:
        """Shards currently registered across all sessions."""
        return len(self._shards)

    def worker_stats(self) -> Tuple[WorkerStats, ...]:
        """One :class:`WorkerStats` row per worker, in worker-id order."""
        owned: Dict[int, int] = {worker_id: 0 for worker_id in self._workers}
        if self._ring is not None:
            for shard_id in self._shards:
                home = self._ring.route(shard_id)
                if home in owned:
                    owned[home] += 1
        return tuple(
            WorkerStats(
                worker_id=worker_id,
                pid=handle.process.pid,
                alive=not handle.dead and handle.process.is_alive(),
                shards=owned.get(worker_id, 0),
                batches=handle.batches,
                ops=handle.ops,
                snapshots=handle.snapshots,
                restarts=handle.generation,
                restored_shards=handle.restored_shards,
            )
            for worker_id, handle in sorted(self._workers.items())
        )

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    async def feed_window(
        self,
        session_id: str,
        batches: Sequence[Tuple[Hashable, Sequence[Operation]]],
        *,
        mode: str = "check",
        modes: Optional[Dict[Hashable, str]] = None,
        config: Optional[Dict] = None,
    ) -> Dict[Hashable, object]:
        """Feed one closed window's per-register batches; return verdicts.

        ``batches`` holds ``(register_key, ops-in-stream-order)`` pairs for
        every register the window touched; ``config`` is the checker
        configuration for shards this call sees first.  Batches ship to their
        home workers concurrently; worker death mid-call triggers transparent
        failover and a retry, so the caller only ever sees complete windows.

        ``modes`` overrides ``mode`` per register key.  The pooled tier path
        uses it for per-shard escalation: only the shards the parent's tier
        state flags pay the authoritative ``check_now``, the rest answer with
        the O(1) ``peek``.  Per-key modes are journalled with their batches,
        so failover replay re-issues the original cadence per shard.
        """
        if not self._started:
            raise ServiceError("worker pool is not started")
        await self._feed_gate()
        try:
            by_worker: Dict[int, List[Tuple[Hashable, Sequence[Operation]]]] = {}
            for key, ops in batches:
                shard_id = (session_id, key)
                if shard_id not in self._shards:
                    if config is None:
                        raise ServiceError(
                            f"shard {shard_id!r} is new but no checker config "
                            "was provided"
                        )
                    self._shards[shard_id] = _ShardState(
                        session_id, key, dict(config), journal=self.journal
                    )
                home = self._ring.route(shard_id)
                by_worker.setdefault(home, []).append((key, ops))
            results = await asyncio.gather(
                *(
                    self._feed_worker(
                        worker_id, session_id, worker_batches, mode, modes
                    )
                    for worker_id, worker_batches in by_worker.items()
                )
            )
        finally:
            self._feed_done()
        verdicts: Dict[Hashable, object] = {}
        for chunk in results:
            verdicts.update(chunk)
        return verdicts

    async def _feed_worker(
        self,
        worker_id: int,
        session_id: str,
        batches: List[Tuple[Hashable, Sequence[Operation]]],
        mode: str,
        modes: Optional[Dict[Hashable, str]] = None,
    ) -> Dict[Hashable, object]:
        entries = []
        # One blob per shard, encoded once: the request carries them all,
        # and the replay log keeps each alone — failover replays per shard,
        # to possibly different new homes.
        blobs = [encode_feed_batches([batch]) for batch in batches]
        for key, ops in batches:
            shard_id = (session_id, key)
            state = self._shards[shard_id]
            fresh = not state.has_snapshot and not state.replay
            want_snapshot = (
                self.snapshot_every > 0
                and state.since_snapshot + 1 >= self.snapshot_every
            )
            key_mode = mode if modes is None else modes.get(key, mode)
            entries.append(
                (shard_id, key_mode, state.config if fresh else None, want_snapshot)
            )
        replies = await self._request_with_failover(
            worker_id, "feed", entries, blobs
        )
        handle = self._workers[worker_id]
        handle.batches += len(batches)
        handle.ops += sum(len(ops) for _key, ops in batches)
        verdicts: Dict[Hashable, object] = {}
        for (key, _ops), blob, (shard_id, key_mode, _config, _want), (
            verdict, snapshot
        ) in zip(batches, blobs, entries, replies):
            state = self._shards[shard_id]
            if snapshot is not None:
                state.snapshot = snapshot
                state.replay.clear()
                state.since_snapshot = 0
                handle.snapshots += 1
            else:
                # The shard's own mode is what replay must re-issue — state
                # identity depends on the check cadence.
                state.replay.append((blob, key_mode))
                state.since_snapshot += 1
            verdicts[key] = verdict
        return verdicts

    async def _request_with_failover(self, worker_id: int, command: str, *args):
        """Issue a request, riding out worker deaths via respawn + replay."""
        for _attempt in range(_MAX_ATTEMPTS):
            handle = await self._ready_handle(worker_id)
            try:
                return await handle.request(command, *args)
            except _WorkerDied:
                continue  # the death callback respawns; wait and retry
        raise ServiceError(
            f"worker {worker_id} keeps dying; giving up after "
            f"{_MAX_ATTEMPTS} attempts"
        )

    async def _ready_handle(self, worker_id: int) -> _WorkerHandle:
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        while True:
            if worker_id in self._crash_looping:
                raise WorkerCrashLoopError(
                    f"worker {worker_id} crash-looped "
                    f"({self.crash_loop_threshold} respawns within "
                    f"{self.crash_loop_window_s:.0f}s); its shards are "
                    "unavailable until the pool is resized or restarted"
                )
            handle = self._workers.get(worker_id)
            if handle is None:
                raise ServiceError(f"no worker {worker_id} in the pool")
            if not handle.dead and handle.ready.is_set():
                return handle
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"worker {worker_id} did not recover within "
                    f"{RECOVERY_TIMEOUT_S:.0f}s"
                )
            try:
                await asyncio.wait_for(handle.ready.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                continue

    async def _feed_gate(self) -> None:
        while self._resizing is not None:
            await self._resizing
        self._active_feeds += 1
        self._feeds_idle.clear()

    def _feed_done(self) -> None:
        self._active_feeds -= 1
        if self._active_feeds == 0:
            self._feeds_idle.set()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _on_worker_death(self, worker_id: int, generation: int) -> None:
        if self._stopping:
            return
        current = self._workers.get(worker_id)
        if current is None or current.generation != generation:
            return  # already replaced
        if worker_id in self._recoveries:
            return
        task = self._loop.create_task(self._recover(worker_id, generation))
        self._recoveries[worker_id] = task
        task.add_done_callback(lambda _t: self._recoveries.pop(worker_id, None))

    async def _recover(self, worker_id: int, dead_generation: int) -> None:
        """Respawn a dead worker and rebuild every shard it homed."""
        old = self._workers.get(worker_id)
        if old is None or old.generation != dead_generation:
            return
        # Crash-loop breaker: count respawns inside the sliding window and
        # back off exponentially between them; past the threshold, stop
        # respawning and let _ready_handle fail this worker's shards typed.
        now = time.monotonic()
        recent = self._respawn_times.setdefault(worker_id, [])
        recent[:] = [t for t in recent if now - t <= self.crash_loop_window_s]
        if self.crash_loop_threshold and len(recent) >= self.crash_loop_threshold:
            self._crash_looping.add(worker_id)
            old.ready.set()  # wake parked feeders so they observe the verdict
            return
        recent.append(now)
        if len(recent) > 1:
            await asyncio.sleep(
                min(
                    _RESPAWN_BACKOFF_BASE_S * 2 ** (len(recent) - 2),
                    _RESPAWN_BACKOFF_CAP_S,
                )
            )
        self._restarts += 1
        handle = self._spawn(worker_id, generation=dead_generation + 1)
        handle.ready.clear()  # hold feeds until the shards are rebuilt
        old.ready.set()  # feeders parked on the dead handle move to this one
        try:
            entries = []
            for shard_id, state in self._shards.items():
                if self._ring.route(shard_id) != worker_id:
                    continue
                entries.append(
                    (shard_id, state.config, state.snapshot, list(state.replay))
                )
            if entries:
                restored = await handle.request("restore", entries)
                handle.restored_shards += restored
        except _WorkerDied:
            # The replacement died during restore; its own death callback
            # will start the next recovery round.
            return
        finally:
            handle.ready.set()

    # ------------------------------------------------------------------
    # Resizing
    # ------------------------------------------------------------------
    async def resize(self, new_size: int) -> int:
        """Grow or shrink the pool; returns the number of migrated shards.

        Feeds are quiesced for the duration (windows already in flight
        complete first), moved shards are migrated snapshot-first — from the
        old home when it is alive, from the parent's snapshot+replay copy
        when it is not — and the ring swap is atomic from the feeders'
        point of view.
        """
        if new_size < 1:
            raise ServiceError(f"worker pool size must be >= 1, got {new_size!r}")
        if not self._started:
            raise ServiceError("worker pool is not started")
        async with self._resize_lock:
            if new_size == self.size and not self._crash_looping:
                return 0
            # Gate new feeds, then wait out the in-flight ones.
            self._resizing = self._loop.create_future()
            try:
                await self._feeds_idle.wait()
                old_ring = self._ring
                new_ids = list(range(new_size))
                for worker_id in new_ids:
                    existing = self._workers.get(worker_id)
                    if existing is None:
                        self._spawn(worker_id, generation=0)
                    elif worker_id in self._crash_looping:
                        # A resize is the operator's reset lever: a worker id
                        # the breaker gave up on gets a clean slate — a fresh
                        # process rebuilt from the parent's shard copies.
                        self._crash_looping.discard(worker_id)
                        self._respawn_times.pop(worker_id, None)
                        handle = self._spawn(
                            worker_id, generation=existing.generation + 1
                        )
                        entries = [
                            (shard_id, state.config, state.snapshot,
                             list(state.replay))
                            for shard_id, state in self._shards.items()
                            if old_ring.route(shard_id) == worker_id
                        ]
                        if entries:
                            restored = await handle.request("restore", entries)
                            handle.restored_shards += restored
                new_ring = old_ring.resized(new_ids)
                moved = [
                    shard_id
                    for shard_id in self._shards
                    if old_ring.route(shard_id) != new_ring.route(shard_id)
                ]
                # Pull authoritative snapshots from the old homes first...
                restores: Dict[int, List] = {}
                drops: Dict[int, List] = {}
                for shard_id in moved:
                    state = self._shards[shard_id]
                    old_home = old_ring.route(shard_id)
                    new_home = new_ring.route(shard_id)
                    replay: List[Tuple[bytes, str]] = []
                    old_handle = self._workers.get(old_home)
                    snapshot = None
                    if old_handle is not None and not old_handle.dead:
                        try:
                            (snapshot,) = await old_handle.request(
                                "snapshot", [shard_id]
                            )
                        except (_WorkerDied, ServiceError):
                            snapshot = None
                    if snapshot is None:
                        # Old home unavailable: rebuild from the parent copy.
                        snapshot = state.snapshot
                        replay = list(state.replay)
                    else:
                        state.snapshot = snapshot
                        state.replay.clear()
                        state.since_snapshot = 0
                    restores.setdefault(new_home, []).append(
                        (shard_id, state.config, snapshot, replay)
                    )
                    drops.setdefault(old_home, []).append(shard_id)
                # ...then install them on the new homes and drop the old copies.
                for new_home, entries in restores.items():
                    handle = self._workers[new_home]
                    restored = await handle.request("restore", entries)
                    handle.restored_shards += restored
                for old_home, shard_ids in drops.items():
                    old_handle = self._workers.get(old_home)
                    if old_handle is not None and not old_handle.dead:
                        try:
                            await old_handle.request("drop", shard_ids)
                        except (_WorkerDied, ServiceError):
                            pass
                self._ring = new_ring
                self.size = new_size
                # Retire surplus workers only after the ring swap.
                for worker_id in [w for w in self._workers if w >= new_size]:
                    handle = self._workers.pop(worker_id)
                    await handle.stop()
                return len(moved)
            finally:
                resizing = self._resizing
                self._resizing = None
                resizing.set_result(None)

    # ------------------------------------------------------------------
    # Session-scoped operations
    # ------------------------------------------------------------------
    def _session_shards(self, session_id: str, keys: Sequence[Hashable]):
        by_worker: Dict[int, List[Tuple]] = {}
        for key in keys:
            shard_id = (session_id, key)
            by_worker.setdefault(self._ring.route(shard_id), []).append(shard_id)
        return by_worker

    async def finish_session(
        self, session_id: str, keys: Sequence[Hashable]
    ) -> Dict[Hashable, object]:
        """Finish every shard of a session; returns final per-register results."""
        by_worker = self._session_shards(session_id, keys)

        async def finish_on(worker_id: int, shard_ids: List[Tuple]):
            results = await self._request_with_failover(
                worker_id, "finish", shard_ids
            )
            return zip(shard_ids, results)

        gathered = await asyncio.gather(
            *(finish_on(w, ids) for w, ids in by_worker.items())
        )
        results: Dict[Hashable, object] = {}
        for chunk in gathered:
            for (session, key), result in chunk:
                results[key] = result
                retired = self._shards.pop((session, key), None)
                if retired is not None:
                    retired.discard_journal()
        return results

    async def snapshot_session(
        self, session_id: str, keys: Sequence[Hashable]
    ) -> List[Tuple[Hashable, Dict]]:
        """Fresh checker snapshots for every shard of a session, in key order.

        Doubles as a replay-log reset: the returned snapshots become the
        shards' failover baselines.
        """
        by_worker = self._session_shards(session_id, keys)

        async def snap_on(worker_id: int, shard_ids: List[Tuple]):
            states = await self._request_with_failover(
                worker_id, "snapshot", shard_ids
            )
            return zip(shard_ids, states)

        gathered = await asyncio.gather(
            *(snap_on(w, ids) for w, ids in by_worker.items())
        )
        by_key: Dict[Hashable, Dict] = {}
        for chunk in gathered:
            for (session, key), checker_state in chunk:
                by_key[key] = checker_state
                state = self._shards.get((session, key))
                if state is not None:
                    state.snapshot = checker_state
                    state.replay.clear()
                    state.since_snapshot = 0
        return [(key, by_key[key]) for key in keys]

    async def restore_session(
        self,
        session_id: str,
        entries: Sequence[Tuple[Hashable, Dict]],
        config: Dict,
    ) -> None:
        """Install checkpointed checker states for a resumed session."""
        by_worker: Dict[int, List] = {}
        for key, checker_state in entries:
            shard_id = (session_id, key)
            state = _ShardState(session_id, key, dict(config), journal=self.journal)
            state.snapshot = checker_state
            self._shards[shard_id] = state
            by_worker.setdefault(self._ring.route(shard_id), []).append(
                (shard_id, state.config, checker_state, [])
            )
        for worker_id, worker_entries in by_worker.items():
            restored = await self._request_with_failover(
                worker_id, "restore", worker_entries
            )
            self._workers[worker_id].restored_shards += restored

    async def drop_session(self, session_id: str, keys: Sequence[Hashable]) -> None:
        """Discard a session's shards (disconnect without ``end``)."""
        by_worker = self._session_shards(session_id, keys)
        for key in keys:
            retired = self._shards.pop((session_id, key), None)
            if retired is not None:
                retired.discard_journal()
        for worker_id, shard_ids in by_worker.items():
            handle = self._workers.get(worker_id)
            if handle is None or handle.dead:
                continue
            try:
                await handle.request("drop", shard_ids)
            except (_WorkerDied, ServiceError):
                pass


# ----------------------------------------------------------------------
# Pooled sessions
# ----------------------------------------------------------------------
class PooledStreamSession:
    """The pool-backed twin of :class:`~repro.engine.streaming.StreamSession`.

    Same contract — push operations, get a :class:`WindowReport` per closed
    window, :meth:`finish` for the batch-equal final report, checkpoint via
    :meth:`snapshot`/:meth:`restore` — but the checkers live on pool workers
    and the feed/finish/snapshot paths are coroutines.  Snapshots use the
    exact schema of the in-process ``StreamSession``, so a checkpoint written
    by a pooled server resumes on a single-process one and vice versa.

    With a tiered :class:`SessionConfig` the parent keeps the
    :class:`~repro.engine.tiering.TierStreamState` and routes each window's
    shards individually: escalated shards are fed in ``check`` mode, the
    rest in ``peek`` — so only hot shards pay the authoritative per-window
    re-check, and a worker owning cold shards does O(1) work per window.
    Soundness is inherited from the worker protocol: a NO a ``peek`` missed
    is latched inside the checker and surfaces on the next ``peek``, and
    :meth:`finish` always runs every checker's authoritative ``finish``.
    """

    def __init__(self, pool: WorkerPool, session_id: str, config: SessionConfig):
        self.pool = pool
        self.session_id = session_id
        self.config = config
        self.k = config.k
        self._tier_policy = get_tier_policy(config.tier)
        self._tier_name = (
            self._tier_policy.name if self._tier_policy is not None else "exact"
        )
        self._tier_state = (
            TierStreamState(self._tier_policy, config.k)
            if self._tier_policy is not None
            else None
        )
        self._window_policy = config.window_policy()
        self._assembler = WindowAssembler(self._window_policy)
        self._key_order: List[Hashable] = []
        self._known_keys = set()
        self._timeline: List[WindowReport] = []
        self._ops_fed = 0
        self._elapsed_prior = 0.0
        self._t0 = time.perf_counter()
        self._finished = False

    # -- properties mirroring StreamSession -----------------------------
    @property
    def ops_fed(self) -> int:
        return self._ops_fed

    @property
    def num_windows(self) -> int:
        return len(self._timeline)

    @property
    def num_registers(self) -> int:
        return len(self._key_order)

    @property
    def timeline(self) -> Tuple[WindowReport, ...]:
        return tuple(self._timeline)

    @property
    def finished(self) -> bool:
        return self._finished

    def _checker_config(self) -> Dict:
        return {"k": self.config.k, "algorithm": self.config.algorithm}

    # -- feeding ---------------------------------------------------------
    async def feed(self, op: Operation) -> Optional[WindowReport]:
        """Ingest one operation; awaits the pool when a window closes."""
        if self._finished:
            raise VerificationError(
                "session already finished; open a new session for a new stream"
            )
        self._ops_fed += 1
        window = self._assembler.feed(op)
        if window is None:
            return None
        return await self._handle(window)

    async def _handle(self, window: Window) -> WindowReport:
        t0 = time.perf_counter()
        by_key: Dict[Hashable, List[Operation]] = {}
        for op in window.fresh_ops:
            by_key.setdefault(op.key, []).append(op)
        for key in by_key:
            if key not in self._known_keys:
                self._known_keys.add(key)
                self._key_order.append(key)
        tiers: Dict[Hashable, str] = {}
        escalations: Dict[Hashable, Tuple[str, ...]] = {}
        modes: Optional[Dict[Hashable, str]] = None
        if self._tier_state is not None:
            # Parent-side routing: decide per shard before the batches ship.
            # There is no free checker peek on this side of the pipe, so the
            # checker-alarm trigger rides on verdicts already seen — a NO
            # returned by an earlier window's peek latches via note_verdict
            # below and escalates this shard from here on.
            modes = {}
            for key, register_ops in by_key.items():
                key_mode, triggers = self._tier_state.decide(key, register_ops)
                modes[key] = key_mode
                tiers[key] = key_mode
                if triggers:
                    escalations[key] = tuple(triggers)
        verdicts = await self.pool.feed_window(
            self.session_id,
            list(by_key.items()),
            mode="check",
            modes=modes,
            config=self._checker_config(),
        )
        ordered = {key: verdicts[key] for key in by_key if key in verdicts}
        if self._tier_state is not None:
            for key, verdict in ordered.items():
                if verdict is not None:
                    self._tier_state.note_verdict(key, verdict.result.is_k_atomic)
        report = WindowReport(
            stats=WindowStats(
                index=window.index,
                num_ops=window.num_fresh,
                num_registers=len(by_key),
                t_low=window.t_low,
                t_high=window.t_high,
                elapsed_s=time.perf_counter() - t0,
            ),
            verdicts=ordered,
            tiers=tiers,
            escalations=escalations,
        )
        self._timeline.append(report)
        return report

    async def finish(self) -> StreamVerificationReport:
        """Seal the stream; final verdicts equal batch verification exactly."""
        if self._finished:
            raise VerificationError("session already finished")
        tail = self._assembler.flush()
        if tail is not None:
            await self._handle(tail)
        self._finished = True
        results = await self.pool.finish_session(self.session_id, self._key_order)
        return StreamVerificationReport(
            k=self.k,
            mode="rolling",
            window=self._window_policy.describe(),
            results={key: results[key] for key in self._key_order},
            timeline=tuple(self._timeline),
            executor="pool",
            jobs=self.pool.size,
            elapsed_s=self._elapsed(),
            tier=self._tier_name,
        )

    # -- checkpointing ---------------------------------------------------
    async def snapshot(self) -> Dict:
        """Capture the session in ``StreamSession.snapshot`` schema."""
        checkers = await self.pool.snapshot_session(self.session_id, self._key_order)
        state = {
            "k": self.k,
            "algorithm": self.config.algorithm,
            "window": (
                self._window_policy.mode,
                self._window_policy.size,
                self._window_policy.overlap,
            ),
            "assembler": self._assembler.snapshot(),
            "checkers": list(checkers),
            "timeline": list(self._timeline),
            "ops_fed": self._ops_fed,
            "elapsed_s": self._elapsed(),
            "finished": self._finished,
        }
        if self._tier_state is not None:
            # Same conditional key as StreamSession.snapshot: default
            # checkpoints stay byte-identical to pre-tiering payloads.
            state["tier"] = self._tier_state.snapshot()
        return state

    async def restore(self, state: Dict) -> None:
        """Rehydrate a :meth:`snapshot` (or in-process ``StreamSession``) state."""
        if state["k"] != self.k:
            raise VerificationError(
                f"snapshot verifies k={state['k']}; this session is for k={self.k}"
            )
        if state["algorithm"] != self.config.algorithm:
            raise VerificationError(
                f"snapshot used algorithm={state['algorithm']!r}; this session "
                f"is configured with {self.config.algorithm!r}"
            )
        self._assembler.restore(state["assembler"])
        if self._tier_policy is not None:
            # A pre-tiering (or untiered) snapshot restarts the escalation
            # state — conservative (extra checks), never unsound.
            self._tier_state = (
                TierStreamState.restore(self._tier_policy, state["tier"])
                if "tier" in state
                else TierStreamState(self._tier_policy, self.k)
            )
        self._key_order = [key for key, _state in state["checkers"]]
        self._known_keys = set(self._key_order)
        self._timeline = list(state["timeline"])
        self._ops_fed = state["ops_fed"]
        self._elapsed_prior = state["elapsed_s"]
        self._t0 = time.perf_counter()
        self._finished = state["finished"]
        await self.pool.restore_session(
            self.session_id, state["checkers"], self._checker_config()
        )
        # Buffered (not-yet-fed) operations carry foreign ids; fresh decoder
        # ids in this process must never collide with them.
        ensure_op_ids_above(
            max((op.op_id for op in state["assembler"]["buffer"]), default=-1)
        )

    async def close(self) -> None:
        """Drop this session's worker-side state (abandoned stream)."""
        if not self._finished and self._key_order:
            await self.pool.drop_session(self.session_id, self._key_order)

    def _elapsed(self) -> float:
        return self._elapsed_prior + (time.perf_counter() - self._t0)


class PooledAuditSession(AuditSession):
    """An :class:`AuditSession` whose checkers run on a :class:`WorkerPool`.

    The server drives sessions through the ``a``-prefixed coroutine surface
    (:meth:`afeed` / :meth:`afinish` / :meth:`acheckpoint_payload` /
    :meth:`aclose`), which the base class implements by delegating to its
    synchronous methods; this subclass overrides them to await the pool.
    Checkpoint payloads keep the single-process schema, so sessions migrate
    freely between pooled and in-process servers across restarts.
    """

    # -- constructors ----------------------------------------------------
    @classmethod
    def start(
        cls, session_id: str, config: SessionConfig, pool: WorkerPool
    ) -> "PooledAuditSession":
        """Open a fresh pooled session."""
        stream = PooledStreamSession(pool, session_id, config)
        return cls(session_id, config, stream)

    @classmethod
    async def resume(cls, payload: Dict, pool: WorkerPool) -> "PooledAuditSession":
        """Rehydrate a checkpoint onto the pool, replaying its journal."""
        session_id, config, stream_state, journal = _parse_checkpoint(payload)
        stream = PooledStreamSession(pool, session_id, config)
        try:
            with _corrupt_on_error(session_id):
                await stream.restore(stream_state)
                session = cls._resumed(payload, session_id, config, stream)
                for op in session._replay(journal):
                    await session.afeed(op)
        except BaseException:
            # Worker-side shards of a half-restored session would otherwise
            # be picked up by the next session under this id.
            await stream.close()
            raise
        return session

    # -- async surface ---------------------------------------------------
    async def afeed(self, op: Operation) -> Optional[WindowReport]:
        return self._fed(op, await self.stream.feed(op))

    async def afinish(self) -> StreamVerificationReport:
        report = await self.stream.finish()
        self.alarmed_keys.update(report.failures)
        self.finished = True
        return report

    async def _astream_snapshot(self) -> Dict:
        return await self.stream.snapshot()

    async def aclose(self) -> None:
        await self.stream.close()

    # -- guard rails -----------------------------------------------------
    def feed(self, op: Operation):  # pragma: no cover - defensive
        raise ServiceError("pooled sessions are async; use afeed()")

    def finish(self):  # pragma: no cover - defensive
        raise ServiceError("pooled sessions are async; use afinish()")

    def checkpoint_payload(self):  # pragma: no cover - defensive
        raise ServiceError("pooled sessions are async; use acheckpoint_payload()")
