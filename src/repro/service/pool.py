"""The audit worker pool: sessions on many cores, event loop on one.

The single-process :class:`~repro.service.server.AuditServer` runs every
session's checkers on its event loop, so all checker CPU shares one core.
This module moves whole sessions into long-lived worker *processes* while the
event loop keeps socket pumping, JSONL decoding and backpressure.

* **Sessions.**  Each worker keeps ``{session_id: StreamSession}``, built by
  the ``AuditSession._engine(config).open_session(k)`` /
  ``resume_session(state)`` calls in-process serving makes, so verdicts,
  tier escalations, timeline, snapshots and final reports come from one
  implementation.  At open, a session goes to the live worker homing the
  fewest live sessions (lowest worker id on ties) and stays there.
* **One request per window.**  :class:`PooledStreamSession` runs its own
  :class:`~repro.core.windows.WindowAssembler` only to see windows close; it
  ships the operations since the last close to the home worker, which feeds
  them through ``StreamSession.feed`` and returns the :class:`WindowReport`
  the last one produced.  ``snapshot``/``finish`` ship what is pending first.
  Each worker's socketpair end is an asyncio stream on the parent's loop.
* **Failover.**  The pool keeps, per session, the last snapshot (piggybacked
  on every :data:`SNAPSHOT_EVERY`-th feed, and taken at every checkpoint)
  plus the batches fed since.  A dead worker is respawned under the same
  id, and each session homed there is resumed from its snapshot and fed the
  batches again, so the verdict stream matches an uninterrupted run.  A
  worker that keeps dying trips a crash-loop breaker instead.  The parent's
  copy roughly doubles resident session state.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import time
from collections import Counter
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import StreamVerificationReport, WindowReport, WorkerStats
from ..core.errors import ReproError, ServiceError, VerificationError, WorkerCrashLoopError
from ..core.operation import Operation, ensure_op_ids_above
from ..core.windows import WindowAssembler
from .session import (
    AuditSession, SessionConfig, _corrupt_on_error, _op_rows, _parse_checkpoint, _row_ops,
)

__all__ = ["WorkerPool", "PooledStreamSession", "PooledAuditSession"]

#: Take a piggyback session snapshot every this many windows per session
#: (bounds the failover replay log).
SNAPSHOT_EVERY = 16

#: How long a caller waits for a dead worker's replacement before giving up.
RECOVERY_TIMEOUT_S = 30.0

#: Attempts per request before the pool declares the session lost.
_MAX_ATTEMPTS = 5

#: Crash-loop detection default: this many respawns of one worker id...
DEFAULT_CRASH_LOOP_THRESHOLD = 10

#: ...within this many seconds stops respawning it and fails its sessions.
DEFAULT_CRASH_LOOP_WINDOW_S = 10.0

#: First respawn delay; doubles per respawn inside the crash-loop window.
_RESPAWN_BACKOFF_BASE_S = 0.05

#: Longest delay the respawn backoff grows to.
_RESPAWN_BACKOFF_CAP_S = 2.0


class _WorkerDied(Exception):
    """Internal: the home worker's process ended before replying."""


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _close_inherited_fds(keep: Sequence[int]) -> None:
    """Close every descriptor a forked worker inherited except ``keep``.

    A ``fork`` start leaves the child holding duplicates of every parent
    descriptor — listening sockets and *established connections* included.
    A worker respawned mid-serving would then keep the parent's closed TCP
    connections half-alive (the kernel only sends FIN once the last copy
    closes), so a peer blocked on ``read`` never sees the disconnect.  The
    worker talks exclusively over its pipe: everything else gets closed.
    """
    try:
        fds = {int(name) for name in os.listdir("/proc/self/fd")}
    except OSError:  # pragma: no cover - no procfs (spawn ctx: nothing leaks)
        return
    for fd in fds - set(keep) - {0, 1, 2}:
        with contextlib.suppress(OSError):  # already closed / listdir's own fd
            os.close(fd)


def _feed_rows(stream, rows) -> Optional[WindowReport]:
    """Feed one batch in order; return the report its last operation closed.

    The parent cuts batches at its own window closes, so no earlier
    operation of a batch may close a window.
    """
    report = None
    for op in _row_ops(rows):
        if report is not None:
            raise ServiceError("a window closed before the end of its batch")
        report = stream.feed(op)
    return report


def _worker_main(conn, worker_id: int) -> None:
    """Entry point of one pool worker process.

    A single-threaded request loop over a duplex pipe: requests arrive as
    pickled ``(request_id, command, *args)`` tuples and are answered with
    ``(request_id, ok, payload)``, where a failed request's payload is the
    exception to raise in the parent.  One worker owns each of its sessions
    exclusively, so there is no locking anywhere — the request order *is*
    the feed order.
    """
    _close_inherited_fds([conn.fileno()])
    # The serving parent handles SIGINT/SIGTERM itself (graceful drain);
    # workers must not die out from under it when a Ctrl-C hits the group.
    with contextlib.suppress(ValueError, OSError):  # pragma: no cover - non-main thread
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    sessions: Dict[str, object] = {}

    def fed(session_id: str, config: Optional[SessionConfig], rows):
        """The session after ``rows``; a config opens it (its first request)."""
        if config is not None:
            engine = AuditSession._engine(config)
            sessions[session_id] = engine.open_session(config.k)
        stream = sessions.get(session_id)
        if stream is None:
            raise ServiceError(f"worker {worker_id} has no session {session_id!r}")
        return stream, _feed_rows(stream, rows)

    def handle(command: str, args: tuple):
        if command == "feed":
            session_id, config, rows, want_snapshot = args
            stream, report = fed(session_id, config, rows)
            if report is None:
                raise ServiceError("a window batch closed no window")
            return report, (stream.snapshot() if want_snapshot else None)
        if command == "snapshot":
            stream, _report = fed(*args)
            return stream.snapshot()
        if command == "finish":
            stream, _report = fed(*args)
            del sessions[args[0]]
            return stream.finish()
        if command == "restore":
            (entries,) = args
            for session_id, config, state, batches in entries:
                engine = AuditSession._engine(config)
                with _corrupt_on_error(session_id):
                    stream = (engine.open_session(config.k) if state is None
                              else engine.resume_session(state))
                for rows in batches:
                    _feed_rows(stream, rows)
                sessions[session_id] = stream
            return len(entries)
        if command == "drop":
            return sessions.pop(args[0], None) is not None
        if command == "ping":
            return ("pong", os.getpid(), len(sessions))
        raise ServiceError(f"unknown worker command {command!r}")

    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent went away: exit quietly
        request_id, command, *args = pickle.loads(message)
        if command == "stop":
            with contextlib.suppress(OSError):
                conn.send_bytes(pickle.dumps((request_id, True, None), pickle.HIGHEST_PROTOCOL))
            return
        try:
            payload = (request_id, True, handle(command, tuple(args)))
        except ReproError as exc:
            payload = (request_id, False, exc)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            payload = (request_id, False, ServiceError(f"{type(exc).__name__}: {exc}"))
        try:
            conn.send_bytes(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        except OSError:
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side view of one worker process: a stream on its socketpair
    end, a reader task resolving replies on the event loop, and traffic
    counters.  A respawned replacement is a *new* handle, ``generation + 1``."""

    def __init__(self, worker_id: int, generation: int, ctx, on_death):
        self.worker_id = worker_id
        self.generation = generation
        self.on_death = on_death
        # ``ctx.Pipe(duplex=True)`` on POSIX, the parent's end left a socket.
        self._sock, child_sock = socket.socketpair()
        child_conn = Connection(child_sock.detach())
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
        self.batches = 0
        self.ops = 0
        self.snapshots = 0
        self.restored_sessions = 0

    async def connect(self) -> None:
        """Put the socket on the running loop and start the reader task."""
        reader, self._writer = await asyncio.open_connection(sock=self._sock)
        self._pump = asyncio.create_task(self._read_loop(reader))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Resolve replies, framed as ``Connection.send_bytes`` frames them."""
        try:
            while True:
                (size,) = struct.unpack("!i", await reader.readexactly(4))
                if size == -1:
                    (size,) = struct.unpack("!Q", await reader.readexactly(8))
                self._dispatch(await reader.readexactly(size))
        except Exception:  # noqa: BLE001 - EOF, a reset or an unreadable reply
            self._mark_dead()

    def _dispatch(self, blob: bytes) -> None:
        request_id, ok, payload = pickle.loads(blob)
        future = self._futures.pop(request_id, None)
        if future is None or future.done():
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(payload)

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        self.ready.clear()
        self._writer.close()  # a live worker reads EOF and exits
        for future in self._futures.values():
            if not future.done():
                future.set_exception(_WorkerDied(f"worker {self.worker_id} died"))
        self._futures.clear()
        if not self.stopping:
            self.on_death(self.worker_id, self.generation)

    async def request(self, command: str, *args):
        """Send one request and await its reply (raises ``_WorkerDied``)."""
        if self.dead:
            raise _WorkerDied(f"worker {self.worker_id} died")
        self._request_counter += 1
        request_id = self._request_counter
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        blob = pickle.dumps((request_id, command, *args), pickle.HIGHEST_PROTOCOL)
        size = len(blob)
        header = struct.pack("!i", size) if size <= 0x7FFFFFFF else struct.pack("!iQ", -1, size)
        # One write per frame, so concurrent requests never interleave bytes.
        self._writer.write(header + blob)
        with contextlib.suppress(Exception):  # connection lost: the reader fails `future`
            await self._writer.drain()
        return await future

    async def stop(self, timeout: float = 2.0) -> None:
        """Orderly shutdown: ask, wait briefly, then kill."""
        self.stopping = True
        if not self.dead:
            with contextlib.suppress(ServiceError, _WorkerDied, asyncio.TimeoutError):
                await asyncio.wait_for(self.request("stop"), timeout)
        await asyncio.to_thread(self.process.join, timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            await asyncio.to_thread(self.process.join, timeout)
        self._writer.close()
        await self._pump  # ends once the transport has closed the socket


class WorkerPool:
    """A pool of long-lived session processes fed by the audit event loop.

    Parameters
    ----------
    size:
        Number of worker processes.
    crash_loop_threshold, crash_loop_window_s:
        Crash-loop breaker: after ``crash_loop_threshold`` respawns of one
        worker id within ``crash_loop_window_s`` seconds, the pool stops
        respawning it and every request for a session homed there raises
        :class:`~repro.core.errors.WorkerCrashLoopError` — a deterministic
        crasher (poisoned input, broken native lib) must surface as a typed
        error on the affected sessions, not as an infinite respawn spin that
        also starves healthy ones.  Respawns inside the window back off
        exponentially.  ``crash_loop_threshold=0`` disables the breaker.

    The pool is asyncio-native: create it on the event loop that will use it
    and ``await`` :meth:`start` before the first feed.
    """

    def __init__(
        self,
        size: int,
        *,
        crash_loop_threshold: int = DEFAULT_CRASH_LOOP_THRESHOLD,
        crash_loop_window_s: float = DEFAULT_CRASH_LOOP_WINDOW_S,
    ):
        if size < 1:
            raise ServiceError(f"worker pool size must be >= 1, got {size!r}")
        if crash_loop_threshold < 0 or crash_loop_window_s <= 0:
            raise ServiceError(
                "crash_loop_threshold must be >= 0 and crash_loop_window_s positive, "
                f"got {crash_loop_threshold!r} and {crash_loop_window_s!r}"
            )
        self.size = size
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window_s = crash_loop_window_s
        try:  # fork where available (3 ms worker starts), else spawn
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context("spawn")
        self._workers: Dict[int, _WorkerHandle] = {}
        self._sessions: Dict[str, "PooledStreamSession"] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._stopping = False
        self._recoveries: Dict[int, asyncio.Task] = {}
        #: Recent respawn times per worker id (pruned to the breaker window).
        self._respawn_times: Dict[int, List[float]] = {}
        #: Worker ids the breaker tripped on: never respawned, always raise.
        self._crash_looping: set = set()

    async def start(self) -> None:
        """Spawn the worker processes."""
        if self._started:
            raise ServiceError("worker pool already started")
        self._loop = asyncio.get_running_loop()
        for worker_id in range(self.size):
            await self._spawn(worker_id, generation=0)
        self._started = True
        # One ping per worker: surfaces a worker that died on arrival now,
        # not on the first session's first window.
        await asyncio.gather(*(handle.request("ping") for handle in self._workers.values()))

    async def stop(self) -> None:
        """Stop every worker process (sessions and their state are dropped)."""
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
        self._workers.clear()
        self._sessions.clear()

    async def _spawn(self, worker_id: int, generation: int) -> _WorkerHandle:
        handle = _WorkerHandle(worker_id, generation, self._ctx, self._on_worker_death)
        await handle.connect()
        handle.ready.set()
        self._workers[worker_id] = handle
        return handle

    def worker_pids(self) -> Dict[int, int]:
        """Live worker process ids by worker id (tests kill through this)."""
        return {
            worker_id: handle.process.pid
            for worker_id, handle in self._workers.items()
            if handle.process.pid is not None
        }

    def home_of(self, session_id: str) -> int:
        """The worker id a live session is placed on."""
        return self._sessions[session_id].home

    def worker_stats(self) -> Tuple[WorkerStats, ...]:
        """One :class:`WorkerStats` row per worker, in worker-id order."""
        homed = Counter(session.home for session in self._sessions.values())
        return tuple(
            WorkerStats(
                worker_id=worker_id,
                pid=handle.process.pid,
                alive=not handle.dead and handle.process.is_alive(),
                sessions=homed[worker_id],
                batches=handle.batches,
                ops=handle.ops,
                snapshots=handle.snapshots,
                restarts=handle.generation,
                restored_sessions=handle.restored_sessions,
            )
            for worker_id, handle in sorted(self._workers.items())
        )

    def place(self, session: "PooledStreamSession") -> int:
        """Register a session; returns its home worker id.

        A new session goes to the live worker homing the fewest live
        sessions, the lowest worker id breaking ties — a count, never a
        timing.  An id that is already placed keeps its home, so the
        worker-side session it names is replaced, never duplicated.
        """
        if not self._started:
            raise ServiceError("worker pool is not started")
        previous = self._sessions.get(session.session_id)
        if previous is not None:
            home = previous.home
        else:
            homed = Counter(other.home for other in self._sessions.values())
            live = [w for w in sorted(self._workers) if w not in self._crash_looping]
            home = min(live or sorted(self._workers), key=lambda w: homed[w])
        self._sessions[session.session_id] = session
        return home

    def release(self, session: "PooledStreamSession") -> bool:
        """Forget a finished or dropped session; False if its id moved on."""
        if self._sessions.get(session.session_id) is not session:
            return False
        del self._sessions[session.session_id]
        return True

    async def request(self, worker_id: int, command: str, *args):
        """Issue a request, riding out worker deaths via respawn + replay."""
        for _attempt in range(_MAX_ATTEMPTS):
            handle = await self._ready_handle(worker_id)
            try:
                return await handle.request(command, *args)
            except _WorkerDied:
                continue  # the death callback respawns; wait and retry
        raise ServiceError(
            f"worker {worker_id} keeps dying; gave up after {_MAX_ATTEMPTS} attempts"
        )

    async def _ready_handle(self, worker_id: int) -> _WorkerHandle:
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        while True:
            if worker_id in self._crash_looping:
                raise WorkerCrashLoopError(
                    f"worker {worker_id} crash-looped "
                    f"({self.crash_loop_threshold} respawns within "
                    f"{self.crash_loop_window_s:.0f}s); its sessions are "
                    "unavailable until the pool is restarted"
                )
            handle = self._workers.get(worker_id)
            if handle is None:
                raise ServiceError(f"no worker {worker_id} in the pool")
            if not handle.dead and handle.ready.is_set():
                return handle
            try:
                await asyncio.wait_for(handle.ready.wait(), deadline - time.monotonic())
            except asyncio.TimeoutError:
                raise ServiceError(
                    f"worker {worker_id} did not recover within {RECOVERY_TIMEOUT_S:.0f}s"
                ) from None

    def _on_worker_death(self, worker_id: int, generation: int) -> None:
        current = self._workers.get(worker_id)
        if self._stopping or worker_id in self._recoveries:
            return
        if current is None or current.generation != generation:
            return  # already replaced
        task = self._loop.create_task(self._recover(worker_id, generation))
        self._recoveries[worker_id] = task
        task.add_done_callback(lambda _t: self._recoveries.pop(worker_id, None))

    async def _recover(self, worker_id: int, dead_generation: int) -> None:
        """Respawn a dead worker and rebuild every session it homed."""
        old = self._workers.get(worker_id)
        if old is None or old.generation != dead_generation:
            return
        # Crash-loop breaker: count respawns inside the sliding window and
        # back off exponentially between them; past the threshold, stop
        # respawning and let _ready_handle fail this worker's sessions typed.
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
                min(_RESPAWN_BACKOFF_BASE_S * 2 ** (len(recent) - 2), _RESPAWN_BACKOFF_CAP_S)
            )
        handle = await self._spawn(worker_id, generation=dead_generation + 1)
        handle.ready.clear()  # hold feeds until the sessions are rebuilt
        old.ready.set()  # feeders parked on the dead handle move to this one
        try:
            entries = [
                session._restore_entry()
                for session in self._sessions.values()
                if session.home == worker_id and session._opening() is None
            ]
            if entries:
                handle.restored_sessions += await handle.request("restore", entries)
        except _WorkerDied:
            # The replacement died during restore; its own death callback
            # will start the next recovery round.
            return
        finally:
            handle.ready.set()


# ----------------------------------------------------------------------
# Pooled sessions
# ----------------------------------------------------------------------
class PooledStreamSession:
    """A :class:`~repro.engine.streaming.StreamSession` on a pool worker.

    A thin proxy: the session lives on its home worker; this object buffers
    the open window's operations, ships them when its assembler sees the
    window close, and returns the worker's :class:`WindowReport`.
    :meth:`finish` and :meth:`snapshot` return the worker session's own, so
    checkpoints move freely between pooled and in-process servers.  It also
    keeps the failover copy: the last snapshot (``None`` before the first)
    and the batches, as ``_op_rows`` rows, fed since.
    """

    def __init__(self, pool: WorkerPool, session_id: str, config: SessionConfig):
        self.pool = pool
        self.session_id = session_id
        self.config = config
        self.k = config.k
        self._assembler = WindowAssembler(config.window_policy())
        self._pending: List[Operation] = []
        self._registers: set = set()
        self._baseline: Optional[Dict] = None
        self._replay: List[List[Tuple]] = []
        #: Counters mirroring StreamSession's properties.
        self.ops_fed = 0
        self.num_windows = 0
        self.finished = False
        self.home = pool.place(self)

    @property
    def num_registers(self) -> int:
        return len(self._registers)

    def _opening(self) -> Optional[SessionConfig]:
        """The config the home worker needs to open the session, until it has."""
        return self.config if self._baseline is None and not self._replay else None

    def _restore_entry(self) -> Tuple:
        return (self.session_id, self.config, self._baseline, self._replay)

    def _rebase(self, snapshot: Dict) -> None:
        self._baseline = snapshot
        self._replay = []

    async def _ship(self, command: str, *extra):
        """Send the pending operations with ``command``; returns rows, reply."""
        rows = _op_rows(self._pending)
        self._pending = []
        reply = await self.pool.request(
            self.home, command, self.session_id, self._opening(), rows, *extra
        )
        return rows, reply

    # -- feeding ---------------------------------------------------------
    async def feed(self, op: Operation) -> Optional[WindowReport]:
        """Ingest one operation; awaits the home worker when a window closes."""
        if self.finished:
            raise VerificationError(
                "session already finished; open a new session for a new stream"
            )
        self.ops_fed += 1
        self._pending.append(op)
        if self._assembler.feed(op) is None:
            return None
        rows, (report, snapshot) = await self._ship(
            "feed", len(self._replay) + 1 >= SNAPSHOT_EVERY
        )
        handle = self.pool._workers[self.home]
        handle.batches += 1
        handle.ops += len(rows)
        if snapshot is None:
            self._replay.append(rows)
        else:
            self._rebase(snapshot)
            handle.snapshots += 1
        self.num_windows += 1
        self._registers.update(report.verdicts)
        return report

    async def finish(self) -> StreamVerificationReport:
        """Seal the stream; final verdicts equal batch verification exactly."""
        if self.finished:
            raise VerificationError("session already finished")
        _rows, report = await self._ship("finish")
        self.pool.release(self)
        self.finished = True
        self.num_windows = report.num_windows
        self._registers.update(report.results)
        return report

    # -- checkpointing ---------------------------------------------------
    async def snapshot(self) -> Dict:
        """The worker session's ``StreamSession.snapshot()`` (a new baseline)."""
        _rows, snapshot = await self._ship("snapshot")
        self._rebase(snapshot)
        return snapshot

    async def restore(self, state: Dict) -> None:
        """Rehydrate a :meth:`snapshot` (or in-process ``StreamSession``) state."""
        self._assembler.restore(state["assembler"])
        buffered = state["assembler"]["buffer"]
        self.ops_fed = state["ops_fed"]
        self.num_windows = len(state["timeline"])
        checkers = state["checkers"]
        closed = state.get("closed_registers", len(checkers))
        self._registers = {key for key, _checker in checkers[:closed]}
        self.finished = state["finished"]
        self._rebase(state)
        await self.pool.request(self.home, "restore", [self._restore_entry()])
        self.pool._workers[self.home].restored_sessions += 1
        # Buffered (not-yet-fed) operations carry foreign ids; fresh decoder
        # ids in this process must never collide with them.
        ensure_op_ids_above(max((op.op_id for op in buffered), default=-1))

    async def close(self) -> None:
        """Drop this session's worker-side state (abandoned stream)."""
        handle = self.pool._workers.get(self.home)
        if self.finished or not self.pool.release(self) or handle is None:
            return
        try:
            await handle.request("drop", self.session_id)
        except (_WorkerDied, ServiceError):
            pass


class PooledAuditSession(AuditSession):
    """An :class:`AuditSession` whose stream runs on a :class:`WorkerPool`.

    The server drives sessions through the ``a``-prefixed coroutines
    (:meth:`afeed` / :meth:`afinish` / :meth:`acheckpoint_payload` /
    :meth:`aclose`); this subclass overrides them to await the pool.
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
            # The worker-side session of a half-restored resume would
            # otherwise be picked up by the next session under this id.
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
