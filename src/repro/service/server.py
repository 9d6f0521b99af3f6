"""The asyncio audit server: many concurrent trace sessions, one process.

Each accepted connection speaks the session protocol of
:mod:`repro.service.protocol`: a ``hello`` frame opens (or resumes) an
:class:`~repro.service.session.AuditSession`, operation records stream in as
newline-delimited JSONL, and rolling :class:`WindowReport` verdicts stream
back out the moment each window closes — the paper's live-audit posture
multiplied across sessions.

Concurrency model
-----------------
One reader ("pump") coroutine and one worker coroutine per connection, joined
by a **bounded queue**: the pump decodes socket chunks through
:class:`~repro.io.formats.JsonlDecoder` and ``await``-puts each item, so when
a session's worker falls behind the queue fills, the pump stops reading, the
kernel receive buffer fills, and TCP flow control pushes back on that client
alone — explicit per-session backpressure with no unbounded buffering and no
effect on other sessions.  Verification itself is cooperative: workers yield
to the event loop after every closed window (and periodically between
closes), so many sessions make interleaved progress in a single process.

Checkpoints
-----------
With a :class:`~repro.service.checkpoint.CheckpointStore` attached, sessions
are persisted every ``checkpoint_every`` operations and on explicit
``checkpoint`` frames — a full snapshot first, then journal deltas of the
ops since the last save; after a crash (or an orderly restart) a client
re-connects with ``resume: true`` and continues exactly where the last
checkpoint left off — the restored verdict stream is identical to an
uninterrupted run's.  A session's checkpoint is discarded once its final
report is delivered.

Worker pool
-----------
With ``workers=N`` the checker CPU moves off the event loop onto a
:class:`~repro.service.pool.WorkerPool` of ``N`` long-lived processes:
sessions become :class:`~repro.service.pool.PooledAuditSession` objects whose
whole stream session lives on one pool worker, placed by a count of live
sessions and restored transparently when that worker dies.  The protocol,
the verdict streams, and the checkpoint format are identical to
single-process serving — ``workers`` is purely a throughput knob.

Graceful drain
--------------
:meth:`AuditServer.drain` (wired to ``SIGTERM``/``SIGINT`` by ``repro
serve``) stops accepting connections, lets every live session reach an
operation boundary, checkpoints it (when a store is attached), tells the
client via a ``draining`` frame, and returns — so a restarted server resumes
every interrupted session exactly where the drain left it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..analysis.report import ServiceReport, SessionStats, WindowReport
from ..core.errors import (
    ReproError,
    ServerOverloaded,
    ServiceError,
    SessionBusy,
    SessionIdleTimeout,
)
from ..io.formats import JsonlDecoder
from .checkpoint import CheckpointStore
from .pool import PooledAuditSession, WorkerPool
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    format_address,
    results_to_pairs,
    verdict_to_dict,
)
from .session import AuditSession, SessionConfig

__all__ = ["AuditServer", "DEFAULT_QUEUE_SIZE"]

#: Default bound of each session's pump-to-worker queue, in stream items.
DEFAULT_QUEUE_SIZE = 1024

#: Worker yields the event loop at least every this many fed operations.
_YIELD_EVERY = 256

_EOF = object()
_DRAIN = object()


class AuditServer:
    """Serve many concurrent audit sessions over TCP and/or a unix socket.

    Parameters
    ----------
    host, port:
        TCP endpoint.  ``port=0`` binds an ephemeral port (see
        :attr:`tcp_port` after :meth:`start`); ``port=None`` disables TCP.
    unix_path:
        Optional unix-domain socket path to additionally (or exclusively)
        listen on.
    checkpoint_dir:
        Directory for session checkpoints; ``None`` disables checkpointing
        (``checkpoint`` frames are then refused).
    checkpoint_every:
        Automatically checkpoint each session every N fed operations
        (requires ``checkpoint_dir``).
    queue_size:
        Bound of the per-session pump queue — the backpressure knob.
    default_config:
        Session settings used for ``hello`` fields the client omits.
    max_sessions:
        After this many sessions have *completed*, :meth:`serve_forever`
        returns (used by tests and one-shot CLI runs); ``None`` serves until
        :meth:`stop`.
    workers:
        Run the checkers on a :class:`~repro.service.pool.WorkerPool` of this
        many processes (``None``/``0``: in-process checkers, the
        single-core default).
    session_idle_timeout:
        Seconds a session's stream may sit idle (no frame, no operation)
        before the server checkpoints it (when a store is attached), sends a
        retryable ``idle_timeout`` error, and closes the connection —
        reclaiming sessions whose clients stalled or vanished silently.
        ``None`` (the default) waits forever.
    max_active_sessions:
        Load-shedding bound: a ``hello`` arriving while this many sessions
        are already live is refused with a retryable ``overloaded`` error
        instead of degrading every existing stream.  ``None`` admits all.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        unix_path: Optional[Union[str, Path]] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_config: SessionConfig = SessionConfig(),
        max_sessions: Optional[int] = None,
        workers: Optional[int] = None,
        session_idle_timeout: Optional[float] = None,
        max_active_sessions: Optional[int] = None,
    ):
        if port is None and unix_path is None:
            raise ServiceError("enable at least one endpoint (TCP port or unix path)")
        if queue_size < 1:
            raise ServiceError(f"queue_size must be >= 1, got {queue_size!r}")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ServiceError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
                )
            if checkpoint_dir is None:
                raise ServiceError("checkpoint_every requires checkpoint_dir")
        self.host = host
        self.port = port
        self.unix_path = str(unix_path) if unix_path is not None else None
        self.store = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoint_every = checkpoint_every
        self.queue_size = queue_size
        self.default_config = default_config
        self.max_sessions = max_sessions
        if workers is not None and workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers!r}")
        self.workers = workers or None  # 0 → in-process, same as None
        if session_idle_timeout is not None and session_idle_timeout <= 0:
            raise ServiceError(
                f"session_idle_timeout must be positive, got {session_idle_timeout!r}"
            )
        self.session_idle_timeout = session_idle_timeout
        if max_active_sessions is not None and max_active_sessions < 1:
            raise ServiceError(
                f"max_active_sessions must be >= 1, got {max_active_sessions!r}"
            )
        self.max_active_sessions = max_active_sessions
        self._pool: Optional[WorkerPool] = None
        self._worker_rows: tuple = ()

        self._servers: List[asyncio.AbstractServer] = []
        self._active: Dict[str, AuditSession] = {}
        #: Ids mid-handshake: reserved before the (awaited) checkpoint load so
        #: a concurrent hello for the same id cannot slip past the duplicate
        #: guard while this one is parked on the to_thread unpickle.
        self._opening: set = set()
        #: Ids whose session ended but whose checkpoint discard may still be
        #: running: a hello reusing the id waits for it, so the discard can
        #: never delete the new session's first checkpoint.
        self._discards: Dict[str, asyncio.Future] = {}
        #: One entry per logical session id, in first-arrival order: the live
        #: AuditSession while its connection runs, frozen to its (small)
        #: SessionStats row when the connection ends — retaining the live
        #: object (checker buffers and all) for the server's lifetime would
        #: grow memory with every session ever served.  A resume (or a reused
        #: id) replaces the previous entry in place, O(1) per event.
        self._session_log: Dict[str, Union[AuditSession, SessionStats]] = {}
        self._conn_tasks: "set[asyncio.Task]" = set()
        #: Live per-connection pump queues, so drain() can inject its sentinel.
        self._conn_queues: Dict[asyncio.Task, asyncio.Queue] = {}
        self._draining = False
        self._completed = 0
        self._session_counter = 0
        self._started_at: Optional[float] = None
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the configured endpoints and begin accepting connections."""
        if self._servers:
            raise ServiceError("server already started")
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        if self.workers is not None:
            self._pool = WorkerPool(self.workers)
            await self._pool.start()
        if self.port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.host,
                    port=self.port,
                    limit=MAX_FRAME_BYTES,
                )
            )
        if self.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=self.unix_path, limit=MAX_FRAME_BYTES
                )
            )

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (resolves ``port=0``), or ``None`` without TCP."""
        if self.port is None:
            return None
        for server in self._servers:
            for sock in server.sockets or ():
                if sock.family.name.startswith("AF_INET"):
                    return sock.getsockname()[1]
        return None

    @property
    def addresses(self) -> List[str]:
        """Connectable addresses, in ``HOST:PORT`` / ``unix:PATH`` form."""
        found = []
        port = self.tcp_port
        if port is not None:
            found.append(format_address("tcp", (self.host, port)))
        if self.unix_path is not None:
            found.append(format_address("unix", self.unix_path))
        return found

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or the ``max_sessions`` quota is met)."""
        if self._stop_event is None:
            raise ServiceError("call start() before serve_forever()")
        await self._stop_event.wait()

    async def stop(self) -> None:
        """Close the listeners and cancel in-flight connections."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._pool is not None:
            self._worker_rows = self._pool.worker_stats()
            await self._pool.stop()
        if self.store is not None:
            self.store.close()
        if self._stop_event is not None:
            self._stop_event.set()

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop accepting, checkpoint every live session, then return.

        The graceful-shutdown path (``repro serve`` wires it to ``SIGTERM``
        and ``SIGINT``): listeners close first, then every connection's
        worker receives a drain sentinel *behind* whatever its queue already
        holds, so each session stops at an operation boundary — never
        mid-window — gets checkpointed (when the server has a store), and is
        told via a ``draining`` frame before its connection closes.
        Connections still running after ``timeout`` seconds are cancelled;
        their sessions keep whatever checkpoint they last persisted.
        """
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        # The sentinel queues *behind* in-flight items (puts block on full
        # queues until the draining worker makes room), so every already
        # received operation is still fed and checkpointed.
        if self._conn_queues:
            await asyncio.gather(
                *(queue.put(_DRAIN) for queue in list(self._conn_queues.values())),
                return_exceptions=True,
            )
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._stop_event is not None:
            self._stop_event.set()

    def service_report(self) -> ServiceReport:
        """Service-level statistics over every session this run has seen."""
        uptime = (
            time.monotonic() - self._started_at if self._started_at is not None else 0.0
        )
        if self._pool is not None:
            rows = self._pool.worker_stats()
            if rows:  # after pool.stop() keep the last live snapshot
                self._worker_rows = rows
        return ServiceReport(
            sessions=tuple(
                entry.stats() if isinstance(entry, AuditSession) else entry
                for entry in self._session_log.values()
            ),
            uptime_s=uptime,
            workers=self._worker_rows,
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        session: Optional[AuditSession] = None
        try:
            if not self._draining:
                session = await self._run_session(reader, writer)
        except asyncio.CancelledError:
            # Only stop() and drain() cancel a handler.  It returns instead
            # of re-raising: on Python 3.10 and 3.11 the done-callback that
            # asyncio.start_server attaches logs a CancelledError traceback
            # for every handler task that ends cancelled.
            pass
        except ConnectionError:
            pass  # client vanished; any checkpoint stays for resume
        finally:
            self._conn_tasks.discard(task)
            self._conn_queues.pop(task, None)
            if session is not None:
                if self._active.get(session.session_id) is session:
                    del self._active[session.session_id]
                if self._session_log.get(session.session_id) is session:
                    # Frozen rows of unfinished sessions read "detached":
                    # resumable, but nothing is streaming any more.
                    self._session_log[session.session_id] = replace(
                        session.stats(), connected=False
                    )
                try:
                    # Pooled sessions hold worker-side checker state; an
                    # abandoned (unfinished) stream must release it — any
                    # resume rebuilds from the checkpoint store.
                    await session.aclose()
                except (ReproError, asyncio.CancelledError):
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _run_session(self, reader, writer) -> Optional[AuditSession]:
        peer = writer.get_extra_info("peername") or writer.get_extra_info("sockname")
        decoder = JsonlDecoder(source=f"session@{peer}", mixed=True)
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_size)
        self._conn_queues[asyncio.current_task()] = queue

        # --- handshake, before any operation is decoded --------------------
        # The hello line is read directly (not through the pump) so that a
        # resumed session completes Checker.restore — which advances the
        # op-id counter past every restored id — before the decoder mints an
        # id for any pipelined operation record.  Decoding ops first would
        # let fresh auto-ids collide with restored ones (identity is
        # id-based), silently corrupting op-keyed state.
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            return None
        if not line:
            return None
        try:
            first = decode_frame(line)
        except ServiceError as exc:
            await self._send_error(writer, exc)
            return None
        if first.get("type") != "hello":
            await self._send_error(writer, "the first frame must be 'hello'")
            return None
        try:
            session = await self._open_session(first)
        except ReproError as exc:
            await self._send_error(writer, exc)
            return None
        want_witness = bool(first.get("witness", False))
        try:
            await self._send(
                writer,
                {
                    "type": "welcome",
                    "session": session.session_id,
                    "resumed": session.resumed,
                    "ops_restored": session.ops_fed,
                    "k": session.config.k,
                },
            )
        except ConnectionError:
            # The session exists from here on: it must reach the caller even
            # when the client vanishes, or cleanup never runs and the id
            # stays "already connected" forever.
            return session
        if session.resumed and session.window_log:
            # Re-deliver every window verdict the checkpoint covers: the
            # previous connection may have died with frames in flight, and
            # replay resumes *after* the checkpoint so it cannot re-close
            # them.  Clients deduplicate by window index.
            try:
                for frame in session.window_log:
                    await self._send(writer, frame)
            except ConnectionError:
                return session

        async def pump() -> None:
            try:
                while True:
                    chunk = await reader.read(1 << 16)
                    if not chunk:
                        for tail in decoder.flush():
                            await queue.put(tail)
                        await queue.put(_EOF)
                        return
                    # Items before a malformed line are queued ahead of its
                    # error, however the bytes were chunked.
                    for item in decoder.iter_feed(chunk):
                        await queue.put(item)
                    if decoder.pending_bytes > MAX_FRAME_BYTES:
                        # A record with no newline in sight: without this cap
                        # the partial-line buffer (which the bounded queue
                        # cannot see) would grow with whatever the peer sends.
                        raise ServiceError(
                            f"frame exceeds {MAX_FRAME_BYTES} bytes without a "
                            "newline; closing the session"
                        )
            except ReproError as exc:  # malformed op/frame: surface in-band
                await queue.put(exc)
            except ConnectionError:
                await queue.put(_EOF)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # e.g. invalid UTF-8: fail, never hang
                await queue.put(ServiceError(f"cannot decode stream: {exc}"))

        pump_task = asyncio.create_task(pump())
        try:
            # --- stream ----------------------------------------------------
            since_yield = 0
            while True:
                if self.session_idle_timeout is not None:
                    try:
                        item = await asyncio.wait_for(
                            queue.get(), self.session_idle_timeout
                        )
                    except asyncio.TimeoutError:
                        # Idle watchdog: the client went quiet mid-stream.
                        # Persist what we have (so a resume loses nothing),
                        # tell the client why, and reclaim the connection.
                        if self.store is not None and not session.finished:
                            try:
                                await self._save_checkpoint(session)
                            except ServiceError:
                                pass
                        await self._send_error(
                            writer,
                            SessionIdleTimeout(
                                "session idle for "
                                f"{self.session_idle_timeout}s; closing"
                                + (
                                    " (checkpointed, resume to continue)"
                                    if self.store is not None
                                    else ""
                                )
                            ),
                            session,
                        )
                        return session
                else:
                    item = await queue.get()
                if item is _EOF:
                    # Abrupt disconnect: keep the session's checkpoint (if
                    # any) so the client can resume; drop the live state.
                    return session
                if item is _DRAIN:
                    await self._drain_session(session, writer)
                    return session
                if isinstance(item, Exception):
                    await self._send_error(writer, item, session)
                    return session
                if isinstance(item, dict):
                    if await self._handle_control(item, session, writer, want_witness):
                        return session
                    continue
                try:
                    report = await session.afeed(item)
                except ReproError as exc:
                    await self._send_error(writer, exc, session)
                    return session
                since_yield += 1
                if report is not None:
                    await self._send_window(writer, session, report)
                    since_yield = 0
                elif since_yield >= _YIELD_EVERY:
                    await asyncio.sleep(0)  # share the loop on quiet stretches
                    since_yield = 0
                if (
                    self.checkpoint_every is not None
                    and session.ops_fed % self.checkpoint_every == 0
                ):
                    try:
                        await self._save_checkpoint(session)
                    except ServiceError as exc:  # e.g. checkpoint disk full
                        await self._send_error(writer, exc, session)
                        return session
        except ConnectionError:
            # Writing a verdict frame to a vanished client: same contract as
            # _EOF — the session handle must reach the cleanup path.
            return session
        finally:
            pump_task.cancel()

    async def _drain_session(self, session: AuditSession, writer) -> None:
        """End one connection for a server drain: checkpoint, notify, close."""
        if self.store is not None and not session.finished:
            try:
                await self._save_checkpoint(session)
            except ServiceError as exc:
                await self._send_error(writer, exc, session)
                return
        try:
            await self._send(
                writer,
                {
                    "type": "draining",
                    "session": session.session_id,
                    "ops": session.ops_fed,
                    "checkpoints": session.checkpoints,
                    "resumable": self.store is not None,
                },
            )
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    async def _open_session(self, hello: dict) -> AuditSession:
        resume = bool(hello.get("resume", False))
        session_id = hello.get("session")
        if session_id is None:
            if resume:
                raise ServiceError("resume requires an explicit session id")
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
        session_id = str(session_id)
        discard = self._discards.get(session_id)
        if discard is not None:
            await asyncio.shield(discard)
        if session_id in self._active or session_id in self._opening:
            # Retryable: a reconnecting client can beat the old connection's
            # handler to the session, which it releases when it finishes.
            raise SessionBusy(f"session {session_id!r} is already connected")
        if (
            self.max_active_sessions is not None
            and len(self._active) + len(self._opening) >= self.max_active_sessions
        ):
            raise ServerOverloaded(
                f"server is at its session limit ({self.max_active_sessions}); "
                "retry shortly"
            )
        self._opening.add(session_id)
        try:
            if resume:
                if self.store is None:
                    raise ServiceError("this server has no checkpoint store")
                # Unpickling a big checkpoint is the load-side twin of
                # _save_checkpoint: keep it off the event loop so concurrent
                # sessions stream uninterrupted through the handshake.
                payload = await asyncio.to_thread(self.store.load, session_id)
                if self._pool is not None:
                    session = await PooledAuditSession.resume(payload, self._pool)
                else:
                    session = AuditSession.resume(payload)
                if session.session_id != session_id:
                    raise ServiceError(
                        f"checkpoint belongs to session {session.session_id!r}"
                    )
            else:
                window = hello.get("window")
                if isinstance(window, (int, float)) and not isinstance(window, bool):
                    window = {"mode": "count", "size": window}  # bare size shorthand
                elif window is not None and not isinstance(window, dict):
                    raise ServiceError(
                        f"hello 'window' must be an object or a count size, got {window!r}"
                    )
                defaults = self.default_config.to_dict()
                merged = {**defaults, **{k: v for k, v in hello.items() if v is not None}}
                merged["window"] = {**defaults["window"], **(window or {})}
                config = SessionConfig.from_dict(merged)
                if self._pool is not None:
                    session = PooledAuditSession.start(session_id, config, self._pool)
                else:
                    session = AuditSession.start(session_id, config)
            self._active[session_id] = session
        finally:
            self._opening.discard(session_id)
        # Keyed assignment: a resume *continues* its logical session, so the
        # disconnected predecessor's entry is replaced rather than
        # double-counted (its restored ops are included in the new entry).
        self._session_log[session_id] = session
        return session

    async def _handle_control(
        self, frame: dict, session: AuditSession, writer, want_witness: bool
    ) -> bool:
        """Dispatch one mid-stream control frame; True ends the session."""
        kind = frame.get("type")
        if kind == "end":
            try:
                report = await session.afinish()
            except ReproError as exc:
                await self._send_error(writer, exc, session)
                return True
            # Free the id before the report goes out: a client may reuse it
            # as soon as it reads the report, and that hello then waits only
            # for this session's checkpoint discard, never for the handler.
            session_id = session.session_id
            if self._active.get(session_id) is session:
                del self._active[session_id]
            discarded = asyncio.get_running_loop().create_future()
            self._discards[session_id] = discarded
            try:
                await self._send(
                    writer,
                    {
                        "type": "report",
                        "session": session_id,
                        "k": report.k,
                        "ops": session.ops_fed,
                        "windows": report.num_windows,
                        "registers": report.num_registers,
                        "elapsed_s": round(report.elapsed_s, 6),
                        "results": results_to_pairs(report.results, witness=want_witness),
                    },
                )
                if self.store is not None:
                    # A base plus its journal: several deletes, off the loop
                    # like save and load.
                    await asyncio.to_thread(self.store.discard, session_id)
            finally:
                discarded.set_result(None)
                if self._discards.get(session_id) is discarded:
                    del self._discards[session_id]
            self._completed += 1
            if self.max_sessions is not None and self._completed >= self.max_sessions:
                self._stop_event.set()
            return True
        if kind == "checkpoint":
            if self.store is None:
                await self._send_error(
                    writer, "this server has no checkpoint store", session
                )
                return True
            try:
                await self._save_checkpoint(session)
            except ServiceError as exc:
                await self._send_error(writer, exc, session)
                return True
            await self._send(
                writer,
                {
                    "type": "checkpointed",
                    "session": session.session_id,
                    "ops": session.ops_fed,
                    "checkpoints": session.checkpoints,
                },
            )
            return False
        if kind == "stats":
            report = self.service_report()
            await self._send(
                writer,
                {
                    "type": "stats",
                    "sessions": report.num_sessions,
                    "active": report.active_sessions,
                    "ops": report.total_ops,
                    "alarms": report.total_alarms,
                    "uptime_s": round(report.uptime_s, 3),
                },
            )
            return False
        await self._send_error(writer, f"unknown control frame {kind!r}", session)
        return True

    async def _save_checkpoint(self, session: AuditSession) -> None:
        if self.store is None:
            return
        # Build the payload on the loop (a delta copies the ops since the
        # last save; a full snapshot is cheap shallow copies, and a pooled
        # session awaits its workers' snapshots here), pickle + write in a
        # thread so other sessions keep streaming during the disk I/O.
        # The session's worker coroutine is parked on this await, so nothing
        # mutates the snapshotted state meanwhile.
        payload = await session.acheckpoint_payload()
        await asyncio.to_thread(self.store.save, session.session_id, payload)
        session.checkpoints += 1  # only persisted checkpoints count

    # ------------------------------------------------------------------
    async def _send(self, writer, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _send_window(
        self, writer, session: AuditSession, report: WindowReport
    ) -> None:
        stats = report.stats
        frame = {
            "type": "window",
            "session": session.session_id,
            "index": stats.index,
            "ops": stats.num_ops,
            "registers": stats.num_registers,
            "alarms": sorted(report.alarms(), key=repr),
            "verdicts": [
                [key, verdict_to_dict(verdict)]
                for key, verdict in report.verdicts.items()
            ],
        }
        log = session.window_log
        if not log or frame["index"] > log[-1]["index"]:
            # Replayed ops after a resume re-close already-logged windows;
            # indices only ever grow, so an equal-or-lower index is a rerun.
            log.append(frame)
        await self._send(writer, frame)
        await asyncio.sleep(0)  # window work is the CPU chunk: yield after it

    async def _send_error(
        self,
        writer,
        error: Union[str, BaseException],
        session: Optional[AuditSession] = None,
    ) -> None:
        """Send one error frame; typed exceptions carry their code/retryable."""
        frame = error_frame(
            str(error),
            code=getattr(error, "code", ""),
            retryable=getattr(error, "retryable", False),
            session=session.session_id if session is not None else None,
        )
        try:
            await self._send(writer, frame)
        except ConnectionError:
            pass
