"""Service-side chaos: a fault-injecting proxy and scripted worker faults.

The service arm of the unified fault plan (:mod:`repro.chaos`).  Two
injectors consume the ``service``-domain clauses of one
:class:`~repro.chaos.plan.FaultPlan`:

* :class:`ChaosProxy` sits between an :class:`~repro.service.AuditClient`
  and an :class:`~repro.service.AuditServer` as a line-buffered TCP relay
  and perturbs whole protocol frames — dropping, delaying, duplicating,
  truncating, or corrupting them, each governed by its clause's
  deterministic random stream.
* :class:`WorkerChaos` attacks a :class:`~repro.service.pool.WorkerPool`
  from the outside with the signals a hostile host would: ``SIGKILL``
  (worker death → failover), ``SIGSTOP``/``SIGCONT`` stalls, and duty-cycle
  slowdowns.

Lossy frame faults (drop, truncate, corrupt) **close the proxied
connection immediately after injecting**: a cut TCP stream is the failure
a real network produces, and it is what makes chaos runs *verdict-preserving*
— the client observes a clean connection loss, reconnects with ``resume``,
and the checkpointed session replays exactly-once, so the completed verdict
stream still matches a fault-free run byte for byte.  Duplication applies
only to server→client ``window`` frames (the one frame type the client
deduplicates by index); corruption injects an invalid-UTF-8 byte so the
damage is always detected, never silently parsed.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Dict, List, Optional, Tuple

from ..chaos.plan import DOMAIN_SERVICE, FaultPlan
from ..core.errors import ServiceError
from .protocol import format_address, parse_address

__all__ = ["ChaosProxy", "WorkerChaos"]

#: Default per-frame injection probability of each frame_* clause.
DEFAULT_FAULT_PROBABILITY = 0.05

#: readline limit of the relay (must exceed any report frame it carries).
_PROXY_LIMIT = 1 << 26


class ChaosProxy:
    """A fault-injecting TCP relay between audit clients and a server.

    Point clients at :attr:`address` instead of the real server; every
    newline-terminated frame crossing the proxy is offered to the plan's
    ``frame_*`` clauses.  Frame clauses understand these params (all
    optional):

    ``probability``
        Per-frame injection chance (default ``0.05``).
    ``direction``
        ``"c2s"``, ``"s2c"``, or ``"both"`` (default ``"both"``; duplication
        defaults to ``"s2c"`` — see the module docstring).
    ``delay_ms``
        For ``frame_delay``: the added latency (default: drawn from
        1–20 ms per injection).
    ``max_injections``
        Budget per clause: after this many injections the clause goes
        quiet (default: unlimited).  The fault-plan minimizer and bounded
        chaos runs use budgets to keep schedules finite.

    Injection counts accumulate in :attr:`counts` for assertions and the
    chaos benchmark.
    """

    def __init__(
        self,
        upstream: str,
        plan: FaultPlan,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        kind, _ = parse_address(upstream)  # validate early
        if kind != "tcp":
            raise ServiceError("ChaosProxy relays TCP addresses only")
        self.upstream = upstream
        self.plan = plan
        self.host = host
        self.port = port
        self._clauses: List[Tuple[int, object]] = [
            (index, clause)
            for index, clause in plan.clauses_for(DOMAIN_SERVICE)
            if clause.kind.startswith("frame_")
        ]
        #: One live random stream per clause — deterministic given the plan,
        #: shared across every connection the proxy carries.
        self._rngs = {index: plan.rng_for(index) for index, _ in self._clauses}
        #: Injections so far per clause index (enforces ``max_injections``).
        self._injected = {index: 0 for index, _ in self._clauses}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        #: Injections by fault kind (e.g. ``{"frame_drop": 3}``).
        self.counts: Dict[str, int] = {}
        #: Connections accepted since start.
        self.connections = 0

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening endpoint and begin relaying."""
        if self._server is not None:
            raise ServiceError("proxy already started")
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, limit=_PROXY_LIMIT
        )

    @property
    def address(self) -> str:
        """The client-facing ``HOST:PORT`` (resolves ``port=0``)."""
        if self._server is None:
            raise ServiceError("proxy is not started")
        sock = self._server.sockets[0]
        return format_address("tcp", (self.host, sock.getsockname()[1]))

    async def stop(self) -> None:
        """Close the listener and sever every relayed connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle(self, client_reader, client_writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.connections += 1
        upstream_writer = None
        pumps: List[asyncio.Task] = []
        try:
            _kind, (host, port) = parse_address(self.upstream)
            upstream_reader, upstream_writer = await asyncio.open_connection(
                host, port, limit=_PROXY_LIMIT
            )
            done = asyncio.Event()
            pumps = [
                asyncio.create_task(
                    self._pump(client_reader, upstream_writer, "c2s", done)
                ),
                asyncio.create_task(
                    self._pump(upstream_reader, client_writer, "s2c", done)
                ),
            ]
            # One closed (or faulted) direction tears down the whole relay:
            # half-open proxied connections would mask the fault from the
            # side that still believes the stream is healthy.
            await done.wait()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # stop() cancels relays.  The handler returns instead of
            # re-raising: on Python 3.10 and 3.11 the done-callback that
            # asyncio.start_server attaches logs a CancelledError traceback
            # for every handler task that ends cancelled.
            pass
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            self._conn_tasks.discard(task)
            for writer in (client_writer, upstream_writer):
                if writer is None:
                    continue
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass

    async def _pump(self, reader, writer, direction: str, done) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                chunks, close, delay_s = self._inject(direction, line)
                if delay_s > 0:
                    # Order-preserving lag: this pump is the only writer in
                    # its direction, so sleeping here delays without
                    # reordering.
                    await asyncio.sleep(delay_s)
                for chunk in chunks:
                    writer.write(chunk)
                if chunks:
                    await writer.drain()
                if close:
                    return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            done.set()

    def _inject(self, direction: str, line: bytes):
        """Offer one frame to every clause; returns (chunks, close, delay_s)."""
        chunks: List[bytes] = [line]
        delay_s = 0.0
        for index, clause in self._clauses:
            default_direction = (
                "s2c" if clause.kind == "frame_duplicate" else "both"
            )
            clause_direction = clause.param("direction", default_direction)
            if clause_direction not in ("both", direction):
                continue
            budget = clause.param("max_injections")
            if budget is not None and self._injected[index] >= int(budget):
                continue
            rng = self._rngs[index]
            probability = float(
                clause.param("probability", DEFAULT_FAULT_PROBABILITY)
            )
            if rng.random() >= probability:
                continue
            kind = clause.kind
            self._injected[index] += 1
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if kind == "frame_drop":
                return [], True, delay_s
            if kind == "frame_truncate":
                cut = max(1, int(rng.random() * max(1, len(line) - 1)))
                return [line[:cut]], True, delay_s
            if kind == "frame_corrupt":
                damaged = bytearray(line)
                # 0xff can never appear in UTF-8, so the receiver's decoder
                # always detects the damage instead of parsing garbage.
                damaged[rng.randrange(max(1, len(damaged) - 1))] = 0xFF
                return [bytes(damaged)], True, delay_s
            if kind == "frame_delay":
                delay_s += (
                    float(clause.param("delay_ms", rng.uniform(1.0, 20.0)))
                    / 1000.0
                )
            elif kind == "frame_duplicate" and b'"type":"window"' in line:
                # Only window frames: they are the one frame type clients
                # deduplicate (by index), so a duplicate is survivable.
                chunks = chunks + [line]
        return chunks, False, delay_s


class WorkerChaos:
    """Scripted process-level faults against a :class:`WorkerPool`.

    Consumes the ``worker_*`` clauses of the plan; :meth:`run` applies them
    all concurrently and returns when the last one has finished.  Clause
    params (all optional, unpinned values drawn per clause from the plan's
    deterministic stream):

    ``at_s``
        Seconds after :meth:`run` starts (default: uniform over the first
        half of ``horizon_s``).
    ``worker``
        Worker id to target (default: random live worker at fire time).
    ``duration_s``
        Stall/slowdown length (default: 0.05–0.2 s).
    ``duty``
        For ``worker_slow``: fraction of each 20 ms cycle spent stopped
        (default 0.5).

    ``SIGKILL`` exercises snapshot+replay failover; ``SIGSTOP`` stalls
    exercise the recovery/ready timeouts without a death event; duty-cycle
    slowdowns exercise backpressure under a degraded worker.
    """

    def __init__(self, pool, plan: FaultPlan, *, horizon_s: float = 1.0):
        if horizon_s <= 0:
            raise ServiceError(f"horizon_s must be positive, got {horizon_s!r}")
        self.pool = pool
        self.plan = plan
        self.horizon_s = horizon_s
        self._clauses = [
            (index, clause)
            for index, clause in plan.clauses_for(DOMAIN_SERVICE)
            if clause.kind.startswith("worker_")
        ]
        #: Applied faults by kind (misfires on vanished pids not counted).
        self.counts: Dict[str, int] = {}

    async def run(self) -> Dict[str, int]:
        """Fire every worker clause on its schedule; returns :attr:`counts`."""
        if self._clauses:
            await asyncio.gather(
                *(self._apply(index, clause) for index, clause in self._clauses)
            )
        return self.counts

    # ------------------------------------------------------------------
    def _victim(self, clause, rng) -> Optional[int]:
        pids = self.pool.worker_pids()
        if not pids:
            return None
        worker = clause.param("worker")
        if worker is not None:
            return pids.get(int(worker))
        return pids[rng.choice(sorted(pids))]

    async def _apply(self, index: int, clause) -> None:
        rng = self.plan.rng_for(index)
        at_s = float(clause.param("at_s", rng.uniform(0.0, self.horizon_s * 0.5)))
        duration_s = float(clause.param("duration_s", rng.uniform(0.05, 0.2)))
        await asyncio.sleep(at_s)
        pid = self._victim(clause, rng)
        if pid is None:
            return
        try:
            if clause.kind == "worker_kill":
                os.kill(pid, signal.SIGKILL)
            elif clause.kind == "worker_stall":
                os.kill(pid, signal.SIGSTOP)
                try:
                    await asyncio.sleep(duration_s)
                finally:
                    self._resume(pid)
            elif clause.kind == "worker_slow":
                duty = min(max(float(clause.param("duty", 0.5)), 0.0), 1.0)
                cycle_s = 0.02
                elapsed = 0.0
                while elapsed < duration_s:
                    os.kill(pid, signal.SIGSTOP)
                    try:
                        await asyncio.sleep(cycle_s * duty)
                    finally:
                        self._resume(pid)
                    await asyncio.sleep(cycle_s * (1.0 - duty))
                    elapsed += cycle_s
            else:  # pragma: no cover - registry and this dispatch move together
                raise ServiceError(
                    f"service clause {clause.kind!r} is not a worker fault"
                )
        except ProcessLookupError:
            return  # already dead (e.g. a kill raced a stall): nothing to do
        self.counts[clause.kind] = self.counts.get(clause.kind, 0) + 1

    @staticmethod
    def _resume(pid: int) -> None:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
