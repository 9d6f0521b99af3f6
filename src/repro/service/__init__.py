"""The audit service: concurrent trace sessions over sockets, with resume.

This package turns the single-shot verification entry points into a
long-running server (the "serving" layer of the roadmap): an asyncio
:class:`AuditServer` multiplexes many concurrent JSONL trace sessions — one
:class:`~repro.engine.streaming.StreamSession` of incremental checkers per
client — over TCP and/or a unix socket, applies per-session backpressure
through bounded queues, streams rolling window verdicts back while each
trace is still arriving, and (with a :class:`CheckpointStore` attached)
persists sessions so a crash or restart resumes them with verdicts identical
to an uninterrupted run.  With ``workers=N`` each session runs on one
:class:`WorkerPool` process, placed on the worker homing the fewest live
sessions — same protocol, same verdicts, multiple cores.

Entry points:

* ``repro serve`` / :class:`AuditServer` — run the service;
* ``repro verify --remote ADDR`` / :func:`verify_remote` — stream a trace to
  a server and get back the same per-register results a local
  :func:`~repro.core.api.verify_trace` would produce;
* :class:`AuditClient` — the async client the above is built on.
"""

from .chaos import ChaosProxy, WorkerChaos
from .checkpoint import CheckpointStore
from .client import AuditClient, RemoteReport, verify_remote
from .pool import PooledAuditSession, WorkerPool
from .protocol import parse_address
from .resilient import ResilientAuditClient, RetryPolicy
from .server import AuditServer
from .session import AuditSession, SessionConfig

__all__ = [
    "AuditServer",
    "AuditClient",
    "AuditSession",
    "SessionConfig",
    "ChaosProxy",
    "CheckpointStore",
    "RemoteReport",
    "ResilientAuditClient",
    "RetryPolicy",
    "verify_remote",
    "parse_address",
    "WorkerPool",
    "PooledAuditSession",
    "WorkerChaos",
]
