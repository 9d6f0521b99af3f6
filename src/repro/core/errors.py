"""Exception hierarchy for the k-atomicity-verification library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish malformed inputs (:class:`HistoryError` and its
subclasses) from misuse of the API (:class:`VerificationError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class HistoryError(ReproError):
    """A history violates a structural requirement of the model (Section II)."""


class MalformedOperationError(HistoryError):
    """An operation has an invalid shape (e.g. finish time before start time)."""


class DuplicateValueError(HistoryError):
    """Two writes assign the same value.

    The paper assumes writes are uniquely valued (Section II-C); without that
    assumption even 1-AV is NP-complete, so the library refuses such input
    rather than silently producing an unsound answer.
    """


class AnomalyError(HistoryError):
    """The history contains an anomaly that trivially breaks k-atomicity.

    The two anomalies from Section II-C are a read without a dictating write
    and a read that precedes its dictating write.  The anomaly detector in
    :mod:`repro.core.preprocess` reports them; algorithms raise this error if
    they are handed a history that still contains one.
    """

    def __init__(self, message: str, anomalies=None):
        super().__init__(message)
        #: The list of :class:`repro.core.preprocess.Anomaly` objects found.
        self.anomalies = list(anomalies) if anomalies is not None else []


class VerificationError(ReproError):
    """The verification API was used incorrectly (e.g. unsupported ``k``)."""


class SimulationError(ReproError):
    """The discrete-event simulator was configured inconsistently."""


class ReductionError(ReproError):
    """A problem reduction received an invalid source instance."""


class TraceFormatError(ReproError):
    """A trace file could not be parsed into a history."""


class StateError(ReproError):
    """A durable state-store operation failed (missing entry, backend I/O).

    Raised by the pluggable :mod:`repro.state` backends; the checkpoint
    layer re-wraps it in :class:`ServiceError` so the audit service's
    in-band error contract is unchanged by the choice of backend.
    """


class CorruptStateError(StateError):
    """A stored blob or segment failed validation (torn write, bad checksum).

    The durability contract of :class:`repro.state.StateStore` is that a
    reader never observes partial state: a value interrupted mid-write
    either loads as the previous value or raises this typed error.
    """


class ServiceError(ReproError):
    """The audit service (or its wire protocol) was used incorrectly.

    Service errors carry two wire-visible attributes: ``code``, a short
    machine-readable tag travelling in error frames, and ``retryable``,
    which tells a client whether reconnecting (possibly with ``resume``)
    can succeed — the distinction the self-healing client keys on.
    """

    #: Machine-readable error code for the wire ("" = unspecified).
    code: str = ""
    #: Whether a client may retry the session later.
    retryable: bool = False


class RetryableServiceError(ServiceError):
    """A service error where reconnecting (with backoff) is expected to work."""

    retryable = True


class ServerOverloaded(RetryableServiceError):
    """The server is shedding load; retry after a backoff."""

    code = "overloaded"


class SessionIdleTimeout(RetryableServiceError):
    """The per-session idle watchdog fired; any checkpoint is kept for resume."""

    code = "idle_timeout"


class SessionBusy(RetryableServiceError):
    """The session id is still held by another connection.

    A client that reconnects (with ``resume``) right after a dropped frame
    can reach the server before the old connection's handler has released
    the session; the hold ends when that handler finishes, so retrying after
    a backoff succeeds.
    """

    code = "session_busy"


class CorruptCheckpointError(ServiceError):
    """A stored checkpoint (base or journal delta) cannot be resumed.

    Raised for blobs that do not unpickle, payloads of the wrong shape,
    journals with a sequence gap and replays that do not land where the
    journal says.  Retrying cannot help, so it is not retryable; starting
    the session afresh under the same id replaces the bad checkpoint.
    """

    code = "corrupt_checkpoint"


class WorkerCrashLoopError(ServiceError):
    """A pool worker kept dying on respawn; its sessions fail, not retry.

    Raised instead of spinning when crash-loop detection trips (N respawns
    within T seconds) — the session state is preserved in the parent, but
    the pool refuses to feed the affected worker until it is restarted.
    """

    code = "crash_loop"


class ServerDraining(RetryableServiceError):
    """The server drained this session (graceful shutdown).

    Carries the resume token from the ``draining`` frame: the session id,
    how many operations the server checkpointed, and whether a checkpoint
    store is attached (``resumable``) — everything a client needs to
    reconnect with ``resume: true`` once a replacement server is up.
    """

    code = "draining"

    def __init__(
        self,
        message: str = "server is draining",
        *,
        session=None,
        ops: int = 0,
        checkpoints: int = 0,
        resumable: bool = False,
    ):
        super().__init__(message)
        #: Session id to resume under.
        self.session = session
        #: Operations the server had fed (and checkpointed) at drain time.
        self.ops = int(ops)
        #: Checkpoints the session has persisted.
        self.checkpoints = int(checkpoints)
        #: True iff the server has a checkpoint store to resume from.
        self.resumable = bool(resumable)
