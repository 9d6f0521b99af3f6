"""Wire protocol of the audit service.

The session protocol is newline-delimited JSON over a byte stream (TCP or a
unix socket), deliberately shaped so that **a JSONL trace file is a valid
message body**: after one ``hello`` control frame, the client sends operation
records in exactly the format :func:`repro.io.formats.dump_jsonl` writes, and
may interleave further control frames (``checkpoint``, ``stats``, ``end``) on
the same channel.  A frame is any JSON object carrying a ``"type"`` field and
no ``"op_type"`` field; everything else is an operation record.

Client → server frames::

    {"type": "hello", "session": ID, "k": 2, "algorithm": "auto",
     "window": {"mode": "count", "size": 64, "overlap": 0},
     "resume": false, "witness": false}
    {"type": "checkpoint"}          # force a checkpoint now
    {"type": "stats"}               # ask for the service-level report
    {"type": "end"}                 # end of stream -> final report

Server → client frames::

    {"type": "welcome", "session": ID, "resumed": bool, "ops_restored": N}
    {"type": "window", "session": ID, "index": I, "ops": N, "alarms": [...],
     "verdicts": [[key, verdict], ...]}
    {"type": "checkpointed", "session": ID, "ops": N}
    {"type": "stats", "sessions": N, "active": N, "ops": N, "alarms": N,
     "uptime_s": S}
    {"type": "report", "session": ID, "k": K, "ops": N, "windows": N,
     "results": [[key, result], ...], "elapsed_s": S}
    {"type": "error", "error": MESSAGE, "code": CODE, "retryable": bool}

Error frames may carry a machine-readable ``code`` (``"overloaded"``,
``"idle_timeout"``, ``"crash_loop"``, ...) and a ``retryable`` flag;
:func:`error_to_exception` maps them onto the typed
:class:`~repro.core.errors.ServiceError` hierarchy so clients can branch on
the exception class instead of parsing messages.

Verdict/result payloads are produced by :func:`result_to_dict` /
:func:`verdict_to_dict` and decoded by their ``*_from_dict`` duals.  Register
keys travel as JSON values inside two-element ``[key, payload]`` lists (JSON
object keys must be strings, which would corrupt non-string register names);
:func:`hashable_key` restores decoded keys to hashable form.
"""

from __future__ import annotations

import json
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..core.errors import (
    CorruptCheckpointError,
    RetryableServiceError,
    ServerDraining,
    ServerOverloaded,
    ServiceError,
    SessionBusy,
    SessionIdleTimeout,
    WorkerCrashLoopError,
)
from ..core.result import StreamVerdict, VerificationResult
from ..io.formats import operation_from_dict, operation_to_dict

__all__ = [
    "encode_frame",
    "decode_frame",
    "error_frame",
    "error_to_exception",
    "result_to_dict",
    "result_from_dict",
    "verdict_to_dict",
    "verdict_from_dict",
    "results_to_pairs",
    "results_from_pairs",
    "hashable_key",
    "parse_address",
    "format_address",
    "MAX_FRAME_BYTES",
]

#: Longest frame the service will read, in bytes (guards the line buffer).
MAX_FRAME_BYTES = 1 << 20


def encode_frame(frame: Dict) -> bytes:
    """Encode one frame as a newline-terminated UTF-8 JSON line."""
    return (json.dumps(frame, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_frame(line: Union[str, bytes]) -> Dict:
    """Decode one frame line; raises :class:`ServiceError` on malformed input."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(f"malformed protocol frame: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ServiceError(
            f"protocol frames must be JSON objects with a 'type' field, got {frame!r}"
        )
    return frame


#: Error codes with a dedicated exception class (everything else maps to the
#: base :class:`ServiceError`, or :class:`RetryableServiceError` when the
#: frame says retrying may help).
_ERROR_CLASSES = {
    ServerOverloaded.code: ServerOverloaded,
    SessionIdleTimeout.code: SessionIdleTimeout,
    SessionBusy.code: SessionBusy,
    WorkerCrashLoopError.code: WorkerCrashLoopError,
    CorruptCheckpointError.code: CorruptCheckpointError,
}


def error_frame(
    message: str,
    *,
    code: str = "",
    retryable: bool = False,
    session: Optional[str] = None,
) -> Dict:
    """Build one ``error`` frame, with optional code/retryable/session tags."""
    frame: Dict = {"type": "error", "error": message}
    if code:
        frame["code"] = code
    if retryable:
        frame["retryable"] = True
    if session is not None:
        frame["session"] = session
    return frame


def error_to_exception(frame: Dict) -> ServiceError:
    """Map a received ``error`` or ``draining`` frame to a typed exception.

    ``draining`` frames become :class:`~repro.core.errors.ServerDraining`
    carrying the resume token; ``error`` frames pick their class by ``code``
    (falling back on the ``retryable`` flag, then the plain base class).
    """
    if frame.get("type") == "draining":
        return ServerDraining(
            "server is draining; reconnect with resume once it restarts",
            session=frame.get("session"),
            ops=frame.get("ops", 0),
            checkpoints=frame.get("checkpoints", 0),
            resumable=frame.get("resumable", False),
        )
    message = str(frame.get("error", "unknown server error"))
    code = str(frame.get("code", ""))
    cls = _ERROR_CLASSES.get(code)
    if cls is not None:
        return cls(message)
    if frame.get("retryable"):
        exc = RetryableServiceError(message)
        exc.code = code
        return exc
    exc = ServiceError(message)
    exc.code = code
    return exc


def hashable_key(key) -> Hashable:
    """Make a JSON-decoded register key hashable (lists become tuples)."""
    if isinstance(key, list):
        return tuple(hashable_key(item) for item in key)
    return key


# ----------------------------------------------------------------------
# Results and verdicts
# ----------------------------------------------------------------------
def result_to_dict(result: VerificationResult, *, witness: bool = False) -> Dict:
    """Serialise a :class:`VerificationResult` for the wire.

    The witness (a full total order over the register's operations) is
    included only on request — it is O(register size) and most consumers
    only want the verdict.
    """
    record = {
        "ok": result.is_k_atomic,
        "k": result.k,
        "algorithm": result.algorithm,
        "reason": result.reason,
    }
    if result.stats:
        record["stats"] = result.stats
    if witness and result.witness is not None:
        record["witness"] = [operation_to_dict(op) for op in result.witness]
    return record


def result_from_dict(record: Dict) -> VerificationResult:
    """Decode :func:`result_to_dict` output back into a result object."""
    try:
        witness = record.get("witness")
        return VerificationResult(
            is_k_atomic=bool(record["ok"]),
            k=int(record["k"]),
            algorithm=record["algorithm"],
            witness=(
                tuple(operation_from_dict(op) for op in witness)
                if witness is not None
                else None
            ),
            reason=record.get("reason", ""),
            stats=dict(record.get("stats", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed result payload: {record!r}") from exc


def verdict_to_dict(verdict: StreamVerdict) -> Dict:
    """Serialise a mid-stream :class:`StreamVerdict` (checkers emit them witness-free)."""
    record = result_to_dict(verdict.result)
    record["ops_seen"] = verdict.ops_seen
    record["final"] = verdict.final
    return record


def verdict_from_dict(record: Dict) -> StreamVerdict:
    """Decode :func:`verdict_to_dict` output back into a stream verdict."""
    try:
        return StreamVerdict(
            result=result_from_dict(record),
            ops_seen=int(record["ops_seen"]),
            final=bool(record["final"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed verdict payload: {record!r}") from exc


def results_to_pairs(
    results: Dict[Hashable, VerificationResult], *, witness: bool = False
) -> List[Tuple]:
    """Encode a per-register result mapping as ``[key, payload]`` pairs."""
    return [
        [key, result_to_dict(result, witness=witness)]
        for key, result in results.items()
    ]


def results_from_pairs(pairs) -> Dict[Hashable, VerificationResult]:
    """Decode ``[key, payload]`` pairs back to a per-register mapping."""
    return {hashable_key(key): result_from_dict(payload) for key, payload in pairs}


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> Tuple[str, object]:
    """Parse a service address into ``("unix", path)`` or ``("tcp", (host, port))``.

    Accepted forms: ``unix:/run/audit.sock``, ``host:port``, and ``:port``
    (localhost).
    """
    if address.startswith("unix:"):
        path = address[len("unix:") :]
        if not path:
            raise ServiceError("unix address is missing the socket path")
        return ("unix", path)
    host, sep, port_text = address.rpartition(":")
    if not sep:
        raise ServiceError(
            f"address {address!r} is neither 'unix:PATH' nor 'HOST:PORT'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(f"address {address!r} has a non-numeric port") from None
    return ("tcp", (host or "127.0.0.1", port))


def format_address(kind: str, endpoint) -> str:
    """Inverse of :func:`parse_address`, for logs and CLI output."""
    if kind == "unix":
        return f"unix:{endpoint}"
    host, port = endpoint
    return f"{host}:{port}"
