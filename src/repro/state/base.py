"""The :class:`StateStore` interface: durable keyed-blob storage backends.

Everything the auditor must not lose across a crash — session checkpoints
and their journals, spilled window timelines — is a small
set of *named binary blobs*.  A :class:`StateStore` is exactly that surface:
a two-level ``(namespace, key) -> bytes`` map with atomic, durable writes,
so every stateful service component persists through one interface and the
backend (plain files, SQLite, log-structured segments) is an operational
choice, not an architectural one.

Namespaces keep unrelated state apart inside one store directory:

=============== =========================================================
namespace        contents
=============== =========================================================
sessions         pickled session checkpoint payloads (one base per session)
session-journal  checkpoint journal deltas extending each session's base
timeline         spilled :class:`WindowReport` entries of long streams
=============== =========================================================

Backends register themselves in :data:`STATE_BACKENDS` (name -> factory) at
import time; :func:`open_state_store` is the single construction point the
service tier, the CLI and the benchmarks all go through.

Durability contract
-------------------
``put`` with ``durable=True`` (the default) must not return until the blob
survives power loss: data is flushed and ``fsync``-ed, and for file-per-key
backends the directory entry is synced too.  ``durable=False`` relaxes this
to process-crash safety (the write is atomic but may be lost on power cut)
for high-churn state whose authority lives elsewhere, such as spilled
timeline entries.  A reader must never observe a torn blob: a partially
written value either loads as the previous value or raises
:class:`~repro.core.errors.CorruptStateError` — the crash-durability suite
(``tests/test_durability.py``) enforces this at every truncation boundary.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Dict, List, Union

from ..core.errors import StateError

__all__ = [
    "StateStore",
    "STATE_BACKENDS",
    "DEFAULT_STATE_BACKEND",
    "available_backends",
    "open_state_store",
    "fsync_directory",
    "write_file_atomic",
]

#: Backend name -> ``factory(directory, **options) -> StateStore``.
#: Populated by the backend modules at import time (see ``__init__``).
STATE_BACKENDS: Dict[str, Callable[..., "StateStore"]] = {}

#: The behaviour-preserving default: one file per key, as pre-1.8 releases.
DEFAULT_STATE_BACKEND = "json"


def available_backends() -> List[str]:
    """Registered backend names, sorted (the CLI's ``--state-backend`` choices)."""
    return sorted(STATE_BACKENDS)


def open_state_store(
    backend: str, directory: Union[str, Path], **options
) -> "StateStore":
    """Open (creating if needed) a state store of the named backend.

    ``backend`` is one of :func:`available_backends` — currently ``json``
    (file per key), ``sqlite`` (one WAL-mode database) and ``segments``
    (log-structured segment files with footer indexes and segment-level
    eviction).  All backends store the same bytes for the same
    ``(namespace, key)``, so stored payloads are byte-interchangeable across
    backends.
    """
    try:
        factory = STATE_BACKENDS[backend]
    except KeyError:
        raise StateError(
            f"unknown state-store backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory(directory, **options)


# ----------------------------------------------------------------------
# Durable file primitives (shared by the file-based backends and .rcol)
# ----------------------------------------------------------------------
def fsync_directory(directory: Union[str, Path]) -> None:
    """``fsync`` a directory so a just-renamed/created entry survives power loss.

    ``os.replace`` makes a write atomic against *process* crashes, but the
    new directory entry itself lives in the page cache until the directory
    inode is synced — without this call a power cut after the rename can
    resurrect the old file (or no file at all).  Platforms whose directory
    handles refuse ``fsync`` (some network filesystems, Windows) are skipped.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs that cannot sync directories
        pass
    finally:
        os.close(fd)


def write_file_atomic(
    path: Path, blob: bytes, *, durable: bool = True, tmp_suffix: str = ".tmp"
) -> None:
    """Write ``blob`` to ``path`` atomically (tmp file + ``os.replace``).

    With ``durable=True`` the temp file is flushed and ``fsync``-ed *before*
    the rename and the directory is synced *after* it, so a crash at any
    point leaves either the complete old file or the complete new one — the
    fix for the torn/lost-checkpoint bug where a rename without fsync could
    surface an empty or stale file after power loss.
    """
    tmp = path.with_name(path.name + tmp_suffix)
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if durable:
            fsync_directory(path.parent)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    else:
        # os.replace consumed the temp file; nothing to clean up.
        pass


# ----------------------------------------------------------------------
# The interface
# ----------------------------------------------------------------------
class StateStore(ABC):
    """Durable ``(namespace, key) -> bytes`` storage.

    Keys and namespaces are arbitrary strings (backends are responsible for
    making hostile keys filesystem-safe); values are opaque byte blobs.
    Implementations must make :meth:`put` atomic — a reader never sees a
    torn blob — and, with ``durable=True``, synced to stable storage before
    returning.  Stores are context managers; :meth:`close` is idempotent.
    """

    #: The registry name of this backend (``json``/``sqlite``/``segments``).
    backend: str = "?"

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- core mapping ----------------------------------------------------
    @abstractmethod
    def put(self, namespace: str, key: str, blob: bytes, *, durable: bool = True) -> None:
        """Store ``blob`` under ``(namespace, key)``, atomically replacing."""

    @abstractmethod
    def get(self, namespace: str, key: str) -> bytes:
        """Return the stored blob; raises :class:`StateError` when absent and
        :class:`~repro.core.errors.CorruptStateError` when unreadable."""

    @abstractmethod
    def contains(self, namespace: str, key: str) -> bool:
        """Whether ``(namespace, key)`` currently holds a value."""

    @abstractmethod
    def delete(self, namespace: str, key: str) -> bool:
        """Remove the entry; returns whether one existed."""

    @abstractmethod
    def keys(self, namespace: str) -> List[str]:
        """All keys of one namespace, sorted."""

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        """Force buffered state to stable storage (no-op where puts already sync)."""

    def close(self) -> None:
        """Release file handles/mappings; the store must reopen cleanly."""

    def stats(self) -> Dict[str, int]:
        """Operation counters (benchmarks and tests read these)."""
        return {
            "puts": self.puts,
            "gets": self.gets,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }

    # -- helpers ---------------------------------------------------------
    def _missing(self, namespace: str, key: str) -> StateError:
        return StateError(
            f"no state entry {key!r} in namespace {namespace!r} "
            f"({self.backend} backend)"
        )

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} backend={self.backend}>"
