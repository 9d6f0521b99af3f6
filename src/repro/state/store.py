"""The :class:`StateStore`: durable keyed-blob storage, one file per key.

Everything the auditor must not lose across a crash — session checkpoints
and their journals, spilled window timelines — is a small set of *named
binary blobs*.  A :class:`StateStore` is exactly that surface: a two-level
``(namespace, key) -> bytes`` map with atomic, durable writes, so every
stateful component persists through one class.

Namespaces keep unrelated state apart inside one store directory:

=============== =========================================================
namespace        contents
=============== =========================================================
sessions         pickled session checkpoint payloads (one base per session)
session-journal  checkpoint journal deltas extending each session's base
timeline         spilled :class:`WindowReport` entries of long streams
=============== =========================================================

On-disk layout (compatible with pre-1.8 checkpoint directories)::

    <directory>/<quoted-key>.ckpt               # the "sessions" namespace
    <directory>/<namespace>/<quoted-key>.blob   # every other namespace

Keys are percent-quoted so arbitrary client-chosen ids cannot escape the
store directory.  The ``sessions`` namespace lives at the top level with
the historical ``.ckpt`` suffix so checkpoint directories written by
earlier releases load unchanged, one greppable file per session.

Durability contract
-------------------
``put`` with ``durable=True`` (the default) does not return until the blob
survives power loss: the temp file is flushed and ``fsync``-ed, renamed
over the entry, and the directory entry is synced too.  ``durable=False``
relaxes this to process-crash safety (the write is atomic but may be lost
on power cut) for high-churn state whose authority lives elsewhere, such
as spilled timeline entries.  A reader never observes a torn blob: a
partially written value either loads as the previous value or raises a
typed error — the crash-durability suite (``tests/test_durability.py``)
enforces this at every truncation boundary.

Opening the store sweeps orphaned ``*.tmp`` files: a crash between
creating the temp file and renaming it leaves one behind, and it is by
construction incomplete, so it must never be loaded as state.  Opening a
directory written by the removed ``sqlite`` or ``segments`` backends
raises :class:`~repro.core.errors.StateError` naming the file, instead of
reading as an empty store.
"""

from __future__ import annotations

import os
import urllib.parse
from pathlib import Path
from typing import Dict, List, Union

from ..core.errors import CorruptStateError, StateError

__all__ = ["StateStore", "fsync_directory", "write_file_atomic"]

#: Suffix of the top-level (``sessions``) namespace — the historical layout.
_SESSION_SUFFIX = ".ckpt"
#: Suffix of namespaced entries.
_BLOB_SUFFIX = ".blob"
_TMP_SUFFIX = ".tmp"
#: The namespace stored at the directory root for backward compatibility.
_ROOT_NAMESPACE = "sessions"
#: Files the removed single-file backends kept at a store's root.
_REMOVED_BACKEND_FILES = (("state.db", "sqlite"), ("seg-*.seg", "segments"))


def _quote(text: str) -> str:
    return urllib.parse.quote(str(text), safe="")


def _unquote(text: str) -> str:
    return urllib.parse.unquote(text)


# ----------------------------------------------------------------------
# Durable file primitives (shared with .rcol)
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


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class StateStore:
    """Durable ``(namespace, key) -> bytes`` storage, one file per entry.

    Keys and namespaces are arbitrary strings; values are opaque byte
    blobs.  :meth:`put` is atomic — a reader never sees a torn blob — and,
    with ``durable=True``, synced to stable storage before returning.
    ``durable=False`` at construction downgrades *every* put to
    crash-atomic-but-unsynced (for tests and scratch stores); per-call
    ``put(..., durable=False)`` does the same for one write.  Stores are
    context managers; :meth:`close` is idempotent.
    """

    def __init__(self, directory: Union[str, Path], *, durable: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for pattern, backend in _REMOVED_BACKEND_FILES:
            found = next(self.directory.glob(pattern), None)
            if found is not None:
                raise StateError(
                    f"{found} was written by the removed {backend!r} state "
                    "backend; this store reads only the one-file-per-key layout"
                )
        self.durable = durable
        self.puts = 0
        self.gets = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.swept_tmp = self._sweep_orphans()

    # ------------------------------------------------------------------
    def _sweep_orphans(self) -> int:
        """Remove ``*.tmp`` files a crash mid-write left behind."""
        removed = 0
        for tmp in self.directory.glob(f"*{_TMP_SUFFIX}"):
            tmp.unlink(missing_ok=True)
            removed += 1
        for sub in self.directory.iterdir():
            if sub.is_dir():
                for tmp in sub.glob(f"*{_TMP_SUFFIX}"):
                    tmp.unlink(missing_ok=True)
                    removed += 1
        return removed

    def path_for(self, namespace: str, key: str) -> Path:
        """The file an entry persists to (quoted, always inside the store)."""
        if namespace == _ROOT_NAMESPACE:
            return self.directory / f"{_quote(key)}{_SESSION_SUFFIX}"
        return self.directory / _quote(namespace) / f"{_quote(key)}{_BLOB_SUFFIX}"

    # -- core mapping ----------------------------------------------------
    def put(self, namespace: str, key: str, blob: bytes, *, durable: bool = True) -> None:
        """Store ``blob`` under ``(namespace, key)``, atomically replacing."""
        path = self.path_for(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            write_file_atomic(
                path, blob, durable=durable and self.durable, tmp_suffix=_TMP_SUFFIX
            )
        except OSError as exc:
            raise StateError(
                f"cannot write state entry {key!r} ({namespace}): {exc}"
            ) from exc
        self.puts += 1
        self.bytes_written += len(blob)

    def get(self, namespace: str, key: str) -> bytes:
        """Return the stored blob; raises :class:`StateError` when absent and
        :class:`~repro.core.errors.CorruptStateError` when unreadable."""
        path = self.path_for(namespace, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise StateError(
                f"no state entry {key!r} in namespace {namespace!r}"
            ) from None
        except OSError as exc:
            raise CorruptStateError(
                f"cannot read state entry {key!r} ({namespace}): {exc}"
            ) from exc
        self.gets += 1
        self.bytes_read += len(blob)
        return blob

    def contains(self, namespace: str, key: str) -> bool:
        """Whether ``(namespace, key)`` currently holds a value."""
        return self.path_for(namespace, key).exists()

    def delete(self, namespace: str, key: str) -> bool:
        """Remove the entry; returns whether one existed."""
        try:
            self.path_for(namespace, key).unlink()
        except FileNotFoundError:
            return False
        return True

    def keys(self, namespace: str) -> List[str]:
        """All keys of one namespace, sorted."""
        if namespace == _ROOT_NAMESPACE:
            root, suffix = self.directory, _SESSION_SUFFIX
        else:
            root, suffix = self.directory / _quote(namespace), _BLOB_SUFFIX
        if not root.is_dir():
            return []
        return sorted(
            _unquote(path.name[: -len(suffix)])
            for path in root.glob(f"*{suffix}")
        )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """No-op: the store holds no open handles between calls."""

    def stats(self) -> Dict[str, int]:
        """Operation counters (benchmarks and tests read these)."""
        return {
            "puts": self.puts,
            "gets": self.gets,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateStore {self.directory}>"
