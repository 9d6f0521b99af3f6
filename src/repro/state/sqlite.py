"""SQLite state store: one WAL-mode database per service directory.

All namespaces share one ``state.db`` with a single ``kv`` table keyed on
``(namespace, key)``.  The database runs in write-ahead-log mode —
concurrent readers never block the writer, and commits are one sequential
WAL append instead of a page-spread rewrite — with ``synchronous=FULL`` so
every committed put survives power loss (``durable=False`` at construction
relaxes that to ``NORMAL``: consistent after power loss, but the last few
commits may be rolled back).

Compared to the file-per-key backend this trades human-greppable files for
one inode, transactional multi-put potential, and much cheaper small-blob
churn (checkpoint journal deltas) on filesystems where creating and
fsyncing thousands of tiny files is slow.

The connection is shared across threads (the audit server writes
checkpoints from ``asyncio.to_thread``) behind a lock; SQLite's own file
locking makes cross-process sharing safe, if slow — the intended topology
is one store per service process, as with every backend.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import List, Union

from ..core.errors import CorruptStateError, StateError
from .base import STATE_BACKENDS, StateStore

__all__ = ["SqliteStateStore"]

_DB_NAME = "state.db"


class SqliteStateStore(StateStore):
    """All state in one WAL-mode SQLite database (the ``sqlite`` backend)."""

    backend = "sqlite"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        durable: bool = True,
        page_size: int = 0,
    ):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _DB_NAME
        self.durable = durable
        self.page_size = int(page_size)
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection = None  # set by _open
        self._open()

    def _open(self) -> None:
        try:
            conn = sqlite3.connect(str(self.path), check_same_thread=False)
            if self.page_size:
                # Must precede WAL mode (page size is frozen once the WAL
                # exists); the durability tests use tiny pages so the
                # every-byte truncation sweep stays fast.
                conn.execute(f"PRAGMA page_size={self.page_size}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                "PRAGMA synchronous=" + ("FULL" if self.durable else "NORMAL")
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS kv ("
                " namespace TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " blob BLOB NOT NULL,"
                " PRIMARY KEY (namespace, key))"
            )
            conn.commit()
        except sqlite3.DatabaseError as exc:
            # A torn or foreign file where the database should be: surface the
            # typed never-partial-state error, not a backend-specific one.
            raise CorruptStateError(
                f"cannot open state database {self.path}: {exc}"
            ) from exc
        self._conn = conn

    # ------------------------------------------------------------------
    def put(self, namespace: str, key: str, blob: bytes, *, durable: bool = True) -> None:
        try:
            with self._lock:
                self._conn.execute(
                    "INSERT INTO kv (namespace, key, blob) VALUES (?, ?, ?)"
                    " ON CONFLICT(namespace, key) DO UPDATE SET blob=excluded.blob",
                    (namespace, key, sqlite3.Binary(blob)),
                )
                self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise StateError(
                f"cannot write state entry {key!r} ({namespace}): {exc}"
            ) from exc
        self.puts += 1
        self.bytes_written += len(blob)

    def get(self, namespace: str, key: str) -> bytes:
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT blob FROM kv WHERE namespace=? AND key=?",
                    (namespace, key),
                ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise CorruptStateError(
                f"cannot read state entry {key!r} ({namespace}): {exc}"
            ) from exc
        if row is None:
            raise self._missing(namespace, key)
        blob = bytes(row[0])
        self.gets += 1
        self.bytes_read += len(blob)
        return blob

    def contains(self, namespace: str, key: str) -> bool:
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT 1 FROM kv WHERE namespace=? AND key=?",
                    (namespace, key),
                ).fetchone()
        except sqlite3.DatabaseError as exc:
            raise CorruptStateError(f"cannot query state database: {exc}") from exc
        return row is not None

    def delete(self, namespace: str, key: str) -> bool:
        try:
            with self._lock:
                cursor = self._conn.execute(
                    "DELETE FROM kv WHERE namespace=? AND key=?", (namespace, key)
                )
                self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise StateError(
                f"cannot delete state entry {key!r} ({namespace}): {exc}"
            ) from exc
        return cursor.rowcount > 0

    def keys(self, namespace: str) -> List[str]:
        try:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT key FROM kv WHERE namespace=? ORDER BY key",
                    (namespace,),
                ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise CorruptStateError(f"cannot query state database: {exc}") from exc
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Fold the WAL back into the main database file."""
        try:
            with self._lock:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.DatabaseError as exc:  # pragma: no cover - exotic
            raise StateError(f"cannot checkpoint state database: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.DatabaseError:
                    pass
                self._conn.close()
                self._conn = None


STATE_BACKENDS["sqlite"] = SqliteStateStore
