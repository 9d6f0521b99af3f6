"""Durable session checkpoints for the audit service: a base and a journal.

A session's checkpoint is a **base** followed by a **journal** of
**deltas**, both produced by
:meth:`repro.service.session.AuditSession.checkpoint_payload`:

* the base is a full payload — the complete engine-session snapshot
  (checker buffers, cadence state, monitor indexes, open-window buffer,
  closed-window timeline) plus the session's own accounting;
* a delta holds the operations fed and the window frames sent since the
  previous persisted save, plus a small header (checkpoint number, the
  base it extends, ``ops_fed``, elapsed time).

The session decides which one a save is (full on its first save and on
every :data:`~repro.service.session.FOLD_EVERY`-th); this store files them.
Saving a full payload replaces the session's base and then drops its older
deltas.  A delta is written as its own record, keyed by the session id, a
digest of the base bytes it extends, and its checkpoint number.
:meth:`CheckpointStore.load` returns the base with its contiguous deltas
under ``"journal"``; resuming restores the base and replays the deltas
through the normal feed path, which yields verdicts identical to an
uninterrupted run (``tests/test_checkpoint.py``, ``tests/test_journal.py``).
Deltas filed under another digest — an older base, an earlier session that
reused the id, a crash between a fold and its deletes — are ignored.  A gap
in the numbering, or a record that does not unpickle to a mapping, raises
:class:`~repro.core.errors.CorruptCheckpointError`.

Storage goes through the pluggable :mod:`repro.state` backends (``json`` —
one fsync-ed file per record, the historical layout — ``sqlite`` or
``segments``), selected by ``repro serve --state-backend``.  The
interchange claim holds per record: every backend stores the *same pickled
bytes* under the same key for each base and each delta, so a directory can
be migrated by re-putting every record of both namespaces.  Writes are
atomic and, by default, durable: each blob is flushed and fsync-ed before
it becomes visible, and session identifiers are quoted/escaped by the
backend so arbitrary client-chosen ids cannot escape the store directory.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core.errors import CorruptCheckpointError, ServiceError, StateError
from ..state import DEFAULT_STATE_BACKEND, StateStore, open_state_store

__all__ = ["CheckpointStore", "SESSIONS_NAMESPACE", "JOURNAL_NAMESPACE"]

#: State-store namespace holding each session's base checkpoint payload.
SESSIONS_NAMESPACE = "sessions"
#: State-store namespace holding the journal deltas that extend the bases.
JOURNAL_NAMESPACE = "session-journal"
#: Joins session id, base digest and checkpoint number into a journal key.
_SEP = "\x1f"


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _unpickle(session_id: str, blob: bytes, what: str) -> Dict:
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # any failure to unpickle means an unreadable blob
        raise CorruptCheckpointError(
            f"cannot read the {what} of session {session_id!r}: {exc!r}"
        ) from exc
    if not isinstance(payload, dict):
        raise CorruptCheckpointError(
            f"the {what} of session {session_id!r} holds a "
            f"{type(payload).__name__}, not a checkpoint payload"
        )
    return payload


class CheckpointStore:
    """Per-session checkpoint persistence over a :class:`StateStore` backend.

    Construct with a directory and a backend name, or wrap an existing
    store with ``CheckpointStore(store=...)``.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        *,
        backend: str = DEFAULT_STATE_BACKEND,
        store: Optional[StateStore] = None,
    ):
        if store is not None:
            self.store = store
            self._owns_store = False
        else:
            if directory is None:
                raise ServiceError("CheckpointStore needs a directory or a store")
            self.store = open_state_store(backend, directory)
            self._owns_store = True
        self.backend = self.store.backend
        self.directory = Path(getattr(self.store, "directory", directory or "."))
        #: Session id -> (digest, checkpoint number) of the base this store
        #: last wrote for it: the key prefix of the deltas that extend it.
        self._heads: Dict[str, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    def path_for(self, session_id: str) -> Path:
        """The file a session's base persists to (``json`` backend layout)."""
        return self._path(SESSIONS_NAMESPACE, str(session_id))

    def _path(self, namespace: str, key: str) -> Path:
        if hasattr(self.store, "path_for"):
            return self.store.path_for(namespace, key)
        # Single-container backends have no per-record file; point at the
        # container so error messages and tooling still name a real path.
        return Path(getattr(self.store, "path", self.directory))

    def session_ids(self) -> List[str]:
        """Identifiers of every checkpointed session, sorted."""
        return self.store.keys(SESSIONS_NAMESPACE)

    def __contains__(self, session_id: str) -> bool:
        return self.store.contains(SESSIONS_NAMESPACE, str(session_id))

    def _journal(self, session_id: str) -> Iterator[Tuple[str, int, str]]:
        """``(base digest, checkpoint number, key)`` of a session's deltas."""
        for key in self.store.keys(JOURNAL_NAMESPACE):
            parts = key.rsplit(_SEP, 2)
            if len(parts) == 3 and parts[0] == session_id and parts[2].isdigit():
                yield parts[1], int(parts[2]), key

    def _drop_deltas(self, session_id: str, keep: Optional[str] = None) -> None:
        for digest, _number, key in list(self._journal(session_id)):
            if digest != keep:
                self.store.delete(JOURNAL_NAMESPACE, key)

    # ------------------------------------------------------------------
    def save(self, session_id: str, payload: Dict) -> Path:
        """Persist one checkpoint payload atomically and durably.

        A full payload becomes the session's base, and the deltas of older
        bases are dropped once it has landed.  A delta (a payload naming
        the ``base`` it extends) is written as its own journal record.
        Returns the path of the record written.
        """
        session_id = str(session_id)
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if payload.get("base") is None:
                self.store.put(SESSIONS_NAMESPACE, session_id, blob)
                digest = _digest(blob)
                self._heads[session_id] = (digest, payload.get("checkpoints", 0))
                self._drop_deltas(session_id, keep=digest)
                return self.path_for(session_id)
            head = self._heads.get(session_id)
            if head is None or head[1] != payload["base"]:
                raise ServiceError(
                    f"delta {payload.get('checkpoints')} extends base "
                    f"{payload['base']}, which this store did not write last"
                )
            key = _SEP.join((session_id, head[0], f"{payload['checkpoints']:010d}"))
            self.store.put(JOURNAL_NAMESPACE, key, blob)
            return self._path(JOURNAL_NAMESPACE, key)
        except (StateError, pickle.PickleError, TypeError, ValueError, AttributeError) as exc:
            # pickle failures (unpicklable payload member) and I/O failures
            # alike must surface as ServiceError: the server's error handling
            # relies on this contract to answer in-band instead of dying.
            raise ServiceError(
                f"cannot write checkpoint for session {session_id!r}: {exc}"
            ) from exc

    def raw(self, session_id: str) -> bytes:
        """The stored base pickle bytes — what the interchange tests compare."""
        try:
            return self.store.get(SESSIONS_NAMESPACE, str(session_id))
        except StateError as exc:
            raise ServiceError(str(exc)) from exc

    def load(self, session_id: str) -> Dict:
        """Load a session's base payload, its deltas under ``"journal"``.

        Raises :class:`ServiceError` when there is no checkpoint and
        :class:`CorruptCheckpointError` when the base or a delta cannot be
        read or the journal has a gap.
        """
        session_id = str(session_id)
        if session_id not in self:
            raise ServiceError(
                f"no checkpoint for session {session_id!r} in {self.directory}"
            )
        try:
            blob = self.store.get(SESSIONS_NAMESPACE, session_id)
            payload = _unpickle(session_id, blob, "base checkpoint")
            digest = _digest(blob)
            records = sorted(
                (number, key) for d, number, key in self._journal(session_id)
                if d == digest
            )
            base = payload.get("checkpoints", 0)
            journal = []
            for expected, (number, key) in enumerate(records, start=base + 1):
                if number != expected:
                    raise CorruptCheckpointError(
                        f"the journal of session {session_id!r} has a gap: "
                        f"delta {expected} is missing before delta {number}"
                    )
                delta = _unpickle(
                    session_id, self.store.get(JOURNAL_NAMESPACE, key), f"delta {number}"
                )
                if delta.get("base") != base or delta.get("checkpoints") != number:
                    raise CorruptCheckpointError(
                        f"delta {number} of session {session_id!r} is not "
                        f"delta {number} of base {base}"
                    )
                journal.append(delta)
        except (StateError, TypeError) as exc:  # TypeError: a non-int number
            error = ServiceError if type(exc) is StateError else CorruptCheckpointError
            raise error(
                f"cannot read checkpoint for session {session_id!r}: {exc}"
            ) from exc
        return {**payload, "journal": journal} if journal else payload

    def discard(self, session_id: str) -> bool:
        """Delete a session's base and journal; returns whether a base existed."""
        session_id = str(session_id)
        self._heads.pop(session_id, None)
        existed = self.store.delete(SESSIONS_NAMESPACE, session_id)
        self._drop_deltas(session_id)
        return existed

    def close(self) -> None:
        """Close the underlying store if this facade opened it."""
        if self._owns_store:
            self.store.close()
