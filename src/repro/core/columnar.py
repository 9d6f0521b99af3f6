"""Columnar (struct-of-arrays) fast path for the verification kernels.

The object model — frozen :class:`~repro.core.operation.Operation` dataclasses
indexed by :class:`~repro.core.history.History` — is the right *public*
contract, but it is a poor *hot-path* representation in CPython: every sweep
pays an attribute lookup (and often a bound-method call) per operation per
pass, and the ``O(n log n + c·n)`` bounds of the paper drown in interpreter
overhead long before the asymptotics matter.

:class:`ColumnarHistory` re-encodes a single-register history as parallel
columns:

* ``start`` / ``finish`` — ``array('d')`` timestamp columns,
* ``is_write`` — a ``bytearray`` of 0/1 flags,
* ``value_id`` / ``client_id`` — interned integer ids with side tables,
* ``op_ids`` / ``weights`` — ``array('q')`` columns,
* ``dictating`` — for each read, the *index* of its dictating write (−1 when
  the value was never written).

Indices follow the canonical history order (start, finish, op id), so index
``i`` corresponds exactly to ``history.operations[i]`` and sorting index lists
ascending reproduces every ``(start, finish, op_id)`` sort in the object
implementation.  The encoding is buildable from a :class:`History` (cached on
the instance via :func:`columnar_of`) or straight from decoded trace rows
without ever materialising ``Operation`` objects
(:meth:`ColumnarHistory.from_rows`); operations are decoded lazily, only when
a caller needs a witness or a NO-reason.

On top of the encoding this module implements the hot kernels as index-based
loops: the Section II-C anomaly scan, cluster/zone construction
(:class:`ClusterArrays`), the Gibbons–Korach forward-overlap and
backward-in-forward sweeps, the FZF Stage-1 chunk decomposition and the
Stage-2 viability check.  Each kernel mirrors its object-path counterpart in
:mod:`repro.algorithms.gk`, :mod:`repro.core.chunks` and
:mod:`repro.algorithms.fzf` step for step — identical verdicts, identical
reason strings, identical stats — so the two paths stay interchangeable and
cross-checkable.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress, repeat
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from . import operation as _operation
from .errors import DuplicateValueError, MalformedOperationError
from .history import History
from .operation import Operation, OpType, trusted_operation
from .zones import Zone

__all__ = [
    "ColumnarHistory",
    "RowColumns",
    "RowsByKey",
    "ClusterArrays",
    "columnar_of",
    "default_enabled",
    "set_default_enabled",
    "gk_violation",
    "chunk_decomposition",
    "fzf_verdict",
    "FZFOutcome",
]

# ----------------------------------------------------------------------
# Global default for the fast path (overridable per verify() call)
# ----------------------------------------------------------------------
_DEFAULT_ENABLED = True


def default_enabled() -> bool:
    """Whether verifiers pick the columnar kernels when not told explicitly."""
    return _DEFAULT_ENABLED


def set_default_enabled(enabled: bool) -> bool:
    """Set the process-wide columnar default; returns the previous value.

    The object path remains the reference implementation; this switch exists
    for benchmarks, parity tests and ``repro verify --no-columnar``.
    """
    global _DEFAULT_ENABLED
    previous = _DEFAULT_ENABLED
    _DEFAULT_ENABLED = bool(enabled)
    return previous


def resolve(columnar: Optional[bool]) -> bool:
    """Resolve a per-call ``columnar`` option against the process default."""
    return _DEFAULT_ENABLED if columnar is None else bool(columnar)


class ColumnarHistory:
    """A single-register history encoded as parallel columns.

    Instances are immutable once built.  ``_ops[i]`` caches the decoded
    :class:`Operation` for index ``i``; when the encoding was built from a
    :class:`History` the whole tuple is present up front, otherwise operations
    are materialised lazily through the trusted constructor.
    """

    __slots__ = (
        "key",
        "n",
        "start",
        "finish",
        "is_write",
        "has_key",
        "value_id",
        "client_id",
        "op_ids",
        "weights",
        "values",
        "clients",
        "write_of_value",
        "dictating",
        "write_ord",
        "writes_idx",
        "_ops",
        "_history",
        "_clusters",
        "_anomalous",
        "_vector",
        "row_of",
    )

    def __init__(self) -> None:  # populated by the classmethod constructors
        self.key: Optional[Hashable] = None
        self.n = 0
        self.start = array("d")
        self.finish = array("d")
        self.is_write = bytearray()
        self.has_key = bytearray()
        self.value_id = array("i")
        self.client_id = array("i")
        self.op_ids = array("q")
        self.weights = array("q")
        self.values: List[Hashable] = []
        self.clients: List[Hashable] = []
        self.write_of_value = array("i")
        self.dictating = array("i")
        self.write_ord = array("i")
        self.writes_idx: List[int] = []
        self._ops: List[Optional[Operation]] = []
        self._history: Optional[History] = None
        self._clusters: Optional[ClusterArrays] = None
        self._anomalous: Optional[bool] = None
        # Derived numpy-side state (cluster/chunk tables), owned by
        # repro.core.vector; None until the vectorized kernels touch this
        # encoding.
        self._vector = None
        # row_of[i] is the input row of canonical index i when the encoding
        # was sorted from file-order columns (from_columns); None otherwise.
        self.row_of: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_history(cls, history: History) -> "ColumnarHistory":
        """Encode an existing (sorted, validated) history into columns.

        Only the kernel columns (timestamps, type flags, interned values, op
        ids) are built eagerly; the decode-only columns (clients, weights,
        per-op key flags) are derived lazily because the operation objects are
        already at hand.
        """
        ops = history.operations
        col = cls()
        col.key = history.key
        col.n = len(ops)
        col._history = history
        col._ops = list(ops)
        col.start = array("d", [op.start for op in ops])
        col.finish = array("d", [op.finish for op in ops])
        write_type = OpType.WRITE
        col.is_write = bytearray(
            1 if op.op_type is write_type else 0 for op in ops
        )
        col.op_ids = array("q", [op.op_id for op in ops])
        # setdefault(v, len(table)) assigns dense ids in first-seen order.
        table: Dict[Hashable, int] = {}
        assign = table.setdefault
        col.value_id = array("i", [assign(op.value, len(table)) for op in ops])
        col.values = list(table)
        col.has_key = None
        col.client_id = None
        col.clients = None
        col.weights = None
        col._finalize()
        return col

    def _ensure_decode_columns(self) -> None:
        """Materialise the columns needed only for decoding/serialisation."""
        if self.weights is not None:
            return
        ops = self._ops  # complete whenever the decode columns are lazy
        self.has_key = bytearray(0 if op.key is None else 1 for op in ops)
        self.weights = array("q", [op.weight for op in ops])
        table: Dict[Hashable, int] = {}
        assign = table.setdefault
        self.client_id = array(
            "i",
            [-1 if op.client is None else assign(op.client, len(table)) for op in ops],
        )
        self.clients = list(table)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[bool, Hashable, float, float, Optional[Hashable], int]],
        *,
        key: Optional[Hashable] = None,
        op_ids: Optional[Sequence[int]] = None,
    ) -> "ColumnarHistory":
        """Build the encoding straight from decoded trace rows.

        Each row is ``(is_write, value, start, finish, client, weight)``.  No
        :class:`Operation` objects are created; rows are validated inline
        (positive duration, positive write weights, uniquely-valued writes)
        and sorted into canonical order.  Fresh operation ids are assigned in
        input order unless ``op_ids`` supplies them per input row.
        """
        rows_by_key = RowsByKey()
        for seq, (w, v, s, f, c, wt) in enumerate(rows):
            if f <= s:
                raise MalformedOperationError(
                    f"operation row {seq} has finish {f!r} <= start {s!r}; "
                    "operations must take a positive amount of time"
                )
            if w and wt < 1:
                raise MalformedOperationError(
                    f"write row {seq} has non-positive weight {wt!r}; "
                    "weights must be positive integers (Section V)"
                )
            rows_by_key.add(key, w, v, s, f, c, wt, seq)
        (part,) = rows_by_key.registers() or [RowColumns(key)]
        part.check_writes()  # an unhashable value raises here
        if op_ids is None:
            # Through the module: a counter rebound by ensure_op_ids_above
            # must be honoured.
            op_ids = _operation.reserve_op_ids(len(part))
        part.op_ids = array("q", op_ids)
        return part.canonical()

    def _finalize(self) -> None:
        """Build the derived index columns (writer table, dictating links)."""
        n = self.n
        is_write = self.is_write
        value_id = self.value_id
        # b"\xff" * 8 decodes to -1 in a signed 8-byte array slot.
        write_of_value = (
            array("i", b"\xff" * (4 * len(self.values))) if self.values else array("i")
        )
        writes_idx: List[int] = []
        write_ord = array("i", bytes(4 * n))
        for i in range(n):
            if is_write[i]:
                vid = value_id[i]
                if write_of_value[vid] != -1:
                    raise DuplicateValueError(
                        f"two writes assign the value {self.values[vid]!r} "
                        f"(operations #{self.op_ids[write_of_value[vid]]} and "
                        f"#{self.op_ids[i]}); the model requires uniquely-valued "
                        "writes (Section II-C)"
                    )
                write_of_value[vid] = i
                write_ord[i] = len(writes_idx)
                writes_idx.append(i)
            else:
                write_ord[i] = -1
        dictating = array("i", bytes(4 * n))
        for i in range(n):
            dictating[i] = i if is_write[i] else write_of_value[value_id[i]]
        self.write_of_value = write_of_value
        self.writes_idx = writes_idx
        self.write_ord = write_ord
        self.dictating = dictating

    # ------------------------------------------------------------------
    # Introspection / decoding
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    @property
    def num_writes(self) -> int:
        """Number of write operations."""
        return len(self.writes_idx)

    def value_of(self, index: int) -> Hashable:
        """The (un-interned) value of the operation at ``index``."""
        return self.values[self.value_id[index]]

    def operation(self, index: int) -> Operation:
        """Decode the operation at ``index``, materialising it lazily."""
        op = self._ops[index]
        if op is None:
            cid = self.client_id[index]
            # float()/int() are no-ops for the array-module columns and
            # normalise numpy scalars from memmap-backed columns, so decoded
            # operations are identical regardless of the column storage.
            op = trusted_operation(
                OpType.WRITE if self.is_write[index] else OpType.READ,
                self.values[self.value_id[index]],
                float(self.start[index]),
                float(self.finish[index]),
                key=self.key if self.has_key[index] else None,
                client=None if cid < 0 else self.clients[cid],
                op_id=int(self.op_ids[index]),
                weight=int(self.weights[index]),
            )
            self._ops[index] = op
        return op

    def operations(self, indices: Optional[Iterable[int]] = None) -> List[Operation]:
        """Decode many operations (all of them when ``indices`` is omitted)."""
        if indices is None:
            indices = range(self.n)
        operation = self.operation
        return [operation(i) for i in indices]

    # ------------------------------------------------------------------
    # Column-level serialisation (the engine's compact shard codec)
    # ------------------------------------------------------------------
    def to_columns(self) -> Tuple:
        """Dump the encoding as a tuple of raw column buffers.

        The result contains only ``bytes`` blobs, ints and the (small)
        interning side tables — no ``Operation`` objects — so pickling it is
        both fast and far more compact than pickling the object graph.
        Columns that are uniform in the common case (all-1 weights, no
        clients, homogeneous per-op key flags) collapse to ``None`` sentinels
        rather than shipping ``n`` identical entries.  The inverse is
        :meth:`from_columns`.
        """
        self._ensure_decode_columns()
        all_default_weights = not any(w != 1 for w in self.weights)
        no_clients = not self.clients
        uniform_key = (
            0
            if not any(self.has_key)
            else (1 if all(self.has_key) else None)
        )
        return (
            self.key,
            self.n,
            self.start.tobytes(),
            self.finish.tobytes(),
            bytes(self.is_write),
            uniform_key if uniform_key is not None else bytes(self.has_key),
            self.value_id.tobytes(),
            None if no_clients else self.client_id.tobytes(),
            self.op_ids.tobytes(),
            None if all_default_weights else self.weights.tobytes(),
            list(self.values),
            None if no_clients else list(self.clients),
        )

    @classmethod
    def from_columns(cls, columns: Tuple) -> "ColumnarHistory":
        """Rebuild an encoding from :meth:`to_columns` output.

        Rows that are not in canonical (start, finish, op id) order — the
        file-order columns of :meth:`RowColumns.to_columns` — are sorted
        here; :attr:`row_of` then maps each canonical index back to its input
        row.
        """
        (
            key,
            n,
            start,
            finish,
            is_write,
            has_key,
            value_id,
            client_id,
            op_ids,
            weights,
            values,
            clients,
        ) = columns
        col = cls()
        col.key = key
        col.n = n
        col._ops = [None] * n
        col.start = array("d")
        col.start.frombytes(start)
        col.finish = array("d")
        col.finish.frombytes(finish)
        col.is_write = bytearray(is_write)
        if isinstance(has_key, int):
            col.has_key = bytearray(n) if has_key == 0 else bytearray(b"\x01" * n)
        else:
            col.has_key = bytearray(has_key)
        col.value_id = array("i")
        col.value_id.frombytes(value_id)
        if client_id is None:
            col.client_id = array("i", b"\xff" * (4 * n))
            col.clients = []
        else:
            col.client_id = array("i")
            col.client_id.frombytes(client_id)
            col.clients = clients
        col.op_ids = array("q")
        col.op_ids.frombytes(op_ids)
        if weights is None:
            col.weights = array("q", [1]) * n if n else array("q")
        else:
            col.weights = array("q")
            col.weights.frombytes(weights)
        col.values = values
        sort_keys = list(zip(col.start, col.finish, col.op_ids))
        order = sorted(range(n), key=sort_keys.__getitem__)
        if order != list(range(n)):
            col._permute(order)
        col._finalize()
        return col

    def _permute(self, order: List[int]) -> None:
        """Reorder every per-operation column so index ``i`` is row ``order[i]``."""
        for name in ("start", "finish", "value_id", "client_id", "op_ids", "weights"):
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, map(column.__getitem__, order)))
        self.is_write = bytearray(map(self.is_write.__getitem__, order))
        self.has_key = bytearray(map(self.has_key.__getitem__, order))
        self.row_of = order

    def to_history(self) -> History:
        """Materialise the :class:`History` view of this encoding.

        The history's derived-structure cache is seeded with this encoding,
        so verifying the returned history goes straight through the columnar
        kernels without re-encoding.
        """
        if self._history is None:
            history = History._from_trusted_sorted(self.operations(), self.key)
            history._derived.setdefault("columnar", self)
            self._history = history
        return self._history

    # ------------------------------------------------------------------
    # Kernels: anomaly scan and cluster construction
    # ------------------------------------------------------------------
    def has_anomalies(self) -> bool:
        """Columnar Section II-C anomaly scan (memoized).

        True iff some read returns a never-written value or finishes before
        its dictating write starts — exactly
        :func:`repro.core.preprocess.has_anomalies`.  The scan runs once per
        encoding; repeated verifier calls (GK then FZF, the per-k spectrum
        sweep) reuse the cached answer.
        """
        if self._anomalous is None:
            self._anomalous = self._scan_anomalies()
        return self._anomalous

    def _scan_anomalies(self) -> bool:
        is_write = self.is_write
        dictating = self.dictating
        finish = self.finish
        start = self.start
        for i in range(self.n):
            if is_write[i]:
                continue
            w = dictating[i]
            if w < 0 or finish[i] < start[w]:
                return True
        return False

    def cluster_arrays(self) -> "ClusterArrays":
        """The cluster/zone table of the history (memoized).

        Requires an anomaly-free history (every read must have a dictating
        write); mirrors :func:`repro.core.zones.build_clusters` including the
        ``(low, high, write op id)`` sort order.
        """
        if self._clusters is None:
            self._clusters = ClusterArrays._build(self)
        return self._clusters

    def cluster_zone(self, cluster_index: int) -> Zone:
        """Decode the :class:`~repro.core.zones.Zone` of one cluster."""
        ca = self.cluster_arrays()
        return Zone(
            min_finish=ca.min_finish[cluster_index],
            max_start=ca.max_start[cluster_index],
        )

    def cluster_value(self, cluster_index: int) -> Hashable:
        """The value written by a cluster's dictating write."""
        return self.value_of(self.cluster_arrays().write[cluster_index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        key = "" if self.key is None else f" key={self.key!r}"
        return f"<ColumnarHistory{key} |ops|={self.n} writes={len(self.writes_idx)}>"


class RowColumns:
    """One register's operations as parallel columns in file order.

    The ingestion-side twin of :class:`ColumnarHistory`: rows stay in the
    order they were read, nothing is sorted or cross-checked, and
    ``value_id``/``client_id`` index this object's own interning tables.
    :class:`RowsByKey` fills one per register; the batch decoder
    (:func:`repro.io.formats.decode_jsonl_range`) does so per byte range,
    with ``op_ids`` holding record numbers within the range, and
    :meth:`concat` joins a register's pieces in file order.
    :meth:`to_columns` ships the rows in :meth:`ColumnarHistory.to_columns`
    layout, and :meth:`operations` decodes rows — the host builds only
    witness operations that way.
    """

    __slots__ = (
        "key",
        "is_write",
        "start",
        "finish",
        "value_id",
        "values",
        "client_id",
        "clients",
        "weights",
        "op_ids",
        "error",
    )

    def __init__(self, key: Optional[Hashable] = None) -> None:
        self.key = key
        self.is_write = bytearray()
        self.start = array("d")
        self.finish = array("d")
        self.value_id = array("i")
        self.values: List[Hashable] = []
        self.client_id = array("i")
        self.clients: List[Hashable] = []
        self.weights = array("q")
        self.op_ids = array("q")
        #: What building this register must raise (an unhashable value),
        #: deferred to where a History build would raise it.
        self.error: Optional[BaseException] = None

    def __len__(self) -> int:
        return len(self.is_write)

    @classmethod
    def concat(cls, parts: Sequence[Tuple["RowColumns", int]]) -> "RowColumns":
        """Join one register's ``(piece, id offset)`` pairs, in file order.

        Adding a piece's offset to its ``op_ids`` (record numbers) makes them
        op ids; values and clients are re-interned into one table each.
        """
        rows = cls(parts[0][0].key)
        values: Dict[Hashable, int] = {}
        clients: Dict[Hashable, int] = {}
        for part, offset in parts:
            rows.error = rows.error or part.error
            rows.is_write += part.is_write
            rows.start += part.start
            rows.finish += part.finish
            rows.weights += part.weights
            rows.op_ids.extend(map(offset.__add__, part.op_ids))
            remap = [values.setdefault(v, len(values)) for v in part.values]
            rows.value_id.extend(map(remap.__getitem__, part.value_id))
            remap = [_intern(clients, rows.clients, c) for c in part.clients]
            remap.append(-1)  # client id -1 (no client) indexes the last slot
            rows.client_id.extend(map(remap.__getitem__, part.client_id))
        rows.values = list(values)
        return rows

    def operations(self, indices: Sequence[int]) -> List[Operation]:
        """Decode the operations of the given rows, in that order."""

        def pick(column):
            return map(column.__getitem__, indices)

        return list(
            map(
                _row_operation,
                map(_OP_TYPES.__getitem__, pick(self.is_write)),
                map(self.values.__getitem__, pick(self.value_id)),
                pick(self.start),
                pick(self.finish),
                repeat(self.key),
                # Client id -1 (no client) indexes the appended None.
                map((self.clients + [None]).__getitem__, pick(self.client_id)),
                pick(self.op_ids),
                pick(self.weights),
            )
        )

    def to_columns(self) -> Tuple:
        """The rows in :meth:`ColumnarHistory.to_columns` layout (file order)."""
        n = len(self)
        return (
            self.key,
            n,
            self.start.tobytes(),
            self.finish.tobytes(),
            bytes(self.is_write),
            0 if self.key is None else 1,
            self.value_id.tobytes(),
            self.client_id.tobytes() if self.clients else None,
            self.op_ids.tobytes(),
            None if self.weights.count(1) == n else self.weights.tobytes(),
            self.values,
            self.clients or None,
        )

    def check_writes(self) -> None:
        """Raise what building this register's :class:`History` would raise.

        The deferred :attr:`error` first; then, when two writes share a
        value, the canonical encoding's :class:`DuplicateValueError`, which
        names the same pair of operations.
        """
        if self.error is not None:
            raise self.error
        written = array("i", compress(self.value_id, self.is_write))
        if len(set(written)) != len(written):
            self.canonical()

    def canonical(self) -> "ColumnarHistory":
        """The register's canonical :class:`ColumnarHistory`."""
        return ColumnarHistory.from_columns(self.to_columns())


class RowsByKey:
    """Appends rows to one :class:`RowColumns` per register key, interning
    values and clients as they arrive; keys keep first-appearance order."""

    __slots__ = ("_registers",)

    def __init__(self) -> None:
        self._registers: Dict[Hashable, Tuple[RowColumns, Dict, Dict]] = {}

    def add(self, key, is_write, value, start, finish, client, weight, op_id) -> None:
        """Append one row; an unhashable ``key`` raises ``TypeError``."""
        entry = self._registers.get(key)
        if entry is None:
            entry = self._registers[key] = (RowColumns(key), {}, {})
        rows, values, clients = entry
        try:
            value_id = values.get(value)
        except TypeError as exc:  # a History hashes every value
            rows.error = rows.error or exc
            return
        if value_id is None:
            value_id = values[value] = len(values)
            rows.values.append(value)
        rows.is_write.append(1 if is_write else 0)
        rows.start.append(start)
        rows.finish.append(finish)
        rows.value_id.append(value_id)
        rows.client_id.append(-1 if client is None else _intern(clients, rows.clients, client))
        rows.weights.append(weight if is_write else 1)
        rows.op_ids.append(op_id)

    def registers(self) -> List[RowColumns]:
        """The per-register columns, in first-appearance order."""
        return [rows for rows, _, _ in self._registers.values()]


_OP_TYPES = (OpType.READ, OpType.WRITE)
_new_object = object.__new__


def _row_operation(op_type, value, start, finish, key, client, op_id, weight) -> Operation:
    """:func:`~repro.core.operation.trusted_operation` for decoded rows.

    Filling the instance dict directly skips the frozen dataclass's
    ``__setattr__`` guard like ``object.__setattr__`` does, at half the cost;
    a batch audit decodes every YES witness this way, tens of thousands of
    operations per report.
    """
    op = _new_object(Operation)
    fields = op.__dict__
    fields["op_type"] = op_type
    fields["value"] = value
    fields["start"] = start
    fields["finish"] = finish
    fields["key"] = key
    fields["client"] = client
    fields["op_id"] = op_id
    fields["weight"] = weight
    return op


def _intern(index: Dict[Hashable, int], table: List[Hashable], item: Hashable) -> int:
    """The id of ``item`` in ``table``, appending it when new.

    Clients need not be hashable (a :class:`History` never hashes them), so an
    unhashable client gets a fresh slot instead of a lookup.
    """
    try:
        item_id = index.get(item)
    except TypeError:
        table.append(item)
        return len(table) - 1
    if item_id is None:
        item_id = index[item] = len(table)
        table.append(item)
    return item_id


def columnar_of(history: History) -> ColumnarHistory:
    """The columnar encoding of ``history``, memoized on the instance."""
    return history.cached("columnar", lambda: ColumnarHistory.from_history(history))


class ClusterArrays:
    """Struct-of-arrays cluster table, sorted like ``build_clusters``.

    ``write[c]`` is the op index of cluster ``c``'s dictating write and
    ``reads[c]`` the ascending op indices of its dictated reads;
    ``min_finish``/``max_start`` are the zone endpoints (``Z.f``/``Z.s̄``),
    ``low``/``high`` their min/max, and ``forward[c]`` the forward-zone flag.
    ``cluster_of_write_ord`` maps a write's ordinal (its rank among writes in
    history order) to its cluster index.
    """

    __slots__ = (
        "num",
        "write",
        "reads",
        "min_finish",
        "max_start",
        "low",
        "high",
        "forward",
        "cluster_of_write_ord",
    )

    @classmethod
    def _build(cls, col: ColumnarHistory) -> "ClusterArrays":
        writes_idx = col.writes_idx
        num = len(writes_idx)
        start = col.start
        finish = col.finish
        dictating = col.dictating
        write_ord = col.write_ord
        is_write = col.is_write
        min_finish = [finish[w] for w in writes_idx]
        max_start = [start[w] for w in writes_idx]
        reads: List[List[int]] = [[] for _ in range(num)]
        for i in range(col.n):
            if is_write[i]:
                continue
            w = dictating[i]
            if w < 0:
                from .errors import HistoryError

                raise HistoryError(
                    f"read #{col.op_ids[i]} has no dictating write; normalise "
                    "the history with repro.core.preprocess.normalize() first"
                )
            ordinal = write_ord[w]
            reads[ordinal].append(i)
            f = finish[i]
            if f < min_finish[ordinal]:
                min_finish[ordinal] = f
            s = start[i]
            if s > max_start[ordinal]:
                max_start[ordinal] = s
        op_ids = col.op_ids
        order = sorted(
            range(num),
            key=lambda o: (
                min(min_finish[o], max_start[o]),
                max(min_finish[o], max_start[o]),
                op_ids[writes_idx[o]],
            ),
        )
        ca = object.__new__(cls)
        ca.num = num
        ca.write = [writes_idx[o] for o in order]
        ca.reads = [reads[o] for o in order]
        ca.min_finish = [min_finish[o] for o in order]
        ca.max_start = [max_start[o] for o in order]
        ca.low = [min(mf, ms) for mf, ms in zip(ca.min_finish, ca.max_start)]
        ca.high = [max(mf, ms) for mf, ms in zip(ca.min_finish, ca.max_start)]
        ca.forward = [mf < ms for mf, ms in zip(ca.min_finish, ca.max_start)]
        cluster_of_write_ord = [0] * num
        for c, o in enumerate(order):
            cluster_of_write_ord[o] = c
        ca.cluster_of_write_ord = cluster_of_write_ord
        return ca

    def cluster_ops(self, cluster_index: int) -> List[int]:
        """All op indices of one cluster (write first, then its reads)."""
        return [self.write[cluster_index]] + self.reads[cluster_index]


# ======================================================================
# Gibbons–Korach sweeps (columnar twin of algorithms.gk)
# ======================================================================
def gk_violation(col: ColumnarHistory) -> Optional[Tuple[str, int, int]]:
    """Columnar Gibbons–Korach violation scan.

    Returns ``(condition, cluster_a, cluster_b)`` with *cluster indices* into
    :meth:`ColumnarHistory.cluster_arrays`, or ``None`` when the history is
    1-atomic.  Mirrors
    :func:`repro.algorithms.gk.find_1atomicity_violation` exactly, including
    which pair of clusters is reported.
    """
    ca = col.cluster_arrays()
    forward = ca.forward
    low = ca.low
    high = ca.high
    # Condition 1: no two forward zones overlap.  The cluster table is sorted
    # by low endpoint, so the forward subsequence is too.
    forward_indices: List[int] = []
    prev = -1
    running_high = float("-inf")
    for c in range(ca.num):
        if not forward[c]:
            continue
        forward_indices.append(c)
        if prev != -1 and low[c] <= running_high:
            return ("forward-overlap", prev, c)
        if high[c] > running_high:
            running_high = high[c]
            prev = c
    # Condition 2: no backward zone contained in a forward zone, via a
    # merge-style scan over the two sorted subsequences.
    fi = 0
    num_forward = len(forward_indices)
    for c in range(ca.num):
        if forward[c]:
            continue
        while fi < num_forward and high[forward_indices[fi]] < low[c]:
            fi += 1
        if fi < num_forward:
            f = forward_indices[fi]
            if low[f] <= low[c] and high[c] <= high[f]:
                return ("backward-in-forward", f, c)
    return None


# ======================================================================
# Chunk decomposition (columnar twin of core.chunks)
# ======================================================================
def chunk_decomposition(
    col: ColumnarHistory,
) -> Tuple[List[Tuple[List[int], List[int]]], List[int], List[Tuple[float, float]]]:
    """Columnar FZF Stage 1.

    Returns ``(chunks, dangling, intervals)`` where each chunk is a pair of
    cluster-index lists ``(forward, backward)`` (forward sorted by zone low
    endpoint — the ``T_F`` order), ``dangling`` lists the cluster indices
    outside every chunk, and ``intervals[i]`` is chunk ``i``'s continuous
    forward-zone interval.  Mirrors
    :func:`repro.core.chunks.compute_chunk_set`.
    """
    ca = col.cluster_arrays()
    low = ca.low
    high = ca.high
    forward_flags = ca.forward
    # Merge overlapping forward zones into chains with continuous unions.
    chains: List[List[int]] = []
    chain_low: List[float] = []
    chain_high: List[float] = []
    for c in range(ca.num):
        if not forward_flags[c]:
            continue
        if chains and low[c] <= chain_high[-1]:
            chains[-1].append(c)
            if high[c] > chain_high[-1]:
                chain_high[-1] = high[c]
        else:
            chains.append([c])
            chain_low.append(low[c])
            chain_high.append(high[c])
    chunk_backward: List[List[int]] = [[] for _ in chains]
    dangling: List[int] = []
    for c in range(ca.num):
        if forward_flags[c]:
            continue
        zone_low = low[c]
        idx = bisect_right(chain_low, zone_low) - 1
        if idx >= 0 and chain_low[idx] <= zone_low and high[c] <= chain_high[idx]:
            chunk_backward[idx].append(c)
        else:
            dangling.append(c)
    chunks = list(zip(chains, chunk_backward))
    intervals = list(zip(chain_low, chain_high))
    return chunks, dangling, intervals


# ======================================================================
# FZF Stage 2/3 (columnar twin of algorithms.fzf)
# ======================================================================
class FZFOutcome:
    """Raw result of the columnar FZF run, before decoding to Operations."""

    __slots__ = ("ok", "witness", "reason", "stats")

    def __init__(self, ok: bool, witness: Optional[List[int]], reason: str, stats: Dict[str, int]):
        self.ok = ok
        self.witness = witness
        self.reason = reason
        self.stats = stats


def _check_viable_columnar(
    col: ColumnarHistory,
    order: Sequence[int],
    ops_local: List[int],
    reads_of_write: Dict[int, List[int]],
) -> Optional[List[int]]:
    """Columnar twin of :func:`repro.algorithms.fzf.check_viable`.

    ``order`` is a candidate sequence of write op indices; ``ops_local`` the
    ascending op indices of the chunk.  Returns the extended witness as op
    indices, or ``None`` when the order is not viable.
    """
    n = len(ops_local)
    pos: Dict[int, int] = {op: p for p, op in enumerate(ops_local)}
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    if n:
        nxt[n - 1] = -1
    tail = n - 1
    removed = bytearray(n)
    remaining = n
    start = col.start
    finish = col.finish
    is_write = col.is_write
    dictating = col.dictating

    segments: List[List[int]] = []
    for oi in range(len(order) - 1, -1, -1):
        w = order[oi]
        pred = order[oi - 1] if oi > 0 else -1
        w_pos = pos.get(w)
        if w_pos is None or removed[w_pos]:
            return None
        container: List[int] = []
        w_finish = finish[w]
        # Operations starting after w's finish form a suffix of the remaining
        # chunk operations (sorted by start).
        j = tail
        while j != -1 and start[ops_local[j]] > w_finish:
            op = ops_local[j]
            nxt_j = prev[j]
            if is_write[op]:
                return None
            dw = dictating[op]
            if dw != w and dw != pred:
                return None
            container.append(op)
            # Unlink j.
            p, nx = prev[j], nxt[j]
            if p != -1:
                nxt[p] = nx
            if nx != -1:
                prev[nx] = p
            else:
                tail = p
            removed[j] = 1
            remaining -= 1
            j = nxt_j
        for r in reads_of_write.get(w, ()):
            rp = pos.get(r)
            if rp is not None and not removed[rp]:
                container.append(r)
                p, nx = prev[rp], nxt[rp]
                if p != -1:
                    nxt[p] = nx
                if nx != -1:
                    prev[nx] = p
                else:
                    tail = p
                removed[rp] = 1
                remaining -= 1
        if not removed[w_pos]:
            p, nx = prev[w_pos], nxt[w_pos]
            if p != -1:
                nxt[p] = nx
            if nx != -1:
                prev[nx] = p
            else:
                tail = p
            removed[w_pos] = 1
            remaining -= 1
        container.sort()
        container.insert(0, w)
        segments.append(container)
    if remaining:
        return None
    witness: List[int] = []
    for segment in reversed(segments):
        witness.extend(segment)
    return witness


def _candidate_orders_columnar(
    tf: Tuple[int, ...], backward_writes: List[int]
) -> List[Tuple[int, ...]]:
    """Columnar twin of :func:`repro.algorithms.fzf.candidate_orders`."""
    if len(tf) >= 2:
        tf_prime = (tf[1], tf[0]) + tf[2:]
    else:
        tf_prime = tf
    b = len(backward_writes)
    raw: List[Tuple[int, ...]]
    if b == 0:
        raw = [tf, tf_prime]
    elif b == 1:
        w = backward_writes[0]
        raw = [(w,) + tf, tf + (w,), (w,) + tf_prime, tf_prime + (w,)]
    elif b == 2:
        w1, w2 = backward_writes
        raw = [
            (w1,) + tf + (w2,),
            (w2,) + tf + (w1,),
            (w1,) + tf_prime + (w2,),
            (w2,) + tf_prime + (w1,),
        ]
    else:
        raw = []
    seen = set()
    unique: List[Tuple[int, ...]] = []
    for order in raw:
        if order not in seen:
            seen.add(order)
            unique.append(order)
    return unique


def fzf_verdict(col: ColumnarHistory) -> FZFOutcome:
    """Columnar FZF over an anomaly-free, non-empty history.

    Produces the same verdict, reason string and stats as
    :func:`repro.algorithms.fzf.verify_2atomic_fzf` (empty/anomalous inputs
    are the caller's responsibility, as in the object path); the witness is
    returned as op indices for the caller to decode.
    """
    ca = col.cluster_arrays()
    chunks, dangling, intervals = chunk_decomposition(col)
    stats = {
        "chunks": len(chunks),
        "dangling_clusters": len(dangling),
        "orders_tested": 0,
    }
    orders_tested = 0
    reads_of_write: Optional[Dict[int, List[int]]] = None
    write_of = ca.write
    reads_of = ca.reads
    low = ca.low

    pieces: List[Tuple[float, List[int]]] = []
    for chunk_index, (forward_clusters, backward_clusters) in enumerate(chunks):
        if len(forward_clusters) == 1 and not backward_clusters:
            # A lone forward cluster is always viable: its single candidate
            # order places the write first and its reads after (the object
            # path tests exactly one order here and always succeeds).
            orders_tested += 1
            c = forward_clusters[0]
            # ca.reads lists are already ascending, so the object path's
            # container sort is a no-op here.
            pieces.append((low[c], [write_of[c]] + reads_of[c]))
            continue
        if len(backward_clusters) >= 3:
            interval_low, interval_high = intervals[chunk_index]
            stats["orders_tested"] = orders_tested
            return FZFOutcome(
                False,
                None,
                (
                    f"chunk spanning [{interval_low:g}, {interval_high:g}] "
                    f"contains {len(backward_clusters)} backward clusters (>= 3), "
                    "so no viable write order exists (Lemma 4.3)"
                ),
                stats,
            )
        if reads_of_write is None:
            reads_of_write = {write_of[c]: reads_of[c] for c in range(ca.num)}
        chunk_ops: List[int] = []
        for c in forward_clusters:
            chunk_ops.append(write_of[c])
            chunk_ops.extend(reads_of[c])
        for c in backward_clusters:
            chunk_ops.append(write_of[c])
            chunk_ops.extend(reads_of[c])
        chunk_ops.sort()
        tf = tuple(write_of[c] for c in forward_clusters)
        backward_writes = [write_of[c] for c in backward_clusters]
        chunk_witness: Optional[List[int]] = None
        for order in _candidate_orders_columnar(tf, backward_writes):
            orders_tested += 1
            extended = _check_viable_columnar(col, order, chunk_ops, reads_of_write)
            if extended is not None:
                chunk_witness = extended
                break
        if chunk_witness is None:
            interval_low, interval_high = intervals[chunk_index]
            stats["orders_tested"] = orders_tested
            return FZFOutcome(
                False,
                None,
                (
                    f"no candidate write order is viable for the chunk spanning "
                    f"[{interval_low:g}, {interval_high:g}] "
                    f"({len(forward_clusters)} forward / "
                    f"{len(backward_clusters)} backward clusters)"
                ),
                stats,
            )
        # The chunk's minimum zone low endpoint is its first forward
        # cluster's: backward clusters only join a chunk whose interval
        # already covers their zone.
        pieces.append((low[forward_clusters[0]], chunk_witness))

    for c in dangling:
        pieces.append((low[c], [write_of[c]] + reads_of[c]))
    pieces.sort(key=lambda item: item[0])
    witness: List[int] = []
    for _, piece in pieces:
        witness.extend(piece)
    stats["orders_tested"] = orders_tested
    return FZFOutcome(True, witness, "", stats)
