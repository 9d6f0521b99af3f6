"""Columnar (struct-of-arrays) encoding of single-register histories.

The object model — frozen :class:`~repro.core.operation.Operation` dataclasses
indexed by :class:`~repro.core.history.History` — is the right *public*
contract, but it is a poor *hot-path* representation in CPython: every sweep
pays an attribute lookup (and often a bound-method call) per operation per
pass.

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

The kernels that run over the encoding live in :mod:`repro.core.vector`;
:class:`RowColumns` and :class:`RowsByKey` are the file-order ingestion side
the batch decoder fills.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from . import operation as _operation
from .errors import DuplicateValueError, MalformedOperationError
from .history import History
from .operation import Operation, OpType, trusted_operation

__all__ = [
    "ColumnarHistory",
    "RowColumns",
    "RowsByKey",
    "columnar_of",
]

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
        # Memo of the Section II-C anomaly scan (repro.core.vector).
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

    def operations(
        self, indices: Optional[Iterable[int]] = None, times: Optional[Dict] = None
    ) -> List[Operation]:
        """Decode many operations (all of them when ``indices`` is omitted);
        ``times`` moves operations as in :meth:`RowColumns.operations`."""
        if indices is None:
            indices = range(self.n)
        operation = self.operation
        times = times or {}
        return [operation(i).with_times(*times[i]) if i in times else operation(i) for i in indices]

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
        so verifying the returned history goes straight through the numpy
        kernels without re-encoding.
        """
        if self._history is None:
            history = History._from_trusted_sorted(self.operations(), self.key)
            history._derived.setdefault("columnar", self)
            self._history = history
        return self._history

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
    layout, and :meth:`operations` decodes rows — the host builds witness
    operations that way, when a witness is read.
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

    def operations(self, indices: Sequence[int], times: Optional[Dict] = None) -> List[Operation]:
        """Decode the operations of the given rows, in that order.

        Every row is decoded once, in file order, then picked (a witness order
        covers the register).  ``times`` maps a row to the ``(start, finish)``
        its operation takes instead of the row's own (normalised times).
        """
        start, finish = self.start, self.finish
        if times:
            start, finish = start[:], finish[:]
            for row, (moved_start, moved_finish) in times.items():
                start[row], finish[row] = moved_start, moved_finish
        clients = repeat(None)
        if self.clients:
            # Client id -1 (no client) indexes the appended None.
            clients = map((self.clients + [None]).__getitem__, self.client_id)
        ops = list(
            map(
                _row_operation,
                map(_OP_TYPES.__getitem__, self.is_write),
                map(self.values.__getitem__, self.value_id),
                start,
                finish,
                repeat(self.key),
                clients,
                self.op_ids,
                self.weights,
            )
        )
        return list(map(ops.__getitem__, indices))

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
    reading every YES witness of a batch audit decodes tens of thousands of
    operations this way.
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
