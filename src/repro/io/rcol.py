"""``.rcol`` — the chunked, memory-mapped out-of-core columnar trace format.

The row formats (JSONL, CSV, the foreign adapters) parse every record through
Python, so a multi-million-operation trace costs minutes of decode time and
gigabytes of operation objects before verification even starts.  ``.rcol``
stores a trace the way the verification kernels consume it — as raw little-
endian column segments per register — so ingestion is ``np.memmap`` plus a
footer parse: no per-operation Python, no materialisation, and the OS pages
in only the columns the kernels actually touch.

File layout::

    +--------------------------------------------------------------+
    | magic "RCOLTRC1" (8 bytes)                                   |
    | column segments (raw little-endian arrays, 8-byte aligned)   |
    | footer: UTF-8 JSON (registers -> chunks -> column offsets)   |
    | footer length (u64 LE)  |  end magic "RCOLEND1" (8 bytes)    |
    +--------------------------------------------------------------+

Per register the footer records ``n``, the (JSON-scalar) key, a list of
*chunks* — each with row count and ``column name -> [offset, nbytes]``
segment table — and a *value table*: a blob of concatenated JSON-encoded
values plus a ``u64`` offset index, decoded lazily one value at a time
(:class:`LazyValueTable`), so a register's value strings are never
materialised wholesale.  Kernel columns are ``start``/``finish`` (``f8``),
``is_write`` (``u1``) and ``value_id`` (``i4``); ``client_id`` (``i4``) and
``weights`` (``i8``) are stored only when some operation has a client or a
non-default weight.  Operation ids are not stored: fresh ids are minted at
load time (exactly like the row formats).

Readers/writers:

* :class:`RcolFile` — lazy per-register ingestion: ``load_columnar(key)``
  memory-maps one register into a
  :class:`~repro.core.columnar.ColumnarHistory` whose derived links are
  built with vectorized array ops (:func:`repro.core.vector.columnar_from_numpy`);
* :class:`RcolWriter` — streaming chunk-at-a-time writer (the benchmark
  harness emits multi-million-operation traces through it with bounded
  memory);
* :func:`iter_rcol` / :func:`dump_rcol` — the registry-facing reader/writer
  pair, interchangeable with every other registered format.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.builder import TraceBuilder
from ..core.errors import MalformedOperationError, TraceFormatError
from ..state.store import fsync_directory
from ..core.history import History, MultiHistory
from ..core.operation import Operation, OpType, trusted_operation
from ..core import operation as _operation
from ..core import vector

__all__ = [
    "MAGIC",
    "END_MAGIC",
    "RcolFile",
    "RcolWriter",
    "LazyValueTable",
    "iter_rcol",
    "dump_rcol",
]

MAGIC = b"RCOLTRC1"
END_MAGIC = b"RCOLEND1"
_VERSION = 1

#: Column name -> little-endian dtype string.
COLUMN_DTYPES = {
    "start": "<f8",
    "finish": "<f8",
    "is_write": "|u1",
    "value_id": "<i4",
    "client_id": "<i4",
    "weights": "<i8",
}

_KEY_SCALARS = (str, int, float, bool, type(None))


def _fresh_op_ids(n: int):
    """Reserve ``n`` globally-unique, consecutive operation ids.

    The counter advances in one jump
    (:func:`repro.core.operation.reserve_op_ids`), so minting ids for a
    multi-million-operation register is an array fill.
    """
    ids = _operation.reserve_op_ids(n)
    return np.arange(ids.start, ids.stop, dtype=np.int64)


class LazyValueTable(Sequence):
    """A register's value table, decoded from the JSON blob one item at a time.

    Behaves as a read-only sequence: ``len()`` and integer indexing.  Only
    the values a caller actually touches (duplicate-write errors, NO-reason
    decoding, witness materialisation) are ever JSON-decoded.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, blob, offsets):
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = int(index)
        if i < 0:
            i += len(self)
        lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
        return json.loads(bytes(self._blob[lo:hi]))

    def materialise(self) -> List[Hashable]:
        """Decode the whole table (used only by explicit conversions)."""
        return [self[i] for i in range(len(self))]


# ======================================================================
# Writer
# ======================================================================
class RcolWriter:
    """Streaming ``.rcol`` writer: registers are written one at a time, each
    as one or more column chunks.

    Usage::

        with RcolWriter(path) as w:
            w.begin_register("x")
            w.add_values(values)            # or add_values_raw(blob, offsets)
            w.append_chunk(start, finish, is_write, value_id)
            ...                             # more chunks, bounded memory
            w.end_register()

    ``value_id`` entries index the register's value table; rows must arrive
    in canonical ``(start, finish)`` order for zero-cost loading (unsorted
    registers are detected and re-sorted at read time).  The JSON value blob
    of the *current* register is buffered until :meth:`end_register`; column
    chunks stream straight to disk.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)
        self._fh = open(path, "wb")
        self._fh.write(MAGIC)
        self._pos = len(MAGIC)
        self._registers: List[Dict] = []
        self._current: Optional[Dict] = None
        self._value_parts: List[bytes] = []
        self._value_lengths: List[np.ndarray] = []
        self._value_count = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "RcolWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # pragma: no cover - error path
            self._fh.close()

    # ------------------------------------------------------------------
    def _write_segment(self, data: bytes) -> Tuple[int, int]:
        """Append one 8-aligned segment; returns ``(offset, nbytes)``."""
        pad = (-self._pos) % 8
        if pad:
            self._fh.write(b"\x00" * pad)
            self._pos += pad
        offset = self._pos
        self._fh.write(data)
        self._pos += len(data)
        return offset, len(data)

    # ------------------------------------------------------------------
    def begin_register(self, key: Hashable, *, has_key: Optional[bool] = None) -> None:
        """Start a new register.  ``key`` must be a JSON scalar."""
        if self._current is not None:
            raise TraceFormatError("begin_register() before end_register()")
        if not isinstance(key, _KEY_SCALARS):
            raise TraceFormatError(
                f"the 'rcol' format stores register keys as JSON scalars; "
                f"got unsupported key {key!r} of type {type(key).__name__}"
            )
        self._current = {
            "key": key,
            "has_key": bool(key is not None if has_key is None else has_key),
            "n": 0,
            "chunks": [],
            "clients": None,
        }
        self._value_parts = []
        self._value_lengths = []
        self._value_count = 0

    def add_values(self, values: Iterable[Hashable]) -> None:
        """Append entries to the current register's value table (JSON-encoded)."""
        try:
            encoded = [json.dumps(v, sort_keys=True).encode("utf-8") for v in values]
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"the 'rcol' format stores operation values as JSON; "
                f"a value is not JSON-serialisable: {exc}"
            ) from exc
        if encoded:
            self._value_parts.append(b"".join(encoded))
            self._value_lengths.append(
                np.array([len(e) for e in encoded], dtype=np.uint64)
            )
            self._value_count += len(encoded)

    def add_values_raw(self, blob: bytes, lengths) -> None:
        """Append pre-encoded values: a blob of concatenated JSON encodings
        plus the per-value byte lengths (the benchmark fast path)."""
        lengths = np.asarray(lengths, dtype=np.uint64)
        if int(lengths.sum()) != len(blob):
            raise TraceFormatError("value blob length does not match lengths sum")
        if len(blob):
            self._value_parts.append(blob)
            self._value_lengths.append(lengths)
            self._value_count += int(lengths.size)

    def set_clients(self, clients: Sequence[Hashable]) -> None:
        """Set the current register's client side table (JSON scalars)."""
        self._current["clients"] = list(clients)

    def append_chunk(
        self,
        start,
        finish,
        is_write,
        value_id,
        *,
        client_id=None,
        weights=None,
    ) -> None:
        """Write one chunk of rows for the current register."""
        if self._current is None:
            raise TraceFormatError("append_chunk() outside a register")
        cols = {
            "start": np.ascontiguousarray(start, dtype="<f8"),
            "finish": np.ascontiguousarray(finish, dtype="<f8"),
            "is_write": np.ascontiguousarray(is_write, dtype="|u1"),
            "value_id": np.ascontiguousarray(value_id, dtype="<i4"),
        }
        if client_id is not None:
            cols["client_id"] = np.ascontiguousarray(client_id, dtype="<i4")
        if weights is not None:
            cols["weights"] = np.ascontiguousarray(weights, dtype="<i8")
        rows = int(cols["start"].shape[0])
        for name, arr in cols.items():
            if int(arr.shape[0]) != rows:
                raise TraceFormatError(
                    f"column {name!r} has {int(arr.shape[0])} rows, expected {rows}"
                )
        segment_table = {
            name: list(self._write_segment(arr.tobytes()))
            for name, arr in cols.items()
        }
        self._current["chunks"].append({"rows": rows, "cols": segment_table})
        self._current["n"] += rows

    def end_register(self) -> None:
        """Finish the current register: write its value table segments."""
        if self._current is None:
            raise TraceFormatError("end_register() outside a register")
        blob = b"".join(self._value_parts)
        if self._value_lengths:
            lengths = np.concatenate(self._value_lengths)
        else:
            lengths = np.empty(0, dtype=np.uint64)
        offsets = np.concatenate(
            ([0], np.cumsum(lengths, dtype=np.uint64))
        ).astype("<u8")
        blob_seg = self._write_segment(blob)
        off_seg = self._write_segment(offsets.tobytes())
        self._current["values"] = {
            "blob": list(blob_seg),
            "offsets": list(off_seg),
            "count": self._value_count,
        }
        self._registers.append(self._current)
        self._current = None
        self._value_parts = []
        self._value_lengths = []
        self._value_count = 0

    def close(self) -> None:
        """Write the footer, sync the file to stable storage, and close it.

        Without the ``fsync`` (and the directory sync for a freshly created
        trace) the footer — the only thing that makes the file a readable
        container — could still sit in the page cache when a power cut hits,
        leaving a truncated trace that passed "successful" conversion.
        """
        if self._current is not None:
            raise TraceFormatError("close() inside an unfinished register")
        footer = json.dumps(
            {"version": _VERSION, "registers": self._registers},
            sort_keys=True,
        ).encode("utf-8")
        self._fh.write(footer)
        self._fh.write(struct.pack("<Q", len(footer)))
        self._fh.write(END_MAGIC)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        fsync_directory(self._path.parent)


# ======================================================================
# Reader
# ======================================================================
class RcolFile:
    """Lazy, memory-mapped view of an ``.rcol`` trace.

    Parses only the footer up front; :meth:`load_columnar` maps one
    register's columns into a :class:`~repro.core.columnar.ColumnarHistory`
    without materialising operations (single-chunk registers are zero-copy
    views into the file mapping).  Usable as a context manager.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        size = self.path.stat().st_size
        tail_len = 8 + len(END_MAGIC)
        if size < len(MAGIC) + tail_len:
            raise TraceFormatError(f"{self.path}: not an rcol file (too small)")
        with open(self.path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise TraceFormatError(
                    f"{self.path}: not an rcol file (bad magic)"
                )
            fh.seek(size - tail_len)
            tail = fh.read(tail_len)
            if tail[8:] != END_MAGIC:
                raise TraceFormatError(
                    f"{self.path}: truncated or corrupt rcol file (bad end marker)"
                )
            (footer_len,) = struct.unpack("<Q", tail[:8])
            footer_start = size - tail_len - footer_len
            if footer_start < len(MAGIC):
                raise TraceFormatError(
                    f"{self.path}: corrupt rcol footer (impossible length)"
                )
            fh.seek(footer_start)
            footer_bytes = fh.read(footer_len)
        try:
            footer = json.loads(footer_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt rcol footer: {exc}"
            ) from exc
        if footer.get("version") != _VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported rcol version {footer.get('version')!r}"
            )
        self.registers: List[Dict] = footer["registers"]
        self._by_key = {self._key_of(reg): reg for reg in self.registers}
        self._mm = None

    # ------------------------------------------------------------------
    @staticmethod
    def _key_of(reg: Dict) -> Optional[Hashable]:
        return reg["key"] if reg.get("has_key", True) else None

    def keys(self) -> List[Hashable]:
        """Register keys, in file order."""
        return [self._key_of(reg) for reg in self.registers]

    def register_sizes(self) -> List[Tuple[Hashable, int]]:
        """``(key, num_ops)`` pairs in file order — the partitioner's input."""
        return [(self._key_of(reg), reg["n"]) for reg in self.registers]

    @property
    def num_ops(self) -> int:
        """Total operations across all registers."""
        return sum(reg["n"] for reg in self.registers)

    # ------------------------------------------------------------------
    def _mapping(self):
        if self._mm is None:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        return self._mm

    def _segment(self, seg, dtype):
        off, nbytes = int(seg[0]), int(seg[1])
        return self._mapping()[off : off + nbytes].view(dtype)

    def _column(self, reg: Dict, name: str, default=None):
        """One register column across its chunks (zero-copy when single-chunk)."""
        dtype = COLUMN_DTYPES[name]
        parts = []
        for chunk in reg["chunks"]:
            seg = chunk["cols"].get(name)
            if seg is None:
                if default is None:
                    raise TraceFormatError(
                        f"{self.path}: register {reg['key']!r} chunk is missing "
                        f"required column {name!r}"
                    )
                parts.append(np.full(chunk["rows"], default, dtype=dtype))
            else:
                parts.append(self._segment(seg, dtype))
        if not parts:
            return np.empty(0, dtype=dtype)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _has_column(self, reg: Dict, name: str) -> bool:
        return any(name in chunk["cols"] for chunk in reg["chunks"])

    # ------------------------------------------------------------------
    def load_columnar(self, key: Hashable):
        """Map one register into a :class:`ColumnarHistory` (no Operations).

        Validation matches :meth:`ColumnarHistory.from_rows`: positive
        durations, positive write weights, uniquely-valued writes — all
        checked with array ops, reporting the same error messages.
        """
        reg = self._by_key.get(key)
        if reg is None:
            raise TraceFormatError(
                f"{self.path}: no register with key {key!r}; "
                f"available: {self.keys()!r}"
            )
        start = self._column(reg, "start")
        finish = self._column(reg, "finish")
        is_write = self._column(reg, "is_write")
        value_id = self._column(reg, "value_id")
        client_id = (
            self._column(reg, "client_id", default=-1)
            if self._has_column(reg, "client_id")
            else None
        )
        weights = (
            self._column(reg, "weights", default=1)
            if self._has_column(reg, "weights")
            else None
        )

        bad = np.flatnonzero(finish <= start)
        if bad.size:
            i = int(bad[0])
            raise MalformedOperationError(
                f"operation row {i} has finish {float(finish[i])!r} <= start "
                f"{float(start[i])!r}; operations must take a positive amount of time"
            )
        if weights is not None:
            baddies = np.flatnonzero((is_write != 0) & (weights < 1))
            if baddies.size:
                i = int(baddies[0])
                raise MalformedOperationError(
                    f"write row {i} has non-positive weight {int(weights[i])!r}; "
                    "weights must be positive integers (Section V)"
                )

        n = int(start.shape[0])
        if n > 1:
            ordered = (start[1:] > start[:-1]) | (
                (start[1:] == start[:-1]) & (finish[1:] >= finish[:-1])
            )
            if not bool(ordered.all()):
                # Foreign writer: re-sort into canonical order (copies).
                perm = np.lexsort((finish, start))
                start = np.ascontiguousarray(start[perm])
                finish = np.ascontiguousarray(finish[perm])
                is_write = np.ascontiguousarray(is_write[perm])
                value_id = np.ascontiguousarray(value_id[perm])
                if client_id is not None:
                    client_id = np.ascontiguousarray(client_id[perm])
                if weights is not None:
                    weights = np.ascontiguousarray(weights[perm])

        vmeta = reg["values"]
        blob = self._segment(vmeta["blob"], "|u1")
        offsets = self._segment(vmeta["offsets"], "<u8")
        values = LazyValueTable(blob, offsets)
        return vector.columnar_from_numpy(
            key=self._key_of(reg),
            start=start,
            finish=finish,
            is_write=is_write,
            value_id=value_id,
            values=values,
            op_ids=_fresh_op_ids(n),
            weights=weights,
            client_id=client_id,
            clients=reg.get("clients"),
            has_key=reg.get("has_key", True),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the file mapping (the OS reclaims the pages)."""
        self._mm = None

    def __enter__(self) -> "RcolFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RcolFile {self.path} registers={len(self.registers)} "
            f"ops={self.num_ops}>"
        )


# ======================================================================
# Registry-facing reader/writer
# ======================================================================
def iter_rcol(path: Union[str, Path]) -> Iterator[Operation]:
    """Stream the operations of an ``.rcol`` trace one at a time.

    The generic (object-materialising) read path, used by ``repro convert``
    and anything else that wants interchangeability with the row formats.
    The engine's verification path never calls this — it goes through
    :meth:`RcolFile.load_columnar` instead.
    """
    rf = RcolFile(path)
    for key in rf.keys():
        col = rf.load_columnar(key)
        for i in range(col.n):
            yield col.operation(i)


def dump_rcol(
    trace: Union[History, MultiHistory, Iterable[Operation]],
    path: Union[str, Path],
) -> int:
    """Write a trace as ``.rcol``; returns the operation count.

    Registers are written in sorted key order (matching the row-format
    writers); each register becomes a single chunk of canonical-order
    columns, so loading it back is a zero-copy memory map.
    """
    from ..core.columnar import columnar_of

    if isinstance(trace, History):
        histories = [(trace.key, trace)]
    elif isinstance(trace, MultiHistory):
        histories = [(key, trace[key]) for key in sorted(trace.keys(), key=repr)]
    else:
        multi = TraceBuilder(trace).build()
        histories = [(key, multi[key]) for key in sorted(multi.keys(), key=repr)]

    count = 0
    with RcolWriter(path) as writer:
        for key, history in histories:
            col = columnar_of(history)
            col._ensure_decode_columns()
            writer.begin_register(key, has_key=bool(any(col.has_key)))
            writer.add_values(col.values)
            if col.clients:
                writer.set_clients(col.clients)
            all_default_weights = not any(w != 1 for w in col.weights)
            writer.append_chunk(
                np.frombuffer(col.start, dtype=np.float64),
                np.frombuffer(col.finish, dtype=np.float64),
                np.frombuffer(bytes(col.is_write), dtype=np.uint8),
                np.frombuffer(col.value_id, dtype=np.int32),
                client_id=(
                    np.frombuffer(col.client_id, dtype=np.int32)
                    if col.clients
                    else None
                ),
                weights=(
                    None
                    if all_default_weights
                    else np.frombuffer(col.weights, dtype=np.int64)
                ),
            )
            writer.end_register()
            count += col.n
    return count
