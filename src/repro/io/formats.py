"""Trace serialisation: JSON Lines and CSV.

Real audits run against traces captured from a live system, so the library
can round-trip histories through two simple, tool-friendly formats:

* **JSON Lines** (one operation object per line) — the primary format; it
  preserves keys, client identifiers and write weights exactly;
* **CSV** — a lowest-common-denominator export for spreadsheets and ad-hoc
  scripts.

Both formats store, per operation: type (``read``/``write``), key, value,
start, finish, client, and (for writes) the weight.  Values are stored as
strings; the uniqueness assumption of Section II-C is checked when the trace
is loaded back into :class:`~repro.core.history.History` objects.

Readers come in two shapes: the ``iter_*`` generators stream one
:class:`~repro.core.operation.Operation` at a time (the ingestion stage of
the sharded verification engine feeds them straight into a
:class:`~repro.core.builder.TraceBuilder`, bucketing the trace by register
as it is read instead of accumulating one flat list and regrouping), and the
``load_*`` functions materialise a full
:class:`~repro.core.history.MultiHistory` for callers that want the classic
snapshot.
"""

from __future__ import annotations

import codecs
import csv
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Hashable, IO, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..core import operation as _operation
from ..core.builder import TraceBuilder
from ..core.columnar import RowColumns, RowsByKey
from ..core.errors import TraceFormatError
from ..core.history import History, MultiHistory
from ..core.operation import Operation, OpType, trusted_operation

__all__ = [
    "operation_to_dict",
    "operation_from_dict",
    "dump_jsonl",
    "load_jsonl",
    "iter_jsonl",
    "iter_jsonl_handle",
    "follow_jsonl",
    "JsonlDecoder",
    "dump_csv",
    "load_csv",
    "iter_csv",
    "stream_trace",
    "load_trace",
    "load_columnar",
    "DecodedRange",
    "split_jsonl",
    "decode_jsonl_range",
    "operations_range",
    "merge_ranges",
]

_CSV_FIELDS = ["op_type", "key", "value", "start", "finish", "client", "weight"]

_READ = OpType.READ
_WRITE = OpType.WRITE


def _fast_operation_from_record(record: Dict) -> Operation:
    """Decode one trace record without the generic dict round-trip.

    The streaming readers decode millions of records; this inlines the happy
    path of :func:`operation_from_dict` — direct field pulls, the trusted
    constructor instead of the revalidating dataclass ``__init__`` — and
    delegates every unusual record (unknown type tag, non-positive duration,
    bad weight) back to the slow path so error behaviour stays identical.
    """
    try:
        tag = record["op_type"]
        if tag == "read":
            op_type = _READ
        elif tag == "write":
            op_type = _WRITE
        else:
            return operation_from_dict(record)
        start = float(record["start"])
        finish = float(record["finish"])
        value = record["value"]
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed operation record: {record!r}") from exc
    # Weight conversion sits outside the try and runs for reads too, exactly
    # like the slow path (a malformed weight raises ValueError, not
    # TraceFormatError, regardless of operation type).
    weight = int(record.get("weight", 1) or 1)
    if finish <= start or weight < 1:
        return operation_from_dict(record)  # raises with the canonical message
    return trusted_operation(
        op_type,
        value,
        start,
        finish,
        key=record.get("key"),
        client=record.get("client"),
        weight=weight if op_type is _WRITE else 1,
    )


def operation_to_dict(op: Operation) -> Dict:
    """Convert an operation to a JSON-serialisable dictionary."""
    record = {
        "op_type": op.op_type.value,
        "key": op.key,
        "value": op.value,
        "start": op.start,
        "finish": op.finish,
        "client": op.client,
    }
    if op.is_write:
        record["weight"] = op.weight
    return record


def operation_from_dict(record: Dict) -> Operation:
    """Build an operation from a dictionary produced by :func:`operation_to_dict`."""
    try:
        op_type = OpType(record["op_type"])
        start = float(record["start"])
        finish = float(record["finish"])
        value = record["value"]
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed operation record: {record!r}") from exc
    weight = int(record.get("weight", 1) or 1)
    return Operation(
        op_type=op_type,
        value=value,
        start=start,
        finish=finish,
        key=record.get("key"),
        client=record.get("client"),
        weight=weight if op_type is OpType.WRITE else 1,
    )


# ----------------------------------------------------------------------
# JSON Lines
# ----------------------------------------------------------------------
def dump_jsonl(trace: Union[History, MultiHistory, Iterable[Operation]], path: Union[str, Path]) -> int:
    """Write a trace to a JSON Lines file; returns the number of operations."""
    ops = _iter_operations(trace)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(json.dumps(operation_to_dict(op), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


_scan_once = json.JSONDecoder().scan_once
#: What :func:`_parse_line` returns for a blank line (``None`` is JSON ``null``).
_BLANK = object()


def _parse_line(line: str) -> Any:
    """Parse one JSON Lines line: its JSON value, or :data:`_BLANK`.

    A line the C scanner consumes up to trailing whitespace is that value;
    any other line is stripped and handed to :func:`json.loads`, which
    raises the reader's :class:`json.JSONDecodeError`.
    """
    try:
        record, stop = _scan_once(line, 0)
        if stop == len(line) or line[stop:].isspace():
            return record
    except (StopIteration, json.JSONDecodeError):
        pass
    line = line.strip()
    if not line:
        return _BLANK
    return json.loads(line)


def iter_jsonl(path: Union[str, Path]) -> Iterator[Operation]:
    """Stream the operations of a JSON Lines trace one at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from iter_jsonl_handle(fh, source=str(path))


def iter_jsonl_handle(
    fh: Union[IO[str], Iterable[str]], *, source: str = "<stream>"
) -> Iterator[Operation]:
    """Stream operations from an open JSON Lines text handle (or line iterable).

    This is the ingestion surface of ``repro watch -``: any line-oriented
    text source works — ``sys.stdin``, a pipe from another process, a socket
    file object, a generator of lines — without the caller materialising
    anything.  ``source`` is used in error messages in place of a file name.
    """
    decode = _fast_operation_from_record
    for line_number, line in enumerate(fh, start=1):
        try:
            record = _parse_line(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{source}:{line_number}: invalid JSON: {exc}"
            ) from exc
        if record is not _BLANK:
            yield decode(record)


def follow_jsonl(
    path: Union[str, Path],
    *,
    poll_interval_s: float = 0.2,
    idle_timeout_s: Optional[float] = None,
    from_start: bool = True,
) -> Iterator[Operation]:
    """Tail a JSON Lines trace file, yielding operations as they are appended.

    The live-audit counterpart of :func:`iter_jsonl`: a store (or the
    simulator) appends operations to a log while ``repro watch --follow``
    verifies them.  Partial lines (a writer mid-append) are buffered until
    their newline arrives.  The generator ends when no new data has arrived
    for ``idle_timeout_s`` seconds (``None`` follows forever, like
    ``tail -f``); ``from_start=False`` skips the existing content and watches
    only new appends.
    """
    if poll_interval_s <= 0:
        raise TraceFormatError(
            f"poll_interval_s must be positive, got {poll_interval_s!r}"
        )

    def tailed_lines():
        buffer = ""
        with open(path, "r", encoding="utf-8") as fh:
            if not from_start:
                fh.seek(0, 2)  # end of file
            last_data = time.monotonic()
            while True:
                chunk = fh.readline()
                if chunk:
                    last_data = time.monotonic()
                    buffer += chunk
                    if buffer.endswith("\n"):
                        yield buffer
                        buffer = ""
                    # else: partial line — wait for the writer to finish it
                    continue
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - last_data >= idle_timeout_s
                ):
                    # A final record without a trailing newline (writer died
                    # mid-append or never terminated the file) still counts.
                    if buffer:
                        yield buffer
                    return
                time.sleep(poll_interval_s)

    yield from iter_jsonl_handle(tailed_lines(), source=str(path))


def load_jsonl(path: Union[str, Path]) -> MultiHistory:
    """Load a JSON Lines trace into a :class:`MultiHistory`."""
    return TraceBuilder(iter_jsonl(path)).build()


class JsonlDecoder:
    """Incremental JSON Lines decoder for asynchronous/chunked ingestion.

    The line-oriented readers above pull from a blocking handle; an asyncio
    transport instead *pushes* arbitrary byte/str chunks that may split a
    record anywhere.  The decoder buffers the trailing partial line between
    :meth:`feed` calls and emits one :class:`~repro.core.operation.Operation`
    per completed line, so the audit service's network layer decodes exactly
    the trace format the file readers accept::

        decoder = JsonlDecoder(source="client-7")
        for chunk in transport_chunks:
            for op in decoder.iter_feed(chunk):
                session.feed(op)
        decoder.flush()  # a final record without a trailing newline

    Error behaviour matches :func:`iter_jsonl_handle`: malformed JSON and
    malformed records raise :class:`~repro.core.errors.TraceFormatError`
    tagged with ``source`` and the line number.  :meth:`iter_feed` raises
    it after yielding the items before the malformed line; :meth:`feed`,
    which returns a list, loses them.

    With ``mixed=True`` the stream may interleave *control frames* with
    operation records: a JSON object carrying a ``"type"`` field (and no
    ``"op_type"``) is returned as a plain dict, in stream order, instead of
    being decoded as an operation.  This is the framing of the audit
    service's session protocol (:mod:`repro.service`), where ``hello`` /
    ``checkpoint`` / ``end`` frames ride the same newline-delimited channel
    as the trace itself.
    """

    __slots__ = ("source", "mixed", "_buffer", "_line_number", "_utf8")

    def __init__(self, *, source: str = "<stream>", mixed: bool = False):
        self.source = source
        self.mixed = mixed
        self._buffer = ""
        self._line_number = 0
        # Transports split chunks at arbitrary byte offsets, so a multi-byte
        # UTF-8 character can straddle two feed() calls; the incremental
        # decoder holds the partial sequence instead of raising.
        self._utf8 = codecs.getincrementaldecoder("utf-8")()

    @property
    def pending(self) -> bool:
        """True iff a partial line is buffered awaiting its newline."""
        return bool(self._buffer)

    @property
    def pending_bytes(self) -> int:
        """Size of the buffered partial line, in UTF-8 bytes.

        Consumers reading from untrusted transports should bound this — a
        peer that never sends a newline otherwise grows the buffer without
        limit (the audit server aborts past its frame-size cap).  Measured
        in encoded bytes so the cap matches what actually arrived on the
        wire, not the (up to 4x smaller) character count.
        """
        return len(self._buffer.encode("utf-8"))

    def feed(self, data: Union[str, bytes]) -> List[Operation]:
        """Decode one chunk; returns the operations its complete lines held."""
        return list(self.iter_feed(data))

    def iter_feed(self, data: Union[str, bytes]) -> Iterator:
        """Decode one chunk, yielding each complete line's item in order.

        A malformed line raises only after every item before it has been
        yielded, so what a consumer takes from a stream before the error
        does not depend on how the transport cut it into chunks.  The chunk
        is buffered when iteration starts, so iterate every call to its end.
        """
        if isinstance(data, bytes):
            try:
                data = self._utf8.decode(data)
            except UnicodeDecodeError as exc:
                self._utf8.reset()
                raise TraceFormatError(
                    f"{self.source}:{self._line_number + 1}: "
                    f"invalid UTF-8 in stream: {exc}"
                ) from exc
        self._buffer += data
        if "\n" not in self._buffer:
            return
        lines = self._buffer.split("\n")
        self._buffer = lines.pop()
        for line in lines:
            # Physical line numbering (blank lines included), matching what
            # iter_jsonl_handle reports for the same byte stream.
            self._line_number += 1
            if line.strip():
                yield self._decode(line)

    def flush(self) -> List[Operation]:
        """Decode a trailing record that never received its newline."""
        try:
            tail = self._utf8.decode(b"", final=True)
        except UnicodeDecodeError as exc:
            self._utf8.reset()
            raise TraceFormatError(
                f"{self.source}:{self._line_number + 1}: "
                f"truncated UTF-8 sequence at end of stream: {exc}"
            ) from exc
        line = self._buffer + tail
        self._buffer = ""
        if not line.strip():
            return []
        self._line_number += 1
        return [self._decode(line)]

    def _decode(self, line: str):
        try:
            record = _parse_line(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{self.source}:{self._line_number}: invalid JSON: {exc}"
            ) from exc
        if (
            self.mixed
            and isinstance(record, dict)
            and "type" in record
            and "op_type" not in record
        ):
            return record
        try:
            return _fast_operation_from_record(record)
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"{self.source}:{self._line_number}: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def dump_csv(trace: Union[History, MultiHistory, Iterable[Operation]], path: Union[str, Path]) -> int:
    """Write a trace to CSV; returns the number of operations."""
    ops = _iter_operations(trace)
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for op in ops:
            record = operation_to_dict(op)
            record.setdefault("weight", "")
            writer.writerow({field: record.get(field, "") for field in _CSV_FIELDS})
            count += 1
    return count


def iter_csv(path: Union[str, Path]) -> Iterator[Operation]:
    """Stream the operations of a CSV trace one at a time."""
    decode = _fast_operation_from_record
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row_number, row in enumerate(reader, start=2):
            record = dict(row)
            if record.get("weight") in ("", None):
                record["weight"] = 1
            if record.get("client") in ("", None):
                record["client"] = None
            if record.get("key") in ("", None):
                record["key"] = None
            try:
                yield decode(record)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}:{row_number}: {exc}") from exc


def load_csv(path: Union[str, Path]) -> MultiHistory:
    """Load a CSV trace into a :class:`MultiHistory`."""
    return TraceBuilder(iter_csv(path)).build()


# ----------------------------------------------------------------------
# Format dispatch (routed through the format registry)
# ----------------------------------------------------------------------
def stream_trace(path: Union[str, Path], fmt: Optional[str] = None) -> Iterator[Operation]:
    """Stream any supported trace file, one operation at a time.

    Dispatch goes through the format registry (:mod:`repro.io.registry`):
    ``fmt`` selects a registered format by name, otherwise the extension is
    sniffed (JSONL default).  The import is deferred because the registry
    itself registers the readers defined in this module.
    """
    from .registry import resolve_format

    return resolve_format(path, fmt).reader(path)


def load_trace(path: Union[str, Path], fmt: Optional[str] = None) -> MultiHistory:
    """Load any supported trace file into a :class:`MultiHistory`."""
    return TraceBuilder(stream_trace(path, fmt)).build()


def load_columnar(path: Union[str, Path], fmt: Optional[str] = None) -> Dict:
    """Load a trace straight into per-register columnar encodings.

    Operations are *not* materialised: JSONL is one call of the batch range
    decoder over the whole file (:func:`decode_jsonl_range`), every other
    registered format goes through its operation stream
    (:func:`operations_range`), and each register is sorted into a
    :class:`~repro.core.columnar.ColumnarHistory`.  Returns a mapping from
    register key to encoding; call ``.to_history()`` on an entry (or verify
    through :func:`repro.core.vector.verify_columnar`) as needed — the materialised history
    arrives with its encoding pre-cached.  Errors are those of
    :func:`load_trace`.
    """
    from .registry import resolve_format

    spec = resolve_format(path, fmt)
    if spec.name == "jsonl":
        decoded = decode_jsonl_range(path)
    else:
        decoded = operations_range(spec.reader(path))
    return {key: rows.canonical() for key, rows in merge_ranges(path, [decoded]).items()}


# ----------------------------------------------------------------------
# Columns from the first byte: the batch decoder
# ----------------------------------------------------------------------
class DecodedRange(NamedTuple):
    """One byte range of a trace, decoded into per-register columns.

    ``registers`` holds a :class:`~repro.core.columnar.RowColumns` per
    register key in first-appearance order; their ``op_ids`` are record
    numbers within the range.  ``error`` is ``None`` or the range's first
    failure as data, ``(line, kind, detail)`` with ``line`` counted from the
    range's first line: :func:`merge_ranges` raises it with the file-wide line
    number, exactly as :func:`iter_jsonl` would.
    """

    records: int
    lines: int
    registers: List[RowColumns]
    error: Optional[Tuple[int, str, Any]] = None


def split_jsonl(path: Union[str, Path], parts: int) -> List[Tuple[int, int]]:
    r"""Cut a file into at most ``parts`` byte ranges ``[start, end)``.

    Every range but the last ends just after a ``\n`` byte, so no line —
    nor a ``\r\n`` pair, nor a multi-byte UTF-8 character — straddles two
    ranges.
    """
    size = os.path.getsize(path)
    bounds = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            target = max(size * i // parts, bounds[-1] + 1)
            if target >= size:
                break
            fh.seek(target - 1)
            while True:
                block = fh.read(1 << 16)
                newline = block.find(b"\n")
                if newline >= 0 or not block:
                    break
            if newline < 0:
                break
            cut = fh.tell() - len(block) + newline + 1
            if cut >= size:
                break
            bounds.append(cut)
    bounds.append(size)
    return list(zip(bounds, bounds[1:]))


def decode_jsonl_range(
    path: Union[str, Path], start: int = 0, end: Optional[int] = None
) -> DecodedRange:
    r"""Decode the JSON Lines records in bytes ``[start, end)`` of ``path``.

    ``start`` must begin a line (:func:`split_jsonl`).  Lines split as
    text-mode iteration splits them (``\n``, ``\r\n``, lone ``\r``) — never
    at U+2028/U+0085 inside a string.  A line whose whole text the C scanner
    consumes is one record as is; every other line is stripped, skipped when
    blank and parsed with :func:`json.loads`, as :func:`iter_jsonl` does.
    Records are checked like :func:`iter_jsonl` checks them; the first
    failure stops the range and travels in :attr:`DecodedRange.error`.  No
    :class:`Operation` is built.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(-1 if end is None else end - start)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return DecodedRange(0, 0, [], (1, "utf-8", exc))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    rows = RowsByKey()
    add = rows.add
    scan = _scan_once
    records = 0
    for number, line in enumerate(lines, 1):
        try:
            record, stop = scan(line, 0)
        except (StopIteration, json.JSONDecodeError):
            stop = -1
        if stop != len(line):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                return DecodedRange(records, len(lines), [], (number, "json", exc))
        try:
            tag = record["op_type"]
            begin = float(record["start"])
            finish = float(record["finish"])
            value = record["value"]
            weight = int(record.get("weight", 1) or 1)
            valid = finish > begin and (tag == "read" or (tag == "write" and weight >= 1))
        except Exception:
            valid = False
        if not valid:
            try:
                op = _fast_operation_from_record(record)
            except Exception:
                return DecodedRange(records, len(lines), [], (number, "record", record))
            tag, begin, finish, value, weight = (
                op.op_type.value, op.start, op.finish, op.value, op.weight
            )
        try:
            add(
                record.get("key"), tag == "write", value, begin, finish,
                record.get("client"), weight, records,
            )
        except TypeError as exc:  # an unhashable key, as TraceBuilder raises it
            return DecodedRange(records, len(lines), [], (number, "raise", exc))
        records += 1
    return DecodedRange(records, len(lines), rows.registers())


def operations_range(ops: Iterable[Operation]) -> DecodedRange:
    """Columns of an operation stream, as one :class:`DecodedRange`.

    The row formats (CSV, the foreign-trace adapters) decode through their
    operation readers; their errors raise here, in stream order.
    """
    rows = RowsByKey()
    add = rows.add
    records = 0
    for op in ops:
        add(op.key, op.is_write, op.value, op.start, op.finish, op.client, op.weight, records)
        records += 1
    return DecodedRange(records, 0, rows.registers())


def merge_ranges(path: Union[str, Path], ranges: Iterable[DecodedRange]) -> Dict[Hashable, RowColumns]:
    """Join decoded ranges, given in file order, into one
    :class:`~repro.core.columnar.RowColumns` per register.

    Raises what loading the file through :func:`load_trace` raises, in the
    same order: the earliest range error first, with its line number counted
    from the start of the file; then, register by register in
    first-appearance order, what building its history would raise (a
    duplicate write value).  Op ids are minted in file order, so ties break
    and errors read as on the object path.
    """
    ranges = list(ranges)
    if any(r.error is not None and r.error[1] == "utf-8" for r in ranges):
        # Text-mode reading fails at a buffer-dependent point; replay it.
        for _ in iter_jsonl(path):
            pass
    first_line = 0
    for decoded in ranges:
        if decoded.error is not None:
            _raise_range_error(path, first_line, *decoded.error)
        first_line += decoded.lines
    ids = _operation.reserve_op_ids(sum(r.records for r in ranges))
    pieces: Dict[Hashable, List[Tuple[RowColumns, int]]] = {}
    offset = ids.start
    for decoded in ranges:
        for rows in decoded.registers:
            pieces.setdefault(rows.key, []).append((rows, offset))
        offset += decoded.records
    registers = {key: RowColumns.concat(parts) for key, parts in pieces.items()}
    for rows in registers.values():
        rows.check_writes()
    return registers


def _raise_range_error(path, first_line: int, line: int, kind: str, detail) -> None:
    """Raise one range's failure (:attr:`DecodedRange.error`) as
    :func:`iter_jsonl` raises it."""
    if kind == "json":
        raise TraceFormatError(
            f"{path}:{first_line + line}: invalid JSON: {detail}"
        ) from detail
    if kind == "record":
        # The record check is deterministic: running it again raises the
        # reader's exception, with an op id minted in this process.
        _fast_operation_from_record(detail)
    raise detail


# ----------------------------------------------------------------------
def _iter_operations(trace: Union[History, MultiHistory, Iterable[Operation]]) -> List[Operation]:
    if isinstance(trace, History):
        return list(trace.operations)
    if isinstance(trace, MultiHistory):
        ops: List[Operation] = []
        for key in sorted(trace.keys(), key=repr):
            ops.extend(trace[key].operations)
        return ops
    return list(trace)
