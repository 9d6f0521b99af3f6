"""Batch ingest: JSONL decoded by byte range, straight into columns.

Two parity contracts pin the columnar batch path to the object readers:

* the range decoder (:func:`repro.io.formats.decode_jsonl_range`, joined by
  :func:`~repro.io.formats.merge_ranges`) gives exactly the rows
  :func:`~repro.io.formats.iter_jsonl` gives, or raises the same exception
  with the same message — file-wide line number included — however the file
  is cut into ranges;
* :meth:`Engine.verify_file` equals the serial object reference
  ``Engine().verify_trace(load_trace(path), k)`` field for field, under every
  executor, with witness op ids in the same relative order.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import re
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import operation as operation_module
from repro.core.columnar import ColumnarHistory, RowColumns
from repro.core.errors import DuplicateValueError, TraceFormatError
from repro.core.history import History
from repro.core.operation import ensure_op_ids_above
from repro.core.result import VerificationResult
from repro.core.vector import columnar_verdict
from repro.engine import Engine
from repro.engine.codec import decode_shard_results, encode_shard_results
from repro.io.formats import (
    decode_jsonl_range,
    dump_csv,
    dump_jsonl,
    iter_jsonl,
    load_trace,
    merge_ranges,
    split_jsonl,
)
from repro.workloads.synthetic import synthetic_trace
from tests.conftest import result_fields
from tests.test_engine import in_flight_read_trace

# ----------------------------------------------------------------------
# Adversarial JSON Lines text
# ----------------------------------------------------------------------
#: Raw (unescaped) characters that must not split a line: U+2028/U+0085 are
#: line breaks to str.splitlines, and the multi-byte ones straddle any byte
#: offset a naive cut picks.
ODD_TEXT = ["a\u2028b", "x\x85y", "é", "€uro", "\U0001f600", "plain", "tab\there"]

#: Records iter_jsonl rejects, one per failure kind.
BAD_RECORDS = [
    '{"op_type": "write", "start": 0, "value": 1}',  # missing finish
    '{"op_type": "append", "start": 0, "finish": 1, "value": 1}',  # unknown type
    '{"op_type": "read", "start": 2, "finish": 1, "value": 1}',  # finish <= start
    '{"op_type": "write", "start": 1, "finish": 1.0, "value": 1}',
    '{"op_type": "write", "start": 0, "finish": 1, "value": 1, "weight": 0.5}',
    '{"op_type": "write", "start": 0, "finish": 1, "value": 1, "weight": -2}',
    '{"op_type": "write", "start": 0, "finish": 1, "value": 1, "weight": "x"}',
    '{"op_type": "read", "start": 0, "finish": 1, "value": 1, "key": ["k"]}',
    '[1, 2]',
    '"just a string"',
]


@st.composite
def jsonl_texts(draw):
    """A JSON Lines file as text: records plus every hazard of the format."""
    lines = []
    written = 0
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(
            st.sampled_from(
                ["record"] * 6
                + ["blank", "spaces", "padded", "split", "two", "bad", "read-weight"]
            )
        )
        if kind in ("record", "padded", "split", "two", "read-weight"):
            start = draw(st.floats(min_value=0, max_value=50, allow_nan=False))
            record = {
                "op_type": "write" if written == 0 or draw(st.booleans()) else "read",
                "start": start,
                "finish": start + draw(st.floats(min_value=0.01, max_value=5)),
                "key": draw(st.sampled_from(["r0", "r1", "r ", None, 3])),
            }
            if record["op_type"] == "write":
                record["value"] = f"{draw(st.sampled_from(ODD_TEXT))}-{written}"
                written += 1
                if draw(st.booleans()):
                    record["weight"] = draw(st.integers(min_value=1, max_value=3))
            else:
                record["value"] = f"{draw(st.sampled_from(ODD_TEXT))}-{draw(st.integers(0, written))}"
                if kind == "read-weight":
                    record["weight"] = -1  # ignored for reads
            if draw(st.booleans()):
                record["client"] = draw(st.sampled_from(["c1", 7, [1, 2], None]))
            text = json.dumps(record, ensure_ascii=draw(st.booleans()))
            if kind == "padded":
                text = f"  {text}\t"
            elif kind == "split":
                cut = len(text) // 2
                lines.extend([text[:cut], text[cut:]])
                continue
            elif kind == "two":
                text = text + " " + text
            lines.append(text)
        elif kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" \t ")
        else:
            lines.append(draw(st.sampled_from(BAD_RECORDS)))
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no trailing newline
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        text = "\ufeff" + text
    return text


def _outcome(call):
    """``("ok", value)`` or ``("raise", type, message)`` with op ids masked."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        # Op ids are minted per process; the sentence around them must match.
        return ("raise", type(exc), re.sub(r"(operation |write |#)\d+", r"\1N", str(exc)))


def _reference_rows(path):
    """iter_jsonl's operations, grouped by register in first-appearance order."""
    by_key = {}
    for op in iter_jsonl(path):
        by_key.setdefault(op.key, []).append(op)
    return {
        key: [
            (op.is_write, op.value, op.start, op.finish, op.client, op.weight, op.op_id)
            for op in ops
        ]
        for key, ops in by_key.items()
    }


def _decoded_rows(path, parts):
    ranges = [decode_jsonl_range(path, begin, end) for begin, end in split_jsonl(path, parts)]
    registers = merge_ranges(path, ranges)
    return {
        key: [
            (op.is_write, op.value, op.start, op.finish, op.client, op.weight, op.op_id)
            for op in rows.operations(range(len(rows)))
        ]
        for key, rows in registers.items()
    }


def _relative(rows_by_key):
    """Rows with op ids replaced by their rank across the whole file."""
    ids = sorted(row[-1] for rows in rows_by_key.values() for row in rows)
    rank = {op_id: i for i, op_id in enumerate(ids)}
    return {
        key: [row[:-1] + (rank[row[-1]],) for row in rows] for key, rows in rows_by_key.items()
    }


class TestRangeDecoder:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=jsonl_texts())
    def test_matches_iter_jsonl_for_every_range_count(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(lambda: _relative(_reference_rows(path)))
        for parts in range(1, 9):
            got = _outcome(lambda: _relative(_decoded_rows(path, parts)))
            assert got == expected, (parts, text)

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_each_bad_record_raises_as_iter_jsonl_does(self, tmp_path, bad):
        good = json.dumps({"op_type": "write", "start": 0, "finish": 1, "value": 0})
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([good] * 40 + [bad] + [good] * 40) + "\n")
        expected = _outcome(lambda: _reference_rows(path))
        assert expected[0] == "raise"
        for parts in (1, 2, 5):
            assert _outcome(lambda: _decoded_rows(path, parts)) == expected

    def test_ranges_end_on_newlines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes("é\n€\r\n\U0001f600\rlast".encode("utf-8") * 40)
        data = path.read_bytes()
        spans = split_jsonl(path, 8)
        assert len(spans) > 1
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        for (_, end), (begin, _) in zip(spans, spans[1:]):
            assert end == begin and data[end - 1 : end] == b"\n"

    def test_line_numbers_count_from_the_start_of_the_file(self, tmp_path):
        good = json.dumps({"op_type": "write", "start": 0, "finish": 1, "value": 0})
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([good] * 500 + ["{broken"] + [good] * 10) + "\n")
        with pytest.raises(TraceFormatError, match=r"t\.jsonl:501: invalid JSON"):
            list(iter_jsonl(path))
        for parts in (1, 3, 8):
            ranges = [decode_jsonl_range(path, a, b) for a, b in split_jsonl(path, parts)]
            # Errors travel as data and are raised from the earliest range,
            # whatever order the ranges are joined in.
            assert sum(r.error is not None for r in ranges) == 1
            with pytest.raises(TraceFormatError, match=r"t\.jsonl:501: invalid JSON"):
                merge_ranges(path, ranges)

    def test_invalid_utf8_raises_as_the_text_reader_does(self, tmp_path):
        good = json.dumps({"op_type": "write", "start": 0, "finish": 1, "value": 0})
        path = tmp_path / "t.jsonl"
        path.write_bytes(((good + "\n") * 300).encode() + b"\xff\xfe\n" + b"{bad\n")
        expected = _outcome(lambda: list(iter_jsonl(path)))
        assert expected[1] is UnicodeDecodeError
        for parts in (1, 2, 5):
            ranges = [decode_jsonl_range(path, a, b) for a, b in split_jsonl(path, parts)]
            assert _outcome(lambda: merge_ranges(path, ranges)) == expected

    def test_no_operation_is_built(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        dump_jsonl(synthetic_trace(random.Random(1), 3, 50), path)
        built = []
        monkeypatch.setattr(
            operation_module.Operation, "__post_init__", lambda op: built.append(op)
        )
        monkeypatch.setattr(
            "repro.io.formats.trusted_operation", lambda *a, **k: built.append(a)
        )
        merge_ranges(path, [decode_jsonl_range(path, a, b) for a, b in split_jsonl(path, 4)])
        assert built == []


def test_minted_ids_honour_a_rebound_counter():
    ensure_op_ids_above(10**9)
    col = ColumnarHistory.from_rows(
        [(True, "a", 0.0, 1.0, None, 1), (False, "a", 2.0, 3.0, None, 1)]
    )
    assert all(op_id > 10**9 for op_id in col.op_ids)
    # Ids follow input order, so ties break as the object path breaks them.
    tied = ColumnarHistory.from_rows(
        [(False, "a", 0.0, 1.0, None, 1), (True, "a", 0.0, 1.0, None, 1)]
    )
    assert list(tied.is_write) == [0, 1]


# ----------------------------------------------------------------------
# verify_file against the serial object reference
# ----------------------------------------------------------------------
def _fields(report):
    """Every result field; witness op ids as ranks, so runs compare."""
    out = {}
    for key, result in report.results.items():
        fields = result_fields(result)
        witness = fields[5]
        if witness is not None:
            ids = sorted(op[0] for op in witness)
            witness = [(ids.index(op[0]),) + op[1:] for op in witness]
        out[key] = fields[:5] + (witness,)
    return out, report.skipped_keys, report.is_k_atomic, dict(report.register_sizes)


def _dump_shuffled(trace, path):
    """Dump a trace with its lines shuffled: file order is not canonical
    order, so the workers must sort and map witnesses back to file rows."""
    dump_jsonl(trace, path)
    lines = path.read_text().splitlines(keepends=True)
    random.Random(len(lines)).shuffle(lines)
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch")
    files = {}
    trace = synthetic_trace(
        random.Random(11), 6, 140, staleness_probability=0.3, max_staleness=2
    )
    files["stale"] = root / "stale.jsonl"
    _dump_shuffled(trace, files["stale"])
    # YES and NO at k=2, with witnesses whose times normalisation moved.
    files["mixed"] = root / "mixed.jsonl"
    mixed = synthetic_trace(random.Random(11), 6, 140, staleness_probability=0.02, max_staleness=2)
    _dump_shuffled(
        [op for t in (mixed, in_flight_read_trace()) for key in t.keys() for op in t[key].operations],
        files["mixed"],
    )
    files["in-flight"] = root / "in-flight.jsonl"
    _dump_shuffled(in_flight_read_trace(), files["in-flight"])
    # Coarse clock: timestamp ties send registers down the exact fallback.
    coarse = root / "coarse.jsonl"
    with open(files["stale"]) as src, open(coarse, "w") as dst:
        for line in src:
            record = json.loads(line)
            record["start"] = float(int(record["start"]))
            record["finish"] = record["start"] + 1.0 + int(record["finish"] - record["start"])
            dst.write(json.dumps(record) + "\r\n")
    files["coarse"] = coarse
    files["small"] = root / "small.jsonl"
    _dump_shuffled(synthetic_trace(random.Random(5), 4, 9, max_staleness=3), files["small"])
    return files


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_verify_file_matches_object_reference(trace_files, executor):
    for name, path in trace_files.items():
        # k=3 needs the exponential exact oracle: small registers only.
        for k in (1, 2, 3) if name == "small" else (1, 2):
            for fail_fast in (False, True):
                engine = Engine(executor=executor, jobs=2, fail_fast=fail_fast)
                got = _fields(engine.verify_file(path, k))
                reference = Engine(fail_fast=fail_fast)
                want = _fields(reference.verify_trace(load_trace(path), k))
                if fail_fast:
                    # Which registers a short-circuited run skips depends on
                    # shard completion order; the verdicts it reached match.
                    assert got[2] == want[2], (name, k)
                    for key in set(got[0]) & set(want[0]):
                        assert got[0][key] == want[0][key], (name, k, key)
                else:
                    assert got == want, (name, k)


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_verify_file_raises_what_loading_raises(tmp_path, executor):
    good = [
        {"op_type": "write", "start": 0.0, "finish": 1.0, "value": "a", "key": "x"},
        {"op_type": "write", "start": 0.5, "finish": 2.0, "value": "a", "key": "y"},
        {"op_type": "write", "start": 2.0, "finish": 3.0, "value": "b", "key": "y"},
        {"op_type": "write", "start": 4.0, "finish": 5.0, "value": "a", "key": "y"},
        {"op_type": "write", "start": 0.0, "finish": 1.0, "value": "z", "key": "z"},
        {"op_type": "write", "start": 3.0, "finish": 4.0, "value": "z", "key": "z"},
    ]
    filler = [
        {"op_type": "write", "start": i, "finish": i + 0.5, "value": f"f{i}", "key": "x"}
        for i in range(2, 400)
    ]
    cases = {
        # Duplicate write values in two registers: the first key in
        # appearance order reports its canonical-order pair.
        "duplicate": filler + good,
        "malformed": filler + good[:1] + [{"op_type": "write", "start": 0}],
        "unknown-type": filler + [{"op_type": "cas", "start": 0, "finish": 1, "value": 1}],
        "finish-before-start": filler + [{"op_type": "read", "start": 3, "finish": 1, "value": 1}],
        "bad-weight": filler + [{"op_type": "write", "start": 0, "finish": 1, "value": 1, "weight": "w"}],
        "unhashable-value": filler + [{"op_type": "read", "start": 0, "finish": 1, "value": [1]}],
    }
    for name, records in cases.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        expected = _outcome(lambda: Engine().verify_trace(load_trace(path), 2))
        assert expected[0] == "raise", name
        got = _outcome(lambda: Engine(executor=executor, jobs=2).verify_file(path, 2))
        assert got == expected, name
    with pytest.raises(DuplicateValueError, match=r"value 'a'"):
        Engine(executor=executor, jobs=2).verify_file(tmp_path / "duplicate.jsonl", 2)


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_row_formats_take_the_same_columns(tmp_path, executor):
    """CSV and the foreign adapters build the same columns on the host."""
    from tests.test_interop import JEPSEN_FIXTURE, PORCUPINE_FIXTURE

    csv_path = tmp_path / "trace.csv"
    trace = synthetic_trace(random.Random(2), 4, 100, max_staleness=2)
    ops = [op for key in trace.keys() for op in trace[key].operations]
    random.Random(3).shuffle(ops)
    dump_csv(ops, csv_path)
    for path, fmt in ((csv_path, None), (JEPSEN_FIXTURE, "jepsen"), (PORCUPINE_FIXTURE, "porcupine")):
        for k in (1, 2):
            got = Engine(executor=executor, jobs=2).verify_file(path, k, fmt=fmt)
            want = Engine().verify_trace(load_trace(path, fmt), k)
            assert _fields(got) == _fields(want), (path, k)


# ----------------------------------------------------------------------
# Deferred witnesses: a decoded YES result builds its witness on first read
# ----------------------------------------------------------------------
def _counting_operations(monkeypatch, delay_s=0.0):
    """Patch ``RowColumns.operations`` to record each call's register key."""
    calls = []
    original = RowColumns.operations

    def operations(self, *args, **kwargs):
        calls.append(self.key)
        time.sleep(delay_s)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RowColumns, "operations", operations)
    return calls


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_verify_file_builds_no_witness_until_read(trace_files, executor, monkeypatch):
    calls = _counting_operations(monkeypatch)
    path = trace_files["mixed"]
    report = Engine(executor=executor, jobs=2).verify_file(path, 2)
    report.render()
    assert any(report.results.values()) and not all(report.results.values())
    assert calls == []
    got = _fields(report)  # reads every witness
    with_witness = [key for key, r in report.results.items() if r.witness is not None]
    assert with_witness and sorted(calls) == sorted(with_witness)
    assert got == _fields(Engine().verify_trace(load_trace(path), 2))
    assert len(calls) == len(with_witness)  # a second read builds nothing


def _shard(path):
    """The host's file-order columns of ``path`` and one shard's encoded
    results for them, as a process-executor verify round returns them."""
    ranges = [decode_jsonl_range(path, a, b) for a, b in split_jsonl(path, 3)]
    registers = merge_ranges(path, ranges)
    verdicts = []
    for key, rows in registers.items():
        col = ColumnarHistory.from_columns(rows.to_columns())
        verdicts.append((key, col, columnar_verdict(col, 2)))
    return registers, encode_shard_results(verdicts)


@pytest.fixture(scope="module")
def shard(trace_files):
    registers, payload = _shard(trace_files["mixed"])
    moved = [witness[1] for *_, witness in pickle.loads(payload)[1] if witness is not None]
    assert moved and any(m is not None for m in moved)  # moved times are applied
    return registers, payload


def _deferred(shard):
    """Freshly decoded results: no witness has been read yet."""
    registers, payload = shard
    return dict(decode_shard_results(payload, registers))


def _eager(shard):
    """The same results with every witness built at decode time."""
    return {
        key: VerificationResult(
            is_k_atomic=r.is_k_atomic,
            k=r.k,
            algorithm=r.algorithm,
            witness=r.witness,
            reason=r.reason,
            stats=r.stats,
        )
        for key, r in _deferred(shard).items()
    }


def test_deferred_result_reads_like_the_eager_one(shard):
    registers, _ = shard
    eager = _eager(shard)
    assert any(r.witness is not None for r in eager.values())
    names = [f.name for f in dataclasses.fields(VerificationResult)]
    assert names == ["is_k_atomic", "k", "algorithm", "witness", "reason", "stats"]
    for key, want in eager.items():
        rows = registers[key]
        history = History(rows.operations(range(len(rows))), key=key)
        checks = [
            result_fields,
            repr,
            lambda r: result_fields(dataclasses.replace(r, reason="x")),
            lambda r: r.check_witness(history),
        ]
        if want:
            checks.append(lambda r: [(op.op_id, op.start, op.finish) for op in r.require_witness()])
        for check in checks:  # each on a result whose witness is still unread
            assert check(_deferred(shard)[key]) == check(want), key
        assert _deferred(shard)[key] == want and want == _deferred(shard)[key], key
        assert _deferred(shard)[key].check_witness(history) == bool(want), key


def test_pickled_deferred_result_carries_its_witness_not_the_columns(shard):
    eager = _eager(shard)
    for key, result in _deferred(shard).items():
        blob = pickle.dumps(result)
        assert b"RowColumns" not in blob, key
        restored = pickle.loads(blob)
        assert result_fields(restored) == result_fields(eager[key]), key
        assert restored == eager[key] == result, key
        assert "_witness_source" not in vars(result), key  # the columns are let go


def test_second_read_returns_the_same_tuple(shard):
    for key, result in _deferred(shard).items():
        assert result.witness is result.witness, key


def test_racing_first_reads_share_one_witness(shard, monkeypatch):
    calls = _counting_operations(monkeypatch, delay_s=0.05)
    result = next(r for r in _deferred(shard).values() if r)
    readers = 8  # more threads than cores
    barrier = threading.Barrier(readers)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(result.witness)

    threads = [threading.Thread(target=read) for _ in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == readers and seen[0] is not None
    assert all(witness is seen[0] for witness in seen)
    assert len(calls) == 1
