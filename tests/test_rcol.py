"""The memory-mapped ``.rcol`` out-of-core trace backend.

``.rcol`` is the only format the engine can verify without materialising the
trace, so these tests pin the whole contract: lossless round-trips (weights,
clients, keyless registers, non-string keys), validation parity with the
object readers, re-sorting of foreign-written files, lazy value decoding,
the engine/CLI paths over ``.rcol`` files, and the pyarrow gating of the
optional Parquet sibling.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.columnar import columnar_of
from repro.core.errors import MalformedOperationError, TraceFormatError
from repro.core.history import History, MultiHistory
from repro.core.operation import read, write
from repro.core.preprocess import normalize
from repro.core.vector import verify_columnar
from repro.engine import Engine
from repro.io.registry import FORMATS, detect_format, dump_trace, load_trace
from repro.io.rcol import (
    LazyValueTable,
    RcolFile,
    RcolWriter,
    dump_rcol,
    iter_rcol,
)
from repro.workloads.synthetic import practical_history, synthetic_trace


def sample_trace():
    ops = []
    for seed in range(3):
        ops.extend(
            practical_history(
                random.Random(seed), 30, staleness_probability=0.2,
                max_staleness=2, key=f"reg-{seed}", num_clients=3,
            ).operations
        )
    ops.append(write(12345, 0.0, 1.0, key=7, weight=3))
    ops.append(read(12345, 2.0, 3.0, key=7, client="c9"))
    return MultiHistory(ops)


def op_payload(op):
    """Everything serialisable about an operation (op_ids are process-local)."""
    return (op.op_type, op.value, op.start, op.finish, op.key, op.client, op.weight)


class TestRoundTrip:
    def test_dump_iter_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.rcol"
        count = dump_rcol(trace, path)
        assert count == trace.total_operations()
        by_key = {}
        for op in iter_rcol(path):
            by_key.setdefault(op.key, []).append(op)
        assert set(by_key) == set(trace.keys())
        for key in trace.keys():
            assert [op_payload(op) for op in by_key[key]] == [
                op_payload(op) for op in trace[key].operations
            ]

    def test_registry_roundtrip_and_detection(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.rcol"
        assert detect_format(path).name == "rcol"
        dump_trace(trace, path)
        loaded = load_trace(path)
        assert set(loaded.keys()) == set(trace.keys())
        for key in trace.keys():
            assert [op_payload(op) for op in loaded[key].operations] == [
                op_payload(op) for op in trace[key].operations
            ]

    def test_keyless_history_roundtrip(self, tmp_path):
        history = History(
            [write("a", 0.0, 1.0, weight=2), read("a", 2.0, 3.0, client="c1")]
        )
        path = tmp_path / "keyless.rcol"
        dump_rcol(history, path)
        ops = list(iter_rcol(path))
        assert [op.key for op in ops] == [None, None]
        assert [op.weight for op in ops] == [2, 1]
        assert [op.client for op in ops] == [None, "c1"]

    def test_weights_survive_json_conversion(self, tmp_path):
        # numpy scalars must never leak into decoded operations: a
        # rcol -> jsonl conversion JSON-encodes every field.
        history = History([write("a", 0.0, 1.0, weight=5), read("a", 2.0, 3.0)],
                          key="w")
        rcol = tmp_path / "t.rcol"
        jsonl = tmp_path / "t.jsonl"
        dump_rcol(history, rcol)
        dump_trace(load_trace(rcol), jsonl)
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert records[0]["weight"] == 5
        assert all(isinstance(r["start"], float) for r in records)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rcol"
        assert dump_rcol(MultiHistory([]), path) == 0
        with RcolFile(path) as rf:
            assert rf.keys() == []
            assert rf.num_ops == 0
        assert list(iter_rcol(path)) == []


class TestValidation:
    def test_nonpositive_duration_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.rcol"
        with RcolWriter(path) as w:
            w.begin_register("r")
            w.add_values(["a"])
            w.append_chunk(
                np.array([2.0]), np.array([1.0]),
                np.array([1], dtype=np.uint8), np.array([0], dtype=np.int32),
            )
            w.end_register()
        with RcolFile(path) as rf:
            with pytest.raises(MalformedOperationError) as err:
                rf.load_columnar("r")
        assert "positive amount of time" in str(err.value)

    def test_nonpositive_weight_rejected_on_load(self, tmp_path):
        path = tmp_path / "badw.rcol"
        with RcolWriter(path) as w:
            w.begin_register("r")
            w.add_values(["a"])
            w.append_chunk(
                np.array([0.0]), np.array([1.0]),
                np.array([1], dtype=np.uint8), np.array([0], dtype=np.int32),
                weights=np.array([0], dtype=np.int64),
            )
            w.end_register()
        with RcolFile(path) as rf:
            with pytest.raises(MalformedOperationError) as err:
                rf.load_columnar("r")
        assert "weights must be positive" in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.rcol"
        dump_rcol(sample_trace(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFormatError):
            RcolFile(path)

    def test_non_json_key_rejected_at_write_time(self, tmp_path):
        with RcolWriter(tmp_path / "x.rcol") as w:
            with pytest.raises(TraceFormatError):
                w.begin_register(("tuple", "key"))

    def test_foreign_unsorted_rows_are_resorted(self, tmp_path):
        # A foreign producer may write rows out of canonical order; loading
        # must re-sort instead of mis-verifying.
        path = tmp_path / "unsorted.rcol"
        with RcolWriter(path) as w:
            w.begin_register("r")
            w.add_values(["a", "b"])
            w.append_chunk(
                np.array([4.0, 0.0, 2.0]),
                np.array([5.0, 1.0, 3.0]),
                np.array([0, 1, 1], dtype=np.uint8),
                np.array([1, 0, 1], dtype=np.int32),
            )
            w.end_register()
        with RcolFile(path) as rf:
            col = rf.load_columnar("r")
            assert list(col.start) == [0.0, 2.0, 4.0]
            res = verify_columnar(col, 1)
            assert bool(res)


class TestLazyLoading:
    def test_lazy_value_table_decodes_per_item(self, tmp_path):
        path = tmp_path / "lazy.rcol"
        history = normalize(
            practical_history(random.Random(1), 40, key="lz", num_clients=2)
        )
        dump_rcol(history, path)
        with RcolFile(path) as rf:
            col = rf.load_columnar("lz")
            assert isinstance(col.values, LazyValueTable)
            materialised = col.values.materialise()
            assert list(col.values) == materialised
            assert col.values[0] == materialised[0]

    def test_verify_columnar_parity_with_object_path(self, tmp_path):
        from repro.core.api import verify

        for seed in (0, 3, 6):
            history = practical_history(
                random.Random(seed), 80, staleness_probability=0.3,
                max_staleness=2, key=f"p{seed}",
            )
            path = tmp_path / f"p{seed}.rcol"
            dump_rcol(history, path)
            with RcolFile(path) as rf:
                col = rf.load_columnar(f"p{seed}")
                for k in (1, 2):
                    ref = verify(history, k, kernel="object")
                    got = verify_columnar(col, k)
                    assert bool(got) == bool(ref), (seed, k)
                    assert got.stats == ref.stats, (seed, k)

    def test_undecoded_witness_stays_undecoded(self, tmp_path):
        history = normalize(practical_history(random.Random(2), 60, key="u"))
        path = tmp_path / "u.rcol"
        dump_rcol(history, path)
        with RcolFile(path) as rf:
            col = rf.load_columnar("u")
            res = verify_columnar(col, 2, preprocess=False, decode_witness=False)
            dec = verify_columnar(col, 2, preprocess=False)
        assert bool(res) and res.witness is None
        assert bool(dec) and dec.witness is not None
        assert col.to_history().is_k_atomic_total_order(dec.witness, 2)

    def test_witness_outlives_the_mapping(self, tmp_path):
        # verify_columnar decodes a YES witness before it returns: the
        # columns may be memory-mapped, and RcolFile.close() may unmap them
        # before a deferred read.
        history = normalize(practical_history(random.Random(2), 60, key="u"))
        path = tmp_path / "u.rcol"
        dump_rcol(history, path)
        with RcolFile(path) as rf:
            got = verify_columnar(rf.load_columnar("u"), 2, preprocess=False)
        want = verify_columnar(columnar_of(history), 2, preprocess=False)
        assert bool(got) and want.witness is not None
        assert list(map(op_payload, got.witness)) == list(map(op_payload, want.witness))

    def test_register_sizes_match_footer(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "sizes.rcol"
        dump_rcol(trace, path)
        with RcolFile(path) as rf:
            sizes = dict(rf.register_sizes())
        assert sizes == {key: len(trace[key]) for key in trace.keys()}


class TestEngineAndCLI:
    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_verify_file_matches_jsonl_path(self, tmp_path, executor):
        trace = synthetic_trace(
            random.Random(5), 5, 120, staleness_probability=0.2, max_staleness=2
        )
        rcol = tmp_path / "t.rcol"
        jsonl = tmp_path / "t.jsonl"
        dump_trace(trace, rcol)
        dump_trace(trace, jsonl)
        engine = Engine(executor=executor, jobs=2)
        rep_rcol = engine.verify_file(rcol, 2)
        rep_jsonl = engine.verify_file(jsonl, 2)
        assert {k: (bool(r), r.algorithm) for k, r in rep_rcol.results.items()} == {
            k: (bool(r), r.algorithm) for k, r in rep_jsonl.results.items()
        }

    def test_cli_verify_and_convert(self, tmp_path):
        import io as _io

        from repro.cli import main

        trace = synthetic_trace(random.Random(8), 3, 60)
        jsonl = tmp_path / "t.jsonl"
        rcol = tmp_path / "t.rcol"
        dump_trace(trace, jsonl)
        assert main(["convert", str(jsonl), str(rcol)], out=_io.StringIO()) == 0
        out_rcol, out_jsonl = _io.StringIO(), _io.StringIO()
        assert main(["verify", str(rcol), "--k", "2"], out=out_rcol) == 0
        assert main(["verify", str(jsonl), "--k", "2"], out=out_jsonl) == 0
        # Same registers, same verdicts; only the trace path differs.
        scrub = lambda text: text.replace(str(rcol), "T").replace(str(jsonl), "T")
        assert scrub(out_rcol.getvalue()) == scrub(out_jsonl.getvalue())


class TestParquetGating:
    def test_parquet_is_registered(self):
        assert "parquet" in FORMATS
        assert ".parquet" in FORMATS["parquet"].extensions

    def test_gating_or_roundtrip(self, tmp_path):
        from repro.io import parquet

        path = tmp_path / "t.parquet"
        trace = sample_trace()
        if parquet.PYARROW_AVAILABLE:
            dump_trace(trace, path)
            loaded = load_trace(path)
            for key in trace.keys():
                assert [op_payload(op) for op in loaded[key].operations] == [
                    op_payload(op) for op in trace[key].operations
                ]
        else:
            with pytest.raises(TraceFormatError) as err:
                dump_trace(trace, path)
            assert "repro-katomicity[arrow]" in str(err.value)
            with pytest.raises(TraceFormatError):
                list(parquet.iter_parquet(path))
