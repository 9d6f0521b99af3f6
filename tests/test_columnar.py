"""Columnar fast path: randomized parity with the object kernels.

The columnar kernels are only allowed to exist because they are observably
identical to the object path: same verdicts, same NO reasons, same stats,
witnesses that validate.  These tests fuzz that equivalence across GK, FZF,
LBT and all three executors, and cover the encoding itself (construction from
rows vs from histories, lazy decoding, the shard codec round-trip) plus the
derived-structure cache the fast path leans on.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core import columnar, vector
from repro.core.api import verify, verify_trace
from repro.core.columnar import ColumnarHistory, columnar_of
from repro.core.errors import DuplicateValueError, MalformedOperationError
from repro.core.history import History
from repro.core.operation import read, trusted_operation, write
from repro.core.preprocess import find_anomalies, has_anomalies, normalize
from repro.core.zones import build_clusters
from repro.engine import EncodedShardTask, Engine, ShardTask, run_shard
from repro.workloads.synthetic import practical_history, random_history, synthetic_trace
from tests.conftest import result_fields
from tests.test_engine import in_flight_read_trace


def fuzz_histories():
    """A mix of practical, random (possibly anomalous) and edge histories."""
    cases = []
    for seed in range(25):
        rng = random.Random(seed)
        cases.append(
            practical_history(
                rng, 80, staleness_probability=0.3, max_staleness=3, key=f"p{seed}"
            )
        )
        cases.append(random_history(rng, 8, 20, key=f"r{seed}"))
    cases.append(History([], key="empty"))
    cases.append(History([write("a", 0.0, 1.0)], key="one-write"))
    cases.append(History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)], key="pair"))
    return cases


class TestVerdictParity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_randomized_parity_all_algorithms(self, k):
        for history in fuzz_histories():
            col_res = verify(history, k, columnar=True)
            obj_res = verify(history, k, columnar=False)
            assert bool(col_res) == bool(obj_res), history.key
            assert col_res.reason == obj_res.reason, history.key
            assert col_res.stats == obj_res.stats, history.key
            assert col_res.algorithm == obj_res.algorithm, history.key

    def test_witnesses_validate_on_yes(self):
        for history in fuzz_histories():
            if history.is_empty or find_anomalies(history):
                continue
            normalized = normalize(history)
            for k in (1, 2):
                res = verify(normalized, k, preprocess=False, columnar=True)
                assert bool(res) == bool(
                    verify(normalized, k, preprocess=False, columnar=False)
                )
                if res and res.witness is not None and len(res.witness):
                    assert normalized.is_k_atomic_total_order(res.witness, k)

    def test_fzf_matches_lbt_through_columnar(self):
        # LBT has no columnar twin, so it is an independent referee for FZF.
        for history in fuzz_histories():
            if history.is_empty or find_anomalies(history):
                continue
            normalized = normalize(history)
            fzf = verify(normalized, 2, algorithm="fzf", preprocess=False, columnar=True)
            lbt = verify(normalized, 2, algorithm="lbt", preprocess=False)
            assert bool(fzf) == bool(lbt), history.key

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_executor_parity(self, executor):
        trace = synthetic_trace(
            random.Random(7), 6, 150, staleness_probability=0.2, max_staleness=2
        )
        col = verify_trace(trace, 2, executor=executor, jobs=2, columnar=True)
        obj = verify_trace(trace, 2, executor=executor, jobs=2, columnar=False)
        assert {k: bool(r) for k, r in col.items()} == {
            k: bool(r) for k, r in obj.items()
        }
        assert {k: r.reason for k, r in col.items()} == {
            k: r.reason for k, r in obj.items()
        }

    @pytest.mark.skipif(not vector.NUMPY_AVAILABLE, reason="numpy not installed")
    @pytest.mark.parametrize("k", [1, 2])
    def test_three_way_kernel_parity(self, k):
        """object, columnar and numpy tiers agree on every observable."""
        for history in fuzz_histories():
            results = {
                kernel: verify(history, k, kernel=kernel)
                for kernel in vector.KERNELS
            }
            ref = results["object"]
            for kernel, res in results.items():
                assert bool(res) == bool(ref), (history.key, kernel)
                assert res.reason == ref.reason, (history.key, kernel)
                assert res.stats == ref.stats, (history.key, kernel)
                assert res.algorithm == ref.algorithm, (history.key, kernel)
                if res and res.witness is not None and not history.is_empty:
                    if not find_anomalies(history):
                        assert normalize(history).is_k_atomic_total_order(
                            res.witness, k
                        ), (history.key, kernel)

    @pytest.mark.skipif(not vector.NUMPY_AVAILABLE, reason="numpy not installed")
    def test_numpy_tier_orders_tested_matches(self):
        """The vectorized FZF screens the same candidate orders (stats parity)."""
        for seed in range(20):
            history = practical_history(
                random.Random(seed), 120, staleness_probability=0.35,
                max_staleness=3, key=f"ot{seed}",
            )
            np_res = verify(history, 2, algorithm="fzf", kernel="numpy")
            col_res = verify(history, 2, algorithm="fzf", kernel="columnar")
            assert np_res.stats == col_res.stats, seed

    @pytest.mark.skipif(not vector.NUMPY_AVAILABLE, reason="numpy not installed")
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_numpy_kernel_through_engine(self, executor):
        trace = synthetic_trace(
            random.Random(9), 6, 150, staleness_probability=0.2, max_staleness=2
        )
        np_rep = verify_trace(trace, 2, executor=executor, jobs=2, kernel="numpy")
        obj_rep = verify_trace(trace, 2, executor=executor, jobs=2, kernel="object")
        assert {k: (bool(r), r.reason) for k, r in np_rep.items()} == {
            k: (bool(r), r.reason) for k, r in obj_rep.items()
        }

    def test_default_toggle_controls_path(self):
        history = practical_history(random.Random(0), 40, key="t")
        previous = columnar.set_default_enabled(False)
        try:
            assert columnar.default_enabled() is False
            res = verify(history, 2)
            # Object path does not touch the columnar cache.
            assert "columnar" not in normalize(history)._derived
        finally:
            columnar.set_default_enabled(previous)
        assert bool(res) == bool(verify(history, 2, columnar=True))


class TestEncoding:
    def test_from_history_roundtrip_operations(self):
        history = normalize(
            practical_history(random.Random(3), 60, key="reg", num_clients=3)
        )
        col = ColumnarHistory.from_history(history)
        assert len(col) == len(history)
        assert col.operations() == list(history.operations)
        assert col.to_history() is history

    def test_from_rows_equivalent_to_from_history(self):
        history = normalize(
            practical_history(random.Random(5), 50, key="reg", num_clients=4)
        )
        rows = [
            (op.is_write, op.value, op.start, op.finish, op.client, op.weight)
            for op in history.operations
        ]
        col = ColumnarHistory.from_rows(rows, key="reg")
        ref = ColumnarHistory.from_history(history)
        assert list(col.start) == list(ref.start)
        assert list(col.finish) == list(ref.finish)
        assert bytes(col.is_write) == bytes(ref.is_write)
        assert [col.value_of(i) for i in range(col.n)] == [
            ref.value_of(i) for i in range(ref.n)
        ]
        assert list(col.dictating) == list(ref.dictating)
        # Lazily decoded operations carry the full payload.
        for i in range(col.n):
            a, b = col.operation(i), history.operations[i]
            assert (a.op_type, a.value, a.start, a.finish, a.key, a.client, a.weight) \
                == (b.op_type, b.value, b.start, b.finish, b.key, b.client, b.weight)

    def test_from_rows_validates(self):
        with pytest.raises(MalformedOperationError):
            ColumnarHistory.from_rows([(True, "a", 2.0, 1.0, None, 1)])
        with pytest.raises(MalformedOperationError):
            ColumnarHistory.from_rows([(True, "a", 0.0, 1.0, None, 0)])
        with pytest.raises(DuplicateValueError):
            ColumnarHistory.from_rows(
                [(True, "a", 0.0, 1.0, None, 1), (True, "a", 2.0, 3.0, None, 1)]
            )

    def test_from_rows_verdict_parity(self):
        for seed in range(10):
            history = practical_history(
                random.Random(seed), 60, staleness_probability=0.4, max_staleness=2
            )
            if has_anomalies(history):
                continue
            normalized = normalize(history)
            rows = [
                (op.is_write, op.value, op.start, op.finish, op.client, op.weight)
                for op in normalized.operations
            ]
            rebuilt = ColumnarHistory.from_rows(rows).to_history()
            for k in (1, 2):
                assert bool(verify(rebuilt, k, preprocess=False)) == bool(
                    verify(normalized, k, preprocess=False)
                ), seed

    def test_anomaly_scan_matches_object_path(self):
        for history in fuzz_histories():
            if history.is_empty:
                continue
            assert columnar_of(history).has_anomalies() == has_anomalies(history)

    def test_columns_roundtrip(self):
        history = normalize(
            practical_history(random.Random(11), 40, key="reg", num_clients=2)
        )
        rebuilt = ColumnarHistory.from_columns(
            columnar_of(history).to_columns()
        ).to_history()
        assert rebuilt == history  # History equality is op_id-based
        for a, b in zip(rebuilt.operations, history.operations):
            assert (a.op_type, a.value, a.start, a.finish, a.key, a.client,
                    a.op_id, a.weight) == (b.op_type, b.value, b.start, b.finish,
                                           b.key, b.client, b.op_id, b.weight)

    def test_columns_roundtrip_preserves_weights_and_missing_key(self):
        ops = [
            write("a", 0.0, 1.0, weight=3),
            read("a", 2.0, 3.0, client="c1"),
            write("b", 4.0, 5.0),
        ]
        history = History(ops)  # no register key at all
        rebuilt = ColumnarHistory.from_columns(
            columnar_of(history).to_columns()
        ).to_history()
        assert [op.weight for op in rebuilt.operations] == [3, 1, 1]
        assert [op.client for op in rebuilt.operations] == [None, "c1", None]
        assert all(op.key is None for op in rebuilt.operations)


class TestShardCodec:
    def make_task(self, **overrides):
        trace = synthetic_trace(
            random.Random(2), 4, 120, staleness_probability=0.2, max_staleness=2
        )
        items = tuple((key, trace[key]) for key in trace.keys())
        fields = dict(
            shard_id=0, items=items, k=2, algorithm="auto",
            preprocess=True, max_exact_ops=40,
        )
        fields.update(overrides)
        return ShardTask(**fields)

    def test_encoded_task_pickles_smaller_and_runs_identically(self):
        task = self.make_task()
        encoded = task.encode()
        assert isinstance(encoded, EncodedShardTask)
        assert len(pickle.dumps(encoded, pickle.HIGHEST_PROTOCOL)) < len(
            pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
        )
        clone = pickle.loads(pickle.dumps(encoded, pickle.HIGHEST_PROTOCOL))
        out_obj = run_shard(task)
        out_col = run_shard(clone).resolve(dict(task.items))
        assert out_col.num_ops == out_obj.num_ops
        assert {k: result_fields(r) for k, r in out_col.results} == {
            k: result_fields(r) for k, r in out_obj.results
        }

    def test_decode_preserves_op_identity(self):
        task = self.make_task()
        decoded = dict(task.encode().decode_items())
        for key, original in task.items:
            assert decoded[key] == original

    def test_numpy_yes_path_builds_no_operation(self, monkeypatch):
        from repro.core import operation as operation_module

        trace = in_flight_read_trace()  # normalisation moves every write
        task = self.make_task(items=tuple((key, trace[key]) for key in trace.keys()))
        encoded = task.encode()
        built = []
        real_post_init = operation_module.Operation.__post_init__

        def count_post_init(op):
            built.append(op)
            real_post_init(op)

        def count_trusted(*args, **kwargs):
            built.append(args)
            return trusted_operation(*args, **kwargs)

        monkeypatch.setattr(operation_module.Operation, "__post_init__", count_post_init)
        monkeypatch.setattr(columnar, "trusted_operation", count_trusted)
        outcome = run_shard(encoded)
        monkeypatch.undo()
        assert built == []
        assert outcome.results == () and outcome.payload is not None
        resolved = outcome.resolve(dict(task.items))
        assert all(r.is_k_atomic and r.algorithm == "FZF" for _, r in resolved.results)
        reference = run_shard(task)
        assert {k: result_fields(r) for k, r in resolved.results} == {
            k: result_fields(r) for k, r in reference.results
        }
        assert len(outcome.payload) < len(
            pickle.dumps(reference.results, pickle.HIGHEST_PROTOCOL)
        )

    def test_engine_processes_match_serial_fields(self):
        trace = synthetic_trace(random.Random(4), 5, 100)
        processes = Engine(executor="processes", jobs=2).verify_trace(trace, 2)
        serial = Engine().verify_trace(trace, 2)
        assert list(processes.results) == list(serial.results)
        for key, expected in serial.results.items():
            assert result_fields(processes.results[key]) == result_fields(expected)


class TestDerivedCache:
    def test_cluster_list_memoized(self):
        history = normalize(practical_history(random.Random(0), 40))
        assert build_clusters(history) is build_clusters(history)

    def test_cluster_map_memoized(self):
        history = normalize(practical_history(random.Random(0), 40))
        assert history.clusters() is history.clusters()

    def test_normalize_memoized_and_idempotent(self):
        history = practical_history(random.Random(1), 40)
        normalized = normalize(history)
        assert normalize(history) is normalized
        assert normalize(normalized) is normalized

    def test_anomaly_scan_memoized(self):
        history = practical_history(random.Random(2), 40)
        assert find_anomalies(history) is find_anomalies(history)
        assert has_anomalies(history) == bool(find_anomalies(history))

    def test_columnar_encoding_memoized(self):
        history = normalize(practical_history(random.Random(3), 40))
        assert columnar_of(history) is columnar_of(history)

    def test_cache_not_pickled(self):
        history = normalize(practical_history(random.Random(4), 40))
        build_clusters(history)
        columnar_of(history)
        clone = pickle.loads(pickle.dumps(history))
        assert clone == history
        assert clone._derived == {}

    def test_non_default_normalize_options_not_cached(self):
        history = practical_history(random.Random(5), 40)
        normalize(history, epsilon=1e-6)
        assert "normalized" not in history._derived
        cached = normalize(history)
        assert history._derived["normalized"] is cached


class TestCLI:
    def test_no_columnar_flag_matches_default(self, tmp_path):
        import io as _io

        from repro.cli import main
        from repro.core.history import MultiHistory
        from repro.io.formats import dump_jsonl

        ops = []
        for seed in range(3):
            ops.extend(
                practical_history(
                    random.Random(seed), 40, staleness_probability=0.3,
                    max_staleness=2, key=f"reg-{seed}",
                ).operations
            )
        path = tmp_path / "trace.jsonl"
        dump_jsonl(MultiHistory(ops), path)
        out_default, out_object = _io.StringIO(), _io.StringIO()
        status_default = main(["verify", str(path), "--k", "2"], out=out_default)
        status_object = main(
            ["verify", str(path), "--k", "2", "--no-columnar"], out=out_object
        )
        assert status_default == status_object == 0
        assert out_default.getvalue() == out_object.getvalue()

    def test_kernel_flag_matches_across_tiers(self, tmp_path):
        import io as _io

        from repro.cli import main
        from repro.core.history import MultiHistory
        from repro.io.formats import dump_jsonl

        ops = []
        for seed in range(3):
            ops.extend(
                practical_history(
                    random.Random(seed + 50), 40, staleness_probability=0.3,
                    max_staleness=2, key=f"reg-{seed}",
                ).operations
            )
        path = tmp_path / "trace.jsonl"
        dump_jsonl(MultiHistory(ops), path)
        kernels = ["object", "columnar"]
        if vector.NUMPY_AVAILABLE:
            kernels.append("numpy")
        outputs = {}
        for kernel in kernels:
            out = _io.StringIO()
            assert main(
                ["verify", str(path), "--k", "2", "--kernel", kernel], out=out
            ) == 0
            outputs[kernel] = out.getvalue()
        assert len(set(outputs.values())) == 1, outputs.keys()


class TestTrustedConstructor:
    def test_trusted_operation_equivalent(self):
        op = trusted_operation(
            write("x", 0.0, 1.0).op_type, "x", 0.0, 1.0,
            key="k", client="c", op_id=12345, weight=2,
        )
        ref = write("x", 0.0, 1.0, key="k", client="c", op_id=12345, weight=2)
        assert op == ref  # op_id equality
        assert (op.op_type, op.value, op.start, op.finish, op.key, op.client,
                op.weight) == (ref.op_type, ref.value, ref.start, ref.finish,
                               ref.key, ref.client, ref.weight)
        assert hash(op) == hash(ref)

    def test_trusted_operation_assigns_fresh_ids(self):
        a = trusted_operation(write("a", 0, 1).op_type, "a", 0.0, 1.0)
        b = trusted_operation(write("b", 0, 1).op_type, "b", 0.0, 1.0)
        assert a.op_id != b.op_id
