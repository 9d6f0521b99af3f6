"""Tests for the sharded verification engine (repro.engine).

The heart of this module is the parity property: for every multi-register
fixture and every k in {1, 2, 3}, the engine — under every executor and every
partitioner — must return exactly the verdicts of the seed-style serial loop
(one ``verify`` call per register, in trace order).  The locality theorem
says any register partitioning is correct; these tests say the code agrees.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core.api import verify
from repro.core.builder import TraceBuilder
from repro.core.errors import VerificationError
from repro.core.history import History, MultiHistory
from repro.core.operation import read, write
from repro.engine import (
    Engine,
    HashPartitioner,
    RoundRobinPartitioner,
    ShardTask,
    SizeBalancedPartitioner,
    get_executor,
    get_partitioner,
    run_shard,
)
from repro.workloads.synthetic import (
    exactly_k_atomic_history,
    practical_history,
    serial_history,
    synthetic_trace,
)
from tests.conftest import result_fields

EXECUTORS = ["serial", "processes"]
KS = [1, 2, 3]


# ----------------------------------------------------------------------
# Multi-register fixtures
# ----------------------------------------------------------------------
def mixed_staleness_trace():
    """Registers whose minimal staleness bounds are exactly 1, 2 and 3."""
    ops = []
    ops.extend(serial_history(4, 1, key="atomic").operations)
    ops.extend(exactly_k_atomic_history(2, 4, key="lag-1").operations)
    ops.extend(exactly_k_atomic_history(3, 5, key="lag-2").operations)
    return MultiHistory(ops)


def anomalous_trace():
    """A clean register next to two anomalous ones (never k-atomic)."""
    ops = [
        write("a", 0.0, 1.0, key="clean"),
        read("a", 2.0, 3.0, key="clean"),
        # Read of a value nobody wrote.
        write("x", 0.0, 1.0, key="ghost-read"),
        read("phantom", 2.0, 3.0, key="ghost-read"),
        # Read that finishes before its dictating write starts.
        write("y", 5.0, 6.0, key="time-travel"),
        read("y", 0.0, 1.0, key="time-travel"),
    ]
    return MultiHistory(ops)


def synthetic_many_register_trace():
    return synthetic_trace(
        random.Random(42), 12, 16, staleness_probability=0.2, max_staleness=2, size_skew=1.5
    )


def single_register_trace():
    return MultiHistory(exactly_k_atomic_history(2, 5, key="only").operations)


TRACES = {
    "mixed": mixed_staleness_trace,
    "anomalous": anomalous_trace,
    "synthetic": synthetic_many_register_trace,
    "single": single_register_trace,
}


def coarse_clock_trace():
    """Practical registers on a half-unit clock: timestamp ties everywhere,
    so normalisation takes the sequential tie-breaking fallback."""
    rng = random.Random(5)
    ops = []
    for i in range(4):
        for op in practical_history(rng, 60, num_clients=4, key=f"coarse-{i}").operations:
            start = float(int(op.start * 2)) / 2
            finish = max(float(int(op.finish * 2)) / 2, start + 0.5)
            ops.append(op.with_times(start=start, finish=finish))
    return MultiHistory(ops)


def weighted_client_trace():
    """Registers whose writes carry weights > 1 and whose ops carry clients."""
    rng = random.Random(6)
    ops = []
    for i in range(3):
        history = practical_history(rng, 80, num_clients=3, key=f"weighted-{i}")
        ops.extend(
            replace(op, weight=2 + op.op_id % 3) if op.is_write else op
            for op in history.operations
        )
    return MultiHistory(ops)


def in_flight_read_trace():
    """Reads that finish inside their write, so normalisation shortens every
    write; timestamps stay distinct, so the numpy path still runs."""
    rng = random.Random(7)
    ops = []
    for r in range(3):
        key = f"in-flight-{r}"
        for i in range(30):
            t = 10.0 * i + rng.uniform(0.0, 1.0)
            ops.append(write(i, t, t + 6.0, key=key, client=i % 3))
            ops.append(read(i, t + 1.0, t + rng.uniform(2.0, 4.0), key=key))
            ops.append(read(i, t + 7.0, t + rng.uniform(8.0, 9.0), key=key))
    return MultiHistory(ops)


def keyless_history():
    """One register whose operations carry no key at all."""
    return History(practical_history(random.Random(8), 60).operations)


#: ``(trace factory, k, Engine options)`` beyond every ``TRACES`` x ``KS``
#: pair: the fallback paths and the options that reach the worker.
PARITY_VARIANTS = [
    (coarse_clock_trace, 1, {}),
    (coarse_clock_trace, 2, {}),
    (weighted_client_trace, 2, {}),
    (keyless_history, 2, {}),
    (in_flight_read_trace, 1, {}),
    (in_flight_read_trace, 2, {}),
    (synthetic_many_register_trace, 2, {"algorithm": "lbt"}),
]


def seed_verdicts(trace, k):
    """The reference semantics: verify each register in trace order."""
    return {key: bool(verify(trace[key], k)) for key in trace.keys()}


# ----------------------------------------------------------------------
# Parity across executors, partitioners and k
# ----------------------------------------------------------------------
class TestExecutorParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    def test_verdicts_match_seed_serial_loop(self, trace_name, k, executor):
        trace = TRACES[trace_name]()
        report = Engine(executor=executor, jobs=2).verify_trace(trace, k)
        assert report.verdicts() == seed_verdicts(trace, k)
        assert not report.skipped_keys
        assert set(report.results) == set(trace.keys())

    @pytest.mark.parametrize("partitioner", ["hash", "round-robin", "size-balanced"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_verdicts_independent_of_partitioner(self, partitioner, k):
        trace = synthetic_many_register_trace()
        report = Engine(
            executor="serial", jobs=3, partitioner=partitioner, shards_per_job=2
        ).verify_trace(trace, k)
        assert report.verdicts() == seed_verdicts(trace, k)
        assert report.partitioner == partitioner

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_result_objects_match_serial_fields(self, executor):
        cases = [(TRACES[name], k, {}) for name in sorted(TRACES) for k in KS]
        for factory, k, options in cases + PARITY_VARIANTS:
            trace = factory()
            serial = Engine(**options).verify_trace(trace, k)
            report = Engine(executor=executor, jobs=2, **options).verify_trace(trace, k)
            case = (factory.__name__, k, options)
            assert not report.skipped_keys and not serial.skipped_keys, case
            assert list(report.results) == list(serial.results), case
            for key, expected in serial.results.items():
                assert result_fields(report.results[key]) == result_fields(expected), (case, key)
            if not options:
                keyed = trace if isinstance(trace, MultiHistory) else {None: trace}
                for key in serial.results:
                    assert result_fields(serial.results[key]) == result_fields(
                        verify(keyed[key], k)
                    ), (case, key)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fail_fast_results_match_serial_fields(self, executor):
        trace = synthetic_trace(
            random.Random(9), 8, 40, staleness_probability=0.3, max_staleness=2
        )
        serial = Engine().verify_trace(trace, 1)
        report = Engine(executor=executor, jobs=2, fail_fast=True).verify_trace(trace, 1)
        assert not report.is_k_atomic
        assert set(report.results) | set(report.skipped_keys) == set(trace.keys())
        for key, got in report.results.items():
            assert result_fields(got) == result_fields(serial.results[key]), key

    def test_results_preserve_trace_key_order(self):
        trace = synthetic_many_register_trace()
        report = Engine(executor="processes", jobs=3).verify_trace(trace, 2)
        assert list(report.results) == list(trace.keys())


class TestIngestion:
    def test_accepts_trace_builder(self):
        trace = mixed_staleness_trace()
        builder = TraceBuilder()
        for key in trace.keys():
            builder.extend(trace[key].operations)
        report = Engine().verify_trace(builder, 2)
        assert report.verdicts() == seed_verdicts(trace, 2)

    def test_accepts_raw_operation_iterable(self):
        trace = mixed_staleness_trace()
        ops = [op for key in trace.keys() for op in trace[key].operations]
        report = Engine().verify_trace(iter(ops), 2)
        assert report.verdicts() == seed_verdicts(trace, 2)

    def test_empty_trace(self):
        report = Engine().verify_trace(MultiHistory([]), 2)
        assert report.results == {}
        assert report.is_k_atomic  # vacuous truth: every register is k-atomic
        assert report.num_shards == 0


class TestFailFast:
    def _failing_trace(self):
        builder = TraceBuilder()
        for i in range(8):
            key = f"r{i}"
            builder.append(write("a", 0.0, 1.0, key=key))
            builder.append(write("b", 2.0, 3.0, key=key))
            # Register r3 is stale by one write: fails k=1.
            builder.append(read("a" if i == 3 else "b", 4.0, 5.0, key=key))
        return builder

    def test_fail_fast_skips_remaining_shards(self):
        report = Engine(executor="serial", fail_fast=True, shards_per_job=8).verify_trace(
            self._failing_trace(), 1
        )
        assert not report.is_k_atomic
        key, result = report.first_failure
        assert key == "r3" and not result
        assert report.skipped_keys  # at least one later shard never ran
        assert set(report.skipped_keys).isdisjoint(report.results)

    def test_no_fail_fast_verifies_everything(self):
        report = Engine(executor="serial", fail_fast=False).verify_trace(
            self._failing_trace(), 1
        )
        assert not report.is_k_atomic
        assert not report.skipped_keys
        assert list(report.failures) == ["r3"]


class TestReport:
    def test_shard_stats_cover_all_ops(self):
        trace = synthetic_many_register_trace()
        report = Engine(executor="serial", jobs=2).verify_trace(trace, 2)
        assert report.total_ops == trace.total_operations()
        assert sum(s.num_registers for s in report.shard_stats) == len(trace)
        assert report.num_shards == len(report.shard_stats)

    def test_render_mentions_failures_and_shards(self):
        trace = mixed_staleness_trace()
        report = Engine().verify_trace(trace, 1)
        text = report.render()
        assert "per-shard statistics" in text
        assert "failing registers" in text
        assert "lag-1" in text and "lag-2" in text

    def test_summary_states_verdict(self):
        trace = single_register_trace()
        assert "YES" in Engine().verify_trace(trace, 2).summary()
        assert "NO" in Engine().verify_trace(trace, 1).summary()


class TestPicklability:
    def test_algorithm_spec_pickles_to_registry_instance(self):
        from repro.algorithms.registry import REGISTRY, get_algorithm

        for name in REGISTRY:
            spec = get_algorithm(name)
            assert pickle.loads(pickle.dumps(spec)) is spec

    def test_shard_task_roundtrip_runs_in_this_process(self):
        trace = mixed_staleness_trace()
        task = ShardTask(
            shard_id=0,
            items=tuple((key, trace[key]) for key in trace.keys()),
            k=2,
            algorithm="auto",
            preprocess=True,
            max_exact_ops=40,
        )
        clone = pickle.loads(pickle.dumps(task))
        outcome = run_shard(clone)
        assert {key: bool(r) for key, r in outcome.results} == seed_verdicts(trace, 2)
        assert outcome.num_ops == trace.total_operations()

    def test_unregistered_spec_keeps_default_pickling(self):
        from repro.algorithms import exact
        from repro.algorithms.registry import AlgorithmSpec

        spec = AlgorithmSpec(
            name="custom-exact",
            supported_k=None,
            fn=exact.verify_k_atomic_exact,
            description="ad-hoc spec outside the registry",
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone is not spec


class TestPartitioners:
    SIZED = [("a", 10), ("b", 1), ("c", 7), ("d", 7), ("e", 2), ("f", 30)]

    @pytest.mark.parametrize("name", ["hash", "round-robin", "size-balanced"])
    def test_every_key_assigned_exactly_once(self, name):
        shards = get_partitioner(name).partition(self.SIZED, 3)
        assert len(shards) == 3
        flat = [key for shard in shards for key in shard]
        assert sorted(flat) == sorted(key for key, _ in self.SIZED)

    def test_hash_is_stable_per_key(self):
        p = HashPartitioner()
        first = p.partition(self.SIZED, 4)
        # Same key lands in the same shard even when the rest of the trace changes.
        alone = p.partition([("f", 30)], 4)
        (f_shard,) = [i for i, shard in enumerate(first) if "f" in shard]
        assert "f" in alone[f_shard]

    def test_round_robin_preserves_appearance_order(self):
        shards = RoundRobinPartitioner().partition(self.SIZED, 2)
        assert shards == [["a", "c", "e"], ["b", "d", "f"]]

    def test_size_balanced_minimises_spread(self):
        shards = SizeBalancedPartitioner().partition(self.SIZED, 2)
        sizes = dict(self.SIZED)
        loads = sorted(sum(sizes[k] for k in shard) for shard in shards)
        assert loads == [27, 30]  # LPT optimum for these sizes

    def test_unknown_names_rejected(self):
        with pytest.raises(VerificationError):
            get_partitioner("nope")
        with pytest.raises(VerificationError):
            get_executor("nope")


class TestEngineConfig:
    def test_bad_jobs_rejected(self):
        with pytest.raises(VerificationError):
            Engine(jobs=0)

    def test_serial_defaults_to_one_job(self):
        assert Engine().jobs == 1

    def test_threads_executor_is_refused_by_name(self):
        with pytest.raises(
            VerificationError,
            match="unknown executor 'threads'; available: processes, serial",
        ):
            get_executor("threads")
        with pytest.raises(VerificationError, match="available: processes, serial"):
            Engine(executor="threads")

    def test_engine_has_no_tier(self):
        with pytest.raises(TypeError):
            Engine(tier="screen")

    def test_plan_caps_shards_at_register_count(self):
        trace = single_register_trace()
        engine = Engine(executor="processes", jobs=8)
        registers = engine._as_register_histories(trace)
        assert len(engine.plan(registers, 2)) == 1
