"""The numpy kernels: selection, internals and targeted edge cases.

The randomized parity nets live in ``tests/test_columnar.py`` and the
differential fuzz harness; this module pins the pieces those nets cannot
see directly — :func:`resolve_kernel`, the segmented suffix-minimum (both of
its internal strategies), construction errors in
:func:`columnar_from_numpy`, the closed-form chain-order check of the
vectorized FZF (asserted against the object kernel on histories chosen so
the chain path provably runs), and the irregular-chunk fallback onto
:func:`repro.algorithms.fzf.check_viable`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms import fzf
from repro.core import columnar, vector
from repro.core.api import verify, verify_trace
from repro.core.errors import DuplicateValueError, VerificationError
from repro.core.history import History
from repro.core.operation import read, write
from repro.core.preprocess import find_anomalies, normalize
from repro.engine import Engine
from repro.workloads.adversarial import (
    concurrent_batch_history,
    non_2atomic_batch_history,
)
from repro.workloads.synthetic import practical_history
from tests.conftest import result_fields


class TestResolveKernel:
    def test_explicit_kernel_wins(self):
        assert vector.KERNELS == ("object", "numpy")
        assert vector.resolve_kernel("object") == "object"
        assert vector.resolve_kernel("NUMPY") == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(VerificationError, match="unknown kernel"):
            vector.resolve_kernel("simd")

    def test_columnar_kernel_rejected(self):
        history = practical_history(random.Random(4), 30, key="c")
        for call in (
            lambda: vector.resolve_kernel("columnar"),
            lambda: verify(history, 2, kernel="columnar"),
            lambda: verify(history, 1, kernel="columnar"),
            lambda: Engine(kernel="columnar").verify_trace(history, 2),
        ):
            with pytest.raises(VerificationError, match="available: object, numpy"):
                call()

    def test_legacy_columnar_boolean(self):
        # The retired columnar= switch is refused, not silently ignored.
        history = practical_history(random.Random(5), 30, key="c")
        with pytest.raises(TypeError):
            verify(history, 2, columnar=True)
        with pytest.raises(TypeError):
            verify_trace(history, 2, columnar=False)
        with pytest.raises(TypeError):
            Engine(columnar=True)

    def test_auto_prefers_numpy_when_available(self):
        assert vector.resolve_kernel() == "numpy"

    def test_engine_auto_matches_explicit_numpy(self):
        history = practical_history(random.Random(3), 60, key="auto")
        auto = verify(history, 2)
        explicit = verify(history, 2, kernel="numpy")
        assert (bool(auto), auto.reason, auto.stats) == (
            bool(explicit), explicit.reason, explicit.stats
        )


class TestSegmentedSuffixMin:
    @staticmethod
    def reference(values, off, lengths):
        out = np.empty_like(values)
        for seg, (lo, m) in enumerate(zip(off, lengths)):
            acc = float("inf")
            for i in range(lo + m - 1, lo - 1, -1):
                acc = min(acc, values[i])
                out[i] = acc
        return out

    def _roundtrip(self, lengths, rng):
        lengths = np.asarray(lengths, dtype=np.int64)
        off = np.concatenate(([0], np.cumsum(lengths)))[:-1]
        values = np.asarray(
            [rng.uniform(0, 100) for _ in range(int(lengths.sum()))]
        )
        got = vector._segmented_suffix_min(values, off, lengths)
        assert np.array_equal(got, self.reference(values, off, lengths))

    def test_many_short_segments(self):
        # maxm <= max(64, nsegments): the position-loop strategy.
        rng = random.Random(0)
        self._roundtrip([rng.randint(1, 6) for _ in range(40)], rng)

    def test_few_long_segments(self):
        # maxm > max(64, nsegments): the per-segment accumulate strategy.
        rng = random.Random(1)
        self._roundtrip([100, 73, 1], rng)

    def test_single_element_segments(self):
        rng = random.Random(2)
        self._roundtrip([1, 1, 1, 1], rng)


class TestColumnarFromNumpy:
    def build(self, start, finish, is_write, value_id, values, **kw):
        n = len(start)
        return vector.columnar_from_numpy(
            key=kw.pop("key", "r"),
            start=np.asarray(start, dtype=np.float64),
            finish=np.asarray(finish, dtype=np.float64),
            is_write=np.asarray(is_write, dtype=np.uint8),
            value_id=np.asarray(value_id, dtype=np.int32),
            values=values,
            op_ids=np.arange(n, dtype=np.int64) + 10**6,
            **kw,
        )

    def test_duplicate_write_value_rejected(self):
        with pytest.raises(DuplicateValueError):
            self.build(
                [0.0, 2.0], [1.0, 3.0], [1, 1], [0, 0], ["a"]
            )

    def test_matches_from_rows(self):
        history = normalize(
            practical_history(random.Random(7), 50, key="r", num_clients=2)
        )
        ref = columnar.columnar_of(history)
        col = self.build(
            list(ref.start), list(ref.finish),
            list(ref.is_write), list(ref.value_id),
            list(ref.values),
        )
        assert list(col.dictating) == list(ref.dictating)
        assert list(col.write_ord) == list(ref.write_ord)
        for k in (1, 2):
            got = vector.verify_columnar(col, k, preprocess=False)
            want = verify(history, k, preprocess=False, kernel="object")
            assert (bool(got), got.reason, got.stats) == (
                bool(want), want.reason, want.stats
            )


def chain_chunks(col):
    """Chunks the closed-form chain-order check handles: nf >= 2, nb == 0."""
    ct = vector.cluster_table(col)
    ch = vector.chunk_table(col)
    starts = np.concatenate((ch.chain_starts, [ch.fidx.size]))
    nf = np.diff(starts)
    nb = np.bincount(
        ch.b_chunk[ch.b_chunk >= 0], minlength=ch.num_chunks
    ) if ch.bidx.size else np.zeros(ch.num_chunks, dtype=np.int64)
    del ct
    return np.flatnonzero((nf >= 2) & (nb == 0))


class TestChainOrderCheck:
    """The closed-form viability screen for pure-forward chains."""

    def stale_histories(self):
        cases = []
        for seed in range(30):
            history = practical_history(
                random.Random(seed), 90, staleness_probability=0.45,
                max_staleness=1, key=f"s{seed}",
            )
            if not find_anomalies(history):
                cases.append(normalize(history))
        return cases

    def test_chain_path_is_actually_exercised(self):
        hit = 0
        for history in self.stale_histories():
            hit += chain_chunks(columnar.columnar_of(history)).size
        assert hit > 0, "no pure-forward multi-write chains in the battery"

    def test_chain_verdicts_match_object_kernel(self):
        exercised = 0
        for history in self.stale_histories():
            col = columnar.columnar_of(history)
            exercised += chain_chunks(col).size
            got = vector.verify_columnar(col, 2, algorithm="fzf", preprocess=False)
            want = verify(history, 2, algorithm="fzf", preprocess=False,
                          kernel="object")
            assert result_fields(got) == result_fields(want), history.key
            if got and got.witness is not None:
                assert history.is_k_atomic_total_order(got.witness, 2), history.key
        assert exercised > 0

    def test_deep_chain_with_interleaved_reads(self):
        # One register alternating write/read with bounded staleness 1 makes
        # long pure-forward chains whose reads straddle segment boundaries.
        history = normalize(
            practical_history(
                random.Random(123), 400, staleness_probability=0.5,
                max_staleness=1, key="deep",
            )
        )
        col = columnar.columnar_of(history)
        assert chain_chunks(col).size > 0
        got = vector.verify_columnar(col, 2, algorithm="fzf", preprocess=False)
        want = verify(history, 2, algorithm="fzf", preprocess=False,
                      kernel="object")
        assert result_fields(got) == result_fields(want)
        if got and got.witness is not None:
            assert history.is_k_atomic_total_order(got.witness, 2)


def chunk_history(rng, chain, backward, key):
    """A forward chain of ``chain`` clusters with ``backward`` backward
    clusters inside its interval: one chunk that only the fallback decides."""
    ops = []
    value = 0
    for i in range(chain):
        s = 10.0 * i + rng.uniform(0, 0.5)
        ops.append(write(value, s, s + rng.uniform(0.5, 3.0), key=key))
        rs = s + rng.uniform(12.0, 16.0)
        ops.append(read(value, rs, rs + 1.0, key=key))
        value += 1
    high = 10.0 * (chain - 1) + 12.0
    for _ in range(backward):
        x = rng.uniform(2.0, high - 5.0)
        ops.append(write(value, x, x + rng.uniform(3.0, 5.0), key=key))
        ops.append(
            read(value, x + rng.uniform(0.2, 1.0), x + rng.uniform(2.0, 2.9), key=key)
        )
        value += 1
    return History(ops, key=key)


def batch_history(rng, key):
    """The differential fuzz's concurrent / non-2-atomic batch shapes."""
    if rng.random() < 0.5:
        base = concurrent_batch_history(rng.randint(1, 2), rng.randint(3, 4), key=key)
    else:
        base = non_2atomic_batch_history(rng.randint(1, 2), 3, key=key)
    ops = [op for op in base.operations if rng.random() > 0.15]
    return History(ops or list(base.operations), key=key)


def chunk_shapes(col):
    """``(forward, backward)`` cluster counts of every chunk."""
    ch = vector.chunk_table(col)
    nf = np.diff(np.concatenate((ch.chain_starts, [ch.fidx.size])))
    nb = np.bincount(ch.b_chunk[ch.b_chunk >= 0], minlength=ch.num_chunks)
    return {(int(f), int(b)) for f, b in zip(nf, nb)}


class TestIrregularChunkFallback:
    """Chunks the array ops cannot decide run fzf.check_viable itself."""

    def histories(self):
        cases = []
        for seed in range(48):
            rng = random.Random(seed)
            chain, backward = 2 + seed % 2, 1 + (seed // 2) % 2
            cases.append(chunk_history(rng, chain, backward, key=f"chunk{seed}"))
            cases.append(batch_history(rng, key=f"batch{seed}"))
        return [h for h in cases if not find_anomalies(h)]

    def test_numpy_matches_object_through_check_viable(self, monkeypatch):
        numpy_calls = []
        spying = [False]
        real = fzf.check_viable

        def spy(order, chunk_ops, dictating, dictated):
            if spying[0]:
                numpy_calls.append(len(chunk_ops))
            return real(order, chunk_ops, dictating, dictated)

        monkeypatch.setattr(fzf, "check_viable", spy)
        shapes, verdicts, reached = set(), set(), 0
        for history in self.histories():
            want = verify(history, 2, kernel="object")
            del numpy_calls[:]
            spying[0] = True
            got = verify(history, 2, kernel="numpy")
            spying[0] = False
            assert result_fields(got) == result_fields(want), history.key
            shapes |= chunk_shapes(columnar.columnar_of(normalize(history)))
            verdicts.add(bool(got))
            reached += bool(numpy_calls)
        assert {(2, 1), (2, 2), (3, 1), (3, 2)} <= shapes
        assert verdicts == {True, False}
        assert reached >= 40, reached

    def test_witness_positions_through_the_engine(self):
        histories = self.histories()
        trace = [op for h in histories for op in h.operations]
        processes = Engine(executor="processes", jobs=2).verify_trace(trace, 2)
        serial = Engine(kernel="object").verify_trace(trace, 2)
        assert list(processes.results) == list(serial.results)
        for key, expected in serial.results.items():
            assert result_fields(processes.results[key]) == result_fields(expected), key
