"""Unit tests for the unified verification API (repro.core.api)."""

import pytest

from repro.core.api import (
    DEFAULT_MAX_EXACT_OPS,
    MinimalKBound,
    minimal_k,
    minimal_k_bound,
    verify,
    verify_trace,
)
from repro.core.errors import VerificationError
from repro.core.history import History, MultiHistory
from repro.core.operation import read, write
from repro.workloads.synthetic import exactly_k_atomic_history, serial_history


class TestVerifyDispatch:
    def test_k1_uses_gk(self, atomic_history):
        result = verify(atomic_history, 1)
        assert result
        assert result.algorithm == "GK"

    def test_k2_uses_fzf_by_default(self, stale_by_one_history):
        result = verify(stale_by_one_history, 2)
        assert result
        assert result.algorithm == "FZF"

    def test_k3_uses_exact_for_small_histories(self, stale_by_two_history):
        result = verify(stale_by_two_history, 3)
        assert result
        assert result.algorithm == "exact"

    def test_explicit_algorithm_selection(self, stale_by_one_history):
        assert verify(stale_by_one_history, 2, algorithm="lbt").algorithm == "LBT"
        assert (
            verify(stale_by_one_history, 2, algorithm="lbt-reference").algorithm
            == "LBT-reference"
        )

    def test_unknown_algorithm_rejected(self, atomic_history):
        with pytest.raises(VerificationError):
            verify(atomic_history, 1, algorithm="does-not-exist")

    def test_algorithm_k_mismatch_rejected(self, atomic_history):
        with pytest.raises(VerificationError):
            verify(atomic_history, 1, algorithm="lbt")

    def test_invalid_k_rejected(self, atomic_history):
        with pytest.raises(VerificationError):
            verify(atomic_history, 0)

    def test_large_history_with_k3_refused_in_auto_mode(self):
        h = serial_history(num_writes=60, reads_per_write=1)
        assert len(h) > DEFAULT_MAX_EXACT_OPS
        with pytest.raises(VerificationError):
            verify(h, 3)

    def test_large_history_with_k3_allowed_when_limit_raised(self):
        h = serial_history(num_writes=30, reads_per_write=1)
        result = verify(h, 3, max_exact_ops=len(h))
        assert result

    def test_preprocess_handles_anomalies_gracefully(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        result = verify(h, 2)
        assert not result
        assert "anomal" in result.reason.lower()

    def test_preprocess_false_requires_clean_history(self, atomic_history):
        # Clean histories work either way.
        assert verify(atomic_history, 1, preprocess=False)

    def test_preprocess_applies_write_shortening(self):
        # A write far longer than its read requires Section II-C shortening
        # for the algorithms' assumptions to hold.
        h = History(
            [
                write("a", 0.0, 100.0),
                read("a", 1.0, 2.0),
                write("b", 3.0, 4.0),
                read("b", 5.0, 6.0),
            ]
        )
        assert verify(h, 2)


class TestVerifyTrace:
    def test_per_key_results(self):
        ops = [
            write("a", 0.0, 1.0, key="good"),
            read("a", 2.0, 3.0, key="good"),
            write("x", 0.0, 1.0, key="stale"),
            write("y", 2.0, 3.0, key="stale"),
            read("x", 4.0, 5.0, key="stale"),
        ]
        trace = MultiHistory(ops)
        results = verify_trace(trace, 1)
        assert bool(results["good"]) is True
        assert bool(results["stale"]) is False

    def test_trace_is_2atomic_iff_every_key_is(self):
        ops = [
            write("x", 0.0, 1.0, key="k1"),
            write("y", 2.0, 3.0, key="k1"),
            read("x", 4.0, 5.0, key="k1"),
            write("p", 0.0, 1.0, key="k2"),
            read("p", 2.0, 3.0, key="k2"),
        ]
        results = verify_trace(MultiHistory(ops), 2)
        assert all(bool(r) for r in results.values())


class TestMinimalK:
    def test_atomic(self, atomic_history):
        assert minimal_k(atomic_history) == 1

    def test_stale_by_one(self, stale_by_one_history):
        assert minimal_k(stale_by_one_history) == 2

    def test_stale_by_two(self, stale_by_two_history):
        assert minimal_k(stale_by_two_history) == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_generator(self, k):
        h = exactly_k_atomic_history(k, num_writes=k + 2)
        assert minimal_k(h) == k

    def test_anomalous_history_returns_none(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        assert minimal_k(h) is None

    def test_empty_history(self):
        assert minimal_k(History([])) == 1

    def test_large_history_needing_k3_raises(self):
        # The documented contract: minimal_k does NOT return a lower bound,
        # it raises; minimal_k_bound is the total variant.
        h = exactly_k_atomic_history(3, num_writes=40)
        with pytest.raises(VerificationError, match="k >= 3"):
            minimal_k(h)

    def test_large_history_within_2_is_fine(self):
        h = exactly_k_atomic_history(2, num_writes=60)
        assert minimal_k(h) == 2


class TestMinimalKBound:
    def test_exact_small_ks(self, atomic_history, stale_by_one_history, stale_by_two_history):
        assert minimal_k_bound(atomic_history) == MinimalKBound(k=1, exact=True)
        assert minimal_k_bound(stale_by_one_history) == MinimalKBound(k=2, exact=True)
        bound = minimal_k_bound(stale_by_two_history)
        assert (bound.k, bound.exact) == (3, True)

    def test_large_history_returns_lower_bound_instead_of_raising(self):
        h = exactly_k_atomic_history(3, num_writes=40)
        assert len(h) > DEFAULT_MAX_EXACT_OPS
        bound = minimal_k_bound(h)
        assert (bound.k, bound.exact) == (3, False)
        assert "max_exact_ops" in bound.reason
        assert str(bound) == "k >= 3"

    def test_anomalous_history_has_no_finite_k(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        bound = minimal_k_bound(h)
        assert (bound.k, bound.exact) == (None, True)
        assert "anomal" in bound.reason

    def test_empty_history_is_atomic(self):
        assert minimal_k_bound(History([])) == MinimalKBound(k=1, exact=True)

    def test_agrees_with_minimal_k_when_exact(self):
        for k in (1, 2, 3):
            h = exactly_k_atomic_history(k, num_writes=k + 2)
            bound = minimal_k_bound(h)
            assert bound.exact and bound.k == minimal_k(h) == k


class TestVerifyTraceEngineDelegation:
    def _trace(self):
        ops = []
        ops.extend(serial_history(3, 1, key="fresh").operations)
        ops.extend(exactly_k_atomic_history(2, 4, key="lagging").operations)
        return MultiHistory(ops)

    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_parallel_executors_match_serial(self, executor):
        trace = self._trace()
        expected = {key: bool(r) for key, r in verify_trace(trace, 2).items()}
        got = verify_trace(trace, 2, executor=executor, jobs=2)
        assert {key: bool(r) for key, r in got.items()} == expected

    def test_serial_preserves_trace_key_order(self):
        trace = self._trace()
        assert list(verify_trace(trace, 2)) == list(trace.keys())
