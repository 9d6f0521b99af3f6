"""Unit tests for the LBT 2-AV algorithm (Section III, Figure 2)."""

import random

import pytest

from repro.algorithms.lbt import (
    LBTChecker,
    is_2atomic,
    verify_2atomic,
    verify_2atomic_reference,
)
from repro.core.history import History
from repro.core.operation import read, write
from repro.core.preprocess import has_anomalies, normalize
from repro.workloads.adversarial import (
    concurrent_batch_history,
    non_2atomic_batch_history,
)
from repro.workloads.synthetic import (
    exactly_k_atomic_history,
    practical_history,
    random_history,
    serial_history,
)

from tests.conftest import TEST_SEED, result_fields


class TestAcceptance:
    def test_atomic_history_accepted(self, atomic_history):
        assert is_2atomic(atomic_history)

    def test_stale_by_one_accepted(self, stale_by_one_history):
        result = verify_2atomic(stale_by_one_history)
        assert result
        assert result.algorithm == "LBT"
        assert result.k == 2

    def test_stale_by_two_rejected(self, stale_by_two_history):
        result = verify_2atomic(stale_by_two_history)
        assert not result
        assert result.reason

    def test_empty_history_accepted(self):
        assert verify_2atomic(History([]))

    def test_anomalous_history_rejected(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        assert not verify_2atomic(h)

    def test_writes_only_history_accepted(self):
        h = History([write(i, float(i), float(i) + 5.0) for i in range(6)])
        assert is_2atomic(h)

    def test_exactly_2_atomic_generator_accepted(self):
        assert is_2atomic(exactly_k_atomic_history(2, num_writes=6))

    def test_exactly_3_atomic_generator_rejected(self):
        assert not is_2atomic(exactly_k_atomic_history(3, num_writes=6))

    def test_concurrent_batches_accepted(self):
        assert is_2atomic(concurrent_batch_history(num_batches=4, batch_size=5))

    def test_non_2atomic_batches_rejected(self):
        assert not is_2atomic(non_2atomic_batch_history(num_batches=3, batch_size=4))

    def test_long_serial_history_accepted(self):
        assert is_2atomic(serial_history(num_writes=50, reads_per_write=2))

    def test_preprocess_flag_normalises_input(self):
        # A write longer than its read: requires the Section II-C shortening.
        h = History([write("a", 0.0, 10.0), read("a", 1.0, 3.0), write("b", 11.0, 12.0)])
        assert verify_2atomic(h, preprocess=True)


class TestWitness:
    def test_witness_is_valid_2atomic_order(self, stale_by_one_history):
        result = verify_2atomic(stale_by_one_history)
        assert result.check_witness(stale_by_one_history)

    def test_witness_covers_all_operations(self, stale_by_one_history):
        result = verify_2atomic(stale_by_one_history)
        assert set(result.require_witness()) == set(stale_by_one_history.operations)

    def test_witness_on_concurrent_batches(self):
        h = concurrent_batch_history(num_batches=3, batch_size=4)
        result = verify_2atomic(h)
        assert result.check_witness(h)

    def test_no_witness_on_rejection(self, stale_by_two_history):
        assert verify_2atomic(stale_by_two_history).witness is None

    def test_reference_witness_also_valid(self, stale_by_one_history):
        result = verify_2atomic_reference(stale_by_one_history)
        assert result.check_witness(stale_by_one_history)


class TestReferenceAgreement:
    HISTORIES = [
        History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)]),
        History([write("a", 0.0, 1.0), write("b", 2.0, 3.0), read("a", 4.0, 5.0)]),
        History(
            [
                write("a", 0.0, 1.0),
                write("b", 2.0, 3.0),
                write("c", 4.0, 5.0),
                read("a", 6.0, 7.0),
            ]
        ),
        History(
            [
                write("a", 0.0, 10.0),
                write("b", 1.0, 11.0),
                read("a", 12.0, 13.0),
                read("b", 14.0, 15.0),
            ]
        ),
    ]

    @pytest.mark.parametrize("history", HISTORIES)
    def test_optimized_matches_reference(self, history):
        assert bool(verify_2atomic(history)) == bool(verify_2atomic_reference(history))

    def test_generators_agree(self):
        for h in (
            serial_history(8, 1),
            exactly_k_atomic_history(2, 5),
            exactly_k_atomic_history(3, 5),
            concurrent_batch_history(2, 3),
            non_2atomic_batch_history(2, 3),
        ):
            assert bool(verify_2atomic(h)) == bool(verify_2atomic_reference(h))


class TestEpochMechanics:
    def test_stats_counted(self, stale_by_one_history):
        result = verify_2atomic(stale_by_one_history)
        assert result.stats["epochs"] >= 1
        assert result.stats["candidates_tried"] >= 1

    def test_checker_candidates_are_suffix_maximal_writes(self):
        h = History(
            [
                write("a", 0.0, 1.0),
                write("b", 2.0, 10.0),
                write("c", 3.0, 11.0),
                read("c", 12.0, 13.0),
            ]
        )
        checker = LBTChecker(h)
        candidates = [checker.writes[i] for i in checker._candidate_indices()]
        # "a" precedes both other writes, so it cannot be a candidate.
        assert {w.value for w in candidates} == {"b", "c"}

    def test_single_write_candidate(self):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        checker = LBTChecker(h)
        assert [checker.writes[i].value for i in checker._candidate_indices()] == ["a"]

    def test_rejection_reason_mentions_candidates(self, stale_by_two_history):
        result = verify_2atomic(stale_by_two_history)
        assert "candidate" in result.reason


class TestTrickyShapes:
    def test_read_of_earlier_value_with_concurrent_write(self):
        # w(b) overlaps the read of a, so it can be pushed after the read.
        h = History(
            [
                write("a", 0.0, 1.0),
                write("b", 2.0, 10.0),
                write("c", 3.0, 11.0),
                read("a", 4.0, 5.0),
            ]
        )
        assert is_2atomic(h)

    def test_two_reads_of_two_stale_values_after_three_writes(self):
        # After w(a), w(b), w(c) all finish, reads of a and b cannot both be
        # within staleness 2 ... unless ordered cleverly; here r(a) comes
        # first so a must be within the last 2 writes and then r(b) as well —
        # impossible because c must also be placed before both reads.
        h = History(
            [
                write("a", 0.0, 1.0),
                write("b", 2.0, 3.0),
                write("c", 4.0, 5.0),
                read("a", 6.0, 7.0),
                read("b", 8.0, 9.0),
            ]
        )
        assert not is_2atomic(h)

    def test_interleaved_lag_one_chain_is_2atomic(self):
        ops = []
        t = 0.0
        for i in range(6):
            ops.append(write(i, t, t + 1.0))
            t += 2.0
            if i >= 1:
                ops.append(read(i - 1, t, t + 1.0))
                t += 2.0
        assert is_2atomic(History(ops))

    def test_lag_two_chain_is_not_2atomic(self):
        ops = []
        t = 0.0
        for i in range(6):
            ops.append(write(i, t, t + 1.0))
            t += 2.0
            if i >= 2:
                ops.append(read(i - 2, t, t + 1.0))
                t += 2.0
        assert not is_2atomic(History(ops))


class _DeepeningChecker(LBTChecker):
    """The reference: every alive candidate re-run at doubled budgets, a
    lone one included (the deepening loop before the lone-candidate rule)."""

    def _explore_candidates(self, candidates):
        alive = list(candidates)
        budget = 4
        while alive:
            self.stats["deepening_rounds"] += 1
            survivors = []
            for candidate in alive:
                self.stats["candidates_tried"] += 1
                outcome, segments, (h_mark, w_mark) = self._run_epoch(candidate, budget)
                if outcome == "success":
                    return segments
                self.H.undo_to(h_mark)
                self.W.undo_to(w_mark)
                if outcome == "budget":
                    survivors.append(candidate)
            alive = survivors
            budget *= 2
        return None


class TestLoneCandidate:
    def fuzz_histories(self, rng):
        for _ in range(400):
            yield random_history(
                rng, rng.randrange(1, 12), rng.randrange(0, 24), span=rng.choice([5.0, 20.0])
            )
        for _ in range(40):
            yield practical_history(
                rng, rng.randrange(20, 200), staleness_probability=0.1, max_staleness=2
            )
        for batches, writes in [(3, 3), (4, 4), (6, 5)]:
            yield concurrent_batch_history(batches, writes)
            yield non_2atomic_batch_history(batches, writes)

    def test_fuzz_results_equal_the_deepening_reference(self):
        rng = random.Random(TEST_SEED)
        checked = nos = saved = 0
        for history in self.fuzz_histories(rng):
            if has_anomalies(history):
                continue
            history = normalize(history)
            got = LBTChecker(history).verify()
            want = _DeepeningChecker(history).verify()
            fields, expected = result_fields(got), result_fields(want)
            # verdict, k, algorithm, reason; then the witness, field by field
            assert fields[:4] == expected[:4] and fields[5] == expected[5]
            assert got.stats["epochs"] == want.stats["epochs"]
            assert got.stats["candidates_tried"] <= want.stats["candidates_tried"]
            checked += 1
            nos += not got
            saved += got.stats["candidates_tried"] < want.stats["candidates_tried"]
        assert checked > 100 and nos > 10 and saved > 10

    def test_a_serial_history_tries_one_candidate_per_epoch(self):
        result = verify_2atomic(serial_history(40, 2))
        stats = result.stats
        assert result and stats["epochs"] == 40
        assert stats["candidates_tried"] == stats["deepening_rounds"] == stats["epochs"]
