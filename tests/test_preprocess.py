"""Unit tests for anomaly detection and history normalisation (Section II-C)."""

import random

import pytest

from repro.core.errors import AnomalyError
from repro.core.history import History
from repro.core.operation import read, write
from repro.core.preprocess import (
    Anomaly,
    AnomalyKind,
    find_anomalies,
    has_anomalies,
    normalize,
    perturb_equal_timestamps,
    shorten_writes,
)
from repro.workloads.synthetic import practical_history


class TestAnomalyDetection:
    def test_clean_history_has_no_anomalies(self):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        assert find_anomalies(h) == []
        assert not has_anomalies(h)

    def test_read_without_dictating_write(self):
        h = History([write("a", 0.0, 1.0), read("ghost", 2.0, 3.0)])
        anomalies = find_anomalies(h)
        assert len(anomalies) == 1
        assert anomalies[0].kind is AnomalyKind.READ_WITHOUT_WRITE
        assert has_anomalies(h)

    def test_read_preceding_its_write(self):
        h = History([read("a", 0.0, 1.0), write("a", 2.0, 3.0)])
        anomalies = find_anomalies(h)
        assert len(anomalies) == 1
        assert anomalies[0].kind is AnomalyKind.READ_BEFORE_WRITE
        assert anomalies[0].write is not None

    def test_read_overlapping_its_write_is_fine(self):
        h = History([write("a", 2.0, 5.0), read("a", 1.0, 3.0)])
        assert not has_anomalies(h)

    def test_multiple_anomalies_all_reported(self):
        h = History(
            [
                write("a", 10.0, 11.0),
                read("a", 0.0, 1.0),     # precedes its write
                read("ghost", 2.0, 3.0),  # no write at all
            ]
        )
        kinds = {a.kind for a in find_anomalies(h)}
        assert kinds == {AnomalyKind.READ_BEFORE_WRITE, AnomalyKind.READ_WITHOUT_WRITE}

    def test_describe_mentions_value(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        text = find_anomalies(h)[0].describe()
        assert "ghost" in text


class TestShortenWrites:
    def test_write_already_short_untouched(self):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        assert shorten_writes(h) == h

    def test_long_write_shortened_before_read_finish(self):
        h = History([write("a", 0.0, 10.0), read("a", 1.0, 3.0)])
        shortened = shorten_writes(h)
        w = shortened.writes[0]
        r = shortened.reads[0]
        assert w.finish < r.finish
        assert w.finish > w.start

    def test_shortening_uses_minimum_read_finish(self):
        h = History(
            [write("a", 0.0, 10.0), read("a", 1.0, 8.0), read("a", 2.0, 4.0)]
        )
        shortened = shorten_writes(h)
        assert shortened.writes[0].finish < 4.0

    def test_unread_write_untouched(self):
        h = History([write("a", 0.0, 10.0), write("b", 20.0, 30.0), read("b", 21.0, 25.0)])
        shortened = shorten_writes(h)
        assert shortened.writer_of("a").finish == 10.0

    def test_reads_never_modified(self):
        h = History([write("a", 0.0, 10.0), read("a", 1.0, 3.0)])
        shortened = shorten_writes(h)
        assert shortened.reads[0].interval == (1.0, 3.0)


class TestPerturbTimestamps:
    def test_distinct_timestamps_untouched(self):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        assert perturb_equal_timestamps(h) == h
        practical = practical_history(random.Random(3), 300)
        assert perturb_equal_timestamps(practical) is practical

    def test_ties_are_broken(self):
        coarse = History(
            op.with_times(start=float(int(op.start)), finish=float(int(op.start)) + 1.0)
            for op in practical_history(random.Random(4), 200).operations
        )
        cases = [
            History([write("a", 0.0, 1.0), write("b", 1.0, 2.0), read("a", 1.0, 3.0)]),
            # Signed zeros are equal in a set, so they count as a tie.
            History([write("a", -0.0, 1.0), read("a", 0.0, 2.0)]),
            coarse,
        ]
        for h in cases:
            fixed = perturb_equal_timestamps(h)
            assert fixed is not h
            stamps = []
            for op in fixed.operations:
                stamps.extend(op.interval)
            assert len(stamps) == len(set(stamps))

    def test_order_of_distinct_stamps_preserved(self):
        h = History([write("a", 0.0, 5.0), write("b", 5.0, 7.0), read("b", 6.0, 9.0)])
        fixed = perturb_equal_timestamps(h)
        # b still starts after a starts, and the read still starts inside b.
        a, b = fixed.writer_of("a"), fixed.writer_of("b")
        r = fixed.reads[0]
        assert a.start < b.start
        assert b.start < r.start < r.finish

    def test_operations_remain_positive_length(self):
        h = History([write("a", 1.0, 1.0 + 1e-12), read("a", 1.0, 2.0)])
        fixed = perturb_equal_timestamps(h)
        for op in fixed.operations:
            assert op.finish > op.start


class TestNormalize:
    def test_normalize_raises_on_anomaly(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0)])
        with pytest.raises(AnomalyError) as err:
            normalize(h)
        assert err.value.anomalies

    def test_normalize_can_drop_anomalous_reads(self):
        h = History([write("a", 5.0, 6.0), read("ghost", 0.0, 1.0), read("a", 7.0, 8.0)])
        fixed = normalize(h, drop_anomalous_reads=True)
        assert len(fixed.reads) == 1
        assert fixed.reads[0].value == "a"

    def test_normalize_applies_both_steps(self):
        h = History(
            [write("a", 0.0, 10.0), read("a", 1.0, 3.0), write("b", 3.0, 20.0), read("b", 5.0, 7.0)]
        )
        fixed = normalize(h)
        for w in fixed.writes:
            reads = fixed.dictated_reads(w)
            if reads:
                assert w.finish < min(r.finish for r in reads)
        stamps = [t for op in fixed.operations for t in op.interval]
        assert len(stamps) == len(set(stamps))

    def test_normalize_idempotent_on_clean_history(self):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        assert normalize(normalize(h)) == normalize(h)

    def test_normalize_preserves_operation_count(self):
        h = History([write("a", 0.0, 10.0), read("a", 1.0, 3.0)])
        assert len(normalize(h)) == 2
