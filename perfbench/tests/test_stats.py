"""The percentile rule and failure accounting."""

import pytest

from perfbench.stats import (
    Tally,
    highest_percentile,
    min_samples_for,
    percentile,
    samples_beyond,
)


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p95_needs_ten_samples_beyond_it():
    assert min_samples_for(95) == 200
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) < 10


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_failed_frac_counts_a_dropped_window():
    tally = Tally()
    tally.add(1)  # the session came back
    tally.add_windows(expected=8, received=7)  # one window frame never arrived
    tally.add(512)  # all ops acknowledged
    assert (tally.attempted, tally.failed) == (521, 1)
    assert tally.failed_frac == pytest.approx(1 / 521)


def test_tally_rejects_impossible_counts():
    with pytest.raises(ValueError):
        Tally().add(1, 2)
