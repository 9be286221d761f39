"""Tail percentiles leave at least ten samples beyond them."""

import pytest

import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0),
        (19, 50.0),
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


@pytest.mark.parametrize("count", [1, 20, 57, 200, 420, 1000, 5000, 15_000])
def test_tail_leaves_enough_samples_beyond(count):
    samples = list(range(count))
    pct = stats.tail_percentile(count)
    value = stats.percentile(samples, pct)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= stats.MIN_BEYOND or pct == stats.MEDIAN
    if pct == stats.MEDIAN:
        assert value == stats.percentile(samples, 50.0)


def test_tail_of_a_handful_is_the_median():
    assert stats.tail([4.0, 1.0, 3.0, 2.0]) == (2.5, stats.MEDIAN)
    assert stats.tail([7.0]) == (7.0, stats.MEDIAN)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50.0) == 3.0
    assert stats.percentile(samples, 100.0) == 5.0
    assert stats.percentile(samples, 20.0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile(samples, 0.0)


def test_relative_spread():
    assert stats.relative_spread([10.0] * 10) == 0.0
    assert stats.relative_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)
