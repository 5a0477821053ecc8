"""The percentile rule: a percentile needs ten samples beyond it."""

import pytest

from stats import median, percentile, supported, tail


def test_percentile_interpolates_linearly():
    values = list(range(101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_supported_needs_ten_samples_beyond():
    assert supported(1000, 99.0)
    assert not supported(999, 99.0)
    assert supported(100, 90.0)
    assert not supported(99, 90.0)


@pytest.mark.parametrize("n, label", [
    (10_000, "p99.9"), (1000, "p99"), (999, "p95"), (200, "p95"),
    (100, "p90"), (40, "p75"), (39, "max"), (1, "max"),
])
def test_tail_picks_the_highest_supported_percentile(n, label):
    values = [float(i) for i in range(n)]
    got_label, value = tail(values)
    assert got_label == label
    if label == "max":
        assert value == n - 1
    else:
        assert value == percentile(values, float(label[1:]))


def test_median_of_even_count():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
