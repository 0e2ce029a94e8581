"""The percentile rule and failure counting."""

import pytest

from perfbench import stats


def test_p95_needs_200_samples_and_p99_1000_for_ten_beyond():
    assert stats.beyond(200, 95) == 10
    assert stats.beyond(199, 95) == 9
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9


def test_percentile_is_a_measured_value():
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 50) == 100
    assert stats.percentile([3.0], 99) == 3.0


def test_tail_states_its_support():
    record = stats.tail([float(v) for v in range(199)], 95)
    assert record["beyond"] == 9
    assert not record["meets_min_beyond"]
    assert stats.tail(list(range(200)), 95)["meets_min_beyond"]


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.rank(10, 0)


def test_outcomes_count_every_attempt():
    outcomes = stats.Outcomes()
    assert outcomes.rate == 0.0
    outcomes.record(True)
    outcomes.record(False, "gain-off-reference")
    outcomes.record_many(8, ["wrong-action", "wrong-action"])
    assert outcomes.attempted == 10
    assert outcomes.failed == 3
    assert outcomes.rate == pytest.approx(0.3)
    assert outcomes.to_dict()["reasons"] == {
        "gain-off-reference": 1, "wrong-action": 2,
    }
