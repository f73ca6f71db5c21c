"""Table writers: each column is written by its dtype, integers exactly."""

import numpy as np
import pytest

from adhersim.exports import csv_bytes, draws_csv, histogram_csv, json_bytes


def _column(payload: bytes, j: int) -> list[str]:
    return [line.split(",")[j] for line in payload.decode().splitlines()[1:]]


def test_draw_indices_past_a_million_are_exact():
    draws = np.zeros(3, dtype=[("draw_index", np.int64), ("delta", np.float64),
                               ("total_cost", np.float64), ("roi_percent", np.float64)])
    draws["draw_index"] = [999_999, 1_000_000, 1_000_001]
    assert _column(draws_csv(draws), 0) == ["999999", "1000000", "1000001"]


def test_histogram_counts_past_a_million_are_exact():
    values = np.concatenate([np.zeros(1_234_567), np.ones(1)])
    assert _column(histogram_csv(values, n_bins=2), 2) == ["1234567", "1"]


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="'b' has 1 rows, expected 2"):
        csv_bytes(["a", "b"], [[1.0, 2.0], [3.0]])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_has_no_form_for_a_non_finite_number(value):
    with pytest.raises(ValueError):
        json_bytes({"x": [1.0, value]})
