import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from bitsense.detector import (
    DimensionMismatchError,
    decide,
    firing_mass,
    sensor_counts,
    statistic,
    sweep_thresholds,
    upper_counts,
)
from bitsense.model import DetectorDirection, ModelParams

GREATER = DetectorDirection.GREATER_IS_H1
LESS = DetectorDirection.LESS_IS_H1


def make_params(n=20, num_sensors=1, r=0.5):
    return ModelParams(n=n, num_sensors=num_sensors, sigma_s2=1.0, r=r, sigma2=1e-4)


bit_matrices = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 4), st.integers(2, 12)),
    elements=st.integers(0, 1),
)

bit_batches = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(2, 12)),
    elements=st.integers(0, 1),
)


class TestStatistic:
    def test_all_agree(self):
        assert statistic([1, 1, 1, 1]) == 3

    def test_alternating(self):
        assert statistic([1, 0, 1, 0, 1]) == 0

    def test_two_rows_hand_count(self):
        # row 1: pairs (1,0)(0,0)(0,1)(1,1) -> 2 agreements
        # row 2: pairs (0,0)(0,1)(1,1)(1,1) -> 3 agreements
        assert statistic([[1, 0, 0, 1, 1], [0, 0, 1, 1, 1]]) == 2 + 3

    def test_accepts_single_row_vector(self):
        assert statistic(np.array([0, 0, 1])) == 1

    def test_rejects_too_few_samples(self):
        with pytest.raises(DimensionMismatchError):
            statistic([1])

    def test_rejects_non_bits(self):
        with pytest.raises(DimensionMismatchError):
            statistic([[2, 0, 1]])

    @given(bit_matrices)
    def test_complement_invariance(self, bits):
        assert statistic(bits) == statistic(1 - bits)

    @given(bit_matrices)
    def test_sums_over_rows(self, bits):
        assert statistic(bits) == sum(statistic(row) for row in bits)

    @given(bit_matrices)
    def test_bounds(self, bits):
        rows, cols = bits.shape
        assert 0 <= statistic(bits) <= (cols - 1) * rows

    @given(bit_batches)
    def test_sensor_counts_are_the_statistics_of_the_first_sensors(self, batch):
        counts = sensor_counts(batch)
        assert counts.shape == batch.shape[:2]
        assert counts.tolist() == [
            [statistic(bits[: k + 1]) for k in range(len(bits))] for bits in batch
        ]


class TestDecide:
    def test_above_threshold_fires(self):
        assert decide(10, 9.5, GREATER) == 1

    def test_tie_is_inclusive(self):
        assert decide(10, 10, GREATER) == 1

    def test_below_threshold_does_not_fire(self):
        assert decide(9, 9.5, GREATER) == 0

    def test_reverse_direction(self):
        assert decide(3, 9.5, LESS) == 1
        assert decide(10, 9.5, LESS) == 0
        assert decide(10, 10, LESS) == 1

    @given(
        y1=st.integers(0, 60),
        y2=st.integers(0, 60),
        eta=st.floats(-1.0, 61.0),
    )
    def test_monotone_in_count(self, y1, y2, eta):
        if y1 <= y2 and decide(y1, eta, GREATER) == 1:
            assert decide(y2, eta, GREATER) == 1


class TestSweepThresholds:
    def test_three_samples(self):
        grid = sweep_thresholds(make_params(n=3))
        assert grid.tolist() == [-0.5, 0.5, 1.5, 2.5]

    def test_grid_sizes(self):
        assert len(sweep_thresholds(make_params())) == 21
        assert len(sweep_thresholds(make_params(num_sensors=3))) == 59

    def test_half_integers_straddle_every_count(self):
        grid = sweep_thresholds(make_params(n=5, num_sensors=2))
        assert np.all(np.diff(grid) == 1.0)
        assert grid[0] == -0.5
        assert grid[-1] == 8.5


@given(data=st.data(), m=st.integers(0, 30))
def test_firing_mass_counts_the_trials_decide_fires_at(data, m):
    counts = data.draw(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, m)))
    thresholds = data.draw(
        st.lists(
            st.one_of(
                st.integers(-3, m + 3).map(float),  # ties, and counts beyond both ends
                st.integers(-3, m + 3).map(lambda k: k + 0.5),
                st.floats(-1e6, 1e6),
            ),
            min_size=1,
            max_size=12,
        )
    )
    upper = upper_counts(counts, m)
    assert len(upper) == m + 2 and upper[0] == len(counts) and upper[-1] == 0
    for direction in (GREATER, LESS):
        expected = [sum(decide(y, eta, direction) for y in counts) for eta in thresholds]
        assert firing_mass(upper, thresholds, direction).tolist() == expected


def criterion_transcription(bits, eta):
    """Direct reading of the network decision rule: double sum of
    consecutive-agreement indicators compared against the threshold."""
    rows = len(bits)
    cols = len(bits[0])
    total = 0
    for i in range(cols - 1):
        for k in range(rows):
            total += 1 if bits[k][i + 1] == bits[k][i] else 0
    return 1 if total >= eta else 0


def test_brute_force_equivalence_small_network():
    n, num_sensors = 3, 2
    etas = [-0.5, 0, 0.5, 1, 2, 2.5, 3, 4, 4.5, 5]
    for flat in itertools.product((0, 1), repeat=n * num_sensors):
        bits = np.array(flat, dtype=np.uint8).reshape(num_sensors, n)
        nested = bits.tolist()
        for eta in etas:
            assert decide(statistic(bits), eta, GREATER) == criterion_transcription(
                nested, eta
            )
