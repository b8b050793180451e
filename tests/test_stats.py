"""Paired samples, average ranks and Spearman correlation."""
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

import oracles
from transfid.errors import TooFewSamples
from transfid.stats import PairedSample, average_ranks, spearman_rho


def sample(x, y):
    return PairedSample(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestPairedSample:
    def test_coerces_to_float64(self):
        s = PairedSample([1, 2, 3], (4, 5, 6))
        assert s.x.dtype == np.float64 and s.y.dtype == np.float64
        np.testing.assert_array_equal(s.x, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.y, [4.0, 5.0, 6.0])
        assert s.n == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            sample([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError, match="1D"):
            sample([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("side, bad", [("x", math.nan), ("y", math.inf), ("x", -math.inf)])
    def test_non_finite_refused(self, side, bad):
        values = {"x": [1.0, 2.0, 3.0], "y": [4.0, 5.0, 6.0]}
        values[side][1] = bad
        with pytest.raises(ValueError, match="finite"):
            sample(values["x"], values["y"])

    def test_no_pairs(self):
        with pytest.raises(TooFewSamples):
            sample([], [])

    def test_frozen(self):
        s = sample([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.x = np.zeros(2)


class TestAverageRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(average_ranks([30.0, 10.0, 20.0]), [3.0, 1.0, 2.0])

    def test_ties_get_mean_rank(self):
        np.testing.assert_array_equal(average_ranks([1.0, 2.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0])

    def test_matches_hand_ranking(self, rng):
        for _ in range(20):
            values = rng.integers(0, 5, size=12).astype(float)
            expected = []
            for x in values:
                less = np.sum(values < x)
                equal = np.sum(values == x)
                expected.append(less + (equal + 1) / 2.0)
            np.testing.assert_array_equal(average_ranks(values), expected)

    def test_each_nan_is_its_own_group(self):
        ranks = average_ranks([np.nan, 1.0, np.nan, 0.0])
        assert ranks[3] == 1.0 and ranks[1] == 2.0
        assert sorted(ranks[[0, 2]]) == [3.0, 4.0]

    def test_signed_zeros_tie(self):
        np.testing.assert_array_equal(average_ranks([0.0, -0.0, 1.0]), [1.5, 1.5, 3.0])

    def test_rank_sum_is_exact(self, rng):
        # spearman_rho centres the ranks on (n + 1) / 2 on the strength of this
        for n in (2, 7, 50, 501):
            values = rng.integers(0, 4, size=n).astype(float)
            assert float(np.sum(average_ranks(values))) == n * (n + 1) / 2


class TestSpearman:
    def test_perfect_monotone_exact(self):
        assert spearman_rho(sample([1, 2, 3, 5], [10, 20, 30, 50])) == 1.0

    def test_perfect_antitone_exact(self):
        assert spearman_rho(sample([1, 2, 3, 5], [5, 3, 2, 1])) == -1.0

    def test_ties_examples(self):
        assert spearman_rho(sample([1, 2, 2, 4], [3, 5, 5, 9])) == 1.0
        assert spearman_rho(sample([1, 2, 2, 4], [9, 5, 5, 3])) == -1.0
        assert spearman_rho(sample([1, 2, 3, 4], [1, 3, 2, 4])) == 0.8

    def test_constant_side_is_nan(self):
        assert math.isnan(spearman_rho(sample([1, 1, 1], [1, 2, 3])))
        assert math.isnan(spearman_rho(sample([1, 2, 3], [7, 7, 7])))

    def test_monotone_transform_invariance_exact(self, rng):
        for _ in range(20):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            base = spearman_rho(sample(x, y))
            assert spearman_rho(sample(np.exp(x), y)) == base
            assert spearman_rho(sample(x, y**3)) == base
            assert spearman_rho(sample(2.0 * x + 7.0, 0.1 * y - 3.0)) == base

    def test_antisymmetry_exact(self, rng):
        x = rng.normal(size=11)
        y = rng.normal(size=11)  # continuous, no ties
        assert spearman_rho(sample(x, -y)) == -spearman_rho(sample(x, y))

    def test_matches_hand_ranked_oracle(self, rng):
        for _ in range(30):
            x = rng.integers(0, 6, size=10).astype(float)
            y = rng.integers(0, 6, size=10).astype(float)
            got = spearman_rho(sample(x, y))
            expected = oracles.spearman(list(x), list(y))
            if math.isnan(expected):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_two_pairs(self):
        assert spearman_rho(sample([0, 1], [5, 7])) == 1.0
        assert spearman_rho(sample([0, 1], [7, 5])) == -1.0

    def test_symmetric_exact(self, rng):
        for _ in range(20):
            x = rng.integers(0, 5, size=9).astype(float)
            y = rng.normal(size=9)
            assert spearman_rho(sample(x, y)) == spearman_rho(sample(y, x))

    def test_matches_scipy_spearmanr(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 8, size=n).astype(float)
            y = x + rng.integers(-3, 4, size=n)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            expected = scipy_stats.spearmanr(x, y).statistic
            assert spearman_rho(sample(x, y)) == pytest.approx(expected, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            sample([1.0], [2.0])
