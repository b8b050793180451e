"""Spearman correlation, paired t-test, and the Student-t tail."""
import math

import numpy as np
import pytest

import oracles
from transfid.errors import EmptyInput, TooFewSamples
from transfid.stats import (
    PairedSample,
    average_ranks,
    mean_std,
    paired_t_test,
    spearman_rho,
    t_sf,
)


def sample(x, y):
    return PairedSample(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


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

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            sample([1.0], [2.0])


class TestPairedT:
    def test_identical_sides(self):
        res = paired_t_test(sample([1, 2, 3], [1, 2, 3]))
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.df == 2

    def test_zero_variance_nonzero_mean(self):
        res = paired_t_test(sample([2.0, 3.0], [1.0, 2.0]))
        assert res.statistic == math.inf
        assert res.p_value == 0.0
        assert res.degenerate

    def test_one_two_three_four_five(self):
        res = paired_t_test(sample([2, 4, 6, 8, 10], [1, 2, 3, 4, 5]))
        assert res.statistic == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
        assert res.df == 4
        assert res.p_value == pytest.approx(0.01324, abs=5e-6)
        assert res.p_value == pytest.approx(oracles.t_two_sided_p(res.statistic, 4), abs=1e-4)

    def test_sign_law_exact(self, rng):
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        assert (
            paired_t_test(sample(x, y)).statistic == -paired_t_test(sample(y, x)).statistic
        )

    def test_p_matches_integrated_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            res = paired_t_test(sample(x, y))
            if not res.degenerate:
                assert res.p_value == pytest.approx(
                    oracles.t_two_sided_p(res.statistic, res.df), abs=1e-10
                )


class TestTTail:
    def test_t_sf_against_known_values(self):
        # classic table: P(T_10 > 1.812) = 0.05
        assert t_sf(1.8124611, 10) == pytest.approx(0.05, abs=1e-6)
        assert t_sf(0.0, 5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [1e-8, 1e-6])
    def test_t_sf_near_zero_matches_integrated_oracle(self, t):
        # the tail sits 0.37 * t below 1/2 here, and a tail computed through
        # df / (df + t^2) loses that offset to rounding
        p = oracles.t_two_sided_p(t, 3)
        assert 2.0 * t_sf(t, 3) == pytest.approx(p, abs=1e-12)
        assert 2.0 * (1.0 - t_sf(-t, 3)) == pytest.approx(p, abs=1e-12)


class TestMeanStd:
    def test_single(self):
        mean, std = mean_std([4.2])
        assert mean == 4.2
        assert math.isnan(std)

    def test_two_point(self):
        mean, std = mean_std([0.02, 0.03])
        assert mean == pytest.approx(0.025)
        assert std == pytest.approx(0.0070710678, abs=1e-9)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean_std([])
