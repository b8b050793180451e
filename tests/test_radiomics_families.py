"""Per-family feature checks: hand examples plus brute-force oracle sweeps."""
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from transfid.config import MAX_IVH_BINS, RunConfig
from transfid.errors import InvalidScheme
from transfid.phantom import generate_phantom
from transfid.preprocess import DiscretizationScheme, DiscretizedVolume, discretize
from transfid.radiomics import extract_all, intensity, texture
from transfid.radiomics.histogram import intensity_histogram_features, ivh_features
from transfid.radiomics.ids import DISTRIBUTION_NAMES, IH_NAMES, IS_NAMES, IVH_NAMES
from transfid.radiomics.intensity import (
    basic_distribution_stats,
    fast_length,
    intensity_statistics,
    local_intensity,
    nearest_rank_percentile,
    same_convolution,
)
from transfid.radiomics.matrices import (
    DIRECTIONS_13,
    _tally,
    connected_labels,
    equal_level_edges,
    glcm_matrices,
    glrlm_matrices,
    ngldm_matrix,
    ngtdm_table,
    zone_matrices,
)
from transfid.radiomics.texture import (
    glcm_features,
    glrlm_features,
    ngldm_features,
    ngtdm_features,
    row_column_features,
    zone_features,
)

from conftest import make_mask, make_volume, nan_names, overflowing_phantom


def make_disc(levels, ng=None):
    levels = np.asarray(levels, dtype=np.int64)
    return DiscretizedVolume(levels.shape, levels, ng=ng or int(levels.max()), mask=make_mask(levels > 0))


def random_discretized(rng, dims=(6, 6, 6), ng=4, mask_density=0.75):
    flags = rng.random(dims) < mask_density
    flags[tuple(d // 2 for d in dims)] = True
    levels = np.where(flags, rng.integers(1, ng + 1, dims), 0)
    return make_disc(levels, ng)


def assert_close_dict(got, expected, rel=1e-9):
    assert set(got) == set(expected)
    for name in expected:
        g, e = got[name], expected[name]
        if isinstance(e, float) and math.isnan(e):
            assert math.isnan(g), name
        else:
            assert g == pytest.approx(e, rel=rel, abs=1e-9), name


def convolved(values, kernel, window=None):
    """The slabs `same_convolution` yields, in one array."""
    return np.concatenate(list(same_convolution(values, kernel, window)))


class TestLocalIntensity:
    def test_single_voxel_sphere(self):
        values = np.zeros((3, 3, 3))
        values[1, 1, 1] = 0.8
        flags = np.zeros((3, 3, 3), dtype=bool)
        flags[1, 1, 1] = True
        # 10 mm spacing: the 6.2 mm sphere holds only the center voxel
        feats = local_intensity(make_volume(values, spacing=(10, 10, 10)), make_mask(flags))
        assert feats["local_peak"] == pytest.approx(0.8, rel=1e-12)
        assert feats["global_peak"] == pytest.approx(0.8, rel=1e-12)

    def test_global_at_least_local(self, rng):
        for seed in range(5):
            v, m = generate_phantom(seed, (9, 9, 9), spacing=(2.0, 2.0, 2.0))
            feats = local_intensity(v, m)
            assert feats["global_peak"] >= feats["local_peak"] - 1e-12

    def test_known_phantom_vs_sphere_scan(self, rng):
        values = rng.random((5, 5, 5))
        flags = rng.random((5, 5, 5)) < 0.6
        flags[2, 2, 2] = True
        vol = make_volume(values, spacing=(4.0, 4.0, 4.0))
        mask = make_mask(flags)
        got = local_intensity(vol, mask)
        expected = oracles.local_intensity_features(values, flags, (4.0, 4.0, 4.0))
        assert got["local_peak"] == pytest.approx(expected["local_peak"], rel=1e-9)
        assert got["global_peak"] == pytest.approx(expected["global_peak"], rel=1e-9)

    def test_tie_breaks_on_first_flat_index(self):
        values = np.zeros((4, 1, 1))
        values[1, 0, 0] = values[3, 0, 0] = 1.0  # tied maxima
        flags = np.ones((4, 1, 1), dtype=bool)
        vol = make_volume(values, spacing=(10.0, 1.0, 1.0))
        got = local_intensity(vol, make_mask(flags))
        # center must be x=1 (first in flat order); its sphere holds only itself
        assert got["local_peak"] == 1.0

    # the kernel's spectrum is finished and multiplied in a slab at a time:
    # whole on these small shapes at the default budget, and under budgets
    # of one line (each slab one line of its last transform) and of a few
    # lines (whole axes and steps of the next)
    SLAB_BUDGETS = pytest.mark.parametrize("slab_bytes", [intensity.SLAB_BYTES, 1, 2000],
                                           ids=["budget", "one_line", "few_lines"])

    @SLAB_BUDGETS
    def test_convolution_is_bit_identical_to_fftconvolve(self, rng, monkeypatch, slab_bytes):
        from scipy.signal import fftconvolve

        monkeypatch.setattr(intensity, "SLAB_BYTES", slab_bytes)

        shapes = [((1, 1, 1), (1, 1, 1)), ((5, 1, 4), (1, 3, 3)), ((4, 4, 4), (1, 1, 1))]
        shapes += [(tuple(rng.integers(1, 10, 3)), tuple(rng.integers(1, 8, 3))) for _ in range(40)]
        for values_shape, kernel_shape in shapes:
            values = rng.random(values_shape)
            kernel = (rng.random(kernel_shape) < 0.7).astype(float)
            assert np.array_equal(convolved(values, kernel), fftconvolve(values, kernel, mode="same"))

    @SLAB_BUDGETS
    def test_a_window_keeps_every_bit_of_the_whole_convolution(self, rng, monkeypatch, slab_bytes):
        monkeypatch.setattr(intensity, "SLAB_BYTES", slab_bytes)
        # an axis of length 1 on either side is not transformed; (1, 1, 1) on
        # both sides takes the path with no transform at all
        shapes = [((1, 1, 1), (1, 1, 1)), ((1, 1, 1), (3, 5, 2)), ((5, 1, 4), (1, 3, 3)),
                  ((4, 4, 4), (1, 1, 1)), ((6, 5, 1), (3, 3, 1)), ((7, 6, 5), (1, 3, 1))]
        shapes += [(tuple(rng.integers(1, 12, 3)), tuple(rng.integers(1, 8, 3))) for _ in range(40)]
        for values_shape, kernel_shape in shapes:
            values = rng.random(values_shape)
            kernel = (rng.random(kernel_shape) < 0.7).astype(float)
            whole = convolved(values, kernel)
            windows = []
            for _ in range(3):
                lo = [int(rng.integers(0, n)) for n in values_shape]
                windows.append(tuple(slice(b, int(rng.integers(b + 1, n + 1))) for b, n in zip(lo, values_shape)))
            # boxes of one voxel at either corner, clipped at the grid's faces
            for corner in ((0, 0, 0), tuple(n - 1 for n in values_shape)):
                flags = np.zeros(values_shape, dtype=bool)
                flags[corner] = True
                windows.append(make_mask(flags).box[0])
            for window in windows:
                assert np.array_equal(convolved(values, kernel, window), whole[window]), (values_shape, window)

    @SLAB_BUDGETS
    def test_slabs_are_whole_planes_within_the_budget(self, rng, monkeypatch, slab_bytes):
        # with an axis but axis 0 transformed, the window's axis-0 planes come
        # a slab of at most SLAB_BYTES at a time, or one plane where one is
        # more: at the default budget, slabs of 27 and 13 planes on the whole
        # of the largest shape here
        monkeypatch.setattr(intensity, "SLAB_BYTES", slab_bytes)
        shapes = [((40, 60, 50), (13, 13, 13)), ((9, 1, 8), (3, 1, 5)), ((1, 7, 6), (5, 3, 3))]
        shapes += [(tuple(rng.integers(2, 12, 3)), tuple(rng.integers(2, 8, 3))) for _ in range(20)]
        for values_shape, kernel_shape in shapes:
            values = rng.random(values_shape)
            kernel = (rng.random(kernel_shape) < 0.7).astype(float)
            lo = [int(rng.integers(0, n)) for n in values_shape]
            for window in (tuple(slice(0, n) for n in values_shape),
                           tuple(slice(b, int(rng.integers(b + 1, n + 1))) for b, n in zip(lo, values_shape))):
                slabs = same_convolution(values, kernel, window)
                assert inspect.isgenerator(slabs)
                slabs = list(slabs)
                extent = [w.stop - w.start for w in window]
                assert [slab.shape[1:] for slab in slabs] == [tuple(extent[1:])] * len(slabs)
                assert sum(len(slab) for slab in slabs) == extent[0]
                assert all(len(slab) == 1 or slab.nbytes <= slab_bytes for slab in slabs), (values_shape, window)

    def test_fft_length_is_scipys_next_fast_len(self):
        from scipy.fft import next_fast_len

        assert [fast_length(n) for n in range(1, 20001)] == [next_fast_len(n, True) for n in range(1, 20001)]

    def test_boxes_of_one_shape_keep_every_bit(self):
        # radius-4 ball ROIs: A and B near the x = 0 face, where the counts
        # differ from plane to plane, at other y and z, so their sub-grids
        # (box widened by the sphere's reach, clipped at the grid) have one
        # shape at two positions; C near the three far faces and D in the
        # near corner each have a shape of their own. Each is read twice in
        # a row, and A again after D
        dims, spacing = (40, 36, 30), (1.0, 1.0, 1.0)
        values = np.random.default_rng(3).random(dims)
        grid = np.meshgrid(*(np.arange(n) for n in dims), indexing="ij")
        masks = {name: make_mask(sum((x - c) ** 2 for x, c in zip(grid, centre)) <= 16)
                 for name, centre in {"A": (5, 18, 15), "B": (5, 21, 12), "C": (34, 30, 25),
                                      "D": (3, 3, 3)}.items()}
        vol = make_volume(values, spacing)
        for name in "ABCDA":
            expected = oracles.box_local_intensity(values, masks[name].flags, spacing)
            for _ in range(2):
                assert local_intensity(vol, masks[name]) == expected, name

    @staticmethod
    def rois(rng, dims):
        """ROIs whose boxes cover the grid (scattered voxels and the far
        corner), sit in the near corner, or lie away from the grid's faces
        where the grid is wide enough: each box is widened and clipped in
        another way."""
        scattered = rng.random(dims) < 0.3
        scattered[-1, -1, -1] = True
        corner = np.zeros(dims, dtype=bool)
        corner[:3, :3, :3] = rng.random(corner[:3, :3, :3].shape) < 0.5
        corner[0, 0, 0] = True
        inner = np.zeros(dims, dtype=bool)
        inner[tuple(slice(n // 2, n // 2 + 2) for n in dims)] = True
        return {"scattered": scattered, "corner": corner, "inner": inner}

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.8, 1.5, 2.5), (7.0, 1.5, 4.0), (7.0, 7.0, 7.0)])
    @pytest.mark.parametrize("dims", [(30, 24, 18), (1, 24, 18), (30, 1, 1), (256, 256, 1), (128, 128, 64)])
    def test_box_sums_and_exact_counts_keep_every_bit(self, rng, dims, spacing):
        # the sphere's radius is 6.2 mm, so a 7 mm spacing leaves it flat
        # along that axis, and the grids with an axis of one voxel, or of
        # fewer than the kernel's 13 at 1 mm, are narrower than it; where a
        # sub-grid's spectrum is over SLAB_BYTES, each call finishes it slab
        # by slab
        values = rng.random(dims)
        for name, flags in self.rois(rng, dims).items():
            for gain in (1.0, 0.9):  # two sources on one mask
                vol = make_volume(values * gain, spacing)
                expected = oracles.box_local_intensity(vol.values, flags, spacing)
                assert local_intensity(vol, make_mask(flags)) == expected, name

    def test_an_overflowing_range_warns_nothing_before_its_exclusion(self):
        # unnormalized, the sums overflow float64; extract_all flags them, and
        # FBN then refuses the range, so numpy has nothing to warn about
        config = RunConfig.from_dict({"preprocess": {"normalize": False}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidScheme, match=r"ROI range \[-1e\+308, 1e\+308\]: bins \* \(max - min\) is inf"):
                extract_all(*overflowing_phantom(), config)
        assert [str(w.message) for w in caught] == []


class TestIntensityStatistics:
    def test_constant_roi(self):
        vol = make_volume(np.full((3, 1, 1), 3.0))
        feats = intensity_statistics(vol, make_mask(np.ones((3, 1, 1), bool)))
        assert feats["mean"] == 3.0
        assert feats["variance"] == 0.0
        assert feats["range"] == 0.0
        assert feats["energy"] == 27.0
        assert feats["root_mean_square"] == 3.0
        assert math.isnan(feats["skewness"])
        assert "skewness" in nan_names(feats) and "kurtosis" in nan_names(feats)

    def test_four_values(self):
        vol = make_volume(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
        feats = intensity_statistics(vol, make_mask(np.ones((4, 1, 1), bool)))
        assert feats["mean"] == 2.5
        assert feats["variance"] == 1.25
        assert feats["median"] == 2.5
        # nearest-rank: p25 -> 1st element, p75 -> 3rd element
        assert feats["interquartile_range"] == 2.0
        assert feats["percentile_10"] == 1.0
        assert feats["percentile_90"] == 4.0

    def test_random_vs_oracle(self, rng):
        values = rng.normal(5.0, 2.0, (500, 1, 1))
        vol = make_volume(values)
        mask = make_mask(np.ones((500, 1, 1), bool))
        got = intensity_statistics(vol, mask)
        expected = oracles.intensity_statistics_features(values, mask.flags)
        for name, e in expected.items():
            assert got[name] == pytest.approx(e, rel=1e-10), name


class TestIntensityHistogram:
    def test_uniform_histogram(self):
        d = make_disc(np.array([1, 2, 3, 4] * 3).reshape(12, 1, 1), ng=4)
        feats = intensity_histogram_features(d)
        assert feats["entropy"] == pytest.approx(2.0, abs=1e-12)
        assert feats["uniformity"] == pytest.approx(0.25, abs=1e-12)

    def test_single_level(self):
        d = make_disc(np.ones((4, 1, 1), dtype=int), ng=1)
        feats = intensity_histogram_features(d)
        assert feats["entropy"] == 0.0
        assert feats["uniformity"] == 1.0
        assert math.isnan(feats["maximum_gradient"])
        assert "maximum_gradient" in nan_names(feats)

    def test_mode_tie_takes_lowest_level(self):
        d = make_disc(np.array([1, 1, 2, 2, 3]).reshape(5, 1, 1), ng=3)
        feats = intensity_histogram_features(d)
        assert feats["mode"] == 1.0

    def test_random_vs_oracle(self, rng):
        v, m = generate_phantom(11, (6, 6, 6))
        d = discretize(v, m, DiscretizationScheme("FBN", 8))
        got = intensity_histogram_features(d)
        expected = oracles.histogram_features(d.levels, m.flags, d.ng)
        assert_close_dict(got, expected, rel=1e-10)


def test_distribution_stats_return_the_shared_names(rng):
    values = rng.random(40)
    distinct, inverse = np.unique(values, return_inverse=True)
    features = basic_distribution_stats(values, np.sort(values), distinct, inverse)
    assert sorted(features) == sorted(DISTRIBUTION_NAMES)


@pytest.mark.parametrize("levels", [[1, 2, 3, 1, 2, 2], [1, 1, 1, 1, 1, 1]], ids=["regular", "single-level"])
def test_is_and_ih_return_their_registry_names(levels):
    levels = np.array(levels).reshape(6, 1, 1)
    vol = make_volume(levels * 0.5)
    assert sorted(intensity_statistics(vol, make_mask(levels > 0))) == sorted(IS_NAMES)
    assert sorted(intensity_histogram_features(make_disc(levels))) == sorted(IH_NAMES)


class TestIvh:
    def test_half_and_half_step_curve(self):
        values = np.array([0.0] * 8 + [1.0] * 8).reshape(16, 1, 1)
        vol = make_volume(values)
        mask = make_mask(np.ones((16, 1, 1), bool))
        feats, flagged = ivh_features(vol, mask, ivh_bins=1000)
        assert feats["v10"] == 0.5
        assert feats["v90"] == 0.5
        expected = oracles.ivh_features(values, mask.flags, bins=1000)
        assert_close_dict(feats, expected)
        assert not flagged

    def test_constant_roi(self):
        vol = make_volume(np.full((5, 1, 1), 0.3))
        feats, flagged = ivh_features(vol, make_mask(np.ones((5, 1, 1), bool)), ivh_bins=1000)
        assert feats["v10_minus_v90"] == 0.0
        assert feats["i10"] == 0.3
        assert feats["area_under_curve"] == 1.0
        assert len(flagged) == 7

    def test_range_that_overflows_float64_has_no_curve(self):
        feats, flagged = ivh_features(*overflowing_phantom(), ivh_bins=1000)
        assert sorted(feats) == sorted(IVH_NAMES) and all(math.isnan(v) for v in feats.values())
        assert not flagged

    def test_linear_ramp_auc(self):
        values = np.linspace(0.0, 1.0, 1000).reshape(1000, 1, 1)
        vol = make_volume(values)
        feats, _ = ivh_features(vol, make_mask(np.ones((1000, 1, 1), bool)), ivh_bins=1000)
        assert feats["area_under_curve"] == pytest.approx(0.5, abs=2.0 / 1000)

    def test_bin_count_bounded_before_allocation(self):
        vol = make_volume(np.linspace(0.0, 1.0, 5).reshape(5, 1, 1))
        mask = make_mask(np.ones((5, 1, 1), bool))
        assert ivh_features(vol, mask, ivh_bins=MAX_IVH_BINS)[0]["v10"] == 0.8
        # one bin more would allocate curves of 8 * (MAX_IVH_BINS + 2) bytes each
        tracemalloc.start()
        try:
            for bins in (0, MAX_IVH_BINS + 1):
                with pytest.raises(ValueError, match="ivh_bins"):
                    ivh_features(vol, mask, ivh_bins=bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_random_vs_oracle(self, rng):
        v, m = generate_phantom(5, (7, 6, 5))
        got, _ = ivh_features(v, m, ivh_bins=100)
        expected = oracles.ivh_features(v.values, m.flags, bins=100)
        assert_close_dict(got, expected)


class TestGlcm:
    def test_two_by_two_single_direction(self):
        # rows along x: level 1 at y=0, level 2 at y=1
        levels = np.zeros((2, 2, 1), dtype=int)
        levels[:, 0, 0] = 1
        levels[:, 1, 0] = 2
        d = make_disc(levels, ng=2)
        matrices = glcm_matrices(d)
        x_dir = matrices[DIRECTIONS_13.index((1, 0, 0))]
        np.testing.assert_array_equal(x_dir, [[2.0, 0.0], [0.0, 2.0]])
        feats = texture._glcm_batch([x_dir / x_dir.sum()])[0]
        assert feats["contrast"] == 0.0
        assert feats["angular_second_moment"] == 0.5

    def test_constant_roi_per_direction(self):
        d = make_disc(np.ones((3, 3, 3), dtype=int), ng=1)
        for matrix in glcm_matrices(d):
            p = matrix / matrix.sum()
            feats = texture._glcm_batch([p])[0]
            assert feats["contrast"] == 0.0
            assert feats["joint_maximum"] == 1.0
            assert feats["joint_entropy"] == 0.0
            assert "correlation" in nan_names(feats)

    def test_matrix_normalization_sums_to_one(self, rng):
        d = random_discretized(rng)
        for matrix in glcm_matrices(d):
            if matrix.sum() > 0:
                assert (matrix / matrix.sum()).sum() == pytest.approx(1.0, abs=1e-12)

    def test_random_vs_pair_enumeration_oracle(self, rng):
        d = random_discretized(rng, ng=4)
        got = glcm_features(d)
        expected = oracles.glcm_aggregated(d.levels, d.mask.flags, d.ng)
        for agg in ("dir_avg", "dir_merged"):
            assert_close_dict(got[agg], expected[agg])


class TestMatrixNormalization:
    def test_every_normalized_matrix_sums_to_one(self, rng):
        d = random_discretized(rng, ng=5)
        matrices = glcm_matrices(d) + glrlm_matrices(d)
        matrices += list(zone_matrices(d)) + [ngldm_matrix(d, 0)]
        for matrix in matrices:
            if matrix.sum() > 0:
                assert (matrix / matrix.sum()).sum() == pytest.approx(1.0, abs=1e-12)


class TestGlrlm:
    def test_single_run_of_three(self):
        d = make_disc(np.array([1, 1, 1]).reshape(3, 1, 1), ng=1)
        matrices = glrlm_matrices(d)
        x_dir = matrices[DIRECTIONS_13.index((1, 0, 0))]
        generic = row_column_features(x_dir, d.mask.voxel_count)
        assert generic["small_emphasis"] == pytest.approx(1.0 / 9.0)
        assert generic["percentage"] == pytest.approx(1.0 / 3.0)

    def test_all_distinct_levels(self):
        d = make_disc(np.array([1, 2, 3]).reshape(3, 1, 1), ng=3)
        x_dir = glrlm_matrices(d)[DIRECTIONS_13.index((1, 0, 0))]
        generic = row_column_features(x_dir, d.mask.voxel_count)
        assert generic["small_emphasis"] == 1.0
        assert generic["percentage"] == 1.0

    def test_runs_broken_by_mask_gaps(self):
        levels = np.array([1, 1, 0, 1, 1, 1]).reshape(6, 1, 1)
        d = make_disc(levels, ng=1)
        x_dir = glrlm_matrices(d)[DIRECTIONS_13.index((1, 0, 0))]
        # one run of 2 and one of 3
        assert x_dir[0, 1] == 1
        assert x_dir[0, 2] == 1

    def test_tally_with_no_magnitudes_is_one_zero_column(self):
        # a direction with no equal-level link, as across a size-1 axis
        runs = _tally(np.empty(0, np.int32), np.empty(0, np.int64), 3)
        assert runs.dtype == np.float64 and runs.shape == (3, 1) and not runs.any()

    def test_random_vs_run_scanner_oracle(self, rng):
        d = random_discretized(rng, ng=5)
        got = glrlm_features(d)
        expected = oracles.glrlm_aggregated(
            d.levels, d.mask.flags, d.ng, d.mask.voxel_count
        )
        for agg in ("dir_avg", "dir_merged"):
            mapped = {name: expected[agg][src] for name, src in oracles.GLRLM_MAP.items()}
            assert_close_dict(got[agg], mapped)


def one_voxel_snake(size: int) -> np.ndarray:
    """Flags of one path, one voxel wide, through a size^3 cube: rows along
    x two voxels apart, run back and forth and joined at their ends, in
    planes two voxels apart, joined at their last rows' ends."""
    flags = np.zeros((size, size, size), dtype=bool)
    rows = list(range(0, size, 2))
    x_end = 0
    for z in range(0, size, 2):
        for y in rows:
            flags[:, y, z] = True
            x_end = size - 1 - x_end
            if y != rows[-1]:
                flags[x_end, y + (1 if rows[0] == 0 else -1), z] = True
        if z + 2 < size:
            flags[x_end, rows[-1], z + 1] = True
        rows.reverse()
    return flags


def zone_case(rng, case: str) -> tuple[np.ndarray, int]:
    """(levels, ng) of the zone-labelling cases of
    `test_zone_labels_are_scipys_connected_components`."""
    if case == "constant":
        return np.ones((7, 6, 5), dtype=np.int64), 1
    if case == "all distinct":
        return np.arange(1, 121).reshape(6, 5, 4), 120
    if case == "snake":
        return one_voxel_snake(15).astype(np.int64), 1
    if case == "checkerboard":
        x, y, z = np.indices((8, 7, 6))
        return 1 + (x + y + z) % 2, 2
    if case == "flat cube":
        levels = np.full((32, 32, 32), 512)
        levels[0, 0, 0], levels[-1, -1, -1] = 1, 1024
        return levels, 1024
    return random_discretized(rng, dims=(12, 12, 12), ng=3, mask_density=0.7).levels, 3


def wide_zone_disc() -> DiscretizedVolume:
    """One zone of 18 720 voxels beside 480 one-voxel zones of levels
    2..32: a 32 x 18 720 GLSZM whose cells are 99.9% zero."""
    dims = (48, 40, 10)
    levels = np.ones(dims, dtype=np.int64)
    lattice = levels[::4, ::4, ::3]
    lattice[...] = 2 + np.arange(lattice.size).reshape(lattice.shape) % 31
    return make_disc(levels, ng=32)


class TestZones:
    def test_constant_cube_single_zone(self):
        d = make_disc(np.ones((2, 2, 2), dtype=int), ng=1)
        feats = zone_features(d)[0]
        assert feats["zone_percentage"] == pytest.approx(1.0 / 8.0)

    def test_checkerboard_diagonal_connectivity(self):
        levels = np.array([[1, 2], [2, 1]]).reshape(2, 2, 1)
        d = make_disc(levels, ng=2)
        glszm, _ = zone_matrices(d)
        # two zones of size 2 (diagonals touch under 26-connectivity)
        np.testing.assert_array_equal(glszm, [[0.0, 1.0], [0.0, 1.0]])

    def test_single_voxel_distance_one(self):
        levels = np.zeros((3, 3, 3), dtype=int)
        levels[1, 1, 1] = 1
        d = make_disc(levels, ng=1)
        feats = zone_features(d)[1]
        assert feats["small_distance_emphasis"] == 1.0

    def test_full_cube_zone_distance_is_min(self):
        d = make_disc(np.ones((3, 3, 3), dtype=int), ng=1)
        _, gldzm = zone_matrices(d)
        np.testing.assert_array_equal(gldzm, [[1.0]])

    def test_random_vs_flood_fill_oracle(self, rng):
        d = random_discretized(rng, ng=4, mask_density=0.6)
        szm_got, dzm_got = zone_features(d)
        glszm, gldzm = oracles.zone_matrices(d.levels, d.mask.flags, d.ng)
        szm_exp = oracles.row_column_features(glszm, d.mask.voxel_count)
        dzm_exp = oracles.row_column_features(gldzm, d.mask.voxel_count)
        assert_close_dict(szm_got, {n: szm_exp[s] for n, s in oracles.GLSZM_MAP.items()})
        assert_close_dict(dzm_got, {n: dzm_exp[s] for n, s in oracles.GLDZM_MAP.items()})

    @pytest.mark.parametrize(
        "case, zones",
        [("constant", 1), ("all distinct", 120), ("snake", 1), ("checkerboard", 2), ("flat cube", 3), ("random", None)],
    )
    def test_zone_labels_are_scipys_connected_components(self, rng, case, zones):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        if case == "constant":
            levels, ng = np.ones((7, 6, 5), dtype=np.int64), 1
        elif case == "all distinct":  # no edge at all
            levels, ng = np.arange(1, 121).reshape(6, 5, 4), 120
        elif case == "snake":
            levels, ng = one_voxel_snake(15).astype(np.int64), 1
        elif case == "checkerboard":  # each parity is one zone through the cube's diagonals
            x, y, z = np.indices((8, 7, 6))
            levels, ng = 1 + (x + y + z) % 2, 2
        elif case == "flat cube":  # one level but for a darkest and a brightest voxel
            levels, ng = np.full((32, 32, 32), 512), 1024
            levels[0, 0, 0], levels[-1, -1, -1] = 1, 1024
        else:
            levels, ng = random_discretized(rng, dims=(12, 12, 12), ng=3, mask_density=0.7).levels, 3
        d = make_disc(levels, ng)
        n = d.mask.voxel_count
        index = np.full(d.dims, -1, dtype=np.int32)
        index[d.mask.flags] = np.arange(n, dtype=np.int32)
        heads, tails = map(np.concatenate, equal_level_edges(d, index))
        labels, rounds = connected_labels(n, [heads], [tails])
        count, expected = connected_components(
            coo_matrix((np.ones(heads.size, dtype=np.int8), (heads, tails)), shape=(n, n)), directed=False
        )
        assert np.array_equal(labels, expected)
        assert zones is None or count == zones
        assert rounds <= 4

    def test_wide_zone_formulas_hold_one_buffer(self):
        # one zone of 18 720 voxels beside 480 one-voxel zones of levels 2..32:
        # a 32 x 18 720 GLSZM whose cells are 99.9% zero. The formulas run at
        # its non-zero cells and reduce each term in one zero buffer of the
        # matrix's shape; a term over every cell peaked at 3.06 matrices.
        dims = (48, 40, 10)
        levels = np.ones(dims, dtype=np.int64)
        lattice = levels[::4, ::4, ::3]
        lattice[...] = 2 + np.arange(lattice.size).reshape(lattice.shape) % 31
        d = make_disc(levels, ng=32)
        glszm = zone_matrices(d)[0]
        assert glszm.shape == (32, 18720)
        tracemalloc.start()
        try:
            row_column_features(glszm, d.mask.voxel_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * glszm.nbytes

    def test_zone_features_hold_one_matrix(self):
        # the GLSZM is counted straight into float64 and is its own zero
        # buffer, so zone_features holds one matrix of its shape; an int64
        # count, its float64 copy and a zero buffer peaked at 2.07 matrices
        d = wide_zone_disc()
        glszm_bytes = zone_matrices(d)[0].nbytes
        tracemalloc.start()
        try:
            zone_features(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * glszm_bytes, peak / glszm_bytes

    @pytest.mark.parametrize("case", ["constant", "all distinct", "snake", "checkerboard", "flat cube", "random"])
    def test_zone_labels_from_per_direction_edges_are_scipys(self, rng, case):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        d = make_disc(*zone_case(rng, case))
        n = d.mask.voxel_count
        index = np.full(d.dims, -1, dtype=np.int32)
        index[d.mask.flags] = np.arange(n, dtype=np.int32)
        heads, tails = equal_level_edges(d, index)
        assert len(heads) == len(tails) == len(DIRECTIONS_13)
        labels, rounds = connected_labels(n, heads, tails)
        heads, tails = np.concatenate(heads), np.concatenate(tails)
        _, expected = connected_components(
            coo_matrix((np.ones(heads.size, dtype=np.int8), (heads, tails)), shape=(n, n)), directed=False
        )
        assert np.array_equal(labels, expected)
        assert rounds == connected_labels(n, [heads], [tails])[1]


class TestNgtdm:
    def test_constant_roi_guard(self):
        d = make_disc(np.ones((2, 2, 2), dtype=int), ng=1)
        feats = ngtdm_features(d)
        assert feats["coarseness"] == pytest.approx(1.0 / 1e-6)
        assert feats["contrast"] == 0.0
        assert not nan_names(feats)

    def test_three_voxel_row(self):
        d = make_disc(np.array([1, 2, 1]).reshape(3, 1, 1), ng=2)
        n_i, s_i = ngtdm_table(d)
        np.testing.assert_array_equal(n_i, [2.0, 1.0])
        np.testing.assert_allclose(s_i, [2.0, 1.0])

    def test_single_voxel_all_nan(self):
        levels = np.zeros((3, 1, 1), dtype=int)
        levels[1, 0, 0] = 1
        d = make_disc(levels, ng=1)
        feats = ngtdm_features(d)
        assert all(math.isnan(v) for v in feats.values())
        assert len(nan_names(feats)) == 5

    def test_random_vs_neighborhood_oracle(self, rng):
        d = random_discretized(rng, ng=4)
        got = ngtdm_features(d)
        expected = oracles.ngtdm_features(d.levels, d.mask.flags, d.ng)
        assert_close_dict(got, expected)


class TestNgldm:
    def test_constant_cube_full_dependence(self):
        d = make_disc(np.ones((2, 2, 2), dtype=int), ng=1)
        matrix = ngldm_matrix(d, alpha=0)
        # every voxel has dependence 7 -> single occupied cell
        assert matrix[0, 7] == 8
        assert matrix.sum() == 8

    def test_alternating_row_zero_dependence(self):
        d = make_disc(np.array([1, 2, 1]).reshape(3, 1, 1), ng=2)
        feats = ngldm_features(d, alpha=0)
        assert feats["dependence_count_percentage"] == 1.0
        assert feats["low_dependence_emphasis"] == 1.0

    def test_alpha_tolerance(self):
        d = make_disc(np.array([1, 2, 1]).reshape(3, 1, 1), ng=2)
        matrix = ngldm_matrix(d, alpha=1)
        # with alpha=1 every neighbor is dependent
        assert matrix[0, 1].sum() + matrix[1, 2].sum() == 3

    def test_alpha_one_matches_oracle_beside_alpha_zero(self, rng):
        # alpha 0 first, so alpha 1 must not reuse the equal-level pairs
        d = random_discretized(rng, ng=3)
        for alpha in (0, 1):
            expected = oracles.ngldm_matrix(d.levels, d.mask.flags, d.ng, alpha)
            assert np.array_equal(ngldm_matrix(d, alpha), expected)
        assert not np.array_equal(ngldm_matrix(d, 0), ngldm_matrix(d, 1))

    def test_random_vs_neighbor_count_oracle(self, rng):
        for alpha in (0, 1):
            d = random_discretized(rng, ng=4)
            got = ngldm_features(d, alpha=alpha)
            matrix = oracles.ngldm_matrix(d.levels, d.mask.flags, d.ng, alpha)
            generic = oracles.row_column_features(matrix, d.mask.voxel_count)
            assert_close_dict(got, {n: generic[s] for n, s in oracles.NGLDM_MAP.items()})


def _elementwise_distribution_stats(values):
    """The IS/IH order and moment statistics with the powers taken voxel by
    voxel, as they were computed before the per-distinct-value table."""
    x = np.asarray(values, dtype=np.float64)
    srt = np.sort(x)
    flagged = set()
    mean = float(np.mean(x))
    centered = x - mean
    var = float(np.mean(centered**2))
    p10 = nearest_rank_percentile(srt, 10)
    p25 = nearest_rank_percentile(srt, 25)
    p75 = nearest_rank_percentile(srt, 75)
    p90 = nearest_rank_percentile(srt, 90)
    median = float(np.median(srt))
    if var > 0.0:
        skewness = float(np.mean(centered**3)) / var**1.5
        kurtosis = float(np.mean(centered**4)) / var**2 - 3.0
    else:
        skewness = kurtosis = math.nan
        flagged.update(("skewness", "kurtosis"))
    if var > 0.0 and mean != 0.0:
        cov = math.sqrt(var) / mean
    else:
        cov = math.nan
        flagged.add("coefficient_of_variation")
    if p25 + p75 != 0.0:
        qcd = (p75 - p25) / (p75 + p25)
    else:
        qcd = math.nan
        flagged.add("quartile_coefficient_of_dispersion")
    robust = x[(x >= p10) & (x <= p90)]
    features = {
        "mean": mean,
        "variance": var,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "median": median,
        "minimum": float(srt[0]),
        "percentile_10": p10,
        "percentile_90": p90,
        "maximum": float(srt[-1]),
        "interquartile_range": p75 - p25,
        "range": float(srt[-1] - srt[0]),
        "mean_absolute_deviation": float(np.mean(np.abs(centered))),
        "robust_mean_absolute_deviation": float(np.mean(np.abs(robust - np.mean(robust)))),
        "median_absolute_deviation": float(np.mean(np.abs(x - median))),
        "coefficient_of_variation": cov,
        "quartile_coefficient_of_dispersion": qcd,
    }
    return features, flagged


def assert_same_bits(got, expected):
    """Equal dicts of floats, NaN matching NaN."""
    assert set(got) == set(expected)
    for name, e in expected.items():
        assert got[name] == e or (math.isnan(got[name]) and math.isnan(e)), name


def _moment_inputs():
    rng = np.random.default_rng(77)
    stored = rng.integers(-1000, 3000, 20_000).astype(np.int16).astype(np.float64)
    lo, hi = stored.min(), stored.max()
    return {
        "int16": stored,
        "int16_normalized": (stored - lo) / (hi - lo),
        "all_distinct_floats": rng.random(5_000),
        "constant": np.full(64, 0.3),
        "single_voxel": np.array([2.5]),
        "negative": -rng.integers(1, 40, 3_000).astype(np.float64) * 0.7,
        "fbs_levels_1024": rng.integers(1, 1025, 30_000).astype(np.float64),
    }


class TestExactMoments:
    """The third and fourth powers gathered from a per-distinct-value table
    are the elementwise powers, so every IS and IH moment keeps its bits."""

    @pytest.mark.parametrize("name, values", list(_moment_inputs().items()))
    def test_gathered_powers_equal_elementwise(self, name, values):
        distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        assert np.array_equal(np.repeat(distinct, counts), np.sort(values))
        assert np.array_equal(distinct[inverse], values)
        centered = values - np.mean(values)
        table = distinct - np.mean(values)
        assert np.array_equal((table**3)[inverse], centered**3)
        assert np.array_equal((table**4)[inverse], centered**4)

    @pytest.mark.parametrize("name, values", list(_moment_inputs().items()))
    def test_intensity_statistics_equal_elementwise_formulas(self, name, values):
        vol = make_volume(values.reshape(-1, 1, 1))
        got = intensity_statistics(vol, make_mask(np.ones(vol.dims, bool)))
        expected, expected_flagged = _elementwise_distribution_stats(values)
        expected["energy"] = float(np.sum(values * values))
        expected["root_mean_square"] = float(np.sqrt(np.mean(values * values)))
        assert_same_bits(got, expected)
        assert nan_names(got) == expected_flagged

    @pytest.mark.parametrize(
        "values",
        [
            [2.5],
            [3.0, -1.0],
            [0.7, 0.1, 0.4],
            [4.0, 1.0, 3.0, 2.0],
            [1.0, 2.0, 2.0, 2.0, 5.0, 5.0],
            [0.3] * 7,
            [-2.0, -0.0, -0.0, 1.0],
            [-0.0, -0.0],
            [0.1, 1e308, 1e308, 0.2],
        ],
        ids=["n1", "n2", "n3", "n4", "ties", "all_equal", "negative_zero_pair", "negative_zeros", "overflowing_pair"],
    )
    def test_median_equals_np_median(self, values):
        values = np.array(values)
        distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        srt = np.repeat(distinct, counts)
        with np.errstate(over="ignore", invalid="ignore"):
            got = basic_distribution_stats(values, srt, distinct, inverse)["median"]
            expected = float(np.median(srt))
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("seed", range(6))
    def test_phantom_intensity_statistics_equal_elementwise_formulas(self, seed):
        v, m = generate_phantom(seed, (12, 10, 8))
        got = intensity_statistics(v, m)
        expected, _ = _elementwise_distribution_stats(v.values[m.flags])
        assert_same_bits({k: got[k] for k in expected}, expected)

    @pytest.mark.parametrize(
        "scheme",
        [
            DiscretizationScheme("FBN", 2),
            DiscretizationScheme("FBS", width=10.0),
            DiscretizationScheme("FBN", 32),
            DiscretizationScheme("FBS", width=0.01),
            DiscretizationScheme("FBS", width=0.001),
        ],
    )
    def test_histogram_moments_equal_elementwise_formulas(self, scheme):
        v, m = generate_phantom(4, (14, 12, 10))
        d = discretize(v, m, scheme)
        got = intensity_histogram_features(d)
        expected, _ = _elementwise_distribution_stats(d.roi_levels.astype(np.float64))
        assert_same_bits({k: got[k] for k in expected}, expected)

    def test_histogram_at_1024_levels(self, rng):
        levels = rng.integers(1, 1025, (20, 20, 20))
        d = make_disc(levels, ng=1024)
        got = intensity_histogram_features(d)
        expected, _ = _elementwise_distribution_stats(d.roi_levels.astype(np.float64))
        assert_same_bits({k: got[k] for k in expected}, expected)


class TestSharedPairPass:
    def test_runs_zones_and_ngldm_build_the_pairs_once(self, rng, monkeypatch):
        built = []
        pair_list = DiscretizedVolume._pair_list

        def counting(self, offset, tolerance):
            built.append(tolerance)
            return pair_list(self, offset, tolerance)

        monkeypatch.setattr(DiscretizedVolume, "_pair_list", counting)
        d = random_discretized(rng, ng=3)
        glrlm_matrices(d)
        zone_matrices(d)
        ngldm_matrix(d, alpha=0)
        assert built == [0] * len(DIRECTIONS_13)
        ngldm_matrix(d, alpha=1)
        assert built == [0] * len(DIRECTIONS_13) + [1] * len(DIRECTIONS_13)


class TestZoneEdges:
    @staticmethod
    def gathered_edges(d, index):
        """The edge arrays as built by gathering `index` over each slice pair."""
        heads, tails = [], []
        for off in DIRECTIONS_13:
            src, dst = oracles.shift_slices(d.dims, off)
            same = d.mask.flags[src] & d.mask.flags[dst] & (d.levels[src] == d.levels[dst])
            heads.append(index[src][same])
            tails.append(index[dst][same])
        return np.concatenate(heads), np.concatenate(tails)

    @pytest.mark.parametrize("dims", [(7, 6, 5), (1, 9, 4), (5, 1, 1), (3, 3, 3)])
    def test_flat_positions_give_the_gathered_edges(self, rng, dims):
        d = random_discretized(rng, dims=dims, ng=3, mask_density=0.7)
        index = np.full(d.dims, -1, dtype=np.int32)
        index[d.mask.flags] = np.arange(d.mask.voxel_count, dtype=np.int32)
        got = map(np.concatenate, equal_level_edges(d, index))
        expected = self.gathered_edges(d, index)
        assert all(np.array_equal(g, e) and g.dtype == e.dtype for g, e in zip(got, expected))
