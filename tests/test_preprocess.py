"""Normalization, centered cropping, and discretization."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from transfid import preprocess
from transfid.errors import CropLosesRoi, InvalidScheme, NonFiniteVoxel
from transfid.phantom import generate_phantom
from transfid.preprocess import (
    MAX_LEVELS,
    DiscretizationScheme,
    DiscretizedVolume,
    crop_centered,
    discretize,
    min_max_normalize,
)
from transfid.volume import DIRECTIONS_13, RoiMask, flat_position_dtype, neighbor_sum

from conftest import discretized_volumes, make_mask, make_volume, overflowing_phantom


class TestMinMaxNormalize:
    def test_affine_map(self):
        vol = make_volume(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))
        np.testing.assert_array_equal(min_max_normalize(vol).flat, [0.0, 0.5, 1.0])

    def test_constant_maps_to_zeros(self):
        vol = make_volume(np.full((3, 1, 1), 5.0))
        np.testing.assert_array_equal(min_max_normalize(vol).flat, [0.0, 0.0, 0.0])

    def test_range_that_overflows_float64_is_refused(self):
        with pytest.raises(NonFiniteVoxel, match=r"intensity range \[-1e\+308, 1e\+308\] overflows float64"):
            min_max_normalize(overflowing_phantom()[0])
        # 1.6e308 is still finite
        vol = make_volume(np.array([-8e307, 0.0, 8e307]).reshape(3, 1, 1))
        np.testing.assert_array_equal(min_max_normalize(vol).flat, [0.0, 0.5, 1.0])

    def test_already_normalized_unchanged(self):
        vol = make_volume(np.array([0.0, 1.0]).reshape(2, 1, 1))
        np.testing.assert_array_equal(min_max_normalize(vol).flat, [0.0, 1.0])

    def test_idempotence_exact(self, rng):
        for _ in range(10):
            vol = make_volume(rng.normal(3.0, 10.0, (4, 3, 5)))
            once = min_max_normalize(vol)
            twice = min_max_normalize(once)
            np.testing.assert_array_equal(once.values, twice.values)


class TestCropCentered:
    def test_full_size_crop_is_identity(self, rng):
        values = rng.random((128, 128, 64))
        flags = np.zeros((128, 128, 64), dtype=bool)
        # symmetric blob centered at (64, 64, 32)
        flags[63:66, 63:66, 31:34] = True
        vol, mask = make_volume(values), make_mask(flags)
        assert mask.centroid == (64, 64, 32)
        out_vol, out_mask = crop_centered(vol, mask, (128, 128, 64))
        np.testing.assert_array_equal(out_vol.values, values)
        np.testing.assert_array_equal(out_mask.flags, flags)

    def test_corner_voxel_window_extends_out_of_bounds(self, rng):
        values = rng.random((4, 4, 4))
        flags = np.zeros((4, 4, 4), dtype=bool)
        flags[0, 0, 0] = True
        out_vol, out_mask = crop_centered(make_volume(values), make_mask(flags), (2, 2, 2))
        # window [-1..0]^3: source voxel (0,0,0) lands at output (1,1,1)
        expected = np.zeros((2, 2, 2))
        expected[1, 1, 1] = values[0, 0, 0]
        np.testing.assert_array_equal(out_vol.values, expected)
        assert out_mask.flags[1, 1, 1]
        assert out_mask.voxel_count == 1

    def test_single_voxel_target(self, rng):
        values = rng.random((5, 5, 5))
        flags = np.zeros((5, 5, 5), dtype=bool)
        flags[2, 3, 1] = True
        out_vol, out_mask = crop_centered(make_volume(values), make_mask(flags), (1, 1, 1))
        assert out_vol.dims == (1, 1, 1)
        assert out_vol.value_at(0, 0, 0) == values[2, 3, 1]
        assert out_mask.voxel_count == 1

    def test_crop_loses_roi(self):
        # two far-apart voxels put the rounded centroid on an unmasked voxel
        flags = np.zeros((5, 1, 1), dtype=bool)
        flags[0, 0, 0] = flags[4, 0, 0] = True
        vol = make_volume(np.ones((5, 1, 1)))
        with pytest.raises(CropLosesRoi):
            crop_centered(vol, make_mask(flags), (1, 1, 1))

    def test_translation_equivariance(self, rng):
        base = rng.random((6, 6, 6))
        flags = np.zeros((6, 6, 6), dtype=bool)
        flags[2:4, 2:4, 2:4] = True

        shifted_vals = np.zeros((8, 8, 8))
        shifted_vals[1:7, 1:7, 1:7] = base
        shifted_flags = np.zeros((8, 8, 8), dtype=bool)
        shifted_flags[1:7, 1:7, 1:7] = flags

        out_a = crop_centered(make_volume(base), make_mask(flags), (3, 3, 3))
        out_b = crop_centered(make_volume(shifted_vals), make_mask(shifted_flags), (3, 3, 3))
        np.testing.assert_array_equal(out_a[0].values, out_b[0].values)
        np.testing.assert_array_equal(out_a[1].flags, out_b[1].flags)

    def test_centroid_rounding_half_up(self):
        flags = np.zeros((4, 1, 1), dtype=bool)
        flags[1, 0, 0] = flags[2, 0, 0] = True  # centroid x = 1.5 -> 2
        assert make_mask(flags).centroid == (2, 0, 0)

    @pytest.mark.parametrize("target", [(0, 2, 2), (2, 2, -1)])
    def test_non_positive_target_is_refused(self, target):
        vol, mask = make_volume(np.ones((2, 2, 2))), make_mask(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="crop target must be positive"):
            crop_centered(vol, mask, target)

    @staticmethod
    def padded_window(array, starts, target):
        """`target` cells from `starts` of `array`, zero outside it: the
        array padded by the target on every side, then sliced."""
        pad = max(target)
        window = tuple(slice(s + pad, s + pad + t) for s, t in zip(starts, target))
        return np.pad(array, pad)[window]

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_window_matches_a_padded_reference(self, data):
        dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        target = tuple(data.draw(st.integers(1, 9)) for _ in range(3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        values = rng.random(dims)
        flags = rng.random(dims) < data.draw(st.sampled_from((0.05, 0.5, 1.0)))
        # a voxel on the first or the last plane of an axis pulls the centroid there
        corner = tuple(data.draw(st.sampled_from((0, n - 1))) for n in dims)
        if data.draw(st.booleans()):
            flags[:] = False
        flags[corner] = True
        mask = make_mask(flags)
        starts = [c - t // 2 for c, t in zip(mask.centroid, target)]
        expected_flags = self.padded_window(flags, starts, target)
        if not expected_flags.any():
            with pytest.raises(CropLosesRoi):
                crop_centered(make_volume(values), mask, target)
            return
        out_vol, out_mask = crop_centered(make_volume(values), mask, target)
        np.testing.assert_array_equal(out_vol.values, self.padded_window(values, starts, target))
        np.testing.assert_array_equal(out_mask.flags, expected_flags)


class TestDiscretize:
    def test_fbn_formula(self):
        vol = make_volume(np.array([0.0, 0.25, 0.5, 1.0]).reshape(4, 1, 1))
        mask = make_mask(np.ones((4, 1, 1), dtype=bool))
        d = discretize(vol, mask, DiscretizationScheme("FBN", 4))
        np.testing.assert_array_equal(d.roi_levels, [1, 2, 3, 4])
        assert d.ng == 4

    def test_fbn_constant_roi(self):
        vol = make_volume(np.full((3, 1, 1), 0.7))
        mask = make_mask(np.ones((3, 1, 1), dtype=bool))
        d = discretize(vol, mask, DiscretizationScheme("FBN", 32))
        np.testing.assert_array_equal(d.roi_levels, [1, 1, 1])
        assert d.ng == 1

    def test_fbs_levels(self):
        vol = make_volume(np.array([0.1, 0.9]).reshape(2, 1, 1))
        mask = make_mask(np.ones((2, 1, 1), dtype=bool))
        d = discretize(vol, mask, DiscretizationScheme("FBS", width=0.5, origin=0.0))
        np.testing.assert_array_equal(d.roi_levels, [1, 2])
        assert d.ng == 2

    def test_fbs_shifts_minimum_occupied_level_to_one(self):
        vol = make_volume(np.array([2.3, 3.7]).reshape(2, 1, 1))
        mask = make_mask(np.ones((2, 1, 1), dtype=bool))
        d = discretize(vol, mask, DiscretizationScheme("FBS", width=1.0, origin=0.0))
        np.testing.assert_array_equal(d.roi_levels, [1, 2])
        assert d.ng == 2

    def test_fbn_extremes_map_to_1_and_ng(self, rng):
        for ng in (2, 5, 32):
            vol = make_volume(rng.random((5, 5, 2)))
            mask = make_mask(np.ones((5, 5, 2), dtype=bool))
            d = discretize(vol, mask, DiscretizationScheme("FBN", ng))
            levels = d.roi_levels
            values = vol.values[mask.flags]
            assert levels[np.argmin(values)] == 1
            assert levels[np.argmax(values)] == ng
            assert levels.min() >= 1 and levels.max() <= ng

    def test_roi_levels_are_gathered_once_and_read_only(self, rng):
        vol = make_volume(rng.random((6, 4, 3)))
        mask = make_mask(rng.random((6, 4, 3)) < 0.6)
        d = discretize(vol, mask, DiscretizationScheme("FBN", 5))
        assert d.roi_levels is d.roi_levels
        np.testing.assert_array_equal(d.roi_levels, d.levels[mask.flags])
        assert not d.roi_levels.flags.writeable

    @settings(max_examples=150, deadline=None, database=None)
    @given(d=discretized_volumes())
    def test_level_counts_tally_the_roi_levels_once_and_read_only(self, d):
        expected = np.bincount(d.roi_levels, minlength=d.ng + 1)[1:]
        assert d.level_counts.dtype == expected.dtype and d.level_counts.shape == (d.ng,)
        np.testing.assert_array_equal(d.level_counts, expected)
        assert d.level_counts is d.level_counts and not d.level_counts.flags.writeable

    def test_level_counts_of_a_single_level_roi(self):
        vol = make_volume(np.full((3, 2, 2), 0.25))
        d = discretize(vol, make_mask(np.ones((3, 2, 2), dtype=bool)), DiscretizationScheme("FBN", 8))
        assert d.ng == 1 and d.level_counts.tolist() == [12]

    @pytest.mark.parametrize("bad", [0, 4])
    def test_in_mask_levels_outside_1_to_ng_are_refused(self, bad):
        flags = np.array([True, True, False]).reshape(3, 1, 1)
        levels = np.array([1, bad, 0]).reshape(3, 1, 1)
        with pytest.raises(ValueError, match=r"in-mask levels must lie in \[1, ng\]"):
            DiscretizedVolume((3, 1, 1), levels, ng=3, mask=RoiMask((3, 1, 1), flags))

    def test_fbn_all_levels_attainable(self):
        ng = 6
        ramp = np.linspace(0.0, 1.0, 60).reshape(60, 1, 1)
        d = discretize(
            make_volume(ramp), make_mask(np.ones((60, 1, 1), dtype=bool)), DiscretizationScheme("FBN", ng)
        )
        assert set(d.roi_levels.tolist()) == set(range(1, ng + 1))

    def test_monotonicity(self, rng):
        for scheme in (
            DiscretizationScheme("FBN", 7),
            DiscretizationScheme("FBS", width=0.13, origin=0.0),
        ):
            vol = make_volume(rng.random((6, 4, 3)))
            mask = make_mask(rng.random((6, 4, 3)) < 0.8)
            d = discretize(vol, mask, scheme)
            values = vol.values[mask.flags]
            levels = d.roi_levels
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(levels[order]) >= 0)

    def test_invalid_schemes(self):
        with pytest.raises(InvalidScheme):
            DiscretizationScheme("FBN", 1)
        with pytest.raises(InvalidScheme):
            DiscretizationScheme("FBS", width=0.0)
        with pytest.raises(InvalidScheme):
            DiscretizationScheme("quantile")

    @pytest.mark.parametrize(
        "mode, fields",
        [
            ("FBN", {"bins": 2.5}),
            ("FBN", {"bins": True}),
            ("FBN", {"bins": MAX_LEVELS + 1}),
            ("FBS", {"width": math.inf}),
            ("FBS", {"width": math.nan}),
            ("FBS", {"width": True}),
            ("FBS", {"width": 0.1, "origin": math.inf}),
            ("FBS", {"width": 0.1, "origin": None}),
        ],
    )
    def test_fields_checked_at_construction(self, mode, fields):
        # the rules config applies, so a library caller gets the same refusal
        with pytest.raises(InvalidScheme, match="must be"):
            DiscretizationScheme(mode, **fields)

    def test_level_count_bounded_before_allocation(self):
        # two voxels and a tiny bin width: 10 001 levels, refused in discretize
        vol = make_volume(np.array([0.0, 1.0]).reshape(2, 1, 1))
        mask = make_mask(np.ones((2, 1, 1), dtype=bool))
        with pytest.raises(InvalidScheme, match="10001 gray levels"):
            discretize(vol, mask, DiscretizationScheme("FBS", width=1e-4))
        with pytest.raises(InvalidScheme):
            discretize(vol, mask, DiscretizationScheme("FBN", MAX_LEVELS + 1))
        assert discretize(vol, mask, DiscretizationScheme("FBN", MAX_LEVELS)).ng == MAX_LEVELS

    @pytest.mark.parametrize("width, origin", [(0.04, 1e300), (0.04, -1e300), (1e-300, 0.0), (1e-310, 0.0)])
    def test_fbs_bins_beyond_exact_integers_refused(self, width, origin):
        # the float bin numbers are checked before the int64 cast, which would
        # overflow; an overflowing division warns nothing
        v, m = generate_phantom(0, (8, 8, 8))
        with pytest.raises(InvalidScheme, match="bin range"):
            discretize(v, m, DiscretizationScheme("FBS", width=width, origin=origin))

    def test_fbn_range_that_overflows_float64_is_refused(self):
        # max - min is finite, but 32 times it is not, and neither is 32 * (roi - min)
        vol = make_volume(np.array([-1e307, 0.0, 1e307]).reshape(3, 1, 1))
        mask = make_mask(np.ones((3, 1, 1), dtype=bool))
        with pytest.raises(InvalidScheme, match=r"FBN\(bins=32\) overflows float64 on the ROI range"):
            discretize(vol, mask, DiscretizationScheme("FBN", 32))
        assert discretize(vol, mask, DiscretizationScheme("FBN", 8)).roi_levels.tolist() == [1, 5, 8]

    def test_fbs_bins_at_the_exact_range_edge_kept(self):
        # bins 2**53 - 1 and 2**53 are exact, so the two voxels keep two levels
        vol = make_volume(np.array([2.0**53 - 1, 2.0**53]).reshape(2, 1, 1))
        d = discretize(vol, make_mask(np.ones((2, 1, 1), dtype=bool)), DiscretizationScheme("FBS", width=1.0))
        assert d.ng == 2 and d.roi_levels.tolist() == [1, 2]

    def test_int64_levels_are_copied_once(self):
        dims = (128, 128, 64)
        levels = np.zeros(dims, dtype=np.int64)
        flags = np.zeros(dims, dtype=bool)
        flags[:4, :4, :4] = True
        levels[flags] = 3
        mask = make_mask(flags)
        tracemalloc.start()
        try:
            d = DiscretizedVolume(dims, levels, ng=4, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.levels.dtype == np.int32 and not d.levels.flags.writeable
        # the int32 grid (4 MiB here); converting and then copying held two
        assert peak < 1.25 * d.levels.nbytes


class TestPairPositions:
    @pytest.mark.parametrize("tolerance", [0, 1, "ng", 2**40])
    @settings(max_examples=100, deadline=None, database=None)
    @given(d=discretized_volumes())
    def test_positions_follow_the_pair_rule(self, d, tolerance):
        if tolerance == "ng":
            tolerance = d.ng
        dims, flags, levels = d.dims, d.mask.flags, d.levels
        lists = d.pair_positions(tolerance)
        assert len(lists) == len(DIRECTIONS_13)
        for off, positions in zip(DIRECTIONS_13, lists):
            src, dst = oracles.shift_slices(dims, off)
            expected = np.zeros(dims, dtype=bool)
            expected[src] = flags[src] & flags[dst] & (abs(levels[src] - levels[dst]) <= tolerance)
            assert np.array_equal(positions, np.flatnonzero(expected)), off
            assert positions.dtype == np.int32 and not positions.flags.writeable

    def test_negative_tolerance_is_refused(self):
        d = DiscretizedVolume((2, 2, 2), np.ones((2, 2, 2), dtype=int), ng=1,
                              mask=make_mask(np.ones((2, 2, 2), dtype=bool)))
        with pytest.raises(ValueError, match="non-negative"):
            d.pair_positions(-1)

    @pytest.mark.parametrize("dims, dtype", [
        ((2**31 - 1, 1, 1), np.int32),
        ((1023, 1024, 2048), np.int32),
        ((1024, 1024, 2048), np.int64),
        ((2**31, 1, 1), np.int64),
        ((4096, 4096, 4096), np.int64),
    ])
    def test_position_dtype_is_decided_from_dims(self, dims, dtype):
        assert flat_position_dtype(dims) is dtype

    def test_lists_take_the_dims_rule(self, monkeypatch):
        monkeypatch.setattr(preprocess, "flat_position_dtype", lambda dims: np.int64)
        d = DiscretizedVolume((3, 3, 3), np.ones((3, 3, 3), dtype=int), ng=1,
                              mask=make_mask(np.ones((3, 3, 3), dtype=bool)))
        assert all(p.dtype == np.int64 for p in d.pair_positions(0))

    def test_lists_hold_at_most_half_of_the_dense_grids(self):
        """An ROI shaped like the benchmark's large one: a 108x108x56 box
        holding a 313 920-voxel ellipsoid of smoothed noise, at FBN 32."""
        dims = (128, 128, 64)
        axes = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
        flags = sum(((a - (n - 1) / 2) / (0.83 * n / 2)) ** 2 for a, n in zip(axes, dims)) <= 1.0
        field = np.random.default_rng(5).standard_normal(dims)
        for _ in range(6):  # six 3x3x3 box sums: about a Gaussian of sd 2 voxels
            field += neighbor_sum(field)
        box, mask = RoiMask(dims, flags).box
        d = discretize(make_volume(field[box]), mask, DiscretizationScheme("FBN", 32))
        assert d.dims == (108, 108, 56) and mask.voxel_count == 313920
        grid = math.prod(d.dims)  # bytes of one dense bool grid
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lists = d.pair_positions(0)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert sum(p.nbytes for p in lists) <= held <= len(DIRECTIONS_13) * grid / 2
        # built one transient grid at a time, not 13 grids at once
        assert peak <= held + 3 * grid
