"""MAE, MSE, PSNR, SSIM, and cohort summaries."""
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import oracles
from transfid import iqa
from transfid.errors import DimsMismatch, VolumeTooSmall
from transfid.iqa import MetricSet, SsimParams, compute_metrics, mae, mse, psnr, ssim3d
from transfid.phantom import generate_phantom
from transfid.volume import Volume3D

from conftest import make_mask, make_volume


def naive_mae(a, b):
    total = 0.0
    for x in range(a.shape[0]):
        for y in range(a.shape[1]):
            for z in range(a.shape[2]):
                total += abs(a[x, y, z] - b[x, y, z])
    return total / a.size


def naive_mse(a, b):
    total = 0.0
    for x in range(a.shape[0]):
        for y in range(a.shape[1]):
            for z in range(a.shape[2]):
                total += (a[x, y, z] - b[x, y, z]) ** 2
    return total / a.size


class TestMaeMse:
    def test_identity(self, rng):
        vol = make_volume(rng.random((4, 4, 4)))
        assert mae(vol, vol) == 0.0
        assert mse(vol, vol) == 0.0

    def test_hand_values(self):
        a = make_volume(np.array([0.0, 1.0]).reshape(2, 1, 1))
        b = make_volume(np.array([0.5, 0.5]).reshape(2, 1, 1))
        assert mae(a, b) == 0.5
        assert mse(a, b) == 0.25

    def test_random_pair_vs_naive_oracle(self, rng):
        a = rng.random((8, 8, 8))
        b = rng.random((8, 8, 8))
        va, vb = make_volume(a), make_volume(b)
        assert mae(va, vb) == pytest.approx(naive_mae(a, b), abs=1e-12)
        assert mse(va, vb) == pytest.approx(naive_mse(a, b), abs=1e-12)

    def test_symmetry_exact(self, rng):
        a = make_volume(rng.random((5, 6, 7)))
        b = make_volume(rng.random((5, 6, 7)))
        assert mae(a, b) == mae(b, a)
        assert mse(a, b) == mse(b, a)

    def test_scale_law(self, rng):
        a = rng.random((4, 4, 4))
        b = rng.random((4, 4, 4))
        c = 3.5
        scaled = mse(make_volume(c * a), make_volume(c * b))
        assert scaled == pytest.approx(c * c * mse(make_volume(a), make_volume(b)), rel=1e-12)

    def test_cauchy_schwarz_invariant(self, rng):
        for _ in range(20):
            a = make_volume(rng.random((3, 3, 3)))
            b = make_volume(rng.random((3, 3, 3)))
            assert mae(a, b) ** 2 <= mse(a, b) + 1e-15

    def test_dims_mismatch(self, rng):
        with pytest.raises(DimsMismatch):
            mae(make_volume(rng.random((2, 2, 2))), make_volume(rng.random((3, 2, 2))))


class TestPsnr:
    def test_formula(self):
        a = make_volume(np.zeros((10, 10, 10)))
        b = make_volume(np.full((10, 10, 10), math.sqrt(0.001)))
        assert psnr(a, b, 1.0) == pytest.approx(30.0, abs=1e-9)

    def test_identical_is_infinite(self, rng):
        vol = make_volume(rng.random((3, 3, 3)))
        assert psnr(vol, vol) == math.inf

    def test_reported_scale_consistency(self):
        # an MSE near 0.001 pairs with a PSNR near 28.8 dB
        a = make_volume(np.zeros((4, 4, 4)))
        b = make_volume(np.full((4, 4, 4), math.sqrt(0.0013)))
        assert psnr(a, b, 1.0) == pytest.approx(28.86, abs=0.01)

    def test_psnr_mse_identity_exact(self, rng):
        a = make_volume(rng.random((4, 4, 4)))
        b = make_volume(rng.random((4, 4, 4)))
        assert psnr(a, b, 1.0) == -10.0 * math.log10(mse(a, b))

    @pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_peak_must_be_positive_and_finite(self, rng, peak):
        a = make_volume(rng.random((4, 4, 4)))
        b = make_volume(rng.random((4, 4, 4)))
        with pytest.raises(ValueError, match="peak must be a positive finite number"):
            psnr(a, b, peak)
        with pytest.raises(ValueError, match="peak must be a positive finite number"):
            compute_metrics(a, b, SsimParams(window=1), peak=peak)


class TestSsim3d:
    @pytest.mark.parametrize("key", ["k1", "k2", "dynamic_range", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_params_must_be_positive_and_finite(self, key, value):
        with pytest.raises(ValueError, match="positive finite"):
            SsimParams(**{key: value})

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"k1": 1e200}, "k1"),  # the square raises OverflowError
            ({"k1": 1e160}, "k1"),
            ({"k2": 1e200}, "k2"),
            ({"k1": 1e100, "dynamic_range": 1e300}, "k1"),  # the product is inf
            ({"sigma": 1e-200}, "sigma"),  # 2 sigma^2 underflows to 0
        ],
    )
    def test_constants_must_stay_in_float64(self, fields, key):
        with pytest.raises(ValueError, match=rf"^{key} must be .* in float64$"):
            SsimParams(**fields)

    @pytest.mark.parametrize("fields", [{"k1": 1e-200}, {"k2": 1e-170}, {"sigma": 1e-160}, {"sigma": 1e200}])
    def test_constants_near_the_float64_limits_are_allowed(self, fields, rng):
        # c1 or c2 may underflow to 0, and 2 sigma^2 to a subnormal or overflow to
        # inf; at sigma 1e-160 the outer taps' exponents overflow to -inf: a
        # one-voxel window, which compute_metrics scores without a RuntimeWarning
        a = make_volume(rng.random((12, 12, 12)))
        b = make_volume(np.clip(a.values + rng.normal(0, 0.05, a.dims), 0, 1))
        assert -1.0 <= compute_metrics(a, b, SsimParams(**fields)).ssim <= 1.0

    def test_tiny_sigma_taps_are_built_without_a_warning(self, rng):
        # ssim3d called directly, with the window geometry not yet cached
        a = make_volume(rng.random((12, 12, 12)))
        iqa._window_geometry.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ssim3d(a, a, SsimParams(sigma=1e-160)) == pytest.approx(1.0, abs=1e-12)
        taps, _ = iqa._window_geometry(a.dims, SsimParams().window, 1e-160)
        assert taps.tolist() == [0.0] * SsimParams().window + [1.0] + [0.0] * SsimParams().window

    def test_window_geometry_keeps_one_grid(self, rng):
        # each entry holds a full-grid float64 weight array
        for dims in ((12, 12, 12), (11, 13, 12)):
            a = make_volume(rng.random(dims))
            ssim3d(a, a)
        assert iqa._window_geometry.cache_info().currsize == 1

    @pytest.mark.parametrize("window", [2.5, True, 0, "5"])
    def test_window_must_be_an_int(self, window):
        with pytest.raises(ValueError, match="window must be an int >= 1"):
            SsimParams(window=window)

    def test_identity_is_one(self, rng):
        vol = make_volume(rng.random((12, 12, 12)))
        assert ssim3d(vol, vol) == pytest.approx(1.0, abs=1e-12)

    def test_constant_shift_equals_luminance_term(self, rng):
        a = rng.random((12, 12, 12))
        params = SsimParams()
        shift = 0.5 * params.dynamic_range
        got = ssim3d(make_volume(a), make_volume(a + shift), params)

        # contrast and structure cancel for a noiseless shift, leaving the
        # per-window luminance term computed from oracle window means
        c1 = (params.k1 * params.dynamic_range) ** 2
        w = params.window
        axis = np.arange(-w, w + 1, dtype=float)
        g = np.exp(-(axis**2) / (2 * params.sigma**2))
        kernel = g[:, None, None] * g[None, :, None] * g[None, None, :]
        total = 0.0
        dims = a.shape
        for x in range(dims[0]):
            for y in range(dims[1]):
                for z in range(dims[2]):
                    x0, x1 = max(0, x - w), min(dims[0], x + w + 1)
                    y0, y1 = max(0, y - w), min(dims[1], y + w + 1)
                    z0, z1 = max(0, z - w), min(dims[2], z + w + 1)
                    kw = kernel[
                        x0 - x + w : x1 - x + w, y0 - y + w : y1 - y + w, z0 - z + w : z1 - z + w
                    ]
                    mu = float((kw / kw.sum() * a[x0:x1, y0:y1, z0:z1]).sum())
                    total += (2 * mu * (mu + shift) + c1) / (mu**2 + (mu + shift) ** 2 + c1)
        expected = total / a.size
        assert got == pytest.approx(expected, rel=1e-9)
        assert got < 1.0

    def test_random_pair_vs_sliding_window_oracle(self, rng):
        a = rng.random((16, 16, 16))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        got = ssim3d(make_volume(a), make_volume(b))
        expected = oracles.ssim3d(a, b)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_symmetry_exact(self, rng):
        a = make_volume(rng.random((12, 12, 12)))
        b = make_volume(rng.random((12, 12, 12)))
        assert ssim3d(a, b) == ssim3d(b, a)

    def test_bounded(self, rng):
        for _ in range(5):
            a = make_volume(rng.normal(0, 1, (11, 11, 11)))
            b = make_volume(rng.normal(0, 1, (11, 11, 11)))
            assert -1.0 <= ssim3d(a, b) <= 1.0

    def test_volume_too_small(self, rng):
        small = make_volume(rng.random((8, 8, 8)))
        with pytest.raises(VolumeTooSmall):
            ssim3d(small, small)

    def test_mask_restriction(self, rng):
        a = make_volume(rng.random((12, 12, 12)))
        b = make_volume(np.clip(a.values + rng.normal(0, 0.05, a.dims), 0, 1))
        flags = np.zeros((12, 12, 12), dtype=bool)
        flags[3:9, 3:9, 3:9] = True
        full = ssim3d(a, b)
        masked = ssim3d(a, b, mask=make_mask(flags))
        assert masked != full
        assert -1.0 <= masked <= 1.0


def fresh_copy(vol):
    """The same voxels in a new values array, which the moments memo has not seen."""
    return Volume3D(vol.dims, vol.spacing, vol.values)


class TestSharedOriginal:
    """ssim3d keeps the grid's window weights and the last original's moments."""

    def test_interleaved_calls_equal_memo_misses(self, rng):
        originals = [make_volume(rng.random((12, 13, 11))) for _ in range(2)]
        networks = [
            make_volume(np.clip(originals[0].values + rng.normal(0, s, (12, 13, 11)), 0, 1))
            for s in (0.05, 0.2)
        ]
        params = [SsimParams(), SsimParams(window=2, sigma=0.8, k2=0.05)]
        flags = np.zeros((12, 13, 11), dtype=bool)
        flags[2:9, 3:10, 1:7] = True
        masks = [None, make_mask(flags)]
        cases = [(o, n, p, m) for o in range(2) for n in range(2) for p in range(2) for m in range(2)]
        expected = {
            case: ssim3d(fresh_copy(originals[case[0]]), networks[case[1]], params[case[2]], masks[case[3]])
            for case in cases
        }
        # runs of hits on one original across networks, params and masks, then
        # calls that alternate between the two originals
        alternating = [c for pair in zip(cases[:8], cases[8:]) for c in pair]
        for case in cases + cases[::-1] + alternating:
            o, n, p, m = case
            assert ssim3d(originals[o], networks[n], params[p], masks[m]) == expected[case]

    def test_symmetry_exact_through_the_memo(self, rng):
        a = make_volume(rng.random((12, 12, 12)))
        b = make_volume(rng.random((12, 12, 12)))
        first = ssim3d(a, b)
        assert ssim3d(a, b) == first  # a hit
        assert ssim3d(b, a) == first
        assert ssim3d(b, a) == first

    def test_memo_keeps_one_original(self, rng):
        a = make_volume(rng.random((11, 11, 11)))
        b = make_volume(rng.random((11, 11, 11)))
        ssim3d(a, b)
        values = weakref.ref(a.values)
        del a
        gc.collect()
        assert values() is not None  # held, so its id cannot be reused
        other = make_volume(rng.random((11, 11, 11)))
        ssim3d(other, b)
        gc.collect()
        assert values() is None

    def test_writeable_values_are_not_memoized(self, rng):
        a = make_volume(rng.random((11, 11, 11)))
        b = make_volume(rng.random((11, 11, 11)))
        a.values.flags.writeable = True  # Volume3D owns the array, so this is allowed
        ssim3d(a, b)
        a.values[3:8, 3:8, 3:8] = 0.0
        assert ssim3d(a, b) == ssim3d(fresh_copy(a), b)

    def test_windowed_sums_per_original_and_network(self, rng, monkeypatch):
        calls = []
        counted = iqa._windowed_sums
        monkeypatch.setattr(
            iqa, "_windowed_sums", lambda arr, taps: calls.append(1) or counted(arr, taps)
        )
        dims = (11, 12, 13)
        networks = [make_volume(rng.random(dims)) for _ in range(3)]

        iqa._window_geometry.cache_clear()
        original = make_volume(rng.random(dims))
        for network in networks:
            compute_metrics(original, network)
        assert len(calls) == 1 + 2 + 3 * 3  # weight map, original, three per network

        calls.clear()
        original = make_volume(rng.random(dims))
        for network in networks:
            ssim3d(original, network)
        assert len(calls) == 2 + 3 * 3  # the weight map is cached for the grid

    def test_compute_metrics_equals_the_four_functions(self, rng):
        a = make_volume(rng.random((12, 12, 12)))
        b = make_volume(np.clip(a.values + rng.normal(0, 0.1, a.dims), 0, 1))
        flags = rng.random(a.dims) < 0.4
        flags[6, 6, 6] = True
        for mask in (None, make_mask(flags)):
            got = compute_metrics(a, b, SsimParams(window=2), 0.5, mask)
            assert got == MetricSet(
                mae=mae(a, b, mask),
                mse=mse(a, b, mask),
                ssim=ssim3d(a, b, SsimParams(window=2), mask),
                psnr=psnr(a, b, 0.5, mask),
            )


class TestWindowedSums:
    """The slab-wise window sums keep every bit of scipy's correlate1d."""

    SHAPES = [
        (3, 20, 17),  # an axis shorter than the taps
        (19, 2, 23),
        (21, 18, 1),
        (iqa.SLAB_PLANES - 1, 15, 14),  # a first axis shorter than one slab
        (1, 12, 13),
        (3 * iqa.SLAB_PLANES + 1, 16, 11),  # not a multiple of the slab height
        (5 * iqa.SLAB_PLANES - 1, 9, 24),
        (4 * iqa.SLAB_PLANES, 13, 10),
    ]

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_bits_equal_correlate1d(self, window):
        rng = np.random.default_rng(window)
        for shape in self.SHAPES:
            for sigma in (0.3, 0.9, 1.5, 3.0):
                taps = oracles.gaussian_taps(window, sigma)
                for magnitude in (1e-5, 1.0, 1e5):
                    values = rng.random(shape) * magnitude
                    got = iqa._windowed_sums(values, taps)
                    assert np.array_equal(got, oracles.correlate1d_windowed_sums(values, taps))

    def test_ssim3d_bits_equal_the_correlate1d_reference(self, rng):
        dims = (2 * iqa.SLAB_PLANES + 5, 14, 13)
        flags = rng.random(dims) < 0.3
        cases = [(dims, window, sigma) for window, sigma in ((5, 1.5), (2, 0.8), (3, 2.5))]
        # the map is built a slab at a time: besides a last slab partly filled,
        # a first axis shorter than one slab and a whole number of slabs
        cases += [((iqa.SLAB_PLANES - 1, 9, 8), 1, 0.9), ((3 * iqa.SLAB_PLANES, 10, 11), 2, 1.2)]
        for dims, window, sigma in cases:
            if flags.shape != dims:
                flags = rng.random(dims) < 0.3
            params = SsimParams(window=window, sigma=sigma, k2=0.05)
            a = make_volume(rng.random(dims))
            b = make_volume(np.clip(a.values + rng.normal(0, 0.1, dims), 0, 1))
            for mask in (None, flags):
                got = ssim3d(a, b, params, None if mask is None else make_mask(mask))
                expected = oracles.correlate1d_ssim3d(
                    a.values, b.values, mask, window, params.k1, params.k2, params.dynamic_range, sigma
                )
                assert float.hex(got) == float.hex(expected)

    def test_memory_bound(self, rng):
        # no whole-grid padded copy: that would read 5.72 and 2.72 maps
        dims = (64, 48, 40)
        a = make_volume(rng.random(dims))
        b = make_volume(rng.random(dims))
        map_bytes = a.values.nbytes
        ssim3d(a, b)  # the weights and the original's moments are cached from here on
        taps, _ = iqa._window_geometry(dims, SsimParams().window, SsimParams().sigma)
        tracemalloc.start()
        try:
            ssim3d(a, b)
            ssim_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            iqa._windowed_sums(a.values, taps)
            sums_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ssim_peak <= 5.0 * map_bytes
        assert sums_peak <= 2.0 * map_bytes


class TestOverflow:
    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_compute_metrics_warns_nothing(self, scale):
        # a library caller sees the overflow as inf or NaN values, not as
        # RuntimeWarnings; pytest turns any RuntimeWarning into an error here
        a, _ = generate_phantom(0)
        b, _ = generate_phantom(1)
        got = compute_metrics(a.with_values(a.values * scale), b.with_values(b.values * scale))
        assert math.isnan(got.ssim)
        assert math.isfinite(got.mae)
        if scale > 1e154:
            assert got.mse == math.inf and got.psnr == -math.inf
        else:
            assert math.isfinite(got.mse) and math.isfinite(got.psnr)
