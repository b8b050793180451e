"""Pairwise image-quality metrics over 3D volumes: MAE, MSE, SSIM, PSNR."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimsMismatch, EmptyInput, VolumeTooSmall
from .stats import mean_std
from .volume import RoiMask, Volume3D


@dataclass(frozen=True)
class SsimParams:
    """Gaussian-window SSIM constants; the window spans (2*window+1)^3 voxels."""

    window: int = 5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0
    sigma: float = 1.5

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window half-width must be >= 1")
        if min(self.k1, self.k2, self.dynamic_range, self.sigma) <= 0:
            raise ValueError("k1, k2, dynamic_range, and sigma must be positive")


@dataclass(frozen=True)
class MetricSet:
    mae: float
    mse: float
    ssim: float
    psnr: float


# metric names in column order
METRICS = tuple(f.name for f in fields(MetricSet))


def _check_pair(a: Volume3D, b: Volume3D) -> None:
    if a.dims != b.dims:
        raise DimsMismatch(f"volume dims differ: {a.dims} vs {b.dims}")


def _select(v: Volume3D, mask: RoiMask | None) -> np.ndarray:
    if mask is None:
        return v.values
    mask.check_aligned(v)
    return v.values[mask.flags]


def _psnr_db(err: float, peak: float) -> float:
    """psnr() from an MSE already computed."""
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(peak) - 10.0 * math.log10(err)


def _absolute_and_squared_error(
    a: Volume3D, b: Volume3D, mask: RoiMask | None
) -> tuple[float, float]:
    """(MAE, MSE) from one voxel difference."""
    _check_pair(a, b)
    diff = _select(a, mask) - _select(b, mask)
    abs_err = float(np.mean(np.abs(diff)))
    diff *= diff
    return abs_err, float(np.mean(diff))


def mae(a: Volume3D, b: Volume3D, mask: RoiMask | None = None) -> float:
    """Mean absolute voxel difference."""
    return _absolute_and_squared_error(a, b, mask)[0]


def mse(a: Volume3D, b: Volume3D, mask: RoiMask | None = None) -> float:
    """Mean squared voxel difference."""
    return _absolute_and_squared_error(a, b, mask)[1]


def psnr(a: Volume3D, b: Volume3D, peak: float = 1.0, mask: RoiMask | None = None) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical volumes.

    Computed as 20*log10(peak) - 10*log10(mse), so psnr(a, b, 1.0) equals
    -10*log10(mse(a, b)) exactly.
    """
    return _psnr_db(mse(a, b, mask), peak)


def _windowed_sums(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # imported here, as at every scipy call site: `analyze` loads this
    # module through config and must not pay for scipy.ndimage
    from scipy.ndimage import correlate1d

    out = arr
    for axis in range(3):
        out = correlate1d(out, taps, axis=axis, mode="constant", cval=0.0)
    return out


@functools.lru_cache(maxsize=4)
def _window_geometry(
    dims: tuple[int, int, int], window: int, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """(taps, weight): the 1-D Gaussian taps and, per voxel, the summed weight
    of the in-bounds part of its window. Both depend on the grid only, so they
    are computed once per (dims, window, sigma) and returned read-only."""
    i = np.arange(-window, window + 1, dtype=np.float64)
    taps = np.exp(-(i * i) / (2.0 * sigma * sigma))
    weight = _windowed_sums(np.ones(dims), taps)
    taps.flags.writeable = False
    weight.flags.writeable = False
    return taps, weight


# The last original's window moments: (values, window, sigma, mean, variance).
# One slot, because a caller scores every network of a patient against one
# original before it moves on. The entry holds `values` itself, so that array
# cannot be freed and its id reused while the entry lives. It is read once and
# replaced whole, so a caller on another thread sees a consistent entry.
_original_memo: tuple | None = None


def _original_moments(
    values: np.ndarray, params: SsimParams, taps: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean and variance of `values`, memoized for read-only arrays."""
    global _original_memo
    memo = _original_memo
    if memo is not None and memo[0] is values and memo[1:3] == (params.window, params.sigma):
        return memo[3], memo[4]
    # drop the old entry first, so two originals' moments are never alive at once
    _original_memo = memo = None
    mu = _windowed_sums(values, taps)
    mu /= weight
    var = _windowed_sums(values * values, taps)
    var /= weight
    var -= mu * mu
    mu.flags.writeable = False
    var.flags.writeable = False
    if not values.flags.writeable:
        _original_memo = (values, params.window, params.sigma, mu, var)
    return mu, var


def ssim3d(
    a: Volume3D,
    b: Volume3D,
    params: SsimParams = SsimParams(),
    mask: RoiMask | None = None,
) -> float:
    """Mean 3D Gaussian-weighted structural similarity.

    Each voxel-centered window uses weights renormalized over the in-bounds
    portion; weighted first and second moments feed the standard SSIM form.
    With `mask`, the per-voxel map is averaged over in-mask centers only.

    The window weights depend on the grid only and are cached; the moments
    of `a` are kept until another original is scored, so scoring N networks
    against one original costs 2 + 3N windowed sums, not 6N.
    """
    _check_pair(a, b)
    size = 2 * params.window + 1
    if any(d < size for d in a.dims):
        raise VolumeTooSmall(f"dims {a.dims} smaller than the {size}^3 SSIM window")
    if mask is not None:
        mask.check_aligned(a)

    taps, weight = _window_geometry(a.dims, params.window, params.sigma)
    mu_a, var_a = _original_moments(a.values, params, taps, weight)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    # The map is ((2 mu_a mu_b + c1)(2 cov + c2)) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)).
    # Each factor is built in place, with the same operations in the same
    # order as that expression; at most five maps of this call are alive at once.
    av, bv = a.values, b.values
    mu_b = _windowed_sums(bv, taps)
    mu_b /= weight
    var_b = _windowed_sums(bv * bv, taps)
    var_b /= weight
    mu_b_sq = mu_b * mu_b
    var_b -= mu_b_sq
    var_b += var_a
    var_b += c2
    den = mu_a * mu_a
    den += mu_b_sq
    den += c1
    den *= var_b
    del var_b, mu_b_sq
    cov = _windowed_sums(av * bv, taps)
    cov /= weight
    num = mu_a * mu_b
    cov -= num
    np.multiply(mu_a, 2.0, out=num)
    num *= mu_b
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    num /= den
    if mask is not None:
        return float(np.mean(num[mask.flags]))
    return float(np.mean(num))


def compute_metrics(
    original: Volume3D,
    synthetic: Volume3D,
    ssim_params: SsimParams = SsimParams(),
    peak: float = 1.0,
    mask: RoiMask | None = None,
) -> MetricSet:
    """All four metrics of one pair; MAE and MSE come from one voxel difference."""
    abs_err, err = _absolute_and_squared_error(original, synthetic, mask)
    return MetricSet(
        mae=abs_err,
        mse=err,
        ssim=ssim3d(original, synthetic, ssim_params, mask),
        psnr=_psnr_db(err, peak),
    )


def summarize(values: list[MetricSet]) -> dict[str, tuple[float, float]]:
    """Cohort (mean, sample std) of each metric; std is NaN for one set."""
    if not values:
        raise EmptyInput("summarize over no metric sets")
    return {name: mean_std([getattr(m, name) for m in values]) for name in METRICS}
