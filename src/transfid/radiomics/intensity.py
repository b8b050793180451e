"""Local-intensity and intensity-statistics features on continuous voxel values."""
from __future__ import annotations

import functools
import math

import numpy as np

from ..volume import RoiMask, Volume3D

# radius of a 1 cm^3 sphere, in mm
PEAK_SPHERE_RADIUS_MM = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0) * 10.0


def nearest_rank_percentile(sorted_values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile on an ascending-sorted multiset."""
    n = sorted_values.size
    idx = max(0, math.ceil(p / 100.0 * n) - 1)
    return float(sorted_values[min(idx, n - 1)])


def _convolve_same(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """`scipy.signal.fftconvolve(values, kernel, mode="same")` for real arrays
    of equal rank, made of the same `scipy.fft` calls and so bit-identical.

    Importing scipy.signal takes 0.6-1.1 s and scipy.fft about 0.2 s, so
    scipy.fft is imported here, on the first local-intensity call, and no
    command pays for it at start-up.
    """
    from scipy import fft

    s1, s2 = values.shape, kernel.shape
    # an axis where either side has length 1 is broadcast in the product, not transformed
    axes = [a for a in range(values.ndim) if s1[a] != 1 and s2[a] != 1]
    full = [s1[a] + s2[a] - 1 if a in axes else max(s1[a], s2[a]) for a in range(values.ndim)]
    if axes:
        fshape = [fft.next_fast_len(full[a], True) for a in axes]
        product = fft.rfftn(values, fshape, axes=axes) * fft.rfftn(kernel, fshape, axes=axes)
        out = fft.irfftn(product, fshape, axes=axes)[tuple(slice(n) for n in full)]
    else:
        out = values * kernel
    start = [(n - s) // 2 for n, s in zip(out.shape, s1)]
    return out[tuple(slice(b, b + s) for b, s in zip(start, s1))].copy()


@functools.lru_cache(maxsize=4)
def _sphere_geometry(
    dims: tuple[int, int, int], spacing: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """(kernel, counts): the 1 cm^3 sphere kernel and, per voxel, how many
    sphere voxels fall inside the volume. Both depend on the grid only, so
    they are computed once per (dims, spacing) and returned read-only."""
    half = [int(math.floor(PEAK_SPHERE_RADIUS_MM / s)) for s in spacing]
    ax = [np.arange(-h, h + 1, dtype=np.float64) * s for h, s in zip(half, spacing)]
    dx, dy, dz = np.meshgrid(*ax, indexing="ij")
    kernel = (dx * dx + dy * dy + dz * dz <= PEAK_SPHERE_RADIUS_MM**2).astype(np.float64)
    counts = _convolve_same(np.ones(dims), kernel)
    kernel.flags.writeable = False
    counts.flags.writeable = False
    return kernel, counts


def sphere_mean_map(v: Volume3D) -> np.ndarray:
    """Mean intensity over the 1 cm^3 sphere centered at each voxel.

    The sphere is intersected with the volume; means are taken over the
    voxels whose centers fall within the radius.
    """
    kernel, counts = _sphere_geometry(v.dims, v.spacing)
    sums = _convolve_same(v.values, kernel)
    return sums / counts


def local_intensity(v: Volume3D, mask: RoiMask) -> dict[str, float]:
    """local_peak: sphere mean at the brightest ROI voxel (first in flat
    order on ties); global_peak: highest sphere mean over all ROI centers."""
    mask.check_aligned(v)
    mean_map = sphere_mean_map(v)

    roi_vals = np.where(mask.flags, v.values, -np.inf)
    flat = roi_vals.ravel(order="F")
    center_flat = int(np.argmax(flat))
    nx, ny, _ = v.dims
    cx = center_flat % nx
    cy = (center_flat // nx) % ny
    cz = center_flat // (nx * ny)

    local_peak = float(mean_map[cx, cy, cz])
    global_peak = float(mean_map[mask.flags].max())
    return {"local_peak": local_peak, "global_peak": global_peak}


def sorted_with_inverse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted x, distinct values, inverse) with x == distinct[inverse]."""
    srt = np.sort(x)
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    inverse = np.empty(x.size, dtype=np.intp)
    # x[order] equals srt value for value, so srt's group numbers carry over
    inverse[np.argsort(x)] = np.cumsum(first) - 1
    return srt, srt[first], inverse


def basic_distribution_stats(
    values: np.ndarray,
    srt: np.ndarray,
    distinct: np.ndarray,
    inverse: np.ndarray,
) -> tuple[dict[str, float], set[str]]:
    """The 16 order/moment statistics shared by the IS and IH families.

    `srt` is `values` sorted ascending, and `distinct[inverse]` equals
    `values`: the third and fourth powers of the centered values are taken
    once per distinct value and gathered. That is the same array as the
    elementwise powers (libm `pow`, the bulk of the cost on a large ROI), so
    the means keep their bits.

    Returns (features, flagged names). Skewness, kurtosis, and the
    coefficient of variation are NaN-flagged when the variance is zero;
    the quartile coefficient of dispersion when p25 + p75 is zero.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    flagged: set[str] = set()

    mean = float(np.mean(x))
    centered = x - mean
    var = float(np.mean(centered**2))
    p10 = nearest_rank_percentile(srt, 10)
    p25 = nearest_rank_percentile(srt, 25)
    p75 = nearest_rank_percentile(srt, 75)
    p90 = nearest_rank_percentile(srt, 90)
    median = float(np.median(srt))

    if var > 0.0:
        # each power array is freed before the next is made
        table = distinct - mean
        m3, m4 = np.mean((table**3)[inverse]), np.mean((table**4)[inverse])
        skewness = float(m3) / var**1.5
        kurtosis = float(m4) / var**2 - 3.0
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
    assert n > 0
    return features, flagged


def intensity_statistics(v: Volume3D, mask: RoiMask) -> tuple[dict[str, float], set[str]]:
    """The 18 intensity-based statistics over ROI voxel values."""
    mask.check_aligned(v)
    roi = v.values[mask.flags]
    features, flagged = basic_distribution_stats(roi, *sorted_with_inverse(roi))
    features["energy"] = float(np.sum(roi * roi))
    features["root_mean_square"] = float(np.sqrt(np.mean(roi * roi)))
    return features, flagged
