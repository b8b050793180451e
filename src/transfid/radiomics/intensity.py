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


def fast_length(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= n: the FFT length
    `scipy.fft.next_fast_len(n, real=True)` picks for a real transform."""
    n = int(n)
    best = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def same_convolution(shape: tuple[int, ...], kernel: np.ndarray):
    """`values -> scipy.signal.fftconvolve(values, kernel, mode="same")` for
    real arrays `values` of `shape`, bit-identical to it but made of
    `numpy.fft` calls, so that extraction loads no scipy. The kernel's
    spectrum is taken here, once, so each call costs one forward and one
    inverse transform. The result is a view into the inverse transform's
    output, which is not copied out.

    Both libraries run pocketfft one axis at a time, so the bits follow
    from the order of the axes and of the scaling, which are scipy's:
    forward, the last transformed axis real-to-complex, then the others in
    increasing order; inverse, the others in increasing order unscaled,
    the last one complex-to-real, then times 1/N, N the product of the FFT
    lengths and 1/N rounded from long double. numpy's own `rfftn` takes
    the axes the other way round, which moves bits. Each transform runs in
    place on a zero-padded buffer and only on the lines the result needs:
    lines of zeros, or lines outside the "same" window once their axis is
    transformed back, are left alone, which keeps each line's bits.
    """
    ndim = len(shape)
    # an axis where either side has length 1 is broadcast in the product, not transformed
    axes = [a for a in range(ndim) if shape[a] != 1 and kernel.shape[a] != 1]
    full = [
        shape[a] + kernel.shape[a] - 1 if a in axes else max(shape[a], kernel.shape[a]) for a in range(ndim)
    ]
    start = [(n - s) // 2 for n, s in zip(full, shape)]
    same = tuple(slice(b, b + s) for b, s in zip(start, shape))
    if not axes:
        return lambda values: (values * kernel)[same]
    length = {a: fast_length(full[a]) for a in axes}
    last = axes[-1]
    scale = float(1 / np.longdouble(math.prod(length.values())))
    # values as wide as the kernel on an untransformed axis, so the product fits their buffer
    wide = tuple(full[a] if a not in axes else shape[a] for a in range(ndim))

    def forward(x: np.ndarray) -> np.ndarray:
        size = [length[a] if a in axes else n for a, n in enumerate(x.shape)]
        size[last] = length[last] // 2 + 1
        out = np.zeros(size, dtype=np.complex128)
        lines = [slice(n) for n in x.shape]
        lines[last] = slice(None)
        np.fft.rfft(x, length[last], axis=last, out=out[tuple(lines)])
        for a in axes[:-1]:
            lines[a] = slice(None)
            view = out[tuple(lines)]
            np.fft.fft(view, axis=a, out=view)
        return out

    spectrum = forward(kernel)

    def convolve(values: np.ndarray) -> np.ndarray:
        product = forward(np.broadcast_to(values, wide))
        product *= spectrum
        lines = [slice(None) if a in axes else same[a] for a in range(ndim)]
        for a in axes[:-1]:
            view = product[tuple(lines)]
            np.fft.ifft(view, axis=a, norm="forward", out=view)
            lines[a] = same[a]
        out = np.fft.irfft(product[tuple(lines)], length[last], axis=last, norm="forward")
        out *= scale
        return out[(slice(None),) * last + (same[last],)]

    return convolve


@functools.lru_cache(maxsize=1)
def _sphere_geometry(dims: tuple[int, int, int], spacing: tuple[float, float, float]):
    """(convolve, counts): `same_convolution` of (dims)-shaped arrays with
    the 1 cm^3 sphere kernel, and, per voxel, how many sphere voxels fall
    inside the (dims) grid, read-only.

    Both depend on the grid only. Every source of a patient is extracted on
    one grid, one after another, so one entry serves the whole patient (and
    every later patient on the same grid), and a worker holds one spectrum
    and one counts array.
    """
    half = [int(math.floor(PEAK_SPHERE_RADIUS_MM / s)) for s in spacing]
    ax = [np.arange(-h, h + 1, dtype=np.float64) * s for h, s in zip(half, spacing)]
    dx, dy, dz = np.meshgrid(*ax, indexing="ij")
    kernel = (dx * dx + dy * dy + dz * dz <= PEAK_SPHERE_RADIUS_MM**2).astype(np.float64)
    convolve = same_convolution(dims, kernel)
    counts = convolve(np.ones(dims)).copy()  # not the transform's padded output
    counts.flags.writeable = False
    return convolve, counts


def local_intensity(v: Volume3D, mask: RoiMask) -> dict[str, float]:
    """local_peak: sphere mean at the brightest ROI voxel (first in x-fastest
    order on ties); global_peak: highest sphere mean over all ROI centers.

    A voxel's sphere mean is taken over the voxels of the 1 cm^3 sphere
    centered on it whose centers fall inside the volume. The sums are
    convolved on the whole grid, whose dims set the FFT size and so the
    values' last bits, and divided out at ROI voxels only.
    """
    mask.check_aligned(v)
    convolve, counts = _sphere_geometry(v.dims, v.spacing)
    sums = convolve(v.values)

    brightest = mask.flags & (v.values == v.values[mask.flags].max())
    center = np.unravel_index(np.argmax(brightest.ravel(order="F")), v.dims, order="F")

    local_peak = float(sums[center] / counts[center])
    global_peak = float((sums[mask.flags] / counts[mask.flags]).max())
    return {"local_peak": local_peak, "global_peak": global_peak}


def basic_distribution_stats(
    values: np.ndarray,
    srt: np.ndarray,
    distinct: np.ndarray,
    inverse: np.ndarray,
) -> dict[str, float]:
    """The 16 order/moment statistics shared by the IS and IH families.

    `srt` is `values` sorted ascending, and `distinct[inverse]` equals
    `values`: the third and fourth powers of the centered values are taken
    once per distinct value and gathered. That is the same array as the
    elementwise powers (libm `pow`, the bulk of the cost on a large ROI), so
    the means keep their bits.

    Skewness, kurtosis, and the coefficient of variation are NaN when the
    variance is zero; the quartile coefficient of dispersion when p25 + p75
    is zero. Skewness and kurtosis are also NaN, each on its own, when its
    powers overflow float64 (inf / inf), as they can on unnormalized
    intensities; the other values keep theirs.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size

    mean = float(np.mean(x))
    centered = x - mean
    var = np.mean(centered**2)  # numpy float64: its powers overflow to inf, not OverflowError
    p10 = nearest_rank_percentile(srt, 10)
    p25 = nearest_rank_percentile(srt, 25)
    p75 = nearest_rank_percentile(srt, 75)
    p90 = nearest_rank_percentile(srt, 90)
    median = float(np.median(srt))

    if var > 0.0:
        # each power array is freed before the next is made
        table = distinct - mean
        m3, m4 = np.mean((table**3)[inverse]), np.mean((table**4)[inverse])
        skewness = float(m3 / var**1.5)
        kurtosis = float(m4 / var**2) - 3.0
    else:
        skewness = kurtosis = math.nan

    cov = math.sqrt(var) / mean if var > 0.0 and mean != 0.0 else math.nan
    qcd = (p75 - p25) / (p75 + p25) if p25 + p75 != 0.0 else math.nan

    robust = x[(x >= p10) & (x <= p90)]
    features = {
        "mean": mean,
        "variance": float(var),
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
    return features


def intensity_statistics(v: Volume3D, mask: RoiMask) -> dict[str, float]:
    """The 18 intensity-based statistics over ROI voxel values; NaN where
    one is undefined (see `basic_distribution_stats`).

    Unnormalized intensities beyond about 1e154 overflow the moments and
    the energy. The values then come out infinite or NaN, which
    `extract_all` flags, so numpy's overflow warnings are silenced here.
    """
    mask.check_aligned(v)
    roi = v.values[mask.flags]
    distinct, inverse, counts = np.unique(roi, return_inverse=True, return_counts=True)
    with np.errstate(over="ignore", invalid="ignore"):
        features = basic_distribution_stats(roi, np.repeat(distinct, counts), distinct, inverse)
        features["energy"] = float(np.sum(roi * roi))
        features["root_mean_square"] = float(np.sqrt(np.mean(roi * roi)))
    return features
