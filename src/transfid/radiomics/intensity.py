"""Local-intensity and intensity-statistics features on continuous voxel values."""
from __future__ import annotations

import math

import numpy as np

from ..volume import OneSlot, RoiMask, Volume3D, edge_class_planes, edge_class_shape

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


# `same_convolution` keeps a kernel spectrum of at most this many bytes
# whole, and rebuilds a larger one on each call, in slabs of at most this
# many bytes: 1 MiB holds LI's spectrum on grids up to about 40^3 voxels.
# LI gathers its in-grid counts in slabs of at most this many bytes too.
SLAB_BYTES = 1 << 20


def _slabs(shape: list[int], axis: int, most: int):
    """Index tuples that cover an array of `shape` in blocks of whole lines
    along `axis`, at most `most` lines each (one at the least). The other
    axes of length > 1, last first, are taken whole while the lines fit;
    the next is cut into steps, and the ones before it are taken one index
    at a time. Length-1 axes are always whole, so the blocks broadcast."""
    index = [slice(None)] * len(shape)
    lines = 1
    other = [a for a in reversed(range(len(shape))) if a != axis and shape[a] > 1]
    for k, a in enumerate(other):
        if lines * shape[a] > most:
            step = max(1, most // lines)
            outer = other[k + 1 :]
            for point in np.ndindex(*(shape[b] for b in outer)):
                for b, i in zip(outer, point):
                    index[b] = slice(i, i + 1)
                for i in range(0, shape[a], step):
                    index[a] = slice(i, i + step)
                    yield tuple(index)
            return
        lines *= shape[a]
    yield tuple(index)


def same_convolution(shape: tuple[int, ...], kernel: np.ndarray):
    """`(values, window=None) -> scipy.signal.fftconvolve(values, kernel,
    mode="same")[window]` for real arrays `values` of `shape`, bit-identical
    to it but made of `numpy.fft` calls, so that extraction loads no scipy.
    `window` is one step-1 slice per axis of `shape`, as `RoiMask.box`
    gives; None is the whole array. The result is a view into the inverse
    transform's output, which is not copied out.

    Both libraries run pocketfft one axis at a time, so the bits follow
    from the order of the axes and of the scaling, which are scipy's:
    forward, the last transformed axis real-to-complex, then the others in
    increasing order; inverse, the others in increasing order unscaled,
    the last one complex-to-real, then times 1/N, N the product of the FFT
    lengths and 1/N rounded from long double. numpy's own `rfftn` takes
    the axes the other way round, which moves bits. Each transform runs in
    place on a zero-padded buffer and only on the lines the result needs:
    lines of zeros, or lines outside the window once their axis is
    transformed back, are left alone, which keeps each line's bits. So the
    forward transform and the first axis's inverse span the whole padded
    grid, and each later inverse, and the scaling, run on the lines that
    cross the window in the axes already transformed back.

    The kernel is transformed here along every axis but the forward
    transform's last, on which it keeps its own extent: 1.2 MiB for LI's
    13-voxel sphere on a 128x128x64 grid, against 13.0 MiB for its whole
    spectrum. A whole spectrum of at most SLAB_BYTES is finished here and
    kept, so a call costs one forward and one inverse transform. A larger
    one is finished on each call, a slab of at most SLAB_BYTES at a time,
    each slab multiplied into the product and freed: one more pass of the
    kernel's last transform per call. Its lines are the whole spectrum's
    lines, so the product keeps every bit.
    """
    ndim = len(shape)
    # on an axis where the values have length 1, "same" keeps the kernel's middle plane only
    kernel = kernel[tuple(slice((k - 1) // 2, (k + 1) // 2) if n == 1 else slice(None)
                          for n, k in zip(shape, kernel.shape))]
    # an axis where either side has length 1 is broadcast in the product, not transformed
    axes = [a for a in range(ndim) if shape[a] != 1 and kernel.shape[a] != 1]
    start = [(k - 1) // 2 for k in kernel.shape]

    def result_lines(window) -> tuple[slice, ...]:
        """The window's lines in the coordinates of the "full" result."""
        if window is None:
            window = (slice(None),) * ndim
        spans = [range(n)[w] for n, w in zip(shape, window)]
        return tuple(slice(b + r.start, b + r.stop) for b, r in zip(start, spans))

    if not axes:
        return lambda values, window=None: (values * kernel)[result_lines(window)]
    length = {a: fast_length(shape[a] + kernel.shape[a] - 1) for a in axes}
    last = axes[-1]
    scale = float(1 / np.longdouble(math.prod(length.values())))
    # the forward transform's axes in order; the kernel's stops one short
    order = [last, *axes[:-1]]
    short = order[-1]

    def forward(x: np.ndarray, order: list[int]) -> np.ndarray:
        """`x` transformed along `order`'s axes, `order[0]` being `last`."""
        size = [length[a] if a in order else n for a, n in enumerate(x.shape)]
        size[last] = length[last] // 2 + 1
        out = np.zeros(size, dtype=np.complex128)
        lines = [slice(n) for n in x.shape]
        lines[last] = slice(None)
        np.fft.rfft(x, length[last], axis=last, out=out[tuple(lines)])
        for a in order[1:]:
            lines[a] = slice(None)
            view = out[tuple(lines)]
            np.fft.fft(view, axis=a, out=view)
        return out

    if short == last:  # one transformed axis: the kernel is finished by its only transform
        partial, finish = kernel, np.fft.rfft
    else:
        partial, finish = forward(kernel, order[:-1]), np.fft.fft
    spectrum_shape = list(partial.shape)
    spectrum_shape[short] = length[short] // 2 + 1 if short == last else length[short]
    slabs = list(_slabs(spectrum_shape, short, SLAB_BYTES // (16 * spectrum_shape[short])))
    spectrum = finish(partial, length[short], axis=short) if len(slabs) == 1 else None

    def convolve(values: np.ndarray, window: tuple[slice, ...] | None = None) -> np.ndarray:
        keep = result_lines(window)
        product = forward(values, order)
        if spectrum is not None:
            product *= spectrum
        else:
            for index in slabs:
                product[index] *= finish(partial[index], length[short], axis=short)
        lines = [slice(None) if a in axes else keep[a] for a in range(ndim)]
        for a in axes[:-1]:
            view = product[tuple(lines)]
            np.fft.ifft(view, axis=a, norm="forward", out=view)
            lines[a] = keep[a]
        out = np.fft.irfft(product[tuple(lines)], length[last], axis=last, norm="forward")
        out *= scale
        return out[(slice(None),) * last + (keep[last],)]

    return convolve


def _half_widths(spacing: tuple[float, float, float]) -> list[int]:
    """The 1 cm^3 sphere's reach along each axis, in voxels."""
    return [int(math.floor(PEAK_SPHERE_RADIUS_MM / s)) for s in spacing]


@OneSlot
def _sphere_geometry(shape: tuple[int, int, int], spacing: tuple[float, float, float]):
    """(convolve, counts): `same_convolution` of (shape)-shaped arrays with
    the 1 cm^3 sphere kernel at `spacing`, and the sphere's in-grid counts
    on the (shape) grid's `volume.edge_class_shape`, exact in float64 (the
    kernel summed one axis at a time over each axis's 0/1 reach); their
    size and how long they are kept: `volume.OneSlot`."""
    half = _half_widths(spacing)
    ax = [np.arange(-h, h + 1, dtype=np.float64) * s for h, s in zip(half, spacing)]
    dx, dy, dz = np.meshgrid(*ax, indexing="ij")
    kernel = (dx * dx + dy * dy + dz * dz <= PEAK_SPHERE_RADIUS_MM**2).astype(np.float64)
    r0, r1, r2 = [((at >= 0) & (at < n)).astype(np.float64) for n, h in zip(edge_class_shape(shape, half), half)
                  for at in [np.arange(n)[:, None] + np.arange(-h, h + 1)]]
    counts = r1 @ (r0 @ kernel.reshape(len(r0[0]), -1)).reshape(-1, *kernel.shape[1:]) @ r2.T
    return same_convolution(shape, kernel), counts


def local_intensity(v: Volume3D, mask: RoiMask) -> dict[str, float]:
    """local_peak: sphere mean at the brightest ROI voxel (first in x-fastest
    order on ties); global_peak: highest sphere mean over all ROI centers.

    A voxel's sphere mean is taken over the voxels of the 1 cm^3 sphere
    centered on it whose centers fall inside the volume. Sums and counts
    are taken on the ROI's box (`RoiMask.box`) widened by the sphere's
    reach and clipped at the grid: that sub-grid holds every voxel a
    sphere centred in the box reads, and ends where the grid does or past
    them, so a box voxel's count there is its in-grid count. Its shape
    sets the FFT size and so the sums' last bits; the inverse transform
    stops at the box's lines. The counts are exact integers, gathered by
    edge class (`volume.edge_class_planes`) at most SLAB_BYTES at a time,
    and the means are divided out at ROI voxels only. The kernel's
    transform and the counts' table are kept per sub-grid shape
    (`_sphere_geometry`), which every source of a patient shares.
    """
    mask.check_aligned(v)
    box, box_mask = mask.box
    half = _half_widths(v.spacing)
    around = tuple(slice(max(b.start - h, 0), min(b.stop + h, n)) for b, h, n in zip(box, half, v.dims))
    inner = tuple(slice(b.start - a.start, b.stop - a.start) for a, b in zip(around, box))
    shape = tuple(a.stop - a.start for a in around)
    convolve, counts = _sphere_geometry(shape, v.spacing)
    counts = edge_class_planes(shape, half, counts, inner)
    # unnormalized intensities can overflow the sums, which `extract_all` flags
    with np.errstate(over="ignore", invalid="ignore"):
        sums = convolve(v.values[around], inner)
    values = v.values[box]
    flags = box_mask.flags

    brightest = flags & (values == values[flags].max())
    center = np.unravel_index(np.argmax(brightest.ravel(order="F")), box_mask.dims, order="F")

    local_peak = float(sums[center] / counts(center[0])[center[1:]])
    step = max(1, SLAB_BYTES // (8 * flags[0].size))  # planes of counts gathered at a time
    peaks = [np.max(sums[i : i + step][f] / counts(slice(i, i + step))[f])
             for i in range(0, len(flags), step) if (f := flags[i : i + step]).any()]
    global_peak = float(np.max(peaks))
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
