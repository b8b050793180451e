"""Pairwise image-quality metrics over 3D volumes: MAE, MSE, SSIM, PSNR."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .checks import is_int, is_number
from .errors import DimsMismatch, VolumeTooSmall
from .volume import OneSlot, RoiMask, Volume3D, edge_class_planes, edge_class_shape


@dataclass(frozen=True)
class SsimParams:
    """Gaussian-window SSIM constants; the window spans (2*window+1)^3 voxels."""

    window: int = 5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0
    sigma: float = 1.5

    def __post_init__(self):
        """Each message starts with the field at fault, as `config` reports it."""
        if not (is_int(self.window) and self.window >= 1):
            raise ValueError("window must be an int >= 1")
        for name in ("k1", "k2", "dynamic_range", "sigma"):
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number")
            object.__setattr__(self, name, float(value))
        # ssim3d's c1 and c2, and the taps' denominator, must stay in float64
        for name in ("k1", "k2"):
            try:
                square = (getattr(self, name) * self.dynamic_range) ** 2
            except OverflowError:
                square = math.inf
            if square == math.inf:
                raise ValueError(
                    f"{name} must be small enough that ({name} * dynamic_range)^2 is finite in float64"
                )
        if not 2.0 * self.sigma * self.sigma > 0:
            raise ValueError("sigma must be large enough that 2 * sigma^2 is above 0 in float64")


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
    if not 0 < peak < math.inf:
        raise ValueError(f"peak must be a positive finite number, got {peak}")
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


# planes of axis 0 per slab of `_windowed_sums`, chosen by timing 128x128x64
# grids: a slab's buffers then stay in cache through its three passes
SLAB_PLANES = 4


def _correlate(src: np.ndarray, taps: np.ndarray, axis: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = the symmetric `taps` along `axis` of `src`, which holds h = len(taps) // 2
    more entries than `out` on each side of that axis; `tmp` is scratch of out's shape."""
    h = len(taps) // 2
    n = out.shape[axis]
    lead = (slice(None),) * axis

    def shifted(j: int) -> np.ndarray:
        return src[lead + (slice(h + j, h + j + n),)]

    np.multiply(shifted(0), taps[h], out=out)
    for j in range(h, 0, -1):
        np.add(shifted(-j), shifted(j), out=tmp)
        tmp *= taps[h - j]
        out += tmp


def _windowed_sums(arr: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The separable sums of `taps` along axes 0, 1 and 2 of `arr`, zero outside it.

    Every voxel gets the operations of scipy.ndimage.correlate1d(mode="constant",
    cval=0.0) applied along axes 0, 1 and 2 in turn, in the same order, so the
    bits are the same: correlate1d's symmetric kernel writes x[0] * taps[h] and
    then adds (x[-j] + x[+j]) * taps[h - j] for j = h down to 1, where h is
    the window's half-width and cells outside the array read +0.0.

    The passes run through axis 0 a slab of SLAB_PLANES planes at a time. Each
    pass reads a zero-padded buffer that is reused from slab to slab, and the
    last one lays the slab's rows end to end with their pad columns between
    them, so that its shifts are slices of one contiguous array. Its results
    at the pad columns mix neighbouring rows and are dropped. The axis-1 pass
    writes a contiguous slab, copied once into that buffer's interior: written
    there directly, its every output would be a strided view of short rows.
    """
    h = len(taps) // 2
    nz, ny, nx = arr.shape
    pitch = nx + 2 * h
    out = np.empty(arr.shape)
    s = min(SLAB_PLANES, nz)
    deep = np.empty((s + 2 * h, ny, nx))  # a slab's axis-0 source at an end of the grid
    wide = np.zeros((s, ny + 2 * h, nx))  # axis-0 sums, zero rows on both sides
    rows = np.zeros(s * ny * pitch)  # axis-1 sums, zero columns on both sides
    row_sums = np.empty(s * ny * pitch)  # axis-1 sums unpadded, then axis-2 sums at every column
    scratch = np.empty(s * ny * pitch)
    for z0 in range(0, nz, s):
        k = min(s, nz - z0)
        lo, hi = z0 - h, z0 + k + h
        if lo >= 0 and hi <= nz:
            src = arr[lo:hi]
        else:
            part = arr[max(lo, 0) : hi]
            src = deep[: k + 2 * h]
            src.fill(0.0)
            src[max(0, -lo) : max(0, -lo) + len(part)] = part
        tmp = scratch[: k * ny * nx].reshape(k, ny, nx)
        _correlate(src, taps, 0, wide[:k, h : h + ny], tmp)
        size = k * ny * pitch
        flat = rows[:size]
        dense = row_sums[: k * ny * nx].reshape(k, ny, nx)
        _correlate(wide[:k], taps, 1, dense, tmp)
        flat.reshape(k, ny, pitch)[:, :, h : h + nx] = dense
        _correlate(flat, taps, 0, row_sums[: size - 2 * h], scratch[: size - 2 * h])
        out[z0 : z0 + k] = row_sums[:size].reshape(k, ny, pitch)[:, :, :nx]
    return out


@OneSlot
def _window_geometry(dims: tuple[int, int, int], window: int, sigma: float):
    """(taps, weight): the 1-D Gaussian taps, read-only, and `weight(planes)`,
    the summed weight of the in-bounds part of each voxel's window on those
    planes (an index or a slice of axis 0). The weight is `_windowed_sums`
    of ones on a grid of at most (2 window + 1)^3 voxels, gathered by edge
    class (`volume.edge_class_planes`): each voxel gets the operations it
    gets on the whole grid, so every bit of them, and 2 window + 1 planes
    are kept, not a grid. Both depend on the grid only; how long they are
    kept: `volume.OneSlot`."""
    i = np.arange(-window, window + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # a tiny sigma sends off-centre exponents to -inf: taps of 0
        taps = np.exp(-(i * i) / (2.0 * sigma * sigma))
    taps.flags.writeable = False
    half = (window,) * 3
    weight = edge_class_planes(dims, half, _windowed_sums(np.ones(edge_class_shape(dims, half)), taps))
    return taps, weight


@OneSlot
def _original_moments(original: Volume3D, window: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Windowed mean and variance of `original`'s values, read-only."""
    taps, weight = _window_geometry(original.dims, window, sigma)
    values = original.values
    mu = _windowed_sums(values, taps)
    var = _windowed_sums(values * values, taps)
    for z0 in range(0, len(mu), SLAB_PLANES):
        zs = slice(z0, z0 + SLAB_PLANES)
        w = weight(zs)
        mu[zs] /= w
        var[zs] /= w
    var -= mu * mu
    mu.flags.writeable = False
    var.flags.writeable = False
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

    The window weights, as 2 window + 1 edge-class planes, and the moments
    of `a` are kept in one-slot caches (`volume.OneSlot`), so scoring N
    networks against one original costs 2 + 3N windowed sums of the grid,
    and one of (2 window + 1)^3 voxels for the weights, not 6N. Beyond
    those caches a call holds the network's three windowed sums, one
    product map while the last of them is taken, and three slab-sized
    buffers, one the slab's weights gathered from their planes: the map is
    built in place, slab by slab, over the last sum.
    """
    _check_pair(a, b)
    size = 2 * params.window + 1
    if any(d < size for d in a.dims):
        raise VolumeTooSmall(f"dims {a.dims} smaller than the {size}^3 SSIM window")
    if mask is not None:
        mask.check_aligned(a)

    taps, weight = _window_geometry(a.dims, params.window, params.sigma)
    # values a caller has made writeable may change under the same volume
    moments = _original_moments.__wrapped__ if a.values.flags.writeable else _original_moments
    mu_a, var_a = moments(a, params.window, params.sigma)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    av, bv = a.values, b.values
    mu_b = _windowed_sums(bv, taps)
    var_b = _windowed_sums(bv * bv, taps)
    ssim_map = _windowed_sums(av * bv, taps)
    # The map is ((2 mu_a mu_b + c1)(2 cov + c2)) / ((mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)),
    # built a slab of SLAB_PLANES planes at a time, so that a slab's operands
    # stay in cache through its steps. Each factor is built in place, with the
    # same operations in the same order as that expression, and the mean is
    # taken over the whole map, so its pairwise summation is unchanged.
    nz = len(av)
    s = min(SLAB_PLANES, nz)
    sq = np.empty((s,) + av.shape[1:])
    den = np.empty_like(sq)
    for z0 in range(0, nz, s):
        zs = slice(z0, z0 + s)
        k = min(s, nz - z0)
        w, ma, mb, vb, cov = weight(zs), mu_a[zs], mu_b[zs], var_b[zs], ssim_map[zs]
        sq_k, den_k = sq[:k], den[:k]
        mb /= w
        vb /= w
        np.multiply(mb, mb, out=sq_k)
        vb -= sq_k
        vb += var_a[zs]
        vb += c2
        np.multiply(ma, ma, out=den_k)
        den_k += sq_k
        den_k += c1
        den_k *= vb
        cov /= w
        num = sq_k  # mu_b^2 is spent; its buffer takes the numerator
        np.multiply(ma, mb, out=num)
        cov -= num
        np.multiply(ma, 2.0, out=num)
        num *= mb
        num += c1
        cov *= 2.0
        cov += c2
        num *= cov
        np.divide(num, den_k, out=cov)
    if mask is not None:
        return float(np.mean(ssim_map[mask.flags]))
    return float(np.mean(ssim_map))


def compute_metrics(
    original: Volume3D,
    synthetic: Volume3D,
    ssim_params: SsimParams = SsimParams(),
    peak: float = 1.0,
    mask: RoiMask | None = None,
) -> MetricSet:
    """All four metrics of one pair; MAE and MSE come from one voxel difference.

    Unnormalized intensities beyond about 1e77 overflow SSIM's products of
    moments, and beyond about 1e154 the squared error. The metrics then
    come out infinite or NaN, which `analysis.process_patient` refuses by
    name, so numpy's overflow warnings are silenced here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        abs_err, err = _absolute_and_squared_error(original, synthetic, mask)
        return MetricSet(
            mae=abs_err,
            mse=err,
            ssim=ssim3d(original, synthetic, ssim_params, mask),
            psnr=_psnr_db(err, peak),
        )
