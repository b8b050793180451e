"""Intensity normalization, ROI-centered cropping, and gray-level discretization."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import is_int, is_number
from .errors import CropLosesRoi, InvalidScheme
from .volume import DIRECTIONS_13, RoiMask, Volume3D, _adopt, shift_slices

FBN = "FBN"
FBS = "FBS"

# Upper bound on gray levels: GLCM alone holds 13 * ng^2 float64 values
# (about 109 MB at 1024), so larger counts are refused before allocation.
MAX_LEVELS = 1024


@dataclass(frozen=True)
class DiscretizationScheme:
    """Fixed-bin-number (bins = Ng) or fixed-bin-size (width, origin) binning."""

    mode: str
    bins: int = 32
    width: float = 0.0
    origin: float = 0.0

    def __post_init__(self):
        """Each message starts with the field at fault, as `config` reports it."""
        if self.mode == FBN:
            if not (is_int(self.bins) and 2 <= self.bins <= MAX_LEVELS):
                raise InvalidScheme(f"bins must be an int in [2, {MAX_LEVELS}]")
        elif self.mode == FBS:
            if not (is_number(self.width) and self.width > 0):
                raise InvalidScheme("width must be a positive finite number for FBS")
            if not is_number(self.origin):
                raise InvalidScheme("origin must be a finite number")
            object.__setattr__(self, "width", float(self.width))
            object.__setattr__(self, "origin", float(self.origin))
        else:
            raise InvalidScheme("mode must be 'FBN' or 'FBS'")

    def describe(self) -> str:
        if self.mode == FBN:
            return f"FBN(bins={self.bins})"
        return f"FBS(width={self.width!r}, origin={self.origin!r})"


@dataclass(frozen=True)
class DiscretizedVolume:
    """Integer gray levels for in-mask voxels; out-of-mask voxels hold level 0."""

    dims: tuple[int, int, int]
    levels: np.ndarray = field(repr=False)
    ng: int
    mask: RoiMask
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = np.array(self.levels, dtype=np.int32)  # one copy, whatever the input dtype
        lv = levels[self.mask.flags]
        if lv.size and (lv.min() < 1 or lv.max() > self.ng):
            raise ValueError("in-mask levels must lie in [1, ng]")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)

    @property
    def roi_levels(self) -> np.ndarray:
        """Levels of in-mask voxels only (1D)."""
        return self.levels[self.mask.flags]

    def pair_flags(self, tolerance: int) -> tuple[np.ndarray, ...]:
        """Read-only grids, one per direction of DIRECTIONS_13, True where a
        voxel and its neighbor at +offset are both in the mask with levels at
        most `tolerance` apart; built once per tolerance and kept with the volume.

        In-mask levels lie in [1, ng], so a tolerance above ng selects what
        ng does and is taken as ng."""
        if tolerance < 0:
            raise ValueError(f"pair tolerance must be non-negative, got {tolerance}")
        tolerance = min(tolerance, self.ng)
        if tolerance not in self._pairs:
            self._pairs[tolerance] = tuple(self._pair_grid(off, tolerance) for off in DIRECTIONS_13)
        return self._pairs[tolerance]

    def _pair_grid(self, offset: tuple[int, int, int], tolerance: int) -> np.ndarray:
        """|a - b| <= tolerance as one unsigned comparison: a - b + tolerance
        lies in [0, 2 * tolerance] exactly then, and wraps past it below."""
        src, dst = shift_slices(self.dims, offset)
        grid = np.zeros(self.dims, dtype=bool)
        gap = self.levels[src] - self.levels[dst]
        gap += tolerance
        grid[src] = (gap.view(np.uint32) <= 2 * tolerance) & self.mask.flags[src] & self.mask.flags[dst]
        grid.flags.writeable = False
        return grid


def min_max_normalize(v: Volume3D) -> Volume3D:
    """Affinely map the whole volume onto [0, 1]; constant volumes map to zeros."""
    lo = float(v.values.min())
    hi = float(v.values.max())
    if hi == lo:
        return _adopt(v.dims, v.spacing, np.zeros(v.dims))
    out = v.values - lo
    out /= hi - lo
    return _adopt(v.dims, v.spacing, out)


def crop_centered(
    v: Volume3D, mask: RoiMask, target: tuple[int, int, int]
) -> tuple[Volume3D, RoiMask]:
    """Crop volume and mask to `target` voxels around the mask centroid.

    The window along each axis starts at centroid - target//2; regions
    falling outside the source grid are zero-filled (mask false there).
    """
    mask.check_aligned(v)
    target = tuple(int(t) for t in target)
    if any(t <= 0 for t in target):
        raise ValueError(f"crop target must be positive, got {target}")

    center = mask.centroid
    starts = [c - t // 2 for c, t in zip(center, target)]

    out_vals = np.zeros(target)
    out_flags = np.zeros(target, dtype=bool)
    src_lo = [max(0, s) for s in starts]
    src_hi = [min(d, s + t) for d, s, t in zip(v.dims, starts, target)]
    if all(lo < hi for lo, hi in zip(src_lo, src_hi)):
        dst_lo = [lo - s for lo, s in zip(src_lo, starts)]
        dst_hi = [hi - s for hi, s in zip(src_hi, starts)]
        src = tuple(slice(lo, hi) for lo, hi in zip(src_lo, src_hi))
        dst = tuple(slice(lo, hi) for lo, hi in zip(dst_lo, dst_hi))
        out_vals[dst] = v.values[src]
        out_flags[dst] = mask.flags[src]
    if not out_flags.any():
        raise CropLosesRoi(f"crop to {target} at centroid {center} removed the whole ROI")
    return _adopt(target, v.spacing, out_vals), RoiMask(target, out_flags)


def discretize(v: Volume3D, mask: RoiMask, scheme: DiscretizationScheme) -> DiscretizedVolume:
    """Map in-mask intensities to integer gray levels 1..Ng."""
    mask.check_aligned(v)
    roi = v.values[mask.flags]
    levels = np.zeros(v.dims, dtype=np.int64)

    if scheme.mode == FBN:
        lo = float(roi.min())
        hi = float(roi.max())
        if hi == lo:
            levels[mask.flags] = 1
            ng = 1
        else:
            ng = scheme.bins
            lv = np.floor(ng * (roi - lo) / (hi - lo)).astype(np.int64) + 1
            np.minimum(lv, ng, out=lv)
            levels[mask.flags] = lv
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the range check
            bins = np.floor((roi - scheme.origin) / scheme.width)
        # beyond 2**53 a float bin number is no longer an exact integer (and NaN fails too)
        if not (-(2.0**53) <= bins.min() and bins.max() <= 2.0**53):
            raise InvalidScheme(f"{scheme.describe()} puts ROI intensities outside the bin range +-2**53")
        raw = bins.astype(np.int64) + 1
        raw += 1 - raw.min()
        levels[mask.flags] = raw
        ng = int(raw.max())
    if ng > MAX_LEVELS:
        raise InvalidScheme(
            f"{scheme.describe()} gives {ng} gray levels, more than the {MAX_LEVELS} supported"
        )
    return DiscretizedVolume(v.dims, levels, ng=ng, mask=mask)
