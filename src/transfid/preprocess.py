"""Intensity normalization, ROI-centered cropping, and gray-level discretization."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import is_int, is_number
from .errors import CropLosesRoi, InvalidScheme, NonFiniteVoxel
from .volume import DIRECTIONS_13, RoiMask, Volume3D, _adopt, flat_pairs, flat_position_dtype

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
    """Integer gray levels for in-mask voxels; out-of-mask voxels hold level 0.

    `roi_levels` holds the levels of in-mask voxels only, in C order (1D),
    gathered once with the range check, and `level_counts` the in-mask
    voxels of each level 1..ng (int64), tallied once from them; both are
    read-only."""

    dims: tuple[int, int, int]
    levels: np.ndarray = field(repr=False)
    ng: int
    mask: RoiMask
    roi_levels: np.ndarray = field(init=False, repr=False, compare=False)
    level_counts: np.ndarray = field(init=False, repr=False, compare=False)
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = np.array(self.levels, dtype=np.int32)  # one copy, whatever the input dtype
        lv = levels[self.mask.flags]
        if lv.size and (lv.min() < 1 or lv.max() > self.ng):
            raise ValueError("in-mask levels must lie in [1, ng]")
        counts = np.bincount(lv, minlength=self.ng + 1)[1:]
        for array in (levels, lv, counts):
            array.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "roi_levels", lv)
        object.__setattr__(self, "level_counts", counts)

    def pair_positions(self, tolerance: int) -> tuple[np.ndarray, ...]:
        """Read-only arrays, one per direction of DIRECTIONS_13, of the
        ascending flat positions p where voxel p and its neighbor at +offset
        (flat p + s, s = `flat_step`) are both in the mask with levels at
        most `tolerance` apart; built once per tolerance and kept with the
        volume. They are int32 unless the grid has 2**31 cells or more
        (`flat_position_dtype`).

        In-mask levels lie in [1, ng], so a tolerance above ng selects what
        ng does and is taken as ng."""
        if tolerance < 0:
            raise ValueError(f"pair tolerance must be non-negative, got {tolerance}")
        tolerance = min(tolerance, self.ng)
        if tolerance not in self._pairs:
            self._pairs[tolerance] = tuple(self._pair_list(off, tolerance) for off in DIRECTIONS_13)
        return self._pairs[tolerance]

    def _pair_list(self, offset: tuple[int, int, int], tolerance: int) -> np.ndarray:
        """Each voxel compared with its neighbor on flat slices (`flat_pairs`),
        in one transient grid whose True positions are kept. At tolerance 0
        the rule is a == b, which needs no int32 difference array."""
        levels = self.levels.reshape(-1)
        flags = self.mask.flags.reshape(-1)

        def close(step: int) -> np.ndarray:
            if tolerance == 0:
                near = levels[:-step] == levels[step:]
            else:
                near = np.abs(levels[:-step] - levels[step:]) <= tolerance
            near &= flags[:-step]
            near &= flags[step:]
            return near

        grid = flat_pairs(self.dims, offset, close)
        positions = np.flatnonzero(grid).astype(flat_position_dtype(self.dims))
        positions.flags.writeable = False
        return positions


def min_max_normalize(v: Volume3D) -> Volume3D:
    """Affinely map the whole volume onto [0, 1]; constant volumes map to
    zeros, and a range wider than float64 holds is refused."""
    lo = float(v.values.min())
    hi = float(v.values.max())
    if hi == lo:
        return _adopt(v.dims, v.spacing, np.zeros(v.dims))
    if not math.isfinite(hi - lo):
        raise NonFiniteVoxel(f"intensity range [{lo:g}, {hi:g}] overflows float64: max - min is inf")
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
    # each axis's window holds the centroid, which lies in the grid, so it overlaps the grid
    starts = [c - t // 2 for c, t in zip(center, target)]
    src = tuple(slice(max(s, 0), min(s + t, n)) for s, t, n in zip(starts, target, v.dims))
    dst = tuple(slice(w.start - s, w.stop - s) for w, s in zip(src, starts))

    out_vals = np.zeros(target)
    out_flags = np.zeros(target, dtype=bool)
    out_vals[dst] = v.values[src]
    out_flags[dst] = mask.flags[src]
    if not out_flags.any():
        raise CropLosesRoi(f"crop to {target} at centroid {center} removed the whole ROI")
    return _adopt(target, v.spacing, out_vals), RoiMask(target, out_flags)


def discretize(v: Volume3D, mask: RoiMask, scheme: DiscretizationScheme) -> DiscretizedVolume:
    """Map in-mask intensities to integer gray levels 1..Ng."""
    mask.check_aligned(v)
    roi = v.values[mask.flags]

    if scheme.mode == FBN:
        lo = float(roi.min())
        hi = float(roi.max())
        if hi == lo:
            lv = 1
            ng = 1
        else:
            ng = scheme.bins
            if not math.isfinite(ng * (hi - lo)):  # bounds ng * (roi - lo) below
                raise InvalidScheme(
                    f"{scheme.describe()} overflows float64 on the ROI range [{lo:g}, {hi:g}]: "
                    "bins * (max - min) is inf"
                )
            lv = np.floor(ng * (roi - lo) / (hi - lo)).astype(np.int64) + 1
            np.minimum(lv, ng, out=lv)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the range check
            bins = np.floor((roi - scheme.origin) / scheme.width)
        # beyond 2**53 a float bin number is no longer an exact integer (and NaN fails too)
        if not (-(2.0**53) <= bins.min() and bins.max() <= 2.0**53):
            raise InvalidScheme(f"{scheme.describe()} puts ROI intensities outside the bin range +-2**53")
        lv = bins.astype(np.int64) + 1
        lv += 1 - lv.min()
        ng = int(lv.max())
    if ng > MAX_LEVELS:
        raise InvalidScheme(
            f"{scheme.describe()} gives {ng} gray levels, more than the {MAX_LEVELS} supported"
        )
    levels = np.zeros(v.dims, dtype=np.int32)
    levels[mask.flags] = lv
    return DiscretizedVolume(v.dims, levels, ng=ng, mask=mask)
