"""Canonical in-memory representation of 3D volumes and ROI masks.

Voxel values live in an (nx, ny, nz) float64 array. The flat, on-disk
ordering is x-fastest (index = x + nx*(y + ny*z)), which corresponds to
Fortran-order raveling of the array.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimsMismatch, EmptyMask, NonFiniteVoxel


def _shaped(array: np.ndarray, dims: tuple[int, int, int], error: type, noun: str) -> np.ndarray:
    """`array` if it is shaped `dims`, else the same cells read in x-fastest
    order; an array of any other size raises `error`, naming `noun`."""
    if array.shape == dims:
        return array
    if array.size != math.prod(dims):
        raise error(f"{noun} count {array.size} does not match dims {dims}")
    return array.reshape(dims, order="F")


@dataclass(frozen=True, eq=False)
class Volume3D:
    """A 3D scalar field with voxel counts and physical spacing in mm."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._settle(own=False)

    def _settle(self, own: bool) -> None:
        """Check the fields and freeze them. The values are copied into a
        C-ordered array unless `own` says the caller handed over a fresh
        array that nothing else holds."""
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive ints, got {self.dims}")
        if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
            raise ValueError(f"spacing must be three positive finite reals, got {self.spacing}")
        values = _shaped(np.asarray(self.values, dtype=np.float64), dims, ValueError, "value")
        if not np.all(np.isfinite(values)):
            raise NonFiniteVoxel("volume contains NaN or infinite values")
        values = np.ascontiguousarray(values) if own else values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", values)

    @property
    def flat(self) -> np.ndarray:
        """Values in x-fastest flat order."""
        return self.values.ravel(order="F")

    def with_values(self, values: np.ndarray) -> "Volume3D":
        """New volume on the same grid with different values."""
        return Volume3D(self.dims, self.spacing, values)


def _adopt(dims, spacing, values: np.ndarray) -> Volume3D:
    """A Volume3D that keeps `values` without the defensive copy.

    Only for an array the caller has just created and never touches again:
    the volume makes it read-only and shares it.
    """
    volume = object.__new__(Volume3D)
    object.__setattr__(volume, "dims", dims)
    object.__setattr__(volume, "spacing", spacing)
    object.__setattr__(volume, "values", values)
    volume._settle(own=True)
    return volume


@dataclass(frozen=True, eq=False)
class RoiMask:
    """Boolean region of interest aligned to a Volume3D grid."""

    dims: tuple[int, int, int]
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        flags = np.asarray(self.flags)
        if flags.dtype != np.bool_:
            flags = flags != 0
        flags = _shaped(flags, dims, DimsMismatch, "mask flag")
        if not flags.any():
            raise EmptyMask("mask selects no voxels")
        flags = flags.copy()
        flags.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "flags", flags)

    @cached_property
    def voxel_count(self) -> int:
        """Voxels in the ROI, counted once per mask (the flags are frozen)."""
        return int(np.count_nonzero(self.flags))

    @cached_property
    def centroid(self) -> tuple[int, int, int]:
        """Integer centroid of in-mask voxels, rounded half-up per axis; found
        once per mask, which every source of a patient is cropped around."""
        return tuple(math.floor(float(np.mean(axis)) + 0.5) for axis in np.nonzero(self.flags))

    @cached_property
    def box(self) -> tuple[tuple[slice, slice, slice], "RoiMask"]:
        """(slices, mask): the ROI's bounding box widened by one voxel per
        side and clipped at the grid, and this mask cropped to it.

        Every 26-neighbour of an ROI voxel lies in the box, and C-order
        cropping keeps the ROI voxels in their order, so texture counted on
        the cropped mask is texture counted on this one. Found once per
        mask, which every source of a patient is extracted on; a box that
        is the whole grid gives this mask itself.
        """
        slices = []
        for axis, n in enumerate(self.dims):
            hit = np.flatnonzero(self.flags.any(axis=tuple(a for a in range(3) if a != axis)))
            slices.append(slice(max(int(hit[0]) - 1, 0), min(int(hit[-1]) + 2, n)))
        box = tuple(slices)
        dims = tuple(s.stop - s.start for s in box)
        return box, self if dims == self.dims else RoiMask(dims, self.flags[box])

    @cached_property
    def border_distance(self) -> np.ndarray:
        """`roi_border_distance` of each ROI voxel in C order, in the
        smallest unsigned dtype that holds it; built once per mask."""
        return roi_border_distance(self.flags)

    @cached_property
    def neighbor_counts(self) -> np.ndarray:
        """In-mask 26-neighbours of each ROI voxel in C order (uint8: at
        most 26); built once per mask."""
        return neighbor_sum(self.flags.astype(np.uint8))[self.flags]

    def check_aligned(self, volume: Volume3D) -> None:
        if self.dims != volume.dims:
            raise DimsMismatch(f"mask dims {self.dims} != volume dims {volume.dims}")


def roi_border_distance(flags: np.ndarray) -> np.ndarray:
    """City-block distance from each ROI voxel, in C order, to the nearest
    voxel outside the ROI, counting the grid border as outside (minimum 1).

    The city-block metric is separable: a forward and a backward min-plus
    pass along each axis in turn, d[k] = min(d[k], d[k -/+ 1] + 1) on
    int32, give exactly the values of scipy's
    `distance_transform_cdt(metric="taxicab")` on the padded mask.
    """
    dist = np.pad(flags, 1).astype(np.int32)
    dist *= sum(dist.shape)  # farther than any voxel of the padded grid
    for axis in range(3):
        planes = np.moveaxis(dist, axis, 0)
        for k in range(1, len(planes)):
            np.minimum(planes[k], planes[k - 1] + 1, out=planes[k])
        for k in range(len(planes) - 2, -1, -1):
            np.minimum(planes[k], planes[k + 1] + 1, out=planes[k])
    dist = dist[1:-1, 1:-1, 1:-1][flags]
    return dist.astype(np.min_scalar_type(dist.max()))


def neighbor_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the in-bounds 26-neighborhood of each voxel (integer input
    stays exact): a separable 3x3x3 box sum minus the voxel itself."""
    box = a
    for axis in range(3):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        wider = box.copy()
        wider[tail] += box[head]
        wider[head] += box[tail]
        box = wider
    return box - a


def edge_class_shape(dims, half) -> tuple[int, ...]:
    """The grid on which `edge_class_planes` takes a quantity's table:
    min(n, 2h + 1) voxels along each axis of n voxels and half width h."""
    return tuple(min(n, 2 * h + 1) for n, h in zip(dims, half))


def edge_class_planes(dims, half, table, window=None):
    """`at(planes)`: planes (an index or a slice of axis 0) of `window` of
    a (dims) grid's values of a quantity that depends on a voxel only
    through its distances to the grid's faces, each clipped at that axis's
    `half` width, as a window's in-grid weight or count does. `window` is
    step-1 slices of `dims`, as `RoiMask.box` gives; None is the whole grid.

    Along an axis of n voxels, voxel i has the clipped distances of voxel
    min(i, h) + max(i - max(n - 1 - h, h), 0) of an axis of min(n, 2h + 1)
    voxels, on which every pair of clipped distances occurs once: i itself
    near either face, h between them. `table` is the quantity on a grid of
    `edge_class_shape(dims, half)`, taken with the same operations per
    voxel as on the (dims) grid, so every value keeps its bits. It is kept
    as one plane per class of axis 0, across the window along axes 1 and
    2: at most 2h + 1 planes, read-only, where the quantity itself would
    take the window's. `at` gathers the planes asked for.
    """
    window = window or (slice(None),) * len(dims)
    classes = []
    for n, h, w in zip(dims, half, window):
        i = np.arange(n)[w]
        classes.append(np.minimum(i, h) + np.maximum(i - max(n - 1 - h, h), 0))
    rows, across, down = classes
    planes = table[:, across][:, :, down]
    planes.flags.writeable = False
    return lambda index: planes[rows[index]]


# The 13 unit offsets that reach each unordered pair of 26-neighbors once.
DIRECTIONS_13: tuple[tuple[int, int, int], ...] = tuple(
    off for off in itertools.product((-1, 0, 1), repeat=3) if off > (0, 0, 0)
)


def flat_step(dims: tuple[int, int, int], offset: tuple[int, int, int]) -> int:
    """C-order flat distance from a voxel to its neighbor at +offset, at
    least 1, so that the slices [:-s] and [s:] are always the pair slices.

    It is that neighbor's flat position only where the neighbor lies in the
    grid; `flat_pairs` says where that holds. The distance is 0 or less only
    across a size-1 axis, where no voxel has a neighbor at +offset."""
    _, ny, nz = dims
    return max((offset[0] * ny + offset[1]) * nz + offset[2], 1)


def flat_position_dtype(dims: tuple[int, int, int]) -> type:
    """int32 if every flat position of a `dims` grid fits it (< 2**31 cells), else int64."""
    return np.int32 if math.prod(dims) < 2**31 else np.int64


def flat_pairs(dims: tuple[int, int, int], offset: tuple[int, int, int], test) -> np.ndarray:
    """A writeable bool grid, True at each voxel whose neighbor at +offset
    lies in the grid and passes `test`.

    In C-order flat positions that neighbor is p + s (s = `flat_step`), and
    `test(s)` compares the contiguous slices [:-s] and [s:], p with p + s
    at every p < n - s. Where the neighbor leaves the grid, p + s wraps to
    another voxel, so the faces where it does are cleared: index -1 of each
    axis where the offset is +1, and index 0 where it is -1. Across a
    size-1 axis that face is the whole grid, so the grid comes out all
    False whatever the step.
    """
    flat = np.zeros(math.prod(dims), dtype=bool)
    grid = flat.reshape(dims)
    step = flat_step(dims, offset)
    flat[:-step] = test(step)
    for axis, o in enumerate(offset):
        if o:
            grid[(slice(None),) * axis + (-1 if o > 0 else 0,)] = False
    return grid
