"""Canonical in-memory representation of 3D volumes and ROI masks.

Voxel values live in an (nx, ny, nz) float64 array. The flat, on-disk
ordering is x-fastest (index = x + nx*(y + ny*z)), which corresponds to
Fortran-order raveling of the array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimsMismatch, EmptyMask, NonFiniteVoxel


@dataclass(frozen=True)
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
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != dims:
            if values.size == dims[0] * dims[1] * dims[2]:
                values = values.reshape(dims, order="F")
            else:
                raise ValueError(f"value count {values.size} does not match dims {dims}")
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

    def value_at(self, x: int, y: int, z: int) -> float:
        return float(self.values[x, y, z])

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


@dataclass(frozen=True)
class RoiMask:
    """Boolean region of interest aligned to a Volume3D grid."""

    dims: tuple[int, int, int]
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        flags = np.asarray(self.flags)
        if flags.dtype != np.bool_:
            flags = flags != 0
        if flags.shape != dims:
            if flags.size == dims[0] * dims[1] * dims[2]:
                flags = flags.reshape(dims, order="F")
            else:
                raise DimsMismatch(f"mask flag count {flags.size} does not match dims {dims}")
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

    def check_aligned(self, volume: Volume3D) -> None:
        if self.dims != volume.dims:
            raise DimsMismatch(f"mask dims {self.dims} != volume dims {volume.dims}")

