"""Deterministic synthetic volume + ellipsoid mask for self-testing."""
from __future__ import annotations

import numpy as np

from .volume import RoiMask, Volume3D

# lattice pitch of the value noise, in voxels
_NOISE_PITCH = 4
# ellipsoid semi-axis fraction giving roughly 30% volume coverage
_ELLIPSOID_FRACTION = 0.83
# generate_phantom peaks at about 50 bytes per voxel: 256^3 voxels take 0.8 GB
MAX_VOXELS = 256**3
# the lattice corners of a voxel's cell, in the order their trilinear terms are summed
_CORNERS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def generate_phantom(
    seed: int,
    dims: tuple[int, int, int] = (16, 16, 16),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[Volume3D, RoiMask]:
    """Smooth seeded value-noise volume in [0, 1] with an ellipsoidal ROI.

    Output is a pure function of (seed, dims, spacing).
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)

    lattice_dims = [d // _NOISE_PITCH + 2 for d in dims]
    lattice = rng.random(lattice_dims)

    coords = [np.arange(d) / _NOISE_PITCH for d in dims]
    idx = [c.astype(np.int64) for c in coords]
    frac = [c - i for c, i in zip(coords, idx)]

    fx, fy, fz = frac[0][:, None, None], frac[1][None, :, None], frac[2][None, None, :]
    wx, wy, wz = (1 - fx, fx), (1 - fy, fy), (1 - fz, fz)
    values = np.zeros(dims)
    for ox, oy, oz in _CORNERS:
        # in place: a fresh sum per corner would peak 8 bytes per voxel higher
        values += lattice[np.ix_(idx[0] + ox, idx[1] + oy, idx[2] + oz)] * wx[ox] * wy[oy] * wz[oz]
    lo, hi = values.min(), values.max()
    values = (values - lo) / (hi - lo) if hi > lo else np.zeros(dims)

    centers = [(d - 1) / 2.0 for d in dims]
    semi = [max(_ELLIPSOID_FRACTION * d / 2.0, 0.75) for d in dims]
    grids = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij")
    r2 = sum(((g - c) / s) ** 2 for g, c, s in zip(grids, centers, semi))
    # an ellipsoid that misses every voxel centre, as on a 2x2x2 grid, keeps the nearest ones
    flags = r2 <= max(1.0, r2.min())

    return Volume3D(dims, spacing, values), RoiMask(dims, flags)
