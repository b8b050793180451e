"""Texture matrix construction on discretized volumes.

All neighborhood machinery is 3D. Every pair builder (co-occurrence, runs,
zones, dependence counts) walks the 13 unique unit directions at Chebyshev
distance 1, which visits each unordered 26-neighbor pair once; symmetric
tallies credit both ends of a pair. Zones of every level come from one
connected-components labelling of the equal-level pairs, and the
tone-difference table from separable 3x3x3 box sums of integer levels.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..preprocess import DiscretizedVolume

DIRECTIONS_13: tuple[tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)


def shift_slices(
    dims: tuple[int, int, int], offset: tuple[int, int, int]
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slice pair (at_voxel, at_voxel_plus_offset) covering all in-bounds pairs."""
    src = []
    dst = []
    for d, o in zip(dims, offset):
        if o >= 0:
            src.append(slice(0, max(0, d - o)))
            dst.append(slice(min(o, d), d))
        else:
            src.append(slice(min(-o, d), d))
            dst.append(slice(0, max(0, d + o)))
    return tuple(src), tuple(dst)


def _same_level_pairs(d: DiscretizedVolume, off: tuple[int, int, int]):
    """(src, dst, same): the slice pair for `off` and, over it, where both
    voxels are in the mask and share a gray level."""
    lv = d.levels
    m = d.mask.flags
    src, dst = shift_slices(d.dims, off)
    return src, dst, m[src] & m[dst] & (lv[src] == lv[dst])


def glcm_matrices(d: DiscretizedVolume) -> list[np.ndarray]:
    """Symmetrized co-occurrence count matrices, one per direction.

    Directions with no in-mask pair yield an all-zero matrix.
    """
    lv = d.levels
    m = d.mask.flags
    ng = d.ng
    out = []
    for off in DIRECTIONS_13:
        src, dst = shift_slices(d.dims, off)
        valid = m[src] & m[dst]
        a = lv[src][valid] - 1
        b = lv[dst][valid] - 1
        counts = np.bincount(a * ng + b, minlength=ng * ng).reshape(ng, ng)
        out.append((counts + counts.T).astype(np.float64))
    return out


def glrlm_matrices(d: DiscretizedVolume) -> list[np.ndarray]:
    """Run-length count matrices (level x run length), one per direction.

    Runs are maximal collinear stretches of equal level, broken by the
    mask boundary, the volume edge, or a level change. Each voxel's length
    so far is carried one plane at a time along the direction's first
    non-zero axis (positive for every direction in DIRECTIONS_13), so a
    plane is final before the next one reads it; runs are tallied at the
    voxels that do not continue.
    """
    lv = d.levels
    m = d.mask.flags
    ng = d.ng
    out = []
    for off in DIRECTIONS_13:
        src, dst, cont = _same_level_pairs(d, off)
        length = m.astype(np.int32)
        prev, nxt = length[src], length[dst]
        axis = next(a for a, o in enumerate(off) if o)
        lead = (slice(None),) * axis
        for k in range(cont.shape[axis]):
            at = lead + (k,)
            np.add(nxt[at], prev[at], out=nxt[at], where=cont[at])

        same_next = np.zeros(d.dims, dtype=bool)
        same_next[src] = cont
        ends = m & ~same_next
        run_levels = lv[ends]
        lengths = length[ends]

        max_len = int(lengths.max())
        counts = np.bincount(
            (run_levels - 1) * max_len + (lengths - 1), minlength=ng * max_len
        ).reshape(ng, max_len)
        out.append(counts.astype(np.float64))
    return out


def roi_border_distance(mask_flags: np.ndarray) -> np.ndarray:
    """City-block distance from each in-mask voxel to the nearest voxel
    outside the ROI, counting the volume border as outside (minimum 1)."""
    padded = np.pad(mask_flags, 1)
    dist = ndimage.distance_transform_cdt(padded, metric="taxicab")
    return np.asarray(dist)[1:-1, 1:-1, 1:-1].astype(np.int64)


def equal_level_edges(d: DiscretizedVolume, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails): `index` at both ends of every in-mask equal-level
    pair, direction by direction in DIRECTIONS_13 order, and within one
    direction in flat order of the first end.

    Each direction's pairs are found as flat positions of the whole grid,
    so both ends are read from the flat numbering with one gather each.
    """
    flat_index = index.ravel()
    _, ny, nz = d.dims
    same_at = np.empty(d.dims, dtype=bool)
    heads = []
    tails = []
    for off in DIRECTIONS_13:
        src, _, same = _same_level_pairs(d, off)
        same_at.fill(False)
        same_at[src] = same
        pos = np.flatnonzero(same_at)
        heads.append(flat_index[pos])
        tails.append(flat_index[pos + (off[0] * ny + off[1]) * nz + off[2]])
    return np.concatenate(heads), np.concatenate(tails)


def zone_matrices(d: DiscretizedVolume) -> tuple[np.ndarray, np.ndarray]:
    """(GLSZM, GLDZM): 26-connected equal-level zones tallied by size and
    by minimum border distance.

    ROI voxels are numbered in flat order; the equal-level pairs of the 13
    directions are the edges of one graph whose connected components are
    the zones of every level at once.
    """
    lv = d.levels
    m = d.mask.flags
    ng = d.ng
    n = int(np.count_nonzero(m))
    index = np.full(d.dims, -1, dtype=np.int32)
    index[m] = np.arange(n, dtype=np.int32)
    heads, tails = equal_level_edges(d, index)
    graph = coo_matrix((np.ones(heads.size, dtype=np.int8), (heads, tails)), shape=(n, n))
    n_zones, zone_of = connected_components(graph, directed=False)

    sizes = np.bincount(zone_of, minlength=n_zones)
    dists = np.full(n_zones, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(dists, zone_of, roi_border_distance(m)[m])
    levels = np.empty(n_zones, dtype=np.int64)
    levels[zone_of] = lv[m]

    max_size = int(sizes.max())
    glszm = np.bincount((levels - 1) * max_size + (sizes - 1), minlength=ng * max_size)
    max_dist = int(dists.max())
    gldzm = np.bincount((levels - 1) * max_dist + (dists - 1), minlength=ng * max_dist)
    return (
        glszm.reshape(ng, max_size).astype(np.float64),
        gldzm.reshape(ng, max_dist).astype(np.float64),
    )


def _neighbor_sum(a: np.ndarray) -> np.ndarray:
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


def ngtdm_table(d: DiscretizedVolume) -> tuple[np.ndarray, np.ndarray]:
    """(n_i, s_i) per gray level: counted voxels and summed absolute
    differences from the in-mask 26-neighborhood average.

    Voxels without any in-mask neighbor are excluded from both tallies.
    """
    lv = d.levels
    m = d.mask.flags
    nbr_sum = _neighbor_sum(np.where(m, lv, 0))
    nbr_cnt = _neighbor_sum(m.astype(np.int32))

    valid = m & (nbr_cnt > 0)
    avg = np.zeros(d.dims)
    np.divide(nbr_sum, nbr_cnt, out=avg, where=valid)
    diff = np.abs(lv - avg)[valid]
    levels = lv[valid]

    n_i = np.bincount(levels, minlength=d.ng + 1)[1:].astype(np.float64)
    s_i = np.bincount(levels, weights=diff, minlength=d.ng + 1)[1:]
    return n_i, s_i


def ngldm_matrix(d: DiscretizedVolume, alpha: int = 0) -> np.ndarray:
    """Dependence count matrix: rows are levels, column j holds voxels
    with j-1 in-mask neighbors within gray-level tolerance alpha."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    lv = d.levels
    m = d.mask.flags
    dep = np.zeros(d.dims, dtype=np.uint8)  # at most 26
    for off in DIRECTIONS_13:
        src, dst = shift_slices(d.dims, off)
        close = m[src] & m[dst] & (np.abs(lv[src] - lv[dst]) <= alpha)
        dep[src] += close
        dep[dst] += close

    levels = lv[m]
    counts = dep[m]
    max_col = int(counts.max()) + 1
    mat = np.bincount((levels - 1) * max_col + counts, minlength=d.ng * max_col)
    return mat.reshape(d.ng, max_col).astype(np.float64)
