"""Texture matrix construction on discretized volumes.

All neighborhood machinery is 3D. Every pair builder (co-occurrence, runs,
zones, dependence counts) walks the 13 unique unit directions at Chebyshev
distance 1, which visits each unordered 26-neighbor pair once; symmetric
tallies credit both ends of a pair. Runs, zones and dependence counts read
their pairs from the volume's shared `pair_flags`. Zones of every level come
from one connected-components labelling of the equal-level pairs, and the
tone-difference table from separable 3x3x3 box sums of integer levels.
The two functions that call scipy import it themselves, so that importing
this module, which every command does, loads no scipy.
"""
from __future__ import annotations

import numpy as np

from ..preprocess import DiscretizedVolume
from ..volume import DIRECTIONS_13, shift_slices


def _tally(levels: np.ndarray, magnitudes: np.ndarray, ng: int) -> np.ndarray:
    """(level x magnitude) count matrix of paired levels 1..ng and
    magnitudes 1..max, as float64."""
    width = int(magnitudes.max())
    counts = np.bincount((levels - 1) * width + (magnitudes - 1), minlength=ng * width)
    return counts.reshape(ng, width).astype(np.float64)


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
    m = d.mask.flags
    out = []
    for off, same_next in zip(DIRECTIONS_13, d.pair_flags(0)):
        src, dst = shift_slices(d.dims, off)
        cont = same_next[src]
        length = m.astype(np.int32)
        prev, nxt = length[src], length[dst]
        axis = next(a for a, o in enumerate(off) if o)
        lead = (slice(None),) * axis
        for k in range(cont.shape[axis]):
            at = lead + (k,)
            np.add(nxt[at], prev[at], out=nxt[at], where=cont[at])

        ends = m & ~same_next
        out.append(_tally(d.levels[ends], length[ends], d.ng))
    return out


def roi_border_distance(mask_flags: np.ndarray) -> np.ndarray:
    """City-block distance from each in-mask voxel to the nearest voxel
    outside the ROI, counting the volume border as outside (minimum 1)."""
    from scipy import ndimage

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
    heads = []
    tails = []
    for off, same in zip(DIRECTIONS_13, d.pair_flags(0)):
        pos = np.flatnonzero(same)
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
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    m = d.mask.flags
    n = d.mask.voxel_count
    index = np.full(d.dims, -1, dtype=np.int32)
    index[m] = np.arange(n, dtype=np.int32)
    heads, tails = equal_level_edges(d, index)
    graph = coo_matrix((np.ones(heads.size, dtype=np.int8), (heads, tails)), shape=(n, n))
    n_zones, zone_of = connected_components(graph, directed=False)

    sizes = np.bincount(zone_of, minlength=n_zones)
    dists = np.full(n_zones, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(dists, zone_of, roi_border_distance(m)[m])
    levels = np.empty(n_zones, dtype=np.int64)
    levels[zone_of] = d.levels[m]
    return _tally(levels, sizes, d.ng), _tally(levels, dists, d.ng)


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
    m = d.mask.flags
    dep = np.zeros(d.dims, dtype=np.uint8)  # at most 26
    for off, pairs in zip(DIRECTIONS_13, d.pair_flags(alpha)):
        src, dst = shift_slices(d.dims, off)
        close = pairs[src]
        dep[src] += close
        dep[dst] += close

    return _tally(d.levels[m], dep[m] + 1, d.ng)
