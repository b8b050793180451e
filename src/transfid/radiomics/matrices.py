"""Texture matrix construction on discretized volumes.

All neighborhood machinery is 3D. Every pair builder (co-occurrence, runs,
zones, dependence counts) walks the 13 unique unit directions at Chebyshev
distance 1, which visits each unordered 26-neighbor pair once; symmetric
tallies credit both ends of a pair. Runs, zones and dependence counts read
their pairs from the volume's shared `pair_flags`. Zones of every level come
from one connected-components labelling of the equal-level pairs, and the
tone-difference table from separable 3x3x3 box sums of integer levels.

`extract_all` hands these builders a volume discretized on the ROI's
bounding box plus one voxel per side (`RoiMask.box`), which holds every
pair, run, zone and neighbourhood they count, so they never walk the rest
of the grid. The mask-only arrays they read, the border distance and
NGTDM's neighbour counts, are cached properties of that box mask, kept for
ROI voxels only and built once per patient. Local intensity, which is not
built here, stays on the whole grid on purpose: the grid sets its FFT size
and so its bits. `zone_matrices` imports scipy itself, so that importing
this module, which every command does, loads no scipy.
"""
from __future__ import annotations

import numpy as np

from ..preprocess import DiscretizedVolume
from ..volume import DIRECTIONS_13, neighbor_sum, shift_slices


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
    border = d.mask.border_distance
    # in the border's own dtype: a cast would take np.minimum.at off its fast path
    dists = np.full(n_zones, np.iinfo(border.dtype).max, dtype=border.dtype)
    np.minimum.at(dists, zone_of, border)
    levels = np.empty(n_zones, dtype=np.int64)
    levels[zone_of] = d.levels[m]
    return _tally(levels, sizes, d.ng), _tally(levels, dists, d.ng)


def ngtdm_table(d: DiscretizedVolume) -> tuple[np.ndarray, np.ndarray]:
    """(n_i, s_i) per gray level: counted voxels and summed absolute
    differences from the in-mask 26-neighborhood average.

    Voxels without any in-mask neighbor are excluded from both tallies.
    """
    m = d.mask.flags
    nbr_sum = neighbor_sum(np.where(m, d.levels, 0))[m]
    nbr_cnt = d.mask.neighbor_counts

    valid = nbr_cnt > 0
    levels = d.roi_levels[valid]
    diff = np.abs(levels - nbr_sum[valid] / nbr_cnt[valid])

    n_i = np.bincount(levels, minlength=d.ng + 1)[1:].astype(np.float64)
    s_i = np.bincount(levels, weights=diff, minlength=d.ng + 1)[1:]
    return n_i, s_i


def ngldm_matrix(d: DiscretizedVolume, alpha: int) -> np.ndarray:
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
