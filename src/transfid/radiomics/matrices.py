"""Texture matrix construction on discretized volumes.

All neighborhood machinery is 3D. Every pair builder (co-occurrence, runs,
zones, dependence counts) walks the 13 unique unit directions at Chebyshev
distance 1, which visits each unordered 26-neighbor pair once; symmetric
tallies credit both ends of a pair. A direction is one step s in C-order
flat positions (`flat_step`): a voxel p and its neighbor p + s are compared
as the contiguous slices [:-s] and [s:] of the flat grid, and the grid
faces where the step wraps instead of reaching a neighbor are cleared
(`flat_pairs`). Runs, zones and dependence counts read their pairs from
the volume's shared `pair_flags`, and co-occurrence tallies its in-mask
pairs by the same rule. Laid out residue by residue mod the step, each
run is a contiguous stretch, and its length comes from pairing its start
with its end, with no loop over planes.
Zones of every level come from one connected-components labelling of the
equal-level pairs, and the tone-difference table from separable 3x3x3 box
sums of integer levels.

`extract_all` hands these builders a volume discretized on the ROI's
bounding box plus one voxel per side (`RoiMask.box`), which holds every
pair, run, zone and neighbourhood they count, so they never walk the rest
of the grid. The mask-only arrays they read, the border distance and
NGTDM's neighbour counts, are cached properties of that box mask, kept for
ROI voxels only and built once per patient. Local intensity, which is not
built here, stays on the whole grid on purpose: the grid sets its FFT size
and so its bits. No builder uses scipy: the zones' connected components
are found in numpy (`connected_labels`), so extraction loads no scipy.
"""
from __future__ import annotations

import numpy as np

from ..preprocess import DiscretizedVolume
from ..volume import DIRECTIONS_13, flat_pairs, flat_step, neighbor_sum


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
    levels = d.levels.reshape(-1)
    flags = d.mask.flags.reshape(-1)
    ng = d.ng
    out = []
    for off in DIRECTIONS_13:
        # a step of 0 or less has no pair, and a step of 1 slices its empty grid
        step = max(flat_step(d.dims, off), 1)
        pairs = flat_pairs(d.dims, off, lambda s: flags[:-s] & flags[s:]).reshape(-1)[:-step]
        # (a - 1) * ng + (b - 1) for a at p and b at p + step, kept at the pairs
        key = levels[:-step] * ng
        key += levels[step:]
        key = key[pairs] - (ng + 1)
        counts = np.bincount(key, minlength=ng * ng).reshape(ng, ng)
        out.append((counts + counts.T).astype(np.float64))
    return out


def _by_residue(flat: np.ndarray, step: int) -> np.ndarray:
    """`flat` laid out residue by residue mod `step`, after one leading
    zero cell: padded with zeros to q*step cells (q = ceil(n / step)),
    viewed as (q, step) and transposed, so flat position k*step + r moves
    to 1 + r*q + k. Each residue is then one contiguous block, in
    increasing order of position."""
    n = flat.size
    q = -(-n // step)
    full = n // step
    out = np.zeros(1 + step * q, dtype=flat.dtype)
    grid = out[1:].reshape(step, q)
    grid[:, :full] = flat[: full * step].reshape(full, step).T
    if full < q:
        grid[: n - full * step, full] = flat[full * step :]
    return out


def glrlm_matrices(d: DiscretizedVolume) -> list[np.ndarray]:
    """Run-length count matrices (level x run length), one per direction.

    Runs are maximal collinear stretches of equal level, broken by the
    mask boundary, the volume edge, or a level change. In C-order flat
    positions a direction is one step s (`flat_step`), and its pair grid is
    True only where p + s is p's in-grid neighbor, so a run is a chain p,
    p + s, p + 2s, ... within one residue mod s that never wraps. Laid out
    residue by residue (`_by_residue`), every run is a contiguous stretch
    of cells. A run ends at an ROI cell whose pair flag is False, and it
    starts just after a cell whose flag is False (the leading zero cell
    serves the first one), so the k-th start pairs with the k-th end: the
    run's length is their distance plus one, and its level is read at its
    end. A step of 0 or less only arises across a size-1 axis, where no
    pair exists and every run has length 1; a step of 1 lays those out.
    """
    mask = d.mask.flags.ravel()
    levels = d.levels.ravel()
    out = []
    for off, same_next in zip(DIRECTIONS_13, d.pair_flags(0)):
        step = max(flat_step(d.dims, off), 1)
        in_roi = _by_residue(mask, step)
        same = _by_residue(same_next.ravel(), step)
        ends = np.flatnonzero(in_roi & ~same)
        before_starts = np.flatnonzero(in_roi[1:] & ~same[:-1])  # each start's predecessor
        out.append(_tally(_by_residue(levels, step)[ends], ends - before_starts, d.ng))
    return out


def equal_level_edges(d: DiscretizedVolume, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails): `index` at both ends of every in-mask equal-level
    pair, direction by direction in DIRECTIONS_13 order, and within one
    direction in flat order of the first end.

    Each direction's pairs are found as flat positions of the whole grid,
    so both ends are read from the flat numbering with one gather each.
    """
    flat_index = index.ravel()
    heads = []
    tails = []
    for off, same in zip(DIRECTIONS_13, d.pair_flags(0)):
        pos = np.flatnonzero(same)
        heads.append(flat_index[pos])
        tails.append(flat_index[pos + flat_step(d.dims, off)])
    return np.concatenate(heads), np.concatenate(tails)


def connected_labels(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, rounds): the connected component of each of `n` nodes of
    the undirected graph with int32 edges heads[i] -- tails[i], numbered in
    order of each component's first node, as scipy's `connected_components`
    numbers them, and the number of hooking rounds it took.

    Every node starts as its own root, and every edge joins two roots.
    Each round hooks the larger root of each edge onto its smallest
    neighbouring root (`np.minimum.at`), points every node at its new root
    by pointer jumping, moves each edge's ends to their roots and drops the
    edges whose ends now agree. Parents only ever decrease, so each root is
    its component's first node. A graph of zones takes a few rounds: 5 on
    a 313 920-voxel ROI with 850 098 edges.
    """
    parent = np.arange(n, dtype=np.int32)
    rounds = 0
    while heads.size:
        rounds += 1
        np.minimum.at(parent, np.maximum(heads, tails), np.minimum(heads, tails))
        while True:
            up = np.take(parent, parent)  # for an int32 index, take is about twice [] here
            if np.array_equal(up, parent):
                break
            parent = up
        heads = np.take(parent, heads)
        tails = np.take(parent, tails)
        apart = heads != tails
        heads = heads[apart]
        tails = tails[apart]
    labels = np.cumsum(parent == np.arange(n, dtype=np.int32), dtype=np.int32) - 1
    return np.take(labels, parent), rounds


def zone_matrices(d: DiscretizedVolume) -> tuple[np.ndarray, np.ndarray]:
    """(GLSZM, GLDZM): 26-connected equal-level zones tallied by size and
    by minimum border distance.

    ROI voxels are numbered in flat order; the equal-level pairs of the 13
    directions are the edges of one graph whose connected components
    (`connected_labels`) are the zones of every level at once.
    """
    m = d.mask.flags
    n = d.mask.voxel_count
    index = np.full(d.dims, -1, dtype=np.int32)
    index[m] = np.arange(n, dtype=np.int32)
    zone_of, _ = connected_labels(n, *equal_level_edges(d, index))

    sizes = np.bincount(zone_of)
    border = d.mask.border_distance
    # in the border's own dtype: a cast would take np.minimum.at off its fast path
    dists = np.full(sizes.size, np.iinfo(border.dtype).max, dtype=border.dtype)
    np.minimum.at(dists, zone_of, border)
    levels = np.empty(sizes.size, dtype=np.int64)
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
    dep = np.zeros(m.size, dtype=np.uint8)  # at most 26
    for off, pairs in zip(DIRECTIONS_13, d.pair_flags(alpha)):
        step = max(flat_step(d.dims, off), 1)  # as in `glcm_matrices`
        close = pairs.reshape(-1)[:-step]
        dep[:-step] += close
        dep[step:] += close

    return _tally(d.levels[m], dep.reshape(d.dims)[m] + 1, d.ng)
