"""Texture matrix construction on discretized volumes.

All neighborhood machinery is 3D. Every pair builder (co-occurrence, runs,
zones, dependence counts) walks the 13 unique unit directions at Chebyshev
distance 1, which visits each unordered 26-neighbor pair once; symmetric
tallies credit both ends of a pair. A direction is one step s in C-order
flat positions (`flat_step`): a voxel p and its neighbor p + s are compared
as the contiguous slices [:-s] and [s:] of the flat grid, and the grid
faces where the step wraps instead of reaching a neighbor are cleared
(`flat_pairs`). Runs, zones and dependence counts read their pairs from
the volume's shared `pair_positions`, the ascending flat positions p of
each direction's pairs, and co-occurrence tallies its in-mask pairs by the
same rule. Sorted by residue mod the step, a run's links p, p + s, ...
lie side by side, so runs are read off each list with no loop over
planes.
Zones of every level come from one connected-components labelling of the
equal-level pairs, and the tone-difference table from separable 3x3x3 box
sums of integer levels.

`extract_all` hands these builders a volume discretized on the ROI's
bounding box plus one voxel per side (`RoiMask.box`), which holds every
pair, run, zone and neighbourhood they count, so they never walk the rest
of the grid. The mask-only arrays they read, the border distance and
NGTDM's neighbour counts, are cached properties of that box mask, kept for
ROI voxels only and built once per patient. What a worker holds while
they run is told in `analysis.process_patient`. No builder uses scipy:
the zones' connected components are found in numpy (`connected_labels`),
so extraction loads no scipy.
"""
from __future__ import annotations

import numpy as np

from ..preprocess import DiscretizedVolume
from ..volume import DIRECTIONS_13, flat_pairs, flat_step, neighbor_sum


def _tally(levels: np.ndarray, magnitudes: np.ndarray, ng: int) -> np.ndarray:
    """(level x magnitude) count matrix of paired levels 1..ng and
    magnitudes 1..max, as float64; with no magnitudes, one zero column.

    Where the matrix has more cells than there are pairs, as a GLSZM as
    wide as its largest zone does, it is counted straight into float64, a
    bincount weighted by ones (exact below 2**53), so that it is allocated
    once; otherwise an int64 count is cast, which holds less than a weight
    per pair would.
    """
    width = int(magnitudes.max(initial=1))
    keys = (levels - 1) * width + (magnitudes - 1)
    if keys.size < ng * width:
        counts = np.bincount(keys, np.ones(keys.size), ng * width)
    else:
        counts = np.bincount(keys, minlength=ng * width)
    # a weighted bincount of no keys is int64 too
    return counts.astype(np.float64, copy=False).reshape(ng, width)


def glcm_matrices(d: DiscretizedVolume) -> list[np.ndarray]:
    """Symmetrized co-occurrence count matrices, one per direction.

    Directions with no in-mask pair yield an all-zero matrix.
    """
    levels = d.levels.reshape(-1)
    flags = d.mask.flags.reshape(-1)
    ng = d.ng
    out = []
    for off in DIRECTIONS_13:
        step = flat_step(d.dims, off)
        pairs = flat_pairs(d.dims, off, lambda s: flags[:-s] & flags[s:]).reshape(-1)[:-step]
        # (a - 1) * ng + (b - 1) for a at p and b at p + step, kept at the pairs
        key = levels[:-step] * ng
        key += levels[step:]
        key = key[pairs] - (ng + 1)
        counts = np.bincount(key, minlength=ng * ng).reshape(ng, ng)
        out.append((counts + counts.T).astype(np.float64))
    return out


def glrlm_matrices(d: DiscretizedVolume) -> list[np.ndarray]:
    """Run-length count matrices (level x run length), one per direction.

    Runs are maximal collinear stretches of equal level, broken by the
    mask boundary, the volume edge, or a level change. In C-order flat
    positions a direction is one step s (`flat_step`), and a run of k >= 2
    voxels is a chain of k - 1 equal-level links p, p + s, p + 2s, ...
    (`pair_positions`). A stable sort on p mod s (uint16 keys take numpy's
    radix sort) puts each residue's links in increasing order, so a chain
    is a stretch where each link lies s past the one before; links of two
    residues are never s apart. A run has the level of its first link.
    Each level's length-1 runs are its ROI voxels (`level_counts`) outside
    longer runs, and across a size-1 axis, where there are no links, every
    run has length 1.
    """
    levels = d.levels.ravel()
    out = []
    for off, pos in zip(DIRECTIONS_13, d.pair_positions(0)):
        step = flat_step(d.dims, off)
        residue = (pos % step).astype(np.uint16 if step <= 65536 else np.int64)
        links = pos[np.argsort(residue, kind="stable")]
        starts = np.ones(links.size + 1, dtype=bool)  # each chain's first link, then the end
        np.not_equal(links[1:], links[:-1] + step, out=starts[1:-1])
        bounds = np.flatnonzero(starts)
        runs = _tally(levels[links[bounds[:-1]]], bounds[1:] - bounds[:-1] + 1, d.ng)
        # exact, as every term is an integer below 2**53; a float @ would load BLAS pages
        runs[:, 0] = d.level_counts - (runs * np.arange(1, runs.shape[1] + 1)).sum(axis=1)
        out.append(runs)
    return out


def equal_level_edges(
    d: DiscretizedVolume, index: np.ndarray, by_direction: bool = False
) -> tuple[np.ndarray, np.ndarray] | tuple[list[np.ndarray], list[np.ndarray]]:
    """(heads, tails): `index` at both ends of every in-mask equal-level
    pair, direction by direction in DIRECTIONS_13 order, and within one
    direction in flat order of the first end: a list of one array per
    direction when `by_direction`, else those arrays concatenated.

    Both ends are gathered from the flat numbering at the volume's cached
    pair positions (`pair_positions`), p and p + s.
    """
    flat_index = index.ravel()
    heads, tails = [], []
    for off, pos in zip(DIRECTIONS_13, d.pair_positions(0)):
        heads.append(np.take(flat_index, pos))
        tails.append(np.take(flat_index, pos + flat_step(d.dims, off)))
    if by_direction:
        return heads, tails
    return np.concatenate(heads), np.concatenate(tails)


def connected_labels(
    n: int, heads: np.ndarray | list[np.ndarray], tails: np.ndarray | list[np.ndarray]
) -> tuple[np.ndarray, int]:
    """(labels, rounds): the connected component of each of `n` nodes of
    the undirected graph with int32 edges heads[i] -- tails[i], numbered in
    order of each component's first node, as scipy's `connected_components`
    numbers them, and the number of hooking rounds it took. The edges come
    as two arrays, or as two lists of arrays (one per direction, as
    `equal_level_edges(..., by_direction=True)` gives them), read pairwise.

    Every node starts as its own root, and every edge joins two roots.
    Each round hooks the larger root of each edge onto its smallest
    neighbouring root (`np.minimum.at`), one list at a time, points every
    node at its new root by pointer jumping (`_flattened`), moves each
    edge's ends to their roots and drops the edges whose ends now agree
    (`_apart`). Only the edges that are left are concatenated, so
    per-direction lists are never copied whole: after the first round,
    19% of the 850 098 edges of a 313 920-voxel ROI. Parents only ever
    decrease, so each root is its component's first node. A graph of
    zones takes a few rounds: 5 on that ROI.
    """
    if isinstance(heads, np.ndarray):
        heads, tails = [heads], [tails]
    parent = np.arange(n, dtype=np.int32)
    rounds = 0
    while any(h.size for h in heads):
        rounds += 1
        for h, t in zip(heads, tails):
            np.minimum.at(parent, np.maximum(h, t), np.minimum(h, t))
        parent = _flattened(parent)
        heads, tails = _apart(parent, heads, tails)
    labels = np.cumsum(parent == np.arange(n, dtype=np.int32), dtype=np.int32)
    labels -= 1
    return labels[parent], rounds  # [] casts an int32 index in chunks, where take copies it to intp


# Nodes whose parents one `np.take` call gathers while pointer jumping:
# take copies its index to intp, so a chunk keeps that copy small.
JUMP_CHUNK = 1 << 16


def _flattened(parent: np.ndarray) -> np.ndarray:
    """`parent` with every node pointed at its root, by pointer jumping
    between two buffers, `parent` and one more, a chunk of nodes at a
    time."""
    up = np.empty_like(parent)
    while True:
        for i in range(0, parent.size, JUMP_CHUNK):
            # take with out= buffers its output unless the mode is clip or wrap; every index is in range
            np.take(parent, parent[i : i + JUMP_CHUNK], out=up[i : i + JUMP_CHUNK], mode="clip")
        if np.array_equal(up, parent):
            return parent
        parent, up = up, parent


def _apart(
    parent: np.ndarray, heads: list[np.ndarray], tails: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The edges of the lists, read pairwise, moved to their ends' roots,
    and of those only the ones whose roots differ, concatenated into
    lists of one array each."""
    kept_heads, kept_tails = [], []
    for h, t in zip(heads, tails):
        h = np.take(parent, h)
        t = np.take(parent, t)
        apart = h != t  # compress runs about twice as fast as [apart] here
        kept_heads.append(np.compress(apart, h))
        kept_tails.append(np.compress(apart, t))
    return [np.concatenate(kept_heads)], [np.concatenate(kept_tails)]


def zone_matrices(d: DiscretizedVolume) -> tuple[np.ndarray, np.ndarray]:
    """(GLSZM, GLDZM): 26-connected equal-level zones tallied by size and
    by minimum border distance, as dense float64 matrices.

    ROI voxels are numbered in flat order; the equal-level pairs of the 13
    directions are the edges of one graph whose connected components
    (`connected_labels`) are the zones of every level at once. The edges
    are handed over as the 13 per-direction lists, never concatenated.
    Each matrix is counted straight into float64 (`_tally`), and a GLSZM,
    as wide as the largest zone, is the zone layer's largest array: on the
    large benchmark pool's patient L001, 32 x 37 315 cells (9.6 MB, 1.14
    grids of 128x128x64), 957 of them non-zero.
    """
    m = d.mask.flags
    n = d.mask.voxel_count
    index = np.full(d.dims, -1, dtype=np.int32)
    index[m] = np.arange(n, dtype=np.int32)
    edges = equal_level_edges(d, index, by_direction=True)
    del index  # the labelling reads the edges only
    zone_of, _ = connected_labels(n, *edges)
    del edges  # before the matrices are counted

    sizes = np.bincount(zone_of)
    border = d.mask.border_distance
    # in the border's own dtype: a cast would take np.minimum.at off its fast path
    dists = np.full(sizes.size, np.iinfo(border.dtype).max, dtype=border.dtype)
    np.minimum.at(dists, zone_of, border)
    levels = np.empty(sizes.size, dtype=np.int64)
    levels[zone_of] = d.roi_levels
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
    close = np.zeros(m.size, dtype=bool)  # one direction's pairs at a time
    for off, pos in zip(DIRECTIONS_13, d.pair_positions(alpha)):
        step = flat_step(d.dims, off)
        close[pos] = True
        dep[:-step] += close[:-step]
        dep[step:] += close[:-step]
        close.fill(False)

    return _tally(d.roi_levels, dep.reshape(d.dims)[m] + 1, d.ng)
