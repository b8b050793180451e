"""Feature formulas for the six texture-matrix families."""
from __future__ import annotations

import math

import numpy as np

from ..preprocess import DiscretizedVolume
from .ids import (
    GLCM_NAMES,
    GLDZM_GENERIC,
    GLRLM_GENERIC,
    GLRLM_NAMES,
    GLSZM_GENERIC,
    NGLDM_GENERIC,
    NGTDM_NAMES,
)
from .matrices import (
    DIRECTIONS_13,
    glcm_matrices,
    glrlm_matrices,
    ngldm_matrix,
    ngtdm_table,
    zone_matrices,
)

NGTDM_COARSENESS_GUARD = 1e-6

# Cells evaluated in one pass. A family's matrices go through the formulas
# in batches of at most this many cells (a larger matrix is a batch of its
# own), so that 14 matrices of 1 024 levels are never stacked at once and a
# concatenated batch's block of terms stays within a few MB.
BATCH_CELLS = 1 << 16


def _per_matrix_sums(t: np.ndarray) -> np.ndarray:
    """One np.sum per matrix of a C-contiguous (k, ...) stack: each row of
    the (k, cells) view is reduced on its own, in the order and grouping a
    separate np.sum of that matrix uses."""
    return t.reshape(len(t), -1).sum(axis=1)


def _split_sums(t: np.ndarray, ends) -> np.ndarray:
    """One np.sum per contiguous segment of the last axis of `t`, each
    ending at `ends[m]`; the segment axis comes first in the result.

    Each segment is summed as an array of its own; np.add.reduceat would
    add sequentially and lose those bits.
    """
    out = []
    start = 0
    for end in ends:
        out.append(t[..., start:end].sum(axis=-1))
        start = end
    return np.array(out)


def _entropy_bits(p: np.ndarray, ends=None) -> np.ndarray:
    """Entropy in bits of each matrix of a batch, over its positive cells.

    `p` is a (k, ...) stack of matrices, or matrices concatenated flat
    with their last cells at `ends`.
    """
    positive = p > 0
    pos = p[positive]
    if ends is None:
        positive_ends = np.cumsum([np.count_nonzero(m) for m in positive])
    else:
        positive_ends = np.cumsum(positive)[ends - 1]
    return -_split_sums(pos * np.log2(pos), positive_ends)


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """Equal-shape matrices as one C-contiguous (k, rows, cols) array; a
    single matrix is viewed, not copied."""
    return mats[0][None] if len(mats) == 1 else np.array(mats)


def _in_batches(mats: list[np.ndarray], evaluate, *per_matrix: np.ndarray) -> list:
    """evaluate(batch, *per_matrix values of the batch) over consecutive
    batches of at most BATCH_CELLS cells, concatenated in matrix order."""
    out: list = []
    lo = 0
    while lo < len(mats):
        hi, cells = lo + 1, mats[lo].size
        while hi < len(mats) and cells + mats[hi].size <= BATCH_CELLS:
            cells += mats[hi].size
            hi += 1
        out += evaluate(mats[lo:hi], *(values[lo:hi] for values in per_matrix))
        lo = hi
    return out


def _glcm_batch(p: np.ndarray) -> list[dict[str, float]]:
    """The 25 co-occurrence features of each normalized symmetric matrix in
    a C-contiguous (k, ng, ng) stack.

    Every array formula runs once over the stack and is reduced per matrix;
    the scalar tails run per matrix on Python floats. Correlation and the
    first information correlation are undefined (NaN) when the
    marginal distribution is concentrated on a single level.
    """
    k, ng, _ = p.shape
    sums = _per_matrix_sums
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii, jj = i[:, None], i[None, :]
    pi = p.sum(axis=2)
    mu = sums(ii * p)

    # p_minus[m, k] = P(|i-j| = k), p_plus[m, k] = P(i+j = k+2): one bincount
    # each, matrix m's bins offset past those of the matrices before it
    abs_diff = np.abs(ii - jj).astype(np.int64)
    ksum = (ii + jj).astype(np.int64) - 2
    offsets = np.arange(k)[:, None, None]
    p_minus = np.bincount(
        (abs_diff + ng * offsets).ravel(), weights=p.ravel(), minlength=k * ng
    ).reshape(k, ng)
    p_plus = np.bincount(
        (ksum + (2 * ng - 1) * offsets).ravel(), weights=p.ravel(), minlength=k * (2 * ng - 1)
    ).reshape(k, 2 * ng - 1)
    k_minus = np.arange(ng, dtype=np.float64)
    k_plus = np.arange(2, 2 * ng + 1, dtype=np.float64)
    diff_avg = sums(k_minus * p_minus)
    sum_avg = sums(k_plus * p_plus)

    marg = pi[:, :, None] * pi[:, None, :]
    log_marg = np.where(marg > 0, np.log2(np.where(marg > 0, marg, 1.0)), 0.0)
    inv_var_terms = np.where(abs_diff > 0, p / np.where(abs_diff > 0, abs_diff, 1) ** 2, 0.0)
    # i + j - 2 mu takes one value per sum i + j, so each power is taken
    # once per value and gathered: the same operands, hence the same bits,
    # as the power of every cell
    cluster = k_plus - (2 * mu)[:, None]

    columns = {
        "joint_maximum": p.reshape(k, -1).max(axis=1),
        "joint_average": mu,
        "joint_variance": sums((ii - mu[:, None, None]) ** 2 * p),
        "joint_entropy": _entropy_bits(p),
        "difference_average": diff_avg,
        "difference_variance": sums((k_minus - diff_avg[:, None]) ** 2 * p_minus),
        "difference_entropy": _entropy_bits(p_minus),
        "sum_average": sum_avg,
        "sum_variance": sums((k_plus - sum_avg[:, None]) ** 2 * p_plus),
        "sum_entropy": _entropy_bits(p_plus),
        "angular_second_moment": sums(p * p),
        "contrast": sums((ii - jj) ** 2 * p),
        "dissimilarity": sums(np.abs(ii - jj) * p),
        "inverse_difference": sums(p / (1.0 + np.abs(ii - jj))),
        "inverse_difference_normalised": sums(p / (1.0 + np.abs(ii - jj) / ng)),
        "inverse_difference_moment": sums(p / (1.0 + (ii - jj) ** 2)),
        "inverse_difference_moment_normalised": sums(p / (1.0 + (ii - jj) ** 2 / ng**2)),
        "inverse_variance": sums(inv_var_terms),
        "autocorrelation": sums(ii * jj * p),
        "cluster_tendency": sums((cluster**2)[:, ksum] * p),
        "cluster_shade": sums((cluster**3)[:, ksum] * p),
        "cluster_prominence": sums((cluster**4)[:, ksum] * p),
        "hx": _entropy_bits(pi),
        "hxy1": -sums(np.where(p > 0, p * log_marg, 0.0)),
        "hxy2": -sums(np.where(marg > 0, marg * log_marg, 0.0)),
    }
    rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]

    for f in rows:
        hx, hxy1, hxy2 = f.pop("hx"), f.pop("hxy1"), f.pop("hxy2")
        mu_m, joint_var, hxy = f["joint_average"], f["joint_variance"], f["joint_entropy"]
        f["correlation"] = (
            (f["autocorrelation"] - mu_m * mu_m) / joint_var if joint_var > 0 else math.nan
        )
        f["information_correlation_1"] = (hxy - hxy1) / hx if hx > 0 else math.nan
        f["information_correlation_2"] = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))
    return rows


def glcm_features_from_matrix(p: np.ndarray) -> dict[str, float]:
    """The 25 co-occurrence features from one normalized symmetric matrix."""
    return _glcm_batch(p[None])[0]


def _aggregate_directional(
    matrices: list[np.ndarray], evaluate, names: tuple[str, ...]
) -> dict[str, dict[str, float]]:
    """dir_avg and dir_merged aggregations over per-direction matrices.

    Directions with an empty matrix are excluded; per-direction NaN values
    are skipped in the average. An all-directions-empty family yields NaN
    for every feature. `evaluate` maps the occupied matrices followed by
    their merged sum to one feature dict each.
    """
    occupied = [m for m in matrices if m.sum() > 0]
    if not occupied:
        return {agg: dict.fromkeys(names, math.nan) for agg in ("dir_avg", "dir_merged")}

    cols = max(m.shape[1] for m in occupied)
    merged = np.zeros((occupied[0].shape[0], cols))
    for m in occupied:
        merged[:, : m.shape[1]] += m
    *per_dir, merged_result = evaluate(occupied + [merged])

    avg_features: dict[str, float] = {}
    for name in names:
        vals = [feats[name] for feats in per_dir if not math.isnan(feats[name])]
        avg_features[name] = float(np.mean(vals)) if vals else math.nan
    return {"dir_avg": avg_features, "dir_merged": merged_result}


def _glcm_counts_batch(mats: list[np.ndarray]) -> list[dict[str, float]]:
    counts = _stack(mats)
    return _glcm_batch(counts / _per_matrix_sums(counts)[:, None, None])


def glcm_features(d: DiscretizedVolume) -> dict[str, dict[str, float]]:
    """25 base features under dir_avg and dir_merged aggregation (50 total),
    NaN where undefined: every feature when no direction has a pair."""
    return _aggregate_directional(
        glcm_matrices(d), lambda mats: _in_batches(mats, _glcm_counts_batch), GLCM_NAMES
    )


class _Cells:
    """The cells of a batch of count matrices with a shared row count.

    `i` and `j` are each cell's 1-based row and column, broadcastable to
    `counts`. Matrices of one width are stacked as a C-contiguous
    (k, rows, cols) array. Matrices of several widths are concatenated
    flat, row-major each, with `i` and `j` spelled out per cell. No cell is
    padded: zero padding regroups numpy's pairwise sums and moves their
    last bits.
    """

    def __init__(self, mats: list[np.ndarray]):
        rows = mats[0].shape[0]
        widths = np.array([m.shape[1] for m in mats])
        self.k = len(mats)
        self.rows = rows
        if (widths == widths[0]).all():
            self.counts = _stack(mats)
            self.i = np.arange(1, rows + 1, dtype=np.float64)[:, None]
            self.j = np.arange(1, widths[0] + 1, dtype=np.float64)[None, :]
            self.ends = None
        else:
            sizes = rows * widths
            self.counts = np.concatenate([m.ravel() for m in mats])
            self.matrix = np.repeat(np.arange(self.k), sizes)
            self.ends = np.cumsum(sizes)
            cell = np.arange(self.counts.size) - (self.ends - sizes)[self.matrix]
            width = widths[self.matrix]
            self.i = (cell // width + 1).astype(np.float64)
            self.j = (cell % width + 1).astype(np.float64)

    def sums(self, **terms) -> dict[str, np.ndarray]:
        """One np.sum per matrix of each named per-cell term (a callable).

        A stack reduces each term as it is made, so a single wide matrix
        holds one term array at a time. Concatenated matrices, at most
        BATCH_CELLS cells, write every term into one block and reduce each
        matrix's columns of it in one call.
        """
        if self.ends is None:
            return {name: _per_matrix_sums(term()) for name, term in terms.items()}
        block = np.empty((len(terms), self.counts.size))
        for row, term in zip(block, terms.values()):
            row[:] = term()
        return dict(zip(terms, _split_sums(block, self.ends).T))

    def each(self, v: np.ndarray) -> np.ndarray:
        """A per-matrix value at every cell."""
        if self.ends is None:
            return v[:, None, None]
        return v[self.matrix]

    def squared_marginal_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per matrix, the sums of its squared row sums and of its squared
        column sums. Counts are integers, so these are exact in any order
        of summation, and narrower matrices' columns may be zero-extended."""
        if self.ends is None:
            row_sums = self.counts.sum(axis=2)
            col_sums = self.counts.sum(axis=1)
        else:
            k, rows, cols = self.k, self.rows, int(self.j.max())
            row_key = self.matrix * rows + (self.i - 1).astype(np.int64)
            col_key = self.matrix * cols + (self.j - 1).astype(np.int64)
            row_sums = np.bincount(row_key, self.counts, k * rows).reshape(k, rows)
            col_sums = np.bincount(col_key, self.counts, k * cols).reshape(k, cols)
        return (row_sums**2).sum(axis=1), (col_sums**2).sum(axis=1)


def _row_column_batch(mats: list[np.ndarray], n_voxels: np.ndarray) -> list[dict[str, float]]:
    """The level-by-magnitude emphasis formulas of each count matrix of a
    batch, each matrix's percentage taken over its entry of `n_voxels`."""
    cells = _Cells(mats)
    counts, i, j = cells.counts, cells.i, cells.j
    ns = cells.sums(ns=lambda: counts)["ns"]
    p = counts / cells.each(ns)
    level_sq, magnitude_sq = cells.squared_marginal_sums()
    mu = cells.sums(i=lambda: i * p, j=lambda: j * p)

    columns = cells.sums(
        small_emphasis=lambda: p / (j * j),
        large_emphasis=lambda: p * j * j,
        low_level_emphasis=lambda: p / (i * i),
        high_level_emphasis=lambda: p * i * i,
        small_low_emphasis=lambda: p / (i * i * j * j),
        small_high_emphasis=lambda: p * i * i / (j * j),
        large_low_emphasis=lambda: p * j * j / (i * i),
        large_high_emphasis=lambda: p * i * i * j * j,
        level_variance=lambda: (i - cells.each(mu["i"])) ** 2 * p,
        magnitude_variance=lambda: (j - cells.each(mu["j"])) ** 2 * p,
        energy=lambda: p * p,
    )
    columns.update(
        level_non_uniformity=level_sq / ns,
        level_non_uniformity_normalised=level_sq / ns**2,
        magnitude_non_uniformity=magnitude_sq / ns,
        magnitude_non_uniformity_normalised=magnitude_sq / ns**2,
        percentage=ns / n_voxels,
        entropy=_entropy_bits(p, cells.ends),
    )
    return [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]


def row_column_features(counts: np.ndarray, n_voxels: int) -> dict[str, float]:
    """Shared level-by-magnitude emphasis formulas (runs, zones, dependence).

    Generic names: rows are gray levels i, columns are magnitudes j
    (run length, zone size, distance, or dependence count + 1). The
    `*_GENERIC` tables in ids.py map each family's IBSI names onto them.
    """
    return _row_column_batch([counts], np.array([n_voxels]))[0]


def _mapped(generic: dict[str, float], mapping: dict[str, str]) -> dict[str, float]:
    return {name: generic[src] for name, src in mapping.items()}


def glrlm_features(d: DiscretizedVolume) -> dict[str, dict[str, float]]:
    """16 run-length features under dir_avg and dir_merged (32 total).

    For the merged matrix the voxel count scales with the number of
    directions, keeping run percentage in [0, 1].
    """

    def evaluate(mats: list[np.ndarray]) -> list[dict[str, float]]:
        n_voxels = np.full(len(mats), d.mask.voxel_count)
        n_voxels[-1] *= len(DIRECTIONS_13)
        generic = _in_batches(mats, _row_column_batch, n_voxels)
        return [_mapped(g, GLRLM_GENERIC) for g in generic]

    return _aggregate_directional(glrlm_matrices(d), evaluate, GLRLM_NAMES)


def zone_features(d: DiscretizedVolume) -> tuple[dict[str, float], dict[str, float]]:
    """(GLSZM, GLDZM) feature sets from a single zone decomposition."""
    glszm, gldzm = zone_matrices(d)
    n_voxels = d.mask.voxel_count
    szm = _mapped(row_column_features(glszm, n_voxels), GLSZM_GENERIC)
    dzm = _mapped(row_column_features(gldzm, n_voxels), GLDZM_GENERIC)
    return szm, dzm


def ngldm_features(d: DiscretizedVolume, alpha: int) -> dict[str, float]:
    counts = ngldm_matrix(d, alpha)
    generic = row_column_features(counts, d.mask.voxel_count)
    return _mapped(generic, NGLDM_GENERIC)


def ngtdm_features(d: DiscretizedVolume) -> dict[str, float]:
    """Coarseness, contrast, busyness, complexity, strength.

    All five are NaN when no voxel has an in-mask neighbor. A zero
    coarseness denominator falls back to the documented 1e-6 guard.
    """
    n_i, s_i = ngtdm_table(d)
    n_vc = n_i.sum()
    if n_vc == 0:
        return dict.fromkeys(NGTDM_NAMES, math.nan)

    p = n_i / n_vc
    present = np.nonzero(n_i > 0)[0]
    levels = (present + 1).astype(np.float64)
    pp = p[present]
    ss = s_i[present]
    n_gp = present.size

    coarse_denom = float(np.sum(pp * ss))
    coarseness = 1.0 / coarse_denom if coarse_denom > 0 else 1.0 / NGTDM_COARSENESS_GUARD

    li, lj = np.meshgrid(levels, levels, indexing="ij")
    if n_gp >= 2:
        pij = np.outer(pp, pp)
        contrast = (
            float(np.sum(pij * (li - lj) ** 2))
            / (n_gp * (n_gp - 1))
            * float(np.sum(ss))
            / n_vc
        )
    else:
        contrast = 0.0

    ip = levels * pp
    busy_denom = float(np.sum(np.abs(ip[:, None] - ip[None, :])))
    busyness = float(np.sum(pp * ss)) / busy_denom if busy_denom > 0 else 0.0

    ps = pp * ss
    complexity = float(np.sum(np.abs(li - lj) * (ps[:, None] + ps[None, :]) / (pp[:, None] + pp[None, :]))) / n_vc

    s_total = float(np.sum(ss))
    if s_total > 0:
        strength = float(np.sum((pp[:, None] + pp[None, :]) * (li - lj) ** 2)) / s_total
    else:
        strength = 0.0

    return {
        "coarseness": coarseness,
        "contrast": contrast,
        "busyness": busyness,
        "complexity": complexity,
        "strength": strength,
    }
