"""Feature formulas for the six texture-matrix families.

GLCM, GLRLM, GLSZM, GLDZM and NGLDM run on one formula engine, `_Cells`,
whose docstring states the summation rule that keeps every feature's bits.
"""
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
# own), so that a batch's zero buffer and GLCM's dense marginal terms never
# hold 14 matrices of 1 024 levels at once.
BATCH_CELLS = 1 << 16


def _per_matrix_sums(t: np.ndarray) -> np.ndarray:
    """One np.sum per matrix of a C-contiguous (k, ...) stack: each row of
    the (k, cells) view is reduced on its own, in the order and grouping a
    separate np.sum of that matrix uses."""
    return t.reshape(len(t), -1).sum(axis=1)


def _split_sums(t: np.ndarray, ends) -> np.ndarray:
    """One np.sum per contiguous segment of the flat array `t`, each ending
    at `ends[m]`.

    Each segment is summed as an array of its own; np.add.reduceat would
    add sequentially and lose those bits.
    """
    return np.array([t[start:end].sum() for start, end in zip([0, *ends[:-1]], ends)])


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each matrix of a (k, ...) stack, over its positive
    cells."""
    positive = p > 0
    pos = p[positive]
    counts = np.count_nonzero(positive.reshape(len(p), -1), axis=1)
    return -_split_sums(pos * np.log2(pos), np.cumsum(counts))


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


class _Cells:
    """The cells of a batch of count matrices with a shared row count, and
    the non-zero ones among them.

    The matrices lie flat, each row-major after the one before it; a
    single matrix is viewed, not copied. The formulas run only at the
    non-zero cells, taken once in layout order: their counts `c`, their
    probabilities `p` (over their matrix's total `ns`), 0-based `row` and
    `col`, 1-based `i` and `j`, and matrices.

    Summation rule: each term is scattered into one zero buffer of the
    layout, and each matrix's stretch of it is reduced as one np.sum of that
    matrix alone would be. Zero cells add +0.0 in the layout's order, so
    every sum has the bits of the term taken over all cells. No cell is
    padded: zero padding regroups numpy's pairwise sums and moves their
    last bits.
    """

    def __init__(self, mats: list[np.ndarray]):
        rows = mats[0].shape[0]
        widths = np.array([m.shape[1] for m in mats])
        sizes = rows * widths
        ends = np.cumsum(sizes)
        self.k, self.rows, self.cols = len(mats), rows, int(widths.max())
        # matrices of one width are reduced as rows of a (k, cells) view
        self.ends = None if (widths == widths[0]).all() else ends
        flat = mats[0].reshape(-1) if len(mats) == 1 else np.concatenate([m.ravel() for m in mats])
        self.buffer = np.zeros(flat.size)
        self.at = np.flatnonzero(flat)
        self.c = flat[self.at]
        self.matrix = np.searchsorted(ends, self.at, side="right")
        self.row, self.col = np.divmod(self.at - (ends - sizes)[self.matrix], widths[self.matrix])
        self.i, self.j = self.row + 1.0, self.col + 1.0
        # where each matrix ends among the non-zero cells
        self.nonzero_ends = np.searchsorted(self.at, ends)
        self.ns = self.sums(ns=lambda: self.c)["ns"]
        self.p = self.c / self.ns[self.matrix]

    def sums(self, **terms) -> dict[str, np.ndarray]:
        """One np.sum per matrix of each named term (a callable giving its
        value at every non-zero cell), over all cells of the layout. The
        terms go one at a time through the zero buffer, which only the
        non-zero cells ever overwrite."""
        out = {}
        for name, term in terms.items():
            self.buffer[self.at] = term()
            if self.ends is None:
                out[name] = _per_matrix_sums(self.buffer.reshape(self.k, -1))
            else:
                out[name] = _split_sums(self.buffer, self.ends)
        return out

    def entropy_bits(self, p: np.ndarray) -> np.ndarray:
        """Per matrix, the entropy in bits of `p`, positive at every
        non-zero cell and only there."""
        return -_split_sums(p * np.log2(p), self.nonzero_ends)

    def squared_marginal_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per matrix, the sums of its squared row sums and of its squared
        column sums. Counts are integers, so these are exact in any order
        of summation, and narrower matrices' columns may be zero-extended."""
        k, rows, cols = self.k, self.rows, self.cols
        row_sums = np.bincount(self.matrix * rows + self.row, self.c, k * rows).reshape(k, rows)
        col_sums = np.bincount(self.matrix * cols + self.col, self.c, k * cols).reshape(k, cols)
        return (row_sums**2).sum(axis=1), (col_sums**2).sum(axis=1)


def _glcm_batch(mats: list[np.ndarray]) -> list[dict[str, float]]:
    """The 25 co-occurrence features of each symmetric count matrix of a
    batch, normalized by its sum.

    The per-cell terms run at the non-zero cells. The marginals, hx and
    hxy2 are dense, and the scalar tails run per matrix on Python floats.
    Correlation and the first information correlation are undefined (NaN)
    when the marginal distribution is concentrated on a single level.
    """
    cells = _Cells(mats)
    k, ng = cells.k, cells.rows
    p, i, j, row, col = cells.p, cells.i, cells.j, cells.row, cells.col

    # p in the zero buffer is the dense (k, ng, ng) stack of matrices
    cells.buffer[cells.at] = p
    pi = cells.buffer.reshape(k, ng, ng).sum(axis=2)
    joint_maximum = cells.buffer.reshape(k, -1).max(axis=1)
    marg = pi[:, :, None] * pi[:, None, :]
    # log2(1.0) is +0.0, so a zero marginal cell adds +0.0 to hxy2
    log_marg = np.log2(np.where(marg > 0, marg, 1.0))
    hxy2 = -_per_matrix_sums(marg * log_marg)
    log_marg = log_marg.reshape(-1)[cells.at]

    # p_minus[m, k] = P(|i-j| = k), p_plus[m, k] = P(i+j = k+2): one bincount
    # each, matrix m's bins past those of the matrices before it
    abs_diff, ksum = np.abs(row - col), row + col
    p_minus = np.bincount(cells.matrix * ng + abs_diff, p, k * ng).reshape(k, ng)
    p_plus = np.bincount(cells.matrix * (2 * ng - 1) + ksum, p, k * (2 * ng - 1)).reshape(k, -1)
    k_minus = np.arange(ng, dtype=np.float64)
    k_plus = np.arange(2, 2 * ng + 1, dtype=np.float64)
    diff_avg = _per_matrix_sums(k_minus * p_minus)
    sum_avg = _per_matrix_sums(k_plus * p_plus)

    mu = cells.sums(mu=lambda: i * p)["mu"]
    # i + j - 2 mu takes one value per sum i + j, so each power is taken
    # once per value and gathered: the same operands, hence the same bits,
    # as the power of every cell
    cluster = k_plus - (2 * mu)[:, None]
    columns = {
        "joint_maximum": joint_maximum,
        "joint_average": mu,
        "joint_entropy": cells.entropy_bits(p),
        "difference_average": diff_avg,
        "difference_variance": _per_matrix_sums((k_minus - diff_avg[:, None]) ** 2 * p_minus),
        "difference_entropy": _entropy_bits(p_minus),
        "sum_average": sum_avg,
        "sum_variance": _per_matrix_sums((k_plus - sum_avg[:, None]) ** 2 * p_plus),
        "sum_entropy": _entropy_bits(p_plus),
        "hx": _entropy_bits(pi),
        "hxy2": hxy2,
    }
    columns.update(
        cells.sums(
            joint_variance=lambda: (i - mu[cells.matrix]) ** 2 * p,
            angular_second_moment=lambda: p * p,
            contrast=lambda: (i - j) ** 2 * p,
            dissimilarity=lambda: np.abs(i - j) * p,
            inverse_difference=lambda: p / (1.0 + np.abs(i - j)),
            inverse_difference_normalised=lambda: p / (1.0 + np.abs(i - j) / ng),
            inverse_difference_moment=lambda: p / (1.0 + (i - j) ** 2),
            inverse_difference_moment_normalised=lambda: p / (1.0 + (i - j) ** 2 / ng**2),
            inverse_variance=lambda: np.where(abs_diff > 0, p / np.maximum(abs_diff, 1) ** 2, 0.0),
            autocorrelation=lambda: i * j * p,
            cluster_tendency=lambda: (cluster**2)[cells.matrix, ksum] * p,
            cluster_shade=lambda: (cluster**3)[cells.matrix, ksum] * p,
            cluster_prominence=lambda: (cluster**4)[cells.matrix, ksum] * p,
            hxy1=lambda: p * log_marg,
        )
    )
    rows = [dict(zip(columns, values)) for values in zip(*(v.tolist() for v in columns.values()))]

    for f in rows:
        hx, hxy1, hxy2 = f.pop("hx"), -f.pop("hxy1"), f.pop("hxy2")
        mu_m, var, hxy = f["joint_average"], f["joint_variance"], f["joint_entropy"]
        f["correlation"] = (f["autocorrelation"] - mu_m * mu_m) / var if var > 0 else math.nan
        f["information_correlation_1"] = (hxy - hxy1) / hx if hx > 0 else math.nan
        f["information_correlation_2"] = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))
    return rows


def glcm_features_from_matrix(counts: np.ndarray) -> dict[str, float]:
    """The 25 co-occurrence features of one symmetric matrix of pair counts
    or probabilities: it is normalized by its own sum first."""
    return _glcm_batch([counts])[0]


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


def glcm_features(d: DiscretizedVolume) -> dict[str, dict[str, float]]:
    """25 base features under dir_avg and dir_merged aggregation (50 total),
    NaN where undefined: every feature when no direction has a pair."""
    return _aggregate_directional(
        glcm_matrices(d), lambda mats: _in_batches(mats, _glcm_batch), GLCM_NAMES
    )


def _row_column_batch(mats: list[np.ndarray], n_voxels: np.ndarray) -> list[dict[str, float]]:
    """The level-by-magnitude emphasis formulas of each count matrix of a
    batch, each matrix's percentage taken over its entry of `n_voxels`."""
    cells = _Cells(mats)
    ns, p, i, j = cells.ns, cells.p, cells.i, cells.j
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
        level_variance=lambda: (i - mu["i"][cells.matrix]) ** 2 * p,
        magnitude_variance=lambda: (j - mu["j"][cells.matrix]) ** 2 * p,
        energy=lambda: p * p,
    )
    columns.update(
        level_non_uniformity=level_sq / ns,
        level_non_uniformity_normalised=level_sq / ns**2,
        magnitude_non_uniformity=magnitude_sq / ns,
        magnitude_non_uniformity_normalised=magnitude_sq / ns**2,
        percentage=ns / n_voxels,
        entropy=cells.entropy_bits(p),
    )
    return [dict(zip(columns, values)) for values in zip(*(v.tolist() for v in columns.values()))]


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

    ps = pp * ss
    coarse_denom = float(np.sum(ps))
    s_total = float(np.sum(ss))
    coarseness = 1.0 / coarse_denom if coarse_denom > 0 else 1.0 / NGTDM_COARSENESS_GUARD

    li, lj = np.meshgrid(levels, levels, indexing="ij")
    if n_gp >= 2:
        pij = np.outer(pp, pp)
        contrast = float(np.sum(pij * (li - lj) ** 2)) / (n_gp * (n_gp - 1)) * s_total / n_vc
    else:
        contrast = 0.0

    ip = levels * pp
    busy_denom = float(np.sum(np.abs(ip[:, None] - ip[None, :])))
    busyness = coarse_denom / busy_denom if busy_denom > 0 else 0.0

    complexity = float(np.sum(np.abs(li - lj) * (ps[:, None] + ps[None, :]) / (pp[:, None] + pp[None, :]))) / n_vc

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
