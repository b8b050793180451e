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


def _entropy_bits(p: np.ndarray) -> float:
    pos = p[p > 0]
    return float(-np.sum(pos * np.log2(pos)))


def glcm_features_from_matrix(p: np.ndarray) -> tuple[dict[str, float], set[str]]:
    """The 25 co-occurrence features from one normalized symmetric matrix.

    Correlation and the first information correlation are undefined (NaN)
    when the marginal distribution is concentrated on a single level.
    """
    ng = p.shape[0]
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    pi = p.sum(axis=1)
    flagged: set[str] = set()

    mu = float(np.sum(ii * p))
    joint_var = float(np.sum((ii - mu) ** 2 * p))

    # p_minus[k] = P(|i-j| = k), p_plus[k] = P(i+j = k+2)
    abs_diff = np.abs(ii - jj).astype(np.int64)
    p_minus = np.bincount(abs_diff.ravel(), weights=p.ravel(), minlength=ng)
    ksum = (ii + jj).astype(np.int64) - 2
    p_plus = np.bincount(ksum.ravel(), weights=p.ravel(), minlength=2 * ng - 1)
    k_minus = np.arange(ng, dtype=np.float64)
    k_plus = np.arange(2, 2 * ng + 1, dtype=np.float64)

    diff_avg = float(np.sum(k_minus * p_minus))
    sum_avg = float(np.sum(k_plus * p_plus))

    hxy = _entropy_bits(p.ravel())
    hx = _entropy_bits(pi)
    marg = np.outer(pi, pi)
    with np.errstate(divide="ignore"):
        log_marg = np.where(marg > 0, np.log2(np.where(marg > 0, marg, 1.0)), 0.0)
    hxy1 = float(-np.sum(np.where(p > 0, p * log_marg, 0.0)))
    hxy2 = float(-np.sum(np.where(marg > 0, marg * log_marg, 0.0)))

    if joint_var > 0:
        correlation = (float(np.sum(ii * jj * p)) - mu * mu) / joint_var
    else:
        correlation = math.nan
        flagged.add("correlation")
    if hx > 0:
        info_corr_1 = (hxy - hxy1) / hx
    else:
        info_corr_1 = math.nan
        flagged.add("information_correlation_1")
    info_corr_2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))

    with np.errstate(divide="ignore", invalid="ignore"):
        inv_var_terms = np.where(abs_diff > 0, p / np.where(abs_diff > 0, abs_diff, 1) ** 2, 0.0)

    features = {
        "joint_maximum": float(p.max()),
        "joint_average": mu,
        "joint_variance": joint_var,
        "joint_entropy": hxy,
        "difference_average": diff_avg,
        "difference_variance": float(np.sum((k_minus - diff_avg) ** 2 * p_minus)),
        "difference_entropy": _entropy_bits(p_minus),
        "sum_average": sum_avg,
        "sum_variance": float(np.sum((k_plus - sum_avg) ** 2 * p_plus)),
        "sum_entropy": _entropy_bits(p_plus),
        "angular_second_moment": float(np.sum(p * p)),
        "contrast": float(np.sum((ii - jj) ** 2 * p)),
        "dissimilarity": float(np.sum(np.abs(ii - jj) * p)),
        "inverse_difference": float(np.sum(p / (1.0 + np.abs(ii - jj)))),
        "inverse_difference_normalised": float(np.sum(p / (1.0 + np.abs(ii - jj) / ng))),
        "inverse_difference_moment": float(np.sum(p / (1.0 + (ii - jj) ** 2))),
        "inverse_difference_moment_normalised": float(np.sum(p / (1.0 + (ii - jj) ** 2 / ng**2))),
        "inverse_variance": float(np.sum(inv_var_terms)),
        "correlation": correlation,
        "autocorrelation": float(np.sum(ii * jj * p)),
        "cluster_tendency": float(np.sum((ii + jj - 2 * mu) ** 2 * p)),
        "cluster_shade": float(np.sum((ii + jj - 2 * mu) ** 3 * p)),
        "cluster_prominence": float(np.sum((ii + jj - 2 * mu) ** 4 * p)),
        "information_correlation_1": info_corr_1,
        "information_correlation_2": info_corr_2,
    }
    return features, flagged


def _aggregate_directional(
    matrices: list[np.ndarray],
    from_matrix,
    names: tuple[str, ...],
    merged_nv_scale: int = 1,
) -> dict[str, tuple[dict[str, float], set[str]]]:
    """dir_avg and dir_merged aggregations over per-direction matrices.

    Directions with an empty matrix are excluded; per-direction NaN values
    are skipped in the average. An all-directions-empty family yields NaN
    for every feature.
    """
    occupied = [m for m in matrices if m.sum() > 0]
    if not occupied:
        nan_features = {name: math.nan for name in names}
        return {
            "dir_avg": (dict(nan_features), set(names)),
            "dir_merged": (dict(nan_features), set(names)),
        }

    per_dir = [from_matrix(m) for m in occupied]
    avg_features: dict[str, float] = {}
    avg_flagged: set[str] = set()
    for name in names:
        vals = [feats[name] for feats, _ in per_dir if not math.isnan(feats[name])]
        if vals:
            avg_features[name] = float(np.mean(vals))
        else:
            avg_features[name] = math.nan
            avg_flagged.add(name)

    cols = max(m.shape[1] for m in occupied)
    merged = np.zeros((occupied[0].shape[0], cols))
    for m in occupied:
        merged[:, : m.shape[1]] += m
    merged_features, merged_flagged = from_matrix(merged, nv_scale=merged_nv_scale)
    return {"dir_avg": (avg_features, avg_flagged), "dir_merged": (merged_features, merged_flagged)}


def glcm_features(d: DiscretizedVolume) -> dict[str, tuple[dict[str, float], set[str]]]:
    """25 base features under dir_avg and dir_merged aggregation (50 total)."""

    def from_matrix(counts: np.ndarray, nv_scale: int = 1):
        return glcm_features_from_matrix(counts / counts.sum())

    return _aggregate_directional(glcm_matrices(d), from_matrix, GLCM_NAMES)


def row_column_features(counts: np.ndarray, n_voxels: int) -> dict[str, float]:
    """Shared level-by-magnitude emphasis formulas (runs, zones, dependence).

    Generic names: rows are gray levels i, columns are magnitudes j
    (run length, zone size, distance, or dependence count + 1). The
    `*_GENERIC` tables in ids.py map each family's IBSI names onto them.
    """
    ns = counts.sum()
    p = counts / ns
    ng, ncol = counts.shape
    i = np.arange(1, ng + 1, dtype=np.float64)[:, None]
    j = np.arange(1, ncol + 1, dtype=np.float64)[None, :]

    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    mu_i = float(np.sum(i * p))
    mu_j = float(np.sum(j * p))

    return {
        "small_emphasis": float(np.sum(p / (j * j))),
        "large_emphasis": float(np.sum(p * j * j)),
        "low_level_emphasis": float(np.sum(p / (i * i))),
        "high_level_emphasis": float(np.sum(p * i * i)),
        "small_low_emphasis": float(np.sum(p / (i * i * j * j))),
        "small_high_emphasis": float(np.sum(p * i * i / (j * j))),
        "large_low_emphasis": float(np.sum(p * j * j / (i * i))),
        "large_high_emphasis": float(np.sum(p * i * i * j * j)),
        "level_non_uniformity": float(np.sum(row_sums**2) / ns),
        "level_non_uniformity_normalised": float(np.sum(row_sums**2) / ns**2),
        "magnitude_non_uniformity": float(np.sum(col_sums**2) / ns),
        "magnitude_non_uniformity_normalised": float(np.sum(col_sums**2) / ns**2),
        "percentage": float(ns / n_voxels),
        "level_variance": float(np.sum((i - mu_i) ** 2 * p)),
        "magnitude_variance": float(np.sum((j - mu_j) ** 2 * p)),
        "entropy": _entropy_bits(p.ravel()),
        "energy": float(np.sum(p * p)),
    }


def _mapped(generic: dict[str, float], mapping: dict[str, str]) -> dict[str, float]:
    return {name: generic[src] for name, src in mapping.items()}


def glrlm_features(d: DiscretizedVolume) -> dict[str, tuple[dict[str, float], set[str]]]:
    """16 run-length features under dir_avg and dir_merged (32 total).

    For the merged matrix the voxel count scales with the number of
    directions, keeping run percentage in [0, 1].
    """
    n_voxels = d.mask.voxel_count

    def from_matrix(counts: np.ndarray, nv_scale: int = 1):
        generic = row_column_features(counts, n_voxels * nv_scale)
        return _mapped(generic, GLRLM_GENERIC), set()

    return _aggregate_directional(
        glrlm_matrices(d), from_matrix, GLRLM_NAMES, merged_nv_scale=len(DIRECTIONS_13)
    )


def zone_features(
    d: DiscretizedVolume,
) -> tuple[tuple[dict[str, float], set[str]], tuple[dict[str, float], set[str]]]:
    """(GLSZM, GLDZM) feature sets from a single zone decomposition."""
    glszm, gldzm = zone_matrices(d)
    n_voxels = d.mask.voxel_count
    szm = _mapped(row_column_features(glszm, n_voxels), GLSZM_GENERIC)
    dzm = _mapped(row_column_features(gldzm, n_voxels), GLDZM_GENERIC)
    return (szm, set()), (dzm, set())


def ngldm_features(d: DiscretizedVolume, alpha: int = 0) -> tuple[dict[str, float], set[str]]:
    counts = ngldm_matrix(d, alpha)
    generic = row_column_features(counts, d.mask.voxel_count)
    return _mapped(generic, NGLDM_GENERIC), set()


def ngtdm_features(d: DiscretizedVolume) -> tuple[dict[str, float], set[str]]:
    """Coarseness, contrast, busyness, complexity, strength.

    All five are NaN when no voxel has an in-mask neighbor. A zero
    coarseness denominator falls back to the documented 1e-6 guard.
    """
    n_i, s_i = ngtdm_table(d)
    n_vc = n_i.sum()
    if n_vc == 0:
        return {name: math.nan for name in NGTDM_NAMES}, set(NGTDM_NAMES)

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
    }, set()
