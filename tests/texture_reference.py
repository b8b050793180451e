"""Per-matrix reference for the GLCM and GLRLM feature formulas.

These are the formulas `transfid.radiomics.texture` evaluated one matrix
at a time before it batched every direction into one pass, kept verbatim.
The batched engine must reproduce them with `==`, not within a tolerance:
each of its sums reduces exactly the elements of one matrix, in the same
order, so the result has the same bits.
"""
from __future__ import annotations

import math

import numpy as np

from transfid.radiomics.ids import GLCM_NAMES, GLRLM_GENERIC, GLRLM_NAMES
from transfid.radiomics.matrices import DIRECTIONS_13, glcm_matrices, glrlm_matrices


def _entropy_bits(p: np.ndarray) -> float:
    pos = p[p > 0]
    return float(-np.sum(pos * np.log2(pos)))


def glcm_features_from_matrix(p: np.ndarray) -> tuple[dict[str, float], set[str]]:
    ng = p.shape[0]
    i = np.arange(1, ng + 1, dtype=np.float64)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    pi = p.sum(axis=1)
    flagged: set[str] = set()

    mu = float(np.sum(ii * p))
    joint_var = float(np.sum((ii - mu) ** 2 * p))

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


def _aggregate_directional(matrices, from_matrix, names, merged_nv_scale=1):
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


def glcm_features(d):
    def from_matrix(counts, nv_scale=1):
        return glcm_features_from_matrix(counts / counts.sum())

    return _aggregate_directional(glcm_matrices(d), from_matrix, GLCM_NAMES)


def row_column_features(counts: np.ndarray, n_voxels: int) -> dict[str, float]:
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


def glrlm_features(d):
    n_voxels = d.mask.voxel_count

    def from_matrix(counts, nv_scale=1):
        generic = row_column_features(counts, n_voxels * nv_scale)
        return {name: generic[src] for name, src in GLRLM_GENERIC.items()}, set()

    return _aggregate_directional(
        glrlm_matrices(d), from_matrix, GLRLM_NAMES, merged_nv_scale=len(DIRECTIONS_13)
    )
