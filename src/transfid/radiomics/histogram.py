"""Intensity-histogram and intensity-volume-histogram features."""
from __future__ import annotations

import math

import numpy as np

from ..config import MAX_IVH_BINS
from ..preprocess import DiscretizedVolume
from ..volume import RoiMask, Volume3D
from .ids import IVH_NAMES
from .intensity import basic_distribution_stats


def intensity_histogram_features(d: DiscretizedVolume) -> dict[str, float]:
    """The 23 histogram features over discrete gray levels.

    The four gradient features are NaN when there is a single gray level.
    """
    roi_levels = d.roi_levels
    levels = roi_levels.astype(np.float64)
    # the distinct values are the levels 1..ng, so neither a sort nor a search is needed
    distinct = np.arange(1, d.ng + 1, dtype=np.float64)
    features = basic_distribution_stats(
        levels, np.repeat(distinct, d.level_counts), distinct, roi_levels - 1
    )

    counts = d.level_counts.astype(np.float64)
    n = levels.size
    p = counts / n
    occupied = p > 0
    features["mode"] = float(np.argmax(counts) + 1)  # argmax takes the lowest level on ties
    features["entropy"] = float(-np.sum(p[occupied] * np.log2(p[occupied])))
    features["uniformity"] = float(np.sum(p * p))

    if d.ng >= 2:
        grad = np.gradient(counts)
        features["maximum_gradient"] = float(np.max(grad))
        features["maximum_gradient_level"] = float(np.argmax(grad) + 1)
        features["minimum_gradient"] = float(np.min(grad))
        features["minimum_gradient_level"] = float(np.argmin(grad) + 1)
    else:
        for name in ("maximum_gradient", "minimum_gradient"):
            features[name] = features[f"{name}_level"] = math.nan
    return features


def _intensity_at_volume_fraction(
    gammas: np.ndarray, nu: np.ndarray, fraction: float, lo: float, hi: float
) -> float:
    """Interpolated intensity where the volume fraction drops to `fraction`;
    nu[0] is 1 > `fraction`, so the drop comes after the first step."""
    below = np.nonzero(nu <= fraction)[0]
    if below.size == 0:
        return hi
    k = int(below[0])
    g0, g1 = gammas[k - 1], gammas[k]
    n0, n1 = nu[k - 1], nu[k]
    gamma = g0 + (n0 - fraction) * (g1 - g0) / (n0 - n1)
    return lo + gamma * (hi - lo)


def ivh_features(v: Volume3D, mask: RoiMask, ivh_bins: int) -> tuple[dict[str, float], set[str]]:
    """The 7 intensity-volume-histogram features on continuous intensities,
    and the names flagged among them.

    IVH is the one family that flags finite values: on a constant ROI the
    curve is a step, and all seven take a documented convention, flagged.
    A range wider than float64 holds has no curve: all seven are NaN.
    """
    if not 1 <= ivh_bins <= MAX_IVH_BINS:
        raise ValueError(f"ivh_bins must be in [1, {MAX_IVH_BINS}], got {ivh_bins}")
    mask.check_aligned(v)
    roi = v.values[mask.flags]
    lo = float(roi.min())
    hi = float(roi.max())

    if hi == lo:
        features = {
            "v10": 1.0,
            "v90": 1.0,
            "i10": lo,
            "i90": lo,
            "v10_minus_v90": 0.0,
            "i10_minus_i90": 0.0,
            "area_under_curve": 1.0,
        }
        return features, set(IVH_NAMES)
    if not math.isfinite(hi - lo):
        return dict.fromkeys(IVH_NAMES, math.nan), set()

    # the fractional-volume curve nu(gamma), gamma in [0, 1] over `ivh_bins` steps
    gammas = np.linspace(0.0, 1.0, ivh_bins + 1)
    above = roi.size - np.searchsorted(np.sort(roi), lo + gammas * (hi - lo), side="left")
    nu = above / roi.size
    v10 = float(np.interp(0.10, gammas, nu))
    v90 = float(np.interp(0.90, gammas, nu))
    i10 = _intensity_at_volume_fraction(gammas, nu, 0.10, lo, hi)
    i90 = _intensity_at_volume_fraction(gammas, nu, 0.90, lo, hi)
    features = {
        "v10": v10,
        "v90": v90,
        "i10": i10,
        "i90": i90,
        "v10_minus_v90": v10 - v90,
        "i10_minus_i90": i10 - i90,
        "area_under_curve": float(np.trapezoid(nu, gammas)),
    }
    return features, set()
