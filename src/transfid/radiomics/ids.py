"""Canonical registry of the 186 feature identifiers.

Order is fixed: families in the order below, direction-averaged before
merged-matrix aggregation, names alphabetical within each block. The
registry is asserted at import time to contain exactly 186 entries with
the expected per-family counts.
"""
from __future__ import annotations

from dataclasses import dataclass

FAMILY_ORDER = ("LI", "IS", "IH", "IVH", "GLCM", "GLRLM", "GLSZM", "GLDZM", "NGTDM", "NGLDM")

AGG_NONE = "none"
AGG_DIR_AVG = "dir_avg"
AGG_DIR_MERGED = "dir_merged"

EXPECTED_FAMILY_COUNTS = {
    "LI": 2,
    "IS": 18,
    "IH": 23,
    "IVH": 7,
    "GLCM": 50,
    "GLRLM": 32,
    "GLSZM": 16,
    "GLDZM": 16,
    "NGTDM": 5,
    "NGLDM": 17,
}

LI_NAMES = ("local_peak", "global_peak")

# the 16 statistics basic_distribution_stats returns for IS and IH; the registry sorts names
DISTRIBUTION_NAMES = (
    "coefficient_of_variation",
    "interquartile_range",
    "kurtosis",
    "maximum",
    "mean",
    "mean_absolute_deviation",
    "median",
    "median_absolute_deviation",
    "minimum",
    "percentile_10",
    "percentile_90",
    "quartile_coefficient_of_dispersion",
    "range",
    "robust_mean_absolute_deviation",
    "skewness",
    "variance",
)

IS_NAMES = (*DISTRIBUTION_NAMES, "energy", "root_mean_square")

IH_NAMES = (
    *DISTRIBUTION_NAMES,
    "entropy",
    "mode",
    "uniformity",
    "maximum_gradient",
    "maximum_gradient_level",
    "minimum_gradient",
    "minimum_gradient_level",
)

IVH_NAMES = (
    "area_under_curve",
    "i10",
    "i10_minus_i90",
    "i90",
    "v10",
    "v10_minus_v90",
    "v90",
)

GLCM_NAMES = (
    "angular_second_moment",
    "autocorrelation",
    "cluster_prominence",
    "cluster_shade",
    "cluster_tendency",
    "contrast",
    "correlation",
    "difference_average",
    "difference_entropy",
    "difference_variance",
    "dissimilarity",
    "information_correlation_1",
    "information_correlation_2",
    "inverse_difference",
    "inverse_difference_moment",
    "inverse_difference_moment_normalised",
    "inverse_difference_normalised",
    "inverse_variance",
    "joint_average",
    "joint_entropy",
    "joint_maximum",
    "joint_variance",
    "sum_average",
    "sum_entropy",
    "sum_variance",
)

# The run, zone and dependence families share one set of formulas
# (texture.row_column_features). Each maps its IBSI names to their generic keys.
GLRLM_GENERIC = {
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "grey_level_variance": "level_variance",
    "high_grey_level_run_emphasis": "high_level_emphasis",
    "long_run_emphasis": "large_emphasis",
    "long_run_high_grey_level_emphasis": "large_high_emphasis",
    "long_run_low_grey_level_emphasis": "large_low_emphasis",
    "low_grey_level_run_emphasis": "low_level_emphasis",
    "run_entropy": "entropy",
    "run_length_non_uniformity": "magnitude_non_uniformity",
    "run_length_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "run_length_variance": "magnitude_variance",
    "run_percentage": "percentage",
    "short_run_emphasis": "small_emphasis",
    "short_run_high_grey_level_emphasis": "small_high_emphasis",
    "short_run_low_grey_level_emphasis": "small_low_emphasis",
}
GLRLM_NAMES = tuple(GLRLM_GENERIC)

GLSZM_GENERIC = {
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "grey_level_variance": "level_variance",
    "high_grey_level_zone_emphasis": "high_level_emphasis",
    "large_zone_emphasis": "large_emphasis",
    "large_zone_high_grey_level_emphasis": "large_high_emphasis",
    "large_zone_low_grey_level_emphasis": "large_low_emphasis",
    "low_grey_level_zone_emphasis": "low_level_emphasis",
    "small_zone_emphasis": "small_emphasis",
    "small_zone_high_grey_level_emphasis": "small_high_emphasis",
    "small_zone_low_grey_level_emphasis": "small_low_emphasis",
    "zone_percentage": "percentage",
    "zone_size_entropy": "entropy",
    "zone_size_non_uniformity": "magnitude_non_uniformity",
    "zone_size_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "zone_size_variance": "magnitude_variance",
}
GLSZM_NAMES = tuple(GLSZM_GENERIC)

GLDZM_GENERIC = {
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "grey_level_variance": "level_variance",
    "high_grey_level_zone_emphasis": "high_level_emphasis",
    "large_distance_emphasis": "large_emphasis",
    "large_distance_high_grey_level_emphasis": "large_high_emphasis",
    "large_distance_low_grey_level_emphasis": "large_low_emphasis",
    "low_grey_level_zone_emphasis": "low_level_emphasis",
    "small_distance_emphasis": "small_emphasis",
    "small_distance_high_grey_level_emphasis": "small_high_emphasis",
    "small_distance_low_grey_level_emphasis": "small_low_emphasis",
    "zone_distance_entropy": "entropy",
    "zone_distance_non_uniformity": "magnitude_non_uniformity",
    "zone_distance_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "zone_distance_variance": "magnitude_variance",
    "zone_percentage": "percentage",
}
GLDZM_NAMES = tuple(GLDZM_GENERIC)

NGTDM_NAMES = ("busyness", "coarseness", "complexity", "contrast", "strength")

NGLDM_GENERIC = {
    "dependence_count_energy": "energy",
    "dependence_count_entropy": "entropy",
    "dependence_count_non_uniformity": "magnitude_non_uniformity",
    "dependence_count_non_uniformity_normalised": "magnitude_non_uniformity_normalised",
    "dependence_count_percentage": "percentage",
    "dependence_count_variance": "magnitude_variance",
    "grey_level_non_uniformity": "level_non_uniformity",
    "grey_level_non_uniformity_normalised": "level_non_uniformity_normalised",
    "grey_level_variance": "level_variance",
    "high_dependence_emphasis": "large_emphasis",
    "high_dependence_high_grey_level_emphasis": "large_high_emphasis",
    "high_dependence_low_grey_level_emphasis": "large_low_emphasis",
    "high_grey_level_count_emphasis": "high_level_emphasis",
    "low_dependence_emphasis": "small_emphasis",
    "low_dependence_high_grey_level_emphasis": "small_high_emphasis",
    "low_dependence_low_grey_level_emphasis": "small_low_emphasis",
    "low_grey_level_count_emphasis": "low_level_emphasis",
}
NGLDM_NAMES = tuple(NGLDM_GENERIC)

_FAMILY_NAMES = {
    "LI": LI_NAMES,
    "IS": IS_NAMES,
    "IH": IH_NAMES,
    "IVH": IVH_NAMES,
    "GLCM": GLCM_NAMES,
    "GLRLM": GLRLM_NAMES,
    "GLSZM": GLSZM_NAMES,
    "GLDZM": GLDZM_NAMES,
    "NGTDM": NGTDM_NAMES,
    "NGLDM": NGLDM_NAMES,
}

_DIRECTIONAL_FAMILIES = ("GLCM", "GLRLM")


@dataclass(frozen=True, order=False)
class FeatureId:
    """One canonical feature identifier (family, aggregation, name)."""

    family: str
    aggregation: str
    name: str

    @property
    def key(self) -> str:
        if self.aggregation == AGG_NONE:
            return f"{self.family.lower()}.{self.name}"
        return f"{self.family.lower()}.{self.aggregation}.{self.name}"

    def __str__(self) -> str:
        return self.key


def _build_registry() -> tuple[FeatureId, ...]:
    ids: list[FeatureId] = []
    for family in FAMILY_ORDER:
        names = sorted(_FAMILY_NAMES[family])
        if family in _DIRECTIONAL_FAMILIES:
            for agg in (AGG_DIR_AVG, AGG_DIR_MERGED):
                ids.extend(FeatureId(family, agg, name) for name in names)
        else:
            ids.extend(FeatureId(family, AGG_NONE, name) for name in names)
    return tuple(ids)


ALL_FEATURE_IDS: tuple[FeatureId, ...] = _build_registry()
ALL_FEATURE_KEYS: tuple[str, ...] = tuple(f.key for f in ALL_FEATURE_IDS)


def family_counts(ids=ALL_FEATURE_IDS) -> dict[str, int]:
    counts = {family: 0 for family in FAMILY_ORDER}
    for fid in ids:
        counts[fid.family] += 1
    return counts


def _check_registry() -> None:
    assert len(ALL_FEATURE_IDS) == 186, f"registry has {len(ALL_FEATURE_IDS)} entries"
    counts = family_counts()
    assert counts == EXPECTED_FAMILY_COUNTS, f"family counts off: {counts}"
    assert len(set(ALL_FEATURE_KEYS)) == 186, "duplicate feature keys"


_check_registry()
