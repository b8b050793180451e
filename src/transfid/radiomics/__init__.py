"""Standardized radiomic feature extraction: 186 features in 10 families."""

from .extract import extract_all
from .histogram import intensity_histogram_features, ivh_features
from .ids import (
    ALL_FEATURE_IDS,
    ALL_FEATURE_KEYS,
    EXPECTED_FAMILY_COUNTS,
    FAMILY_ORDER,
    FeatureId,
    family_counts,
)
from .intensity import intensity_statistics, local_intensity
from .texture import (
    glcm_features,
    glrlm_features,
    ngldm_features,
    ngtdm_features,
    zone_features,
)
from .vector import FeatureVector

__all__ = [
    "ALL_FEATURE_IDS",
    "ALL_FEATURE_KEYS",
    "EXPECTED_FAMILY_COUNTS",
    "FAMILY_ORDER",
    "FeatureId",
    "FeatureVector",
    "extract_all",
    "family_counts",
    "glcm_features",
    "glrlm_features",
    "intensity_histogram_features",
    "intensity_statistics",
    "ivh_features",
    "local_intensity",
    "ngldm_features",
    "ngtdm_features",
    "zone_features",
]
