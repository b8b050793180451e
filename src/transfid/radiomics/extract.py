"""Full 186-feature extraction for one (volume, mask) pair."""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..preprocess import DiscretizationScheme, discretize
from ..volume import RoiMask, Volume3D
from .histogram import intensity_histogram_features, ivh_features
from .ids import ALL_FEATURE_IDS, AGG_NONE
from .intensity import intensity_statistics, local_intensity
from .texture import glcm_features, glrlm_features, ngldm_features, ngtdm_features, zone_features
from .vector import FeatureVector


@dataclass(frozen=True)
class ExtractionSettings:
    """Knobs that affect feature values, recorded in vector provenance."""

    scheme: DiscretizationScheme = DiscretizationScheme("FBN", 32)
    ivh_bins: int = 1000
    ngldm_alpha: int = 0
    config_hash: str = ""


def extract_all(
    v: Volume3D, mask: RoiMask, settings: ExtractionSettings = ExtractionSettings()
) -> FeatureVector:
    """Compute all 186 features in canonical order.

    Intensity families (LI, IS, IVH) run on continuous values; the
    histogram and texture families run on the discretized volume. A family
    failure degrades that family to flagged NaNs instead of aborting.
    """
    mask.check_aligned(v)

    results: dict[tuple[str, str], tuple[dict[str, float], set[str]]] = {}

    def run(compute) -> None:
        """Store compute()'s {(family, aggregation): (values, flags)}; a
        family that raises stores nothing and reads as flagged NaNs below."""
        try:
            results.update(compute())
        except Exception:
            pass

    run(lambda: {("LI", AGG_NONE): (local_intensity(v, mask), set())})
    run(lambda: {("IS", AGG_NONE): intensity_statistics(v, mask)})
    run(lambda: {("IVH", AGG_NONE): ivh_features(v, mask, settings.ivh_bins)})

    d = discretize(v, mask, settings.scheme)
    run(lambda: {("IH", AGG_NONE): intensity_histogram_features(d)})
    run(lambda: {("GLCM", agg): r for agg, r in glcm_features(d).items()})
    run(lambda: {("GLRLM", agg): r for agg, r in glrlm_features(d).items()})
    run(lambda: dict(zip((("GLSZM", AGG_NONE), ("GLDZM", AGG_NONE)), zone_features(d))))
    run(lambda: {("NGTDM", AGG_NONE): ngtdm_features(d)})
    run(lambda: {("NGLDM", AGG_NONE): ngldm_features(d, settings.ngldm_alpha)})

    values: dict[str, float] = {}
    flags: set[str] = set()
    for fid in ALL_FEATURE_IDS:
        family_values, family_flags = results.get((fid.family, fid.aggregation), ({}, set()))
        if fid.name in family_values:
            values[fid.key] = float(family_values[fid.name])
            if fid.name in family_flags:
                flags.add(fid.key)
        else:
            values[fid.key] = math.nan
            flags.add(fid.key)

    provenance = {
        "scheme": settings.scheme.describe(),
        "effective_levels": str(d.ng),
        "config_hash": settings.config_hash,
    }
    return FeatureVector(values=values, flags=frozenset(flags), provenance=provenance)
