"""Full 186-feature extraction for one (volume, mask) pair."""
from __future__ import annotations

import math

from ..config import RunConfig
from ..preprocess import discretize
from ..volume import RoiMask, Volume3D
from .histogram import intensity_histogram_features, ivh_features
from .ids import ALL_FEATURE_IDS, AGG_NONE
from .intensity import intensity_statistics, local_intensity
from .texture import glcm_features, glrlm_features, ngldm_features, ngtdm_features, zone_features
from .vector import FeatureVector


def extract_all(
    v: Volume3D, mask: RoiMask, config: RunConfig = RunConfig.from_dict({})
) -> FeatureVector:
    """Compute all 186 features in canonical order.

    `config` supplies the discretization scheme, the IVH bin count and the
    NGLDM tolerance; the vector's provenance records the scheme, the
    effective gray levels and `config.config_hash()`.

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
    run(lambda: {("IVH", AGG_NONE): ivh_features(v, mask, config.ivh_bins)})

    d = discretize(v, mask, config.scheme)
    run(lambda: {("IH", AGG_NONE): intensity_histogram_features(d)})
    run(lambda: {("GLCM", agg): r for agg, r in glcm_features(d).items()})
    run(lambda: {("GLRLM", agg): r for agg, r in glrlm_features(d).items()})
    run(lambda: dict(zip((("GLSZM", AGG_NONE), ("GLDZM", AGG_NONE)), zone_features(d))))
    run(lambda: {("NGTDM", AGG_NONE): ngtdm_features(d)})
    run(lambda: {("NGLDM", AGG_NONE): ngldm_features(d, config.ngldm_alpha)})

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
        "scheme": config.scheme.describe(),
        "effective_levels": str(d.ng),
        "config_hash": config.config_hash(),
    }
    return FeatureVector(values=values, flags=frozenset(flags), provenance=provenance)
