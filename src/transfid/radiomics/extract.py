"""Full 186-feature extraction for one (volume, mask) pair."""
from __future__ import annotations

import math

from ..config import RunConfig
from ..preprocess import discretize
from ..volume import RoiMask, Volume3D
from .histogram import intensity_histogram_features, ivh_features
from .ids import ALL_FEATURE_IDS, ALL_FEATURE_KEYS, AGG_NONE
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

    Intensity families (LI, IS, IVH) run on continuous values of the whole
    grid. LI convolves its sphere sums on `mask.box` widened by the
    sphere's reach, and takes its in-grid counts as exact integers by edge
    class. `mask.box` is the ROI's bounding box plus one voxel per side,
    which holds every pair, run, zone and neighbourhood that the histogram
    and texture families count. Those run on the volume discretized on the
    box. This function copies the box out and drops its reference to the
    grid before `discretize` runs, so a grid the caller handed over is
    freed before the box is discretized (3.72 -> 2.72 grids at that layer
    on the large benchmark ROI) and is not alive while the texture
    families run (what a worker then holds: `analysis.process_patient`).
    The box and its mask-only arrays (border distance, neighbour counts)
    are cached on `mask`, and LI's kernel transform for the widened box's
    shape (`volume.OneSlot`); every source of a patient is extracted on one
    mask and grid, so they are built once per patient at most.

    A family says a value is undefined by returning NaN for it, and a
    family that raises leaves all its values NaN, unless it ran out of
    memory: a `MemoryError` propagates, and the patient is excluded. Any
    value that is not finite (an overflow's infinity too) is stored as NaN
    and flagged, as are the finite values IVH flags on a constant ROI.
    """
    mask.check_aligned(v)

    results: dict[tuple[str, str], dict[str, float]] = {}
    ivh_flagged: set[str] = set()

    def run(compute) -> None:
        """Store compute()'s {(family, aggregation): values}; a family that
        raises stores nothing and reads as NaN below."""
        try:
            results.update(compute())
        except MemoryError:
            raise
        except Exception:
            pass

    def ivh() -> dict[tuple[str, str], dict[str, float]]:
        values, flagged = ivh_features(v, mask, config.ivh_bins)
        ivh_flagged.update(flagged)
        return {("IVH", AGG_NONE): values}

    run(lambda: {("LI", AGG_NONE): local_intensity(v, mask)})
    run(lambda: {("IS", AGG_NONE): intensity_statistics(v, mask)})
    run(ivh)

    box, box_mask = mask.box
    boxed = Volume3D(box_mask.dims, v.spacing, v.values[box])  # a copy
    del v  # the rest reads the box only; a grid the caller handed over is freed here
    d = discretize(boxed, box_mask, config.scheme)
    del boxed  # d holds the levels
    run(lambda: {("IH", AGG_NONE): intensity_histogram_features(d)})
    run(lambda: {("GLCM", agg): r for agg, r in glcm_features(d).items()})
    run(lambda: {("GLRLM", agg): r for agg, r in glrlm_features(d).items()})
    run(lambda: dict(zip((("GLSZM", AGG_NONE), ("GLDZM", AGG_NONE)), zone_features(d))))
    run(lambda: {("NGTDM", AGG_NONE): ngtdm_features(d)})
    run(lambda: {("NGLDM", AGG_NONE): ngldm_features(d, config.ngldm_alpha)})

    values = {}
    flags = set()
    for fid, key in zip(ALL_FEATURE_IDS, ALL_FEATURE_KEYS):
        value = float(results.get((fid.family, fid.aggregation), {}).get(fid.name, math.nan))
        finite = math.isfinite(value)
        values[key] = value if finite else math.nan
        if not finite or (fid.family == "IVH" and fid.name in ivh_flagged):
            flags.add(key)

    provenance = {
        "scheme": config.scheme.describe(),
        "effective_levels": str(d.ng),
        "config_hash": config.config_hash(),
    }
    return FeatureVector(values=values, flags=frozenset(flags), provenance=provenance)
