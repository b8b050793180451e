"""Probes on transfid's layer entry points and the per-layer metrics.

Each probe replaces the attribute that the caller looks up (for example
`transfid.radiomics.texture.glrlm_matrices`, which `glrlm_features` calls),
so the program itself is unchanged. A metric named `<span>_s` is the summed
self time of the spans of that name.
"""
from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter

from spans import Span, Tracer, self_times

# (module, attribute, span name). Several attributes may share a span name;
# their self times add up in the one metric.
PROBES = (
    ("transfid.cli", "cmd_extract", "cli.write_csv"),
    ("transfid.cli", "cmd_metrics", "cli.write_csv"),
    ("transfid.cli", "cmd_analyze", "cli.write_csv"),
    ("transfid.cli", "parse_manifest", "cli.read_csv"),
    ("transfid.cli", "_read_features_csv", "cli.read_csv"),
    ("transfid.cli", "_read_metrics_csv", "cli.read_csv"),
    ("transfid.cli", "FeatureVector", "radiomics.vector.validate"),
    ("transfid.analysis", "process_patient", "analysis.patient"),
    ("transfid.analysis", "load_nifti", "nifti.load"),
    ("transfid.analysis", "load_mask", "nifti.load"),
    ("transfid.analysis", "preprocess_pair", "preprocess.prep"),
    ("transfid.analysis", "extract_all", "radiomics.extract.self"),
    ("transfid.analysis", "compute_metrics", "iqa.pointwise"),
    ("transfid.analysis", "concordance", "analysis.concordance"),
    ("transfid.analysis", "spearman_rho", "stats.spearman"),
    ("transfid.analysis", "rank_networks", "analysis.rank"),
    ("transfid.analysis", "classify_groups", "analysis.classify"),
    ("transfid.iqa", "ssim3d", "iqa.ssim"),
    ("transfid.iqa", "mae", "iqa.pointwise"),
    ("transfid.iqa", "mse", "iqa.pointwise"),
    ("transfid.iqa", "psnr", "iqa.pointwise"),
    ("transfid.radiomics.extract", "discretize", "preprocess.discretize"),
    ("transfid.radiomics.extract", "FeatureVector", "radiomics.vector.validate"),
    ("transfid.radiomics.extract", "local_intensity", "radiomics.intensity.local"),
    ("transfid.radiomics.extract", "intensity_statistics", "radiomics.intensity.stats"),
    ("transfid.radiomics.extract", "intensity_histogram_features", "radiomics.histogram.ih"),
    ("transfid.radiomics.extract", "ivh_features", "radiomics.histogram.ivh"),
    ("transfid.radiomics.extract", "glcm_features", "radiomics.texture.glcm_formula"),
    ("transfid.radiomics.extract", "glrlm_features", "radiomics.texture.glrlm_formula"),
    ("transfid.radiomics.extract", "zone_features", "radiomics.texture.zone_formula"),
    ("transfid.radiomics.extract", "ngtdm_features", "radiomics.texture.ngtdm_formula"),
    ("transfid.radiomics.extract", "ngldm_features", "radiomics.texture.ngldm_formula"),
    ("transfid.radiomics.texture", "glcm_matrices", "radiomics.matrices.glcm"),
    ("transfid.radiomics.texture", "glrlm_matrices", "radiomics.matrices.glrlm"),
    ("transfid.radiomics.texture", "zone_matrices", "radiomics.matrices.zones"),
    ("transfid.radiomics.texture", "ngtdm_table", "radiomics.matrices.ngtdm"),
    ("transfid.radiomics.texture", "ngldm_matrix", "radiomics.matrices.ngldm"),
)

FAMILY_PREFIXES = ("radiomics.texture.", "radiomics.intensity.", "radiomics.histogram.")

# (metric, unit, better), in report order; BENCHMARK.json lists the same.
PER_LAYER = (
    ("radiomics.matrices.glrlm_s", "s", "lower"),
    ("radiomics.matrices.zones_s", "s", "lower"),
    ("radiomics.matrices.glcm_s", "s", "lower"),
    ("radiomics.matrices.ngtdm_s", "s", "lower"),
    ("radiomics.matrices.ngldm_s", "s", "lower"),
    ("radiomics.matrices.roi_voxels", "count", "lower"),
    ("radiomics.texture.glcm_formula_s", "s", "lower"),
    ("radiomics.texture.glrlm_formula_s", "s", "lower"),
    ("radiomics.texture.zone_formula_s", "s", "lower"),
    ("radiomics.texture.ngtdm_formula_s", "s", "lower"),
    ("radiomics.texture.ngldm_formula_s", "s", "lower"),
    ("radiomics.intensity.local_s", "s", "lower"),
    ("radiomics.intensity.stats_s", "s", "lower"),
    ("radiomics.histogram.ih_s", "s", "lower"),
    ("radiomics.histogram.ivh_s", "s", "lower"),
    ("radiomics.extract.self_s", "s", "lower"),
    ("radiomics.extract.family_fallbacks", "count", "lower"),
    ("radiomics.extract.families_attempted", "count", "lower"),
    ("radiomics.vector.validate_s", "s", "lower"),
    ("radiomics.vector.flagged", "count", "lower"),
    ("preprocess.prep_s", "s", "lower"),
    ("preprocess.discretize_s", "s", "lower"),
    ("preprocess.levels", "count", "lower"),
    ("nifti.load_s", "s", "lower"),
    ("nifti.bytes_read", "count", "lower"),
    ("iqa.ssim_s", "s", "lower"),
    ("iqa.pointwise_s", "s", "lower"),
    ("iqa.voxels", "count", "lower"),
    ("analysis.patient_s_p50", "s", "lower"),
    ("analysis.patient_s_tail", "s", "lower"),
    ("analysis.pool_cpu_ratio", "ratio", "higher"),
    ("analysis.concordance_s", "s", "lower"),
    ("analysis.rank_s", "s", "lower"),
    ("analysis.classify_s", "s", "lower"),
    ("stats.spearman_s", "s", "lower"),
    ("stats.spearman_calls", "count", "lower"),
    ("cli.read_csv_s", "s", "lower"),
    ("cli.write_csv_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class ProgramProbes:
    """Installs PROBES on a tracer; keeps counts and (patient, source) attribution."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self._source_of_path: dict[str, str] = {}
        self._source_of_object: dict[int, str] = {}

    def install(self) -> None:
        hooks = {
            "process_patient": (self._enter_patient, None),
            "load_nifti": (self._enter_load, self._name_result),
            "load_mask": (self._enter_load, self._name_result),
            "preprocess_pair": (self._source_from_arg(0), self._name_first_result),
            "extract_all": (self._source_from_arg(0), None),
            "compute_metrics": (self._enter_metrics, None),
            "discretize": (None, self._count_levels),
            "FeatureVector": (None, self._count_flags),
            "glcm_matrices": (self._count_roi, None),
        }
        for module_name, attr, name in PROBES:
            before, after = hooks.get(attr, (None, None))
            self.tracer.patch(importlib.import_module(module_name), attr, name, before, after)

    def _enter_patient(self, span: Span, args, kwargs) -> None:
        record = args[0]
        span.patient = record.patient_id
        self._source_of_path = {path: source for source, path in record.source_paths.items()}
        self._source_of_path[record.mask_path] = "mask"
        self._source_of_object = {}

    def _enter_load(self, span: Span, args, kwargs) -> None:
        path = args[0]
        span.source = self._source_of_path.get(path)
        self.counts["nifti.bytes_read"] += os.path.getsize(path)

    def _name_result(self, span: Span, result) -> None:
        if span.source is not None:
            self._source_of_object[id(result)] = span.source

    def _name_first_result(self, span: Span, result) -> None:
        self._name_result(span, result[0])

    def _source_from_arg(self, index: int):
        def before(span: Span, args, kwargs) -> None:
            span.source = self._source_of_object.get(id(args[index]), span.source)

        return before

    def _enter_metrics(self, span: Span, args, kwargs) -> None:
        span.source = self._source_of_object.get(id(args[1]), span.source)
        self.counts["iqa.voxels"] += args[0].values.size

    def _count_levels(self, span: Span, result) -> None:
        self.counts["preprocess.levels"] += result.ng

    def _count_flags(self, span: Span, result) -> None:
        self.counts["radiomics.vector.flagged"] += len(result.flags)

    def _count_roi(self, span: Span, args, kwargs) -> None:
        self.counts["radiomics.matrices.roi_voxels"] += args[0].mask.voxel_count


# counts kept by ProgramProbes, reported as they are
COUNTED = ("radiomics.matrices.roi_voxels", "radiomics.vector.flagged", "preprocess.levels",
           "nifti.bytes_read", "iqa.voxels")


def invocation_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer values of one traced invocation, without the two ratios."""
    by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] += own
    patient = [s.duration for s in spans if s.name == "analysis.patient"]
    families = [s for s in spans if s.name.startswith(FAMILY_PREFIXES)]
    values = {metric: by_name[metric[: -len("_s")]] for metric, _, _ in PER_LAYER if metric.endswith("_s")}
    values.update({key: counts[key] for key in COUNTED})
    values.update(
        {
            "analysis.patient_s_p50": statistics.median(patient) if patient else 0.0,
            "analysis.patient_s_tail": max(patient) if patient else 0.0,
            "radiomics.extract.families_attempted": len(families),
            "radiomics.extract.family_fallbacks": sum(s.raised for s in families),
            "stats.spearman_calls": sum(s.name == "stats.spearman" for s in spans),
        }
    )
    return values
