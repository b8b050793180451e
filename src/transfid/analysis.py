"""Cohort assembly, per-feature concordance, network ranking, and grouping."""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import CohortTooSmall, TransfidError, UndefinedMetric, UnknownTopNetwork
from .iqa import METRICS, MetricSet, compute_metrics
from .manifest import ORIGINAL_SOURCE, PatientRecord, parse_manifest
from .nifti import load_mask, load_nifti
from .preprocess import crop_centered, min_max_normalize
from .radiomics import ALL_FEATURE_IDS, ALL_FEATURE_KEYS, FeatureVector, extract_all
from .stats import PairedSample, TestResult, paired_t_test, spearman_rho
from .volume import RoiMask, Volume3D

GROUP1 = "Group1"
GROUP2 = "Group2"
GROUP3 = "Group3"


@dataclass
class PatientResult:
    """Per-patient pipeline output, or the reason it was excluded."""

    features: dict[str, FeatureVector] = field(default_factory=dict)
    metrics: dict[str, MetricSet] = field(default_factory=dict)
    error: str | None = None


@dataclass
class CohortTable:
    """Feature values per source and metrics per (patient, network).

    `features[source]` is a (len(patients), 186) float array: row i holds
    patient i's features in registry order, NaN where a value is undefined
    or the patient has no row for that source.
    """

    patients: list[str]
    networks: list[str]
    features: dict[str, np.ndarray]
    metrics: dict[tuple[str, str], MetricSet]
    exclusions: list[tuple[str, str]] = field(default_factory=list)


def feature_table(n_patients: int, rows) -> np.ndarray:
    """(n_patients, 186) array from (patient row, 186 values) pairs; NaN elsewhere."""
    table = np.full((n_patients, len(ALL_FEATURE_KEYS)), np.nan)
    for i, values in rows:
        table[i] = values
    return table


@dataclass(frozen=True)
class ConcordanceRecord:
    """Per-network Spearman rho of one feature across patients."""

    feature_key: str
    rho: dict[str, float]
    n_effective: dict[str, int]
    degenerate: dict[str, bool]


@dataclass(frozen=True)
class GroupAssignment:
    feature_key: str
    group: str
    passes: dict[str, bool]
    anomalous: bool = False


def preprocess_pair(
    volume: Volume3D, mask: RoiMask, config: RunConfig
) -> tuple[Volume3D, RoiMask]:
    """Apply the configured crop/normalize steps to one volume and its mask."""
    if config.normalize and not config.normalize_after_crop:
        volume = min_max_normalize(volume)
    if config.crop is not None:
        volume, mask = crop_centered(volume, mask, config.crop)
    if config.normalize and config.normalize_after_crop:
        volume = min_max_normalize(volume)
    return volume, mask


def process_patient(
    record: PatientRecord, config: RunConfig, want_features: bool = True, want_metrics: bool = True
) -> PatientResult:
    """Load, preprocess, extract, and score one patient; never raises on data errors.

    Each network is loaded, extracted and scored against the original before
    the next one is loaded, so a worker holds the original and one network."""
    result = PatientResult()
    try:
        original = load_nifti(record.source_paths[ORIGINAL_SOURCE])
        mask = load_mask(record.mask_path, original)
        original, roi = preprocess_pair(original, mask, config)
        if want_features:
            result.features[ORIGINAL_SOURCE] = extract_all(original, roi, config)
        metric_mask = roi if config.metrics_roi_only else None
        for source in record.synthetic_sources:
            network = load_nifti(record.source_paths[source])
            mask.check_aligned(network)
            network, _ = preprocess_pair(network, mask, config)
            if want_features:
                result.features[source] = extract_all(network, roi, config)
            if want_metrics:
                # an overflow shows as inf or NaN, which the check names
                metrics = compute_metrics(
                    original, network, ssim_params=config.ssim_params, peak=config.psnr_peak, mask=metric_mask
                )
                _check_defined(source, metrics)
                result.metrics[source] = metrics
            del network  # the next network loads beside the original only
    except (TransfidError, OSError, ValueError, MemoryError) as exc:
        return PatientResult(error=f"{type(exc).__name__}: {exc}")
    return result


def _check_defined(network: str, metrics: MetricSet) -> None:
    """Refuse a NaN metric, an infinite MAE or MSE, or an MSE that is 0 or
    subnormal beside a non-zero MAE: `analyze` could not rank networks by
    it. PSNR is inf exactly when MSE is 0, and stays when the images are
    equal. On finite voxels only an overflow, or squared errors that
    underflow on tiny intensities (to 0, or to subnormals that keep a few
    bits), gets here; normalization keeps every value in [0, 1]."""
    for name in METRICS:
        value = getattr(metrics, name)
        if math.isnan(value) or (name in ("mae", "mse") and math.isinf(value)):
            raise UndefinedMetric(
                f"{name} of {network} is {value}: the intensities overflow float64; "
                "set preprocess.normalize to true"
            )
    if metrics.mae != 0.0 and metrics.mse < np.finfo(np.float64).tiny:
        raise UndefinedMetric(
            f"mse of {network} is {metrics.mse} but mae is {metrics.mae}: the squared errors "
            "underflow float64; set preprocess.normalize to true"
        )


def run_pipeline(
    records: list[PatientRecord],
    config: RunConfig,
    jobs: int = 1,
    want_features: bool = True,
    want_metrics: bool = True,
) -> list[PatientResult]:
    """Process all patients in manifest order, on at most `jobs` workers.

    The pool gets no more workers than there are patients: it starts all
    of them at the first task. A worker that dies (an out-of-memory kill,
    say) breaks the whole pool, and every patient still unfinished then
    runs again alone (`_alone`), so only a patient whose own worker dies
    is lost; every result that came in before the break is kept.
    """
    work = partial(process_patient, config=config, want_features=want_features, want_metrics=want_metrics)
    workers = min(jobs, len(records))
    if workers <= 1:
        return [work(r) for r in records]
    results: list[PatientResult | None] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(work, r) for r in records]:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                results.append(None)
    return [_alone(work, r) if result is None else result for r, result in zip(records, results)]


def _alone(work, record: PatientRecord) -> PatientResult:
    """`work(record)` in a fresh one-worker pool; the patient is excluded
    with `WorkerDied` if that worker dies too."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(work, record).result()
        except BrokenProcessPool:
            return PatientResult(
                error="WorkerDied: the worker process died on this patient, also when run alone "
                "(killed by a signal: out of memory?)"
            )


def build_cohort(
    manifest: str | Path | list[PatientRecord], config: RunConfig, jobs: int = 1
) -> CohortTable:
    """Assemble the full cohort table; failed patients are excluded with a note."""
    records = manifest if isinstance(manifest, list) else parse_manifest(manifest)
    results = run_pipeline(records, config, jobs=jobs)

    patients: list[str] = []
    rows: dict[str, list[tuple[int, list[float]]]] = {ORIGINAL_SOURCE: []}
    metrics: dict[tuple[str, str], MetricSet] = {}
    exclusions: list[tuple[str, str]] = []
    for record, result in zip(records, results):
        if result.error is not None:
            exclusions.append((record.patient_id, result.error))
            continue
        row = len(patients)
        patients.append(record.patient_id)
        for source in record.source_paths:
            vector = result.features[source]
            rows.setdefault(source, []).append((row, [vector[k] for k in ALL_FEATURE_KEYS]))
        for network, metric_set in result.metrics.items():
            metrics[(record.patient_id, network)] = metric_set

    if not patients:
        raise CohortTooSmall("no patient could be processed")
    return CohortTable(
        patients=patients,
        networks=[s for s in rows if s != ORIGINAL_SOURCE],
        features={source: feature_table(len(patients), r) for source, r in rows.items()},
        metrics=metrics,
        exclusions=exclusions,
    )


def concordance(table: CohortTable) -> list[ConcordanceRecord]:
    """Spearman rho between original and synthetic feature values per network.

    Patients with a non-finite value on either side are dropped per
    feature; fewer than two usable pairs, or a constant side, marks the
    (feature, network) pair degenerate with NaN rho.
    """
    if len(table.patients) < 2:
        raise CohortTooSmall(f"concordance needs >= 2 patients, got {len(table.patients)}")

    original = table.features[ORIGINAL_SOURCE]
    finite = np.isfinite(original)
    pairs = {n: (table.features[n], finite & np.isfinite(table.features[n])) for n in table.networks}
    records = []
    for j, fid in enumerate(ALL_FEATURE_IDS):
        rho: dict[str, float] = {}
        n_eff: dict[str, int] = {}
        degenerate: dict[str, bool] = {}
        for network, (synthetic, usable) in pairs.items():
            ok = usable[:, j]
            n_eff[network] = int(np.count_nonzero(ok))
            if n_eff[network] < 2:
                rho[network] = math.nan
                degenerate[network] = True
                continue
            value = spearman_rho(PairedSample(original[ok, j], synthetic[ok, j]))
            rho[network] = value
            degenerate[network] = math.isnan(value)
        records.append(
            ConcordanceRecord(feature_key=fid.key, rho=rho, n_effective=n_eff, degenerate=degenerate)
        )
    return records


def rank_networks(table: CohortTable) -> list[str]:
    """Networks by descending mean SSIM, then ascending mean MAE, then name."""
    means = {}
    for network in table.networks:
        sets = [table.metrics[(p, network)] for p in table.patients if (p, network) in table.metrics]
        if sets:
            mean_ssim = float(np.mean([m.ssim for m in sets]))
            mean_mae = float(np.mean([m.mae for m in sets]))
        else:
            mean_ssim, mean_mae = -math.inf, math.inf
        means[network] = (mean_ssim, mean_mae)
    return sorted(table.networks, key=lambda n: (-means[n][0], means[n][1], n))


def classify_groups(
    records: list[ConcordanceRecord], top_network: str, threshold: float = 0.50
) -> list[GroupAssignment]:
    """Partition features into the three discovery groups.

    A network passes on strict rho > threshold (NaN never passes).
    Group1 needs a strict majority of networks; Group2 needs the top
    network; everything else is Group3, flagged anomalous when some
    non-top network passed anyway.
    """
    assignments = []
    for record in records:
        networks = list(record.rho.keys())
        if top_network not in networks:
            raise UnknownTopNetwork(f"{top_network!r} not among networks {networks}")
        passes = {
            n: (not math.isnan(record.rho[n])) and record.rho[n] > threshold for n in networks
        }
        n_pass = sum(passes.values())
        if n_pass > len(networks) / 2:
            group = GROUP1
            anomalous = False
        elif passes[top_network]:
            group = GROUP2
            anomalous = False
        else:
            group = GROUP3
            anomalous = n_pass > 0
        assignments.append(
            GroupAssignment(
                feature_key=record.feature_key,
                group=group,
                passes=passes,
                anomalous=anomalous,
            )
        )
    return assignments


def compare_networks(
    table: CohortTable, metric_name: str, network_a: str, network_b: str
) -> TestResult:
    """Paired t-test of one metric between two networks over shared patients."""
    if metric_name not in METRICS:
        raise ValueError(f"unknown metric {metric_name!r}")
    xs, ys = [], []
    for pid in table.patients:
        ma = table.metrics.get((pid, network_a))
        mb = table.metrics.get((pid, network_b))
        if ma is not None and mb is not None:
            xs.append(getattr(ma, metric_name))
            ys.append(getattr(mb, metric_name))
    return paired_t_test(PairedSample(np.array(xs), np.array(ys)))


def group_counts_by_family(assignments: list[GroupAssignment]) -> dict[str, dict[str, int]]:
    """Group tallies per feature family, plus totals."""
    counts: dict[str, dict[str, int]] = {}
    for assignment in assignments:
        family = assignment.feature_key.split(".", 1)[0].upper()
        fam = counts.setdefault(family, {GROUP1: 0, GROUP2: 0, GROUP3: 0})
        fam[assignment.group] += 1
    totals = {GROUP1: 0, GROUP2: 0, GROUP3: 0}
    for fam in counts.values():
        for group, n in fam.items():
            totals[group] += n
    counts["TOTAL"] = totals
    return counts
