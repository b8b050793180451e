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
from .radiomics import ALL_FEATURE_KEYS, FeatureVector, extract_all
from .stats import PairedSample, spearman_rho
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
class Concordance:
    """Spearman rho of each feature across patients, per network.

    `rho[j, k]` is feature `feature_keys[j]` against `networks[k]`, NaN
    where that pair is degenerate; `n_effective[j, k]` counts the patients
    it was taken over. Both are (186, len(networks)) arrays.
    """

    feature_keys: tuple[str, ...]
    networks: list[str]
    rho: np.ndarray
    n_effective: np.ndarray


@dataclass(frozen=True)
class Grouping:
    """Discovery group of each feature, in `Concordance.feature_keys` order.

    `group[j]` is GROUP1, GROUP2 or GROUP3; `passes[j, k]` is whether
    network k's rho exceeds the threshold; `anomalous[j]` marks a Group3
    feature that some network passed anyway.
    """

    group: np.ndarray
    passes: np.ndarray
    anomalous: np.ndarray


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

    One pass per source, the original first: load, check against the mask
    (the original's load sets it), preprocess, extract, then score a network
    against the original. A source is dropped before the next one loads, so
    a worker that scores holds the original and one network. With no metric
    wanted (`extract`), nothing reads a grid once it is extracted: each
    preprocessed grid reaches `extract_all` held by no name here, and
    `extract_all` drops it once its box is copied out, before the box is
    discretized, so while discretization and the histogram and texture
    families run no full grid is alive, only the box's values, levels and
    masks. That takes CPython 3.11 or later, where a call's argument
    references move into the callee; 3.10 keeps them in this frame until
    the call returns.

    On the large benchmark ROI (128x128x64, one grid 8 MiB), the highest
    layer of a worker's first extract-only patient is then the intensity
    statistics, at 3.47 grids (`tracemalloc`, held memory included), with
    local intensity at 3.25 and the zones at 2.99; the memory table
    (tests/test_memory_budget.py, printed by tools/memory_rows.py) pins
    each layer's peak."""
    result = PatientResult()
    slot: list[Volume3D] = []  # the grid at work; a list can give it up to extract_all
    try:
        for source in (ORIGINAL_SOURCE, *record.synthetic_sources):
            slot.append(load_nifti(record.source_paths[source]))
            if source == ORIGINAL_SOURCE:
                mask = load_mask(record.mask_path, slot[-1])
                slot[-1], roi = preprocess_pair(slot[-1], mask, config)
                original = slot[-1] if want_metrics else None
            else:
                mask.check_aligned(slot[-1])
                slot[-1] = preprocess_pair(slot[-1], mask, config)[0]
            if want_features:
                result.features[source] = extract_all(slot[-1] if want_metrics else slot.pop(), roi, config)
            if want_metrics and source != ORIGINAL_SOURCE:
                # an overflow shows as inf or NaN, which the check names
                metrics = compute_metrics(
                    original, slot[-1], ssim_params=config.ssim_params, peak=config.psnr_peak,
                    mask=roi if config.metrics_roi_only else None,
                )
                _check_defined(source, metrics)
                result.metrics[source] = metrics
            slot.clear()  # the next network loads beside the original only
    except (TransfidError, OSError, ValueError, MemoryError) as exc:
        return PatientResult(error=f"{type(exc).__name__}: {exc}")
    return result


def _check_defined(network: str, metrics: MetricSet) -> None:
    """Refuse a NaN metric, an infinite MAE or MSE, or an MSE that is 0 or
    subnormal beside a non-zero MAE: `analyze` could not rank networks by
    it. PSNR is inf exactly when MSE is 0, and stays when the images are
    equal. On finite voxels only an overflow, or squared errors that
    underflow on tiny intensities (to 0, or to subnormals that keep a few
    bits), gets here; normalization keeps every value in [0, 1], unless
    the intensity range itself overflows float64, which it refuses too."""
    for name in METRICS:
        value = getattr(metrics, name)
        if math.isnan(value) or (name in ("mae", "mse") and math.isinf(value)):
            raise UndefinedMetric(
                f"{name} of {network} is {value}: the intensities overflow float64; "
                "set preprocess.normalize to true, unless max - min overflows float64 too, "
                "a range that normalization refuses as well"
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
) -> tuple[list[tuple[PatientRecord, PatientResult]], list[tuple[str, str]]]:
    """Process all patients on at most `jobs` workers; (kept, excluded) in
    manifest order: each kept patient as (record, result), each excluded
    one as (patient_id, reason).

    The pool gets no more workers than there are patients: it starts all
    of them at the first task. A worker that dies (an out-of-memory kill,
    say) breaks the whole pool, and every patient still unfinished then
    runs again alone (`_alone`), so only a patient whose own worker dies
    is lost; every result that came in before the break is kept.
    """
    work = partial(process_patient, config=config, want_features=want_features, want_metrics=want_metrics)
    workers = min(jobs, len(records))
    if workers <= 1:
        results = [work(r) for r in records]
    else:
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(work, r) for r in records]:
                try:
                    results.append(future.result())
                except BrokenProcessPool:
                    results.append(None)
        results = [_alone(work, r) if result is None else result for r, result in zip(records, results)]
    kept = [(r, result) for r, result in zip(records, results) if result.error is None]
    excluded = [(r.patient_id, result.error) for r, result in zip(records, results) if result.error is not None]
    return kept, excluded


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


def build_cohort(manifest: str | Path, config: RunConfig, jobs: int = 1) -> CohortTable:
    """Assemble the full cohort table; failed patients are excluded with a note."""
    kept, excluded = run_pipeline(parse_manifest(manifest), config, jobs=jobs)
    patients = [record.patient_id for record, _ in kept]
    rows: dict[str, list[tuple[int, list[float]]]] = {ORIGINAL_SOURCE: []}
    metrics: dict[tuple[str, str], MetricSet] = {}
    for row, (record, result) in enumerate(kept):
        for source in record.source_paths:
            vector = result.features[source]
            rows.setdefault(source, []).append((row, list(vector.values.values())))
        for network, metric_set in result.metrics.items():
            metrics[(record.patient_id, network)] = metric_set

    if not patients:
        raise CohortTooSmall("no patient could be processed")
    return CohortTable(
        patients=patients,
        networks=[s for s in rows if s != ORIGINAL_SOURCE],
        features={source: feature_table(len(patients), r) for source, r in rows.items()},
        metrics=metrics,
        exclusions=excluded,
    )


def concordance(table: CohortTable) -> Concordance:
    """Spearman rho between original and synthetic feature values per network.

    Patients with a non-finite value on either side are dropped per
    feature; fewer than two usable pairs, or a constant side, makes the
    (feature, network) pair degenerate with NaN rho.
    """
    if len(table.patients) < 2:
        raise CohortTooSmall(f"concordance needs >= 2 patients, got {len(table.patients)}")

    original = table.features[ORIGINAL_SOURCE]
    finite = np.isfinite(original)
    rho = np.full((len(ALL_FEATURE_KEYS), len(table.networks)), np.nan)
    n_effective = np.empty(rho.shape, dtype=np.int64)
    for k, network in enumerate(table.networks):
        synthetic = table.features[network]
        usable = finite & np.isfinite(synthetic)
        n_effective[:, k] = np.count_nonzero(usable, axis=0)
        for j in np.flatnonzero(n_effective[:, k] >= 2):
            ok = usable[:, j]
            rho[j, k] = spearman_rho(PairedSample(original[ok, j], synthetic[ok, j]))
    return Concordance(ALL_FEATURE_KEYS, list(table.networks), rho, n_effective)


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


def classify_groups(result: Concordance, top_network: str, threshold: float = 0.50) -> Grouping:
    """Partition features into the three discovery groups.

    A network passes on strict rho > threshold (NaN never passes).
    Group1 needs a strict majority of networks; Group2 needs the top
    network; everything else is Group3, flagged anomalous when some
    non-top network passed anyway.
    """
    if top_network not in result.networks:
        raise UnknownTopNetwork(f"{top_network!r} not among networks {result.networks}")
    passes = result.rho > threshold
    n_pass = np.count_nonzero(passes, axis=1)
    majority = n_pass > len(result.networks) / 2
    top = passes[:, result.networks.index(top_network)]
    group = np.select([majority, top], [GROUP1, GROUP2], GROUP3)
    return Grouping(group=group, passes=passes, anomalous=~majority & ~top & (n_pass > 0))


def group_counts_by_family(feature_keys: tuple[str, ...], group: np.ndarray) -> dict[str, dict[str, int]]:
    """Group tallies per feature family, plus totals."""
    counts: dict[str, dict[str, int]] = {}
    for key, name in zip(feature_keys, group.tolist()):
        family = key.split(".", 1)[0].upper()
        counts.setdefault(family, {GROUP1: 0, GROUP2: 0, GROUP3: 0})[name] += 1
    counts["TOTAL"] = {name: sum(fam[name] for fam in counts.values()) for name in (GROUP1, GROUP2, GROUP3)}
    return counts
