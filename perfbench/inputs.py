"""Seeded inputs for the benchmark workloads.

The program only sees the files written here: int16 NIfTI-1 volumes, a
manifest and a config for the image workloads, and a features/metrics CSV
pair for analyze_cohort. Volumes come from this module's own generator and
NIfTI writer, so a change to the program cannot change its inputs.

Patients of the image workloads are drawn from fixed pools. The seed picks
which pool patients a cohort holds and in what order; each pool patient is
a pure function of its pool index. Its rows in features.csv/metrics.csv
therefore have one recorded digest whatever the seed
(see reference_digests.json and record_digests.py).
"""
from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

LARGE_DIMS = (128, 128, 64)
SMALL_DIMS = (24, 24, 16)
SPACING = (1.0, 1.0, 1.0)

# semi-axis share of each half-dimension: the ellipsoid covers ~30% of the grid
ELLIPSOID_FRACTION = 0.83
# smoothing of the white-noise texture, in voxels
TEXTURE_SIGMA = 2.0
# int16 storage: values = OFFSET + SCALE * field, field in [0, 1]
INT_OFFSET = 500.0
INT_SCALE = 3000.0

LARGE_POOL = 12
SMALL_REGULAR = 128
SMALL_SINGLE_VOXEL = range(128, 132)
SMALL_CONSTANT = range(132, 136)
SMALL_POOL = SMALL_CONSTANT.stop

# Synthetic "networks": graded degradations of the original.
# name, Gaussian blur sigma (voxels), additive noise sd (share of range), gain
NETWORKS = (
    ("netA", 0.5, 0.01, 1.00),
    ("netB", 0.8, 0.03, 0.97),
    ("netC", 1.2, 0.05, 1.04),
    ("netD", 1.8, 0.08, 0.93),
)

# Distinct entropy tags, so that pools and workloads never share a stream.
_LARGE_TAG = 0x1A
_SMALL_TAG = 0x5A
_ANALYZE_TAG = 0xA7
_PICK_TAG = 0xC0

ORIGINAL = "original_mri"
MASK = "mask"

ANALYZE_PATIENTS = 1000
ANALYZE_NETWORK_STRENGTH = (0.3, 0.6, 1.0, 1.6)
# share of feature cells left empty (NaN) in the generated features.csv
ANALYZE_NAN_SHARE = 0.002
# share of features stored as integer counts, so that ranks have ties
ANALYZE_INTEGER_SHARE = 0.1

SMALL_CONFIG = {"discretize": {"mode": "FBS", "bin_width": 0.04}}


@dataclass(frozen=True)
class Patient:
    """One pool patient: original values in [0, 1] and its ROI."""

    pid: str
    values: np.ndarray
    mask: np.ndarray
    tag: int
    index: int


def _ellipsoid(dims) -> np.ndarray:
    centers = [(d - 1) / 2.0 for d in dims]
    semi = [ELLIPSOID_FRACTION * d / 2.0 for d in dims]
    grids = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij")
    return sum(((g - c) / s) ** 2 for g, c, s in zip(grids, centers, semi)) <= 1.0


def _texture(rng: np.random.Generator, dims) -> np.ndarray:
    field = ndimage.gaussian_filter(rng.standard_normal(dims), TEXTURE_SIGMA, mode="reflect")
    lo, hi = field.min(), field.max()
    return (field - lo) / (hi - lo)


def large_patient(index: int) -> Patient:
    rng = np.random.default_rng((_LARGE_TAG, index))
    return Patient(f"L{index:03d}", _texture(rng, LARGE_DIMS), _ellipsoid(LARGE_DIMS), _LARGE_TAG, index)


def small_patient(index: int) -> Patient:
    """Regular small patients, then single-voxel and constant-intensity ROIs."""
    rng = np.random.default_rng((_SMALL_TAG, index))
    values = _texture(rng, SMALL_DIMS)
    mask = _ellipsoid(SMALL_DIMS)
    if index in SMALL_SINGLE_VOXEL:
        mask = np.zeros(SMALL_DIMS, dtype=bool)
        mask[tuple(d // 2 for d in SMALL_DIMS)] = True
    elif index in SMALL_CONSTANT:
        values = values.copy()
        values[mask] = 0.5
    return Patient(f"S{index:03d}", values, mask, _SMALL_TAG, index)


def degrade(patient: Patient, network: int) -> np.ndarray:
    """Deterministic blur + noise + gain of one patient for one network."""
    _, sigma, noise, gain = NETWORKS[network]
    rng = np.random.default_rng((patient.tag, patient.index, network + 1))
    out = ndimage.gaussian_filter(patient.values, sigma, mode="nearest")
    out = gain * out + noise * rng.standard_normal(out.shape)
    return np.clip(out, 0.0, 1.0)


def nifti_bytes(values: np.ndarray, spacing=SPACING) -> bytes:
    """Single-file little-endian NIfTI-1, int16, no scaling."""
    nx, ny, nz = values.shape
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 4, 16)
    struct.pack_into("<8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", header, 108, 352.0, 0.0, 0.0)
    header[344:348] = b"n+1\x00"
    return bytes(header) + b"\x00" * 4 + values.astype("<i2").tobytes(order="F")


def _to_int(values: np.ndarray) -> np.ndarray:
    return np.rint(INT_OFFSET + INT_SCALE * values).astype(np.int16)


def write_image_cohort(out: Path, patients: list[Patient], networks: int) -> None:
    """Volumes, masks and manifest.csv (paths relative to `out`)."""
    rows = ["patient_id,source,path"]
    for patient in patients:
        sources = [(ORIGINAL, _to_int(patient.values))]
        sources += [(NETWORKS[k][0], _to_int(degrade(patient, k))) for k in range(networks)]
        sources.append((MASK, patient.mask.astype(np.int16)))
        for source, data in sources:
            name = f"{patient.pid}_{source}.nii"
            (out / name).write_bytes(nifti_bytes(data))
            rows.append(f"{patient.pid},{source},{name}")
    (out / "manifest.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


_PICK_STREAMS = {"extract_large": 1, "extract_small": 2, "metrics_cohort": 3}


def _pick(seed: int, workload: str, pool: int, count: int) -> tuple[list[int], np.random.Generator]:
    rng = np.random.default_rng((_PICK_TAG, _PICK_STREAMS[workload], seed))
    return [int(i) for i in rng.choice(pool, size=count, replace=False)], rng


def large_cohort(seed: int, workload: str, count: int) -> list[Patient]:
    """`count` distinct patients of the large pool, in seeded order."""
    picks, _ = _pick(seed, workload, LARGE_POOL, count)
    return [large_patient(i) for i in picks]


def small_cohort(seed: int, regular: int) -> list[Patient]:
    """`regular` ordinary small patients plus one single-voxel and one constant ROI."""
    picks, rng = _pick(seed, "extract_small", SMALL_REGULAR, regular)
    picks.append(int(rng.choice(SMALL_SINGLE_VOXEL)))
    picks.append(int(rng.choice(SMALL_CONSTANT)))
    return [small_patient(picks[i]) for i in rng.permutation(len(picks))]


def write_analyze_inputs(out: Path, seed: int, feature_keys: tuple[str, ...]) -> None:
    """features.csv and metrics.csv for ANALYZE_PATIENTS x 4 networks.

    Each feature has a log-normal original value; network k multiplies it
    by log-normal noise of strength feature_noise * ANALYZE_NETWORK_STRENGTH[k],
    so rho falls with k and features span all three discovery groups.
    """
    rng = np.random.default_rng((_ANALYZE_TAG, seed))
    n, f = ANALYZE_PATIENTS, len(feature_keys)
    networks = [name for name, *_ in NETWORKS]
    location = rng.uniform(-3.0, 3.0, f)
    feature_noise = np.exp(rng.uniform(math.log(0.05), math.log(8.0), f))
    integer = rng.random(f) < ANALYZE_INTEGER_SHARE

    log_x = location + 0.5 * rng.standard_normal((n, f))
    tables = {ORIGINAL: log_x}
    for k, name in enumerate(networks):
        scale = 0.5 * feature_noise * ANALYZE_NETWORK_STRENGTH[k]
        tables[name] = log_x + scale * rng.standard_normal((n, f))
    for name, logs in tables.items():
        values = np.exp(logs)
        values[:, integer] = np.rint(10.0 * values[:, integer])
        values[rng.random((n, f)) < ANALYZE_NAN_SHARE] = math.nan
        tables[name] = values

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["patient_id", "source", *feature_keys, "flags"])
    for p in range(n):
        pid = f"P{p:04d}"
        for source in (ORIGINAL, *networks):
            row = tables[source][p]
            cells = ["" if math.isnan(v) else format(v, ".12g") for v in row.tolist()]
            flags = ";".join(key for key, c in zip(feature_keys, cells) if not c)
            writer.writerow([pid, source, *cells, flags])
    (out / "features.csv").write_text(buf.getvalue(), encoding="utf-8")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["patient_id", "network", "mae", "mse", "ssim", "psnr"])
    for p in range(n):
        for k, name in enumerate(networks):
            mae = 0.02 + 0.01 * k + 0.002 * rng.standard_normal()
            mse = 1.5 * mae * mae
            ssim = 0.95 - 0.05 * k + 0.01 * rng.standard_normal()
            psnr = -10.0 * math.log10(mse)
            writer.writerow([f"P{p:04d}", name, *(format(v, ".9g") for v in (mae, mse, ssim, psnr))])
    (out / "metrics.csv").write_text(buf.getvalue(), encoding="utf-8")


def write_config(out: Path, config: dict) -> None:
    (out / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
