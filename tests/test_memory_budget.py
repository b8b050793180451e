"""Memory budgets, layer by layer: the `tracemalloc` peak of each layer on a
seeded, numpy-only input, with each cache in a stated state.

Each row of BUDGETS is (layer, input, budget), the budget a multiple of the
input grid's float64 bytes (8 MiB on the 128x128x64 grid). A budget is the
peak measured when the row was written plus 10%: a change that lowers a
peak lowers its budget in the same change, and one that raises a peak says
why. The inputs have the shapes of the large benchmark patient (an
ellipsoid ROI of 313 920 voxels, box 108x108x56) and of the paper's data
(a radius-15 sphere ROI in the same grid).

Most rows measure with each cache filled by a call before, so they see what
a call adds. The cold rows clear the caches first, so they also see what a
worker builds on its first patient and keeps for the rest of its run.

The modules that a layer imports on its first call (numpy.ma, through
`np.median`, and numpy.fft) are imported once per session before any row
is traced, so that a row reads the same run alone and after the others.
"""
import math
import sys
import tracemalloc

import numpy as np
import pytest

from transfid import iqa
from transfid.analysis import process_patient
from transfid.config import RunConfig
from transfid.iqa import SsimParams
from transfid.manifest import ORIGINAL_SOURCE, PatientRecord
from transfid.nifti import save_nifti
from transfid.radiomics import extract as extract_module
from transfid.radiomics.intensity import _sphere_geometry, local_intensity
from transfid.volume import RoiMask, Volume3D

GRID = (128, 128, 64)
GRID_BYTES = 8 * math.prod(GRID)
SPACING = (1.0, 1.0, 1.0)

# the families extract_all runs on the cropped box, after discretize
TEXTURE_FAMILIES = (
    "intensity_histogram_features", "glcm_features", "glrlm_features",
    "zone_features", "ngtdm_features", "ngldm_features",
)


def axes():
    return np.meshgrid(*(np.arange(n, dtype=np.float64) for n in GRID), indexing="ij")


def large_roi() -> np.ndarray:
    """The large benchmark patient's ellipsoid: semi-axes 0.83 of each half-dimension."""
    return sum(((x - (n - 1) / 2) / (0.83 * n / 2)) ** 2 for x, n in zip(axes(), GRID)) <= 1.0


def paper_roi() -> np.ndarray:
    """A radius-15 sphere at the grid's center."""
    return sum((x - n // 2) ** 2 for x, n in zip(axes(), GRID)) <= 15**2


def texture(seed: int) -> np.ndarray:
    """Values in [0, 1]: six random plane waves plus white noise, so that
    FBN 32 makes zones and runs longer than one voxel."""
    rng = np.random.default_rng(seed)
    field = 0.3 * rng.standard_normal(GRID)
    grids = axes()
    for _ in range(6):
        field += np.cos(sum(k * x for k, x in zip(rng.uniform(0.05, 0.4, 3), grids)) + rng.uniform(0, 2 * np.pi))
    return (field - field.min()) / (field.max() - field.min())


@pytest.fixture(scope="session", autouse=True)
def lazy_modules_loaded():
    """Import what the layers import on first use, before any row is traced."""
    import numpy.fft

    np.median(np.arange(3.0))
    numpy.fft.irfft(numpy.fft.rfft(np.ones(4)))


def traced_memory(call) -> tuple[int, int]:
    """(held, peak): the bytes that `call()` allocated and still holds when
    it returns, and their peak while it ran, over what was already held."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(call) -> int:
    """Peak bytes that `call()` allocates over what is already held."""
    return traced_memory(call)[1]


def local_intensity_peak(roi, tmp_path, monkeypatch) -> int:
    """One `local_intensity` call, its sub-grid's kernel transform cached by the call before."""
    volume = Volume3D(GRID, SPACING, texture(0))
    mask = RoiMask(GRID, roi())
    local_intensity(volume, mask)
    return traced_peak(lambda: local_intensity(volume, mask))


def write_patient(roi, tmp_path) -> PatientRecord:
    """An original and two networks, textures of seeds 0 to 2, and `roi`'s
    mask, written as files."""
    paths = {}
    for seed, source in enumerate((ORIGINAL_SOURCE, "net_a", "net_b")):
        paths[source] = str(tmp_path / f"{source}.nii")
        save_nifti(paths[source], Volume3D(GRID, SPACING, texture(seed)))
    save_nifti(tmp_path / "mask.nii", Volume3D(GRID, SPACING, roi().astype(np.float64)))
    return PatientRecord("p0", paths, str(tmp_path / "mask.nii"))


def texture_peak(roi, tmp_path, monkeypatch) -> int:
    """The highest peak of any texture family (the memory held when it
    starts included) inside `process_patient(..., want_metrics=False)` on
    `write_patient`'s files, the spectrum cached by a run before. A full
    grid alive while the families run adds 1 to it."""
    record = write_patient(roi, tmp_path)
    config = RunConfig.from_dict({})
    assert process_patient(record, config, want_metrics=False).error is None

    peaks = []

    def traced(family):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            out = family(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        return call

    for name in TEXTURE_FAMILIES:
        monkeypatch.setattr(extract_module, name, traced(getattr(extract_module, name)))
    traced_peak(lambda: process_patient(record, config, want_metrics=False))
    assert len(peaks) == 3 * len(TEXTURE_FAMILIES)
    return max(peaks)


def patient_peak(want: dict[str, bool]):
    """The peak of one whole `process_patient(..., **want)` on
    `write_patient`'s files, the sphere spectrum and the SSIM window
    weights cached by a run before."""

    def layer(roi, tmp_path, monkeypatch) -> int:
        record = write_patient(roi, tmp_path)
        config = RunConfig.from_dict({})
        assert process_patient(record, config, **want).error is None
        return traced_peak(lambda: process_patient(record, config, **want))

    return layer


def cold_patient(want: dict[str, bool], held: bool):
    """What one whole `process_patient(..., **want)` on `write_patient`'s
    files holds when it returns (`held`) or its peak, the geometry caches
    and the original's moments cleared first, as on a worker's first
    patient."""

    def layer(roi, tmp_path, monkeypatch) -> int:
        record = write_patient(roi, tmp_path)
        config = RunConfig.from_dict({})
        for slot in (_sphere_geometry, iqa._window_geometry, iqa._original_moments):
            slot.cache_clear()
        return traced_memory(lambda: process_patient(record, config, **want))[0 if held else 1]

    return layer


GRIDS_HANDED_OVER = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before CPython 3.11 the caller's frame holds a call's arguments until it returns, "
    "so each grid handed to extract_all stays alive through the texture families",
)

EXTRACT = {"want_metrics": False}
METRICS = {"want_features": False}

BUDGETS = [
    # (layer, input, budget in grids)
    pytest.param(local_intensity_peak, large_roi, 2.63, id="local_intensity-spectrum_cached-large"),
    pytest.param(local_intensity_peak, paper_roi, 0.39, id="local_intensity-spectrum_cached-paper"),
    pytest.param(
        texture_peak, large_roi, 4.89, id="process_patient_extract-texture_families-large",
        marks=GRIDS_HANDED_OVER,
    ),
    pytest.param(
        patient_peak(EXTRACT), paper_roi, 2.54, id="process_patient-extract-paper", marks=GRIDS_HANDED_OVER
    ),
    pytest.param(patient_peak(METRICS), large_roi, 9.21, id="process_patient-metrics-large"),
    pytest.param(patient_peak({}), large_roi, 9.39, id="process_patient-both-large"),
    pytest.param(
        cold_patient(EXTRACT, held=False), large_roi, 5.05, id="process_patient-extract-caches_cleared-large",
        marks=GRIDS_HANDED_OVER,
    ),
    pytest.param(
        cold_patient(EXTRACT, held=False), paper_roi, 2.54, id="process_patient-extract-caches_cleared-paper",
        marks=GRIDS_HANDED_OVER,
    ),
    pytest.param(cold_patient(EXTRACT, held=True), large_roi, 0.16, id="held_after_process_patient-extract-large"),
    pytest.param(cold_patient(EXTRACT, held=True), paper_roi, 0.06, id="held_after_process_patient-extract-paper"),
    # the window weight, the original's moments and, through their key, the original
    pytest.param(cold_patient(METRICS, held=True), large_roi, 3.40, id="held_after_process_patient-metrics-large"),
]


@pytest.mark.parametrize("layer, roi, budget", BUDGETS)
def test_layer_peak_within_budget(layer, roi, budget, tmp_path, monkeypatch):
    peak = layer(roi, tmp_path, monkeypatch)
    assert peak <= budget * GRID_BYTES, f"{peak / GRID_BYTES:.3f} grids"


SLICE = (256, 256, 1)


@pytest.mark.parametrize("cold, budget", [pytest.param(False, 0.12, id="spectrum_cached"),
                                          pytest.param(True, 0.25, id="caches_cleared")])
def test_local_intensity_on_one_slice_within_budget(cold, budget):
    # the sums are taken on the disc's box widened by the sphere's reach
    # (45x45x1), where the 13-plane sphere kernel reaches the single slice
    # with its middle plane only, so the peak is a fraction of the slice's
    # grid, not 13 planes of it
    x, y = np.meshgrid(*(np.arange(n) - n // 2 for n in SLICE[:2]), indexing="ij")
    volume = Volume3D(SLICE, SPACING, np.random.default_rng(0).random(SLICE))
    mask = RoiMask(SLICE, (x * x + y * y <= 15**2)[..., None])
    local_intensity(volume, mask)
    if cold:
        _sphere_geometry.cache_clear()
    peak = traced_peak(lambda: local_intensity(volume, mask))
    _sphere_geometry.cache_clear()
    assert peak <= budget * 8 * math.prod(SLICE), f"{peak / (8 * math.prod(SLICE)):.3f} grids"


def two_originals():
    """The arguments of `_original_moments` for two originals on GRID, with
    the grid's SSIM window weights built first, so that a build's peak is
    the moments' own."""
    params = SsimParams()
    iqa._window_geometry(GRID, params.window, params.sigma)
    return [(Volume3D(GRID, SPACING, texture(seed)), params.window, params.sigma) for seed in (0, 1)]


@pytest.mark.parametrize(
    "build, arguments",
    [
        pytest.param(
            _sphere_geometry, lambda: [(GRID, SPACING), (GRID[:2] + (63,), SPACING)], id="sphere_geometry"
        ),
        pytest.param(
            iqa._window_geometry, lambda: [(GRID, SsimParams().window, SsimParams().sigma),
                                           (GRID[:2] + (63,), SsimParams().window, SsimParams().sigma)],
            id="window_geometry",
        ),
        pytest.param(iqa._original_moments, two_originals, id="original_moments"),
    ],
)
def test_a_new_grid_drops_the_old_entry_before_it_builds(build, arguments):
    # a one-slot cache that built the new grid's (or original's) entry
    # beside the old one would peak at the first build's peak plus the old
    # entry
    first, second = arguments()
    build.cache_clear()
    tracemalloc.start()
    try:
        build(*first)
        first_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        build(*second)
        switch_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        build.cache_clear()
    assert switch_peak <= 1.05 * first_peak, f"{switch_peak / GRID_BYTES:.3f} against {first_peak / GRID_BYTES:.3f} grids"
