"""Memory budgets, layer by layer: the `tracemalloc` peak of each layer on a
seeded, numpy-only input, with each cache in a stated state.

Each row of BUDGETS is (layer, input, budget), the budget a multiple of the
input grid's float64 bytes (8 MiB on the 128x128x64 grid). A budget is the
peak measured when the row was written plus 10%: a change that lowers a
peak lowers its budget in the same change, and one that raises a peak says
why. `tools/memory_rows.py` prints each row's peak beside its budget and
the budget that peak sets, each row in a fresh interpreter, so a budget is
re-set from its printed number, not from an assertion's message. The
inputs have the shapes of the large benchmark patient (an ellipsoid ROI of
313 920 voxels, box 108x108x56) and of the paper's data (a radius-15
sphere ROI in the same grid).

Most rows measure after a call before on the same input, so they see what
a call adds. The cold rows clear the one cache that outlives a call, the
original's SSIM moments (`iqa.OneSlot`), first, so they also see what a
worker builds on its first patient and keeps until its next.

The module that a layer imports on its first call (numpy.fft) is imported
once per session before any row is traced, so that a row reads the same
run alone and after the others.
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
from transfid.preprocess import discretize
from transfid.radiomics import extract as extract_module
from transfid.radiomics.intensity import intensity_statistics, local_intensity
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


def load_lazy_modules() -> None:
    """Import what the layers import on first use, before any row is traced."""
    import numpy.fft

    numpy.fft.irfft(numpy.fft.rfft(np.ones(4)))


@pytest.fixture(scope="session", autouse=True)
def lazy_modules_loaded():
    load_lazy_modules()


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
    """One `local_intensity` call, the mask's box cached by the call before."""
    volume = Volume3D(GRID, SPACING, texture(0))
    mask = RoiMask(GRID, roi())
    local_intensity(volume, mask)
    return traced_peak(lambda: local_intensity(volume, mask))


def intensity_statistics_peak(roi, tmp_path, monkeypatch) -> int:
    """One `intensity_statistics` call on float values: every ROI value is
    distinct, so `np.unique`'s arrays are ROI-sized."""
    volume = Volume3D(GRID, SPACING, texture(0))
    mask = RoiMask(GRID, roi())
    return traced_peak(lambda: intensity_statistics(volume, mask))


def discretize_peak(roi, tmp_path, monkeypatch) -> int:
    """One `discretize` call on the ROI's box, as `extract_all` copies it
    out of the grid, at the default FBN scheme."""
    volume = Volume3D(GRID, SPACING, texture(0))
    box, box_mask = RoiMask(GRID, roi()).box
    boxed = Volume3D(box_mask.dims, SPACING, volume.values[box])
    scheme = RunConfig.from_dict({}).scheme
    return traced_peak(lambda: discretize(boxed, box_mask, scheme))


def write_patient(roi, tmp_path) -> PatientRecord:
    """An original and two networks, textures of seeds 0 to 2, and `roi`'s
    mask, written as files."""
    paths = {}
    for seed, source in enumerate((ORIGINAL_SOURCE, "net_a", "net_b")):
        paths[source] = str(tmp_path / f"{source}.nii")
        save_nifti(paths[source], Volume3D(GRID, SPACING, texture(seed)))
    save_nifti(tmp_path / "mask.nii", Volume3D(GRID, SPACING, roi().astype(np.float64)))
    return PatientRecord("p0", paths, str(tmp_path / "mask.nii"))


def in_patient_peak(layers: tuple[str, ...]):
    """The highest peak of the named `extract_all` layers (the memory held
    when each starts included) inside `process_patient(...,
    want_metrics=False)` on `write_patient`'s files, after a run before. A
    full grid alive while they run adds 1 to it."""

    def layer(roi, tmp_path, monkeypatch) -> int:
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

        for name in layers:
            monkeypatch.setattr(extract_module, name, traced(getattr(extract_module, name)))
        traced_peak(lambda: process_patient(record, config, want_metrics=False))
        assert len(peaks) == 3 * len(layers)
        return max(peaks)

    return layer


def patient_peak(want: dict[str, bool]):
    """The peak of one whole `process_patient(..., **want)` on
    `write_patient`'s files, after a run before."""

    def layer(roi, tmp_path, monkeypatch) -> int:
        record = write_patient(roi, tmp_path)
        config = RunConfig.from_dict({})
        assert process_patient(record, config, **want).error is None
        return traced_peak(lambda: process_patient(record, config, **want))

    return layer


def cold_patient(want: dict[str, bool], held: bool):
    """What one whole `process_patient(..., **want)` on `write_patient`'s
    files holds when it returns (`held`) or its peak, the original's
    moments cleared first, as on a worker's first patient."""

    def layer(roi, tmp_path, monkeypatch) -> int:
        record = write_patient(roi, tmp_path)
        config = RunConfig.from_dict({})
        iqa._original_moments.cache_clear()
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
    # the kernel's transform is built inside each call, not kept from the
    # call before: large 1.825 -> 1.835 grids, paper 0.355 -> 0.404
    pytest.param(local_intensity_peak, large_roi, 2.02, id="local_intensity-large"),
    pytest.param(local_intensity_peak, paper_roi, 0.45, id="local_intensity-paper"),
    pytest.param(intensity_statistics_peak, large_roi, 3.23, id="intensity_statistics-large"),
    pytest.param(discretize_peak, large_roi, 1.84, id="discretize-large"),
    pytest.param(
        in_patient_peak(TEXTURE_FAMILIES), large_roi, 3.18, id="process_patient_extract-texture_families-large",
        marks=GRIDS_HANDED_OVER,
    ),
    # the box is copied out and the grid dropped before discretize runs
    pytest.param(
        in_patient_peak(("discretize",)), large_roi, 2.84, id="process_patient_extract-discretize-large",
        marks=GRIDS_HANDED_OVER,
    ),
    pytest.param(
        patient_peak(EXTRACT), paper_roi, 2.54, id="process_patient-extract-paper", marks=GRIDS_HANDED_OVER
    ),
    # the window weights (0.09 grids) are built with each original's moments,
    # where a grid-keyed slot kept them from the run before; a worker held
    # them then too, so its high-water mark is the same
    pytest.param(patient_peak(METRICS), large_roi, 9.31, id="process_patient-metrics-large"),
    pytest.param(patient_peak({}), large_roi, 9.49, id="process_patient-both-large"),
    pytest.param(
        cold_patient(EXTRACT, held=False), large_roi, 4.64, id="process_patient-extract-caches_cleared-large",
        marks=GRIDS_HANDED_OVER,
    ),
    pytest.param(
        cold_patient(EXTRACT, held=False), paper_roi, 2.54, id="process_patient-extract-caches_cleared-paper",
        marks=GRIDS_HANDED_OVER,
    ),
    # an extract worker keeps nothing of its last patient
    pytest.param(cold_patient(EXTRACT, held=True), large_roi, 0.01, id="held_after_process_patient-extract-large"),
    pytest.param(cold_patient(EXTRACT, held=True), paper_roi, 0.01, id="held_after_process_patient-extract-paper"),
    # the window weight, the original's moments and, through their key, the original
    pytest.param(cold_patient(METRICS, held=True), large_roi, 3.40, id="held_after_process_patient-metrics-large"),
]


@pytest.mark.parametrize("layer, roi, budget", BUDGETS)
def test_layer_peak_within_budget(layer, roi, budget, tmp_path, monkeypatch):
    peak = layer(roi, tmp_path, monkeypatch)
    assert peak <= budget * GRID_BYTES, f"{peak / GRID_BYTES:.3f} grids"


SLICE = (256, 256, 1)


def test_local_intensity_on_one_slice_within_budget():
    # the sums are taken on the disc's box widened by the sphere's reach
    # (45x45x1), where the 13-plane sphere kernel reaches the single slice
    # with its middle plane only, so the peak is a fraction of the slice's
    # grid, not 13 planes of it: 0.181 grids of the slice, the kernel's
    # transform built in the call
    x, y = np.meshgrid(*(np.arange(n) - n // 2 for n in SLICE[:2]), indexing="ij")
    volume = Volume3D(SLICE, SPACING, np.random.default_rng(0).random(SLICE))
    mask = RoiMask(SLICE, (x * x + y * y <= 15**2)[..., None])
    local_intensity(volume, mask)
    peak = traced_peak(lambda: local_intensity(volume, mask))
    assert peak <= 0.20 * 8 * math.prod(SLICE), f"{peak / (8 * math.prod(SLICE)):.3f} grids"


@pytest.mark.parametrize("roi", [large_roi, paper_roi], ids=["large", "paper"])
def test_local_intensity_holds_nothing_when_it_returns(roi):
    # the kernel, its transform and the counts' table are built in the call
    # and dropped with it: less than the 13^3 sphere kernel alone (17.6 KB)
    # is left once the call returns, the mask's box cached by the call before
    volume = Volume3D(GRID, SPACING, texture(0))
    mask = RoiMask(GRID, roi())
    local_intensity(volume, mask)
    held = traced_memory(lambda: local_intensity(volume, mask))[0]
    assert held <= 4096, f"{held} bytes"


def two_originals():
    """The arguments of `_original_moments` for two originals on GRID."""
    params = SsimParams()
    return [(Volume3D(GRID, SPACING, texture(seed)), params.window, params.sigma) for seed in (0, 1)]


# one case per `OneSlot` in the package
@pytest.mark.parametrize(
    "build, arguments", [pytest.param(iqa._original_moments, two_originals, id="original_moments")]
)
def test_a_new_grid_drops_the_old_entry_before_it_builds(build, arguments):
    # a one-slot cache that built the new original's entry beside the old
    # one would peak at the first build's peak plus the old entry
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
