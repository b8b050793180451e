"""Texture on the ROI's bounding box equals texture on the whole grid.

`extract_all` discretizes the volume on `RoiMask.box`, the ROI's bounding
box plus one voxel per side. Every histogram and texture value it writes
must carry the same bits, and the same flags, as those families run on the
whole-grid `discretize(v, mask, scheme)`, which serves here as the
reference only.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfid import volume
from transfid.analysis import process_patient
from transfid.config import RunConfig
from transfid.manifest import ORIGINAL_SOURCE, PatientRecord
from transfid.nifti import save_nifti
from transfid.phantom import generate_phantom
from transfid.preprocess import crop_centered, discretize
from transfid.radiomics import extract_all
from transfid.radiomics.histogram import intensity_histogram_features
from transfid.radiomics.ids import AGG_NONE, ALL_FEATURE_IDS
from transfid.radiomics.texture import (
    glcm_features,
    glrlm_features,
    ngldm_features,
    ngtdm_features,
    zone_features,
)

from conftest import make_mask, make_volume

FACES = [(axis, side) for axis in range(3) for side in (0, 1)]
SCHEMES = (
    {"mode": "FBN", "bins": 5},
    {"mode": "FBN", "bins": 3},
    {"mode": "FBS", "bin_width": 0.15},
)


def whole_grid_texture(v, mask, config) -> dict[str, float]:
    """The histogram and texture families on the whole-grid discretization."""
    d = discretize(v, mask, config.scheme)
    results = {("IH", AGG_NONE): intensity_histogram_features(d)}
    results.update({("GLCM", agg): r for agg, r in glcm_features(d).items()})
    results.update({("GLRLM", agg): r for agg, r in glrlm_features(d).items()})
    results.update(zip((("GLSZM", AGG_NONE), ("GLDZM", AGG_NONE)), zone_features(d)))
    results[("NGTDM", AGG_NONE)] = ngtdm_features(d)
    results[("NGLDM", AGG_NONE)] = ngldm_features(d, config.ngldm_alpha)
    return {
        fid.key: results[(fid.family, fid.aggregation)][fid.name]
        for fid in ALL_FEATURE_IDS
        if (fid.family, fid.aggregation) in results
    }


def assert_box_is_whole_grid(v, mask, config):
    vec = extract_all(v, mask, config)
    expected = whole_grid_texture(v, mask, config)
    assert len(expected) == 186 - 2 - 18 - 7  # all but LI, IS and IVH
    assert {k: float.hex(vec[k]) for k in expected} == {k: float.hex(x) for k, x in expected.items()}
    assert {k for k in expected if vec.is_flagged(k)} == {k for k, x in expected.items() if math.isnan(x)}


def config_of(scheme: dict, alpha: int = 0) -> RunConfig:
    return RunConfig.from_dict({"discretize": scheme, "ngldm": {"alpha": alpha}})


@st.composite
def roi_on_face(draw, face):
    """A volume with 1 to 7 voxels per axis and a random ROI inside a
    random sub-box that reaches `face` and holds one voxel on it."""
    axis, side = face
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    lo = [draw(st.integers(0, n - 1)) for n in dims]
    hi = [draw(st.integers(low + 1, n)) for low, n in zip(lo, dims)]
    if side == 0:
        lo[axis] = 0
    else:
        hi[axis] = dims[axis]
    n = dims[0] * dims[1] * dims[2]
    inside = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(dims)
    flags = np.zeros(dims, dtype=bool)
    sub = tuple(slice(a, b) for a, b in zip(lo, hi))
    flags[sub] = inside[sub]
    on_face = [draw(st.integers(a, b - 1)) for a, b in zip(lo, hi)]
    on_face[axis] = 0 if side == 0 else dims[axis] - 1
    flags[tuple(on_face)] = True

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 7, dims) / 6.0 if draw(st.booleans()) else rng.random(dims)
    scheme = draw(st.sampled_from(SCHEMES))
    return make_volume(values), make_mask(flags), config_of(scheme, draw(st.integers(0, 2)))


@pytest.mark.parametrize("face", FACES)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_roi_touching_a_face(face, data):
    v, mask, config = data.draw(roi_on_face(face))
    assert_box_is_whole_grid(v, mask, config)


@pytest.mark.parametrize("corner", [(0, 0, 0), (4, 3, 2), (0, 3, 0)])
def test_single_voxel_roi_in_a_corner(rng, corner):
    flags = np.zeros((5, 4, 3), dtype=bool)
    flags[corner] = True
    assert_box_is_whole_grid(make_volume(rng.random(flags.shape)), make_mask(flags), config_of(SCHEMES[0]))


def test_roi_filling_the_grid(rng):
    mask = make_mask(np.ones((6, 5, 4), dtype=bool))
    assert mask.box[1] is mask
    assert_box_is_whole_grid(make_volume(rng.random(mask.dims)), mask, config_of(SCHEMES[0], alpha=1))


@pytest.mark.parametrize("dims", [(1, 8, 7), (6, 1, 5), (7, 6, 1), (9, 1, 1), (1, 1, 1)])
def test_length_one_axes(rng, dims):
    flags = rng.random(dims) < 0.5
    flags[tuple(n // 2 for n in dims)] = True
    for scheme in SCHEMES:
        assert_box_is_whole_grid(make_volume(rng.random(dims)), make_mask(flags), config_of(scheme))


def test_crop_whose_zero_fill_borders_the_roi():
    v, _ = generate_phantom(5, (12, 12, 12))
    flags = np.zeros(v.dims, dtype=bool)
    flags[0:4, 3:9, 2:7] = True
    # centroid x is 2: the 10-voxel window starts at x = -3, so planes 0-2
    # are zero fill and the ROI fills planes 3-6, against them
    cropped, mask = crop_centered(v, make_mask(flags), (10, 10, 10))
    assert not cropped.values[:3].any() and mask.flags[3].any()
    assert mask.box[0][0] == slice(2, 8)
    for scheme in SCHEMES:
        assert_box_is_whole_grid(cropped, mask, config_of(scheme))


def test_box_is_the_bounding_box_plus_one_voxel_clipped_at_the_grid():
    flags = np.zeros((8, 6, 5), dtype=bool)
    flags[2:5, 0:3, 3] = True
    mask = make_mask(flags)
    box, cropped = mask.box
    assert box == (slice(1, 6), slice(0, 4), slice(2, 5))
    assert np.array_equal(cropped.flags, flags[box]) and cropped.voxel_count == mask.voxel_count
    assert cropped.box == ((slice(0, 5), slice(0, 4), slice(0, 3)), cropped)
    assert mask.box is mask.box


@pytest.mark.parametrize("case", ["random", "single voxel", "full box", "shell", "ball"])
def test_border_distance_is_scipys_taxicab_transform(case):
    from scipy.ndimage import distance_transform_cdt

    rng = np.random.default_rng(5)
    if case == "random":
        masks = [rng.random(tuple(rng.integers(1, 12, 3))) < rng.random() for _ in range(60)]
    elif case == "single voxel":
        masks = [np.ones((1, 1, 1), dtype=bool), np.zeros((5, 4, 3), dtype=bool)]
        masks[1][2, 1, 1] = True
    elif case == "full box":
        masks = [np.ones(dims, dtype=bool) for dims in ((6, 5, 4), (1, 7, 1), (9, 9, 9))]
    elif case == "shell":  # one voxel thick: every voxel borders the hollow or the grid
        masks = [np.ones((9, 8, 7), dtype=bool)]
        masks[0][1:-1, 1:-1, 1:-1] = False
    else:
        x, y, z = np.indices((31, 29, 27)) - np.array([15, 14, 13]).reshape(3, 1, 1, 1)
        masks = [x * x + y * y + z * z <= 13**2]
    for flags in (m for m in masks if m.any()):
        expected = distance_transform_cdt(np.pad(flags, 1), metric="taxicab")[1:-1, 1:-1, 1:-1][flags]
        got = volume.roi_border_distance(flags)
        assert np.array_equal(got, expected)
        assert got.dtype == np.min_scalar_type(expected.max())


def test_patient_builds_its_border_distance_once(tmp_path, monkeypatch):
    v, m = generate_phantom(7, (12, 12, 11))
    paths = {ORIGINAL_SOURCE: tmp_path / "orig.nii"}
    save_nifti(paths[ORIGINAL_SOURCE], v)
    for i, gain in enumerate((0.9, 0.7)):
        paths[f"net{i}"] = tmp_path / f"net{i}.nii"
        save_nifti(paths[f"net{i}"], v.with_values(v.values * gain))
    save_nifti(tmp_path / "mask.nii", v.with_values(m.flags.astype(float)))
    record = PatientRecord("p0", {k: str(p) for k, p in paths.items()}, str(tmp_path / "mask.nii"))

    calls = []
    border_distance = volume.roi_border_distance

    def counting(flags):
        calls.append(flags.shape)
        return border_distance(flags)

    monkeypatch.setattr(volume, "roi_border_distance", counting)
    result = process_patient(record, RunConfig.from_dict({}))
    assert result.error is None and len(result.features) == 3
    assert len(calls) == 1
