"""Awkward-input sweeps: degenerate axes, hollow masks, FBS path, failures."""
import math

import numpy as np
import pytest

import oracles
from transfid.config import RunConfig
from transfid.phantom import generate_phantom
from transfid.preprocess import DiscretizationScheme, discretize
from transfid.radiomics import ALL_FEATURE_KEYS, extract_all
from transfid.radiomics import extract as extract_module
from transfid.radiomics import texture as texture_module

from conftest import make_mask, make_volume


def vectors_match(vec, expected, tol=1e-9):
    for key in ALL_FEATURE_KEYS:
        a, b = vec[key], expected[key]
        if math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), key
            continue
        assert abs(a - b) <= tol * max(1.0, abs(a), abs(b)), f"{key}: {a} vs {b}"


class TestAwkwardGeometry:
    def test_flat_volume_single_slice(self, rng):
        values = rng.random((9, 8, 1))
        flags = rng.random((9, 8, 1)) < 0.7
        flags[4, 4, 0] = True
        vol, mask = make_volume(values), make_mask(flags)
        vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": 4}}))
        expected = oracles.extract_all_features(values, flags, vol.spacing, ng=4)
        vectors_match(vec, expected)

    def test_line_volume(self, rng):
        values = rng.random((12, 1, 1))
        flags = np.ones((12, 1, 1), dtype=bool)
        vol, mask = make_volume(values), make_mask(flags)
        vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": 3}}))
        expected = oracles.extract_all_features(values, flags, vol.spacing, ng=3)
        vectors_match(vec, expected)

    def test_hollow_shell_mask(self, rng):
        values = rng.random((9, 9, 9))
        flags = np.zeros((9, 9, 9), dtype=bool)
        flags[1:8, 1:8, 1:8] = True
        flags[3:6, 3:6, 3:6] = False  # hollow interior
        vol, mask = make_volume(values), make_mask(flags)
        vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": 5}}))
        expected = oracles.extract_all_features(values, flags, vol.spacing, ng=5)
        vectors_match(vec, expected)

    def test_two_voxel_roi(self, rng):
        values = rng.random((4, 4, 4))
        flags = np.zeros((4, 4, 4), dtype=bool)
        flags[1, 1, 1] = flags[1, 1, 2] = True
        vol, mask = make_volume(values), make_mask(flags)
        vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": 2}}))
        expected = oracles.extract_all_features(values, flags, vol.spacing, ng=2)
        vectors_match(vec, expected)


class TestIrregularMasks:
    def test_random_blob_masks_match_oracle(self, rng):
        for trial in range(5):
            dims = tuple(int(d) for d in rng.integers(6, 12, 3))
            values = rng.random(dims)
            # union of a few random boxes, may touch borders or split apart
            flags = np.zeros(dims, dtype=bool)
            for _ in range(int(rng.integers(1, 4))):
                lo = [int(rng.integers(0, d)) for d in dims]
                hi = [int(rng.integers(l + 1, d + 1)) for l, d in zip(lo, dims)]
                flags[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
            ng = int(rng.integers(2, 7))
            vol, mask = make_volume(values), make_mask(flags)
            vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": ng}}))
            expected = oracles.extract_all_features(values, flags, vol.spacing, ng=ng)
            vectors_match(vec, expected)


class TestFbsPath:
    def test_levels_match_oracle(self, rng):
        v, m = generate_phantom(31, (8, 8, 8))
        scheme = DiscretizationScheme("FBS", width=0.17, origin=0.02)
        d = discretize(v, m, scheme)
        levels, ng = oracles.discretize_fbs(v.values, m.flags, 0.17, 0.02)
        np.testing.assert_array_equal(d.levels, levels)
        assert d.ng == ng

    def test_fbs_features_match_oracle_levels(self, rng):
        v, m = generate_phantom(32, (8, 8, 8))
        config = RunConfig.from_dict({"discretize": {"mode": "FBS", "bin_width": 0.21, "origin": 0.0}})
        vec = extract_all(v, m, config)

        levels, ng = oracles.discretize_fbs(v.values, m.flags, 0.21, 0.0)
        # texture families recomputed from the oracle's own level map
        glcm = oracles.glcm_aggregated(levels, m.flags, ng)
        for name, value in glcm["dir_avg"].items():
            got = vec[f"glcm.dir_avg.{name}"]
            if math.isnan(value):
                assert math.isnan(got), name
            else:
                assert got == pytest.approx(value, rel=1e-9, abs=1e-9), name
        hist = oracles.histogram_features(levels, m.flags, ng)
        for name, value in hist.items():
            got = vec[f"ih.{name}"]
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(got), name
            else:
                assert got == pytest.approx(value, rel=1e-9, abs=1e-9), name


class TestFamilyFailureDegradation:
    def test_failing_family_degrades_to_flagged_nans(self, rng, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic family failure")

        monkeypatch.setattr(extract_module, "ngtdm_features", boom)
        v, m = generate_phantom(33, (6, 6, 6))
        vec = extract_all(v, m, RunConfig.from_dict({"discretize": {"bins": 4}}))
        assert len(vec) == 186
        for key in ALL_FEATURE_KEYS:
            if key.startswith("ngtdm."):
                assert math.isnan(vec[key])
                assert key in vec.flags
            elif key not in vec.flags:
                assert math.isfinite(vec[key])

    def test_failing_directional_family_is_contained(self, monkeypatch):
        v, m = generate_phantom(33, (6, 6, 6))
        config = RunConfig.from_dict({"discretize": {"bins": 4}})
        intact = extract_all(v, m, config)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic matrix failure")

        monkeypatch.setattr(texture_module, "glrlm_matrices", boom)
        vec = extract_all(v, m, config)
        glrlm_keys = [key for key in ALL_FEATURE_KEYS if key.startswith("glrlm.")]
        assert len(glrlm_keys) == 32
        for key in glrlm_keys:
            assert math.isnan(vec[key]) and key in vec.flags
        others = [key for key in ALL_FEATURE_KEYS if not key.startswith("glrlm.")]
        assert len(others) == 154
        for key in others:
            assert (key in vec.flags) == (key in intact.flags), key
            np.testing.assert_equal(vec[key], intact[key], err_msg=key)
