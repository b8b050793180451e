"""Whole-vector contracts: counts, ordering, invariances, degenerate ROIs."""
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import oracles
from transfid.config import RunConfig
from transfid.errors import EmptyMask
from transfid.phantom import generate_phantom
from transfid.radiomics import (
    ALL_FEATURE_KEYS,
    EXPECTED_FAMILY_COUNTS,
    FeatureVector,
    extract_all,
    family_counts,
)
from transfid.radiomics.ids import ALL_FEATURE_IDS
from transfid.volume import RoiMask

from conftest import make_mask, make_volume

GOLDEN_PATH = resources.files("transfid.data").joinpath("selftest_golden.json")


def settings(ng=8, alpha=0):
    return RunConfig.from_dict({"discretize": {"bins": ng}, "ngldm": {"alpha": alpha}})


class TestCountLaw:
    def test_exactly_186_with_family_counts(self):
        v, m = generate_phantom(1, (8, 8, 8))
        vec = extract_all(v, m, settings())
        assert len(vec) == 186
        assert family_counts(ALL_FEATURE_IDS) == EXPECTED_FAMILY_COUNTS
        assert tuple(vec.values.keys()) == ALL_FEATURE_KEYS

    def test_vector_rejects_wrong_length(self):
        values = {k: 0.0 for k in ALL_FEATURE_KEYS[:-1]}
        with pytest.raises(ValueError):
            FeatureVector(values=values)

    def test_vector_rejects_unflagged_nan(self):
        values = {k: 0.0 for k in ALL_FEATURE_KEYS}
        values["is.mean"] = math.nan
        with pytest.raises(ValueError):
            FeatureVector(values=values)

    def test_vector_rejects_keys_out_of_registry_order(self):
        values = {k: 0.0 for k in reversed(ALL_FEATURE_KEYS)}
        with pytest.raises(ValueError, match="feature vector keys are not in canonical order"):
            FeatureVector(values=values)

    def test_vector_rejects_a_flag_that_names_no_feature(self):
        values = {k: 0.0 for k in ALL_FEATURE_KEYS}
        with pytest.raises(ValueError, match=r"flags reference unknown features: \['glcm.bogus'\]"):
            FeatureVector(values=values, flags=frozenset({"is.mean", "glcm.bogus"}))


class TestDocsInSync:
    def test_feature_id_docs_list_every_key_in_order(self):
        doc = (Path(__file__).parent.parent / "docs" / "feature_ids.md").read_text()
        documented = [
            line.strip()[3:-1]
            for line in doc.splitlines()
            if line.strip().startswith("- `")
        ]
        assert documented == list(ALL_FEATURE_KEYS)


class TestInvariances:
    def test_level_relabel_invariance_exact(self, rng):
        # dyadic intensities stay exact when shifted by an integer
        dims = (7, 6, 5)
        values = rng.integers(0, 1024, dims) / 1024.0
        flags = rng.random(dims) < 0.7
        flags[3, 3, 2] = True
        vol, mask = make_volume(values), make_mask(flags)
        shifted = make_volume(values + 10.0)

        vec_a = extract_all(vol, mask, settings())
        vec_b = extract_all(shifted, mask, settings())
        discretized_families = ("ih.", "glcm.", "glrlm.", "glszm.", "gldzm.", "ngtdm.", "ngldm.")
        for key in ALL_FEATURE_KEYS:
            if key.startswith(discretized_families):
                a, b = vec_a[key], vec_b[key]
                assert (math.isnan(a) and math.isnan(b)) or a == b, key

    def test_axis_permutation_invariance(self, rng):
        v, m = generate_phantom(21, (7, 8, 9))
        vec = extract_all(v, m, settings())
        perm = (2, 0, 1)
        vol_p = make_volume(
            np.transpose(v.values, perm), spacing=tuple(v.spacing[i] for i in perm)
        )
        mask_p = make_mask(np.transpose(m.flags, perm))
        vec_p = extract_all(vol_p, mask_p, settings())
        for key in ALL_FEATURE_KEYS:
            if key.startswith(("glcm.", "glrlm.")):
                assert vec_p[key] == pytest.approx(vec[key], rel=1e-9, abs=1e-12), key

    def test_out_of_mask_voxels_do_not_leak(self, rng):
        dims = (6, 6, 6)
        values = rng.random(dims)
        flags = np.zeros(dims, dtype=bool)
        flags[1:5, 1:5, 1:5] = True
        vol, mask = make_volume(values), make_mask(flags)
        vec_a = extract_all(vol, mask, settings())

        mutated = values.copy()
        mutated[0, 0, 0] = 99.0
        vec_b = extract_all(make_volume(mutated), mask, settings())
        for key in ALL_FEATURE_KEYS:
            if key.startswith("li."):
                continue  # sphere means are mask-independent by definition
            a, b = vec_a[key], vec_b[key]
            assert (math.isnan(a) and math.isnan(b)) or a == b, key

    def test_local_intensity_sees_out_of_mask_neighborhood(self, rng):
        dims = (6, 6, 6)
        values = rng.random(dims)
        flags = np.zeros(dims, dtype=bool)
        flags[2:4, 2:4, 2:4] = True
        vec_a = extract_all(make_volume(values), make_mask(flags), settings())
        mutated = values.copy()
        mutated[1, 2, 2] += 0.5  # outside the mask but inside the peak sphere
        vec_b = extract_all(make_volume(mutated), make_mask(flags), settings())
        assert vec_b["li.global_peak"] != vec_a["li.global_peak"]


class TestDegenerateInputs:
    def test_constant_roi_vector(self):
        vol = make_volume(np.full((4, 4, 4), 0.5))
        mask = make_mask(np.ones((4, 4, 4), bool))
        vec = extract_all(vol, mask, settings())

        assert vec["is.variance"] == 0.0
        assert vec["ih.entropy"] == 0.0
        assert vec["ih.uniformity"] == 1.0
        assert vec["glcm.dir_avg.contrast"] == 0.0
        assert vec["glcm.dir_avg.joint_maximum"] == 1.0
        assert vec["glcm.dir_avg.joint_entropy"] == 0.0
        assert vec["ngtdm.coarseness"] == pytest.approx(1e6)
        assert vec["ngtdm.contrast"] == 0.0

        for key in (
            "is.skewness",
            "is.kurtosis",
            "is.coefficient_of_variation",
            "ih.maximum_gradient",
            "glcm.dir_avg.correlation",
            "glcm.dir_merged.information_correlation_1",
        ):
            assert math.isnan(vec[key]), key
            assert vec.is_flagged(key), key
        # ivh degenerate convention: finite values, flagged
        assert vec["ivh.area_under_curve"] == 1.0
        assert vec.is_flagged("ivh.v10")

    def test_single_voxel_roi(self):
        dims = (3, 3, 3)
        values = np.zeros(dims)
        values[1, 1, 1] = 0.6
        flags = np.zeros(dims, dtype=bool)
        flags[1, 1, 1] = True
        vec = extract_all(
            make_volume(values, spacing=(10, 10, 10)), make_mask(flags), settings()
        )
        assert vec["li.local_peak"] == pytest.approx(0.6)
        assert vec["li.global_peak"] == pytest.approx(0.6)
        # no pairs in any direction and no neighbors
        assert math.isnan(vec["glcm.dir_avg.contrast"])
        assert math.isnan(vec["ngtdm.coarseness"])
        assert vec.is_flagged("ngtdm.coarseness")
        # runs, zones, and dependence counts remain defined
        assert vec["glrlm.dir_avg.run_percentage"] == 1.0
        assert vec["glszm.zone_percentage"] == 1.0
        assert vec["gldzm.small_distance_emphasis"] == 1.0
        assert vec["ngldm.dependence_count_percentage"] == 1.0

    def test_overflowing_moments_are_flagged_nan(self):
        # without normalization an ROI near 1e200 squares past float64's
        # range; pytest's error::RuntimeWarning shows that IS warns nothing
        v, m = generate_phantom(0, (16, 16, 16))
        vec = extract_all(v.with_values(v.values * 1e200), m, settings())
        overflowed = {"is.skewness", "is.kurtosis", "is.variance", "is.energy",
                      "is.root_mean_square", "is.coefficient_of_variation"}
        for key in overflowed:
            assert math.isnan(vec[key]) and vec.is_flagged(key), key
        assert all(math.isfinite(value) for key, value in vec.values.items() if key not in vec.flags)
        assert {key for key in vec.flags if key.startswith("is.")} == overflowed

    @pytest.mark.parametrize("scale", [1e100, 1e120])
    def test_moment_overflow_costs_only_the_moments(self, scale):
        # the variance stays finite, but its square (and at 1e120 its 1.5th
        # power) passes float64's range: only the ratios that read them are lost
        v, m = generate_phantom(0, (16, 16, 16))
        unscaled = extract_all(v, m, settings())
        vec = extract_all(v.with_values(v.values * scale), m, settings())
        kept = ["is.mean", "is.median", "is.minimum", "is.maximum", "is.percentile_10",
                "is.percentile_90", "is.variance", "is.coefficient_of_variation"]
        for key in kept:
            assert math.isfinite(vec[key]) and not vec.is_flagged(key), key
        for key in ("is.mean", "is.median", "is.minimum", "is.maximum", "is.percentile_10", "is.percentile_90"):
            assert vec[key] == pytest.approx(unscaled[key] * scale, rel=1e-12), key
        lost = {"is.kurtosis"} if scale == 1e100 else {"is.skewness", "is.kurtosis"}
        for key in lost:
            assert math.isnan(vec[key]) and vec.is_flagged(key), key
        assert {key for key in vec.flags if key.startswith("is.")} == lost
        if scale == 1e100:  # skewness is scale-free, and its cubes still fit
            assert vec["is.skewness"] == pytest.approx(unscaled["is.skewness"], rel=1e-9)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_unflagged_non_finite_value_is_refused(self, bad):
        values = dict.fromkeys(ALL_FEATURE_KEYS, 1.0)
        values["is.energy"] = bad
        with pytest.raises(ValueError, match="feature is.energy lacks a degeneracy flag"):
            FeatureVector(values=values)
        assert FeatureVector(values=values, flags=frozenset({"is.energy"}))["is.energy"] is bad

    def test_ngldm_tolerance_beyond_ng_is_ng(self):
        v, m = generate_phantom(3, (12, 10, 8))
        at_ng = extract_all(v, m, settings(ng=8, alpha=8))
        huge = extract_all(v, m, settings(ng=8, alpha=2**40))
        assert [float.hex(x) for x in huge.values.values()] == [float.hex(x) for x in at_ng.values.values()]
        assert huge.flags == at_ng.flags

    @pytest.mark.parametrize("values", ["phantom", "constant"])
    def test_flags_are_the_nan_keys_and_ivh_conventions(self, values):
        v, m = generate_phantom(2, (8, 8, 8))
        if values == "constant":
            v = v.with_values(np.full(v.dims, 0.5))
        vec = extract_all(v, m, settings())
        nan_keys = {key for key in ALL_FEATURE_KEYS if math.isnan(vec[key])}
        ivh_keys = {key for key in ALL_FEATURE_KEYS if key.startswith("ivh.")}
        assert vec.flags == nan_keys | (ivh_keys if values == "constant" else set())

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMask):
            RoiMask((2, 2, 2), np.zeros((2, 2, 2), bool))


class TestGoldenPhantom:
    def test_vector_matches_committed_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        v, m = generate_phantom(golden["seed"], tuple(golden["dims"]), tuple(golden["spacing"]))
        vec = extract_all(
            v,
            m,
            RunConfig.from_dict({
                "discretize": {"mode": "FBN", "bins": golden["bins"]},
                "ivh": {"bins": golden["ivh_bins"]},
                "ngldm": {"alpha": golden["ngldm_alpha"]},
            }),
        )
        assert set(golden["features"]) == set(ALL_FEATURE_KEYS)
        for key, expected in golden["features"].items():
            got = vec[key]
            if expected is None:
                assert math.isnan(got), key
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), key
        assert set(golden["flags"]) == set(vec.flags)

    def test_golden_matches_oracle_suite(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        v, m = generate_phantom(golden["seed"], tuple(golden["dims"]), tuple(golden["spacing"]))
        expected = oracles.extract_all_features(
            v.values, m.flags, v.spacing, ng=golden["bins"], ivh_bins=golden["ivh_bins"]
        )
        for key, value in golden["features"].items():
            e = expected[key]
            if value is None:
                assert math.isnan(e), key
            else:
                assert value == pytest.approx(e, rel=1e-9, abs=1e-9), key
