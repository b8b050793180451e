"""Cohort assembly, concordance, network ranking, and grouping."""
import math
import weakref

import numpy as np
import pytest

import oracles
from transfid.analysis import (
    GROUP1,
    GROUP2,
    GROUP3,
    CohortTable,
    ConcordanceRecord,
    build_cohort,
    classify_groups,
    compare_networks,
    concordance,
    group_counts_by_family,
    rank_networks,
)
from transfid.config import RunConfig
from transfid.errors import CohortTooSmall, TooFewSamples, UnknownTopNetwork
from transfid.iqa import MetricSet
from transfid.manifest import ORIGINAL_SOURCE
from transfid.nifti import save_nifti
from transfid.phantom import generate_phantom
from transfid.radiomics import ALL_FEATURE_KEYS, FeatureVector


def vector_from(base: float, rng=None):
    """A valid 186-entry vector; values vary per key around `base`."""
    values = {}
    for i, key in enumerate(ALL_FEATURE_KEYS):
        jitter = 0.0 if rng is None else float(rng.normal(0, 1e-6))
        values[key] = base + 0.01 * i + jitter
    return FeatureVector(values=values)


def table_with_feature_values(per_network: dict[str, np.ndarray], originals: np.ndarray):
    """All 186 features share the same per-patient value pattern."""
    patients = [f"p{i}" for i in range(len(originals))]
    networks = sorted(per_network)
    features = {
        source: np.repeat(np.asarray(series, dtype=float)[:, None], len(ALL_FEATURE_KEYS), axis=1)
        for source, series in [(ORIGINAL_SOURCE, originals), *per_network.items()]
    }
    metrics = {
        (pid, network): MetricSet(mae=0.1, mse=0.01, ssim=0.5, psnr=20.0)
        for pid in patients
        for network in networks
    }
    return CohortTable(
        patients=patients,
        sources=[ORIGINAL_SOURCE, *networks],
        networks=networks,
        features=features,
        metrics=metrics,
    )


def record_with(rhos: dict[str, float], key="is.mean") -> ConcordanceRecord:
    return ConcordanceRecord(
        feature_key=key,
        rho=rhos,
        n_effective={n: 10 for n in rhos},
        degenerate={n: math.isnan(v) for n, v in rhos.items()},
    )


def write_cohort(tmp_path, n_patients=2, networks=("synth_a",), mutate=None, seed0=50):
    """Write phantom-based cohort files and return the manifest path."""
    rows = ["patient_id,source,path"]
    for i in range(n_patients):
        v, m = generate_phantom(seed0 + i, (8, 8, 8))
        vol_path = tmp_path / f"p{i}_orig.nii"
        mask_path = tmp_path / f"p{i}_mask.nii"
        save_nifti(vol_path, v)
        save_nifti(mask_path, v.with_values(m.flags.astype(float)))
        rows.append(f"p{i},{ORIGINAL_SOURCE},{vol_path}")
        rows.append(f"p{i},mask,{mask_path}")
        for network in networks:
            synth = v if mutate is None else mutate(v, i, network)
            synth_path = tmp_path / f"p{i}_{network}.nii"
            save_nifti(synth_path, synth)
            rows.append(f"p{i},{network},{synth_path}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


class TestPreprocessPair:
    def test_normalize_after_crop_spans_unit_interval(self, rng):
        from transfid.analysis import preprocess_pair
        from transfid.volume import RoiMask, Volume3D

        values = rng.random((10, 10, 10)) * 0.2
        values[0, 0, 0] = 50.0  # bright voxel outside the future crop window
        flags = np.zeros((10, 10, 10), dtype=bool)
        flags[4:7, 4:7, 4:7] = True
        vol = Volume3D((10, 10, 10), (1, 1, 1), values)
        mask = RoiMask((10, 10, 10), flags)

        after = RunConfig.from_dict({"preprocess": {"crop": [4, 4, 4]}})
        cropped_vol, cropped_mask = preprocess_pair(vol, mask, after)
        assert cropped_vol.dims == (4, 4, 4)
        assert cropped_vol.values.max() == 1.0  # normalized on the cropped window

        before = RunConfig.from_dict(
            {"preprocess": {"crop": [4, 4, 4], "normalize_after_crop": False}}
        )
        pre_vol, _ = preprocess_pair(vol, mask, before)
        # the global maximum sat outside the window, so the crop peaks below 1
        assert pre_vol.values.max() < 0.1
        assert cropped_mask.voxel_count > 0

    def test_crop_disabled_by_default(self, rng):
        from transfid.analysis import preprocess_pair
        from transfid.volume import RoiMask, Volume3D

        vol = Volume3D((6, 6, 6), (1, 1, 1), rng.random((6, 6, 6)))
        mask = RoiMask((6, 6, 6), np.ones((6, 6, 6), dtype=bool))
        out_vol, out_mask = preprocess_pair(vol, mask, RunConfig.from_dict({}))
        assert out_vol.dims == (6, 6, 6)
        assert out_mask.voxel_count == 216


class TestProcessPatient:
    def test_raw_volumes_are_released_before_the_per_source_work(self, tmp_path, monkeypatch):
        from transfid import analysis, nifti
        from transfid.manifest import parse_manifest

        (record,) = parse_manifest(write_cohort(tmp_path, n_patients=1, networks=("a", "b")))
        loaded = []

        def load(path):
            volume = nifti.load_nifti(path)
            loaded.append(weakref.ref(volume))
            return volume

        def metrics(*args, **kwargs):
            # normalization made new volumes, so nothing may still hold a raw one
            assert [ref() for ref in loaded] == [None] * 3
            return MetricSet(mae=0.0, mse=0.0, ssim=1.0, psnr=math.inf)

        monkeypatch.setattr(analysis, "load_nifti", load)
        monkeypatch.setattr(analysis, "compute_metrics", metrics)
        result = analysis.process_patient(record, RunConfig.from_dict({}), want_features=False)
        assert result.error is None and sorted(result.metrics) == ["a", "b"]


class TestBuildCohort:
    def test_counts_two_patients_one_network(self, tmp_path):
        manifest = write_cohort(tmp_path, n_patients=2)
        table = build_cohort(manifest, RunConfig.from_dict({"ssim": {"window": 1}}))
        assert table.patients == ["p0", "p1"]
        assert table.networks == ["synth_a"]
        assert set(table.features) == {ORIGINAL_SOURCE, "synth_a"}
        assert all(a.shape == (2, 186) for a in table.features.values())
        assert len(table.metrics) == 2

    def test_identity_translation_metrics(self, tmp_path):
        manifest = write_cohort(tmp_path, n_patients=2)
        table = build_cohort(manifest, RunConfig.from_dict({"ssim": {"window": 1}}))
        for pid in table.patients:
            m = table.metrics[(pid, "synth_a")]
            assert m.mae == 0.0
            assert m.ssim == pytest.approx(1.0, abs=1e-12)
            assert m.psnr == math.inf

    def test_unreadable_synth_excludes_patient(self, tmp_path):
        manifest = write_cohort(tmp_path, n_patients=2)
        text = manifest.read_text().replace(
            str(tmp_path / "p1_synth_a.nii"), str(tmp_path / "missing.nii")
        )
        manifest.write_text(text)
        table = build_cohort(manifest, RunConfig.from_dict({"ssim": {"window": 1}}))
        assert table.patients == ["p0"]
        assert len(table.exclusions) == 1
        assert table.exclusions[0][0] == "p1"

    def test_all_patients_failing_raises(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "patient_id,source,path\n"
            f"p0,{ORIGINAL_SOURCE},{tmp_path/'nope.nii'}\n"
            f"p0,synth_a,{tmp_path/'nope2.nii'}\n"
            f"p0,mask,{tmp_path/'nope3.nii'}\n"
        )
        with pytest.raises(CohortTooSmall):
            build_cohort(manifest, RunConfig.from_dict({}))


class TestConcordance:
    def test_identical_network_gives_rho_one(self, tmp_path):
        manifest = write_cohort(tmp_path, n_patients=3)
        table = build_cohort(manifest, RunConfig.from_dict({"ssim": {"window": 1}}))
        records = concordance(table)
        assert len(records) == 186
        for record in records:
            if not record.degenerate["synth_a"]:
                assert record.rho["synth_a"] == 1.0

    def test_rank_reversal_gives_minus_one(self):
        originals = np.array([1.0, 2.0, 3.0, 4.0])
        table = table_with_feature_values({"net": -originals}, originals)
        records = concordance(table)
        for record in records:
            assert record.rho["net"] == -1.0

    def test_noisy_cohort_matches_rank_oracle(self, rng):
        originals = rng.random(10)
        synth = originals + rng.normal(0, 0.3, 10)
        table = table_with_feature_values({"net": synth}, originals)
        records = concordance(table)
        expected = oracles.spearman(list(originals), list(synth))
        for record in records:
            assert record.rho["net"] == pytest.approx(expected, abs=1e-12)

    def test_nan_features_dropped_pairwise(self):
        originals = np.array([1.0, 2.0, 3.0])
        table = table_with_feature_values({"net": np.array([1.0, 2.0, 3.0])}, originals)
        # poison one patient's synthetic row with NaNs
        table.features["net"][1, :] = math.nan
        records = concordance(table)
        for record in records:
            assert record.n_effective["net"] == 2
            assert record.rho["net"] == 1.0

    def test_single_patient_raises(self):
        originals = np.array([1.0])
        table = table_with_feature_values({"net": originals}, originals)
        with pytest.raises(CohortTooSmall):
            concordance(table)


class TestRankNetworks:
    def _table(self, ssims, maes=None):
        networks = sorted(ssims)
        maes = maes or {n: 0.1 for n in networks}
        patients = ["p0", "p1"]
        metrics = {
            (pid, n): MetricSet(mae=maes[n], mse=0.01, ssim=ssims[n], psnr=20.0)
            for pid in patients
            for n in networks
        }
        return CohortTable(
            patients=patients,
            sources=[ORIGINAL_SOURCE, *networks],
            networks=networks,
            features={},
            metrics=metrics,
        )

    def test_descending_ssim(self):
        table = self._table({"a": 0.85, "b": 0.37})
        assert rank_networks(table) == ["a", "b"]

    def test_tie_broken_by_mae(self):
        table = self._table({"a": 0.5, "b": 0.5}, maes={"a": 0.02, "b": 0.14})
        assert rank_networks(table) == ["a", "b"]

    def test_single_network(self):
        table = self._table({"only": 0.4})
        assert rank_networks(table) == ["only"]


class TestClassifyGroups:
    def test_majority_rule(self):
        record = record_with({"n1": 0.6, "n2": 0.6, "n3": 0.6, "n4": 0.2, "n5": 0.1})
        assignment = classify_groups([record], top_network="n1")[0]
        assert assignment.group == GROUP1

    def test_top_only_rule(self):
        record = record_with({"n1": 0.7, "n2": 0.3, "n3": 0.2, "n4": 0.1, "n5": 0.0})
        assignment = classify_groups([record], top_network="n1")[0]
        assert assignment.group == GROUP2

    def test_all_below_threshold(self):
        record = record_with({"n1": 0.4, "n2": 0.3, "n3": 0.2, "n4": 0.1, "n5": 0.0})
        assignment = classify_groups([record], top_network="n1")[0]
        assert assignment.group == GROUP3
        assert not assignment.anomalous

    def test_anomalous_flag(self):
        record = record_with({"n1": 0.2, "n2": 0.8, "n3": 0.1, "n4": 0.1, "n5": 0.0})
        assignment = classify_groups([record], top_network="n1")[0]
        assert assignment.group == GROUP3
        assert assignment.anomalous

    def test_threshold_edge_is_strict(self):
        record = record_with({"n1": 0.5, "n2": 0.5, "n3": 0.5, "n4": 0.5, "n5": 0.5})
        assignment = classify_groups([record], top_network="n1", threshold=0.5)[0]
        assert assignment.group == GROUP3

    def test_nan_never_passes(self):
        record = record_with({"n1": math.nan, "n2": math.nan, "n3": math.nan})
        assignment = classify_groups([record], top_network="n1")[0]
        assert assignment.group == GROUP3

    def test_exact_half_is_not_majority(self):
        record = record_with({"n1": 0.6, "n2": 0.6, "n3": 0.1, "n4": 0.2})
        assignment = classify_groups([record], top_network="n3")[0]
        # 2 of 4 passing is not a strict majority and top fails
        assert assignment.group == GROUP3
        assert assignment.anomalous

    def test_unknown_top_network(self):
        record = record_with({"n1": 0.6})
        with pytest.raises(UnknownTopNetwork):
            classify_groups([record], top_network="zz")

    def test_network_order_invariance(self, rng):
        rhos = {f"n{i}": float(rng.uniform(-1, 1)) for i in range(5)}
        record_a = record_with(dict(sorted(rhos.items())))
        record_b = record_with(dict(sorted(rhos.items(), reverse=True)))
        a = classify_groups([record_a], top_network="n2")[0]
        b = classify_groups([record_b], top_network="n2")[0]
        assert a.group == b.group

    def test_group_counts_partition(self, rng):
        records = []
        for key in ALL_FEATURE_KEYS:
            rhos = {f"n{i}": float(rng.uniform(-1, 1)) for i in range(5)}
            records.append(record_with(rhos, key=key))
        assignments = classify_groups(records, top_network="n0")
        counts = group_counts_by_family(assignments)["TOTAL"]
        assert counts[GROUP1] + counts[GROUP2] + counts[GROUP3] == 186


class TestCompareNetworks:
    def _table(self, a_vals, b_vals):
        patients = [f"p{i}" for i in range(len(a_vals))]
        metrics = {}
        for i, pid in enumerate(patients):
            metrics[(pid, "a")] = MetricSet(mae=a_vals[i], mse=0.0, ssim=0.0, psnr=0.0)
            metrics[(pid, "b")] = MetricSet(mae=b_vals[i], mse=0.0, ssim=0.0, psnr=0.0)
        return CohortTable(
            patients=patients,
            sources=[ORIGINAL_SOURCE, "a", "b"],
            networks=["a", "b"],
            features={},
            metrics=metrics,
        )

    def test_identical_networks(self, rng):
        vals = rng.random(6)
        res = compare_networks(self._table(vals, vals), "mae", "a", "b")
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_consistent_margin_small_p(self, rng):
        base = rng.random(10)
        margin = 10.0 * 0.01
        res = compare_networks(
            self._table(base + margin + rng.normal(0, 0.01, 10), base), "mae", "a", "b"
        )
        assert res.p_value < 1e-4

    def test_single_shared_patient(self):
        table = self._table([0.1], [0.2])
        with pytest.raises(TooFewSamples):
            compare_networks(table, "mae", "a", "b")
