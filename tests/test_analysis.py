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
    Concordance,
    build_cohort,
    classify_groups,
    concordance,
    group_counts_by_family,
    rank_networks,
)
from transfid.config import RunConfig
from transfid.errors import CohortTooSmall, UnknownTopNetwork
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
        networks=networks,
        features=features,
        metrics=metrics,
    )


def concordance_with(*rows: dict[str, float]) -> Concordance:
    """A concordance whose feature j has rho `rows[j][network]`."""
    networks = list(rows[0])
    rho = np.array([[row[n] for n in networks] for row in rows], dtype=float)
    return Concordance(ALL_FEATURE_KEYS[: len(rows)], networks, rho, np.full(rho.shape, 10))


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
        """At every load, extraction and scoring, no raw volume is alive, and
        no preprocessed network but the one at work."""
        from transfid import analysis, nifti
        from transfid.manifest import parse_manifest

        manifest = write_cohort(tmp_path, n_patients=1, networks=("a", "b", "c"))
        (record,) = parse_manifest(manifest)
        preprocess_pair = analysis.preprocess_pair
        raw, prepared, checked = [], [], []

        def load(path):
            check(None, "load")
            volume = nifti.load_nifti(path)
            raw.append(weakref.ref(volume))
            return volume

        def prepare(volume, mask, config):
            pair = preprocess_pair(volume, mask, config)
            prepared.append(weakref.ref(pair[0]))
            return pair

        def check(at_work, call):
            assert [ref() for ref in raw] == [None] * len(raw)
            # prepared[0] is the original's volume, which every network is scored against
            assert all(ref() is None or ref() is at_work for ref in prepared[1:])
            checked.append(call)

        def extract(volume, roi, config):
            check(volume, "extract")
            return None

        def metrics(original, network, **kwargs):
            check(network, "metrics")
            return MetricSet(mae=0.0, mse=0.0, ssim=1.0, psnr=math.inf)

        monkeypatch.setattr(analysis, "load_nifti", load)
        monkeypatch.setattr(analysis, "preprocess_pair", prepare)
        monkeypatch.setattr(analysis, "extract_all", extract)
        monkeypatch.setattr(analysis, "compute_metrics", metrics)
        result = analysis.process_patient(record, RunConfig.from_dict({}))
        assert result.error is None and sorted(result.metrics) == ["a", "b", "c"]
        assert len(raw) == len(prepared) == 4
        assert checked == ["load", "extract"] + ["load", "extract", "metrics"] * 3


    def test_the_original_moments_are_built_once_per_patient(self, tmp_path):
        """Every network is scored against one original, whose windowed mean
        and variance are built for the first and kept for the others."""
        from transfid import analysis, iqa
        from transfid.manifest import parse_manifest

        networks = ("a", "b", "c")
        (record,) = parse_manifest(write_cohort(tmp_path, n_patients=1, networks=networks))
        config = RunConfig.from_dict({"ssim": {"window": 3}})  # the phantom is 8^3
        iqa._original_moments.cache_clear()
        result = analysis.process_patient(record, config, want_features=False)
        assert result.error is None and sorted(result.metrics) == list(networks)
        info = iqa._original_moments.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(networks) - 1, 1)

    def test_every_source_shares_the_original_mask(self, tmp_path, monkeypatch):
        """Under a crop, every extraction and every ROI-only score gets the
        one mask cropped with the original, and the patient's own config."""
        from transfid import analysis
        from transfid.manifest import parse_manifest

        manifest = write_cohort(tmp_path, n_patients=1, networks=("a", "b"))
        (record,) = parse_manifest(manifest)
        config = RunConfig.from_dict({"preprocess": {"crop": [6, 6, 6]}, "metrics": {"roi_only": True}})
        masks, configs = [], []

        def extract(volume, roi, config):
            masks.append(roi)
            configs.append(config)

        def metrics(original, network, mask, **kwargs):
            masks.append(mask)
            return MetricSet(mae=0.0, mse=0.0, ssim=1.0, psnr=math.inf)

        monkeypatch.setattr(analysis, "extract_all", extract)
        monkeypatch.setattr(analysis, "compute_metrics", metrics)
        result = analysis.process_patient(record, config)
        assert result.error is None
        assert len(masks) == 5 and masks[0].dims == (6, 6, 6)
        assert all(mask is masks[0] for mask in masks)
        assert all(c is config for c in configs) and len(configs) == 3

    def test_crop_finds_the_centroid_once_per_patient(self, tmp_path, monkeypatch):
        """The original and both networks are cropped around the one mask's
        centroid, computed once."""
        from functools import cached_property

        from transfid import analysis
        from transfid.manifest import parse_manifest
        from transfid.volume import RoiMask

        manifest = write_cohort(tmp_path, n_patients=1, networks=("a", "b"))
        (record,) = parse_manifest(manifest)
        config = RunConfig.from_dict({"preprocess": {"crop": [6, 6, 6]}})
        find = RoiMask.centroid.func
        computed = []

        def counted(mask):
            computed.append(mask)
            return find(mask)

        centroid = cached_property(counted)
        centroid.__set_name__(RoiMask, "centroid")
        monkeypatch.setattr(RoiMask, "centroid", centroid)
        monkeypatch.setattr(analysis, "extract_all", lambda volume, roi, config: None)
        result = analysis.process_patient(record, config, want_metrics=False)
        assert result.error is None and len(result.features) == 3
        assert len(computed) == 1

    def test_a_family_out_of_memory_excludes_the_patient(self, tmp_path, monkeypatch):
        """A MemoryError in one family is not a flagged NaN: it leaves
        `extract_all`, and the patient is excluded with that reason."""
        from transfid import analysis
        from transfid.manifest import parse_manifest
        from transfid.radiomics import extract

        def refused(*args, **kwargs):
            raise MemoryError("synthetic allocation refused")

        (record,) = parse_manifest(write_cohort(tmp_path, n_patients=1))
        monkeypatch.setattr(extract, "glcm_features", refused)
        result = analysis.process_patient(record, RunConfig.from_dict({}))
        assert result.error == "MemoryError: synthetic allocation refused"
        assert not result.features and not result.metrics


def feature_bits(result) -> dict:
    """Each source's feature values as `float.hex`, with its flags and provenance."""
    return {
        source: ([(key, value.hex()) for key, value in vector.values.items()], vector.flags, vector.provenance)
        for source, vector in result.features.items()
    }


class TestModesAgree:
    @staticmethod
    def cohort(tmp_path):
        """Three patients and two networks; p1's network b is missing."""
        def mutate(v, i, network):
            return v.with_values(v.values * (0.9 if network == "a" else 1.2) + 0.05 * i)

        manifest = write_cohort(tmp_path, n_patients=3, networks=("a", "b"), mutate=mutate)
        (tmp_path / "p1_b.nii").unlink()
        return manifest

    def test_extract_and_metrics_alone_give_what_both_give(self, tmp_path):
        from transfid.analysis import process_patient
        from transfid.manifest import parse_manifest

        config = RunConfig.from_dict({"ssim": {"window": 3}})
        errors = []
        for record in parse_manifest(self.cohort(tmp_path)):
            both = process_patient(record, config)
            extract = process_patient(record, config, want_metrics=False)
            metrics = process_patient(record, config, want_features=False)
            assert extract.error == metrics.error == both.error
            assert feature_bits(extract) == feature_bits(both) and not extract.metrics
            assert metrics.metrics == both.metrics and not metrics.features
            errors.append(both.error)
        assert errors[0] is None and errors[2] is None
        assert errors[1] == f"FileNotFoundError: [Errno 2] No such file or directory: '{tmp_path / 'p1_b.nii'}'"

    def test_the_library_gives_what_extract_gives_at_any_worker_count(self, tmp_path):
        from transfid.analysis import process_patient
        from transfid.manifest import parse_manifest

        manifest = self.cohort(tmp_path)
        config = RunConfig.from_dict({"ssim": {"window": 3}})
        alone, pooled = (build_cohort(manifest, config, jobs=jobs) for jobs in (1, 2))
        assert alone.patients == pooled.patients == ["p0", "p2"]
        assert alone.networks == pooled.networks == ["a", "b"]
        assert alone.features.keys() == pooled.features.keys()
        for source, table in alone.features.items():
            assert np.array_equal(table, pooled.features[source], equal_nan=True), source
        assert alone.metrics == pooled.metrics and len(alone.metrics) == 4
        assert alone.exclusions == pooled.exclusions and [p for p, _ in alone.exclusions] == ["p1"]

        records = {r.patient_id: r for r in parse_manifest(manifest)}
        for row, patient in enumerate(alone.patients):
            extract = process_patient(records[patient], config, want_metrics=False)
            for source, vector in extract.features.items():
                values = np.array(list(vector.values.values()))
                assert np.array_equal(alone.features[source][row], values, equal_nan=True), (patient, source)


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
        result = concordance(table)
        assert result.feature_keys == ALL_FEATURE_KEYS and result.networks == ["synth_a"]
        assert result.rho.shape == result.n_effective.shape == (186, 1)
        defined = result.rho[~np.isnan(result.rho)]
        assert defined.size and (defined == 1.0).all()

    def test_rank_reversal_gives_minus_one(self):
        originals = np.array([1.0, 2.0, 3.0, 4.0])
        table = table_with_feature_values({"net": -originals}, originals)
        assert (concordance(table).rho == -1.0).all()

    def test_noisy_cohort_matches_rank_oracle(self, rng):
        originals = rng.random(10)
        synth = originals + rng.normal(0, 0.3, 10)
        table = table_with_feature_values({"net": synth}, originals)
        rho = concordance(table).rho
        expected = oracles.spearman(list(originals), list(synth))
        assert np.abs(rho - expected).max() <= 1e-12

    def test_nan_features_dropped_pairwise(self):
        originals = np.array([1.0, 2.0, 3.0])
        table = table_with_feature_values({"net": np.array([1.0, 2.0, 3.0])}, originals)
        # poison one patient's synthetic row with NaNs
        table.features["net"][1, :] = math.nan
        result = concordance(table)
        assert (result.n_effective == 2).all()
        assert (result.rho == 1.0).all()

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

    def test_network_without_metrics_ranks_last(self):
        table = self._table({"b": 0.2, "c": 0.1})
        table.networks.insert(0, "a")  # features only: no metric row for any patient
        assert rank_networks(table) == ["b", "c", "a"]


class TestClassifyGroups:
    def test_majority_rule(self):
        result = concordance_with({"n1": 0.6, "n2": 0.6, "n3": 0.6, "n4": 0.2, "n5": 0.1})
        grouping = classify_groups(result, top_network="n1")
        assert grouping.group[0] == GROUP1

    def test_top_only_rule(self):
        result = concordance_with({"n1": 0.7, "n2": 0.3, "n3": 0.2, "n4": 0.1, "n5": 0.0})
        grouping = classify_groups(result, top_network="n1")
        assert grouping.group[0] == GROUP2

    def test_all_below_threshold(self):
        result = concordance_with({"n1": 0.4, "n2": 0.3, "n3": 0.2, "n4": 0.1, "n5": 0.0})
        grouping = classify_groups(result, top_network="n1")
        assert grouping.group[0] == GROUP3
        assert not grouping.anomalous[0]

    def test_anomalous_flag(self):
        result = concordance_with({"n1": 0.2, "n2": 0.8, "n3": 0.1, "n4": 0.1, "n5": 0.0})
        grouping = classify_groups(result, top_network="n1")
        assert grouping.group[0] == GROUP3
        assert grouping.anomalous[0]

    def test_threshold_edge_is_strict(self):
        result = concordance_with({"n1": 0.5, "n2": 0.5, "n3": 0.5, "n4": 0.5, "n5": 0.5})
        grouping = classify_groups(result, top_network="n1", threshold=0.5)
        assert grouping.group[0] == GROUP3

    def test_nan_never_passes(self):
        result = concordance_with({"n1": math.nan, "n2": math.nan, "n3": math.nan})
        grouping = classify_groups(result, top_network="n1")
        assert grouping.group[0] == GROUP3

    def test_exact_half_is_not_majority(self):
        result = concordance_with({"n1": 0.6, "n2": 0.6, "n3": 0.1, "n4": 0.2})
        grouping = classify_groups(result, top_network="n3")
        # 2 of 4 passing is not a strict majority and top fails
        assert grouping.group[0] == GROUP3
        assert grouping.anomalous[0]

    def test_unknown_top_network(self):
        result = concordance_with({"n1": 0.6})
        with pytest.raises(UnknownTopNetwork):
            classify_groups(result, top_network="zz")

    def test_network_order_invariance(self, rng):
        rhos = {f"n{i}": float(rng.uniform(-1, 1)) for i in range(5)}
        a = classify_groups(concordance_with(dict(sorted(rhos.items()))), top_network="n2")
        b = classify_groups(concordance_with(dict(sorted(rhos.items(), reverse=True))), top_network="n2")
        assert a.group[0] == b.group[0]

    def test_group_counts_partition(self, rng):
        rows = ({f"n{i}": float(rng.uniform(-1, 1)) for i in range(5)} for _ in range(186))
        result = concordance_with(*rows)
        counts = group_counts_by_family(result.feature_keys, classify_groups(result, top_network="n0").group)
        totals = counts.pop("TOTAL")
        assert sum(totals.values()) == 186
        assert totals == {g: sum(family[g] for family in counts.values()) for g in (GROUP1, GROUP2, GROUP3)}
