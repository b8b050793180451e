"""End-to-end CLI behavior: pipelines, determinism, exit codes."""
import ast
import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import transfid
from transfid import analysis, cli
from transfid.cli import build_parser, main
from transfid.iqa import SsimParams, mae, mse, ssim3d
from transfid.manifest import ORIGINAL_SOURCE
from transfid.nifti import load_mask, load_nifti, save_nifti
from transfid.phantom import MAX_VOXELS, generate_phantom
from transfid.preprocess import crop_centered, min_max_normalize
from transfid.radiomics import ALL_FEATURE_KEYS, FeatureVector

from conftest import overflowing_phantom
from test_volume_io import write_nifti_reference

# frozen once from `transfid phantom --seed 7 --dims 16,16,16`
PHANTOM7_SHA256 = "dec66bd39cc20943ae1ce8edad05d2b4506223b48aa8bb8d57b8a768465b9d6d"


_process_patient = analysis.process_patient


def _die_for(patients, record, *args, **kwargs):
    """`process_patient`, except that for `patients` the worker process
    ends at once with status 137, as an out-of-memory kill looks to the pool."""
    if record.patient_id in patients:
        os._exit(137)
    return _process_patient(record, *args, **kwargs)


@pytest.fixture
def cohort(tmp_path):
    """Two patients, two synthetic networks with different degradation."""
    rows = ["patient_id,source,path"]
    rng = np.random.default_rng(9)
    for i in range(2):
        v, m = generate_phantom(60 + i, (8, 8, 8))
        orig = tmp_path / f"p{i}_orig.nii"
        mask = tmp_path / f"p{i}_mask.nii"
        save_nifti(orig, v)
        save_nifti(mask, v.with_values(m.flags.astype(float)))
        rows += [f"p{i},{ORIGINAL_SOURCE},{orig}", f"p{i},mask,{mask}"]
        for network, noise in (("synth_good", 0.01), ("synth_bad", 0.3)):
            synth = v.with_values(np.clip(v.values + rng.normal(0, noise, v.dims), 0, 1))
            path = tmp_path / f"p{i}_{network}.nii"
            save_nifti(path, synth)
            rows.append(f"p{i},{network},{path}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ssim": {"window": 1}, "discretize": {"bins": 8}}))
    return manifest, config


class TestPipeline:
    def test_extract_metrics_analyze(self, tmp_path, cohort):
        manifest, config = cohort
        features = tmp_path / "features.csv"
        metrics = tmp_path / "metrics.csv"
        groups = tmp_path / "groups.csv"

        assert main(["extract", "--manifest", str(manifest), "--config", str(config), "--out", str(features)]) == 0
        assert main(["metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(metrics)]) == 0
        assert main(["analyze", "--features", str(features), "--metrics", str(metrics), "--out", str(groups)]) == 0

        with open(features) as fh:
            feature_rows = list(csv.DictReader(fh))
        assert len(feature_rows) == 2 * 3  # patients x (original + 2 networks)
        assert [r["source"] for r in feature_rows[:3]] == [
            ORIGINAL_SOURCE,
            "synth_bad",
            "synth_good",
        ]
        assert set(ALL_FEATURE_KEYS).issubset(feature_rows[0].keys())

        with open(metrics) as fh:
            metric_rows = list(csv.DictReader(fh))
        assert [(r["patient_id"], r["network"]) for r in metric_rows] == [
            ("p0", "synth_bad"),
            ("p0", "synth_good"),
            ("p1", "synth_bad"),
            ("p1", "synth_good"),
        ]
        for row in metric_rows:
            assert 0.0 <= float(row["ssim"]) <= 1.0

        with open(groups) as fh:
            group_rows = list(csv.DictReader(fh))
        assert len(group_rows) == 186
        assert [r["feature_id"] for r in group_rows] == list(ALL_FEATURE_KEYS)
        assert set(r["group"] for r in group_rows) <= {"Group1", "Group2", "Group3"}

        summary = json.loads((tmp_path / "groups.summary.json").read_text())
        assert summary["top_network"] == "synth_good"
        totals = summary["group_counts"]["TOTAL"]
        assert sum(totals.values()) == 186

    def test_serial_and_parallel_outputs_identical(self, tmp_path, cohort):
        manifest, config = cohort
        outs = []
        for jobs in ("1", "8"):
            features = tmp_path / f"features_{jobs}.csv"
            metrics = tmp_path / f"metrics_{jobs}.csv"
            assert main([
                "extract", "--manifest", str(manifest), "--config", str(config),
                "--out", str(features), "--jobs", jobs,
            ]) == 0
            assert main([
                "metrics", "--manifest", str(manifest), "--config", str(config),
                "--out", str(metrics), "--jobs", jobs,
            ]) == 0
            outs.append((features.read_bytes(), metrics.read_bytes()))
        assert outs[0] == outs[1]

    def test_pool_starts_no_more_workers_than_patients(self, tmp_path, cohort, monkeypatch):
        started = []

        class RecordingPool:
            """Runs tasks in-process and records the worker count it was asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr("transfid.analysis.ProcessPoolExecutor", RecordingPool)
        manifest, config = cohort
        for jobs in ("4", "500", "1"):
            assert main([
                "metrics", "--manifest", str(manifest), "--config", str(config),
                "--out", str(tmp_path / "m.csv"), "--jobs", jobs,
            ]) == 0
        assert started == [2, 2]

    @pytest.mark.parametrize("command", ["extract", "metrics"])
    def test_a_dying_worker_costs_its_own_patient_only(self, tmp_path, cohort, monkeypatch, capfd, command):
        manifest, config = cohort
        argv = [command, "--manifest", str(manifest), "--config", str(config), "--jobs", "2"]
        assert main(argv + ["--out", str(tmp_path / "clean.csv")]) == 0

        monkeypatch.setattr(analysis, "process_patient", partial(_die_for, {"p1"}))
        capfd.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        err = capfd.readouterr().err
        assert "warning: excluded patient p1: WorkerDied: " in err
        assert "p0" not in err and "Traceback" not in err
        # p0 keeps every byte of its rows, whether or not its first worker was lost with p1's
        clean = (tmp_path / "clean.csv").read_text().splitlines()
        assert (tmp_path / "out.csv").read_text().splitlines() == [r for r in clean if not r.startswith("p1,")]

    def test_every_worker_dying_exits_2_without_a_traceback(self, tmp_path, cohort, monkeypatch, capfd):
        manifest, config = cohort
        monkeypatch.setattr(analysis, "process_patient", partial(_die_for, {"p0", "p1"}))
        assert main([
            "extract", "--manifest", str(manifest), "--config", str(config),
            "--out", str(tmp_path / "out.csv"), "--jobs", "2",
        ]) == 2
        err = capfd.readouterr().err
        for pid in ("p0", "p1"):
            assert f"warning: excluded patient {pid}: WorkerDied: " in err
        assert "transfid: error: no patient could be processed" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_crop_config_flows_through_extract(self, tmp_path, cohort):
        manifest, _ = cohort
        config = tmp_path / "crop_config.json"
        config.write_text(json.dumps({
            "preprocess": {"crop": [6, 6, 6]},
            "ssim": {"window": 1},
            "discretize": {"bins": 4},
        }))
        features = tmp_path / "features_cropped.csv"
        assert main([
            "extract", "--manifest", str(manifest), "--config", str(config),
            "--out", str(features),
        ]) == 0
        with open(features) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            assert row["is.maximum"] != ""

    def test_threshold_and_summary_flags(self, tmp_path, cohort):
        manifest, config = cohort
        features = tmp_path / "features.csv"
        metrics = tmp_path / "metrics.csv"
        main(["extract", "--manifest", str(manifest), "--config", str(config), "--out", str(features)])
        main(["metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(metrics)])

        groups = tmp_path / "strict.csv"
        summary_path = tmp_path / "custom_summary.json"
        assert main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(groups), "--threshold", "0.99", "--summary", str(summary_path),
        ]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["threshold"] == 0.99
        # with only 2 patients rho is +/-1 or NaN; 1.0 > 0.99 still passes
        with open(groups) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 186
        # threshold 1.0 can never be exceeded (strict), so everything is Group3
        everything = tmp_path / "impossible.csv"
        assert main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(everything), "--threshold", "1.0",
        ]) == 0
        with open(everything) as fh:
            assert all(r["group"] == "Group3" for r in csv.DictReader(fh))

    def test_infinite_psnr_round_trips_through_csv(self, tmp_path):
        v, m = generate_phantom(42, (8, 8, 8))
        orig = tmp_path / "o.nii"
        mask = tmp_path / "m.nii"
        synth = tmp_path / "s.nii"
        save_nifti(orig, v)
        save_nifti(mask, v.with_values(m.flags.astype(float)))
        save_nifti(synth, v)
        manifest = tmp_path / "man.csv"
        manifest.write_text(
            "patient_id,source,path\n"
            f"p0,{ORIGINAL_SOURCE},{orig}\np0,mask,{mask}\np0,synth_id,{synth}\n"
        )
        config = tmp_path / "c.json"
        config.write_text('{"ssim": {"window": 1}}')
        metrics = tmp_path / "metrics.csv"
        assert main(["metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(metrics)]) == 0
        with open(metrics) as fh:
            row = next(csv.DictReader(fh))
        assert row["mae"] == "0"
        assert math.isinf(float(row["psnr"]))

    def test_roi_only_metrics_use_the_mask(self, tmp_path, cohort):
        manifest, config = cohort
        roi_config = tmp_path / "roi_config.json"
        roi_config.write_text(json.dumps({"ssim": {"window": 1}, "metrics": {"roi_only": True}}))
        whole, roi = tmp_path / "whole.csv", tmp_path / "roi.csv"
        assert main(["metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(whole)]) == 0
        assert main(["metrics", "--manifest", str(manifest), "--config", str(roi_config), "--out", str(roi)]) == 0
        with open(whole) as fh:
            whole_rows = list(csv.DictReader(fh))
        with open(roi) as fh:
            roi_rows = list(csv.DictReader(fh))
        assert len(roi_rows) == 4
        for whole_row, row in zip(whole_rows, roi_rows):
            pid, network = row["patient_id"], row["network"]
            original = min_max_normalize(load_nifti(tmp_path / f"{pid}_orig.nii"))
            synthetic = min_max_normalize(load_nifti(tmp_path / f"{pid}_{network}.nii"))
            mask = load_mask(tmp_path / f"{pid}_mask.nii", original)
            expected = {
                "mae": mae(original, synthetic, mask),
                "mse": mse(original, synthetic, mask),
                "ssim": ssim3d(original, synthetic, SsimParams(window=1), mask),
            }
            for name, value in expected.items():
                assert row[name] == format(value, ".9g")
                assert row[name] != whole_row[name]

    def test_overflowing_moments_keep_the_patient(self, tmp_path, capsys):
        rows = ["patient_id,source,path"]
        for i in range(2):
            v, m = generate_phantom(i, (16, 16, 16))
            save_nifti(tmp_path / f"p{i}.nii", v.with_values(v.values * 1e200))
            save_nifti(tmp_path / f"p{i}_mask.nii", v.with_values(m.flags.astype(float)))
            rows += [
                f"p{i},{ORIGINAL_SOURCE},{tmp_path / f'p{i}.nii'}",
                f"p{i},mask,{tmp_path / f'p{i}_mask.nii'}",
                f"p{i},synth_a,{tmp_path / f'p{i}.nii'}",
            ]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        config = tmp_path / "raw.json"
        config.write_text(json.dumps({"preprocess": {"normalize": False}}))
        out = tmp_path / "features.csv"
        assert main([
            "extract", "--manifest", str(manifest), "--config", str(config),
            "--out", str(out), "--jobs", "1",
        ]) == 0, capsys.readouterr().err
        with out.open() as fh:
            written = list(csv.DictReader(fh))
        assert [row["patient_id"] for row in written] == ["p0", "p0", "p1", "p1"]
        overflowed = ("is.skewness", "is.kurtosis", "is.variance", "is.energy",
                      "is.root_mean_square", "is.coefficient_of_variation")
        for row in written:
            assert all(row[key] == "" for key in overflowed)
            assert set(overflowed) <= set(row["flags"].split(";"))
            assert not any("inf" in row[key] for key in ALL_FEATURE_KEYS)
            # a warning made an error by pytest would have failed the whole family
            assert row["is.mean"] != ""

    def test_overflowing_metrics_exclude_the_patient(self, tmp_path, capsys):
        # unnormalized, 1e200 squares past float64 (MSE inf) and 1e100
        # leaves SSIM NaN; an identical network at scale 1 keeps PSNR inf
        rows = ["patient_id,source,path"]
        for pid, scale, other in (("p0", 1.0, 10), ("p1", 1e200, 11), ("p2", 1e100, 12), ("p3", 1.0, None)):
            v, m = generate_phantom(0, (16, 16, 16))
            synthetic = v if other is None else generate_phantom(other, (16, 16, 16))[0]
            save_nifti(tmp_path / f"{pid}.nii", v.with_values(v.values * scale))
            save_nifti(tmp_path / f"{pid}_synth.nii", synthetic.with_values(synthetic.values * scale))
            save_nifti(tmp_path / f"{pid}_mask.nii", v.with_values(m.flags.astype(float)))
            rows += [
                f"{pid},{ORIGINAL_SOURCE},{tmp_path / f'{pid}.nii'}",
                f"{pid},mask,{tmp_path / f'{pid}_mask.nii'}",
                f"{pid},synth_a,{tmp_path / f'{pid}_synth.nii'}",
            ]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        config = tmp_path / "raw.json"
        config.write_text(json.dumps({"preprocess": {"normalize": False}}))
        out = tmp_path / "metrics.csv"
        assert main([
            "metrics", "--manifest", str(manifest), "--config", str(config),
            "--out", str(out), "--jobs", "1",
        ]) == 0
        err = capsys.readouterr().err
        assert "excluded patient p1: UndefinedMetric: mse of synth_a is inf" in err
        assert "excluded patient p2: UndefinedMetric: ssim of synth_a is nan" in err
        assert err.count("preprocess.normalize") == 2
        with out.open() as fh:
            written = list(csv.DictReader(fh))
        assert [row["patient_id"] for row in written] == ["p0", "p3"]
        assert all(math.isfinite(float(row[name])) for row in written for name in ("mae", "mse", "ssim"))
        assert written[1]["mse"] == "0" and written[1]["psnr"] == "inf"

    @staticmethod
    def write_overflowing_cohort(tmp_path):
        """One patient whose original and network are both `overflowing_phantom`."""
        v, m = overflowing_phantom()
        save_nifti(tmp_path / "o.nii", v)
        save_nifti(tmp_path / "m.nii", v.with_values(m.flags.astype(float)))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "patient_id,source,path\n"
            f"p0,{ORIGINAL_SOURCE},{tmp_path / 'o.nii'}\np0,mask,{tmp_path / 'm.nii'}\n"
            f"p0,synth_a,{tmp_path / 'o.nii'}\n"
        )
        return manifest

    @pytest.mark.parametrize("command", ["extract", "metrics"])
    def test_an_overflowing_range_is_a_named_exclusion_under_either_warning_filter(self, tmp_path, command):
        # max - min overflows float64, so the range must be refused before any
        # arithmetic on it warns: a warning made an error would end in a traceback
        manifest = self.write_overflowing_cohort(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(transfid.__file__).resolve().parents[1])
        outcomes = []
        for warnings in ({}, {"PYTHONWARNINGS": "error::RuntimeWarning"}):
            done = subprocess.run(
                [sys.executable, "-m", "transfid.cli", command, "--manifest", str(manifest),
                 "--out", str(tmp_path / "out.csv"), "--jobs", "1"],
                env={**env, **warnings}, capture_output=True, text=True, check=False,
            )
            outcomes.append((done.returncode, done.stderr))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 2 and "Traceback" not in err
        assert "warning: excluded patient p0: NonFiniteVoxel: intensity range [-1e+308, 1e+308] " \
            "overflows float64: max - min is inf" in err
        assert not (tmp_path / "out.csv").exists()

    def test_an_overflowing_fbn_range_is_a_named_exclusion(self, tmp_path, capsys):
        # unnormalized, FBN must refuse the range: binning it puts every voxel on level 1
        manifest = self.write_overflowing_cohort(tmp_path)
        config = tmp_path / "raw.json"
        config.write_text(json.dumps({"preprocess": {"normalize": False}}))
        out = tmp_path / "features.csv"
        assert main([
            "extract", "--manifest", str(manifest), "--config", str(config),
            "--out", str(out), "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert "warning: excluded patient p0: InvalidScheme: FBN(bins=32) overflows float64 on the " \
            "ROI range [-1e+308, 1e+308]: bins * (max - min) is inf" in err
        assert "Traceback" not in err and not out.exists()

    def test_unnormalized_overflow_advice_names_a_range_that_overflows(self, tmp_path, capsys):
        # normalizing this range is refused too, so the advice must not stop at normalizing
        manifest = self.write_overflowing_cohort(tmp_path)
        config = tmp_path / "raw.json"
        config.write_text(json.dumps({"preprocess": {"normalize": False}}))
        assert main([
            "metrics", "--manifest", str(manifest), "--config", str(config),
            "--out", str(tmp_path / "metrics.csv"), "--jobs", "1",
        ]) == 2
        assert "warning: excluded patient p0: UndefinedMetric: ssim of synth_a is nan: the intensities " \
            "overflow float64; set preprocess.normalize to true, unless max - min overflows float64 " \
            "too, a range that normalization refuses as well\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "metrics"])
    @pytest.mark.parametrize("signaling", [ORIGINAL_SOURCE, "mask"])
    def test_a_signaling_nan_is_a_named_exclusion_under_either_warning_filter(
        self, tmp_path, capsys, command, signaling
    ):
        # 0x7f800001 is a signaling NaN: its cast to float64 raises the invalid
        # flag, which under error::RuntimeWarning must not escape as a traceback
        rows = ["patient_id,source,path"]
        for pid in ("p0", "p1"):
            v, m = generate_phantom(0, (16, 16, 16))
            files = {ORIGINAL_SOURCE: v.values, "mask": m.flags.astype(float), "synth_a": v.values * 0.9}
            for source, values in files.items():
                stored = values.astype(np.float32)
                if pid == "p0" and source == signaling:
                    stored.reshape(-1)[100:101].view(np.uint32)[0] = 0x7F800001
                write_nifti_reference(tmp_path / f"{pid}_{source}.nii", stored)
                rows.append(f"{pid},{source},{tmp_path / f'{pid}_{source}.nii'}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        outcomes = []
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                code = main([command, "--manifest", str(manifest), "--out", str(out), "--jobs", "1"])
            outcomes.append((code, capsys.readouterr().err, out.read_bytes()))
            out.unlink()
        assert outcomes[0] == outcomes[1]
        code, err, written = outcomes[0]
        assert code == 0
        assert f"excluded patient p0: NonFiniteVoxel: {tmp_path / f'p0_{signaling}.nii'}: " in err
        assert {line.split(b",")[0] for line in written.splitlines()[1:]} == {b"p1"}

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_underflowing_squared_errors_exclude_the_patient(self, tmp_path, capsys, scale):
        # unnormalized, 1e-300 leaves MAE near 1e-301 but squares every error
        # to 0, a perfect PSNR; 1e-160 leaves an MSE near 5e-322, a subnormal
        # with a few bits, and a finite PSNR read from them
        rows = ["patient_id,source,path"]
        for pid, scale in (("p0", scale), ("p1", 1.0)):
            v, m = generate_phantom(0, (16, 16, 16))
            synthetic = generate_phantom(1, (16, 16, 16))[0]
            save_nifti(tmp_path / f"{pid}.nii", v.with_values(v.values * scale))
            save_nifti(tmp_path / f"{pid}_synth.nii", synthetic.with_values(synthetic.values * scale))
            save_nifti(tmp_path / f"{pid}_mask.nii", v.with_values(m.flags.astype(float)))
            rows += [
                f"{pid},{ORIGINAL_SOURCE},{tmp_path / f'{pid}.nii'}",
                f"{pid},mask,{tmp_path / f'{pid}_mask.nii'}",
                f"{pid},synth_a,{tmp_path / f'{pid}_synth.nii'}",
            ]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        config = tmp_path / "raw.json"
        config.write_text(json.dumps({"preprocess": {"normalize": False}}))
        out = tmp_path / "metrics.csv"
        assert main([
            "metrics", "--manifest", str(manifest), "--config", str(config),
            "--out", str(out), "--jobs", "1",
        ]) == 0
        err = capsys.readouterr().err
        assert "excluded patient p0: UndefinedMetric: mse of synth_a is " in err
        assert "the squared errors underflow float64; set preprocess.normalize to true" in err
        with out.open() as fh:
            written = list(csv.DictReader(fh))
        assert [row["patient_id"] for row in written] == ["p1"]
        assert float(written[0]["mse"]) > 0 and math.isfinite(float(written[0]["psnr"]))

    def test_significant_digit_formats(self, tmp_path, cohort):
        manifest, config = cohort
        metrics = tmp_path / "metrics.csv"
        main(["metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(metrics)])
        with open(metrics) as fh:
            row = next(csv.DictReader(fh))
        for field in ("mae", "mse", "ssim", "psnr"):
            digits = row[field].replace(".", "").replace("-", "").lstrip("0")
            digits = digits.split("e")[0]
            assert len(digits) <= 9


class TestPhantomCommand:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        assert main(["phantom", "--seed", "7", "--dims", "16,16,16", "--out", str(a)]) == 0
        assert main(["phantom", "--seed", "7", "--dims", "16,16,16", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(a.read_bytes()).hexdigest() == PHANTOM7_SHA256

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        main(["phantom", "--seed", "7", "--dims", "16,16,16", "--out", str(a)])
        main(["phantom", "--seed", "8", "--dims", "16,16,16", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_mask_written_and_loadable(self, tmp_path):
        out = tmp_path / "p.nii"
        main(["phantom", "--seed", "3", "--dims", "12,10,8", "--out", str(out)])
        mask_vol = load_nifti(tmp_path / "p_mask.nii")
        assert mask_vol.dims == (12, 10, 8)
        assert (mask_vol.values != 0).any()
        vol = load_nifti(out)
        assert vol.values.min() >= 0.0 and vol.values.max() <= 1.0

    def test_mask_out_same_as_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "a.nii"
        argv = ["phantom", "--seed", "3", "--dims", "8,8,8", "--out", str(out), "--mask-out", "a.nii"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--out and --mask-out name the same file" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_every_small_grid_has_an_roi(self, tmp_path):
        # every voxel centre of (2, 2, 2) lies just outside the ellipsoid
        for dims in itertools.product(range(1, 7), repeat=3):
            assert generate_phantom(3, dims)[1].voxel_count >= 1
        assert main(["phantom", "--seed", "3", "--dims", "2,2,2", "--out", str(tmp_path / "p.nii")]) == 0
        assert load_mask(tmp_path / "p_mask.nii", load_nifti(tmp_path / "p.nii")).voxel_count == 8

    def test_mask_out_path(self, tmp_path):
        out = tmp_path / "p.nii"
        mask_out = tmp_path / "roi.nii"
        argv = ["phantom", "--seed", "3", "--dims", "12,10,8", "--out", str(out), "--mask-out", str(mask_out)]
        assert main(argv) == 0
        assert not (tmp_path / "p_mask.nii").exists()
        mask = load_mask(mask_out, load_nifti(out))
        assert np.array_equal(mask.flags, generate_phantom(3, (12, 10, 8))[1].flags)


@pytest.mark.parametrize(
    ("seed", "dims", "digest"),
    [
        (0, (16, 16, 16), "0cad28eb1df4d7097753ab492114f6502ec4e29ce99e873cb0eacfb52247385a"),
        (3, (5, 9, 3), "6c5b3da4f51c857c3789a9ec7bfd100ade948c5a787cd1ecdbdd0b31f3f8329a"),
        (7, (1, 1, 1), "2ae1c19c0cbd378e46c927a9f3611923ec07cc1ae357502a09536d455275cf21"),
        (42, (33, 20, 7), "78b25594a4bc8431577bb223d3afd47a65c04a634fe3f42e0545e79dc57fdd51"),
    ],
)
def test_phantom_bytes_are_pinned(seed, dims, digest):
    """The sha256 of a phantom's float64 values followed by its bool flags,
    frozen from the generator: every voxel keeps its bits."""
    v, m = generate_phantom(seed, dims)
    assert v.values.dtype == np.float64 and m.flags.dtype == bool
    assert hashlib.sha256(v.values.tobytes() + m.flags.tobytes()).hexdigest() == digest


class TestExitCodes:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_selftest_fails_on_nan_where_golden_is_finite(self, capsys, monkeypatch):
        extract_all = cli.extract_all

        def extract_with_nan(*args):
            vector = extract_all(*args)
            values = {**vector.values, "is.mean": math.nan}
            return FeatureVector(values, vector.flags | {"is.mean"}, vector.provenance)

        monkeypatch.setattr(cli, "extract_all", extract_with_nan)
        assert main(["selftest"]) == 2
        assert "[FAIL] phantom features match committed golden values  (is.mean: nan vs golden" \
            in capsys.readouterr().out

    def test_selftest_fails_on_finite_where_golden_is_nan(self, capsys, monkeypatch):
        golden = cli._selftest_golden()
        key = next(k for k, v in golden["features"].items() if v is not None)
        monkeypatch.setattr(cli, "_selftest_golden", lambda: {**golden, "features": {key: None}})
        assert main(["selftest"]) == 2
        assert f"[FAIL] phantom features match committed golden values  ({key}: expected NaN, got" \
            in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["metrics", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_summary_same_as_out_is_usage_error(self, tmp_path, capsys):
        features, metrics = write_analyze_inputs(tmp_path)
        groups = tmp_path / "g.csv"
        assert main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(groups), "--summary", str(groups),
        ]) == 1
        assert "--out and --summary name the same file" in capsys.readouterr().err
        assert not groups.exists()

    @pytest.mark.parametrize("output", ["--out", "--summary"])
    @pytest.mark.parametrize("target", ["--features", "--metrics"])
    def test_analyze_output_over_an_input_is_usage_error(self, tmp_path, capsys, output, target):
        features, metrics = write_analyze_inputs(tmp_path)
        flags = {"--features": str(features), "--metrics": str(metrics), "--out": str(tmp_path / "g.csv")}
        flags[output] = flags[target]
        before = Path(flags[target]).read_bytes()
        assert main(["analyze", *(item for pair in flags.items() for item in pair)]) == 1
        assert f"{output} and {target} name the same file" in capsys.readouterr().err
        assert Path(flags[target]).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv", "metrics.csv"]

    def test_analyze_default_summary_over_an_input_is_usage_error(self, tmp_path, capsys):
        # without --summary, --out g.csv writes its summary to g.summary.json
        features, metrics = write_analyze_inputs(tmp_path)
        features = features.rename(tmp_path / "g.summary.json")
        before = features.read_bytes()
        assert main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ]) == 1
        assert "--summary and --features name the same file" in capsys.readouterr().err
        assert features.read_bytes() == before
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command", ["extract", "metrics"])
    @pytest.mark.parametrize("victim, message", [
        ("manifest.csv", "--out and --manifest name the same file"),
        ("config.json", "--out and --config name the same file"),
        *((image, "an image that --manifest lists") for image in ("p1_orig.nii", "p1_synth_bad.nii", "p1_mask.nii")),
    ])
    def test_cohort_output_over_an_input_is_usage_error(self, tmp_path, capsys, cohort, command, victim, message):
        manifest, config = cohort
        before = (tmp_path / victim).read_bytes()
        assert main([
            command, "--manifest", str(manifest), "--config", str(config),
            "--out", str(tmp_path / victim), "--jobs", "1",
        ]) == 1
        assert message in capsys.readouterr().err
        assert (tmp_path / victim).read_bytes() == before

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main([
            "metrics", "--manifest", str(tmp_path / "none.csv"), "--out", str(tmp_path / "m.csv")
        ]) == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"discretise": {"bins": 8}}))
        manifest = tmp_path / "m.csv"
        manifest.write_text("patient_id,source,path\n")
        assert main([
            "metrics", "--manifest", str(manifest), "--config", str(config),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        assert "config schema" in capsys.readouterr().err

    def test_analyze_rejects_malformed_features(self, tmp_path):
        bad = tmp_path / "f.csv"
        bad.write_text("patient_id,source\np0,original_mri\n")
        metrics = tmp_path / "m.csv"
        metrics.write_text("patient_id,network,mae,mse,ssim,psnr\n")
        assert main([
            "analyze", "--features", str(bad), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ]) == 2

    def test_threshold_outside_rho_range_is_usage_error(self, tmp_path, capsys):
        features, metrics = write_analyze_inputs(tmp_path)
        for value in ("1.5", "-1.01", "nan", "abc"):
            assert main([
                "analyze", "--features", str(features), "--metrics", str(metrics),
                "--out", str(tmp_path / "g.csv"), "--threshold", value,
            ]) == 1
            assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize(
        "argv, env, named",
        [
            (["phantom", "--seed", "1", "--dims", "a,b,c"], None, "--dims"),
            (["phantom", "--seed", "1", "--dims", "0,4,4"], None, "--dims"),
            (["phantom", "--seed", "1", "--dims", "8,8"], None, "--dims"),
            (["phantom", "--seed", "1", "--dims", "40000,1,1"], None, "--dims"),
            (["phantom", "--seed", "1", "--spacing", "1,1,x"], None, "--spacing"),
            (["phantom", "--seed", "1", "--spacing", "0,1,1"], None, "--spacing"),
            (["phantom", "--seed", "1", "--spacing", "nan,1,1"], None, "--spacing"),
            (["phantom", "--seed", "1", "--spacing", "1e39,1,1"], None, "--spacing"),
            (["phantom", "--seed", "1", "--spacing", "1e-50,1,1"], None, "--spacing"),
            (["phantom", "--seed", "-1"], None, "--seed"),
            (["metrics", "--manifest", "m.csv"], "abc", "TRANSFID_JOBS"),
            (["metrics", "--manifest", "m.csv", "--jobs", "-1"], None, "--jobs"),
            # each count fits a NIfTI header, but the phantom would need 4 TiB
            (["phantom", "--seed", "1", "--dims", "32767,32767,32767"], None, "--dims"),
            (["phantom", "--seed", "1", "--dims", "256,256,257"], None, "--dims"),
        ],
    )
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, env, named):
        if env is None:
            monkeypatch.delenv("TRANSFID_JOBS", raising=False)
        else:
            monkeypatch.setenv("TRANSFID_JOBS", env)
        assert main([*argv, "--out", str(tmp_path / "out.nii")]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dims", ["256,256,256", "32767,512,1"])
    def test_dims_at_voxel_bound_accepted(self, dims):
        # parsed only: generating either phantom takes about 0.8 GB
        args = build_parser().parse_args(["phantom", "--seed", "1", "--dims", dims, "--out", "v.nii"])
        assert math.prod(args.dims) <= MAX_VOXELS
        assert args.dims == tuple(int(d) for d in dims.split(","))

    @pytest.mark.parametrize("command", ["extract", "metrics"])
    def test_every_patient_excluded_is_data_error(self, tmp_path, capsys, command):
        v, m = generate_phantom(7, (8, 8, 8))
        orig, mask = tmp_path / "o.nii", tmp_path / "m.nii"
        save_nifti(orig, v)
        save_nifti(mask, v.with_values(m.flags.astype(float)))
        # extract: FBS at this width needs thousands of gray levels; metrics: no synthetic file
        synth = orig if command == "extract" else tmp_path / "missing.nii"
        manifest = tmp_path / "man.csv"
        manifest.write_text(
            "patient_id,source,path\n"
            f"p1,{ORIGINAL_SOURCE},{orig}\np1,mask,{mask}\np1,synth_a,{synth}\n"
        )
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"discretize": {"mode": "FBS", "bin_width": 0.0001}}))
        out = tmp_path / "out.csv"
        assert main([
            command, "--manifest", str(manifest), "--config", str(config), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "warning: excluded patient p1" in err
        assert err.rstrip().endswith("transfid: error: no patient could be processed")
        assert not out.exists()

    @pytest.mark.parametrize("fbs", [
        {"bin_width": 0.04, "origin": 1e300},
        {"bin_width": 1e-300},
        {"bin_width": 1e-310},
    ])
    def test_fbs_bins_beyond_exact_range_exclude_the_patient(self, tmp_path, capsys, fbs):
        v, m = generate_phantom(0, (8, 8, 8))
        orig, mask = tmp_path / "o.nii", tmp_path / "m.nii"
        save_nifti(orig, v)
        save_nifti(mask, v.with_values(m.flags.astype(float)))
        manifest = tmp_path / "man.csv"
        manifest.write_text(
            "patient_id,source,path\n"
            f"p1,{ORIGINAL_SOURCE},{orig}\np1,mask,{mask}\np1,synth_a,{orig}\n"
        )
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"discretize": {"mode": "FBS", **fbs}}))
        out = tmp_path / "out.csv"
        assert main([
            "extract", "--manifest", str(manifest), "--config", str(config), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert "warning: excluded patient p1: InvalidScheme" in err and "bin range" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_refused_allocation_excludes_without_traceback(self, tmp_path, capsys, cohort, monkeypatch):
        manifest, _ = cohort
        config = tmp_path / "crop.json"
        config.write_text(json.dumps({"preprocess": {"crop": [6, 6, 6]}}))

        # the config refuses an oversized window, so the crop inside the
        # pipeline asks for a 7 PiB one, which numpy refuses before it
        # touches memory
        def oversized_crop(volume, mask, target):
            return crop_centered(volume, mask, (100000, 100000, 100000))

        monkeypatch.setattr(analysis, "crop_centered", oversized_crop)
        out = tmp_path / "out.csv"
        assert main([
            "metrics", "--manifest", str(manifest), "--config", str(config), "--out", str(out),
            "--jobs", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.count("MemoryError") == 2 and "Traceback" not in err
        assert not out.exists()


def write_analyze_inputs(tmp_path, features_rows=None, metrics_rows=None):
    """Valid analyze inputs for 3 patients x 1 network, with optional extra rows."""
    header = ["patient_id", "source", *ALL_FEATURE_KEYS, "flags"]
    rows = [header]
    for i in range(3):
        for source in (ORIGINAL_SOURCE, "synth_a"):
            rows.append([f"p{i}", source, *(str(i + j) for j in range(len(ALL_FEATURE_KEYS))), ""])
    rows += features_rows or []
    features = tmp_path / "features.csv"
    features.write_text("\n".join(",".join(r) for r in rows) + "\n")
    metric_rows = ["patient_id,network,mae,mse,ssim,psnr"]
    metric_rows += [f"p{i},synth_a,0.1,0.01,0.9,20" for i in range(3)]
    metric_rows += metrics_rows or []
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("\n".join(metric_rows) + "\n")
    return features, metrics


def feature_row(pid, source, cells=None, flags=""):
    values = cells or ["1"] * len(ALL_FEATURE_KEYS)
    return [pid, source, *values, flags]


class TestAnalyzeInputHazards:
    """Each bad analyze input exits 2 with a message naming file and line."""

    def _run(self, tmp_path, capsys, features_rows=None, metrics_rows=None):
        features, metrics = write_analyze_inputs(tmp_path, features_rows, metrics_rows)
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert (tmp_path / "g.csv").exists() == (code == 0)
        return code, capsys.readouterr().err, features, metrics

    def test_duplicate_feature_row(self, tmp_path, capsys):
        code, err, features, _ = self._run(
            tmp_path, capsys, features_rows=[feature_row("p1", "synth_a")]
        )
        assert code == 2
        assert f"{features}, line 8: duplicate row for patient 'p1', source 'synth_a'" in err

    def test_duplicate_metric_row(self, tmp_path, capsys):
        code, err, _, metrics = self._run(
            tmp_path, capsys, metrics_rows=["p0,synth_a,0.2,0.04,0.8,14"]
        )
        assert code == 2
        assert f"{metrics}, line 5: duplicate row for patient 'p0', network 'synth_a'" in err

    # NaN is not a number here: NaN sort keys keep the input order, so a NaN
    # mean SSIM would leave the network ranking, and with it Group2, to row order
    @pytest.mark.parametrize("cell", ["", "n/a", "nan", "NaN", "-nan"])
    def test_bad_metric_cell(self, tmp_path, capsys, cell):
        code, err, _, metrics = self._run(
            tmp_path, capsys, metrics_rows=[f"p3,synth_a,0.2,0.04,{cell},14"]
        )
        assert code == 2
        assert f"{metrics}, line 5: ssim is not a number: {cell!r}" in err

    # `metrics` writes no infinite MAE, MSE or SSIM, and one such cell would
    # set its network's mean, and with it the top network, alone
    @pytest.mark.parametrize("column, cell", [
        ("mae", "inf"), ("mae", "-inf"), ("mse", "inf"), ("mse", "-Infinity"),
        ("ssim", "inf"), ("ssim", "-inf"), ("ssim", "Infinity"),
    ])
    def test_infinite_metric_cell(self, tmp_path, capsys, column, cell):
        cells = {"mae": "0.2", "mse": "0.04", "ssim": "0.8", "psnr": "14", column: cell}
        code, err, _, metrics = self._run(
            tmp_path, capsys, metrics_rows=[",".join(["p3", "synth_a", *cells.values()])]
        )
        assert code == 2
        assert f"{metrics}, line 5: {column} must be finite, got {cell!r}" in err

    def test_negative_infinite_psnr(self, tmp_path, capsys):
        # PSNR is inf when MSE is 0; -inf would need an infinite MSE
        code, err, _, metrics = self._run(
            tmp_path, capsys, metrics_rows=["p3,synth_a,0.2,0.04,0.8,-inf"]
        )
        assert code == 2
        assert f"{metrics}, line 5: psnr must be finite or inf, got '-inf'" in err

    def test_infinite_metric_cell_is_a_number(self, tmp_path, capsys):
        # `metrics` writes PSNR inf when MSE is 0
        features, metrics = write_analyze_inputs(tmp_path)
        metrics.write_text(metrics.read_text().replace(",20\n", ",inf\n"))
        assert metrics.read_text().count(",inf\n") == 3
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 0, capsys.readouterr().err

    def test_non_numeric_feature_cell(self, tmp_path, capsys):
        cells = ["1"] * len(ALL_FEATURE_KEYS)
        cells[2], cells[5] = "nan", "x1"  # a feature cell may be NaN; the bad one is named
        code, err, features, _ = self._run(
            tmp_path, capsys, features_rows=[feature_row("p3", ORIGINAL_SOURCE, cells)]
        )
        assert code == 2
        assert f"{features}, line 8: {ALL_FEATURE_KEYS[5]} is not a number: 'x1'" in err

    def test_unknown_flag(self, tmp_path, capsys):
        row = feature_row("p3", ORIGINAL_SOURCE, flags=f"{ALL_FEATURE_KEYS[0]};glcm.bogus")
        code, err, features, _ = self._run(tmp_path, capsys, features_rows=[row])
        assert code == 2
        assert f"{features}, line 8: unknown feature 'glcm.bogus' in flags" in err

    def test_feature_column_named_twice(self, tmp_path, capsys):
        features, metrics = write_analyze_inputs(tmp_path)
        lines = features.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace(ALL_FEATURE_KEYS[1], ALL_FEATURE_KEYS[0], 1)
        features.write_text("".join(lines))
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        assert f"{features}: header names column {ALL_FEATURE_KEYS[0]!r} twice" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_no_synthetic_rows(self, tmp_path, capsys):
        # no network to rank, so no top network
        features, metrics = write_analyze_inputs(tmp_path)
        lines = features.read_text().splitlines(keepends=True)
        features.write_text("".join(line for line in lines if ",synth_a," not in line))
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{features}: no synthetic source rows" in err and "Traceback" not in err
        assert not (tmp_path / "g.csv").exists()

    def test_no_original_rows(self, tmp_path, capsys):
        features, metrics = write_analyze_inputs(tmp_path)
        lines = features.read_text().splitlines(keepends=True)
        features.write_text("".join(line for line in lines if f",{ORIGINAL_SOURCE}," not in line))
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{features}: no {ORIGINAL_SOURCE} rows" in err and "Traceback" not in err
        assert not (tmp_path / "g.csv").exists()

    def test_no_metrics_for_any_network(self, tmp_path, capsys):
        # a top network chosen by name alone would decide Group2
        features, metrics = write_analyze_inputs(
            tmp_path, features_rows=[feature_row(f"p{i}", "synth_b") for i in range(3)]
        )
        metrics.write_text("patient_id,network,mae,mse,ssim,psnr\nq9,netZ,0.1,0.01,0.9,20\n")
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{metrics}: no row for any patient and network of {features}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "g.csv").exists()

    def test_top_network_is_one_with_metrics(self, tmp_path, capsys):
        # "synth_0" sorts first by name but has features only, so it ranks last
        code, err, _, _ = self._run(
            tmp_path, capsys,
            features_rows=[
                feature_row(f"p{i}", "synth_0", [str(i + j) for j in range(len(ALL_FEATURE_KEYS))])
                for i in range(3)
            ],
        )
        assert code == 0, err
        summary = json.loads((tmp_path / "g.summary.json").read_text())
        assert summary["networks_ranked"] == ["synth_a", "synth_0"]
        assert summary["top_network"] == "synth_a"

    @pytest.mark.parametrize("which", ["features", "metrics"])
    @pytest.mark.parametrize("junk", [b"\xff\xfe,1\n", b'"' + b"x" * 200_000 + b'"\n'])
    def test_unreadable_csv(self, tmp_path, capsys, which, junk):
        # a byte that is not UTF-8, and a cell over the csv module's size limit
        features, metrics = write_analyze_inputs(tmp_path)
        bad = features if which == "features" else metrics
        bad.write_bytes(bad.read_bytes() + junk)
        code = main([
            "analyze", "--features", str(features), "--metrics", str(metrics),
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == 2
        assert f"{bad}: not a readable UTF-8 CSV file" in capsys.readouterr().err


def write_pinned_analyze_inputs(tmp_path):
    """A seeded 12-patient features/metrics pair over three networks, holding
    each input `analyze` must take in stride: empty and infinite cells,
    integer ties, a constant column, a missing (patient, source) row, and a
    network (`netC`) with features but no metric rows."""
    rng = np.random.default_rng(26)
    patients = [f"p{i}" for i in range(12)]
    original = rng.normal(size=(12, len(ALL_FEATURE_KEYS)))
    original[:, :40] = np.round(original[:, :40] * 2)  # integer ties
    original[:, 40] = 3.0  # constant: rho is NaN on every network
    sources = {
        ORIGINAL_SOURCE: original,
        "netA": original + rng.normal(0, 0.9, original.shape),
        "netB": original * rng.choice([-1.0, 1.0], original.shape[1]) + rng.normal(0, 0.5, original.shape),
        "netC": rng.normal(size=original.shape),
    }
    sources["netA"][:, :40] = np.round(sources["netA"][:, :40])
    for values in sources.values():
        values[rng.random(values.shape) < 0.05] = np.nan  # empty cells
        values[rng.random(values.shape) < 0.02] = np.inf
        values[rng.random(values.shape) < 0.02] = -np.inf
    features = tmp_path / "features.csv"
    with open(features, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "source", *ALL_FEATURE_KEYS, "flags"])
        for i, pid in enumerate(patients):
            for source, values in sources.items():
                if (pid, source) != ("p5", "netB"):
                    cells = ("" if math.isnan(v) else repr(v) for v in values[i].tolist())
                    writer.writerow([pid, source, *cells, ""])
    metrics = tmp_path / "metrics.csv"
    with open(metrics, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "network", "mae", "mse", "ssim", "psnr"])
        for pid in patients:
            for network, ssim in (("netA", 0.8), ("netB", 0.6)):
                mae, ssim = rng.uniform(0.05, 0.1), ssim + rng.uniform(-0.1, 0.1)
                writer.writerow([pid, network, repr(mae), repr(mae * mae), repr(ssim), repr(20.0 + ssim)])
    return features, metrics


# sha256 of (groups.csv, groups.summary.json) from the inputs above, per
# --threshold; at 0.5 and 0.75 all three groups and the anomalous flag occur
ANALYZE_PIN_SHA256 = {
    "0.5": (
        "57b7569bd8d3e734217a84805bbe4d26093a216907c4b83f019bab776fc58289",
        "e97ff453209a95a4f7336d7d5e560f26ce7c8bf8f4370b339f8b31bd7c1198ed",
    ),
    "0.75": (
        "ac33e2440d4f532c7bcbfa8e890b3f364983d12352787c46d23a9ab74190ff5d",
        "fa460309d8d1a965a43d0d8bc0eb22e350fe6d01c2f5b6ae826953cdab539d25",
    ),
}


@pytest.mark.parametrize("threshold", sorted(ANALYZE_PIN_SHA256))
def test_analyze_output_bytes_are_pinned(tmp_path, threshold):
    features, metrics = write_pinned_analyze_inputs(tmp_path)
    groups = tmp_path / "groups.csv"
    assert main([
        "analyze", "--features", str(features), "--metrics", str(metrics),
        "--out", str(groups), "--threshold", threshold,
    ]) == 0
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (groups, tmp_path / "groups.summary.json")
    )
    assert digests == ANALYZE_PIN_SHA256[threshold]


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules, and OpenSSL's `_hashlib` (which `import hashlib`
    maps into the process), that a fresh interpreter holds after running
    `code`."""
    src = str(Path(transfid.__file__).resolve().parents[1])
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == '_hashlib')))"
    result = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_no_command_loads_scipy_at_start_up(tmp_path, cohort):
    """No command loads any scipy module, at start-up or while it runs:
    `analyze`, `metrics` and `extract` (in-process, at --jobs 1) run on
    numpy alone. Nor does any of them load OpenSSL: the config hash is
    zlib's."""
    assert _scipy_modules_after("import transfid.cli") == []

    features, metrics = write_analyze_inputs(tmp_path)
    analyze = [
        "analyze", "--features", str(features), "--metrics", str(metrics),
        "--out", str(tmp_path / "g.csv"),
    ]
    assert _scipy_modules_after(f"from transfid.cli import main\nassert main({analyze!r}) == 0") == []

    manifest, config = cohort
    run_metrics = [
        "metrics", "--manifest", str(manifest), "--config", str(config),
        "--out", str(tmp_path / "m.csv"), "--jobs", "1",
    ]
    loaded = _scipy_modules_after(f"from transfid.cli import main\nassert main({run_metrics!r}) == 0")
    assert loaded == []

    run_extract = [
        "extract", "--manifest", str(manifest), "--config", str(config),
        "--out", str(tmp_path / "f.csv"), "--jobs", "1",
    ]
    loaded = _scipy_modules_after(f"from transfid.cli import main\nassert main({run_extract!r}) == 0")
    assert loaded == []


def test_no_module_imports_scipy():
    """No module of the package imports scipy, lazily inside a function
    included: an installed transfid needs numpy alone."""
    package = Path(transfid.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(package)}:{node.lineno} {m}"
                for m in modules if m.split(".")[0] == "scipy"
            ]
    assert found == []


# imported only for perfbench/layers.py, which probes cli.FeatureVector
IMPORTED_FOR_PROBES = {"cli.py FeatureVector"}


def test_every_module_level_import_is_used():
    """Each name a module imports at module level is read in that module.
    A package's `__init__` imports to re-export, so it is left out."""
    package = Path(transfid.__file__).resolve().parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(package)} {name}" for name in names if name not in read]
    assert sorted(set(unused) - IMPORTED_FOR_PROBES) == []
    assert IMPORTED_FOR_PROBES <= set(unused)
