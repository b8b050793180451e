"""Acceptance criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s` or in the
captured output). Tolerances are pinned here and nowhere else:
oracle equivalence uses |a-b| <= 1e-9 * max(1, |a|, |b|).
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from transfid.analysis import (
    GROUP1,
    GROUP2,
    GROUP3,
    Concordance,
    build_cohort,
    classify_groups,
    concordance,
    rank_networks,
)
from transfid.cli import main
from transfid.config import RunConfig
from transfid.iqa import mae, mse, psnr, ssim3d
from transfid.manifest import ORIGINAL_SOURCE
from transfid.nifti import save_nifti
from transfid.phantom import generate_phantom
from transfid.radiomics import (
    ALL_FEATURE_KEYS,
    EXPECTED_FAMILY_COUNTS,
    extract_all,
)
from transfid.stats import PairedSample, spearman_rho

from conftest import make_mask, make_volume


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def rel_close(a, b, tol=1e-9):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def family_of(key):
    return key.split(".", 1)[0].upper()


def test_feature_count_law():
    with criterion("feature-count law: 186 features, family counts 2/18/23/7/50/32/16/16/5/17"):
        start = time.perf_counter()
        inputs = []
        v, m = generate_phantom(0, (8, 8, 8))
        inputs.append((v, m))
        const = make_volume(np.full((4, 4, 4), 0.5))
        inputs.append((const, make_mask(np.ones((4, 4, 4), bool))))
        single = np.zeros((3, 3, 3), dtype=bool)
        single[1, 1, 1] = True
        inputs.append((make_volume(np.random.default_rng(1).random((3, 3, 3))), make_mask(single)))

        for vol, mask in inputs:
            vec = extract_all(vol, mask, RunConfig.from_dict({"discretize": {"bins": 8}}))
            assert len(vec) == 186
            counts = {}
            for key in vec.values:
                counts[family_of(key)] = counts.get(family_of(key), 0) + 1
            assert counts == EXPECTED_FAMILY_COUNTS
        assert time.perf_counter() - start < 1.0


def test_oracle_equivalence_on_20_phantoms():
    with criterion("oracle equivalence: 186 features vs brute force on 20 phantoms (1e-9)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for seed in range(20):
            dims = tuple(int(d) for d in rng.integers(8, 17, 3))
            spacing = tuple(float(s) for s in rng.uniform(0.9, 2.5, 3))
            ng = int(rng.integers(2, 9))
            v, m = generate_phantom(seed, dims, spacing)
            vec = extract_all(v, m, RunConfig.from_dict({"discretize": {"bins": ng}}))
            expected = oracles.extract_all_features(v.values, m.flags, spacing, ng=ng)
            for key in ALL_FEATURE_KEYS:
                assert rel_close(vec[key], expected[key]), (
                    f"seed {seed} ng {ng} {key}: {vec[key]} vs {expected[key]}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_iqa_identities():
    with criterion("IQA identities: ssim(a,a)=1, psnr=-10log10(mse), symmetry, oracle match"):
        rng = np.random.default_rng(7)
        a_vals = rng.random((16, 16, 16))
        b_vals = np.clip(a_vals + rng.normal(0, 0.08, a_vals.shape), 0, 1)
        a, b = make_volume(a_vals), make_volume(b_vals)

        assert abs(ssim3d(a, a) - 1.0) <= 1e-12
        assert psnr(a, b, 1.0) == -10.0 * math.log10(mse(a, b))
        assert mae(a, b) == mae(b, a)
        assert mse(a, b) == mse(b, a)
        assert abs(ssim3d(a, b) - oracles.ssim3d(a_vals, b_vals)) <= 1e-9


def test_statistics():
    with criterion("statistics: exact rank extremes"):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman_rho(PairedSample(x, 2.0 * x + 1.0)) == 1.0
        assert spearman_rho(PairedSample(x, -x)) == -1.0
        assert spearman_rho(PairedSample(x, np.exp(x))) == spearman_rho(PairedSample(x, x))


def _random_concordance(rng, n_networks=5, nan_fraction=0.05):
    networks = [f"n{i}" for i in range(n_networks)]
    shape = (len(ALL_FEATURE_KEYS), n_networks)
    rho = np.where(rng.random(shape) < nan_fraction, math.nan, rng.uniform(-1, 1, shape))
    return Concordance(ALL_FEATURE_KEYS, networks, rho, np.full(shape, 10))


def test_grouping_semantics():
    with criterion("grouping: partition, strict threshold, strict majority, monotonicity"):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            result = _random_concordance(rng)
            networks = result.networks
            top = networks[int(rng.integers(0, len(networks)))]
            threshold = 0.5
            grouping = classify_groups(result, top, threshold)
            assert grouping.group.shape == grouping.anomalous.shape == (186,)

            for j, rho in enumerate(result.rho.tolist()):
                passes = [(not math.isnan(r)) and r > threshold for r in rho]
                n_pass = sum(passes)
                if n_pass > len(networks) / 2:
                    expected = GROUP1
                elif passes[networks.index(top)]:
                    expected = GROUP2
                else:
                    expected = GROUP3
                assert grouping.group[j] == expected
                assert grouping.passes[j].tolist() == passes
                assert grouping.anomalous[j] == (expected == GROUP3 and n_pass > 0)

            # monotonicity: raising a single rho never demotes the feature
            order = {GROUP1: 0, GROUP2: 1, GROUP3: 2}
            idx = int(rng.integers(0, 186))
            k = int(rng.integers(0, len(networks)))
            bumped_rho = result.rho.copy()
            old = bumped_rho[idx, k]
            bumped_rho[idx, k] = 1.0 if math.isnan(old) else min(1.0, old + float(rng.uniform(0, 2)))
            bumped = Concordance(result.feature_keys, networks, bumped_rho, result.n_effective)
            after = classify_groups(bumped, top, threshold).group[idx]
            assert order[after] <= order[grouping.group[idx]]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_group_sizes_sum_to_186():
    with criterion("structural check: group sizes always sum to 186 (= 18 + 75 + 93)"):
        assert 18 + 75 + 93 == 186
        rng = np.random.default_rng(11)
        for _ in range(50):
            result = _random_concordance(rng)
            group = classify_groups(result, result.networks[0]).group
            sizes = {g: int(np.count_nonzero(group == g)) for g in (GROUP1, GROUP2, GROUP3)}
            assert sizes[GROUP1] + sizes[GROUP2] + sizes[GROUP3] == 186


def test_perfect_translation_cohort(tmp_path):
    with criterion("perfect translation: identical synthetics give SSIM 1 and Group1"):
        rows = ["patient_id,source,path"]
        for i in range(3):
            v, m = generate_phantom(80 + i, (16, 16, 16))
            orig = tmp_path / f"p{i}.nii"
            mask = tmp_path / f"p{i}_m.nii"
            synth = tmp_path / f"p{i}_s.nii"
            save_nifti(orig, v)
            save_nifti(mask, v.with_values(m.flags.astype(float)))
            save_nifti(synth, v)
            rows += [
                f"p{i},{ORIGINAL_SOURCE},{orig}",
                f"p{i},mask,{mask}",
                f"p{i},synth_identity,{synth}",
            ]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")

        config = RunConfig.from_dict({"ssim": {"window": 2}, "discretize": {"bins": 8}})
        table = build_cohort(manifest, config)
        assert rank_networks(table) == ["synth_identity"]
        for pid in table.patients:
            assert table.metrics[(pid, "synth_identity")].ssim == pytest.approx(1.0, abs=1e-12)

        result = concordance(table)
        group = classify_groups(result, "synth_identity").group
        defined = ~np.isnan(result.rho[:, 0])
        assert defined.any()
        assert (result.rho[defined, 0] == 1.0).all()
        assert (group[defined] == GROUP1).all()


def test_determinism_and_performance(tmp_path):
    with criterion("determinism: serial == 8-way parallel; 128x128x64 Ng=32 under 5 s"):
        rows = ["patient_id,source,path"]
        for i in range(2):
            v, m = generate_phantom(90 + i, (10, 10, 10))
            orig = tmp_path / f"p{i}.nii"
            mask = tmp_path / f"p{i}_m.nii"
            synth = tmp_path / f"p{i}_s.nii"
            save_nifti(orig, v)
            save_nifti(mask, v.with_values(m.flags.astype(float)))
            save_nifti(synth, v.with_values(np.clip(v.values * 0.9 + 0.02, 0, 1)))
            rows += [
                f"p{i},{ORIGINAL_SOURCE},{orig}",
                f"p{i},mask,{mask}",
                f"p{i},synth_a,{synth}",
            ]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        config = tmp_path / "config.json"
        config.write_text('{"ssim": {"window": 1}, "discretize": {"bins": 8}}')

        outputs = []
        for jobs in ("1", "8"):
            features = tmp_path / f"f{jobs}.csv"
            metrics = tmp_path / f"m{jobs}.csv"
            assert main([
                "extract", "--manifest", str(manifest), "--config", str(config),
                "--out", str(features), "--jobs", jobs,
            ]) == 0
            assert main([
                "metrics", "--manifest", str(manifest), "--config", str(config),
                "--out", str(metrics), "--jobs", jobs,
            ]) == 0
            outputs.append((features.read_bytes(), metrics.read_bytes()))
        assert outputs[0] == outputs[1]

        v, m = generate_phantom(3, (128, 128, 64))
        start = time.perf_counter()
        vec = extract_all(v, m, RunConfig.from_dict({}))
        elapsed = time.perf_counter() - start
        assert len(vec) == 186
        assert elapsed < 5.0, f"full-size extraction took {elapsed:.2f}s"
