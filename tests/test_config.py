"""RunConfig schema validation and hashing."""
import copy
import json
import math
from pathlib import Path

import pytest

from transfid import config
from transfid.cli import build_parser, main
from transfid.config import DEFAULTS, MAX_CROP_VOXELS, MAX_IVH_BINS, RunConfig
from transfid.errors import ConfigError
from transfid.preprocess import MAX_LEVELS

FBS = {"mode": "FBS", "bin_width": 0.04}

# every float key, each set to a value that is not a finite number
NON_FINITE = [
    {section: {**base, key: bad}}
    for section, base, key in [
        ("discretize", FBS, "origin"),
        ("discretize", FBS, "bin_width"),
        ("ssim", {}, "k1"),
        ("ssim", {}, "k2"),
        ("ssim", {}, "dynamic_range"),
        ("ssim", {}, "sigma"),
        ("metrics", {}, "psnr_peak"),
    ]
    for bad in (math.nan, math.inf, -math.inf)
] + [{"discretize": {**FBS, "origin": 10**400}}]


class TestDefaults:
    def test_empty_dict_gives_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.normalize is True
        assert cfg.crop is None
        assert cfg.scheme.mode == "FBN" and cfg.scheme.bins == 32
        assert cfg.ssim_params.window == 5
        assert cfg.ivh_bins == 1000
        assert cfg.ngldm_alpha == 0

    def test_partial_override(self):
        cfg = RunConfig.from_dict({"discretize": {"bins": 64}})
        assert cfg.scheme.bins == 64
        assert cfg.ssim_params.k1 == 0.01

    def test_fbs_scheme(self):
        cfg = RunConfig.from_dict(
            {"discretize": {"mode": "FBS", "bin_width": 0.05, "origin": 0.1}}
        )
        assert cfg.scheme.mode == "FBS"
        assert cfg.scheme.width == 0.05
        assert cfg.scheme.origin == 0.1

    def test_crop_triple(self):
        cfg = RunConfig.from_dict({"preprocess": {"crop": [128, 128, 64]}})
        assert cfg.crop == (128, 128, 64)

    def test_defaults_survive_any_use_of_a_config(self, monkeypatch):
        # from_dict reads this copy, so a failure here cannot leak into other tests
        defaults = copy.deepcopy(DEFAULTS)
        monkeypatch.setattr(config, "DEFAULTS", defaults)
        for data in ({}, {"discretize": {"bins": 16}}, {"preprocess": {"crop": [4, 4, 4]}}):
            cfg = RunConfig.from_dict(data)
            # a caller that empties every dict it can reach must not reach the defaults
            for value in vars(cfg).values():
                if isinstance(value, dict):
                    for section in value.values():
                        if isinstance(section, dict):
                            section.clear()
        assert defaults == DEFAULTS
        assert RunConfig.from_dict({}).ivh_bins == 1000

    def test_readme_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULTS


class TestValidation:
    @pytest.mark.parametrize(
        "data",
        [
            {"unknown_section": {}},
            {"preprocess": {"crops": None}},
            {"preprocess": {"crop": [128, 128]}},
            {"preprocess": {"crop": [128, 128, -1]}},
            {"preprocess": {"normalize": "yes"}},
            {"discretize": {"mode": "quantile"}},
            {"discretize": {"bins": 1}},
            {"discretize": {"mode": "FBS"}},
            {"ssim": {"window": 0}},
            {"ssim": {"sigma": -1.0}},
            {"ivh": {"bins": 0}},
            {"ngldm": {"alpha": -1}},
            {"analysis": {"threshold": 2.0}},
            {"metrics": {"psnr_peak": 0.0}},
            {"jobs": -1},
            {"jobs": True},
            {"preprocess": {"crop": [True, True, True]}},
            {"discretize": {"mode": "FBS", "bin_width": 0.1, "origin": "zero"}},
            {"discretize": {"bins": "many"}},
            *NON_FINITE,
        ],
    )
    def test_rejected(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

    def test_ivh_bins_cap(self):
        assert RunConfig.from_dict({"ivh": {"bins": MAX_IVH_BINS}}).ivh_bins == MAX_IVH_BINS
        with pytest.raises(ConfigError, match="ivh.bins"):
            RunConfig.from_dict({"ivh": {"bins": MAX_IVH_BINS + 1}})

    def test_crop_budget(self):
        assert RunConfig.from_dict({"preprocess": {"crop": [512, 512, 512]}}).crop == (512, 512, 512)
        assert 512**3 == MAX_CROP_VOXELS
        with pytest.raises(ConfigError, match=r"preprocess.crop must hold at most 134217728 voxels"):
            RunConfig.from_dict({"preprocess": {"crop": [512, 512, 513]}})

    def test_oversized_crop_exits_1_before_any_patient(self, tmp_path, capsys):
        # the manifest does not exist: a config that passed would exit 2
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preprocess": {"crop": [100000, 100000, 100000]}}))
        assert main([
            "extract", "--manifest", str(tmp_path / "none.csv"), "--config", str(config),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert "transfid: config error: preprocess.crop must hold at most" in err
        assert "Traceback" not in err

    def test_fbn_bins_cap(self):
        assert RunConfig.from_dict({"discretize": {"bins": MAX_LEVELS}}).scheme.bins == MAX_LEVELS
        with pytest.raises(ConfigError, match=r"discretize.bins must be an int in \[2, 1024\]"):
            RunConfig.from_dict({"discretize": {"bins": MAX_LEVELS + 1}})

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"ssim": {"dynamic_range": Infinity, "window": 2}}', "ssim.dynamic_range"),
            ('{"discretize": {"mode": "FBS", "bin_width": 0.04, "origin": NaN}}', "discretize.origin"),
            ('{"discretize": {"bins": 5000}}', "discretize.bins"),
        ],
    )
    def test_out_of_range_value_exits_1(self, tmp_path, capsys, text, key):
        # the manifest does not exist: a config that passed would exit 2
        config = tmp_path / "c.json"
        config.write_text(text)
        assert main([
            "extract", "--manifest", str(tmp_path / "none.csv"), "--config", str(config),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"transfid: config error: {key} must be" in err and "Traceback" not in err

    def test_analysis_section_is_unknown(self):
        # analyze takes its threshold from --threshold only
        with pytest.raises(ConfigError, match="unknown config key: analysis"):
            RunConfig.from_dict({"analysis": {"threshold": 0.5}})

    def test_non_object_root(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(path)

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"ivh": {"bins": 8}}\xff\n')
        with pytest.raises(ConfigError, match="not UTF-8 JSON"):
            RunConfig.from_json(config)
        assert main([
            "metrics", "--manifest", str(tmp_path / "none.csv"), "--config", str(config),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert "transfid: config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, kind):
        config = tmp_path / "c.json"
        if kind == "directory":
            config.mkdir()
        with pytest.raises(ConfigError, match="c.json"):
            RunConfig.from_json(config)
        assert main([
            "metrics", "--manifest", str(tmp_path / "none.csv"), "--config", str(config),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert "transfid: config error" in err and str(config) in err
        assert "Traceback" not in err


class TestHash:
    def test_stable_for_equal_configs(self):
        a = RunConfig.from_dict({"discretize": {"bins": 16}})
        b = RunConfig.from_dict({"discretize": {"bins": 16}})
        assert a.config_hash() == b.config_hash()

    def test_differs_for_different_configs(self):
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({"discretize": {"bins": 16}})
        assert a.config_hash() != b.config_hash()

    def test_defaults_spelled_out_hash_like_empty(self):
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({"discretize": {"bins": 32}})
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("unused", [{"origin": 5.0}, {"bin_width": 0.1}])
    def test_fbn_hash_ignores_fbs_keys(self, unused):
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({"discretize": unused})
        assert a.config_hash() == b.config_hash()

    def test_hash_reads_validated_values(self):
        a = RunConfig.from_dict({"discretize": {"mode": "FBS", "bin_width": 1}})
        b = RunConfig.from_dict({"discretize": {"mode": "FBS", "bin_width": 1.0}})
        assert a.scheme == b.scheme and a.config_hash() == b.config_hash()


class TestJobsResolution:
    """Workers come from --jobs, then TRANSFID_JOBS, then one per CPU; no config key."""

    @staticmethod
    def jobs(*flags):
        argv = ["extract", "--manifest", "m.csv", "--out", "o.csv", *flags]
        return build_parser().parse_args(argv).jobs

    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("TRANSFID_JOBS", "7")
        assert self.jobs("--jobs", "2") == 2

    def test_env_is_fallback_for_flag(self, monkeypatch):
        monkeypatch.setenv("TRANSFID_JOBS", "3")
        assert self.jobs() == 3

    def test_config_has_no_jobs_key(self):
        with pytest.raises(ConfigError, match="unknown config key: jobs"):
            RunConfig.from_dict({"jobs": 4})

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv("TRANSFID_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert self.jobs("--jobs", "0") == 6
        assert self.jobs() == 6
        monkeypatch.setenv("TRANSFID_JOBS", "")  # an empty variable reads as unset
        assert self.jobs() == 6
