"""RunConfig schema validation and hashing."""
import pytest

from transfid.analysis import resolve_jobs
from transfid.config import RunConfig
from transfid.errors import ConfigError


class TestDefaults:
    def test_empty_dict_gives_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.normalize is True
        assert cfg.crop is None
        assert cfg.scheme.mode == "FBN" and cfg.scheme.bins == 32
        assert cfg.ssim_params.window == 5
        assert cfg.ivh_bins == 1000
        assert cfg.ngldm_alpha == 0
        assert cfg.jobs == 0

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
        ],
    )
    def test_rejected(self, data):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)

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


class TestJobsResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("TRANSFID_JOBS", "7")
        cfg = RunConfig.from_dict({"jobs": 4})
        assert resolve_jobs(2, cfg) == 2

    def test_env_is_fallback_for_flag(self, monkeypatch):
        monkeypatch.setenv("TRANSFID_JOBS", "3")
        cfg = RunConfig.from_dict({"jobs": 4})
        assert resolve_jobs(None, cfg) == 3

    def test_config_next(self, monkeypatch):
        monkeypatch.delenv("TRANSFID_JOBS", raising=False)
        cfg = RunConfig.from_dict({"jobs": 4})
        assert resolve_jobs(None, cfg) == 4

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv("TRANSFID_JOBS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        cfg = RunConfig.from_dict({})
        assert resolve_jobs(0, cfg) == 6
        assert resolve_jobs(None, cfg) == 6  # default config jobs=0 -> auto
