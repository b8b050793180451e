"""Run configuration: strict JSON schema, defaults, and hashing."""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .iqa import SsimParams
from .preprocess import FBN, FBS, MAX_LEVELS, DiscretizationScheme

DEFAULTS: dict = {
    "preprocess": {
        "normalize": True,
        "normalize_after_crop": True,
        "crop": None,
    },
    "discretize": {
        "mode": "FBN",
        "bins": 32,
        "bin_width": None,
        "origin": 0.0,
    },
    "ssim": {
        "window": 5,
        "k1": 0.01,
        "k2": 0.03,
        "dynamic_range": 1.0,
        "sigma": 1.5,
    },
    "metrics": {
        "roi_only": False,
        "psnr_peak": 1.0,
    },
    "ivh": {"bins": 1000},
    "ngldm": {"alpha": 0},
}

# The IVH curve holds bins + 1 float64 samples; more bins are refused before allocation.
MAX_IVH_BINS = 100_000


def _merge_strict(defaults: dict, override: dict, path: str = "") -> dict:
    merged = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            merged[key] = _merge_strict(defaults[key], value, where)
        else:
            merged[key] = value
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite float, or an int within float range; JSON's NaN and Infinity
    are not numbers here (the comparison is false for NaN and exact for ints)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for preprocessing, metrics and extraction."""

    normalize: bool
    normalize_after_crop: bool
    crop: tuple[int, int, int] | None
    scheme: DiscretizationScheme
    ssim_params: SsimParams
    metrics_roi_only: bool
    psnr_peak: float
    ivh_bins: int
    ngldm_alpha: int
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge_strict(DEFAULTS, data)

        crop = cfg["preprocess"]["crop"]
        if crop is not None:
            _require(
                isinstance(crop, (list, tuple))
                and len(crop) == 3
                and all(_is_int(c) and c > 0 for c in crop),
                "preprocess.crop must be null or three positive integers",
            )
            crop = tuple(crop)

        mode = cfg["discretize"]["mode"]
        _require(mode in (FBN, FBS), "discretize.mode must be 'FBN' or 'FBS'")
        if mode == FBN:
            bins = cfg["discretize"]["bins"]
            _require(_is_int(bins) and 2 <= bins <= MAX_LEVELS,
                     f"discretize.bins must be an int in [2, {MAX_LEVELS}]")
            scheme = DiscretizationScheme(FBN, bins=bins)
        else:
            width = cfg["discretize"]["bin_width"]
            _require(
                _is_number(width) and width > 0,
                "discretize.bin_width must be a positive finite number for FBS",
            )
            origin = cfg["discretize"]["origin"]
            _require(_is_number(origin), "discretize.origin must be a finite number")
            scheme = DiscretizationScheme(FBS, width=float(width), origin=float(origin))

        ssim_cfg = cfg["ssim"]
        _require(_is_int(ssim_cfg["window"]) and ssim_cfg["window"] >= 1, "ssim.window must be an int >= 1")
        for key in ("k1", "k2", "dynamic_range", "sigma"):
            _require(_is_number(ssim_cfg[key]) and ssim_cfg[key] > 0,
                     f"ssim.{key} must be a positive finite number")
        ssim_params = SsimParams(
            window=ssim_cfg["window"],
            k1=float(ssim_cfg["k1"]),
            k2=float(ssim_cfg["k2"]),
            dynamic_range=float(ssim_cfg["dynamic_range"]),
            sigma=float(ssim_cfg["sigma"]),
        )

        ivh_bins = cfg["ivh"]["bins"]
        _require(_is_int(ivh_bins) and 1 <= ivh_bins <= MAX_IVH_BINS,
                 f"ivh.bins must be an int in [1, {MAX_IVH_BINS}]")
        alpha = cfg["ngldm"]["alpha"]
        _require(_is_int(alpha) and alpha >= 0, "ngldm.alpha must be an int >= 0")
        peak = cfg["metrics"]["psnr_peak"]
        _require(_is_number(peak) and peak > 0, "metrics.psnr_peak must be a positive finite number")
        for key in ("normalize", "normalize_after_crop"):
            _require(isinstance(cfg["preprocess"][key], bool), f"preprocess.{key} must be a bool")
        _require(isinstance(cfg["metrics"]["roi_only"], bool), "metrics.roi_only must be a bool")

        return cls(
            normalize=cfg["preprocess"]["normalize"],
            normalize_after_crop=cfg["preprocess"]["normalize_after_crop"],
            crop=crop,
            scheme=scheme,
            ssim_params=ssim_params,
            metrics_roi_only=cfg["metrics"]["roi_only"],
            psnr_peak=float(peak),
            ivh_bins=ivh_bins,
            ngldm_alpha=alpha,
            raw=cfg,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not UTF-8 JSON: {exc}") from exc
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
