"""Run configuration: strict JSON schema, defaults, and hashing."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .checks import is_int, is_number
from .errors import ConfigError, InvalidScheme
from .iqa import SsimParams
from .preprocess import FBN, DiscretizationScheme

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
    "ssim": asdict(SsimParams()),
    "metrics": {
        "roi_only": False,
        "psnr_peak": 1.0,
    },
    "ivh": {"bins": 1000},
    "ngldm": {"alpha": 0},
}

# The IVH curve holds bins + 1 float64 samples; more bins are refused before allocation.
MAX_IVH_BINS = 100_000

# A crop window holds each source as float64 (8 bytes a voxel, 1 GiB at
# this limit of 512^3), and local intensity convolves the whole window, so
# larger windows are refused when the config is read, before any patient.
MAX_CROP_VOXELS = 512**3


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


def _build(section: str, kind, fields: dict, renamed: dict[str, str] | None = None):
    """kind(**fields); the type's refusal, whose message starts with the field
    at fault, becomes a ConfigError that names the config key."""
    try:
        return kind(**fields)
    except (ValueError, InvalidScheme) as exc:
        field, rule = str(exc).split(" ", 1)
        key = (renamed or {}).get(field, field)
        raise ConfigError(f"{section}.{key} {rule}") from exc


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
                and all(is_int(c) and c > 0 for c in crop),
                "preprocess.crop must be null or three positive integers",
            )
            crop = tuple(crop)
            _require(math.prod(crop) <= MAX_CROP_VOXELS,
                     f"preprocess.crop must hold at most {MAX_CROP_VOXELS} voxels, got {math.prod(crop)}")

        # each type checks its own fields; an FBN scheme takes no width or origin
        disc = cfg["discretize"]
        if disc["mode"] == FBN:
            fields = {"mode": FBN, "bins": disc["bins"]}
        else:
            fields = {"mode": disc["mode"], "width": disc["bin_width"], "origin": disc["origin"]}
        scheme = _build("discretize", DiscretizationScheme, fields, {"width": "bin_width"})
        ssim_params = _build("ssim", SsimParams, cfg["ssim"])

        ivh_bins = cfg["ivh"]["bins"]
        _require(is_int(ivh_bins) and 1 <= ivh_bins <= MAX_IVH_BINS,
                 f"ivh.bins must be an int in [1, {MAX_IVH_BINS}]")
        alpha = cfg["ngldm"]["alpha"]
        _require(is_int(alpha) and alpha >= 0, "ngldm.alpha must be an int >= 0")
        peak = cfg["metrics"]["psnr_peak"]
        _require(is_number(peak) and peak > 0, "metrics.psnr_peak must be a positive finite number")
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
        """Hash of the validated settings, so unused and spelled-out defaults hash alike."""
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
