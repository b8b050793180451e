"""Ordered 186-entry feature vectors with degeneracy flags."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ids import ALL_FEATURE_KEYS


@dataclass(frozen=True)
class FeatureVector:
    """Maps every canonical feature key to a value, in registry order.

    A NaN value marks a feature left undefined: by a degenerate ROI, by a
    value its family could not compute or that overflowed, or by a family
    that failed. Every NaN or infinite entry must appear in `flags`;
    `extract_all` stores each non-finite value as a flagged NaN, and a
    vector built by hand with an unflagged one is refused. Flags may also
    mark finite values produced through a documented degenerate convention
    (IVH on a constant ROI).
    """

    values: dict[str, float]
    flags: frozenset[str] = frozenset()
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        keys = tuple(self.values.keys())
        if keys != ALL_FEATURE_KEYS:
            if len(keys) != len(ALL_FEATURE_KEYS):
                raise ValueError(f"feature vector has {len(keys)} entries, expected 186")
            raise ValueError("feature vector keys are not in canonical order")
        for key, value in self.values.items():
            if not math.isfinite(value) and key not in self.flags:
                kind = "NaN" if math.isnan(value) else "infinite"
                raise ValueError(f"{kind} feature {key} lacks a degeneracy flag")
        unknown = set(self.flags) - set(keys)
        if unknown:
            raise ValueError(f"flags reference unknown features: {sorted(unknown)}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def is_flagged(self, key: str) -> bool:
        return key in self.flags
