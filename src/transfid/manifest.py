"""Cohort manifest parsing.

The manifest is a UTF-8 CSV with header ``patient_id,source,path`` and one
row per (patient, source). The source named "mask" carries the ROI path;
"original_mri" is the reference image; every other source is treated as a
synthetic network output.
"""
from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateEntry,
    ManifestError,
    MissingMask,
    MissingOriginal,
    MissingSynthetic,
    TransfidError,
)

ORIGINAL_SOURCE = "original_mri"
MASK_SOURCE = "mask"


@dataclass(frozen=True)
class PatientRecord:
    """One patient's image sources: the original, synthetics, and the mask."""

    patient_id: str
    source_paths: dict[str, str] = field(repr=False)
    mask_path: str = ""

    def __post_init__(self):
        if ORIGINAL_SOURCE not in self.source_paths:
            raise MissingOriginal(f"patient {self.patient_id!r} has no {ORIGINAL_SOURCE} source")
        if not self.mask_path:
            raise MissingMask(f"patient {self.patient_id!r} has no mask")
        if not self.synthetic_sources:
            raise MissingSynthetic(f"patient {self.patient_id!r} has no synthetic source")

    @property
    def synthetic_sources(self) -> list[str]:
        """Synthetic source names in first-appearance order."""
        return [s for s in self.source_paths if s != ORIGINAL_SOURCE]


@contextlib.contextmanager
def open_csv(path: str | Path):
    """Open a UTF-8 CSV for reading; a byte that is not UTF-8 or a cell
    over the csv module's size limit, met while the file is read, becomes
    a TransfidError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as exc:
        raise TransfidError(f"{path}: not a readable UTF-8 CSV file: {exc}") from None


def parse_manifest(path: str | Path) -> list[PatientRecord]:
    """Parse the manifest, preserving first-appearance patient order."""
    rows: dict[str, dict[str, str]] = {}
    masks: dict[str, str] = {}
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        required = {"patient_id", "source", "path"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ManifestError(f"{path}: header must contain {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            pid = (row["patient_id"] or "").strip()
            source = (row["source"] or "").strip()
            file_path = (row["path"] or "").strip()
            if not pid or not source or not file_path:
                raise ManifestError(f"{path}:{lineno}: empty patient_id/source/path")
            if source == MASK_SOURCE:
                if pid in masks:
                    raise DuplicateEntry(f"{path}:{lineno}: duplicate mask for patient {pid!r}")
                rows.setdefault(pid, {})
                masks[pid] = file_path
            else:
                sources = rows.setdefault(pid, {})
                if source in sources:
                    raise DuplicateEntry(f"{path}:{lineno}: duplicate ({pid!r}, {source!r})")
                sources[source] = file_path

    return [
        PatientRecord(patient_id=pid, source_paths=sources, mask_path=masks.get(pid, ""))
        for pid, sources in rows.items()
    ]
