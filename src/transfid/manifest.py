"""Cohort manifest parsing.

The manifest is a UTF-8 CSV with header ``patient_id,source,path`` and one
row per (patient, source), each as wide as the header. The source named
"mask" carries the ROI path; "original_mri" is the reference image; every
other source is treated as a synthetic network output.
"""
from __future__ import annotations

import contextlib
import csv
import operator
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


def csv_rows(fh, path: str | Path, needed: tuple[str, ...]):
    """(column index of the header, iterator of (line number, row)) of a CSV.

    The header must name every column in `needed` and no column twice;
    blank lines are skipped, a row's line number is its physical line in
    the file, and a row whose width differs from the header's is an error.
    """
    reader = csv.reader(fh)
    header = next(reader, [])
    index = {name: i for i, name in enumerate(header)}
    if len(index) != len(header):
        twice = next(name for i, name in enumerate(header) if index[name] != i)
        raise TransfidError(f"{path}: header names column {twice!r} twice")
    missing = [name for name in needed if name not in index]
    if missing:
        raise TransfidError(f"{path}: header lacks column {missing[0]!r}")

    def rows():
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise TransfidError(
                    f"{path}, line {reader.line_num}: {len(row)} cells, the header has {len(header)}"
                )
            yield reader.line_num, row

    return index, rows()


def parse_manifest(path: str | Path) -> list[PatientRecord]:
    """Parse the manifest, preserving first-appearance patient order."""
    rows: dict[str, dict[str, str]] = {}
    masks: dict[str, str] = {}
    with open_csv(path) as fh:
        index, lines = csv_rows(fh, path, ("patient_id", "source", "path"))
        cells = operator.itemgetter(index["patient_id"], index["source"], index["path"])
        for line, row in lines:
            pid, source, file_path = (cell.strip() for cell in cells(row))
            if not pid or not source or not file_path:
                raise ManifestError(f"{path}, line {line}: empty patient_id/source/path")
            if source == MASK_SOURCE:
                if pid in masks:
                    raise DuplicateEntry(f"{path}, line {line}: duplicate mask for patient {pid!r}")
                rows.setdefault(pid, {})
                masks[pid] = file_path
            else:
                sources = rows.setdefault(pid, {})
                if source in sources:
                    raise DuplicateEntry(f"{path}, line {line}: duplicate ({pid!r}, {source!r})")
                sources[source] = file_path

    return [
        PatientRecord(patient_id=pid, source_paths=sources, mask_path=masks.get(pid, ""))
        for pid, sources in rows.items()
    ]
