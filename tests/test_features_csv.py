"""analyze's CSV readers: the block reader of `features.csv` against the
per-row reader, its memory, and files that start with a byte-order mark."""
import csv
import tracemalloc

import numpy as np
import pytest

from transfid import cli
from transfid.errors import TransfidError
from transfid.manifest import ORIGINAL_SOURCE, parse_manifest
from transfid.radiomics import ALL_FEATURE_KEYS

HEADER = ["patient_id", "source", *ALL_FEATURE_KEYS, "flags"]
SOURCES = (ORIGINAL_SOURCE, "netA", "netB")


def extract_rows(patients=4, seed=27):
    """Rows as `extract` writes them: every (patient, source), `repr` cells,
    a few empty cells and their flags."""
    rng = np.random.default_rng(seed)
    rows = []
    for p in range(patients):
        for source in SOURCES:
            values = rng.lognormal(size=len(ALL_FEATURE_KEYS)) * 10.0 ** rng.integers(-5, 6)
            cells = [repr(v) for v in values.tolist()]
            for j in rng.choice(len(cells), 2, replace=False):
                cells[j] = ""
            flags = ";".join(k for k, c in zip(ALL_FEATURE_KEYS, cells) if not c)
            rows.append([f"p{p}", source, *cells, flags])
    return rows


def write_csv(path, header, rows, lineterminator="\n", final_newline=True, blank_after=()):
    """`header` and `rows` through the csv module; a blank line after each
    row index in `blank_after` (0 is the header)."""
    lines = []
    for i, row in enumerate([header, *rows]):
        lines += [row] + [[]] * (i in blank_after)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerows(lines)
    if not final_newline:
        text = path.read_bytes()
        path.write_bytes(text[: -len(lineterminator)])


def set_cell(row_index, column, cell):
    def mutate(header, rows):
        rows[row_index][column] = cell
    return mutate


def empty_runs(header, rows):
    rows[0][2] = rows[0][-2] = ""  # the first and the last feature cell
    rows[1][10:17] = [""] * 7
    rows[2][2:-1] = [""] * len(ALL_FEATURE_KEYS)
    rows[3][5:7], rows[3][8:11] = [""] * 2, [""] * 3  # two runs one cell apart


def quoted_patient(header, rows):
    for row in rows:
        if row[0] == "p1":
            row[0] = "p,1"


def reorder_columns(header, rows):
    for row in (header, *rows):
        row[3], row[7] = row[7], row[3]
        row[0], row[1] = row[1], row[0]


def drop_flags(header, rows):
    for row in (header, *rows):
        del row[-1]


def duplicate_row(header, rows):
    rows.insert(5, list(rows[1]))


def unknown_flag(header, rows):
    rows[4][-1] = f"{ALL_FEATURE_KEYS[0]};glcm.bogus"


def original_only(header, rows):
    rows[:] = [row for row in rows if row[1] == ORIGINAL_SOURCE]


SPECIAL_CELLS = {
    # cell: whether the block reader takes it
    "nan": True, "-nan": True, "inf": True, "-Infinity": True, "1e400": True,
    "4.9e-324": True, " 1.5 ": True, "+.5": True, "1.": True,
    "1_0": False,  # float() reads 10.0; loadtxt refuses it, so the per-row reader reads it
    "0x10": False, "x1": False,  # refused by both: the per-row reader names the cell
}

# name: (mutation, csv writer options, whether the block reader takes the file)
MUTATIONS = {
    "as_extract_writes": (None, {}, True),
    "empty_edges_and_runs": (empty_runs, {}, True),
    **{
        f"cell_{cell.strip()}": (set_cell(4, 9, cell), {}, fast)
        for cell, fast in SPECIAL_CELLS.items()
    },
    "cell_first_feature_inf": (set_cell(0, 2, "-inf"), {}, True),
    "quoted_patient_with_comma": (quoted_patient, {}, False),
    "crlf": (None, {"lineterminator": "\r\n"}, False),
    "blank_lines": (None, {"blank_after": (0, 3, 12)}, True),
    "no_final_newline": (None, {"final_newline": False}, True),
    "crlf_no_final_newline": (None, {"lineterminator": "\r\n", "final_newline": False}, False),
    "columns_reordered": (reorder_columns, {}, False),
    "no_flags_column": (drop_flags, {}, False),
    "duplicate_row": (duplicate_row, {}, False),
    "unknown_flag": (unknown_flag, {}, False),
    "no_synthetic_rows": (original_only, {}, False),
}


def outcome(read, path):
    """What a reader gives: (patients, sources, tables as int64 bit
    patterns), or the message of the TransfidError it raises."""
    try:
        patients, sources, features = read(str(path))
    except TransfidError as exc:
        return str(exc)
    return patients, sources, {s: features[s].view(np.int64).tolist() for s in sources}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_block_reader_matches_row_reader(tmp_path, monkeypatch, name):
    mutate, options, fast = MUTATIONS[name]
    header, rows = list(HEADER), extract_rows()
    if mutate:
        mutate(header, rows)
    path = tmp_path / "features.csv"
    write_csv(path, header, rows, **options)

    expected = outcome(cli._read_features_rows, path)
    fell_back = []
    row_reader = cli._read_features_rows
    monkeypatch.setattr(cli, "_read_features_rows", lambda p: fell_back.append(p) or row_reader(p))
    assert outcome(cli._read_features_csv, path) == expected
    assert fell_back == ([] if fast else [str(path)])


def test_block_reader_reads_empty_cells_as_nan(tmp_path):
    header, rows = list(HEADER), extract_rows()
    empty_runs(header, rows)
    path = tmp_path / "features.csv"
    write_csv(path, header, rows)
    patients, sources, features = cli._read_features_csv(str(path))
    assert patients == ["p0", "p1", "p2", "p3"] and sources == list(SOURCES)
    assert np.isnan(features[ORIGINAL_SOURCE][0, [0, -1]]).all()
    assert np.isnan(features["netA"][0, 8:15]).all()
    assert np.isnan(features["netB"][0]).all()
    want = np.array([float(c or "nan") for c in rows[3][2:-1]])
    assert np.array_equal(features[ORIGINAL_SOURCE][1].view(np.int64), want.view(np.int64))


def write_cohort_features(path, patients=1000, seed=5):
    """A features.csv shaped like the benchmark's analyze cohort: 1 000
    patients x 5 sources, log-normal values, 0.2% empty cells and 10%
    integer-valued features."""
    rng = np.random.default_rng(seed)
    n, f = patients, len(ALL_FEATURE_KEYS)
    integer = rng.random(f) < 0.1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        sources = (ORIGINAL_SOURCE, "netA", "netB", "netC", "netD")
        tables = {s: np.exp(rng.normal(size=(n, f))) for s in sources}
        for values in tables.values():
            values[:, integer] = np.rint(10.0 * values[:, integer])
            values[rng.random((n, f)) < 0.002] = np.nan
        for p in range(n):
            for source, values in tables.items():
                cells = ["" if np.isnan(v) else format(v, ".12g") for v in values[p].tolist()]
                flags = ";".join(k for k, c in zip(ALL_FEATURE_KEYS, cells) if not c)
                writer.writerow([f"P{p:04d}", source, *cells, flags])


def test_block_reader_memory_is_bounded(tmp_path, monkeypatch):
    # a reader that held the whole file's text would peak near 7x its tables
    path = tmp_path / "features.csv"
    write_cohort_features(path)
    monkeypatch.setattr(cli, "_read_features_rows", lambda p: pytest.fail("took the per-row reader"))
    tracemalloc.start()
    try:
        _, _, features = cli._read_features_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = sum(table.nbytes for table in features.values())
    assert tables == 5 * 1000 * len(ALL_FEATURE_KEYS) * 8
    assert peak <= 3 * tables


def with_bom(path):
    bom = path.with_name("bom_" + path.name)
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return bom


@pytest.mark.parametrize("options", [{}, {"lineterminator": "\r\n"}], ids=["block", "per_row"])
def test_features_with_bom_read_as_without(tmp_path, options):
    path = tmp_path / "features.csv"
    write_csv(path, HEADER, extract_rows(), **options)
    assert outcome(cli._read_features_csv, with_bom(path)) == outcome(cli._read_features_csv, path)


def test_metrics_with_bom_read_as_without(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "patient_id,network,mae,mse,ssim,psnr\np0,netA,0.1,0.01,0.9,20\np1,netA,0.2,0.04,0.8,inf\n"
    )
    assert cli._read_metrics_csv(str(with_bom(path))) == cli._read_metrics_csv(str(path))


def test_manifest_with_bom_reads_as_without(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("patient_id,source,path\np0,original_mri,a.nii\np0,netA,b.nii\np0,mask,m.nii\n")
    records = parse_manifest(with_bom(path))
    assert records == parse_manifest(path)
    assert records[0].patient_id == "p0" and records[0].mask_path == "m.nii"
