"""The pool digest check's comparison, version guard and cell diff (tools/check_pool_digests.py)."""
import importlib.util
import math
import platform
from pathlib import Path

import numpy
import pytest
import scipy

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_pool_digests.py"
_SPEC = importlib.util.spec_from_file_location("check_pool_digests", _PATH)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)


def blocks(**patients):
    return {"header": "h", "patients": patients}


def test_identical_blocks_differ_nowhere():
    assert check.differing_patients(blocks(L000="a", L001="b"), blocks(L000="a", L001="b")) == []


def test_changed_missing_and_extra_patients_are_listed():
    got = blocks(L000="a", L001="x", L009="c")
    want = blocks(L000="a", L001="b", L002="d")
    assert check.differing_patients(got, want) == ["L001", "L002", "L009"]


def test_running_versions_match_themselves():
    running = {"python": platform.python_version(), "numpy": numpy.__version__,
               "scipy": scipy.__version__}
    assert check.version_mismatches(running) == []
    stale = dict(running, scipy="0.1")
    assert check.version_mismatches(stale) == [f"scipy {scipy.__version__} (digests recorded with 0.1)"]


def test_differing_output_is_kept_and_a_matching_one_cleared(tmp_path):
    run_dir, kept = tmp_path / "extract_small", tmp_path / "kept"
    run_dir.mkdir()
    (run_dir / "out.csv").write_bytes(b"patient_id,x\nS000,1\n")
    path = check.keep_output("extract_small", run_dir, True, kept)
    assert path == kept / "extract_small.csv"
    assert path.read_bytes() == b"patient_id,x\nS000,1\n"
    assert check.keep_output("extract_small", run_dir, False, kept) is None
    assert not path.exists()
    assert check.keep_output("extract_large", run_dir, False, kept) is None


def test_differing_seeds_are_listed_in_numeric_order_with_their_first_problem():
    replayed = []

    def replay(seed):
        replayed.append(seed)
        return {2: ["groups.csv bytes differ", "more"], 10: ["exit 2: boom"]}.get(seed, [])

    seeds = {"10": {}, "2": {}, "0": {}}
    differing = check.differing_seeds(seeds, replay)
    assert replayed == [0, 2, 10]
    assert differing == ["2 (groups.csv bytes differ)", "10 (exit 2: boom)"]
    assert check.seeds_status(3, differing) == (
        "analyze_cohort: 3 seeds, DIFFERS: 2 (groups.csv bytes differ) 10 (exit 2: boom)"
    )


def test_matching_seeds_report_ok():
    assert check.differing_seeds({"0": {}, "1": {}}, lambda seed: []) == []
    assert check.seeds_status(2, []) == "analyze_cohort: 2 seeds, ok"


OLD_CSV = """patient_id,source,li.local_peak,li.global_peak,glcm.avg.contrast,flags
L000,original_mri,0.5,0.75,12.0,
L000,net_a,0.25,0.5,0,
L001,original_mri,1e-300,2.0,3.0,
"""

NEW_CSV = """patient_id,source,li.local_peak,li.global_peak,glcm.avg.contrast,flags
L000,original_mri,0.5,0.7500000000000001,12.0,
L000,net_a,0.25,0.5,1e-17,
L001,original_mri,1e-300,2.0,3.0000003,glcm.avg.contrast
L002,original_mri,1.0,1.0,1.0,
"""


def test_moved_cells_are_printed_with_the_largest_change_per_family():
    moved = check.moved_cells(OLD_CSV, NEW_CSV)
    assert check.cell_report(moved) == [
        "L000/original_mri li.global_peak: 0.75 -> 0.7500000000000001",
        "L000/net_a glcm.avg.contrast: 0 -> 1e-17",
        "L001/original_mri glcm.avg.contrast: 3.0 -> 3.0000003",
        "L001/original_mri flags:  -> glcm.avg.contrast",
        "L002/original_mri li.local_peak: <missing> -> 1.0",
        "L002/original_mri li.global_peak: <missing> -> 1.0",
        "L002/original_mri glcm.avg.contrast: <missing> -> 1.0",
        "L002/original_mri flags: <missing> -> ",
        "largest relative change in li: inf at L002/original_mri li.local_peak",
        "largest relative change in glcm: inf at L000/net_a glcm.avg.contrast",
        "largest relative change in flags: inf at L001/original_mri flags",
    ]
    assert check.cell_report(moved[:3])[3:] == [
        "largest relative change in li: 1.48e-16 at L000/original_mri li.global_peak",
        "largest relative change in glcm: inf at L000/net_a glcm.avg.contrast",
    ]


def test_identical_csvs_move_no_cell():
    assert check.moved_cells(OLD_CSV, OLD_CSV) == []
    assert check.cell_report([]) == []


def test_relative_change_of_two_cells():
    assert check.relative_change("0.75", "0.7500000000000001") == pytest.approx(1.48e-16, rel=1e-2)
    assert check.relative_change("2", "3") == 0.5
    assert check.relative_change("1.0", "1.00") == 0.0
    assert check.relative_change("0", "1e-17") == math.inf
    assert check.relative_change("nan", "1") == math.inf
    assert check.relative_change("", "1") == math.inf
