"""The pool digest check's comparison and version guard (tools/check_pool_digests.py)."""
import importlib.util
import platform
from pathlib import Path

import numpy
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
