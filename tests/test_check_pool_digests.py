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
