"""The paired comparison's arithmetic (tools/perf_pairs.py), on canned
benchmark result lines: no benchmark runs here."""
import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [
    {"name": "items_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]


def line(items, rss, failed=0, prefix=""):
    """A result line as perfbench/run.py prints it last."""
    metrics = {f"{prefix}items_per_s": {"value": items, "unit": "1/s"},
               f"{prefix}peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": not failed, "attempted": 3, "failed": failed, "metrics": metrics})


def canned_runs(parent, change):
    """One run per pair from (items, rss) tuples, parsed as the tool parses them."""
    return [{"parent": pairs.parse_result(line(*p), "extract_large")[0],
             "change": pairs.parse_result(line(*c), "extract_large")[0]}
            for p, c in zip(parent, change)]


def test_seed_lists_and_ranges():
    assert pairs.parse_seeds("71-74") == [71, 72, 73, 74]
    assert pairs.parse_seeds("5,71-72,90") == [5, 71, 72, 90]


def test_parent_runs_first_in_odd_pairs():
    assert [pairs.run_order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_single_and_all_workload_lines_are_keyed_by_workload():
    values, attempted, failed = pairs.parse_result(line(3.5, 260.0, failed=1), "extract_large")
    assert values == {"extract_large": {"items_per_s": 3.5, "peak_rss_mb": 260.0}}
    assert (attempted, failed) == (3, 1)
    values, _, _ = pairs.parse_result(line(100.0, 158.0, prefix="extract_small/"), "all")
    assert values == {"extract_small": {"items_per_s": 100.0, "peak_rss_mb": 158.0}}


def test_medians_quartiles_wins_and_verdicts():
    parent_items = [3.40, 3.50, 3.45, 3.48, 3.52, 3.44, 3.47, 3.49, 3.46, 3.80]
    change_items = [3.80, 3.75, 3.78, 3.82, 3.79, 3.81, 3.77, 3.76, 3.83, 3.70]
    parent_rss = [260.0] * 10
    change_rss = [260.0] * 9 + [250.0]
    runs = canned_runs(list(zip(parent_items, parent_rss)), list(zip(change_items, change_rss)))
    rows = {metric: s for _, metric, s in pairs.summarize(runs, METRICS)}

    items = rows["items_per_s"]
    assert items["parent"] == tuple(statistics.quantiles(parent_items, n=4))
    assert items["change"][1] == statistics.median(change_items)
    assert (items["wins"], items["losses"], items["pairs"]) == (9, 1, 10)
    assert items["worse_by"] == pytest.approx(-(3.785 - 3.475) / 3.475)
    assert items["verdict"] == "gain"

    rss = rows["peak_rss_mb"]  # one win, nine ties: no gain, no regression
    assert (rss["wins"], rss["losses"]) == (1, 0)
    assert rss["worse_by"] == 0.0 and rss["spread"] == 0.0
    assert rss["verdict"] == "within bound"
    assert "+8.9%" in pairs.format_row("extract_large", "items_per_s", items)


def test_eight_wins_of_ten_are_no_gain():
    s = pairs.compare([1.0] * 10, [1.1] * 8 + [0.9] * 2, "higher", 0.25)
    assert (s["wins"], s["losses"]) == (8, 2) and s["verdict"] == "within bound"


def test_a_gain_needs_the_medians_further_apart_than_the_parent_iqr():
    parent = [1.0, 2.0] * 5  # IQR 1.0
    change = [v + 0.5 for v in parent]  # wins every pair, medians 0.5 apart
    assert pairs.compare(parent, change, "higher", 10.0)["verdict"] == "within bound"


def test_worse_than_the_bound_is_a_regression():
    s = pairs.compare([100.0] * 10, [120.0] * 10, "lower", 0.15)
    assert s["worse_by"] == pytest.approx(0.2) and s["verdict"] == "REGRESSION"
    assert pairs.compare([100.0] * 10, [110.0] * 10, "lower", 0.15)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    parent = [1.0, 2.0, 3.0, 4.0] * 3
    s = pairs.compare(parent, [v * 0.95 for v in parent], "higher", 0.25)
    assert s["spread"] > 0.25 and s["verdict"] == "unresolved"
    assert pairs.compare(parent, [v * 1.05 for v in parent], "higher", 0.25)["verdict"] == "unresolved"
    assert pairs.compare(parent, [v + 10 for v in parent], "higher", 0.25)["verdict"] == "gain"
    # every change run beats every parent run, by less than the parent's IQR
    s = pairs.compare([1.0, 3.0] * 5, [0.5, 0.9] * 5, "lower", 0.25)
    assert s["spread"] > 0.25 and s["verdict"] == "within bound"


def test_pycache_is_cleared_in_every_subdirectory(tmp_path):
    for d in ("__pycache__", "src/pkg/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src/pkg/m.py").write_text("")
    pairs.clear_pycache(tmp_path)
    assert not list(tmp_path.rglob("__pycache__"))
    assert (tmp_path / "src/pkg/m.py").exists()


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=repo, check=True, capture_output=True)


def test_both_trees_unpack_side_by_side_at_paths_of_equal_length(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg/m.py").write_text("A = 1\n")
    (repo / "gone.py").write_text("")
    (repo / ".gitignore").write_text("*.log\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "first")
    (repo / "pkg/m.py").write_text("A = 2\n")  # an uncommitted edit
    (repo / "new.py").write_text("B = 1\n")  # an untracked file
    (repo / "run.log").write_text("")  # an ignored file
    (repo / "gone.py").unlink()
    trees = pairs.unpack_trees(repo, "HEAD", tmp_path)
    assert trees == {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    assert len(str(trees["parent"])) == len(str(trees["change"]))
    assert (trees["parent"] / "pkg/m.py").read_text() == "A = 1\n"
    assert (trees["change"] / "pkg/m.py").read_text() == "A = 2\n"
    assert (trees["change"] / "new.py").exists() and not (trees["parent"] / "new.py").exists()
    assert not (trees["change"] / "run.log").exists()
    assert (trees["parent"] / "gone.py").exists() and not (trees["change"] / "gone.py").exists()
