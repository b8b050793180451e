"""Compare the working tree with a parent revision on the benchmark, in
alternating pairs (steps 2-5 of "Comparing a change with its parent" in
perfbench/README.md).

    python3 tools/perf_pairs.py --parent HEAD --workload extract_large --seeds 71-80
    python3 tools/perf_pairs.py --parent a18308a --workload all --seeds 81,82,83 --seconds 15

Both sides run from one temporary directory, at paths of equal length,
since the checkout's path alone moves some metrics (`metrics_cohort`'s
`items_per_s` by about 9%): the parent unpacked with `git archive` at
`<tmp>/parent`, and a snapshot of the working tree at `<tmp>/change` (tracked
files as they are on disk, and untracked files that git does not ignore).
Pair k runs `perfbench/run.py --trace 0` once in each tree, on seed k of
`--seeds`, parent first when k is odd and the change first when k is even.
Every `__pycache__` in both trees is removed before each run, so that
neither side runs on bytecode left by the other or by an older source.

For each workload and end-to-end metric of BENCHMARK.json it prints both
sides' medians and quartiles, the pairs the change wins and loses (ties
count for neither), and a verdict:
- `gain`: the change wins at least 9 of 10 pairs, and the medians are
  further apart than the parent's interquartile range;
- `unresolved`: either side's spread (IQR / median) exceeds the metric's
  bound, and not every run of the change beats every run of the parent;
- `REGRESSION`: the change's median is worse than the parent's by more
  than the bound;
- `within bound` otherwise.
It also prints each side's failed and attempted invocations.

Exit status: 0 when no metric reads REGRESSION and no run failed; 1
otherwise; 2 when perfbench/ differs between the two trees, since the
comparison then measures the benchmark too.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
GAIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """'71-75' or '71,72,90' (or both, comma-separated) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` (from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def unpack_trees(root: Path, parent: str, tmp: Path) -> dict[str, Path]:
    """{side: tree}: revision `parent` of the repository at `root` unpacked
    at <tmp>/parent, and its working tree copied to <tmp>/change."""
    trees = {side: tmp / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=root, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():  # a tracked file deleted on disk stays out
            (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, trees["change"] / name)
    return trees


def clear_pycache(root: Path) -> None:
    for cache in sorted(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def parse_result(line: str, workload: str) -> tuple[dict[str, dict[str, float]], int, int]:
    """({workload: {metric: value}}, attempted, failed) from perfbench's last
    stdout line. A `--workload all` run names its metrics `<workload>/<metric>`."""
    result = json.loads(line)
    values: dict[str, dict[str, float]] = {}
    for name, entry in result["metrics"].items():
        owner, _, metric = name.rpartition("/")
        values.setdefault(owner or workload, {})[metric] = entry["value"]
    return values, result["attempted"], result["failed"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary over paired runs: parent[k] and change[k] ran
    in pair k."""
    sign = 1.0 if better == "higher" else -1.0
    p = quartiles(parent)
    c = quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    worse_by = sign * (p[1] - c[1]) / p[1]
    spread = max((q[2] - q[0]) / q[1] for q in (p, c))
    beats_all = all(sign * (b - a) > 0 for a in parent for b in change)
    if wins >= GAIN_SHARE * len(parent) and sign * (c[1] - p[1]) > p[2] - p[0]:
        verdict = "gain"
    elif spread > bound and not beats_all:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "wins": wins, "losses": losses, "pairs": len(parent),
            "worse_by": worse_by, "spread": spread, "verdict": verdict}


def summarize(runs: list[dict], metrics: list[dict]) -> list[tuple[str, str, dict]]:
    """(workload, metric, summary) for every end-to-end metric of each
    workload. `runs` holds one entry per pair: {side: {workload: {metric:
    value}}}; `metrics` is BENCHMARK.json's `end_to_end` list."""
    rows = []
    for workload in runs[0]["parent"]:
        for m in metrics:
            sides = {s: [run[s][workload][m["name"]] for run in runs] for s in SIDES}
            rows.append((workload, m["name"],
                         compare(sides["parent"], sides["change"], m["better"], m["bound"])))
    return rows


def format_row(workload: str, metric: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    change = s["change"][1] / s["parent"][1] - 1
    return (f"{workload:15s} {metric:12s} parent {side(s['parent']):28s} change "
            f"{side(s['change']):28s} {change:+7.1%}  wins {s['wins']}/{s['pairs']} "
            f"losses {s['losses']}  spread {s['spread']:.3f}  {s['verdict']}")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> str:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"perf_pairs: {tree} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 71-80, one per pair")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    bench_diff = subprocess.run(["git", "diff", "--quiet", args.parent, "--", "perfbench"], cwd=ROOT)
    if bench_diff.returncode:
        print(f"perf_pairs: perfbench/ differs from {args.parent}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    failures = {s: [0, 0] for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        trees = unpack_trees(ROOT, args.parent, Path(tmp))
        for pair, seed in enumerate(args.seeds, start=1):
            run = {}
            for side in run_order(pair):
                for tree in trees.values():
                    clear_pycache(tree)
                line = run_bench(trees[side], args.workload, seed, args.seconds)
                run[side], attempted, failed = parse_result(line, args.workload)
                failures[side][0] += failed
                failures[side][1] += attempted
                print(f"pair {pair} seed {seed} {side}: {line}", flush=True)
            runs.append(run)
    rows = summarize(runs, metrics)
    print()
    for row in rows:
        print(format_row(*row))
    for side, (failed, attempted) in failures.items():
        print(f"{side}: {failed}/{attempted} invocations failed")
    bad = any(s["verdict"] == "REGRESSION" for _, _, s in rows) or any(f for f, _ in failures.values())
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
