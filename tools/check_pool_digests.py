"""Check every pool patient's output bytes against the recorded digests.

    python3 tools/check_pool_digests.py
    python3 tools/check_pool_digests.py --against HEAD~1

Runs the CLI on the whole pool of each image workload, exactly as
`perfbench/record_digests.py` does when it records them: extract_large (12
large patients), extract_small (136 small patients) and metrics_cohort (the
12 large patients again, through `metrics`). Each patient's block of rows is
compared with `perfbench/reference_digests.json`, which this script only
reads. It then replays every analyze_cohort seed recorded there, as
`record_digests.py` runs it, and checks its groups.csv and
groups.summary.json against the recorded digests. The timed benchmark
checks only the patients and the seed it picks; this checks all of them.

With `--against <rev>`, it also builds each image workload's pool output
from revision <rev>'s `src/`, unpacked with `git archive` in a temporary
directory and run by this checkout's `perfbench/`, and prints each cell
that moved from <rev> to the working tree as `patient/source key: old ->
new`, then the largest relative change per family (the key's text before
its first dot; each metric is its own family). That is the cell-level view
a change that moves bits on purpose needs; each image pool then runs twice.

Exit status: 0 when every block and every seed matches, and no cell moved;
1 when any block or seed differs, with the differing patients and seeds
listed and an image workload's output kept at
.perfbench_results/pool-digests/<workload>.csv to read the moved rows
from, or when a cell moved; 2 when Python, numpy or scipy is not the
version the digests were recorded with, since the bytes are only
comparable there, or when <rev> cannot be read.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT = ROOT / ".perfbench_results" / "pool-digests"


def pools(inputs) -> dict[str, list]:
    """The patients of each image workload's pool, in recording order."""
    large = [inputs.large_patient(i) for i in range(inputs.LARGE_POOL)]
    small = [inputs.small_patient(i) for i in range(inputs.SMALL_POOL)]
    return {"extract_large": large, "extract_small": small, "metrics_cohort": large}


def version_mismatches(recorded: dict) -> list[str]:
    import numpy
    import scipy

    running = {"python": platform.python_version(), "numpy": numpy.__version__,
               "scipy": scipy.__version__}
    return [f"{name} {running[name]} (digests recorded with {recorded.get(name)})"
            for name in sorted(running) if running[name] != recorded.get(name)]


def differing_patients(got: dict, want: dict) -> list[str]:
    """Patients whose block differs from, or is missing in, either side."""
    pids = list(want["patients"]) + [p for p in got["patients"] if p not in want["patients"]]
    return [p for p in pids if got["patients"].get(p) != want["patients"].get(p)]


def keep_output(name: str, run_dir: Path, differs: bool, kept: Path = KEPT) -> Path | None:
    """Copy a differing workload's out.csv from its run directory, which is
    temporary, to <kept>/<name>.csv and return that path. A matching
    workload's copy from an earlier check is removed."""
    target = kept / f"{name}.csv"
    if not differs:
        target.unlink(missing_ok=True)
        return None
    kept.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(run_dir / "out.csv", target)
    return target


def differing_seeds(seeds, replay) -> list[str]:
    """The recorded seeds, in numeric order, for which replay(seed) finds
    a problem, each with the first one it found."""
    differing = []
    for seed in sorted(seeds, key=int):
        problems = replay(int(seed))
        if problems:
            differing.append(f"{seed} ({problems[0]})")
    return differing


def seeds_status(total: int, differing: list[str]) -> str:
    """The report line of the analyze_cohort replay."""
    status = "ok" if not differing else "DIFFERS: " + " ".join(differing)
    return f"analyze_cohort: {total} seeds, {status}"


MISSING = "<missing>"


def read_cells(text: str) -> dict[tuple[str, str], str]:
    """{(row, column): cell} of a features.csv or metrics.csv, each row named
    `patient/source` by its first two cells."""
    header, *rows = csv.reader(io.StringIO(text))
    return {(f"{row[0]}/{row[1]}", column): cell for row in rows for column, cell in zip(header[2:], row[2:])}


def moved_cells(old: str, new: str) -> list[tuple[str, str, str, str]]:
    """(row, column, old cell, new cell) for each cell that differs between
    two CSVs, in the old file's order and then the new one's; a cell on one
    side only reads MISSING on the other."""
    before, after = read_cells(old), read_cells(new)
    keys = list(before) + [k for k in after if k not in before]
    return [(*k, before.get(k, MISSING), after.get(k, MISSING)) for k in keys
            if before.get(k) != after.get(k)]


def relative_change(old: str, new: str) -> float:
    """|new - old| / |old| of two cells; inf when either is not a finite
    number, or old is 0, and the numbers differ."""
    try:
        before, after = float(old), float(new)
    except ValueError:
        return math.inf
    if before == after:
        return 0.0
    if not (math.isfinite(before) and math.isfinite(after)) or before == 0.0:
        return math.inf
    return abs(after - before) / abs(before)


def cell_report(moved: list[tuple[str, str, str, str]]) -> list[str]:
    """One line per moved cell, then the largest relative change of each family."""
    lines = [f"{row} {column}: {old} -> {new}" for row, column, old, new in moved]
    largest: dict[str, tuple[float, str]] = {}
    for row, column, old, new in moved:
        family = column.split(".", 1)[0]
        change = relative_change(old, new)
        if family not in largest or change > largest[family][0]:
            largest[family] = (change, f"{row} {column}")
    lines += [f"largest relative change in {family}: {change:.3g} at {where}"
              for family, (change, where) in largest.items()]
    return lines


def unpack(rev: str, tree: Path) -> str | None:
    """Revision `rev` of this repository unpacked at `tree`; the error when
    git cannot read it, else None."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
    if archive.returncode:
        return archive.stderr.decode(errors="replace").strip()
    tree.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check every pool patient's output bytes "
                                     "against the recorded digests.")
    parser.add_argument("--against", metavar="REV",
                        help="also print each output cell that moved from revision REV")
    args = parser.parse_args(argv)
    # the benchmark's modules resolve ./src and each other from the repository root
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gate
    import inputs
    import record_digests
    import run
    import workloads

    why_not = run.preflight()
    if why_not:
        print(f"check_pool_digests: {why_not}", file=sys.stderr)
        return 2
    reference = gate.load_reference()
    mismatches = version_mismatches(reference["recorded_with"])
    if mismatches:
        print("check_pool_digests: cannot compare bytes under " + ", ".join(mismatches),
              file=sys.stderr)
        return 2

    differing_blocks = moved = 0
    with tempfile.TemporaryDirectory(prefix="pool-digests-") as tmp:
        against = Path(tmp) / "against"
        if args.against:
            error = unpack(args.against, against / "tree")
            if error:
                print(f"check_pool_digests: cannot read {args.against}: {error}", file=sys.stderr)
                return 2
        for name, patients in pools(inputs).items():
            got = record_digests.record_pool(name, patients, Path(tmp) / name)
            want = reference[name]
            problems = differing_patients(got, want)
            if got["header"] != want["header"]:
                problems.insert(0, "header")
            differing_blocks += len(problems)
            status = "ok" if not problems else "DIFFERS: " + " ".join(problems)
            print(f"{name}: {len(want['patients'])} patients, {status}")
            kept = keep_output(name, Path(tmp) / name, bool(problems))
            if kept:
                print(f"{name}: rows kept at {kept.relative_to(ROOT)}")
            if args.against:
                src, run.SRC = run.SRC, against / "tree" / "src"
                try:
                    record_digests.record_pool(name, patients, against / name)
                finally:
                    run.SRC = src
                cells = moved_cells((against / name / "out.csv").read_text(encoding="utf-8"),
                                    (Path(tmp) / name / "out.csv").read_text(encoding="utf-8"))
                moved += len(cells)
                print(f"{name}: {len(cells)} cells moved from {args.against}")
                for line in cell_report(cells):
                    print(f"  {line}")

        analyze = workloads.WORKLOADS["analyze_cohort"]

        def replay(seed: int) -> list[str]:
            directory = Path(tmp) / f"analyze{seed}"
            directory.mkdir()
            analyze.write_inputs(seed, directory)
            code, _, _, _, stderr = run.run_cli(analyze.argv("out.csv", 1), directory)
            problems = ([f"exit {code}: {stderr.strip()}"] if code
                        else analyze.check(seed, directory, "out.csv", [], reference))
            shutil.rmtree(directory)
            return problems

        seeds = reference["analyze_cohort"]["seeds"]
        differing = differing_seeds(seeds, replay)
        print(seeds_status(len(seeds), differing))
    print(f"{differing_blocks} differing blocks, {len(differing)} differing analyze seeds"
          + (f", {moved} moved cells against {args.against}" if args.against else ""))
    return 1 if differing_blocks or differing or moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
