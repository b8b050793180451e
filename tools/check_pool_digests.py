"""Check every pool patient's output bytes against the recorded digests.

    python3 tools/check_pool_digests.py

Runs the CLI on the whole pool of each image workload, exactly as
`perfbench/record_digests.py` does when it records them: extract_large (12
large patients), extract_small (136 small patients) and metrics_cohort (the
12 large patients again, through `metrics`). Each patient's block of rows is
compared with `perfbench/reference_digests.json`, which this script only
reads. It then replays every analyze_cohort seed recorded there, as
`record_digests.py` runs it, and checks its groups.csv and
groups.summary.json against the recorded digests. The timed benchmark
checks only the patients and the seed it picks; this checks all of them.

Exit status: 0 when every block and every seed matches; 1 when any block or
seed differs, with the differing patients and seeds listed and an image
workload's output kept at .perfbench_results/pool-digests/<workload>.csv to
read the moved rows from; 2 when Python, numpy or scipy is not the version
the digests were recorded with, since the bytes are only comparable there.
"""
from __future__ import annotations

import os
import platform
import shutil
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


def main() -> int:
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

    differing_blocks = 0
    with tempfile.TemporaryDirectory(prefix="pool-digests-") as tmp:
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
    print(f"{differing_blocks} differing blocks, {len(differing)} differing analyze seeds")
    return 1 if differing_blocks or differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
