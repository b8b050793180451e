"""Check every pool patient's output bytes against the recorded digests.

    python3 tools/check_pool_digests.py

Runs the CLI on the whole pool of each image workload, exactly as
`perfbench/record_digests.py` does when it records them: extract_large (12
large patients), extract_small (136 small patients) and metrics_cohort (the
12 large patients again, through `metrics`). Each patient's block of rows is
compared with `perfbench/reference_digests.json`, which this script only
reads. The timed benchmark checks only the patients its seed picks; this
checks all of them.

Exit status: 0 when every block matches; 1 when any block differs, with the
differing patients listed; 2 when Python, numpy or scipy is not the version
the digests were recorded with, since the bytes are only comparable there.
"""
from __future__ import annotations

import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def main() -> int:
    # the benchmark's modules resolve ./src and each other from the repository root
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gate
    import inputs
    import record_digests
    import run

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
    print(f"{differing_blocks} differing blocks")
    return 1 if differing_blocks else 0


if __name__ == "__main__":
    raise SystemExit(main())
