"""Record the digests that the correctness gate compares outputs against.

    python3 perfbench/record_digests.py

Run from the repository root. It runs the CLI once on every pool patient
(extract at both configs, metrics) and on analyze_cohort for seeds
0..ANALYZE_SEEDS-1, and writes perfbench/reference_digests.json. The file is
recorded at the commit that defines the benchmark; a later change must keep
its outputs byte-identical to it, so it is not re-recorded to make a run pass.
"""
from __future__ import annotations

import json
import platform
import shutil
import sys

import gate
import inputs
import run
import workloads

ANALYZE_SEEDS = 32


def record_pool(name: str, patients: list, directory) -> dict:
    workload = workloads.WORKLOADS[name]
    directory.mkdir(parents=True)
    inputs.write_image_cohort(directory, patients, workload.networks)
    if workload.config is not None:
        inputs.write_config(directory, workload.config)
    code, wall, _, _, stderr = run.run_cli(workload.argv("out.csv", workloads.pool_jobs()), directory)
    if code != 0 or "excluded patient" in stderr:
        raise SystemExit(f"{name}: exit {code}: {stderr}")
    print(f"{name}: {len(patients)} pool patients in {wall:.1f} s", file=sys.stderr)
    return gate.block_digests((directory / "out.csv").read_bytes())


def main() -> int:
    why_not = run.preflight()
    if why_not:
        print(f"record_digests: {why_not}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    root = run.WORK / "record"
    shutil.rmtree(root, ignore_errors=True)
    large = [inputs.large_patient(i) for i in range(inputs.LARGE_POOL)]
    small = [inputs.small_patient(i) for i in range(inputs.SMALL_POOL)]
    reference = {
        "recorded_with": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "python": platform.python_version()},
        "extract_large": record_pool("extract_large", large, root / "extract_large"),
        "extract_small": record_pool("extract_small", small, root / "extract_small"),
        "metrics_cohort": record_pool("metrics_cohort", large, root / "metrics_cohort"),
        "analyze_cohort": {"seeds": {}},
    }
    analyze = workloads.WORKLOADS["analyze_cohort"]
    for seed in range(ANALYZE_SEEDS):
        directory = root / f"analyze{seed}"
        directory.mkdir(parents=True)
        analyze.write_inputs(seed, directory)
        code, _, _, _, stderr = run.run_cli(analyze.argv("out.csv", 1), directory)
        if code:
            raise SystemExit(f"analyze_cohort seed {seed}: exit {code}: {stderr}")
        problems = analyze.check(seed, directory, "out.csv", [], reference)
        if problems:
            raise SystemExit(f"analyze_cohort seed {seed}: {problems[:5]}")
        reference["analyze_cohort"]["seeds"][str(seed)] = {
            "groups.csv": gate.sha256((directory / "out.csv").read_bytes()),
            "groups.summary.json": gate.sha256((directory / "out.summary.json").read_bytes()),
        }
        shutil.rmtree(directory)
    shutil.rmtree(root)
    gate.DIGESTS_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
