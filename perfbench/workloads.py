"""The four workloads: their inputs, command line, item count and gate."""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import gate
import inputs

ANALYZE_THRESHOLD = 0.5
# worker processes for the pooled workloads, capped at the CPU count
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    # worker processes of the CLI invocations; the in-process traced run uses 1
    jobs: int
    # timed invocations per run even when --seconds has already passed
    min_invocations: int

    def write_inputs(self, seed: int, directory: Path) -> list[str]:
        """Write the inputs into `directory`; return the patients expected in the output."""
        raise NotImplementedError

    def argv(self, out: str, jobs: int) -> list[str]:
        raise NotImplementedError

    def outputs(self, out: str) -> list[str]:
        return [out]

    def items(self, directory: Path, out: str) -> int:
        """Written feature vectors, scored volumes, or rho values."""
        with open(directory / out, "rb") as fh:
            return sum(1 for _ in fh) - 1

    def check(self, seed: int, directory: Path, out: str, patients: list[str], reference: dict) -> list[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class ImageWorkload(Workload):
    cohort: Callable[[int], list[inputs.Patient]] = None
    networks: int = 2
    config: dict | None = None

    def write_inputs(self, seed: int, directory: Path) -> list[str]:
        cohort = self.cohort(seed)
        inputs.write_image_cohort(directory, cohort, self.networks)
        if self.config is not None:
            inputs.write_config(directory, self.config)
        return [p.pid for p in cohort]

    def argv(self, out: str, jobs: int) -> list[str]:
        args = [self.command, "--manifest", "manifest.csv", "--out", out, "--jobs", str(jobs)]
        if self.config is not None:
            args += ["--config", "config.json"]
        return args

    def check(self, seed, directory, out, patients, reference):
        return gate.check_blocks((directory / out).read_bytes(), patients, reference[self.name])


@dataclass(frozen=True)
class AnalyzeWorkload(Workload):
    def write_inputs(self, seed: int, directory: Path) -> list[str]:
        from transfid.radiomics import ALL_FEATURE_KEYS

        inputs.write_analyze_inputs(directory, seed, ALL_FEATURE_KEYS)
        return []

    def argv(self, out: str, jobs: int) -> list[str]:
        return ["analyze", "--features", "features.csv", "--metrics", "metrics.csv",
                "--out", out, "--threshold", str(ANALYZE_THRESHOLD)]

    def outputs(self, out: str) -> list[str]:
        return [out, summary_name(out)]

    def items(self, directory: Path, out: str) -> int:
        networks = len(inputs.NETWORKS)
        return networks * super().items(directory, out)

    def check(self, seed, directory, out, patients, reference):
        problems = gate.check_analyze(directory, directory / out, directory / summary_name(out),
                                      ANALYZE_THRESHOLD)
        recorded = reference[self.name]["seeds"].get(str(seed))
        if recorded is not None:
            for name, role in ((out, "groups.csv"), (summary_name(out), "groups.summary.json")):
                if gate.sha256((directory / name).read_bytes()) != recorded[role]:
                    problems.append(f"{role} bytes differ from the digest recorded for seed {seed}")
        return problems


def summary_name(out: str) -> str:
    return str(Path(out).with_suffix(".summary.json"))


def pool_jobs() -> int:
    return max(1, min(POOL_JOBS, os.cpu_count() or 1))


WORKLOADS = {
    w.name: w
    for w in (
        ImageWorkload(
            name="extract_large",
            why="128x128x64 volumes with ~314k-voxel ROIs at FBN 32: the GLRLM and zone "
            "matrix builders do most of the CPU work, so texture-kernel changes show here.",
            command="extract",
            jobs=pool_jobs(),
            min_invocations=2,
            cohort=lambda seed: inputs.large_cohort(seed, "extract_large", 2),
            networks=2,
        ),
        ImageWorkload(
            name="extract_small",
            why="40 small patients (24x24x16, ~2.7k ROI voxels, FBS, two degenerate ROIs): "
            "per-call set-up of each family, formulas, validation, CSV and pool dispatch weigh most.",
            command="extract",
            jobs=pool_jobs(),
            min_invocations=3,
            cohort=lambda seed: inputs.small_cohort(seed, 38),
            networks=2,
            config=inputs.SMALL_CONFIG,
        ),
        ImageWorkload(
            name="metrics_cohort",
            why="3 large patients x 3 networks at --jobs 1: SSIM, NIfTI decode and "
            "normalisation do the work; no radiomics and no pool.",
            command="metrics",
            jobs=1,
            min_invocations=2,
            cohort=lambda seed: inputs.large_cohort(seed, "metrics_cohort", 3),
            networks=3,
        ),
        AnalyzeWorkload(
            name="analyze_cohort",
            why="1000 patients x 4 networks of generated features: CSV parsing, FeatureVector "
            "validation, concordance and grouping only; no images and no pool.",
            command="analyze",
            jobs=1,
            min_invocations=2,
        ),
    )
}
