"""Correctness gate for every timed command invocation.

Image workloads: each patient's block of output rows must match the digest
recorded at the seed commit for that pool patient, in manifest order, with
no patient missing. analyze_cohort: every rho is re-derived with
scipy.stats.spearmanr (1e-9), the groups, ranking and counts are re-derived,
and, for seeds whose digests were recorded, the bytes must match too.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import stats

DIGESTS_PATH = Path(__file__).with_name("reference_digests.json")
ORIGINAL = "original_mri"
RHO_TOLERANCE = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_tree(directory: Path) -> dict[str, str]:
    """sha256 of every file in a directory, by name."""
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def load_reference() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def row_blocks(data: bytes) -> tuple[bytes, dict[str, bytes], list[str]]:
    """Header line, each patient's consecutive rows, and patient order."""
    lines = data.splitlines(keepends=True)
    if not lines:
        return b"", {}, []
    blocks: dict[str, bytes] = {}
    order: list[str] = []
    for line in lines[1:]:
        pid = line.split(b",", 1)[0].decode("utf-8", "replace")
        if not order or order[-1] != pid:
            order.append(pid)
            blocks.setdefault(pid, b"")
        blocks[pid] += line
    return lines[0], blocks, order


def block_digests(data: bytes) -> dict:
    header, blocks, _ = row_blocks(data)
    return {"header": sha256(header), "patients": {pid: sha256(b) for pid, b in blocks.items()}}


def check_blocks(data: bytes, expected_pids: list[str], reference: dict) -> list[str]:
    """Problems with a features.csv/metrics.csv against per-patient digests."""
    header, blocks, order = row_blocks(data)
    problems = []
    if sha256(header) != reference["header"]:
        problems.append("header differs from the reference")
    if order != expected_pids:
        missing = [p for p in expected_pids if p not in blocks]
        problems.append(f"patient rows out of order or missing (missing: {missing})")
    for pid in expected_pids:
        if pid in blocks and sha256(blocks[pid]) != reference["patients"].get(pid):
            problems.append(f"rows of patient {pid} differ from the reference")
    return problems


def _read_features(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Feature keys and a (patients x features) array per source.

    The generated inputs give every patient one row per source, in the same
    patient order, so row p of each array is the same patient.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        keys = next(reader)[2:-1]
        rows: dict[str, list[list[float]]] = {}
        for row in reader:
            rows.setdefault(row[1], []).append([float(c) if c else math.nan for c in row[2:-1]])
    return keys, {source: np.array(v) for source, v in rows.items()}


def _ranked_networks(path: Path) -> list[str]:
    ssim: dict[str, list[float]] = {}
    mae: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ssim.setdefault(row["network"], []).append(float(row["ssim"]))
            mae.setdefault(row["network"], []).append(float(row["mae"]))
    return sorted(ssim, key=lambda n: (-np.mean(ssim[n]), np.mean(mae[n]), n))


def reference_rho(x: np.ndarray, y: np.ndarray) -> float:
    keep = np.isfinite(x) & np.isfinite(y)
    if keep.sum() < 2:
        return math.nan
    x, y = x[keep], y[keep]
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    return float(stats.spearmanr(x, y).statistic)


def check_analyze(inputs: Path, groups: Path, summary: Path, threshold: float) -> list[str]:
    """Re-derive groups.csv and its summary from the analyze inputs."""
    keys, table = _read_features(inputs / "features.csv")
    networks = sorted(n for n in table if n != ORIGINAL)
    ranked = _ranked_networks(inputs / "metrics.csv")
    top = ranked[0]
    problems: list[str] = []

    with open(groups, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        want = (["feature_id", "group"] + [f"rho_{n}" for n in networks]
                + [f"pass_{n}" for n in networks] + ["anomalous"])
        if header != want:
            return [f"groups.csv header {header[:4]}... differs from the expected columns"]
        rows = list(reader)
    if [r[0] for r in rows] != keys:
        return ["groups.csv features differ from the input columns"]

    counts: dict[str, Counter] = {}
    for j, row in enumerate(rows):
        passes = {}
        for k, network in enumerate(networks):
            want_rho = reference_rho(table[ORIGINAL][:, j], table[network][:, j])
            got = float(row[2 + k]) if row[2 + k] else math.nan
            if math.isnan(want_rho) != math.isnan(got) or abs(got - want_rho) > RHO_TOLERANCE:
                problems.append(f"{row[0]} rho_{network}: {got} vs spearmanr {want_rho}")
            got_pass = row[2 + len(networks) + k]
            if not math.isnan(want_rho) and abs(want_rho - threshold) <= RHO_TOLERANCE:
                passes[network] = got_pass == "true"  # too close to call: take the program's side
            else:
                passes[network] = not math.isnan(want_rho) and want_rho > threshold
            if got_pass != str(passes[network]).lower():
                problems.append(f"{row[0]} pass_{network} is {got_pass}")
        n_pass = sum(passes.values())
        if n_pass > len(networks) / 2:
            group, anomalous = "Group1", False
        elif passes[top]:
            group, anomalous = "Group2", False
        else:
            group, anomalous = "Group3", n_pass > 0
        if row[1] != group or row[-1] != str(anomalous).lower():
            problems.append(f"{row[0]}: {row[1]}/{row[-1]}, re-derived {group}/{anomalous}")
        counts.setdefault(row[0].split(".", 1)[0].upper(), Counter())[group] += 1

    totals = Counter()
    for family in counts.values():
        totals.update(family)
    counts["TOTAL"] = totals
    want_counts = {f: {g: c[g] for g in ("Group1", "Group2", "Group3")} for f, c in counts.items()}
    got_summary = json.loads(summary.read_text(encoding="utf-8"))
    want_summary = {"threshold": threshold, "networks_ranked": ranked, "top_network": top,
                    "group_counts": want_counts}
    if got_summary != want_summary:
        problems.append("groups.summary.json differs from the re-derived ranking and counts")
    return problems
