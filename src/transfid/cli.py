"""Command-line front end: extract, metrics, analyze, phantom, selftest."""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import DEFAULTS, RunConfig
from .errors import CohortTooSmall, ConfigError, TransfidError
from .iqa import METRICS, MetricSet, mae, mse, psnr, ssim3d
from .manifest import ORIGINAL_SOURCE, csv_rows, open_csv, parse_manifest
from .nifti import MAX_DIM, MAX_SPACING, MIN_SPACING, save_nifti
from .phantom import generate_phantom
from .radiomics import ALL_FEATURE_KEYS, extract_all
from .radiomics import FeatureVector  # noqa: F401  (perfbench/layers.py probes cli.FeatureVector)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    """A usage error found after parsing: exits 1, as argparse's own do."""


def _refuse_same_output(flag: str, path: str, other_flag: str, other_path: str | None) -> None:
    """Two outputs at one path: the second write would replace the first."""
    if other_path is not None and Path(path).resolve() == Path(other_path).resolve():
        raise _UsageError(f"{flag} and {other_flag} name the same file {path!r}")


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float, sig: int) -> str:
    if math.isnan(value):
        return ""
    return format(value, f".{sig}g")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(Path(path), buf.getvalue())


def _run_cohort(args, header: list[str], rows_of, **want) -> int:
    """Run the pipeline and write `rows_of(record, result)` for each processed
    patient; warn about each excluded one, and write nothing if all are."""
    config = RunConfig.from_json(args.config) if args.config else RunConfig.from_dict({})
    records = parse_manifest(args.manifest)
    results = analysis.run_pipeline(records, config, jobs=args.jobs, **want)
    kept = []
    for record, result in zip(records, results):
        if result.error is not None:
            print(f"warning: excluded patient {record.patient_id}: {result.error}", file=sys.stderr)
        else:
            kept.append((record, result))
    if not kept:
        raise CohortTooSmall("no patient could be processed")
    _write_csv(args.out, header, (row for pair in kept for row in rows_of(*pair)))
    return EXIT_OK


def _feature_rows(record, result):
    for source in [ORIGINAL_SOURCE] + sorted(record.synthetic_sources):
        vector = result.features[source]
        yield [
            record.patient_id,
            source,
            *(_fmt(vector[key], 12) for key in ALL_FEATURE_KEYS),
            ";".join(k for k in ALL_FEATURE_KEYS if k in vector.flags),
        ]


def _metric_rows(record, result):
    for network in sorted(result.metrics):
        m = result.metrics[network]
        yield [record.patient_id, network, *(_fmt(getattr(m, name), 9) for name in METRICS)]


def cmd_extract(args) -> int:
    header = ["patient_id", "source", *ALL_FEATURE_KEYS, "flags"]
    return _run_cohort(args, header, _feature_rows, want_metrics=False)


def cmd_metrics(args) -> int:
    header = ["patient_id", "network", *METRICS]
    return _run_cohort(args, header, _metric_rows, want_features=False)


def _number(cell: str, column: str, path: str, line: int) -> float:
    """`float(cell)`, or a data error naming the cell."""
    try:
        return float(cell)
    except ValueError:
        raise TransfidError(f"{path}, line {line}: {column} is not a number: {cell!r}") from None


def _metric(cell: str, column: str, path: str, line: int) -> float:
    """A metric cell as `metrics` writes it: finite, or inf in psnr (PSNR when
    MSE is 0). NaN would leave the network ranking to row order, and one
    infinite MAE, MSE or SSIM would set its network's mean alone."""
    value = _number(cell, column, path, line)
    if math.isfinite(value) or (column == "psnr" and value == math.inf):
        return value
    if math.isnan(value):
        raise TransfidError(f"{path}, line {line}: {column} is not a number: {cell!r}")
    allowed = "finite or inf" if column == "psnr" else "finite"
    raise TransfidError(f"{path}, line {line}: {column} must be {allowed}, got {cell!r}")


_EMPTY_AS_NAN = {"": "nan"}  # .get(cell, cell) turns '' into 'nan', any other cell into itself


def _feature_values(cells: tuple[str, ...], path: str, line: int) -> np.ndarray:
    """One row's 186 feature cells as floats; an empty cell reads as NaN.
    A row that fails is walked cell by cell only to name the bad cell."""
    try:
        return np.fromiter(map(float, map(_EMPTY_AS_NAN.get, cells, cells)), np.float64, len(cells))
    except ValueError:
        for key, cell in zip(ALL_FEATURE_KEYS, cells):
            if cell:
                _number(cell, key, path, line)
        raise


def _read_features_csv(path: str) -> tuple[list[str], list[str], dict[str, np.ndarray]]:
    """Per-source feature arrays from an extract CSV.

    Returns (patients, sources, features), patients and sources in
    first-seen order; `features[source]` is a (len(patients), 186) array
    in registry order, NaN where a cell is empty or the (patient, source)
    row is missing.
    """
    patients: dict[str, int] = {}
    rows: dict[str, list[tuple[int, np.ndarray]]] = {}
    seen: set[tuple[str, str]] = set()
    known = frozenset(ALL_FEATURE_KEYS)
    with open_csv(path) as fh:
        index, lines = csv_rows(fh, path, ("patient_id", "source", *ALL_FEATURE_KEYS))
        pid_at, source_at, flags_at = index["patient_id"], index["source"], index.get("flags")
        feature_cells = operator.itemgetter(*(index[key] for key in ALL_FEATURE_KEYS))
        for line, row in lines:
            pid, source = row[pid_at], row[source_at]
            if (pid, source) in seen:
                raise TransfidError(
                    f"{path}, line {line}: duplicate row for patient {pid!r}, source {source!r}"
                )
            seen.add((pid, source))
            if flags_at is not None:
                unknown = [f for f in row[flags_at].split(";") if f and f not in known]
                if unknown:
                    raise TransfidError(
                        f"{path}, line {line}: unknown feature {unknown[0]!r} in flags"
                    )
            values = _feature_values(feature_cells(row), path, line)
            rows.setdefault(source, []).append((patients.setdefault(pid, len(patients)), values))
    if ORIGINAL_SOURCE not in rows:
        raise TransfidError(f"{path}: no {ORIGINAL_SOURCE} rows")
    features = {source: analysis.feature_table(len(patients), r) for source, r in rows.items()}
    return list(patients), list(rows), features


def _read_metrics_csv(path: str) -> dict[tuple[str, str], MetricSet]:
    metrics: dict[tuple[str, str], MetricSet] = {}
    with open_csv(path) as fh:
        index, lines = csv_rows(fh, path, ("patient_id", "network", *METRICS))
        for line, row in lines:
            pid, network = row[index["patient_id"]], row[index["network"]]
            if (pid, network) in metrics:
                raise TransfidError(
                    f"{path}, line {line}: duplicate row for patient {pid!r}, network {network!r}"
                )
            metrics[(pid, network)] = MetricSet(
                **{name: _metric(row[index[name]], name, path, line) for name in METRICS}
            )
    return metrics


def cmd_analyze(args) -> int:
    _refuse_same_output("--out", args.out, "--summary", args.summary)
    patients, sources, features = _read_features_csv(args.features)
    metrics = _read_metrics_csv(args.metrics)
    networks = sorted({s for s in sources if s != ORIGINAL_SOURCE})

    table = analysis.CohortTable(
        patients=patients,
        networks=networks,
        features=features,
        metrics=metrics,
    )
    ranked = analysis.rank_networks(table)
    top = ranked[0]
    records = analysis.concordance(table)
    assignments = analysis.classify_groups(records, top, threshold=args.threshold)

    header = ["feature_id", "group", *(f"rho_{n}" for n in networks), *(f"pass_{n}" for n in networks)]
    rows = (
        [record.feature_key, assignment.group]
        + [_fmt(record.rho[n], 9) for n in networks]
        + [str(assignment.passes[n]).lower() for n in networks]
        + [str(assignment.anomalous).lower()]
        for record, assignment in zip(records, assignments)
    )
    _write_csv(args.out, header + ["anomalous"], rows)

    summary = {
        "threshold": args.threshold,
        "networks_ranked": ranked,
        "top_network": top,
        "group_counts": analysis.group_counts_by_family(assignments),
    }
    summary_path = Path(args.summary) if args.summary else Path(args.out).with_suffix(".summary.json")
    _atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _threshold(text: str) -> float:
    """--threshold: a rho in [-1, 1]; NaN fails the range test too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not -1.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [-1, 1], got {text}")
    return value


def _count(text: str, hint: str = "") -> int:
    """--seed, and --jobs through _jobs: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {text!r}{hint}")
    return value


def _jobs(text: str) -> int:
    """--jobs: a worker count, 0 = one per CPU."""
    return _count(text, " (its default is TRANSFID_JOBS)") or os.cpu_count() or 1


def _triple(kind, low: float, high: float):
    """Type of a flag taking three comma-separated numbers in [low, high]."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(map(kind, text.split(",")))
        except ValueError:
            values = ()
        if len(values) != 3 or not all(low <= v <= high for v in values):
            raise argparse.ArgumentTypeError(
                f"must be three comma-separated {kind.__name__} values in [{low:g}, {high:g}], got {text!r}"
            )
        return values

    return parse


def cmd_phantom(args) -> int:
    _refuse_same_output("--out", args.out, "--mask-out", args.mask_out)
    volume, mask = generate_phantom(args.seed, args.dims, args.spacing)

    out = Path(args.out)
    mask_out = Path(args.mask_out) if args.mask_out else out.with_name(out.stem + "_mask" + out.suffix)
    save_nifti(out, volume)
    mask_volume = volume.with_values(mask.flags.astype(np.float64))
    save_nifti(mask_out, mask_volume)
    print(f"wrote {out} and {mask_out}")
    return EXIT_OK


def _selftest_golden() -> dict:
    # imported here: importlib.resources costs every other command 10-25 ms at start-up
    from importlib import resources

    with resources.files("transfid.data").joinpath("selftest_golden.json").open("r") as fh:
        return json.load(fh)


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    check("feature registry has 186 entries", len(ALL_FEATURE_KEYS) == 186)

    golden = _selftest_golden()
    volume, mask = generate_phantom(
        golden["seed"], tuple(golden["dims"]), tuple(golden["spacing"])
    )
    config = RunConfig.from_dict({
        "discretize": {"mode": "FBN", "bins": golden["bins"]},
        "ivh": {"bins": golden["ivh_bins"]},
        "ngldm": {"alpha": golden["ngldm_alpha"]},
    })
    vector = extract_all(volume, mask, config)
    worst = 0.0
    mismatch = ""
    for key, expected in golden["features"].items():
        got = vector[key]
        if expected is None:
            if not math.isnan(got):
                mismatch = f"{key}: expected NaN, got {got}"
                break
            continue
        err = abs(got - expected) / max(1.0, abs(expected))
        if err > worst:
            worst = err
        if err > 1e-9:
            mismatch = f"{key}: {got} vs golden {expected}"
            break
    check("phantom features match committed golden values", not mismatch, mismatch or f"max rel err {worst:.2e}")
    check(
        "golden flags reproduced",
        set(golden["flags"]) == set(vector.flags),
        "",
    )

    identical = ssim3d(volume, volume)
    check("ssim(a, a) == 1", abs(identical - 1.0) <= 1e-12, f"got {identical}")
    rng = np.random.default_rng(0)
    other = volume.with_values(np.clip(volume.values + rng.normal(0, 0.05, volume.dims), 0, 1))
    check(
        "psnr == -10*log10(mse) at peak 1",
        psnr(volume, other, 1.0) == -10.0 * math.log10(mse(volume, other)),
    )
    check("mae symmetry", mae(volume, other) == mae(other, volume))

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail and not ok else ""
        print(f"[{status}] {name}{suffix}")
    return EXIT_OK if not failed else EXIT_DATA


def build_parser() -> _Parser:
    parser = _Parser(prog="transfid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # a string default goes through the flag's type, so TRANSFID_JOBS is checked like --jobs
    jobs_default = os.environ.get("TRANSFID_JOBS") or "0"

    p_extract = sub.add_parser("extract", help="extract 186 features per (patient, source)")
    p_extract.add_argument("--manifest", required=True)
    p_extract.add_argument("--config", default=None)
    p_extract.add_argument("--out", required=True)
    p_extract.add_argument("--jobs", type=_jobs, default=jobs_default)
    p_extract.set_defaults(func=cmd_extract)

    p_metrics = sub.add_parser("metrics", help="compute MAE/MSE/SSIM/PSNR per (patient, network)")
    p_metrics.add_argument("--manifest", required=True)
    p_metrics.add_argument("--config", default=None)
    p_metrics.add_argument("--out", required=True)
    p_metrics.add_argument("--jobs", type=_jobs, default=jobs_default)
    p_metrics.set_defaults(func=cmd_metrics)

    p_analyze = sub.add_parser("analyze", help="concordance and discovery-group classification")
    p_analyze.add_argument("--features", required=True)
    p_analyze.add_argument("--metrics", required=True)
    p_analyze.add_argument("--out", required=True)
    p_analyze.add_argument("--threshold", type=_threshold, default=0.5)
    p_analyze.add_argument("--summary", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_phantom = sub.add_parser("phantom", help="write a deterministic test volume and mask")
    p_phantom.add_argument("--seed", type=_count, required=True)
    p_phantom.add_argument("--dims", type=_triple(int, 1, MAX_DIM), default="16,16,16")
    p_phantom.add_argument("--spacing", type=_triple(float, MIN_SPACING, MAX_SPACING), default="1,1,1")
    p_phantom.add_argument("--out", required=True)
    p_phantom.add_argument("--mask-out", default=None)
    p_phantom.set_defaults(func=cmd_phantom)

    p_selftest = sub.add_parser("selftest", help="run the built-in golden-file checks")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"transfid {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"transfid: config error: {exc}", file=sys.stderr)
        print("config schema (all keys optional):", file=sys.stderr)
        print(json.dumps(DEFAULTS, indent=2), file=sys.stderr)
        return EXIT_USAGE
    except (TransfidError, OSError) as exc:
        print(f"transfid: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
