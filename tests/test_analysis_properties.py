"""Property tests: the array-backed analyze path against the rank oracles.

A cohort of 2 to 40 patients and 1 to 3 networks is written as an extract
CSV with empty (NaN) and infinite cells, integer ties, constant columns
and missing (patient, source) rows, then read back by the analyze reader.
Feature j takes the values of column pattern j % PATTERNS, so every one of
the 186 records has an oracle answer computed from the drawn values.
"""
import csv
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from transfid.analysis import CohortTable, concordance
from transfid.cli import _read_features_csv
from transfid.manifest import ORIGINAL_SOURCE
from transfid.radiomics import ALL_FEATURE_KEYS
from transfid.stats import average_ranks

PROPERTY = settings(max_examples=60, deadline=None, database=None)
PATTERNS = 4

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def columns(draw, n):
    """One source's values of one pattern: integer ties, floats or a constant,
    with about one cell in five NaN or infinite."""
    kind = draw(st.sampled_from(("ties", "floats", "constant")))
    if kind == "ties":
        values = draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
    elif kind == "floats":
        values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    else:
        values = [draw(finite_floats)] * n
    return [draw(non_finite) if draw(st.integers(0, 4)) == 0 else v for v in values]


@st.composite
def cohorts(draw):
    """{(pid, source): PATTERNS values} for the rows present, in CSV row order."""
    n = draw(st.integers(2, 40))
    sources = [ORIGINAL_SOURCE] + [f"net{k}" for k in range(draw(st.integers(1, 3)))]
    table = {s: [draw(columns(n)) for _ in range(PATTERNS)] for s in sources}
    rows = {}
    for i in range(n):
        for s in sources:
            if draw(st.integers(0, 9)) > 0:  # about one row in ten is missing
                rows[(f"p{i}", s)] = [table[s][j][i] for j in range(PATTERNS)]
    return rows


def write_features(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "source", *ALL_FEATURE_KEYS, "flags"])
        for (pid, source), values in rows.items():
            cells = ["" if math.isnan(v) else repr(v) for v in values]
            features = (cells[j % PATTERNS] for j in range(len(ALL_FEATURE_KEYS)))
            writer.writerow([pid, source, *features, ""])


def expected(rows, patients, network, j):
    """(rho, n_effective) by the definitions, from the drawn values; a
    degenerate pair has NaN rho."""
    xs, ys = [], []
    for pid in patients:
        x = rows.get((pid, ORIGINAL_SOURCE), [math.nan] * PATTERNS)[j]
        y = rows.get((pid, network), [math.nan] * PATTERNS)[j]
        if math.isfinite(x) and math.isfinite(y):
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        return math.nan, len(xs)
    return oracles.spearman(xs, ys), len(xs)


@PROPERTY
@given(rows=cohorts())
def test_concordance_matches_oracle(tmp_path_factory, rows):
    present = {source for _, source in rows}
    patients = list(dict.fromkeys(pid for pid, _ in rows))
    assume(ORIGINAL_SOURCE in present and len(patients) >= 2)
    path = tmp_path_factory.mktemp("cohort") / "features.csv"
    write_features(path, rows)

    read_patients, sources, features = _read_features_csv(str(path))
    assert read_patients == patients
    networks = sorted(s for s in sources if s != ORIGINAL_SOURCE)
    assert networks == sorted(present - {ORIGINAL_SOURCE})
    table = CohortTable(read_patients, networks, features, metrics={})
    result = concordance(table)

    assert result.feature_keys == ALL_FEATURE_KEYS and result.networks == networks
    want = {(n, p): expected(rows, patients, n, p) for n in networks for p in range(PATTERNS)}
    for j in range(len(ALL_FEATURE_KEYS)):
        for k, network in enumerate(networks):
            rho, n_eff = want[(network, j % PATTERNS)]
            assert result.n_effective[j, k] == n_eff
            if math.isnan(rho):
                assert math.isnan(result.rho[j, k])
            else:
                assert abs(result.rho[j, k] - rho) <= 1e-12


@PROPERTY
@given(values=st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(allow_nan=False))))
def test_average_ranks_equal_oracle_ranks(values):
    assert np.array_equal(average_ranks(values), np.array(oracles.ranks(values), dtype=float))
