"""Property tests: malformed inputs map to a TransfidError and exit code 2,
and malformed arguments to exit code 1.

Random bytes of the 348-byte NIfTI-1 header are overwritten, and manifests
are written from random rows (stray columns, empty cells, quotes, bytes
that are not UTF-8). The loaders must return a value or raise a
TransfidError; `transfid metrics` must exit 0 or 2 and never raise.
Argument strings are drawn for `phantom` and `metrics`; `main` must
return 0, 1 or 2 and never raise.
"""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transfid.cli import main
from transfid.errors import TransfidError
from transfid.manifest import ORIGINAL_SOURCE, parse_manifest
from transfid.nifti import HEADER_SIZE, load_nifti, save_nifti
from transfid.phantom import generate_phantom

PROPERTY = settings(max_examples=60, deadline=None, database=None)
SOURCES = (ORIGINAL_SOURCE, "mask", "netA", "netB")

header_edits = st.lists(
    st.tuples(st.integers(0, HEADER_SIZE - 1), st.integers(0, 255)), min_size=1, max_size=8
)


def write_cohort(root: Path) -> dict[str, Path]:
    """One 8x8x8 patient: original, mask and two networks, plus a config
    whose SSIM window fits that grid."""
    volume, mask = generate_phantom(5, (8, 8, 8))
    noise = np.random.default_rng(5).normal(0, 0.05, volume.dims)
    paths = {source: root / f"{source}.nii" for source in SOURCES}
    save_nifti(paths[ORIGINAL_SOURCE], volume)
    save_nifti(paths["mask"], volume.with_values(mask.flags.astype(float)))
    save_nifti(paths["netA"], volume.with_values(np.clip(volume.values + noise, 0, 1)))
    save_nifti(paths["netB"], volume.with_values(np.clip(volume.values - noise, 0, 1)))
    (root / "config.json").write_text(json.dumps({"ssim": {"window": 1}}))
    return paths


def run_metrics(root: Path, manifest: Path) -> int:
    argv = ["metrics", "--manifest", str(manifest), "--config", str(root / "config.json"),
            "--out", str(root / "metrics.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def loads_or_raises_transfid_error(load, path) -> None:
    try:
        load(path)
    except TransfidError:
        pass


@PROPERTY
@given(source=st.sampled_from(SOURCES), edits=header_edits)
def test_corrupt_header(source, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_cohort(root)
        raw = bytearray(paths[source].read_bytes())
        for offset, value in edits:
            raw[offset] = value
        paths[source].write_bytes(bytes(raw))
        loads_or_raises_transfid_error(load_nifti, paths[source])

        manifest = root / "manifest.csv"
        manifest.write_text(
            "patient_id,source,path\n" + "".join(f"p1,{s},{p}\n" for s, p in paths.items())
        )
        assert run_metrics(root, manifest) in (0, 2)


def cells(known):
    """A known id, source or file name, a random string, or nothing."""
    return st.one_of(st.sampled_from(known), st.text(max_size=8), st.just(""))


row_cells = st.one_of(cells(("p1", "p2")), cells(SOURCES), cells([s + ".nii" for s in SOURCES]))


@st.composite
def manifests(draw):
    """Manifest bytes: a header with columns missing, extra or reordered, rows
    of 0-5 cells, some quoted, and now and then a few random bytes spliced in."""
    header = draw(st.sampled_from(("patient_id,source,path", "source,path,patient_id",
                                   "patient_id,source", "", "patient_id,source,path,extra")))
    rows = draw(st.lists(st.lists(row_cells, max_size=5), max_size=10))
    lines = [header] + [",".join(f'"{c}"' if draw(st.booleans()) else c for c in row) for row in rows]
    data = "\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@PROPERTY
@given(data=manifests())
@example(data=b"patient_id,source,path\np1,original_mri,original_mri.nii\np1,mask,mask.nii\np1,netA,netA.nii\n")
def test_malformed_manifest(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_cohort(root)
        manifest = root / "manifest.csv"
        manifest.write_bytes(data)
        loads_or_raises_transfid_error(parse_manifest, manifest)

        # relative file names resolve against the cohort directory
        with contextlib.chdir(root):
            assert run_metrics(root, manifest) in (0, 2)


# text that int() and float() cannot read as a number, so no drawn value exceeds 32 per axis
no_digits = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
axis = st.one_of(
    st.integers(-32, 32).map(str),
    st.floats(-32, 32).map(repr),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "")),
    no_digits,
)
triples = st.one_of(st.tuples(axis, axis, axis), st.lists(axis, max_size=4)).map(",".join)
counts = st.one_of(st.integers(-3, 2**70).map(str), no_digits)
# what a process environment can hold: no NUL and no lone surrogate
env_counts = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="\x00"), max_size=4),
)


@st.composite
def argument_lists(draw):
    """(argv without --out, TRANSFID_JOBS or None): phantom with drawn seed, dims
    and spacing, or metrics on a missing manifest with drawn --jobs."""
    if draw(st.booleans()):
        argv = ["phantom", "--seed", draw(counts), "--dims", draw(triples), "--spacing", draw(triples)]
    else:
        argv = ["metrics", "--manifest", "missing.csv"]
        if draw(st.booleans()):
            argv += ["--jobs", draw(counts)]
    return argv, draw(st.one_of(st.none(), env_counts))


@PROPERTY
@given(case=argument_lists())
@example(case=(["phantom", "--seed", "3", "--dims", "4,5,6", "--spacing", "0.5,1,2"], None))
def test_arguments_map_to_exit_codes(case):
    argv, jobs_env = case
    env = {"TRANSFID_JOBS": jobs_env} if jobs_env is not None else {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if jobs_env is None:
            os.environ.pop("TRANSFID_JOBS", None)
        with contextlib.chdir(tmp), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", "out.nii"]) in (0, 1, 2)
