"""The batched GLCM and GLRLM formulas equal the per-matrix reference bit
for bit.

`texture_reference` keeps the formulas as they were evaluated one matrix at
a time. Every feature must have the same bits (NaN for NaN, and the sign
of a zero), and the engine's NaN names must be the reference's flags.
"""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import texture_reference as reference
from transfid.preprocess import DiscretizedVolume
from transfid.radiomics.matrices import zone_matrices
from transfid.radiomics.texture import (
    glcm_features,
    glrlm_features,
    row_column_features,
    zone_features,
)
from transfid.volume import RoiMask

from conftest import nan_names

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def disc(levels: np.ndarray, flags: np.ndarray, ng: int) -> DiscretizedVolume:
    levels = np.where(flags, levels, 0)
    return DiscretizedVolume(flags.shape, levels, ng=ng, mask=RoiMask(flags.shape, flags))


@st.composite
def volumes(draw):
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    ng = draw(st.integers(1, 40))
    mode = draw(st.sampled_from(("random", "single", "full")))
    if mode == "random":
        flags = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        flags = np.full(n, mode == "full")
    flags[draw(st.integers(0, n - 1))] = True
    top = draw(st.integers(1, ng))
    levels = np.array(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    return disc(levels.reshape(dims), flags.reshape(dims), ng)


def bits(value: float) -> str:
    return float(value).hex()


def assert_same_bits(got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys()
    for name in expected:
        assert bits(got[name]) == bits(expected[name]), (name, got[name], expected[name])


def assert_same_aggregates(got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys()
    for agg, (expected_values, expected_flags) in expected.items():
        assert nan_names(got[agg]) == expected_flags, agg
        assert_same_bits(got[agg], expected_values)


def check(d: DiscretizedVolume) -> None:
    assert_same_aggregates(glcm_features(d), reference.glcm_features(d))
    assert_same_aggregates(glrlm_features(d), reference.glrlm_features(d))
    for matrix in zone_matrices(d):
        n = d.mask.voxel_count
        assert_same_bits(row_column_features(matrix, n), reference.row_column_features(matrix, n))


@PROPERTY
@given(volumes())
def test_batched_formulas_equal_per_matrix_reference(d):
    check(d)


def test_length_one_axis_leaves_directions_empty():
    rng = np.random.default_rng(7)
    levels = rng.integers(1, 6, (9, 1, 1))
    check(disc(levels, np.ones((9, 1, 1), dtype=bool), 5))


def test_single_level_roi_flags_undefined_correlations():
    d = disc(np.full((4, 4, 3), 2), np.ones((4, 4, 3), dtype=bool), 3)
    got = glcm_features(d)
    for agg in ("dir_avg", "dir_merged"):
        assert {"correlation", "information_correlation_1"} <= nan_names(got[agg])
    check(d)


def test_one_voxel_roi_has_no_pairs():
    flags = np.zeros((3, 3, 3), dtype=bool)
    flags[1, 1, 1] = True
    d = disc(np.ones((3, 3, 3), dtype=np.int64), flags, 1)
    got = glcm_features(d)
    assert nan_names(got["dir_avg"]) == set(got["dir_avg"])
    check(d)


def test_1024_levels():
    rng = np.random.default_rng(11)
    levels = rng.integers(1, 1025, (6, 5, 4))
    levels[0, 0, 0] = 1024
    check(disc(levels, rng.random((6, 5, 4)) < 0.8, 1024))


def test_wide_run_matrices_of_several_widths():
    # long runs along x, short ones elsewhere: the run matrices of the 13
    # directions differ in width, so they are evaluated concatenated
    levels = np.ones((40, 3, 3), dtype=np.int64)
    levels[:, 1, :] = 2
    levels[::7, 2, 2] = 3
    check(disc(levels, np.ones(levels.shape, dtype=bool), 3))


def test_wide_zone_matrix_holds_no_stacked_terms():
    # one zone of 18 720 voxels beside 480 one-voxel zones of levels 2..32:
    # a 32 x 18 720 GLSZM whose cells are 99.9% zero
    dims = (48, 40, 10)
    levels = np.ones(dims, dtype=np.int64)
    lattice = levels[::4, ::4, ::3]
    lattice[...] = 2 + np.arange(lattice.size).reshape(lattice.shape) % 31
    d = disc(levels, np.ones(dims, dtype=bool), 32)
    glszm_bytes = zone_matrices(d)[0].nbytes
    tracemalloc.start()
    try:
        zone_features(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-matrix formulas peaked at 4.09 GLSZMs here (19.6 MB); holding
    # the eleven emphasis terms of the matrix at once would add eleven more
    assert peak < 4.3 * glszm_bytes


def test_1024_level_matrices_are_evaluated_in_batches():
    # 1 152 voxels at 1 024 levels: each of the 13 direction matrices and the
    # merged one is 8 MiB, and every array formula over a stack of all 14
    # would hold 14 such temporaries at once
    rng = np.random.default_rng(13)
    d = disc(rng.integers(1, 1025, (12, 12, 8)), np.ones((12, 12, 8), dtype=bool), 1024)
    matrix_bytes = 1024 * 1024 * 8
    tracemalloc.start()
    try:
        glcm_features(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23 * matrix_bytes
