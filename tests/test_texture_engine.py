"""The batched GLCM and GLRLM formulas equal the per-matrix reference bit
for bit.

`texture_reference` keeps the formulas as they were evaluated one matrix at
a time. Every feature must have the same bits (NaN for NaN, and the sign
of a zero), and the engine's NaN names must be the reference's flags.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import texture_reference as reference
from transfid.preprocess import DiscretizedVolume
from transfid.radiomics.matrices import glcm_matrices, glrlm_matrices, zone_matrices
from transfid.radiomics.texture import (
    BATCH_CELLS,
    _glcm_batch,
    _in_batches,
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


# at 80 levels the 14 GLCMs of 6 400 cells exceed BATCH_CELLS and split into
# batches of several matrices; at 1 024 levels each matrix is a batch
@pytest.mark.parametrize("ng", [80, 1024])
def test_1024_levels(ng):
    rng = np.random.default_rng(11)
    levels = rng.integers(1, ng + 1, (6, 5, 4))
    levels[0, 0, 0] = ng
    check(disc(levels, rng.random((6, 5, 4)) < 0.8, ng))


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


def test_run_matrices_of_three_widths_one_of_them_one():
    # constant along x, level alternating along z: runs of 6 along x, of 3
    # along y and its diagonals with x, and of 1 in every direction that
    # steps in z, so one concatenated layout holds widths 6, 3 and 1
    levels = np.ones((6, 3, 4), dtype=np.int64) + np.arange(4) % 2
    d = disc(levels, np.ones(levels.shape, dtype=bool), 2)
    assert {1, 3, 6} <= {m.shape[1] for m in glrlm_matrices(d)}
    check(d)


def test_directional_average_skips_the_directions_whose_value_is_nan():
    # four level-1 voxels along x and one level-2 voxel beside the first:
    # every pair along x is (1, 1), so those directions' correlation is NaN,
    # while the pairs that reach the level-2 voxel give a defined one
    levels = np.ones((4, 2, 1), dtype=np.int64)
    levels[0, 1, 0] = 2
    flags = np.zeros(levels.shape, dtype=bool)
    flags[:, 0, 0] = flags[0, 1, 0] = True
    d = disc(levels, flags, 2)
    per_direction = [_glcm_batch([m])[0]["correlation"] for m in glcm_matrices(d) if m.sum() > 0]
    assert any(np.isnan(per_direction)) and not all(np.isnan(per_direction))
    assert not np.isnan(glcm_features(d)["dir_avg"]["correlation"])
    check(d)


def test_concatenated_run_matrices_stack_their_terms_one_batch_at_a_time():
    # 1 000 levels, runs of 38 along x and 20 along y, of 1 or 2 elsewhere:
    # the 14 run matrices (148 000 cells) go through the formulas in three
    # batches, the largest concatenated one of 62 000 cells
    rng = np.random.default_rng(5)
    levels = rng.integers(1, 1001, (40, 40, 4))
    levels[:38] = levels[0]
    levels[:, :20] = levels[:, :1]
    d = disc(levels, np.ones(levels.shape, dtype=bool), 1000)
    mats = glrlm_matrices(d)
    mats.append(np.zeros((1000, max(m.shape[1] for m in mats))))
    batch_cells = _in_batches(mats, lambda batch: [sum(m.size for m in batch)])
    assert len(batch_cells) == 3 and 0.9 * BATCH_CELLS < max(batch_cells) <= BATCH_CELLS
    all_cells = sum(m.size for m in mats)
    glrlm_features(d)
    tracemalloc.start()
    try:
        glrlm_features(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in units of BATCH_CELLS x 8 bytes: the eleven emphasis terms of the
    # largest batch at once take 10.41, and with the matrices, the batch's
    # concatenation and its non-zero cells the peak was 13.84 against a
    # bound of 14.92; the terms of all 14 matrices at once would take 24.8
    assert peak < 8 * (11 * max(batch_cells) + 2 * all_cells)
