"""Property tests: texture matrix builders equal the brute-force oracles exactly.

Volumes are drawn (`conftest.discretized_volumes`) with 1 to 7 voxels per
axis (size-1 axes included), random, single-voxel or full masks (a full
mask touches every volume edge), and random levels. Every matrix must
match its oracle bit for bit.
Fixed GLRLM cases on a 23x17x11 grid cover what so few voxels per axis
never reach: runs along whole diagonals and flat steps that do not
divide the voxel count.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from transfid.preprocess import DiscretizedVolume
from transfid.radiomics.matrices import (
    DIRECTIONS_13,
    glcm_matrices,
    glrlm_matrices,
    ngldm_matrix,
    ngtdm_table,
    zone_matrices,
)
from transfid.volume import RoiMask, flat_pairs, flat_step

from conftest import discretized_volumes

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@PROPERTY
@given(discretized_volumes())
def test_glcm_every_direction_matches_pair_scanner(d):
    got = glcm_matrices(d)
    assert len(got) == len(DIRECTIONS_13)
    for off, matrix in zip(DIRECTIONS_13, got):
        expected = oracles.glcm_direction_matrix(d.levels, d.mask.flags, d.ng, off)
        assert np.array_equal(matrix, expected), off


@PROPERTY
@given(discretized_volumes())
def test_glrlm_every_direction_matches_run_scanner(d):
    got = glrlm_matrices(d)
    assert len(got) == len(DIRECTIONS_13)
    for off, matrix in zip(DIRECTIONS_13, got):
        expected = oracles.glrlm_direction_matrix(d.levels, d.mask.flags, d.ng, off)
        assert np.array_equal(matrix, expected), off


LARGE_DIMS = (23, 17, 11)


def _large_case(kind):
    rng = np.random.default_rng(16)
    if kind == "full, 1 level":
        flags = np.ones(LARGE_DIMS, dtype=bool)
        ng = 1
    elif kind == "random mask, 3 levels":
        flags = rng.random(LARGE_DIMS) < 0.8
        ng = 3
    else:  # an ellipsoid clipped by every face of the grid
        centre = [(n - 1) / 2 for n in LARGE_DIMS]
        x, y, z = np.indices(LARGE_DIMS)
        flags = sum(((a - c) / (0.55 * n)) ** 2 for a, c, n in zip((x, y, z), centre, LARGE_DIMS)) <= 1
        for axis in range(3):
            assert flags.take(0, axis).any() and flags.take(-1, axis).any()
        assert not flags.all()
        ng = 3
    levels = np.where(flags, rng.integers(1, ng + 1, size=LARGE_DIMS), 0)
    return DiscretizedVolume(LARGE_DIMS, levels, ng=ng, mask=RoiMask(LARGE_DIMS, flags))


@pytest.mark.parametrize("kind", ["full, 1 level", "random mask, 3 levels", "roi touching each face"])
def test_glrlm_on_a_large_grid_matches_run_scanner(kind):
    n = LARGE_DIMS[0] * LARGE_DIMS[1] * LARGE_DIMS[2]
    assert any(n % flat_step(LARGE_DIMS, off) for off in DIRECTIONS_13)  # some step leaves a partial column
    d = _large_case(kind)
    for off, matrix in zip(DIRECTIONS_13, glrlm_matrices(d)):
        expected = oracles.glrlm_direction_matrix(d.levels, d.mask.flags, d.ng, off)
        assert np.array_equal(matrix, expected), off


@pytest.mark.parametrize("kind", ["constant", "checkerboard", "random levels"])
def test_glrlm_with_steps_past_uint16_matches_run_scanner(kind):
    """Steps above 65 536 sort their residues on int64 keys, not uint16.
    Three planes along x give runs of up to 3 voxels, chains of two links
    that a wrong key order would split."""
    dims = (3, 260, 256)
    if kind == "constant":
        levels, ng = np.ones(dims, dtype=np.int64), 1
    elif kind == "checkerboard":  # no equal-level link along either direction
        levels, ng = np.indices(dims).sum(axis=0) % 2 + 1, 2
    else:
        levels, ng = np.random.default_rng(17).integers(1, 4, size=dims), 3
    d = DiscretizedVolume(dims, levels, ng=ng, mask=RoiMask(dims, np.ones(dims, dtype=bool)))
    got = glrlm_matrices(d)
    for off, step in [((1, 0, 0), 66560), ((1, 1, 1), 66817)]:
        assert flat_step(dims, off) == step
        assert (d.pair_positions(0)[DIRECTIONS_13.index(off)].size == 0) == (kind == "checkerboard")
        expected = oracles.glrlm_direction_matrix(d.levels, d.mask.flags, d.ng, off)
        assert np.array_equal(got[DIRECTIONS_13.index(off)], expected), off


@pytest.mark.parametrize("dims", [(1, 4, 5), (4, 1, 5), (4, 5, 1), (1, 1, 5), (1, 5, 1), (5, 1, 1)])
def test_pair_step_is_slice_safe_across_size_1_axes(dims):
    """Every step is at least 1, and an offset that crosses a size-1 axis
    gets an all-False pair grid; the others get the in-grid pairs."""
    n = dims[0] * dims[1] * dims[2]
    for off in DIRECTIONS_13:
        assert flat_step(dims, off) >= 1, off
        grid = flat_pairs(dims, off, lambda s: np.ones(n, dtype=bool)[s:])
        inside = np.zeros(dims, dtype=bool)
        inside[oracles.shift_slices(dims, off)[0]] = True
        assert np.array_equal(grid, inside), off
        if any(o and d == 1 for o, d in zip(off, dims)):
            assert not grid.any(), off


@PROPERTY
@given(discretized_volumes())
def test_zone_matrices_match_flood_fill(d):
    glszm, gldzm = zone_matrices(d)
    expected_szm, expected_dzm = oracles.zone_matrices(d.levels, d.mask.flags, d.ng)
    assert np.array_equal(glszm, expected_szm)
    assert np.array_equal(gldzm, expected_dzm)


@PROPERTY
@given(discretized_volumes())
def test_ngtdm_table_matches_neighbourhood_oracle(d):
    n_i, s_i = ngtdm_table(d)
    expected_n, expected_s = oracles.ngtdm_table(d.levels, d.mask.flags, d.ng)
    assert np.array_equal(n_i, expected_n)
    assert np.array_equal(s_i, expected_s)


@PROPERTY
@given(discretized_volumes(), st.integers(0, 2))
def test_ngldm_matrix_matches_neighbour_count_oracle(d, alpha):
    expected = oracles.ngldm_matrix(d.levels, d.mask.flags, d.ng, alpha)
    assert np.array_equal(ngldm_matrix(d, alpha), expected)
