"""Property tests: texture matrix builders equal the brute-force oracles exactly.

Volumes are drawn with 1 to 7 voxels per axis (size-1 axes included),
random, single-voxel or full masks (a full mask touches every volume
edge), and random levels. Every matrix must match its oracle bit for bit.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from transfid.preprocess import DiscretizedVolume
from transfid.radiomics.matrices import (
    DIRECTIONS_13,
    glrlm_matrices,
    ngldm_matrix,
    ngtdm_table,
    zone_matrices,
)
from transfid.volume import RoiMask

PROPERTY = settings(max_examples=100, deadline=None, database=None)


@st.composite
def discretized_volumes(draw):
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    n = dims[0] * dims[1] * dims[2]
    ng = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(("random", "single", "full")))
    if mode == "random":
        flags = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        flags = np.full(n, mode == "full")
    flags[draw(st.integers(0, n - 1))] = True
    raw = np.array(draw(st.lists(st.integers(1, ng), min_size=n, max_size=n)))
    flags = flags.reshape(dims)
    levels = np.where(flags, raw.reshape(dims), 0)
    return DiscretizedVolume(dims, levels, ng=ng, mask=RoiMask(dims, flags))


@PROPERTY
@given(discretized_volumes())
def test_glrlm_every_direction_matches_run_scanner(d):
    got = glrlm_matrices(d)
    assert len(got) == len(DIRECTIONS_13)
    for off, matrix in zip(DIRECTIONS_13, got):
        expected = oracles.glrlm_direction_matrix(d.levels, d.mask.flags, d.ng, off)
        assert np.array_equal(matrix, expected), off


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
