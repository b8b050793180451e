import math

import numpy as np
import pytest
from hypothesis import strategies as st

from transfid.phantom import generate_phantom
from transfid.preprocess import DiscretizedVolume
from transfid.volume import RoiMask, Volume3D


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_volume(values, spacing=(1.0, 1.0, 1.0)):
    values = np.asarray(values, dtype=np.float64)
    return Volume3D(values.shape, spacing, values)


def make_mask(flags):
    flags = np.asarray(flags, dtype=bool)
    return RoiMask(flags.shape, flags)


def overflowing_phantom():
    """The 16^3 phantom of seed 0 with two ROI voxels set to -1e308 and
    1e308: every voxel is finite, but max - min overflows float64."""
    v, m = generate_phantom(0, (16, 16, 16))
    values = v.values.copy()
    roi = np.argwhere(m.flags)
    values[tuple(roi[0])], values[tuple(roi[-1])] = -1e308, 1e308
    return v.with_values(values), m


def nan_names(features):
    """The names whose value is NaN: what a feature family leaves undefined."""
    return {name for name, value in features.items() if math.isnan(value)}


@st.composite
def discretized_volumes(draw):
    """Volumes of 1 to 7 voxels per axis (size-1 axes included), with a
    random, single-voxel or full mask (a full mask touches every face of
    the grid) and random levels in 1..ng, ng from 1 to 5."""
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
