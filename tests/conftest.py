import math

import numpy as np
import pytest

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


def nan_names(features):
    """The names whose value is NaN: what a feature family leaves undefined."""
    return {name for name, value in features.items() if math.isnan(value)}


@pytest.fixture
def small_pair(rng):
    values = rng.random((6, 5, 4))
    flags = rng.random((6, 5, 4)) < 0.7
    flags[2, 2, 2] = True
    return make_volume(values), make_mask(flags)
