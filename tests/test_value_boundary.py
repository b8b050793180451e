"""The value boundary: any finite intensity scale, through `extract_all` and
`compute_metrics`, gives a flagged value or a `TransfidError`, never another
exception or a RuntimeWarning.

Volumes are 12^3 phantoms scaled by 1e-300 to 1e300 of either sign, with
`normalize` on or off, FBN or FBS, and an ROI that is one voxel, constant,
a slab on one face of the grid, or the phantom's ellipsoid. Every step runs
as `process_patient` runs it.
"""
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from transfid.analysis import preprocess_pair
from transfid.config import RunConfig
from transfid.errors import TransfidError
from transfid.iqa import compute_metrics
from transfid.phantom import generate_phantom
from transfid.radiomics import extract_all
from transfid.volume import RoiMask

DIMS = (12, 12, 12)  # the default SSIM window needs 11 voxels per axis
IS_ORDER_STATISTICS = ("minimum", "maximum", "median", "percentile_10", "percentile_90")


@st.composite
def cases(draw):
    scale = (
        draw(st.sampled_from((1.0, -1.0)))
        * draw(st.floats(1.0, 9.9))
        * 10.0 ** draw(st.integers(-300, 300))
    )
    seed = draw(st.integers(0, 3))
    original, mask = generate_phantom(seed, DIMS)
    network, _ = generate_phantom(seed + 4, DIMS)
    values = original.values.copy()
    roi = draw(st.sampled_from(("one voxel", "constant", "face", "ellipsoid")))
    flags = mask.flags.copy()
    if roi == "one voxel":
        flags[:] = False
        flags[tuple(draw(st.integers(0, n - 1)) for n in DIMS)] = True
    elif roi == "constant":
        values[flags] = 0.5
    elif roi == "face":
        axis = draw(st.integers(0, 2))
        depth = draw(st.integers(1, 3))
        flags[:] = False
        flags[(slice(None),) * axis + ((slice(None, depth) if draw(st.booleans()) else slice(-depth, None)),)] = True
    normalize = draw(st.booleans())
    if draw(st.booleans()):
        scheme = {"mode": "FBN", "bins": 32}
    else:
        # a width fixed in normalized units, or one that scales with the values
        width = draw(st.sampled_from((0.04, 0.04 * abs(scale))))
        scheme = {"mode": "FBS", "bin_width": width}
    config = RunConfig.from_dict({"preprocess": {"normalize": normalize}, "discretize": scheme})
    return (
        original.with_values(values * scale),
        network.with_values(network.values * scale),
        RoiMask(DIMS, flags),
        config,
    )


@settings(max_examples=50, deadline=None, database=None)
@given(cases())
def test_every_scale_is_flagged_or_refused(case):
    original, network, mask, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        original, roi = preprocess_pair(original, mask, config)
        network, _ = preprocess_pair(network, mask, config)
        try:
            vec = extract_all(original, roi, config)
        except TransfidError:
            vec = None
        try:
            compute_metrics(original, network, config.ssim_params, config.psnr_peak)
        except TransfidError:
            pass
    if vec is None:
        return
    for key, value in vec.values.items():
        assert math.isfinite(value) or vec.is_flagged(key), key
    for name in IS_ORDER_STATISTICS:
        key = f"is.{name}"
        assert math.isfinite(vec[key]) and not vec.is_flagged(key), key
