"""Minimal single-file NIfTI-1 reader and a debug writer.

Only uncompressed .nii with magic "n+1" is supported; byte order is
auto-detected from sizeof_hdr. Orientation metadata (qform/sform) is
ignored: volumes are assumed co-registered on a shared grid.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DimsMismatch, EmptyMask, MalformedHeader, NonFiniteVoxel, UnsupportedDatatype
from .volume import RoiMask, Volume3D, _adopt

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"

# NIfTI-1 datatype code -> numpy dtype (without byte order)
_DTYPES = {
    4: "i2",     # int16
    8: "i4",     # int32
    16: "f4",    # float32
    64: "f8",    # float64
    512: "u2",   # uint16
}

# the header stores each voxel count as an int16 and each spacing as a float32
MAX_DIM = 32767
MIN_SPACING = float(np.finfo(np.float32).tiny)
MAX_SPACING = float(np.finfo(np.float32).max)

# stored mask voxels converted to float64 at a time (whole z planes)
MASK_CHUNK = 1 << 16


def _detect_byte_order(header: bytes) -> str:
    for order in ("<", ">"):
        (size,) = struct.unpack(order + "i", header[0:4])
        if size == HEADER_SIZE:
            return order
    raise MalformedHeader("sizeof_hdr is not 348 in either byte order")


def _read_stored(path: str | Path):
    """(dims, spacing, stored, scl_slope, scl_inter) of an uncompressed
    NIfTI-1 file, with `stored` the raw voxels as a 1-D view of the file's
    bytes in x-fastest order."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise MalformedHeader(f"{path}: file shorter than the 348-byte header")
    order = _detect_byte_order(raw)

    dim = struct.unpack(order + "8h", raw[40:56])
    datatype, _bitpix = struct.unpack(order + "2h", raw[70:74])
    pixdim = struct.unpack(order + "8f", raw[76:108])
    vox_offset, scl_slope, scl_inter = struct.unpack(order + "3f", raw[108:120])
    magic = raw[344:348]

    if magic != MAGIC_SINGLE:
        raise MalformedHeader(f"{path}: magic {magic!r} is not single-file 'n+1'")
    ndim = dim[0]
    if ndim < 1 or ndim > 3:
        raise MalformedHeader(f"{path}: dim[0]={ndim}, only 1..3 dimensional data supported")
    if any(dim[k] not in (0, 1) for k in range(4, 8)):
        raise MalformedHeader(f"{path}: higher dimensions must be 1")
    nx = dim[1]
    ny = dim[2] if ndim >= 2 else 1
    nz = dim[3] if ndim >= 3 else 1
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise MalformedHeader(f"{path}: non-positive dims {(nx, ny, nz)}")
    if datatype not in _DTYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {datatype} not supported")

    spacing = tuple(float(pixdim[k]) for k in (1, 2, 3))
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise MalformedHeader(f"{path}: pixdim[1..3]={spacing} must be positive")

    if not np.isfinite(vox_offset) or int(vox_offset) < HEADER_SIZE:
        raise MalformedHeader(f"{path}: bad vox_offset {vox_offset}")
    offset = int(vox_offset)
    count = nx * ny * nz
    dtype = np.dtype(order + _DTYPES[datatype])
    if len(raw) < offset + count * dtype.itemsize:
        raise MalformedHeader(f"{path}: file truncated, expected {count} voxels")

    stored = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return (nx, ny, nz), spacing, stored, scl_slope, scl_inter


def _scale_checked(data: np.ndarray, scl_slope: float, scl_inter: float, path) -> None:
    """Apply scl_slope/scl_inter to float64 voxels in place when scl_slope
    != 0, then reject NaN/Inf (including values the scaling overflows).

    A NaN or infinite field reads as 0, as nifti1_io.c's FIXED_FLOAT reads
    it: such a slope leaves the voxels unscaled, such an intercept adds 0."""
    scl_slope, scl_inter = (x if math.isfinite(x) else 0.0 for x in (scl_slope, scl_inter))
    if scl_slope != 0.0:
        with np.errstate(over="ignore"):
            data *= scl_slope
            data += scl_inter
    if not np.all(np.isfinite(data)):
        raise NonFiniteVoxel(f"{path}: volume contains NaN/Inf voxels")


def load_nifti(path: str | Path) -> Volume3D:
    """Load a 3D volume from an uncompressed NIfTI-1 file.

    scl_slope/scl_inter are applied when scl_slope != 0, a non-finite one
    read as 0; spacing comes from pixdim[1..3]. Volumes with NaN/Inf voxels
    are rejected.
    """
    dims, spacing, stored, scl_slope, scl_inter = _read_stored(path)
    # one conversion straight into the C-ordered array the volume keeps; a
    # signaling NaN sets the invalid flag here, and _scale_checked names it
    with np.errstate(invalid="ignore"):
        data = stored.reshape(dims, order="F").astype(np.float64, order="C")
    _scale_checked(data, scl_slope, scl_inter, path)
    return _adopt(dims, spacing, data)


def load_mask(path: str | Path, reference: Volume3D) -> RoiMask:
    """Load an ROI mask stored as a volume; voxels whose value, as
    load_nifti reads it, is nonzero are inside.

    The stored voxels go through load_nifti's conversion and scaling in
    one reused float64 slab of about MASK_CHUNK voxels, so a scaled stored
    1 can read as 0 and NaN/Inf is rejected as there, without a float64
    copy of the whole volume. A mask on other dims than `reference` is
    refused before any of that is allocated.
    """
    dims, _, stored, scl_slope, scl_inter = _read_stored(path)
    if dims != reference.dims:
        raise DimsMismatch(f"{path}: mask dims {dims} != reference dims {reference.dims}")
    stored = stored.reshape(dims, order="F")
    flags = np.empty(dims, dtype=bool)
    planes = min(dims[2], max(1, MASK_CHUNK // (dims[0] * dims[1])))
    slab = np.empty((dims[0], dims[1], planes))
    for z in range(0, dims[2], planes):
        values = slab[:, :, : min(planes, dims[2] - z)]
        with np.errstate(invalid="ignore"):  # as in load_nifti
            values[...] = stored[:, :, z : z + planes]
        _scale_checked(values, scl_slope, scl_inter, path)
        np.not_equal(values, 0.0, out=flags[:, :, z : z + planes])
    if not flags.any():
        raise EmptyMask(f"{path}: mask has no nonzero voxels")
    return RoiMask(dims, flags)


def save_nifti(path: str | Path, volume: Volume3D) -> None:
    """Write a volume as single-file float64 NIfTI-1 (little-endian, no
    scaling), which round-trips bit-exactly through load_nifti.
    """
    nx, ny, nz = volume.dims
    if max(volume.dims) > MAX_DIM:
        raise ValueError(f"dims {volume.dims} exceed the header's limit of {MAX_DIM} per axis")
    if not all(MIN_SPACING <= s <= MAX_SPACING for s in volume.spacing):
        raise ValueError(
            f"spacing {volume.spacing} is outside the header's float32 range "
            f"[{MIN_SPACING:g}, {MAX_SPACING:g}]"
        )

    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 64, 64)  # datatype float64, 64 bits per voxel
    struct.pack_into("<8f", header, 76, 1.0, *volume.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", header, 108, float(HEADER_SIZE + 4), 0.0, 0.0)
    header[344:348] = MAGIC_SINGLE

    payload = volume.values.astype("<f8").tobytes(order="F")
    Path(path).write_bytes(bytes(header) + b"\x00" * 4 + payload)
