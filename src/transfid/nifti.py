"""Minimal single-file NIfTI-1 reader and a debug writer.

Only uncompressed .nii with magic "n+1" is supported; byte order is
auto-detected from sizeof_hdr. Orientation metadata (qform/sform) is
ignored: volumes are assumed co-registered on a shared grid.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DimsMismatch, EmptyMask, MalformedHeader, NonFiniteVoxel, UnsupportedDatatype
from .volume import RoiMask, Volume3D

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

_WRITE_CODES = {"float32": (16, 32, "f4"), "float64": (64, 64, "f8")}


def _detect_byte_order(header: bytes) -> str:
    for order in ("<", ">"):
        (size,) = struct.unpack(order + "i", header[0:4])
        if size == HEADER_SIZE:
            return order
    raise MalformedHeader("sizeof_hdr is not 348 in either byte order")


def load_nifti(path: str | Path) -> Volume3D:
    """Load a 3D volume from an uncompressed NIfTI-1 file.

    scl_slope/scl_inter are applied when scl_slope != 0; spacing comes
    from pixdim[1..3]. Volumes with NaN/Inf voxels are rejected.
    """
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

    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).astype(np.float64)
    if scl_slope != 0.0:
        data = data * float(scl_slope) + float(scl_inter)
    if not np.all(np.isfinite(data)):
        raise NonFiniteVoxel(f"{path}: volume contains NaN/Inf voxels")
    return Volume3D((nx, ny, nz), spacing, data.reshape((nx, ny, nz), order="F"))


def load_mask(path: str | Path, reference: Volume3D) -> RoiMask:
    """Load an ROI mask stored as a volume; nonzero voxels are inside."""
    vol = load_nifti(path)
    if vol.dims != reference.dims:
        raise DimsMismatch(f"{path}: mask dims {vol.dims} != reference dims {reference.dims}")
    flags = vol.values != 0.0
    if not flags.any():
        raise EmptyMask(f"{path}: mask has no nonzero voxels")
    return RoiMask(vol.dims, flags)


def save_nifti(path: str | Path, volume: Volume3D, dtype: str = "float64") -> None:
    """Write a volume as single-file NIfTI-1 (little-endian, no scaling).

    float64 output round-trips bit-exactly through load_nifti.
    """
    if dtype not in _WRITE_CODES:
        raise UnsupportedDatatype(f"writer supports float32/float64, got {dtype}")
    code, bitpix, np_code = _WRITE_CODES[dtype]
    nx, ny, nz = volume.dims

    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, code, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *volume.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", header, 108, float(HEADER_SIZE + 4), 0.0, 0.0)
    header[344:348] = MAGIC_SINGLE

    payload = volume.values.astype("<" + np_code).tobytes(order="F")
    Path(path).write_bytes(bytes(header) + b"\x00" * 4 + payload)
