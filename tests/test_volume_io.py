"""NIfTI reader/writer, volume types, and manifest parsing."""
import struct
import tracemalloc

import numpy as np
import pytest

from transfid.errors import (
    DimsMismatch,
    DuplicateEntry,
    EmptyMask,
    MalformedHeader,
    MissingMask,
    MissingOriginal,
    MissingSynthetic,
    NonFiniteVoxel,
    TransfidError,
    UnsupportedDatatype,
)
from transfid.manifest import parse_manifest
from transfid.nifti import load_mask, load_nifti, save_nifti
from transfid.volume import RoiMask, Volume3D

from conftest import make_volume


def write_nifti_reference(
    path,
    data,
    *,
    datatype=16,
    np_dtype="<f4",
    pixdim=(1.0, 1.0, 1.0),
    scl_slope=0.0,
    scl_inter=0.0,
    dim0=3,
    dims=None,
    big_endian=False,
    magic=b"n+1\x00",
    extra_dims=(1, 1, 1, 1),
):
    """Independent NIfTI-1 writer used only by tests."""
    order = ">" if big_endian else "<"
    data = np.asarray(data)
    if dims is None:
        dims = data.shape
    header = bytearray(348)
    struct.pack_into(order + "i", header, 0, 348)
    struct.pack_into(order + "8h", header, 40, dim0, *dims, *extra_dims)
    bitpix = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64, 512: 16}[datatype]
    struct.pack_into(order + "2h", header, 70, datatype, bitpix)
    struct.pack_into(order + "8f", header, 76, 1.0, *pixdim, 1.0, 0.0, 0.0, 0.0)
    struct.pack_into(order + "3f", header, 108, 352.0, scl_slope, scl_inter)
    header[344:348] = magic
    payload = data.astype(order + np_dtype.lstrip("<>")).tobytes(order="F")
    path.write_bytes(bytes(header) + b"\x00" * 4 + payload)


class TestLoadNifti:
    def test_float32_values_in_x_fastest_order(self, tmp_path):
        # voxel (x,y,z) holds x + 2*(y + 2*z)
        data = np.arange(8, dtype=np.float32).reshape((2, 2, 2), order="F")
        path = tmp_path / "cube.nii"
        write_nifti_reference(path, data)
        vol = load_nifti(path)
        assert vol.dims == (2, 2, 2)
        assert vol.spacing == (1.0, 1.0, 1.0)
        np.testing.assert_array_equal(vol.flat, np.arange(8.0))
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    assert vol.value_at(x, y, z) == x + 2 * (y + 2 * z)

    def test_scl_slope_and_inter_applied(self, tmp_path):
        path = tmp_path / "scaled.nii"
        write_nifti_reference(
            path,
            np.full((1, 1, 1), 3, dtype=np.int16),
            datatype=4,
            np_dtype="i2",
            scl_slope=2.0,
            scl_inter=1.0,
        )
        assert load_nifti(path).value_at(0, 0, 0) == 7.0

    def test_zero_slope_means_unscaled(self, tmp_path):
        path = tmp_path / "raw.nii"
        write_nifti_reference(
            path,
            np.full((1, 1, 1), 3, dtype=np.int16),
            datatype=4,
            np_dtype="i2",
            scl_slope=0.0,
            scl_inter=99.0,
        )
        assert load_nifti(path).value_at(0, 0, 0) == 3.0

    def test_big_endian_autodetected(self, tmp_path):
        data = np.arange(6, dtype=np.float64).reshape((3, 2, 1), order="F")
        path = tmp_path / "big.nii"
        write_nifti_reference(path, data, datatype=64, np_dtype="f8", big_endian=True)
        np.testing.assert_array_equal(load_nifti(path).flat, np.arange(6.0))

    def test_4d_series_rejected(self, tmp_path):
        path = tmp_path / "fourd.nii"
        write_nifti_reference(
            path, np.zeros((2, 2, 2), dtype=np.float32), dim0=4, extra_dims=(2, 1, 1, 1)
        )
        with pytest.raises(MalformedHeader):
            load_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        path = tmp_path / "bytes.nii"
        write_nifti_reference(path, np.zeros((2, 2, 2), dtype=np.uint8), datatype=2, np_dtype="u1")
        with pytest.raises(UnsupportedDatatype):
            load_nifti(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pair.nii"
        write_nifti_reference(path, np.zeros((2, 2, 2), dtype=np.float32), magic=b"ni1\x00")
        with pytest.raises(MalformedHeader):
            load_nifti(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.nii"
        write_nifti_reference(path, np.zeros((4, 4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-32])
        with pytest.raises(MalformedHeader):
            load_nifti(path)

    def test_nan_voxels_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 1, 1] = np.nan
        path = tmp_path / "nan.nii"
        write_nifti_reference(path, data)
        with pytest.raises(NonFiniteVoxel):
            load_nifti(path)

    def test_nonpositive_pixdim_rejected(self, tmp_path):
        path = tmp_path / "flat.nii"
        write_nifti_reference(path, np.zeros((2, 2, 2), dtype=np.float32), pixdim=(1.0, 0.0, 1.0))
        with pytest.raises(MalformedHeader):
            load_nifti(path)

    def test_uint16_and_int32_supported(self, tmp_path):
        for datatype, np_dtype, arr_dtype in ((512, "u2", np.uint16), (8, "i4", np.int32)):
            path = tmp_path / f"dt{datatype}.nii"
            write_nifti_reference(
                path, np.arange(4, dtype=arr_dtype).reshape((4, 1, 1)), datatype=datatype, np_dtype=np_dtype
            )
            np.testing.assert_array_equal(load_nifti(path).flat, np.arange(4.0))

    def test_round_trip_float64_bit_exact(self, tmp_path, rng):
        vol = make_volume(rng.random((5, 4, 3)), spacing=(0.5, 2.0, 1.25))
        path = tmp_path / "rt.nii"
        save_nifti(path, vol)
        reloaded = load_nifti(path)
        assert reloaded.dims == vol.dims
        assert reloaded.spacing == pytest.approx(vol.spacing)
        np.testing.assert_array_equal(reloaded.values, vol.values)

    def test_index_order_law_random_volumes(self, rng):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 6, 3))
            vol = make_volume(rng.random(dims))
            flat = vol.flat
            x = int(rng.integers(0, dims[0]))
            y = int(rng.integers(0, dims[1]))
            z = int(rng.integers(0, dims[2]))
            assert flat[x + dims[0] * (y + dims[1] * z)] == vol.value_at(x, y, z)


class TestSaveNiftiHeaderFields:
    """A value the header cannot hold is refused before any byte is written."""

    @pytest.mark.parametrize(
        "dims, spacing, field",
        [
            ((40000, 1, 1), (1.0, 1.0, 1.0), "dims"),
            ((2, 2, 2), (1e39, 1.0, 1.0), "spacing"),
            ((2, 2, 2), (1.0, 1e-50, 1.0), "spacing"),
        ],
    )
    def test_out_of_range_field_raises(self, tmp_path, dims, spacing, field):
        path = tmp_path / "bad.nii"
        vol = Volume3D(dims, spacing, np.zeros(dims))
        with pytest.raises(ValueError, match=field):
            save_nifti(path, vol)
        assert not path.exists()

    def test_extreme_valid_fields_round_trip(self, tmp_path):
        float32 = np.finfo(np.float32)
        vol = Volume3D((2, 1, 1), (float(float32.tiny), float(float32.max), 1.0), np.arange(2.0))
        path = tmp_path / "edge.nii"
        save_nifti(path, vol)
        assert load_nifti(path).spacing == vol.spacing


class TestVolumeOwnership:
    def test_constructor_copies_the_callers_array(self):
        values = np.zeros((2, 2, 2))
        vol = Volume3D((2, 2, 2), (1, 1, 1), values)
        values[0, 0, 0] = 5.0
        assert vol.values[0, 0, 0] == 0.0 and values.flags.writeable

    def test_load_keeps_the_decoded_array_without_a_copy(self, tmp_path):
        dims = (64, 64, 32)
        stored = np.arange(np.prod(dims), dtype=np.int16).reshape(dims) % 3000
        path = tmp_path / "v.nii"
        write_nifti_reference(path, stored, datatype=4, np_dtype="<i2")
        file_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            vol = load_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(vol.values, stored)
        assert vol.values.flags.c_contiguous and not vol.values.flags.writeable
        # the file's bytes, the float64 values and the finiteness mask; a second
        # float64 copy would add another values.nbytes
        assert peak < file_bytes + 1.25 * vol.values.nbytes


class TestLoadMask:
    def test_all_ones(self, tmp_path):
        ref = make_volume(np.zeros((2, 2, 2)))
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, np.ones((2, 2, 2), dtype=np.float32))
        assert load_mask(path, ref).flags.all()

    def test_nonzero_rule(self, tmp_path):
        ref = make_volume(np.zeros((3, 1, 1)))
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, np.array([0.0, 0.5, 2.0], dtype=np.float32).reshape(3, 1, 1))
        np.testing.assert_array_equal(load_mask(path, ref).flags.ravel(), [False, True, True])

    def test_empty_mask(self, tmp_path):
        ref = make_volume(np.zeros((2, 2, 2)))
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(EmptyMask):
            load_mask(path, ref)

    def test_dims_mismatch(self, tmp_path):
        ref = make_volume(np.zeros((4, 4, 4)))
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, np.ones((2, 2, 2), dtype=np.float32))
        with pytest.raises(DimsMismatch):
            load_mask(path, ref)

    @staticmethod
    def load_mask_through_volume(path, reference):
        """The rule load_mask keeps: nonzero voxels of the volume that
        load_nifti reads, with its errors first."""
        vol = load_nifti(path)
        if vol.dims != reference.dims:
            raise DimsMismatch("dims")
        flags = vol.values != 0.0
        if not flags.any():
            raise EmptyMask("empty")
        return RoiMask(vol.dims, flags)

    @staticmethod
    def outcome(load, path, reference):
        try:
            return load(path, reference).flags
        except TransfidError as exc:
            return type(exc)

    # stored voxels, writer options and the reference grid's dims; 84 000
    # voxels span two MASK_CHUNKs, the second one partly filled
    STORED = {
        "int16": (np.array([0, 1, -3, 0, 7, 0], dtype=np.int16), dict(datatype=4, np_dtype="<i2"), None),
        "uint16": (np.array([0, 65535, 2, 0, 0, 1], dtype=np.uint16), dict(datatype=512, np_dtype="<u2"), None),
        "int32_big_endian": (np.array([0, 0, 70000, 0, -1, 0], dtype=np.int32),
                             dict(datatype=8, np_dtype="<i4", big_endian=True), None),
        "float32_nan": (np.array([0, 1, np.nan, 0, 1, 0], dtype=np.float32), {}, None),
        "int16_two_chunks": ((np.arange(84_000) % 7 == 3).astype(np.int16), dict(datatype=4, np_dtype="<i2"), None),
        "float32_inf_second_chunk": (np.r_[np.ones(83_999), np.inf].astype(np.float32), {}, (70, 40, 30)),
        "float32_negative_zero": (np.array([-0.0, 0.0, -0.0, 0.0, 0.0, 2.5], dtype=np.float32), {}, None),
        "scaled_one_reads_zero": (np.array([1, 2, 1, 3, 0, 1], dtype=np.int16),
                                  dict(datatype=4, np_dtype="<i2", scl_slope=1.0, scl_inter=-1.0), None),
        "scaled_all_zero": (np.array([2, 2, 2, 2, 2, 2], dtype=np.int16),
                            dict(datatype=4, np_dtype="<i2", scl_slope=0.5, scl_inter=-1.0), None),
        "scaled_overflow": (np.array([0, 1e308, 0, 0, 0, 0]),
                            dict(datatype=64, np_dtype="<f8", scl_slope=10.0), None),
        "empty": (np.zeros(6, dtype=np.int16), dict(datatype=4, np_dtype="<i2"), None),
        "dims_mismatch": (np.ones(6, dtype=np.int16), dict(datatype=4, np_dtype="<i2"), (2, 3, 2)),
        "nan_and_dims_mismatch": (np.array([np.nan, 1, 1, 1, 1, 1], dtype=np.float32), {}, (6, 1, 2)),
    }

    @pytest.mark.parametrize("case", sorted(STORED))
    def test_same_outcome_as_through_the_volume(self, tmp_path, case):
        stored, options, ref_dims = self.STORED[case]
        dims = (70, 40, 30) if stored.size == 84_000 else (3, 2, 1)
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, stored.reshape(dims, order="F"), **options)
        ref = make_volume(np.zeros(ref_dims or dims))
        expected = self.outcome(self.load_mask_through_volume, path, ref)
        got = self.outcome(load_mask, path, ref)
        if isinstance(expected, type):
            assert got is expected
        else:
            np.testing.assert_array_equal(got, expected)

    def test_no_float64_copy_of_the_volume(self, tmp_path):
        dims = (128, 128, 64)
        stored = (np.arange(np.prod(dims)) % 5 == 0).astype(np.int16).reshape(dims)
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, stored, datatype=4, np_dtype="<i2")
        file_bytes = path.stat().st_size
        ref = make_volume(np.zeros(dims))
        tracemalloc.start()
        try:
            mask = load_mask(path, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(mask.flags, stored != 0)
        # the file's bytes, the flags, the mask's copy of them and one
        # 0.5 MiB float64 slab; a float64 volume is 8 bytes a voxel
        assert peak < file_bytes + stored.size + 2**21


class TestTypes:
    def test_volume_rejects_nan(self):
        values = np.zeros((2, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteVoxel):
            Volume3D((2, 2, 2), (1, 1, 1), values)

    def test_volume_rejects_bad_spacing(self):
        for spacing in ((1, -1, 1), (np.inf, 1, 1), (1, np.nan, 1)):
            with pytest.raises(ValueError):
                Volume3D((2, 2, 2), spacing, np.zeros((2, 2, 2)))

    def test_mask_must_be_non_empty(self):
        with pytest.raises(EmptyMask):
            RoiMask((2, 2, 2), np.zeros((2, 2, 2), dtype=bool))


def _write_manifest(path, rows):
    path.write_text("patient_id,source,path\n" + "\n".join(",".join(r) for r in rows) + "\n")


class TestManifest:
    def test_two_patients(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(
            manifest,
            [
                ("p1", "original_mri", "a.nii"),
                ("p1", "synth_gan", "b.nii"),
                ("p1", "mask", "m1.nii"),
                ("p2", "original_mri", "c.nii"),
                ("p2", "synth_gan", "d.nii"),
                ("p2", "mask", "m2.nii"),
            ],
        )
        records = parse_manifest(manifest)
        assert [r.patient_id for r in records] == ["p1", "p2"]
        assert records[0].source_paths == {"original_mri": "a.nii", "synth_gan": "b.nii"}
        assert records[0].mask_path == "m1.nii"
        assert records[1].synthetic_sources == ["synth_gan"]

    def test_order_is_first_appearance(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(
            manifest,
            [
                ("zeta", "original_mri", "a.nii"),
                ("alpha", "original_mri", "b.nii"),
                ("zeta", "synth_x", "c.nii"),
                ("alpha", "synth_x", "d.nii"),
                ("zeta", "mask", "e.nii"),
                ("alpha", "mask", "f.nii"),
            ],
        )
        assert [r.patient_id for r in parse_manifest(manifest)] == ["zeta", "alpha"]

    def test_missing_original(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(manifest, [("p1", "synth_x", "a.nii"), ("p1", "mask", "m.nii")])
        with pytest.raises(MissingOriginal):
            parse_manifest(manifest)

    def test_missing_mask(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(
            manifest, [("p1", "original_mri", "a.nii"), ("p1", "synth_x", "b.nii")]
        )
        with pytest.raises(MissingMask):
            parse_manifest(manifest)

    def test_missing_synthetic(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(manifest, [("p1", "original_mri", "a.nii"), ("p1", "mask", "m.nii")])
        with pytest.raises(MissingSynthetic):
            parse_manifest(manifest)

    def test_duplicate_entry(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(
            manifest,
            [
                ("p1", "original_mri", "a.nii"),
                ("p1", "original_mri", "b.nii"),
                ("p1", "mask", "m.nii"),
            ],
        )
        with pytest.raises(DuplicateEntry):
            parse_manifest(manifest)

    def test_error_names_physical_line(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "patient_id,source,path\np1,original_mri,a.nii\n\n\np1,original_mri,b.nii\n"
        )
        with pytest.raises(DuplicateEntry, match=r"m\.csv, line 5: duplicate"):
            parse_manifest(manifest)

    def test_row_wider_than_header(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(manifest, [("p1", "original_mri", "a.nii", "EXTRA")])
        with pytest.raises(TransfidError, match=r"m\.csv, line 2: 4 cells, the header has 3"):
            parse_manifest(manifest)

    def test_header_naming_a_column_twice(self, tmp_path):
        # a {name: index} lookup would take the second 'path' cell
        manifest = tmp_path / "m.csv"
        manifest.write_text("patient_id,source,path,path\np1,original_mri,a.nii,b.nii\n")
        with pytest.raises(TransfidError, match=r"m\.csv: header names column 'path' twice"):
            parse_manifest(manifest)

    def test_quoted_fields(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            'patient_id,source,path\n"p,1",original_mri,"a b.nii"\n'
            '"p,1",synth_x,b.nii\n"p,1",mask,m.nii\n'
        )
        records = parse_manifest(manifest)
        assert records[0].patient_id == "p,1"
        assert records[0].source_paths["original_mri"] == "a b.nii"
