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
from transfid.nifti import _read_stored, load_mask, load_nifti, save_nifti
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

    @pytest.mark.parametrize(
        "scl_slope, scl_inter, expected",
        [
            (np.nan, 99.0, 3.0),
            (np.inf, 99.0, 3.0),
            (-np.inf, 99.0, 3.0),
            (1.0, np.nan, 3.0),
            (2.0, np.inf, 6.0),
        ],
    )
    def test_non_finite_scaling_reads_as_zero(self, tmp_path, scl_slope, scl_inter, expected):
        # nifti1_io.c's FIXED_FLOAT: a non-finite slope means unscaled, a non-finite intercept adds 0
        path = tmp_path / "scaled.nii"
        write_nifti_reference(
            path, np.full((1, 1, 1), 3, dtype=np.int16), datatype=4, np_dtype="i2",
            scl_slope=scl_slope, scl_inter=scl_inter,
        )
        assert load_nifti(path).value_at(0, 0, 0) == expected

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

    def test_file_shorter_than_the_header(self, tmp_path):
        path = tmp_path / "short.nii"
        write_nifti_reference(path, np.zeros((2, 2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:347])
        with pytest.raises(MalformedHeader, match="file shorter than the 348-byte header"):
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

    def test_a_mask_on_other_dims_is_refused_before_its_flags_are_built(self, tmp_path):
        # int16 voxels: the file holds 2 MiB, the flags grid would take 1 MiB
        # more and the float64 slab 0.5 MiB; refused on its header's dims, the
        # mask costs the file's bytes only
        dims = (128, 128, 64)
        path = tmp_path / "mask.nii"
        write_nifti_reference(path, np.ones(dims, dtype=np.int16), datatype=4, np_dtype="<i2")
        ref = make_volume(np.zeros((128, 128, 63)))
        message = f"{path}: mask dims {dims} != reference dims {ref.dims}"
        tracemalloc.start()
        try:
            with pytest.raises(DimsMismatch) as caught:
                load_mask(path, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == message
        assert peak < path.stat().st_size + 2**16, peak

    @staticmethod
    def load_mask_through_volume(path, reference):
        """The rule load_mask keeps: nonzero voxels of the volume that
        load_nifti reads, with the header's errors first, then a mismatch
        of its dims, then the errors of its voxels."""
        if _read_stored(path)[0] != reference.dims:
            raise DimsMismatch("dims")
        vol = load_nifti(path)
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
        # a non-finite scaling field reads as 0, on both paths
        "nan_slope_unscaled": (np.array([0, 1, 0, 2, 0, 0], dtype=np.int16),
                               dict(datatype=4, np_dtype="<i2", scl_slope=np.nan, scl_inter=-1.0), None),
        "inf_slope_unscaled": (np.array([0, 1, 0, 2, 0, 0], dtype=np.int16),
                               dict(datatype=4, np_dtype="<i2", scl_slope=np.inf, scl_inter=-1.0), None),
        "nan_intercept_adds_zero": (np.array([0, 1, 0, 2, 0, 0], dtype=np.int16),
                                    dict(datatype=4, np_dtype="<i2", scl_slope=1.0,
                                         scl_inter=np.nan), None),
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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 0, 2), (2, -1, 2), (1, 1, 1, 1)])
    def test_volume_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError, match="dims must be three positive ints"):
            Volume3D(dims, (1, 1, 1), np.zeros(4))

    def test_volume_rejects_a_wrong_value_count(self):
        with pytest.raises(ValueError, match=r"^value count 7 does not match dims \(2, 2, 2\)$"):
            Volume3D((2, 2, 2), (1, 1, 1), np.zeros(7))
        with pytest.raises(ValueError, match=r"^value count 8 does not match dims \(2, 2, 3\)$"):
            Volume3D((2, 2, 3), (1, 1, 1), np.zeros((2, 2, 2)))

    def test_mask_rejects_a_wrong_flag_count(self):
        with pytest.raises(DimsMismatch, match=r"^mask flag count 9 does not match dims \(2, 2, 2\)$"):
            RoiMask((2, 2, 2), np.ones(9, dtype=bool))

    def test_unaligned_mask_is_refused(self):
        mask = RoiMask((2, 2, 2), np.ones((2, 2, 2), dtype=bool))
        volume = Volume3D((2, 2, 1), (1, 1, 1), np.zeros((2, 2, 1)))
        with pytest.raises(DimsMismatch, match=r"mask dims \(2, 2, 2\) != volume dims \(2, 2, 1\)"):
            mask.check_aligned(volume)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Volume3D((2, 2, 2), (1, 1, 1), np.arange(8.0)), id="volume"),
            pytest.param(lambda: RoiMask((2, 2, 2), np.arange(8) % 2), id="mask"),
        ],
    )
    def test_instances_compare_and_hash_by_identity(self, make):
        # their fields hold arrays, so equality by contents has no single truth value
        x, y = make(), make()
        assert x == x and not x != x
        assert x != y and not x == y
        assert hash(x) == hash(x) and len({x, y}) == 2

    def test_int_and_flat_masks_give_the_flags_of_the_bool_mask(self, rng):
        flags = rng.random((3, 4, 5)) < 0.5
        flags[0, 0, 0] = True
        expected = RoiMask((3, 4, 5), flags).flags
        counts = np.where(flags, rng.integers(1, 9, flags.shape), 0)
        for given in (counts, counts.astype(np.float64), flags.ravel(order="F"), counts.ravel(order="F")):
            mask = RoiMask((3, 4, 5), given)
            assert mask.flags.dtype == bool and mask.flags.shape == (3, 4, 5)
            np.testing.assert_array_equal(mask.flags, expected)


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

    def test_duplicate_mask(self, tmp_path):
        manifest = tmp_path / "m.csv"
        _write_manifest(
            manifest,
            [
                ("p1", "original_mri", "a.nii"),
                ("p1", "mask", "m.nii"),
                ("p1", "synth_a", "s.nii"),
                ("p1", "mask", "m2.nii"),
            ],
        )
        with pytest.raises(DuplicateEntry, match=r"m\.csv, line 5: duplicate mask for patient 'p1'"):
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
