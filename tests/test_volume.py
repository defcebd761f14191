import numpy as np
import pytest

from gliomics import nifti
from gliomics.errors import (LabelOutOfRange, NonFiniteVoxel,
                             UnsupportedDatatype)
from gliomics.volume import (GridGeometry, LabelMap, Volume, load_labelmap,
                             load_volume, resample, save_labelmap, save_volume)


def vol(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=float), spacing,
                  np.diag([*spacing, 1.0]))


class TestConstruction:
    def test_data_is_frozen(self, identity_volume):
        with pytest.raises(ValueError):
            identity_volume.data[0, 0, 0] = 99.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_data_is_a_frozen_copy_of_the_input(self, dtype):
        source = np.arange(24, dtype=dtype).reshape(2, 3, 4)
        v = Volume(source, (1.0, 1.0, 1.0), np.eye(4))
        assert v.data.dtype == np.float64
        assert not v.data.flags.writeable
        assert not np.shares_memory(v.data, source)
        assert np.array_equal(v.data, source)
        source[0, 0, 0] = 99.0
        assert v.data[0, 0, 0] == 0.0

    def test_labelmap_data_is_a_frozen_copy_of_the_input(self):
        source = np.ones((2, 3, 4), dtype=np.int16)
        lm = LabelMap(source, (1.0, 1.0, 1.0), np.eye(4))
        assert lm.data.dtype == np.int16
        assert not lm.data.flags.writeable
        assert not np.shares_memory(lm.data, source)

    def test_fortran_order_is_kept(self):
        source = np.asfortranarray(np.arange(24.0).reshape(2, 3, 4))
        v = Volume(source, (1.0, 1.0, 1.0), np.eye(4))
        assert v.data.flags.f_contiguous
        assert np.array_equal(v.data, source)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((3, 3)), (1, 1, 1), np.eye(4))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0), np.eye(4))

    def test_rejects_singular_affine(self):
        aff = np.eye(4)
        aff[0, 0] = 0.0
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2, 2)), (1, 1, 1), aff)

    def test_labelmap_range(self):
        data = np.zeros((2, 2, 2), dtype=np.int16)
        data[0, 0, 0] = 6
        with pytest.raises(LabelOutOfRange):
            LabelMap(data, (1, 1, 1), np.eye(4))

    def test_labelmap_rejects_fractional(self):
        data = np.zeros((2, 2, 2))
        data[1, 1, 1] = 2.5
        with pytest.raises(LabelOutOfRange):
            LabelMap(data, (1, 1, 1), np.eye(4))

    def test_labelmap_accepts_integral_floats(self):
        lm = LabelMap(np.full((2, 2, 2), 3.0), (1, 1, 1), np.eye(4))
        assert lm.data.dtype == np.int16
        assert np.all(lm.data == 3)


class TestGeometry:
    def test_voxel_volume(self):
        g = GridGeometry((4, 4, 4), (0.5, 2.0, 3.0), np.diag([0.5, 2, 3, 1]))
        assert g.voxel_volume_mm3() == pytest.approx(3.0)

    def test_world_center_identity(self):
        g = GridGeometry((5, 3, 9), (1, 1, 1), np.eye(4))
        assert np.allclose(g.world_center(), [2.0, 1.0, 4.0])

    def test_world_center_with_offset(self):
        aff = np.eye(4)
        aff[:3, 3] = [10, 20, 30]
        g = GridGeometry((3, 3, 3), (1, 1, 1), aff)
        assert np.allclose(g.world_center(), [11, 21, 31])

    def test_index_grid_world_shape(self):
        g = GridGeometry((2, 3, 4), (1, 1, 1), np.eye(4))
        pts = g.index_grid_world()
        assert pts.shape == (3, 24)
        # first point is the origin voxel, last the far corner
        assert np.allclose(pts[:, 0], [0, 0, 0])
        assert np.allclose(pts[:, -1], [1, 2, 3])

    def test_matches_and_mismatch(self, identity_volume):
        other = Volume(identity_volume.data, (2.0, 1.0, 1.0),
                       np.diag([2.0, 1, 1, 1]))
        assert identity_volume.geometry.matches(identity_volume.geometry)
        assert not identity_volume.geometry.matches(other.geometry)


class TestResample:
    def test_identity_is_exact(self, identity_volume):
        out = resample(identity_volume, identity_volume.geometry)
        assert np.allclose(out.data, identity_volume.data)

    def test_integer_shift_moves_impulse(self):
        data = np.zeros((7, 7, 7))
        data[3, 3, 3] = 1.0
        v = vol(data)
        shift = np.eye(4)
        shift[:3, 3] = [2.0, 0.0, -1.0]  # world -> world lookup offset
        out = resample(v, v.geometry, mode="linear", world_map=shift)
        assert out.data[1, 3, 4] == pytest.approx(1.0)
        assert out.data.sum() == pytest.approx(1.0)

    def test_out_of_bounds_fills_zero(self):
        v = vol(np.ones((4, 4, 4)))
        shift = np.eye(4)
        shift[:3, 3] = [10.0, 0.0, 0.0]
        out = resample(v, v.geometry, mode="linear", world_map=shift)
        assert np.all(out.data == 0.0)

    def test_nearest_preserves_labels(self):
        data = np.zeros((6, 6, 6))
        data[2:4, 2:4, 2:4] = 5.0
        v = vol(data)
        shift = np.eye(4)
        shift[:3, 3] = 0.4      # linear would blend 0 and 5 here
        out = resample(v, v.geometry, mode="nearest", world_map=shift)
        assert set(np.unique(out.data)) <= {0.0, 5.0}
        assert np.array_equal(out.data, data)

    def test_downsample_onto_coarser_grid(self):
        v = vol(np.tile(np.arange(8.0), (8, 8, 1)))
        coarse = GridGeometry((4, 4, 4), (2, 2, 2), np.diag([2, 2, 2, 1]))
        out = resample(v, coarse)
        assert out.dims == (4, 4, 4)
        # voxel centres land on even source indices -> exact values
        assert np.allclose(out.data[0, 0, :], [0, 2, 4, 6])


class TestFileRoundTrips:
    def test_volume_round_trip(self, tmp_path, identity_volume):
        p = tmp_path / "v.nii.gz"
        save_volume(identity_volume, p)
        back = load_volume(p)
        assert np.array_equal(back.data,
                              identity_volume.data.astype(np.float32))
        assert back.spacing == identity_volume.spacing

    def test_labelmap_round_trip(self, tmp_path):
        data = np.random.default_rng(3).integers(0, 6, size=(5, 5, 5))
        lm = LabelMap(data, (1.0, 1.0, 2.0), np.diag([1, 1, 2, 1]))
        p = tmp_path / "lm.nii.gz"
        save_labelmap(lm, p)
        back = load_labelmap(p)
        assert np.array_equal(back.data, lm.data)

    def test_bad_label_reported_as_stored_integer(self, tmp_path):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = 7
        p = tmp_path / "lm.nii"
        nifti.write_nifti(p, data, (1, 1, 1), np.eye(4), np.uint8)
        with pytest.raises(LabelOutOfRange) as exc:
            load_labelmap(p)
        assert exc.value.value == 7 and isinstance(exc.value.value, int)
        assert str(exc.value).startswith("label value 7 at voxel (0, 0, 0) ")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v.nii", "v.nii.gz"])
    def test_non_finite_voxel_rejected(self, tmp_path, value, name):
        data = np.ones((3, 4, 5), dtype=np.float32)
        data[1, 2, 3] = value
        data[2, 3, 4] = np.nan
        p = tmp_path / name
        nifti.write_nifti(p, data, (1, 1, 1), np.eye(4), np.float32)
        with pytest.raises(NonFiniteVoxel) as exc:
            load_volume(p)
        assert exc.value.exit_code == 2
        assert str(exc.value) == (f"{p}: voxel (1, 2, 3) holds {value}, "
                                  f"not a finite value")

    def test_volume_is_float64_from_any_datatype(self, tmp_path):
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
        p = tmp_path / "v.nii"
        nifti.write_nifti(p, data, (1, 1, 1), np.eye(4), np.int16)
        back = load_volume(p)
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, data)

    def test_float_file_rejected_as_labelmap(self, tmp_path, identity_volume):
        p = tmp_path / "f.nii"
        save_volume(identity_volume, p)
        with pytest.raises(UnsupportedDatatype):
            load_labelmap(p)
