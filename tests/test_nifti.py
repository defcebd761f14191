import gzip

import numpy as np
import pytest

from gliomics import nifti
from gliomics.errors import (BadMagic, IoFailure, MissingFile,
                             UnsupportedDatatype)


def _patch_header(path, **fields):
    """Rewrite named header fields of an uncompressed .nii in place."""
    blob = bytearray(path.read_bytes())
    hdr = np.frombuffer(bytes(blob[:nifti.HEADER_SIZE]),
                        dtype=nifti._header_dtype("<")).copy()
    for name, value in fields.items():
        hdr[name] = value
    blob[:nifti.HEADER_SIZE] = hdr.tobytes()
    path.write_bytes(bytes(blob))


def test_round_trip_identity(tmp_path):
    p = tmp_path / "v.nii"
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    nifti.write_nifti(p, data, (1.0, 1.0, 1.0), np.eye(4), np.float32)
    out = nifti.read_nifti(p)
    assert out.data.shape == (2, 2, 2)
    assert out.spacing == (1.0, 1.0, 1.0)
    assert np.array_equal(out.data, data)
    assert np.array_equal(out.affine, np.eye(4))
    assert not out.scaled


def test_gzip_transparency(tmp_path):
    data = np.random.default_rng(0).normal(size=(4, 3, 2))
    aff = np.diag([2.0, 2.0, 3.0, 1.0])
    nifti.write_nifti(tmp_path / "a.nii", data, (2, 2, 3), aff, np.float64)
    nifti.write_nifti(tmp_path / "a.nii.gz", data, (2, 2, 3), aff, np.float64)
    plain = nifti.read_nifti(tmp_path / "a.nii")
    packed = nifti.read_nifti(tmp_path / "a.nii.gz")
    assert np.array_equal(plain.data, packed.data)
    assert plain.spacing == packed.spacing
    assert np.array_equal(plain.affine, packed.affine)
    assert (gzip.decompress((tmp_path / "a.nii.gz").read_bytes())
            == (tmp_path / "a.nii").read_bytes())


def test_write_failure_is_io_failure(tmp_path):
    (tmp_path / "blocker").write_text("a file, not a directory")
    with pytest.raises(IoFailure):
        nifti.write_nifti(tmp_path / "blocker" / "v.nii.gz", np.zeros((2, 2, 2)),
                          (1, 1, 1), np.eye(4), np.float32)


def test_missing_file(tmp_path):
    with pytest.raises(MissingFile) as exc:
        nifti.read_nifti(tmp_path / "absent.nii")
    assert "absent.nii" in str(exc.value)


def test_corrupt_magic(tmp_path):
    p = tmp_path / "bad.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (1, 1, 1), np.eye(4), np.float32)
    _patch_header(p, magic=b"XXX")
    with pytest.raises(BadMagic):
        nifti.read_nifti(p)


def test_not_nifti_at_all(tmp_path):
    p = tmp_path / "junk.nii"
    p.write_bytes(b"\x00" * 400)
    with pytest.raises(BadMagic):
        nifti.read_nifti(p)


def test_unsupported_datatype(tmp_path):
    p = tmp_path / "rgb.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (1, 1, 1), np.eye(4), np.float32)
    _patch_header(p, datatype=128)  # RGB triple
    with pytest.raises(UnsupportedDatatype):
        nifti.read_nifti(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "cut.nii"
    nifti.write_nifti(p, np.zeros((4, 4, 4)), (1, 1, 1), np.eye(4), np.float64)
    p.write_bytes(p.read_bytes()[:-100])
    with pytest.raises(IoFailure):
        nifti.read_nifti(p)


def test_scl_scaling_applied(tmp_path):
    p = tmp_path / "scaled.nii"
    raw = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    nifti.write_nifti(p, raw, (1, 1, 1), np.eye(4), np.int16)
    _patch_header(p, scl_slope=2.5, scl_inter=-1.0)
    out = nifti.read_nifti(p)
    assert out.scaled
    assert np.array_equal(out.data, raw.astype(np.float64) * 2.5 - 1.0)


def test_scl_slope_zero_means_unscaled(tmp_path):
    p = tmp_path / "noscale.nii"
    raw = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    nifti.write_nifti(p, raw, (1, 1, 1), np.eye(4), np.int16)
    _patch_header(p, scl_slope=0.0, scl_inter=5.0)
    out = nifti.read_nifti(p)
    assert not out.scaled
    assert np.array_equal(out.data, raw.astype(np.float64))


def test_big_endian_read(tmp_path):
    # build the same volume by hand with '>' fields; reader must byteswap
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    hdr = np.zeros((), dtype=nifti._header_dtype(">"))
    hdr["sizeof_hdr"] = nifti.HEADER_SIZE
    hdr["dim"] = [3, 2, 3, 4, 1, 1, 1, 1]
    hdr["datatype"] = 16
    hdr["bitpix"] = 32
    hdr["pixdim"] = [1.0, 1.5, 1.0, 2.0, 0, 0, 0, 0]
    hdr["vox_offset"] = nifti.VOX_OFFSET
    hdr["sform_code"] = 1
    hdr["srow_x"] = [1.5, 0, 0, 0]
    hdr["srow_y"] = [0, 1.0, 0, 0]
    hdr["srow_z"] = [0, 0, 2.0, 0]
    hdr["magic"] = b"n+1"
    payload = data.astype(">f4").tobytes(order="F")
    p = tmp_path / "be.nii"
    p.write_bytes(hdr.tobytes() + b"\x00" * 4 + payload)
    out = nifti.read_nifti(p)
    assert np.array_equal(out.data, data)
    assert out.spacing == (1.5, 1.0, 2.0)


def test_sform_wins_over_qform(tmp_path):
    p = tmp_path / "forms.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (1, 1, 1), np.eye(4), np.float32)
    _patch_header(p, qform_code=1, qoffset_x=99.0,
                  srow_x=[1, 0, 0, 5.0])
    out = nifti.read_nifti(p)
    assert out.affine[0, 3] == 5.0


def test_qform_fallback(tmp_path):
    p = tmp_path / "q.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (2, 2, 2), np.eye(4), np.float32)
    _patch_header(p, sform_code=0, qform_code=1,
                  quatern_b=0.0, quatern_c=0.0, quatern_d=0.0,
                  qoffset_x=1.0, qoffset_y=2.0, qoffset_z=3.0)
    out = nifti.read_nifti(p)
    # identity quaternion: affine is diag(spacing) with the q offsets
    assert np.allclose(out.affine[:3, :3], np.diag([2, 2, 2]))
    assert np.allclose(out.affine[:3, 3], [1, 2, 3])


def test_no_form_uses_pixdim(tmp_path):
    p = tmp_path / "raw.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (3, 1, 1), np.eye(4), np.float32)
    _patch_header(p, sform_code=0, qform_code=0,
                  pixdim=[1.0, 3.0, 1.0, 1.0, 0, 0, 0, 0])
    out = nifti.read_nifti(p)
    assert np.allclose(out.affine[:3, :3], np.diag([3, 1, 1]))


def test_true_4d_rejected(tmp_path):
    p = tmp_path / "4d.nii"
    nifti.write_nifti(p, np.zeros((2, 2, 2)), (1, 1, 1), np.eye(4), np.float32)
    _patch_header(p, dim=[4, 2, 2, 2, 5, 1, 1, 1])
    with pytest.raises(UnsupportedDatatype):
        nifti.read_nifti(p)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32,
                                   np.float64])
def test_dtype_round_trips(tmp_path, dtype):
    p = tmp_path / "t.nii"
    data = (np.arange(8).reshape(2, 2, 2) % 127).astype(dtype)
    nifti.write_nifti(p, data, (1, 1, 1), np.eye(4), dtype)
    out = nifti.read_nifti(p)
    assert np.array_equal(out.data, data.astype(np.float64))
    assert nifti.is_integer_code(out.datatype_code) == \
        np.issubdtype(dtype, np.integer)
