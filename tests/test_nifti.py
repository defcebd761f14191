import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomics import nifti
from gliomics.artifacts import read_bytes, write_bytes
from gliomics.errors import (BadMagic, GliomicsError, IoFailure, MissingFile,
                             UnsupportedDatatype)
from gliomics.volume import Volume


def _patch_header(path, **fields):
    """Rewrite named header fields of a .nii or .nii.gz in place."""
    blob = bytearray(read_bytes(path))
    hdr = np.frombuffer(bytes(blob[:nifti.HEADER_SIZE]),
                        dtype=nifti._HEADER_LE).copy()
    for name, value in fields.items():
        hdr[name] = value
    blob[:nifti.HEADER_SIZE] = hdr.tobytes()
    write_bytes(path, bytes(blob))


def _header_faults() -> list:
    """(field, element, value) for every element of every numeric header
    field: -1 and 0, and NaN and +-inf as well where the field is a float.
    Integer values wrap to the field's type, as a corrupt byte would."""
    faults = []
    for name, (dt, _) in nifti._HEADER_LE.fields.items():
        if dt.base.kind not in "iuf":
            continue
        values = (-1, 0, np.nan, np.inf, -np.inf) if dt.base.kind == "f" \
            else (-1, 0)
        faults += [(name, i, v) for i in range(int(np.prod(dt.shape)))
                   for v in values]
    return faults


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


@pytest.mark.parametrize("offset", [-1.0, 0.0, 348.0, 351.0])
def test_vox_offset_inside_header_rejected(tmp_path, offset):
    # a single-file image keeps its voxels after the 348-byte header and
    # the 4-byte extension flag; an offset below 352 would decode header
    # bytes as voxels
    p = tmp_path / "t.nii"
    nifti.write_nifti(p, np.arange(27, dtype=np.float32).reshape(3, 3, 3),
                      (1, 1, 1), np.eye(4), np.float32)
    _patch_header(p, vox_offset=offset)
    with pytest.raises(BadMagic, match="vox_offset"):
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
    hdr = np.zeros((), dtype=nifti._HEADER_BE)
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


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """The bytes of a small .nii.gz from write_nifti, its decoded form, and
    a path for mutated copies."""
    d = tmp_path_factory.mktemp("packed")
    data = np.random.default_rng(5).normal(size=(3, 4, 2)).astype(np.float32)
    nifti.write_nifti(d / "v.nii.gz", data, (1.0, 2.0, 3.0),
                      np.diag([1.0, 2.0, 3.0, 1.0]), np.float32)
    return ((d / "v.nii.gz").read_bytes(), nifti.read_nifti(d / "v.nii.gz"),
            d / "mutant.nii.gz")


HEADER_LAYOUTS = ("sform", "big-endian", "qform")


def _layout(blob: bytes, layout: str) -> tuple:
    """The raw NIfTI bytes of the gzipped float32 ``blob`` and their byte
    order, in one header layout: as ``write_nifti`` leaves them ("sform"), every
    header field and voxel byte-swapped ("big-endian"), or with the affine
    in the qform alone ("qform").  Each decodes to the same volume."""
    raw = gzip.decompress(blob)
    hdr = np.frombuffer(raw[:nifti.HEADER_SIZE],
                        dtype=nifti._HEADER_LE)[0].copy()
    if layout == "sform":
        return raw, "<"
    if layout == "qform":
        # identity rotation and zero offsets: the writer's diagonal affine
        hdr["sform_code"], hdr["qform_code"] = 0, 1
        for name in ("srow_x", "srow_y", "srow_z", "quatern_b", "quatern_c",
                     "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z"):
            hdr[name] = 0
        return hdr.tobytes() + raw[nifti.HEADER_SIZE:], "<"
    swapped = np.array(hdr, dtype=nifti._HEADER_BE)
    voxels = np.frombuffer(raw[nifti.VOX_OFFSET:], dtype="<f4").astype(">f4")
    return (swapped.tobytes() + raw[nifti.HEADER_SIZE:nifti.VOX_OFFSET]
            + voxels.tobytes(), ">")


def _same_volume(a, b) -> bool:
    return (a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
            and a.spacing == b.spacing and np.array_equal(a.affine, b.affine))


class TestFaultInjection:
    """A damaged .nii.gz raises a GliomicsError (exit 2); it never decodes
    to another volume and never ends in a numpy or zlib traceback."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flip_raises_or_decodes_identically(self, packed, data):
        blob, good, mutant = packed
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
        mutant.write_bytes(bytes(flipped))
        try:
            out = nifti.read_nifti(mutant)
        except GliomicsError:
            return
        assert _same_volume(out, good)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_raises(self, packed, data):
        blob, _, mutant = packed
        mutant.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(GliomicsError):
            nifti.read_nifti(mutant)

    @pytest.mark.parametrize("layout", HEADER_LAYOUTS)
    def test_header_layouts_decode_alike(self, packed, layout):
        blob, good, mutant = packed
        write_bytes(mutant, _layout(blob, layout)[0])
        assert _same_volume(nifti.read_nifti(mutant), good)

    @given(st.sampled_from(HEADER_LAYOUTS), st.sampled_from(_header_faults()))
    @settings(max_examples=800, deadline=None)
    def test_bad_header_field_raises_or_keeps_geometry_usable(self, packed,
                                                             layout, fault):
        blob, good, mutant = packed
        name, i, value = fault
        raw, order = _layout(blob, layout)
        dt = nifti._HEADER_LE.newbyteorder(order)
        hdr = np.frombuffer(raw[:nifti.HEADER_SIZE], dtype=dt)[0].copy()
        field = hdr[name].reshape(-1)
        field[i] = np.asarray(value).astype(field.dtype)
        hdr[name] = field.reshape(hdr[name].shape)
        write_bytes(mutant, hdr.tobytes() + raw[nifti.HEADER_SIZE:])
        try:
            out = nifti.read_nifti(mutant)
        except GliomicsError:
            return
        if name == "vox_offset":
            assert _same_volume(out, good)
        assert np.isfinite(out.spacing).all()
        assert np.isfinite(out.affine).all()
        Volume(out.data, out.spacing, out.affine)   # a non-singular grid
