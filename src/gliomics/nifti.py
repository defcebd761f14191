"""Minimal NIfTI-1 single-file codec.

Reads and writes the 348-byte NIfTI-1 header plus voxel payload, optionally
gzip-compressed.  Only scalar 3D volumes are in scope: no extensions, no
NIfTI-2, no .hdr/.img pairs, no time series.  Both byte orders are accepted
on read (detected from ``sizeof_hdr``); files are always written
little-endian.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_bytes, write_bytes
from .errors import BadMagic, IoFailure, UnsupportedDatatype

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4 empty extension bytes

# nifti1.h field layout, built once per byte order
_HEADER_LE = np.dtype([
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]).newbyteorder("<")
_HEADER_BE = _HEADER_LE.newbyteorder(">")

# datatype code -> numpy scalar type (scalar types only; RGB/complex/bitfield
# are rejected with UnsupportedDatatype)
_DTYPE_FOR_CODE = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
    1024: np.int64,
    1280: np.uint64,
}
_CODE_FOR_DTYPE = {np.dtype(t): c for c, t in _DTYPE_FOR_CODE.items()}

_INTEGER_CODES = frozenset(c for c, t in _DTYPE_FOR_CODE.items()
                           if np.issubdtype(t, np.integer))

_GOOD_MAGIC = (b"n+1", b"ni1")

# the float fields that place the voxel grid in the world
_GEOMETRY_FIELDS = ("pixdim", "quatern_b", "quatern_c", "quatern_d",
                    "qoffset_x", "qoffset_y", "qoffset_z",
                    "srow_x", "srow_y", "srow_z")


@dataclass
class ParsedNifti:
    """Raw decode result, before promotion to Volume/LabelMap."""

    data: np.ndarray          # 3D, Fortran voxel order already applied
    spacing: tuple            # pixdim[1:4], absolute values
    affine: np.ndarray        # 4x4 voxel index -> world mm
    datatype_code: int
    scaled: bool              # True if scl_slope/scl_inter were applied


def _quaternion_rotation(b: float, c: float, d: float) -> np.ndarray:
    a = np.sqrt(max(0.0, 1.0 - (b * b + c * c + d * d)))
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
    ])


def _affine_from_header(hdr, spacing) -> np.ndarray:
    aff = np.eye(4)
    if int(hdr["sform_code"]) > 0:
        aff[0, :] = hdr["srow_x"]
        aff[1, :] = hdr["srow_y"]
        aff[2, :] = hdr["srow_z"]
    elif int(hdr["qform_code"]) > 0:
        rot = _quaternion_rotation(float(hdr["quatern_b"]),
                                   float(hdr["quatern_c"]),
                                   float(hdr["quatern_d"]))
        qfac = -1.0 if float(hdr["pixdim"][0]) < 0 else 1.0
        scale = np.array([spacing[0], spacing[1], qfac * spacing[2]])
        aff[:3, :3] = rot * scale
        aff[:3, 3] = [hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"]]
    else:
        aff[:3, :3] = np.diag(spacing)
    return aff


def read_nifti(path) -> ParsedNifti:
    """Decode a .nii / .nii.gz file into voxel data plus geometry.

    Raises MissingFile, BadMagic, UnsupportedDatatype and IoFailure per the
    failure mode.  Voxel values keep the file's datatype, in native byte
    order, unless the header's scl_slope/scl_inter apply, which gives
    float64.
    """
    blob = read_bytes(path)
    if len(blob) < HEADER_SIZE:
        raise BadMagic(f"{path}: truncated header ({len(blob)} bytes)")
    order = "<"
    hdr = np.frombuffer(blob, dtype=_HEADER_LE, count=1)[0]
    if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
        order = ">"
        hdr = np.frombuffer(blob, dtype=_HEADER_BE, count=1)[0]
        if int(hdr["sizeof_hdr"]) != HEADER_SIZE:
            raise BadMagic(f"{path}: sizeof_hdr is not 348, not NIfTI-1")
    magic = bytes(hdr["magic"]).rstrip(b"\x00")
    if magic not in _GOOD_MAGIC:
        raise BadMagic(f"{path}: magic {magic!r} is not 'n+1'/'ni1'")

    code = int(hdr["datatype"])
    if code not in _DTYPE_FOR_CODE:
        raise UnsupportedDatatype(f"{path}: datatype code {code}")
    ndim = int(hdr["dim"][0])
    if not 1 <= ndim <= 7:
        raise BadMagic(f"{path}: dim[0]={ndim} out of range")
    shape = [int(n) for n in hdr["dim"][1:1 + ndim]]
    if min(shape) < 1:
        raise BadMagic(f"{path}: image shape {shape} has a size below 1")
    if any(n != 1 for n in shape[3:]):
        raise UnsupportedDatatype(
            f"{path}: {ndim}D image with shape {shape}; only 3D supported")
    shape = (shape + [1, 1])[:3]
    geometry = np.concatenate([np.ravel(hdr[f]) for f in _GEOMETRY_FIELDS])
    if not np.isfinite(geometry).all() or not np.isfinite(hdr["vox_offset"]):
        raise BadMagic(f"{path}: non-finite vox_offset, pixdim, quatern, "
                       f"qoffset or srow")

    dt = np.dtype(_DTYPE_FOR_CODE[code]).newbyteorder(order)
    n_vox = int(np.prod(shape))
    if magic == b"n+1" and hdr["vox_offset"] < VOX_OFFSET:
        # a single-file image's voxels start after the header and the
        # 4-byte extension flag; a smaller offset would decode header bytes
        raise BadMagic(f"{path}: vox_offset {float(hdr['vox_offset']):g} is "
                       f"below {VOX_OFFSET} in a single-file image")
    offset = max(int(hdr["vox_offset"]), HEADER_SIZE)
    if len(blob) < offset + n_vox * dt.itemsize:
        raise IoFailure(f"{path}: truncated voxel payload")
    data = np.frombuffer(blob, dtype=dt, count=n_vox, offset=offset)
    data = data.reshape(shape, order="F").astype(dt.newbyteorder("="))

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if not np.isfinite(slope):
        slope = 0.0
    if not np.isfinite(inter):
        inter = 0.0
    scaled = slope != 0.0 and (slope != 1.0 or inter != 0.0)
    if scaled:
        data = data.astype(np.float64) * slope + inter

    spacing = np.abs(np.asarray(hdr["pixdim"][1:4], dtype=float))
    spacing[spacing == 0] = 1.0
    affine = _affine_from_header(hdr, spacing)
    if is_singular(affine):
        raise BadMagic(f"{path}: the affine's 3x3 block is singular")
    return ParsedNifti(data=data, spacing=tuple(spacing), affine=affine,
                       datatype_code=code, scaled=scaled)


def is_integer_code(code: int) -> bool:
    return code in _INTEGER_CODES


def is_singular(affine) -> bool:
    """True when the affine's 3x3 block maps no voxel grid onto 3D space."""
    return abs(np.linalg.det(np.asarray(affine, dtype=float)[:3, :3])) < 1e-12


def write_nifti(path, data: np.ndarray, spacing, affine, dtype) -> None:
    """Write a single-file little-endian NIfTI-1 volume, gzipped for ``.gz``.

    ``dtype`` fixes the on-disk representation; the affine lands in the sform
    (sform_code=1) and pixdim carries the spacing.
    """
    path = Path(path)
    dt = np.dtype(dtype).newbyteorder("<")
    native = dt.newbyteorder("=")
    if native not in _CODE_FOR_DTYPE:
        raise UnsupportedDatatype(f"cannot encode dtype {dt}")
    code = _CODE_FOR_DTYPE[native]

    hdr = np.zeros((), dtype=_HEADER_LE)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = [3, *data.shape, 1, 1, 1, 1]
    hdr["datatype"] = code
    hdr["bitpix"] = dt.itemsize * 8
    hdr["pixdim"] = [1.0, *spacing, 0, 0, 0, 0]
    hdr["vox_offset"] = VOX_OFFSET
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # millimetres
    hdr["descrip"] = b"gliomics"
    hdr["sform_code"] = 1
    hdr["qform_code"] = 0
    aff = np.asarray(affine, dtype=float)
    hdr["srow_x"] = aff[0, :]
    hdr["srow_y"] = aff[1, :]
    hdr["srow_z"] = aff[2, :]
    hdr["magic"] = b"n+1"

    payload = np.asarray(data).astype(dt).tobytes(order="F")
    blob = hdr.tobytes() + b"\x00" * (VOX_OFFSET - HEADER_SIZE) + payload

    try:
        write_bytes(path, blob)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
