"""Voxel-grid data model: scalar volumes, 5-label segmentations, resampling.

Volumes are immutable after construction (data arrays are frozen), so they
can be shared freely across threads.  All voxel data is held as float64
(int16 for label maps) regardless of the on-disk type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nifti
from .errors import LabelOutOfRange, NonFiniteVoxel, UnsupportedDatatype

GRID_TOL = 1e-6   # largest spacing or affine gap between matching grids


def _frozen(arr, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``arr`` as ``dtype``, in ``arr``'s memory order."""
    arr = np.array(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridGeometry:
    """Grid shape, voxel size and voxel->world mapping, without the data; the
    one grid check, kept by each Volume and LabelMap as its ``geometry``."""

    dims: tuple
    spacing: tuple
    affine: np.ndarray

    def __post_init__(self):
        dims, spacing = self.dims, self.spacing
        if len(dims) != 3 or any(int(d) <= 0 for d in dims):
            raise ValueError(f"dims must be 3 positive integers, got {dims}")
        if len(spacing) != 3 or any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be 3 positive reals, got {spacing}")
        affine = np.asarray(self.affine, dtype=float)
        if affine.shape != (4, 4):
            raise ValueError(f"affine must be 4x4, got {affine.shape}")
        if nifti.is_singular(affine):
            raise ValueError("affine upper-left 3x3 block is singular")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        object.__setattr__(self, "spacing", tuple(float(s) for s in spacing))
        object.__setattr__(self, "affine", _frozen(affine))

    def voxel_volume_mm3(self) -> float:
        return float(np.prod(self.spacing))

    def world_center(self) -> np.ndarray:
        idx = (np.asarray(self.dims, dtype=float) - 1.0) / 2.0
        return self.affine[:3, :3] @ idx + self.affine[:3, 3]

    def index_grid_world(self) -> np.ndarray:
        """World coordinates of every voxel centre, shape (3, nvox)."""
        ii = np.indices(self.dims, dtype=float).reshape(3, -1)
        return self.affine[:3, :3] @ ii + self.affine[:3, 3:4]

    def matches(self, other: "GridGeometry") -> bool:
        """Same dims, and spacing and affine equal to within ``GRID_TOL``."""
        if self.dims != other.dims:
            return False
        # equal grids, the common case, need no tolerance test
        if (self.spacing == other.spacing
                and np.array_equal(self.affine, other.affine)):
            return True
        return (np.allclose(self.spacing, other.spacing, atol=GRID_TOL)
                and np.allclose(self.affine, other.affine, atol=GRID_TOL))


@dataclass(frozen=True)
class Volume:
    """A 3D scalar image with spacing and a voxel->world affine."""

    data: np.ndarray
    spacing: tuple
    affine: np.ndarray
    geometry: GridGeometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = _frozen(self.data)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        grid = GridGeometry(data.shape, self.spacing, self.affine)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "geometry", grid)
        object.__setattr__(self, "spacing", grid.spacing)
        object.__setattr__(self, "affine", grid.affine)

    @property
    def dims(self) -> tuple:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume":
        return Volume(data, self.spacing, self.affine)


# the labels a LabelMap may hold besides background 0
TUMOR_LABELS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class LabelMap:
    """Integer segmentation over {0..5}: 1 edema, 2 enhancing, 3 non-enhancing
    solid, 4 cyst, 5 necrosis, 0 background.

    ``spacing`` and ``affine`` are those of ``geometry``, its checked grid.
    ``_memo`` holds values derived from the label map alone, each computed
    on first use: ``features.build_kind`` keeps the shape vector there, so
    every modality of a subject shares one computation.  The data is
    read-only, so a memoized value never goes stale.
    """

    data: np.ndarray
    spacing: tuple
    affine: np.ndarray
    geometry: GridGeometry = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        raw = np.asarray(self.data)
        if raw.ndim != 3:
            raise ValueError(f"label data must be 3D, got shape {raw.shape}")
        if np.issubdtype(raw.dtype, np.floating):
            nonint = raw != np.rint(raw)
            if nonint.any():
                idx = np.argwhere(nonint)[0]
                raise LabelOutOfRange(float(raw[tuple(idx)]), idx)
        bad = (raw < 0) | (raw > max(TUMOR_LABELS))
        if bad.any():
            idx = np.argwhere(bad)[0]
            raise LabelOutOfRange(raw[tuple(idx)].item(), idx)
        data = _frozen(raw, np.int16)
        grid = GridGeometry(data.shape, self.spacing, self.affine)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "geometry", grid)
        object.__setattr__(self, "spacing", grid.spacing)
        object.__setattr__(self, "affine", grid.affine)


def load_volume(path) -> Volume:
    """Read a scalar NIfTI-1 volume (.nii or .nii.gz); a NaN or infinite
    voxel raises NonFiniteVoxel naming the file and the first such voxel."""
    parsed = nifti.read_nifti(path)
    bad = ~np.isfinite(parsed.data)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NonFiniteVoxel(f"{path}: voxel {idx} holds "
                             f"{parsed.data[idx]}, not a finite value")
    return Volume(parsed.data, parsed.spacing, parsed.affine)


def save_volume(vol: Volume, path) -> None:
    """Write a volume as float32; float32 payloads round-trip bit-exactly."""
    nifti.write_nifti(path, vol.data, vol.spacing, vol.affine, np.float32)


def load_labelmap(path) -> LabelMap:
    """Read an integer-typed NIfTI-1 segmentation and validate labels."""
    parsed = nifti.read_nifti(path)
    if not nifti.is_integer_code(parsed.datatype_code):
        raise UnsupportedDatatype(
            f"{path}: label maps require an integer datatype "
            f"(got code {parsed.datatype_code})")
    if parsed.scaled:
        raise UnsupportedDatatype(f"{path}: scaled label maps are not supported")
    return LabelMap(parsed.data, parsed.spacing, parsed.affine)


def save_labelmap(lm: LabelMap, path) -> None:
    nifti.write_nifti(path, lm.data, lm.spacing, lm.affine, np.uint8)


def _target_to_source_coords(src_affine, target: GridGeometry,
                             world_map: np.ndarray | None) -> np.ndarray:
    """Voxel coords in the source grid for every target voxel, shape (3, n)."""
    world = target.index_grid_world()
    if world_map is not None:
        m = np.asarray(world_map, dtype=float)
        world = m[:3, :3] @ world + m[:3, 3:4]
    inv = np.linalg.inv(src_affine)
    return inv[:3, :3] @ world + inv[:3, 3:4]


def resample(src: Volume, target: GridGeometry, mode: str = "linear",
             world_map: np.ndarray | None = None) -> Volume:
    """Resample a Volume onto ``target``.

    ``mode`` is "linear" or "nearest".  ``world_map`` optionally applies a
    4x4 world->world transform (used to push an image through a
    registration result).  Samples falling outside the source grid are 0.
    """
    if mode not in ("linear", "nearest"):
        raise ValueError(f"unknown mode {mode!r}")
    # imported on first call, so that importing gliomics loads no SciPy
    from scipy.ndimage import map_coordinates
    coords = _target_to_source_coords(src.affine, target, world_map)
    out = map_coordinates(src.data, coords, order=1 if mode == "linear" else 0,
                          mode="constant", cval=0.0)
    return Volume(out.reshape(target.dims), target.spacing, target.affine)
