"""Intensity and shape feature extraction from labeled volumes.

Three intensity vectors are built from a volume plus its label map:

* ``v1`` (14): one block over the union of all tumor labels,
* ``v2`` (70): one block per label 1..5, absent labels left as zeros,
* ``v3`` (28): the label-2 and label-5 blocks only.

A block is the 10-bin normalized histogram over the region's own intensity
range plus min, max, mean and Shannon entropy of the histogram (bits).

The ``shape`` vector (20) holds four planar descriptors per label, averaged
over the label's 26-connected components with the measured slice areas as
weights.  Each component is measured on its largest-area axial slice.  It
depends on the label map alone, so ``extract_all`` computes it once per
``LabelMap`` and every modality's pair reads that one vector.

Every builder takes a volume and a label map on the same grid (dims,
spacing and affine, as ``GridGeometry.matches`` compares them); a pair on
different grids raises ``GeometryMismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, LengthMismatch, NegativeProbability
from .volume import TUMOR_LABELS, LabelMap, Volume

HIST_BINS = 10

KIND_LENGTHS = {"v1": 14, "v2": 70, "v3": 28, "shape": 20}


@dataclass(frozen=True)
class FeatureVector:
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in KIND_LENGTHS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        want = KIND_LENGTHS[self.kind]
        if vals.shape != (want,):
            raise LengthMismatch(
                f"{self.kind} vector must have length {want}, got {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def region_histogram(vals: np.ndarray) -> np.ndarray:
    """Normalized histogram of a region's values over their own [min, max].

    The last bin is closed so the maximum lands in bin ``HIST_BINS - 1``.
    Constant regions put all mass in bin 0; empty regions give all zeros.
    """
    if vals.size == 0:
        return np.zeros(HIST_BINS)
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        out = np.zeros(HIST_BINS)
        out[0] = 1.0
        return out
    if not np.isfinite(hi - lo):
        # span overflows the float range; halving is exact and keeps ratios
        vals, lo, hi = vals * 0.5, lo * 0.5, hi * 0.5
    elif not np.isfinite(HIST_BINS / (hi - lo)):
        # a span this small (subnormal, or nearly) puts every value below
        # 2**-966 in magnitude, so scaling by 2**600 is exact and keeps ratios
        vals, lo, hi = vals * 2.0 ** 600, lo * 2.0 ** 600, hi * 2.0 ** 600
    idx = ((vals - lo) * (HIST_BINS / (hi - lo))).astype(np.int64)
    counts = np.bincount(np.clip(idx, 0, HIST_BINS - 1),
                         minlength=HIST_BINS)
    return counts / vals.size


def shannon_entropy(p) -> float:
    """Entropy of a discrete distribution in bits; zero terms contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise NegativeProbability(f"negative probability {p.min()}")
    nz = p[p > 0]
    if nz.size == 0:
        return 0.0
    # 0.0 - x, not -x: one full bin gives +0.0, which a CSV prints as 0
    return float(0.0 - np.sum(nz * np.log2(nz)))


def intensity_block(vals: np.ndarray) -> np.ndarray:
    """The 14-value block of a region's values: histogram, min, max, mean
    and entropy; an empty region gives zeros."""
    if vals.size == 0:
        return np.zeros(HIST_BINS + 4)
    hist = region_histogram(vals)
    return np.concatenate([hist, [float(vals.min()), float(vals.max()),
                                  float(vals.mean()), shannon_entropy(hist)]])


def _require_match(v: Volume, lm: LabelMap):
    if not v.geometry.matches(lm.geometry):
        raise GeometryMismatch(
            f"volume grid (dims {v.dims}, spacing {v.spacing}) and label map "
            f"grid (dims {lm.geometry.dims}, spacing {lm.spacing}) differ in "
            f"dims, spacing or affine")


def _label_blocks(v: Volume, lm: LabelMap, labels) -> np.ndarray:
    """Intensity blocks of ``labels`` in order, one read of ``v`` each."""
    _require_match(v, lm)
    return np.concatenate([intensity_block(v.data[lm.data == lab])
                           for lab in labels])


def build_v1(v: Volume, lm: LabelMap) -> FeatureVector:
    """One intensity block over the union of all tumor labels."""
    _require_match(v, lm)
    return FeatureVector("v1", intensity_block(v.data[lm.data > 0]))


def build_v2(v: Volume, lm: LabelMap) -> FeatureVector:
    """Per-label intensity blocks, labels 1..5 in order; absent -> zeros."""
    return FeatureVector("v2", _label_blocks(v, lm, TUMOR_LABELS))


def build_v3(v: Volume, lm: LabelMap) -> FeatureVector:
    """Intensity blocks for the enhancing (2) and necrotic (5) labels only."""
    return FeatureVector("v3", _label_blocks(v, lm, (2, 5)))


_STRUCT_26 = np.ones((3, 3, 3), dtype=bool)


def connected_components(mask: np.ndarray) -> list:
    """Split a boolean grid into maximal 26-connected components.

    Returns boolean masks ordered by decreasing voxel count, ties broken by
    the lexicographically smallest member voxel, so the ordering is
    deterministic for any input.
    """
    # imported on first call, so that importing gliomics loads no SciPy
    from scipy import ndimage
    mask = np.asarray(mask).astype(bool)
    labeled, n = ndimage.label(mask, structure=_STRUCT_26)
    if n <= 1:
        # the whole mask, or nothing: no sizes to sort
        return [mask] if n else []
    flat = labeled.ravel()
    sizes = np.bincount(flat, minlength=n + 1)
    ids, first = np.unique(flat, return_index=True)
    seed_of = dict(zip(ids.tolist(), first.tolist()))
    order = sorted(range(1, n + 1), key=lambda i: (-int(sizes[i]), seed_of[i]))
    return [labeled == i for i in order]


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain hull of 2D points, counter-clockwise, no duplicates.

    ``pts`` must be distinct and sorted by (i, j), as ``np.argwhere``
    returns them.  A point strictly between two others of its row lies on
    the segment joining them, so it is no hull vertex: the chain runs over
    the first and last point of each row alone.  The chain runs on Python
    ints, whose cross products are exact and cheaper than numpy scalars'.
    """
    if len(pts) <= 2:
        return pts
    new_row = pts[1:, 0] != pts[:-1, 0]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:-1] = new_row[:-1] | new_row[1:]
    pts = pts[keep]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    pts = pts.tolist()
    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _hull_pixel_count(ij: np.ndarray) -> int:
    """Number of integer lattice points inside or on the hull of ``ij``,
    distinct points sorted by (i, j).

    Pick's theorem, ``area = interior + boundary / 2 - 1``, with the
    shoelace area and ``gcd(|di|, |dj|)`` lattice points per hull edge.
    """
    hull = _convex_hull(ij)
    if len(hull) <= 2:
        # degenerate (point or segment): the hull covers exactly the
        # region's own pixels
        return len(ij)
    d = np.concatenate([hull[1:], hull[:1]]) - hull
    area2 = abs(int(np.sum(hull[:, 0] * d[:, 1] - hull[:, 1] * d[:, 0])))
    boundary = int(np.gcd(d[:, 0], d[:, 1]).sum())
    return (area2 + boundary) // 2 + 1


def _boundary_perimeter(slice_mask: np.ndarray, sx: float, sy: float) -> float:
    """Total length of exposed pixel edges (cracked-edge perimeter).

    Along an axis every run of pixels exposes two edges, and a mask of
    ``n`` pixels with ``p`` adjacent pairs along it holds ``n - p`` runs.
    """
    m = np.asarray(slice_mask, dtype=bool)
    n = np.count_nonzero(m)
    faces_x = 2 * (n - np.count_nonzero(m[1:] & m[:-1]))  # edges of length sy
    faces_y = 2 * (n - np.count_nonzero(m[:, 1:] & m[:, :-1]))  # of length sx
    return faces_x * sy + faces_y * sx


def ellipse_perimeter(a: float, b: float) -> float:
    """Ramanujan's first perimeter approximation for semi-axes a, b.

    Collapses to the circle circumference 2*pi*a when a == b.
    """
    return float(np.pi * (3.0 * (a + b) - np.sqrt((3.0 * a + b) * (a + 3.0 * b))))


def _measure_slice(slice_mask: np.ndarray, sx: float, sy: float,
                   offset=(0, 0)):
    """Planar shape descriptors of a 2D mask: (solidity, eccentricity,
    axis_ratio, perimeter_ratio).

    ``offset`` is the mask's (i, j) origin in the full grid.  The moments
    are taken over full-grid pixel indices, so a cropped mask gives the
    same floats as the uncropped one.  A single pixel gives eccentricity 0,
    axis_ratio 1 and solidity 1: its moment ellipse is a circle.
    """
    ij = np.argwhere(slice_mask) + offset
    n = len(ij)
    x = ij[:, 0] * sx
    y = ij[:, 1] * sy
    # second central moments of the pixel set, corrected for pixel extent
    uxx = float(np.var(x)) + sx * sx / 12.0
    uyy = float(np.var(y)) + sy * sy / 12.0
    uxy = float(np.mean((x - x.mean()) * (y - y.mean())))
    common = np.sqrt((uxx - uyy) ** 2 + 4.0 * uxy * uxy)
    a = float(np.sqrt(2.0 * (uxx + uyy + common)))
    b = float(np.sqrt(max(2.0 * (uxx + uyy - common), 0.0)))
    if b <= 0.0 or n == 1:
        ecc, ratio = 0.0, 1.0
        b = a
    else:
        ecc = float(np.sqrt(max(a * a - b * b, 0.0)) / a)
        ratio = a / b
    ellipse_perim = ellipse_perimeter(a, b)
    boundary = _boundary_perimeter(slice_mask, sx, sy)
    solidity = n / _hull_pixel_count(ij)
    return np.array([solidity, ecc, ratio, ellipse_perim / boundary])


def _component_shape(component: np.ndarray, spacing, offset=(0, 0)):
    """Pick the component's largest-area axial slice and measure it."""
    counts = component.sum(axis=(0, 1))
    k = int(np.argmax(counts))  # first maximal slice on ties
    return _measure_slice(component[:, :, k], float(spacing[0]),
                          float(spacing[1]), offset)


def shape_block(lm: LabelMap) -> FeatureVector:
    """Four shape descriptors per label, area-weighted over components.

    Weights are the measured slice areas; a label with no voxels contributes
    four zeros, as it contributes zeros to the intensity vectors.  Each
    label is split into components inside its bounding box only: C order
    within the box is the full grid's order, so components come out in the
    same order.
    """
    # imported on first call, so that importing gliomics loads no SciPy
    from scipy import ndimage
    boxes = ndimage.find_objects(lm.data, max_label=max(TUMOR_LABELS))
    out = []
    for lab, box in zip(TUMOR_LABELS, boxes):
        if box is None:
            out.append(np.zeros(4))
            continue
        offset = (box[0].start, box[1].start)
        comps = connected_components(lm.data[box] == lab)
        blocks = np.stack([_component_shape(c, lm.spacing, offset)
                           for c in comps])
        areas = (np.array([c.sum(axis=(0, 1)).max() for c in comps])
                 * lm.spacing[0] * lm.spacing[1])
        w = areas / np.sum(areas)
        out.append(np.sum(blocks * w[:, None], axis=0))
    return FeatureVector("shape", np.concatenate(out))


def extract_all(v: Volume, lm: LabelMap, kinds=tuple(KIND_LENGTHS)) -> dict:
    """The vectors of ``kinds`` for one (volume, label map) pair, in order.

    The shape vector is computed on the label map's first call and kept in
    its memo; every later call for that label map returns the same vector.
    """
    # looked up per call, so a wrapped builder or shape_block is the one called
    builders = {"v1": build_v1, "v2": build_v2, "v3": build_v3}
    out = {}
    for kind in kinds:
        if kind == "shape":
            _require_match(v, lm)
            if "shape" not in lm._memo:
                lm._memo["shape"] = shape_block(lm)
            out[kind] = lm._memo["shape"]
        elif kind in builders:
            out[kind] = builders[kind](v, lm)
        else:
            raise ValueError(f"unknown feature kind {kind!r}")
    return out
