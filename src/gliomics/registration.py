"""Rigid multi-modal registration and subtraction maps.

The metric is mutual information over a joint intensity histogram: moving
intensities are linearly interpolated at the transformed fixed-image sample
points and binned with per-volume min/max edges.  (This keeps the
behaviour of the Mattes metric at desk scale without the B-spline Parzen
machinery.)  The optimizer is a (1+1) evolutionary strategy with an adaptive
isotropic mutation radius.  ``register_rigid`` samples off the voxel grid
and searches coarse to fine (Thevenaz & Unser, IEEE TIP 2000; Mattes et
al., IEEE TMI 2003).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .errors import InsufficientOverlap
from .volume import Volume, resample

log = logging.getLogger(__name__)

# Joint-histogram bins per axis, and the least share of fixed samples that
# must land inside the moving volume for an MI value to count.
MI_BINS = 32
MIN_OVERLAP_FRACTION = 0.25

# The (1+1)-ES starts at INITIAL_RADIUS, multiplies the radius by GROWTH
# after an accepted step and by SHRINK after a rejected one, and stops once
# it falls below EPSILON or once it has evaluated MAX_EVALS candidates over
# both levels.
INITIAL_RADIUS = 1.5
GROWTH = 1.05
SHRINK = 0.98
EPSILON = 1e-3
MAX_EVALS = 2000

# Total MI gain below this is interpolation noise, not signal: soft binning
# can squeeze out ~1e-4 bits by drifting off a true optimum, while a 0.1
# degree / 0.1 mm misalignment already costs several times more, so the
# starting transform is kept when the search gains less.
MIN_GAIN = 2e-4

# The search's two levels share one set of jittered sample points: the
# coarse level reads every COARSE_STRIDE-th of them on copies of both volumes
# smoothed by a Gaussian of COARSE_SIGMA voxels, and hands its pose to the
# full-resolution level once the mutation radius falls below HANDOVER times
# EPSILON.
COARSE_STRIDE = 8
COARSE_SIGMA = 1.0
HANDOVER = 10.0

# One parameter-space unit ~ 1 mm of translation ~ 1 degree of rotation, so
# the isotropic Gaussian mutation moves all six axes comparably.
ROTATION_SCALE = 180.0 / np.pi


def _euler_zyx_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rot_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rot_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rot_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rot_z @ rot_y @ rot_x


def _matrix_to_euler_zyx(rot: np.ndarray) -> np.ndarray:
    # Inverse of Rz @ Ry @ Rx; gimbal-safe enough for the small angles we fit.
    sy = -rot[2, 0]
    sy = min(1.0, max(-1.0, sy))
    ry = np.arcsin(sy)
    if abs(abs(sy) - 1.0) < 1e-12:
        rz = np.arctan2(-rot[0, 1], rot[1, 1])
        rx = 0.0
    else:
        rz = np.arctan2(rot[1, 0], rot[0, 0])
        rx = np.arctan2(rot[2, 1], rot[2, 2])
    return np.array([rx, ry, rz])


@dataclass(frozen=True)
class RigidTransform:
    """Rigid world->world map x -> R(x - c) + c + t.

    ``rotation`` holds Euler angles (radians) applied Z-Y-X; ``center`` is
    the rotation pivot in mm (the fixed volume's world centre by default).
    """

    rotation: tuple
    translation: tuple
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("rotation", "translation", "center"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"{name} must have 3 components")
            object.__setattr__(self, name, vec)

    @classmethod
    def identity(cls, center=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), tuple(center))

    def matrix(self) -> np.ndarray:
        rot = _euler_zyx_matrix(*self.rotation)
        c = np.asarray(self.center)
        m = np.eye(4)
        m[:3, :3] = rot
        m[:3, 3] = c + np.asarray(self.translation) - rot @ c
        return m

    @classmethod
    def from_matrix(cls, m: np.ndarray, center) -> "RigidTransform":
        rot = np.asarray(m)[:3, :3]
        angles = _matrix_to_euler_zyx(rot)
        c = np.asarray(center, dtype=float)
        t = np.asarray(m)[:3, 3] - (c - rot @ c)
        return cls(tuple(angles), tuple(t), tuple(c))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying ``other`` first, then ``self``."""
        return RigidTransform.from_matrix(self.matrix() @ other.matrix(), self.center)

    # parameter vector in commensurate units: degrees-ish, millimetres
    def params(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.rotation) * ROTATION_SCALE,
                               self.translation])

    @classmethod
    def from_params(cls, p: np.ndarray, center) -> "RigidTransform":
        p = np.asarray(p, dtype=float)
        return cls(tuple(p[:3] / ROTATION_SCALE), tuple(p[3:6]), tuple(center))

    def to_json(self) -> dict:
        return {"rotation_rad": list(self.rotation),
                "translation_mm": list(self.translation),
                "center_mm": list(self.center)}

    @classmethod
    def from_json(cls, obj: dict) -> "RigidTransform":
        return cls(tuple(obj["rotation_rad"]), tuple(obj["translation_mm"]),
                   tuple(obj["center_mm"]))


@dataclass(frozen=True)
class MiConfig:
    """The share of fixed-image voxels MI samples: 1.0 in ``subtract``, whose
    provenance digests it; criterion 4 and the benchmark's ``register``
    workload set 0.5 through it, so this one-field config stays."""
    sample_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")


@dataclass(frozen=True)
class EsConfig:
    """The ES seed; a one-field config for the reasons ``MiConfig`` gives."""
    seed: int = 0


class _MiEvaluator:
    """Fixed-image samples taken once, for repeated MI evaluations.

    ``index`` holds the sample points in fixed voxel coordinates, shape
    (3, n).  The fixed image is interpolated there once; each evaluation
    interpolates the moving image at the same points pushed through the
    transform.
    """

    def __init__(self, fixed: Volume, moving: Volume, index: np.ndarray):
        self.fixed_world = fixed.affine[:3, :3] @ index + fixed.affine[:3, 3:4]
        self.n_samples = index.shape[1]
        vals = map_coordinates(fixed.data, index, order=1, mode="nearest")
        f0, f1, ffrac = self._soft_bins(vals, float(vals.min()), float(vals.max()))
        self.fixed_lo = f0 * MI_BINS
        self.fixed_hi = f1 * MI_BINS
        self.fixed_w = ffrac
        self.moving_data = moving.data
        self.moving_min = float(moving.data.min())
        self.moving_max = float(moving.data.max())
        self.inv_moving_affine = np.linalg.inv(moving.affine)
        self.upper = np.asarray(moving.dims, dtype=float).reshape(3, 1) - 1.0

    def _soft_bins(self, vals, lo, hi):
        """Linear split of each value across its two nearest bins.

        Returns (lower bin, upper bin, upper-bin weight); the same scheme on
        both histogram axes keeps the metric symmetric in its two images.
        """
        if hi <= lo:
            u = np.zeros(len(vals))
        else:
            u = (np.asarray(vals, dtype=float) - lo) * (MI_BINS / (hi - lo)) - 0.5
        i0 = np.floor(u).astype(np.int64)
        frac = u - i0
        return (np.clip(i0, 0, MI_BINS - 1),
                np.clip(i0 + 1, 0, MI_BINS - 1), frac)

    def evaluate(self, matrix: np.ndarray) -> tuple:
        """Returns (mi_bits, overlap_fraction) for a world->world matrix.

        Every fixed sample enters the joint histogram; positions that fall
        outside the moving volume read as its minimum intensity.  Excluding
        them instead would let the optimizer raise MI by shrinking the
        overlap, which biases the optimum away from true alignment.
        """
        pts = matrix[:3, :3] @ self.fixed_world + matrix[:3, 3:4]
        coords = (self.inv_moving_affine[:3, :3] @ pts
                  + self.inv_moving_affine[:3, 3:4])
        inside = np.all((coords >= 0.0) & (coords <= self.upper), axis=0)
        overlap = float(inside.sum()) / self.n_samples
        sampled = map_coordinates(self.moving_data, coords, order=1,
                                  mode="constant", cval=self.moving_min)
        # soft-bin the interpolated moving intensities: each sample splits
        # linearly between the two nearest bins, which keeps the MI surface
        # smooth enough for the evolutionary search to make fine progress
        m0, m1, mfrac = self._soft_bins(sampled, self.moving_min,
                                        self.moving_max)
        size = MI_BINS * MI_BINS
        fw, mw = self.fixed_w, mfrac
        joint = (np.bincount(self.fixed_lo + m0, weights=(1.0 - fw) * (1.0 - mw),
                             minlength=size)
                 + np.bincount(self.fixed_lo + m1, weights=(1.0 - fw) * mw,
                               minlength=size)
                 + np.bincount(self.fixed_hi + m0, weights=fw * (1.0 - mw),
                               minlength=size)
                 + np.bincount(self.fixed_hi + m1, weights=fw * mw,
                               minlength=size))
        joint = joint.reshape(MI_BINS, MI_BINS) / self.n_samples
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        nz = joint > 0
        denom = np.outer(px, py)
        mi = float(np.sum(joint[nz] * np.log2(joint[nz] / denom[nz])))
        return max(mi, 0.0), overlap


def _sample_index(fixed: Volume, cfg: MiConfig) -> np.ndarray:
    """Fixed voxel indices of the MI sample points, C order, shape (3, n)."""
    index = np.indices(fixed.dims, dtype=float).reshape(3, -1)
    if cfg.sample_fraction < 1.0:
        n = index.shape[1]
        keep = np.unique(np.round(
            np.linspace(0, n - 1, max(2, int(round(n * cfg.sample_fraction)))))
            .astype(np.int64))
        index = index[:, keep]
    return index


def _smoothed(vol: Volume) -> Volume:
    return vol.with_data(gaussian_filter(vol.data, COARSE_SIGMA))


def register_rigid(fixed: Volume, moving: Volume, mi: MiConfig = MiConfig(),
                   es: EsConfig = EsConfig(), return_trace: bool = False):
    """Fit the rigid transform maximizing MI with a (1+1) evolutionary strategy.

    Starting from the identity, each iteration mutates the six parameters
    by an isotropic Gaussian of the current radius, keeps the candidate only
    if MI improves, and grows/shrinks the radius on success/failure.

    MI is sampled at the fixed voxel centres, each moved by one seeded
    U(-1/2, 1/2) voxel jitter per axis that holds for the whole search; on
    the bare grid, linear interpolation raises MI wherever sample points
    line up with moving voxels, which pulls aligned pairs off the identity.
    The search runs on two levels of those points: every
    ``COARSE_STRIDE``-th point of both volumes smoothed by a Gaussian of
    ``COARSE_SIGMA`` voxels until the radius falls below ``HANDOVER`` times
    ``EPSILON``, then every point, unsmoothed, down to ``EPSILON``.
    ``MAX_EVALS`` bounds the candidates of both levels together.

    The best transform seen is returned, except that a full-resolution MI
    gain below ``MIN_GAIN`` keeps the starting transform.  With
    ``return_trace`` the full-resolution level's accepted MI values come
    back as well, starting from its MI at the hand-over pose.
    Deterministic for a given seed.
    """
    center = fixed.geometry.world_center()
    rng = np.random.default_rng(es.seed)
    index = _sample_index(fixed, mi)
    upper = np.asarray(fixed.dims, dtype=float).reshape(3, 1) - 1.0
    index = np.clip(index + rng.uniform(-0.5, 0.5, size=index.shape),
                    0.0, upper)
    fine = _MiEvaluator(fixed, moving, index)
    start = RigidTransform.identity(center)

    def evaluate(ev, p):
        return ev.evaluate(RigidTransform.from_params(p, center).matrix())

    start_mi, start_overlap = evaluate(fine, start.params())
    if start_overlap < MIN_OVERLAP_FRACTION:
        raise InsufficientOverlap(f"initial overlap {start_overlap:.1%} below "
                                  f"{MIN_OVERLAP_FRACTION:.1%}")

    coarse = _MiEvaluator(_smoothed(fixed), _smoothed(moving),
                          index[:, ::COARSE_STRIDE])
    p, radius, budget = start.params(), INITIAL_RADIUS, MAX_EVALS
    counts = []
    for ev, floor in ((coarse, HANDOVER * EPSILON), (fine, EPSILON)):
        cur_mi, overlap = evaluate(ev, p)
        trace, evals = [cur_mi], 0
        while evals < budget and radius >= floor:
            cand = p + radius * rng.standard_normal(6)
            cand_mi, cand_overlap = evaluate(ev, cand)
            evals += 1
            if cand_overlap >= MIN_OVERLAP_FRACTION and cand_mi > cur_mi:
                p, cur_mi, overlap = cand, cand_mi, cand_overlap
                radius *= GROWTH
                trace.append(cur_mi)
            else:
                radius *= SHRINK
        budget -= evals
        counts += [evals, len(trace) - 1]

    gain = cur_mi - start_mi
    if gain < MIN_GAIN:
        best, overlap = start, start_overlap
    else:
        best = RigidTransform.from_params(p, center)
    log.debug("register: coarse %d evals %d accepted, fine %d evals "
              "%d accepted, final radius %.4g, MI gain %.4g bits%s, "
              "overlap %.4f", *counts, radius, gain,
              " (below MIN_GAIN, start kept)" if best is start else "",
              overlap)
    if return_trace:
        return best, trace
    return best


def subtraction_map(pre: Volume, post: Volume, t: RigidTransform) -> Volume:
    """Positive-clamped enhancement map on the post-contrast grid.

    The pre-contrast image is resampled through ``t`` onto the post grid and
    subtracted; negative differences are clamped to zero.
    """
    pre_on_post = resample(pre, post.geometry, mode="linear",
                           world_map=t.matrix())
    return post.with_data(np.maximum(post.data - pre_on_post.data, 0.0))
