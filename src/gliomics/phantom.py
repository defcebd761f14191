"""Deterministic synthetic cohort generator.

Each phantom is a nested-ellipsoid tumor (necrosis inside enhancing rim,
non-enhancing/cyst lobes, perilesional edema outermost) embedded in a noisy
background, with per-label component ratios realized exactly and voxel
intensities drawn from a two-component Gaussian mixture whose second
component's weight rises with grade.  That weight is the knob that makes
higher grades look more heterogeneous, which is what the intensity features
downstream are supposed to pick up.

Everything is seeded; identical seeds give bit-identical volumes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import read_csv, write_csv
from .errors import InfeasibleRatios
from .volume import (TUMOR_LABELS, LabelMap, Volume, save_labelmap,
                     save_volume)

# The WHO grades II, III and IV: the only grades a cohort, a manifest or a
# table may hold.
GRADES = (2, 3, 4)

# Grade-wise per-label ratio medians (percent of total tumor volume) used as
# single-phantom targets.  The unallocated remainder of the tumor is assigned
# to the non-enhancing solid component (label 3).
MEDIAN_RATIOS = {
    2: {1: 0.0, 2: 0.16, 3: 96.91, 4: 0.0, 5: 0.0},
    3: {1: 2.75, 2: 7.03, 3: 86.67, 4: 0.0, 5: 0.0},
    4: {1: 43.47, 2: 41.18, 3: 7.83, 4: 0.0, 5: 1.30},
}

# Heterogeneity mixture weight per grade (second Gaussian component).
HETEROGENEITY = {2: 0.10, 3: 0.25, 4: 0.45}

# Per-modality, per-label intensity (mean, sd); label 0 is background.
DEFAULT_INTENSITIES = {
    "t1_pre": {0: (30, 4), 1: (65, 6), 2: (95, 7), 3: (88, 7),
               4: (45, 5), 5: (55, 6)},
    "t1_post": {0: (30, 4), 1: (65, 6), 2: (150, 9), 3: (90, 7),
                4: (46, 5), 5: (56, 6)},
    "t2": {0: (35, 4), 1: (160, 9), 2: (110, 8), 3: (120, 8),
           4: (170, 9), 5: (140, 9)},
}

# Cohort sampling model: per grade, per label, (P[label absent], low, high)
# of the uniform draw for the raw percent when present.  Calibrated so that
# grade II vs III have strongly overlapping edema/enhancing/necrosis ratio
# distributions (not separable by rank tests at cohort size) while grade IV
# is well separated from both; all supports sit inside the observed
# min/max ranges per grade.
COHORT_RATIO_MODEL = {
    2: {1: (0.50, 0.5, 12.0), 2: (0.30, 0.1, 6.0), 3: (0.0, 70.0, 100.0),
        4: (0.70, 0.5, 8.0), 5: (0.55, 0.2, 2.8)},
    3: {1: (0.45, 0.5, 14.0), 2: (0.28, 0.1, 7.0), 3: (0.0, 60.0, 100.0),
        4: (0.75, 0.5, 6.0), 5: (0.52, 0.2, 2.5)},
    4: {1: (0.0, 30.0, 75.0), 2: (0.0, 25.0, 60.0), 3: (0.0, 2.0, 15.0),
        4: (0.85, 0.5, 4.0), 5: (0.0, 0.8, 12.0)},
}

DEFAULT_MODALITIES = ("t1_pre", "t1_post", "t2")

# Every phantom sits on one 32^3 grid of 1 mm isotropic voxels, so voxel and
# millimetre distances agree.
DIMS = (32, 32, 32)
SPACING = (1.0, 1.0, 1.0)
ENVELOPE_FRACTION = 0.65    # tumor semi-axes as fraction of half-extent
HETEROGENEITY_SHIFT = 3.0   # second-component offset, in sd units
SMOOTH_SIGMA = 0.5          # voxels

# smooth_blob_volume: bump count and width range, in voxels
N_BLOBS = 30
BLOB_SIGMA_RANGE = (1.5, 3.5)


@dataclass(frozen=True)
class PhantomSpec:
    grade: int
    ratios: dict = None               # label -> percent; defaults to medians
    modalities: tuple = DEFAULT_MODALITIES
    heterogeneity: float = None       # second-component mixture weight
    seed: int = 0

    def __post_init__(self):
        if self.grade not in GRADES:
            raise ValueError(f"grade must be 2, 3 or 4, got {self.grade}")
        if self.ratios is None:
            object.__setattr__(self, "ratios", dict(MEDIAN_RATIOS[self.grade]))
        total = sum(self.ratios.values())
        if total > 100.0 + 1e-9:
            raise InfeasibleRatios(f"target ratios sum to {total:.2f} > 100")
        if self.heterogeneity is None:
            object.__setattr__(self, "heterogeneity", HETEROGENEITY[self.grade])


@dataclass(frozen=True)
class PhantomSubject:
    subject_id: str
    grade: int
    volumes: dict        # modality -> Volume
    labelmap: LabelMap


@dataclass(frozen=True)
class Cohort:
    subjects: tuple


def _ellipsoid_radius(center_idx, semi_axes) -> np.ndarray:
    grids = np.ogrid[0:DIMS[0], 0:DIMS[1], 0:DIMS[2]]
    r2 = np.zeros(DIMS)
    for ax in range(3):
        r2 = r2 + ((grids[ax] - center_idx[ax]) / semi_axes[ax]) ** 2
    return np.sqrt(r2)


def _assign_labels(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    dims = np.asarray(DIMS)
    axes = ENVELOPE_FRACTION * (dims / 2.0) * rng.uniform(0.8, 1.0, size=3)
    center = (dims - 1) / 2.0 + rng.uniform(-0.05, 0.05, size=3) * dims
    r = _ellipsoid_radius(center, axes)

    # the envelope holds at least 4/3 pi (0.52 * 16)^3, about 2,400 voxels
    env_flat = np.flatnonzero((r <= 1.0).ravel())
    n_env = env_flat.size

    counts = {}
    for lab in (1, 2, 4, 5):
        counts[lab] = int(round(spec.ratios.get(lab, 0.0) / 100.0 * n_env))
    n_rest = n_env - sum(counts.values())
    if n_rest < 0:
        raise InfeasibleRatios("per-label voxel counts exceed the envelope")
    counts[3] = n_rest  # non-enhancing absorbs the unallocated share

    r_env = r.ravel()[env_flat]
    order = env_flat[np.lexsort((env_flat, r_env))]  # inside-out, deterministic

    labels = np.zeros(int(np.prod(DIMS)), dtype=np.int16)
    pos = 0
    # strict radial nesting for the core; necrosis innermost, edema outermost
    for lab in (5, 2):
        labels[order[pos:pos + counts[lab]]] = lab
        pos += counts[lab]
    remaining = order[pos:]

    # non-enhancing and cyst become side lobes: bias the ordering score along
    # a random direction so they are not perfect concentric shells
    coords = np.stack(np.unravel_index(remaining, DIMS)).astype(float)
    centered = coords - center[:, None]
    rem_r = r.ravel()[remaining]
    taken = np.zeros(remaining.size, dtype=bool)
    for lab in (3, 4):
        if counts[lab] == 0:
            continue
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        score = rem_r + 0.35 * (direction @ centered) / max(axes.min(), 1e-9)
        score[taken] = np.inf
        pick = np.argsort(score, kind="stable")[:counts[lab]]
        labels[remaining[pick]] = lab
        taken[pick] = True
    labels[remaining[~taken]] = 1  # edema fills the outer remainder
    return labels.reshape(DIMS)


def _synth_modality(labels: np.ndarray, table: dict, weight: float,
                    rng: np.random.Generator) -> np.ndarray:
    mean0, sd0 = table[0]
    arr = rng.normal(mean0, sd0, size=labels.shape)
    for lab in TUMOR_LABELS:
        mask = labels == lab
        n = int(mask.sum())
        if n == 0:
            continue
        mu, sd = table[lab]
        second = rng.random(n) < weight
        vals = rng.normal(mu, sd, size=n)
        vals[second] += HETEROGENEITY_SHIFT * sd
        arr[mask] = vals
    # imported on first call, so that importing gliomics loads no SciPy
    from scipy.ndimage import gaussian_filter
    return gaussian_filter(arr, sigma=SMOOTH_SIGMA)


def generate_phantom(spec: PhantomSpec):
    """Build (modality volumes, label map) realizing the spec's ratios.

    Component ratios land within round-off of the targets (well under the
    2 percent tolerance): label voxel counts are assigned exactly from the
    sorted ellipsoidal-radius order.
    """
    rng = np.random.default_rng(spec.seed)
    labels = _assign_labels(spec, rng)
    affine = np.diag([*SPACING, 1.0])
    lm = LabelMap(labels, SPACING, affine)
    vols = {}
    for modality in spec.modalities:
        arr = _synth_modality(labels, DEFAULT_INTENSITIES[modality],
                              spec.heterogeneity, rng)
        vols[modality] = Volume(arr, SPACING, affine)
    return vols, lm


def sample_cohort_ratios(grade: int, rng: np.random.Generator) -> dict:
    """Draw one subject's per-label ratios (percent, summing to 100)."""
    raw = {}
    for lab in TUMOR_LABELS:
        p_zero, lo, hi = COHORT_RATIO_MODEL[grade][lab]
        if rng.random() < p_zero:
            raw[lab] = 0.0
        else:
            raw[lab] = rng.uniform(lo, hi)
    total = sum(raw.values())
    return {lab: 100.0 * v / total for lab, v in raw.items()}


def cohort_specs(n_per_grade=(18, 14, 25), base_seed: int = 0) -> list:
    """Every subject's (subject_id, PhantomSpec), in cohort order.

    ``n_per_grade`` maps onto grades (II, III, IV).  Each subject gets its
    own derived seed, so cohorts are reproducible and subjects independent.
    Sizes the model cannot build raise ValueError here, before any volume
    is made.
    """
    if min(n_per_grade) < 3:
        raise ValueError("need at least 3 subjects per grade")
    specs = []
    for grade, n in zip(GRADES, n_per_grade):
        for i in range(n):
            seed_seq = np.random.SeedSequence([base_seed, grade, i])
            rng = np.random.default_rng(seed_seq)
            ratios = sample_cohort_ratios(grade, rng)
            het = float(np.clip(HETEROGENEITY[grade] + rng.uniform(-0.03, 0.03),
                                0.02, 0.6))
            spec = PhantomSpec(grade=grade, ratios=ratios, heterogeneity=het,
                               seed=int(rng.integers(2 ** 31)))
            specs.append((f"g{grade}_{i:03d}", spec))
    return specs


def _build_subject(subject_id: str, spec: PhantomSpec) -> PhantomSubject:
    vols, lm = generate_phantom(spec)
    return PhantomSubject(subject_id, spec.grade, vols, lm)


def generate_cohort(n_per_grade=(18, 14, 25), base_seed: int = 0) -> Cohort:
    """Generate a graded cohort with per-subject jittered composition; the
    subjects of ``cohort_specs``, all held in memory."""
    return Cohort(tuple(_build_subject(*item) for item in
                        cohort_specs(n_per_grade, base_seed)))


def smooth_blob_volume(dims=(32, 32, 32), spacing=(1.0, 1.0, 1.0),
                       seed: int = 0) -> Volume:
    """Structured test volume: a sum of random Gaussian bumps.

    Used as registration ground-truth material.  Bump widths around a couple
    of voxels give the mutual-information surface enough curvature in the
    rotation directions to resolve sub-degree errors.
    """
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    # open grids: each axis's coordinates once, broadcast in the sum
    grids = np.ix_(*(np.arange(d) * s for d, s in zip(dims, spacing)))
    extent = np.asarray(dims) * np.asarray(spacing)
    arr = np.zeros(dims)
    for _ in range(N_BLOBS):
        pos = extent * rng.uniform(0.15, 0.85, size=3)
        sig = rng.uniform(*BLOB_SIGMA_RANGE) * float(np.mean(spacing))
        amp = rng.uniform(40.0, 120.0)
        d2 = sum((g - p) ** 2 for g, p in zip(grids, pos))
        arr += amp * np.exp(-d2 / (2.0 * sig * sig))
    return Volume(arr, spacing, np.diag([*spacing, 1.0]))


# The most workers worker_count() returns, for phantom's and train-eval's
# processes.  Workers beyond the usable CPUs gain nothing: on a 2-core host
# a whole `phantom` run on the 18/14/25 cohort took 1.09 s on 1 worker and
# 0.82 s on 2 or 4 (medians of 10 fresh interpreters each).  The cap bounds
# the subjects held at once and the processes started on larger hosts,
# where no worker count has been measured.
MAX_WORKERS = 4


def worker_count() -> int:
    """The usable CPUs, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call (macOS, Windows)
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_WORKERS))


def worker_map(fn, items: list, workers: int):
    """``fn`` over ``items`` on up to ``workers`` worker processes; yields
    the results in input order.

    One worker runs in the calling process, with no pool.  A pool starts all
    its workers at once, so it gets no more than there are items.  Once
    ``fn`` raises, or the caller stops reading, the items still queued are
    cancelled: ``Executor.map`` cancels them when it is closed.  Forked
    workers inherit the caller's modules: load what ``fn`` imports first.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _write_subject(sub: PhantomSubject, outdir: Path) -> list:
    """Write one subject's label map and volumes; returns its manifest row."""
    seg_name = f"{sub.subject_id}_seg.nii.gz"
    save_labelmap(sub.labelmap, outdir / seg_name)
    row = [sub.subject_id, str(sub.grade), seg_name]
    for modality, vol in sub.volumes.items():
        name = f"{sub.subject_id}_{modality}.nii.gz"
        save_volume(vol, outdir / name)
        row.append(name)
    return row


def _write_manifest(outdir: Path, modalities, rows) -> Path:
    table = [["subject_id", "grade", "labelmap", *modalities], *rows]
    return write_csv(outdir / "manifest.csv", table)


def write_cohort(cohort: Cohort, outdir) -> Path:
    """Write all volumes/label maps as .nii.gz plus a manifest CSV.

    Returns the manifest path.  Manifest columns: subject_id, grade,
    labelmap, then one column per modality; paths are relative to the
    manifest's directory.  The manifest is written last, so it names only
    files that exist.
    """
    outdir = Path(outdir)
    rows = [_write_subject(sub, outdir) for sub in cohort.subjects]
    return _write_manifest(outdir, list(cohort.subjects[0].volumes), rows)


def _build_and_write(item, outdir: Path) -> list:
    """Build and write one (subject_id, PhantomSpec) pair; returns only its
    manifest row, so no volume crosses back from a worker process."""
    return _write_subject(_build_subject(*item), outdir)


def stream_cohort(specs, outdir, workers: int) -> Path:
    """Build and write the subjects of ``specs`` on ``worker_map``'s
    ``workers`` processes, then the manifest; the same files as
    ``write_cohort`` of the same subjects, byte for byte, for any
    ``workers``.  Each worker holds one subject at a time.  If a subject
    fails, no manifest is written.
    """
    outdir = Path(outdir)
    rows = list(worker_map(partial(_build_and_write, outdir=outdir), specs,
                           workers))
    return _write_manifest(outdir, specs[0][1].modalities, rows)


def read_manifest(path):
    """Parse a cohort manifest; returns (rows, modalities).

    Each row is a dict with subject_id, grade (one of ``GRADES``) and
    absolute paths for the label map and every modality.
    """
    path = Path(path)
    fixed = {"subject_id": str, "grade": GRADES, "labelmap": str}
    records = read_csv(path, fixed, key=("subject_id",))
    modalities = [c for c in (records[0] if records else ()) if c not in fixed]
    rows = []
    for rec in records:
        row = {"subject_id": rec["subject_id"], "grade": rec["grade"],
               "labelmap": str((path.parent / rec["labelmap"]).resolve())}
        for m in modalities:
            row[m] = str((path.parent / rec[m]).resolve())
        rows.append(row)
    return rows, modalities
