"""Per-label volumes and their percentages of total tumor volume.

Total tumor volume sums all five labels including edema by default; pass
``include_edema=False`` to restrict the denominator to labels 2..5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import TUMOR_LABELS, LabelMap


@dataclass(frozen=True)
class ComponentVolumes:
    volumes_mm3: dict     # label -> mm^3
    total_mm3: float


@dataclass(frozen=True)
class VolumeRatios:
    ratios_pct: dict      # label -> percent of total
    degenerate: bool      # True when the total volume was zero


def component_volumes(lm: LabelMap, include_edema: bool = True) -> ComponentVolumes:
    """Voxel count per label times the voxel volume, plus their sum."""
    vv = lm.geometry.voxel_volume_mm3()
    counts = np.bincount(lm.data.ravel(), minlength=max(TUMOR_LABELS) + 1)
    vols = {lab: float(counts[lab] * vv) for lab in TUMOR_LABELS}
    labels = TUMOR_LABELS if include_edema else TUMOR_LABELS[1:]
    total = float(sum(vols[lab] for lab in labels))
    return ComponentVolumes(vols, total)


def volume_ratios(cv: ComponentVolumes) -> VolumeRatios:
    """Each label's share of the total, in percent.

    A zero total (empty map) gives all-zero ratios with the degenerate flag
    set rather than an error, so cohort sweeps keep going.
    """
    if cv.total_mm3 <= 0.0:
        return VolumeRatios({lab: 0.0 for lab in cv.volumes_mm3}, True)
    return VolumeRatios(
        {lab: 100.0 * v / cv.total_mm3 for lab, v in cv.volumes_mm3.items()},
        False)
