import numpy as np
import pytest

from gliomics.volumetrics import component_volumes, volume_ratios

from conftest import make_labelmap


def test_volumes_from_counts():
    lm = make_labelmap({1: [(0, 0, 0), (0, 0, 1), (0, 1, 0)],
                        2: [(5, 5, 5)]},
                       spacing=(2.0, 1.0, 1.0))
    cv = component_volumes(lm)
    assert cv.volumes_mm3[1] == pytest.approx(6.0)   # 3 voxels x 2 mm^3
    assert cv.volumes_mm3[2] == pytest.approx(2.0)
    assert cv.volumes_mm3[3] == 0.0
    assert cv.total_mm3 == pytest.approx(8.0)


def test_ratios_sum_to_100():
    lm = make_labelmap({1: [(0, 0, i) for i in range(5)],
                        3: [(1, 0, i) for i in range(3)],
                        5: [(2, 0, i) for i in range(2)]})
    vr = volume_ratios(component_volumes(lm))
    present = [vr.ratios_pct[k] for k in (1, 3, 5)]
    assert sum(present) == pytest.approx(100.0)
    assert vr.ratios_pct[1] == pytest.approx(50.0)
    assert vr.ratios_pct[2] == 0.0
    assert not vr.degenerate


def test_exclude_edema_changes_denominator():
    lm = make_labelmap({1: [(0, 0, 0), (0, 0, 1)], 2: [(3, 3, 3), (3, 3, 4)]})
    with_edema = volume_ratios(component_volumes(lm, include_edema=True))
    without = volume_ratios(component_volumes(lm, include_edema=False))
    assert with_edema.ratios_pct[2] == pytest.approx(50.0)
    assert without.ratios_pct[2] == pytest.approx(100.0)
    # edema stays reported, now relative to the tumor-only denominator
    assert without.ratios_pct[1] == pytest.approx(100.0)
    tumor_sum = sum(without.ratios_pct[k] for k in (2, 3, 4, 5))
    assert tumor_sum == pytest.approx(100.0)


def test_empty_map_flags_degenerate():
    lm = make_labelmap({})
    vr = volume_ratios(component_volumes(lm))
    assert vr.degenerate
    assert all(v == 0.0 for v in vr.ratios_pct.values())


def test_background_never_counted():
    lm = make_labelmap({2: [(1, 1, 1)]})
    cv = component_volumes(lm)
    assert set(cv.volumes_mm3) == {1, 2, 3, 4, 5}
    assert cv.total_mm3 == cv.volumes_mm3[2]
