import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomics import phantom
from gliomics.errors import InfeasibleRatios
from gliomics.nifti import read_nifti
from gliomics.phantom import (MAX_WORKERS, MEDIAN_RATIOS, PhantomSpec,
                              cohort_specs, generate_cohort, generate_phantom,
                              read_manifest, sample_cohort_ratios,
                              smooth_blob_volume, stream_cohort,
                              worker_count, write_cohort)

OFFSETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def realized_ratios(lm):
    labeled = lm.data[lm.data > 0]
    return {lab: 100.0 * np.sum(labeled == lab) / labeled.size
            for lab in range(1, 6)}


class TestSpec:
    def test_median_ratios_fill_in(self):
        spec = PhantomSpec(grade=3)
        assert spec.ratios == MEDIAN_RATIOS[3]

    def test_ratio_sum_over_100_rejected(self):
        with pytest.raises(InfeasibleRatios):
            PhantomSpec(grade=2, ratios={1: 60.0, 2: 50.0})

    def test_bad_grade_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(grade=5)


class TestGeneratePhantom:
    def test_same_seed_bit_identical(self, small_phantom):
        vols, lm = small_phantom
        vols2, lm2 = generate_phantom(PhantomSpec(grade=4, seed=5))
        assert np.array_equal(lm2.data, lm.data)
        for m in vols:
            assert np.array_equal(vols2[m].data, vols[m].data)

    def test_different_seeds_differ(self):
        _, a = generate_phantom(PhantomSpec(grade=4, seed=1))
        _, b = generate_phantom(PhantomSpec(grade=4, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_ratios_realized_within_two_points(self, small_phantom):
        _, lm = small_phantom
        got = realized_ratios(lm)
        targets = MEDIAN_RATIOS[4]
        # labels with explicit targets land on them; label 3 takes whatever
        # share of the envelope the others leave unallocated
        for lab in (1, 2, 4, 5):
            assert abs(got[lab] - targets[lab]) <= 2.0
        rest = 100.0 - sum(targets[lab] for lab in (1, 2, 4, 5))
        assert abs(got[3] - rest) <= 2.0

    def test_grade_two_is_nearly_all_non_enhancing(self):
        _, lm = generate_phantom(PhantomSpec(grade=2, seed=3))
        got = realized_ratios(lm)
        assert got[3] > 95.0
        for lab in (1, 4, 5):
            assert got[lab] == 0.0

    def test_tumor_never_reaches_volume_faces(self, small_phantom):
        _, lm = small_phantom
        d = lm.data
        for face in (d[0], d[-1], d[:, 0], d[:, -1], d[:, :, 0], d[:, :, -1]):
            assert np.all(face == 0)

    def test_necrosis_nested_inside_enhancing_rim(self, small_phantom):
        _, lm = small_phantom
        d = lm.data
        coords = np.argwhere(d == 5)
        assert len(coords) > 0
        assert coords.min() > 0 and (coords.max(axis=0) < np.array(d.shape) - 1).all()
        for off in OFFSETS:
            neighbors = d[tuple((coords + off).T)]
            assert set(np.unique(neighbors).tolist()) <= {2, 5}

    def test_modalities_share_geometry(self, small_phantom):
        vols, lm = small_phantom
        assert set(vols) == {"t1_pre", "t1_post", "t2"}
        for v in vols.values():
            assert v.geometry.matches(lm.geometry)

    def test_enhancing_brightens_post_contrast(self, small_phantom):
        vols, lm = small_phantom
        mask = lm.data == 2
        pre = vols["t1_pre"].data[mask].mean()
        post = vols["t1_post"].data[mask].mean()
        assert post > pre + 20.0


class TestCohortSampling:
    @given(st.sampled_from([2, 3, 4]), st.integers(0, 10_000))
    @settings(max_examples=200)
    def test_sampled_ratios_form_a_percentage(self, grade, seed):
        ratios = sample_cohort_ratios(grade, np.random.default_rng(seed))
        assert set(ratios) == {1, 2, 3, 4, 5}
        assert all(v >= 0.0 for v in ratios.values())
        assert sum(ratios.values()) == pytest.approx(100.0, abs=1e-9)

    def test_grade_four_always_has_edema_and_enhancement(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ratios = sample_cohort_ratios(4, rng)
            assert ratios[1] > 0.0
            assert ratios[2] > 0.0

    def test_cohort_layout(self, tiny_cohort):
        assert len(tiny_cohort.subjects) == 9
        assert [s.grade for s in tiny_cohort.subjects] == [2] * 3 + [3] * 3 + [4] * 3
        assert tiny_cohort.subjects[0].subject_id == "g2_000"
        assert tiny_cohort.subjects[-1].subject_id == "g4_002"

    def test_cohort_reproducible(self, tiny_cohort):
        again = generate_cohort((3, 3, 3), base_seed=11)
        a = tiny_cohort.subjects[4]
        b = again.subjects[4]
        assert a.subject_id == b.subject_id
        assert np.array_equal(a.labelmap.data, b.labelmap.data)
        assert np.array_equal(a.volumes["t2"].data, b.volumes["t2"].data)

    def test_base_seed_changes_cohort(self, tiny_cohort):
        other = generate_cohort((3, 3, 3), base_seed=12)
        assert not np.array_equal(other.subjects[0].labelmap.data,
                                  tiny_cohort.subjects[0].labelmap.data)

    def test_minimum_three_per_grade(self):
        with pytest.raises(ValueError):
            generate_cohort((2, 3, 3))


class TestCohortIo:
    def test_manifest_round_trip(self, tiny_cohort, tmp_path):
        manifest = write_cohort(tiny_cohort, tmp_path / "cohort")
        rows, modalities = read_manifest(manifest)
        assert len(rows) == 9
        assert modalities == ["t1_pre", "t1_post", "t2"]
        assert [r["grade"] for r in rows] == [2] * 3 + [3] * 3 + [4] * 3
        sub = tiny_cohort.subjects[7]
        row = rows[7]
        assert row["subject_id"] == sub.subject_id
        seg = read_nifti(row["labelmap"])
        assert np.array_equal(seg.data.astype(np.int16), sub.labelmap.data)
        vol = read_nifti(row["t2"])
        assert np.allclose(vol.data, sub.volumes["t2"].data, atol=1e-5)


class TestStreamCohort:
    def test_one_worker_runs_in_the_calling_thread(self, tmp_path,
                                                   monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not start a pool")

        threads = set()

        def record_thread(*args):
            threads.add(threading.current_thread())
            return real_save(*args)

        real_save = phantom.save_volume
        monkeypatch.setattr(phantom, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(phantom, "save_volume", record_thread)
        stream_cohort(cohort_specs((3, 3, 3)), tmp_path, 1)
        assert threads == {threading.current_thread()}
        assert len(read_manifest(tmp_path / "manifest.csv")[0]) == 9


class TestWorkerCount:
    @pytest.mark.parametrize("cpus, expected", [
        (1, 1), (2, min(2, MAX_WORKERS)), (64, MAX_WORKERS)])
    def test_usable_cpus_capped(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        assert worker_count() == expected

    @pytest.mark.parametrize("cpus, expected", [
        (None, 1), (1, 1), (64, MAX_WORKERS)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpus, expected):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count() == expected


class TestSmoothBlobVolume:
    def test_deterministic(self):
        a = smooth_blob_volume(dims=(24, 24, 24), seed=4)
        b = smooth_blob_volume(dims=(24, 24, 24), seed=4)
        assert np.array_equal(a.data, b.data)

    def test_seed_matters(self):
        a = smooth_blob_volume(dims=(24, 24, 24), seed=4)
        b = smooth_blob_volume(dims=(24, 24, 24), seed=5)
        assert not np.array_equal(a.data, b.data)

    def test_geometry_and_range(self):
        v = smooth_blob_volume(dims=(16, 20, 24), spacing=(1.0, 1.5, 2.0))
        assert v.data.shape == (16, 20, 24)
        assert v.spacing == (1.0, 1.5, 2.0)
        assert np.all(v.data >= 0.0)
        assert v.data.max() > 10.0
