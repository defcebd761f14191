import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomics import registration
from gliomics.errors import InsufficientOverlap
from gliomics.phantom import generate_cohort, smooth_blob_volume
from gliomics.registration import (MIN_OVERLAP_FRACTION, EsConfig, MiConfig,
                                   RigidTransform, _MiEvaluator,
                                   _sample_index, register_rigid,
                                   subtraction_map)
from gliomics.volume import Volume, resample

small_angles = st.floats(-0.5, 0.5, allow_nan=False)
small_shifts = st.floats(-20.0, 20.0, allow_nan=False)


@pytest.fixture(scope="module")
def blob24():
    return smooth_blob_volume(dims=(24, 24, 24), seed=4)


@pytest.fixture(scope="module")
def blob32():
    return smooth_blob_volume(dims=(32, 32, 32), seed=4)


def _map(t, points):
    """World points, shape (3,) or (3, n), through ``t``'s homogeneous matrix."""
    m = t.matrix()
    pts = np.asarray(points, dtype=float)
    return m[:3, :3] @ pts + (m[:3, 3] if pts.ndim == 1 else m[:3, 3:4])


class TestTransformAlgebra:
    def test_identity_maps_points_to_themselves(self):
        t = RigidTransform.identity((5.0, 5.0, 5.0))
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]).T
        assert np.allclose(_map(t, pts), pts)

    def test_translation_only(self):
        t = RigidTransform((0, 0, 0), (1.0, -2.0, 3.0))
        assert np.allclose(_map(t, np.zeros(3)), [1.0, -2.0, 3.0])

    def test_rotation_preserves_distance_to_center(self):
        center = (3.0, 4.0, 5.0)
        t = RigidTransform((0.3, -0.2, 0.9), (0, 0, 0), center)
        p = np.array([7.0, 1.0, 2.0])
        before = np.linalg.norm(p - center)
        after = np.linalg.norm(_map(t, p) - center)
        assert after == pytest.approx(before)

    @given(rx=small_angles, ry=small_angles, rz=small_angles,
           tx=small_shifts, ty=small_shifts, tz=small_shifts)
    @settings(max_examples=50, deadline=None)
    def test_inverse_composes_to_identity(self, rx, ry, rz, tx, ty, tz):
        t = RigidTransform((rx, ry, rz), (tx, ty, tz), (1.0, 2.0, 3.0))
        inverse = RigidTransform.from_matrix(np.linalg.inv(t.matrix()),
                                             t.center)
        resid = t.compose(inverse).matrix() - np.eye(4)
        assert np.abs(resid).max() < 1e-9

    @given(rx=small_angles, ry=small_angles, rz=small_angles)
    @settings(max_examples=50, deadline=None)
    def test_params_round_trip(self, rx, ry, rz):
        t = RigidTransform((rx, ry, rz), (4.0, 5.0, 6.0), (0.5, 0.5, 0.5))
        back = RigidTransform.from_params(t.params(), t.center)
        assert np.allclose(back.params(), t.params())
        assert np.allclose(back.matrix(), t.matrix())

    def test_apply_matches_matrix(self):
        # the matrix applies the documented map x -> R(x - c) + c + t
        t = RigidTransform((0.1, 0.2, 0.3), (1, 2, 3), (4, 5, 6))
        pts = np.random.default_rng(0).normal(size=(3, 10))
        rot = t.matrix()[:3, :3]
        assert np.allclose(rot @ rot.T, np.eye(3))
        assert np.linalg.det(rot) == pytest.approx(1.0)
        c, shift = np.c_[list(t.center)], np.c_[list(t.translation)]
        assert np.allclose(_map(t, pts), rot @ (pts - c) + c + shift)

    def test_json_round_trip(self):
        t = RigidTransform((0.1, -0.2, 0.05), (3.0, 2.0, -1.0), (16.0, 16.0, 16.0))
        back = RigidTransform.from_json(t.to_json())
        assert back == t


def mi_and_overlap(fixed, moving, t):
    """MI in bits and the overlap fraction of ``moving`` pushed through
    ``t``, sampled at the fixed voxel centres, as ``register_rigid``
    evaluates them."""
    ev = _MiEvaluator(fixed, moving, _sample_index(fixed, MiConfig()))
    return ev.evaluate(t.matrix())


def mutual_information(fixed, moving, t):
    return mi_and_overlap(fixed, moving, t)[0]


class TestMutualInformation:
    def test_symmetry(self, blob24):
        other = smooth_blob_volume(dims=(24, 24, 24), seed=9)
        ident = RigidTransform.identity(blob24.geometry.world_center())
        ab = mutual_information(blob24, other, ident)
        ba = mutual_information(other, blob24, ident)
        assert abs(ab - ba) < 1e-9

    def test_self_alignment_beats_misalignment(self, blob24):
        center = blob24.geometry.world_center()
        ident = RigidTransform.identity(center)
        shifted = RigidTransform((0, 0, 0), (4.0, 0, 0), tuple(center))
        assert mutual_information(blob24, blob24, ident) > \
            mutual_information(blob24, blob24, shifted)

    def test_nonnegative(self, blob24):
        other = smooth_blob_volume(dims=(24, 24, 24), seed=99)
        ident = RigidTransform.identity(blob24.geometry.world_center())
        assert mutual_information(blob24, other, ident) >= 0.0

    def test_overlap_gate(self, blob24):
        # no sample lands in the moving volume: register_rigid's gate
        # (test_insufficient_initial_overlap) rejects such a start
        t = RigidTransform((0, 0, 0), (100.0, 0, 0))
        _, overlap = mi_and_overlap(blob24, blob24, t)
        assert overlap < MIN_OVERLAP_FRACTION

    def test_bins_config_validated(self):
        with pytest.raises(ValueError):
            MiConfig(sample_fraction=0.0)


class TestRegisterRigid:
    def test_identical_volumes_return_exact_identity(self, blob32):
        t = register_rigid(blob32, blob32, mi=MiConfig(sample_fraction=0.5),
                           es=EsConfig(seed=1))
        assert np.all(t.params() == 0.0)

    def test_translation_recovery(self, blob32):
        true = RigidTransform((0, 0, 0), (3.0, -2.0, 0.0),
                              tuple(blob32.geometry.world_center()))
        moved = resample(blob32, blob32.geometry, mode="linear",
                         world_map=true.matrix())
        rec = register_rigid(blob32, moved, mi=MiConfig(sample_fraction=0.5),
                             es=EsConfig(seed=2))
        resid = rec.compose(true).params()
        assert np.abs(resid[3:]).max() <= 0.5  # within half a voxel

    def test_trace_is_non_decreasing(self, blob32):
        true = RigidTransform((0.04, 0, 0), (2.0, 1.0, 0.0),
                              tuple(blob32.geometry.world_center()))
        moved = resample(blob32, blob32.geometry, mode="linear",
                         world_map=true.matrix())
        _, trace = register_rigid(blob32, moved,
                                  mi=MiConfig(sample_fraction=0.5),
                                  es=EsConfig(seed=3), return_trace=True)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_seed_determinism(self, blob32):
        true = RigidTransform((0, 0, 0.03), (1.0, 0.0, -1.0),
                              tuple(blob32.geometry.world_center()))
        moved = resample(blob32, blob32.geometry, mode="linear",
                         world_map=true.matrix())
        kw = dict(mi=MiConfig(sample_fraction=0.5), es=EsConfig(seed=7))
        a = register_rigid(blob32, moved, **kw)
        b = register_rigid(blob32, moved, **kw)
        assert a == b  # bit-identical, not merely close

    @pytest.mark.parametrize("k", [1, 40, 450])
    def test_max_iters_bounds_both_levels(self, blob24, monkeypatch, k):
        true = RigidTransform((0.03, 0, 0), (1.5, -1.0, 0.5),
                              tuple(blob24.geometry.world_center()))
        moved = resample(blob24, blob24.geometry, mode="linear",
                         world_map=true.matrix())
        calls = []
        real = registration.map_coordinates

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "map_coordinates", counting)
        monkeypatch.setattr(registration, "MAX_EVALS", k)
        # unbounded, this search spends 348 candidates on the coarse level
        # and 209 on the full-resolution one, so 450 reaches both
        register_rigid(blob24, moved, es=EsConfig(seed=5))
        # one interpolation per candidate, plus five that are not: the
        # fixed image at both levels, the starting pose at both levels and
        # the hand-over pose at full resolution
        assert len(calls) <= k + 5

    def test_aligned_phantom_pairs_stay_put(self):
        # t1_pre and t1_post share one label map, so the true transform is
        # the identity; on the bare voxel grid MI drifts 1.8-2.7 degrees
        cohort = generate_cohort(n_per_grade=(3, 3, 3), base_seed=0)
        worst = []
        for subject in cohort.subjects:
            post = subject.volumes["t1_post"]
            pre = subject.volumes["t1_pre"]
            p = register_rigid(post, pre, MiConfig(), EsConfig(seed=0)).params()
            worst.append((float(np.abs(p[:3]).max()),
                          float(np.abs(p[3:]).max())))
        assert len(worst) == 9
        assert max(deg for deg, _ in worst) <= 0.5
        assert max(mm for _, mm in worst) <= 0.5

    def test_insufficient_initial_overlap(self, blob24):
        # the moving volume lies 200 mm off the fixed grid, so the identity
        # start maps no fixed sample into it
        affine = np.diag([*blob24.spacing, 1.0])
        affine[0, 3] = 200.0
        far = Volume(blob24.data, blob24.spacing, affine)
        with pytest.raises(InsufficientOverlap, match="initial overlap"):
            register_rigid(blob24, far)


class TestSubtractionMap:
    def test_identity_self_subtraction_is_zero(self, blob24):
        ident = RigidTransform.identity(blob24.geometry.world_center())
        sub = subtraction_map(blob24, blob24, ident)
        assert np.all(sub.data == 0.0)

    def test_clamp_is_exact(self, blob24):
        ident = RigidTransform.identity(blob24.geometry.world_center())
        post = blob24.with_data(blob24.data * 0.5)  # post darker than pre
        sub = subtraction_map(blob24, post, ident)
        assert np.all(sub.data >= 0.0)
        # where pre exceeds post, the difference must clamp to exactly zero
        assert np.all(sub.data[blob24.data > 0] == 0.0)

    def test_enhancement_survives(self, blob24):
        ident = RigidTransform.identity(blob24.geometry.world_center())
        post = blob24.with_data(blob24.data + 10.0)
        sub = subtraction_map(blob24, post, ident)
        assert np.allclose(sub.data, 10.0)

    def test_output_on_post_grid(self, blob24):
        coarse = Volume(blob24.data[::2, ::2, ::2], (2.0, 2.0, 2.0),
                        np.diag([2.0, 2.0, 2.0, 1.0]))
        ident = RigidTransform.identity(coarse.geometry.world_center())
        sub = subtraction_map(blob24, coarse, ident)
        assert sub.geometry.matches(coarse.geometry)
