from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gliomics.classify import (Standardizer, TrainConfig, fit_standardizer,
                               select_svm_hyperparams)
from gliomics.errors import EmptyMatrix, NoConvergence


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.max_iters == 200
        assert cfg.svm_c_grid == (0.1, 1.0, 10.0, 100.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0},
        {"validation_patience": 0},
        {"cg_restart_interval": -3},
        {"smo_tolerance": 0.0},
        {"smo_max_passes": 0},
        {"svm_c_grid": ()},
        {"svm_c_grid": (1.0, -2.0)},
        {"rbf_gamma_grid": (0.0,)},
        {"max_iters": 2.5},
        {"validation_patience": True},
        {"cg_restart_interval": 0},
        {"smo_tolerance": float("nan")},
        {"svm_c_grid": ("1",)},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestStandardizer:
    def test_zero_mean_unit_sd(self, rng):
        X = rng.normal(loc=5.0, scale=3.0, size=(40, 4))
        z = fit_standardizer(X).apply(X)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        s = fit_standardizer(X)
        assert s.sd[1] == 1.0
        assert np.all(s.apply(X)[:, 1] == 0.0)

    def test_constant_column_exact_zero_at_large_magnitude(self):
        # mean rounding must not fake a tiny sd that explodes unseen data
        X = np.full((7, 1), 699051.2851229429)
        s = fit_standardizer(X)
        assert s.sd[0] == 1.0
        assert np.all(s.apply(X) == 0.0)

    def test_applies_train_statistics_to_new_rows(self):
        s = Standardizer(np.array([10.0, 0.0]), np.array([2.0, 5.0]))
        out = s.apply(np.array([[14.0, -10.0]]))
        assert np.array_equal(out, [[2.0, -2.0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            fit_standardizer(np.empty((0, 4)))

    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
                    min_size=2, max_size=30))
    def test_idempotent_on_standardized_data(self, rows):
        X = np.asarray(rows)
        # columns whose spread sits at float-rounding scale straddle the
        # constant-detection boundary, where idempotence genuinely fails;
        # the contract covers exactly-constant and well-spread columns
        spread = X.max(axis=0) - X.min(axis=0)
        scale = np.maximum(np.abs(X).max(axis=0), 1.0)
        assume(np.all((spread == 0) | (spread > 1e-6 * scale)))
        z = fit_standardizer(X).apply(X)
        # standardizing already-standardized data changes nothing
        z2 = fit_standardizer(z).apply(z)
        assert np.allclose(z2, z, atol=1e-9)


class TestHyperparamSelection:
    def make_split(self, rng):
        centers = [(0.0, 4.0), (-4.0, -2.0), (4.0, -2.0)]
        X, y = [], []
        for label, c in enumerate(centers):
            X.append(rng.normal(c, 0.8, size=(20, 2)))
            y.append(np.full(20, label + 2))     # grade-like values 2..4
        X, y = np.vstack(X), np.concatenate(y)
        tr = np.r_[0:15, 20:35, 40:55]
        va = np.r_[15:20, 35:40, 55:60]
        return X[tr], y[tr], X[va], y[va]

    def test_linear_grid_searches_c_only(self, rng):
        Xt, yt, Xv, yv = self.make_split(rng)
        kern, C, model = select_svm_hyperparams(Xt, yt, Xv, yv, "linear")
        assert kern.name == "linear"
        assert C in TrainConfig().svm_c_grid
        assert np.mean(model.predict(Xv) == yv) >= 0.9

    def test_rbf_grid_scales_gamma_by_dimension(self, rng):
        Xt, yt, Xv, yv = self.make_split(rng)
        cfg = TrainConfig(svm_c_grid=(1.0,), rbf_gamma_grid=(2.0,))
        kern, C, _ = select_svm_hyperparams(Xt, yt, Xv, yv, "rbf", cfg)
        assert kern.gamma == pytest.approx(2.0 / Xt.shape[1])
        assert C == 1.0

    def test_ties_keep_earliest_grid_entry(self, rng):
        # well-separated data: every C reaches perfect validation accuracy,
        # so the first grid value must be returned
        Xt, yt, Xv, yv = self.make_split(rng)
        kern, C, _ = select_svm_hyperparams(Xt, yt, Xv, yv, "linear",
                                            TrainConfig(svm_c_grid=(5.0, 50.0)))
        assert C == 5.0

    def test_deterministic(self, rng):
        Xt, yt, Xv, yv = self.make_split(rng)
        a = select_svm_hyperparams(Xt, yt, Xv, yv, "rbf")
        b = select_svm_hyperparams(Xt, yt, Xv, yv, "rbf")
        assert (a[0], a[1]) == (b[0], b[1])
        assert np.array_equal(a[2].decision_matrix(Xv), b[2].decision_matrix(Xv))

    def test_smo_max_passes_reaches_the_solver(self, rng):
        # overlapping classes at a large C need many sweeps; one sweep of
        # n pair updates is too few, and the limit must say so
        Xt, Xv = rng.normal(size=(30, 2)), rng.normal(size=(6, 2))
        yt, yv = np.repeat([2, 3], 15), np.repeat([2, 3], 3)
        cfg = TrainConfig(svm_c_grid=(100.0,))
        select_svm_hyperparams(Xt, yt, Xv, yv, "linear", cfg)
        with pytest.raises(NoConvergence):
            select_svm_hyperparams(Xt, yt, Xv, yv, "linear",
                                   replace(cfg, smo_max_passes=1))
