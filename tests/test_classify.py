from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from gliomics import svm
from gliomics.classify import (Standardizer, TrainConfig, fit_standardizer,
                               select_svm_hyperparams)
from gliomics.errors import EmptyMatrix, NoConvergence
from gliomics.svm import Kernel, train_ova


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.max_iters == 200
        assert cfg.svm_c_grid == (0.1, 1.0, 10.0, 100.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0},
        {"validation_patience": 0},
        {"smo_tolerance": 0.0},
        {"smo_max_passes": 0},
        {"svm_c_grid": ()},
        {"svm_c_grid": (1.0, -2.0)},
        {"rbf_gamma_grid": (0.0,)},
        {"max_iters": 2.5},
        {"validation_patience": True},
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


def search_problem(n_classes, kernel_name, d, spread, seed, n_tr, n_val,
                   c_grid, gamma_grid):
    """A search's inputs: ``n_classes`` grades (2, 3, ...) with ``n_tr``
    training and ``n_val`` validation rows each, drawn around centers
    ``spread`` apart in ``d`` dimensions, and a config with the two grids."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, spread, size=(n_classes, d))
    y_tr = np.repeat(np.arange(2, 2 + n_classes), n_tr)
    y_val = np.repeat(np.arange(2, 2 + n_classes), n_val)
    X_tr = centers[y_tr - 2] + rng.normal(size=(len(y_tr), d))
    X_val = centers[y_val - 2] + rng.normal(size=(len(y_val), d))
    cfg = TrainConfig(svm_c_grid=tuple(c_grid),
                      rbf_gamma_grid=tuple(gamma_grid))
    return X_tr, y_tr, X_val, y_val, kernel_name, cfg


def exhaustive_scan(X_tr, y_tr, X_val, y_val, kernel_name, cfg):
    """Every grid point in search order, each fitted afresh: a list of
    (validation accuracy, kernel, C, OvaSvm), with None for a point whose
    solve raised NoConvergence."""
    d = X_tr.shape[1]
    if kernel_name == "linear":
        kernels = [Kernel("linear")]
    else:
        kernels = [Kernel("rbf", gamma=m / d) for m in cfg.rbf_gamma_grid]
    points = []
    for kern in kernels:
        for C in cfg.svm_c_grid:
            try:
                [model], _ = train_ova(X_tr, y_tr, kern, [C],
                                       tol=cfg.smo_tolerance,
                                       max_passes=cfg.smo_max_passes)
            except NoConvergence:
                points.append(None)
                continue
            acc = float(np.mean(model.predict(X_val) == y_val))
            points.append((acc, kern, C, model))
    return points


def first_perfect(points):
    """Index of the first point that classifies every validation row, or
    None."""
    return next((k for k, p in enumerate(points)
                 if p is not None and p[0] == 1.0), None)


# one pinned draw each where the first perfect grid point is the first
# point, a later one, and none
STOPS = {
    "first": search_problem(3, "linear", 2, 16.0, 0, 6, 2,
                            (0.1, 1.0, 10.0), (1.0,)),
    # at the second gamma's first C
    "later": search_problem(3, "rbf", 2, 3.0, 10, 6, 3,
                            (0.01, 0.1, 1.0, 10.0), (0.25, 1.0, 4.0)),
    "never": search_problem(2, "linear", 3, 0.0, 3, 6, 3,
                            (0.1, 1.0, 10.0, 100.0), (1.0,)),
}


@st.composite
def searches(draw):
    """Search inputs over both kernels, 2 or 3 grades and centers from on
    top of each other to far apart.  An ascending C grid, and the full
    one most of all, first tries the small C values that misclassify most,
    so the first perfect point comes later."""
    c_grids = st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
                       min_size=1, max_size=4)
    return search_problem(
        n_classes=draw(st.integers(2, 3)),
        kernel_name=draw(st.sampled_from(["linear", "rbf"])),
        d=draw(st.integers(1, 4)),
        spread=draw(st.sampled_from([0.0, 2.0, 3.0, 4.0, 16.0])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        n_tr=draw(st.integers(2, 8)),
        n_val=draw(st.integers(1, 3)),
        c_grid=draw(st.one_of(st.just([0.01, 0.1, 1.0, 10.0, 100.0]),
                              c_grids.map(sorted), c_grids)),
        gamma_grid=draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]),
                                 min_size=1, max_size=3)))


class TestSearchStop:
    @given(searches())
    @example(STOPS["first"])
    @example(STOPS["later"])
    @example(STOPS["never"])
    @settings(max_examples=200, deadline=None)
    def test_same_choice_and_scores_as_the_exhaustive_scan(self, problem):
        X_tr, y_tr, X_val, y_val = problem[:4]
        points = exhaustive_scan(*problem)
        stop = first_perfect(points)
        event("first perfect point: " + ("none" if stop is None else
                                         "first" if stop == 0 else "later"))
        scanned = points if stop is None else points[:stop + 1]
        if None in scanned:
            # a solve before the stop fails the search as it did the scan
            with pytest.raises(NoConvergence):
                select_svm_hyperparams(*problem)
            return
        accs = [p[0] for p in scanned]
        _, kern, C, ref = scanned[accs.index(max(accs))]
        got_kern, got_C, model = select_svm_hyperparams(*problem)
        assert (got_kern, got_C) == (kern, C)
        rows = np.vstack([X_tr, X_val])
        assert model.decision_matrix(rows).tobytes() == \
            ref.decision_matrix(rows).tobytes()

    @pytest.mark.parametrize("where", list(STOPS))
    def test_pinned_draws_stop_where_named(self, where):
        stop = first_perfect(exhaustive_scan(*STOPS[where]))
        assert {"first": 0, "later": 4, "never": None}[where] == stop

    @pytest.mark.parametrize("kernel_name", ["linear", "rbf"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_perfect_first_point_solves_once_per_class(self, monkeypatch,
                                                       kernel_name,
                                                       n_classes):
        problem = search_problem(n_classes, kernel_name, 2, 16.0, 0, 6, 2,
                                 (0.1, 1.0, 10.0, 100.0), (0.25, 1.0, 4.0))
        assert first_perfect(exhaustive_scan(*problem)) == 0
        calls = []
        solve = svm.smo_solve
        monkeypatch.setattr(svm, "smo_solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        kern, C, _ = select_svm_hyperparams(*problem)
        # a two-class search solves the higher grade only
        assert len(calls) == (1 if n_classes == 2 else n_classes)
        assert C == 0.1
        assert kern.gamma == (None if kernel_name == "linear" else 0.25 / 2)

    def test_solve_before_the_stop_still_raises(self, rng):
        # overlapping training grades: C 1000 needs more than two sweeps of
        # pair updates, C 0.1 does not, and it classifies both far-off
        # validation rows
        Xt = rng.normal(size=(30, 2))
        yt = np.repeat([2, 3], 15)
        Xt[yt == 3, 0] += 1.0
        Xv, yv = np.array([[-5.0, 0.0], [6.0, 0.0]]), np.array([2, 3])
        cfg = TrainConfig(svm_c_grid=(1000.0, 0.1), smo_max_passes=2)
        with pytest.raises(NoConvergence):
            select_svm_hyperparams(Xt, yt, Xv, yv, "linear", cfg)
        # after a perfect point the stalling solve is not run
        _, C, _ = select_svm_hyperparams(
            Xt, yt, Xv, yv, "linear", replace(cfg, svm_c_grid=(0.1, 1000.0)))
        assert C == 0.1
