import numpy as np
import pytest

from gliomics.classify import TrainConfig
from gliomics.errors import SingleClass
from gliomics.mlp import (HIDDEN_UNITS, MlpModel, cross_entropy, init_params,
                          loss_and_grad, mlp_gradient_check, train_mlp)


def blobs(rng, n_per_class, centers, sd=0.5):
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(c, sd, size=(n_per_class, len(c))))
        y.append(np.full(n_per_class, label))
    return np.vstack(X), np.concatenate(y)


def zero_model(d=2, k=3):
    return MlpModel(np.zeros((d, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                    np.zeros((HIDDEN_UNITS, k)), np.zeros(k),
                    tuple(range(k)))


class TestForward:
    def test_rows_are_distributions(self, rng):
        m = zero_model().with_params(init_params(2, 3, seed=9))
        probs = m.forward(rng.normal(size=(8, 2)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_zero_weights_give_uniform(self):
        probs = zero_model(k=4).forward(np.array([[3.0, -1.0]]))
        assert np.allclose(probs, 0.25)

    def test_predict_maps_back_to_class_values(self, rng):
        m = MlpModel(np.zeros((2, HIDDEN_UNITS)), np.zeros(HIDDEN_UNITS),
                     np.zeros((HIDDEN_UNITS, 2)),
                     np.array([5.0, 0.0]), (2, 4))
        # bias favors the first output column, so everything maps to class 2
        assert np.all(m.predict(rng.normal(size=(6, 2))) == 2)

    def test_params_round_trip(self):
        m = zero_model().with_params(init_params(2, 3, seed=1))
        back = m.with_params(m.params())
        assert np.array_equal(back.w1, m.w1)
        assert np.array_equal(back.b1, m.b1)
        assert np.array_equal(back.w2, m.w2)
        assert np.array_equal(back.b2, m.b2)


class TestLoss:
    def test_uniform_prediction_costs_log_k(self):
        m = zero_model(k=3)
        X = np.array([[1.0, 2.0], [0.0, -1.0]])
        onehot = np.eye(3)[[0, 2]]
        assert cross_entropy(m.forward(X), onehot) == \
            pytest.approx(np.log(3.0), abs=1e-12)

    def test_mean_reduction_ignores_duplication(self, rng):
        theta = init_params(3, 2, seed=4)
        X = rng.normal(size=(5, 3))
        Y = np.eye(2)[rng.integers(2, size=5)]
        lm, gm = loss_and_grad(theta, X, Y, 3, HIDDEN_UNITS, 2)
        ld, gd = loss_and_grad(theta, np.vstack([X, X]), np.vstack([Y, Y]),
                               3, HIDDEN_UNITS, 2)
        assert ld == pytest.approx(lm, rel=1e-12)
        assert np.allclose(gd, gm, rtol=1e-9)

class TestGradient:
    def test_backprop_matches_central_differences(self, rng):
        m = zero_model(d=3, k=3).with_params(init_params(3, 3, seed=11))
        X = rng.normal(size=(6, 3))
        labels = rng.integers(3, size=6)
        assert mlp_gradient_check(m, X, labels) < 1e-5


class TestTraining:
    def test_separated_blobs_learned(self, rng):
        X, y = blobs(rng, 20, [(0.0, 3.0), (-3.0, -2.0), (3.0, -2.0)], sd=0.5)
        model = train_mlp(X, y, X, y, seed=0)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_train_loss_never_increases(self, rng):
        X, y = blobs(rng, 15, [(-2.0,), (2.0,)], sd=1.0)
        _, hist = train_mlp(X, y, X, y, seed=2, return_history=True)
        tl = np.asarray(hist["train_loss"])
        assert len(tl) > 1
        assert np.all(np.diff(tl) <= 0.0)

    def test_returned_model_has_best_validation_loss(self, rng):
        X, y = blobs(rng, 15, [(-1.0, 0.0), (1.0, 0.0)], sd=1.5)
        model, hist = train_mlp(X, y, X, y, seed=3, return_history=True)
        onehot = np.eye(2)[y.astype(int)]
        got = cross_entropy(model.forward(X), onehot)
        assert got <= min(hist["val_loss"]) + 1e-12

    def test_seed_determinism(self, rng):
        X, y = blobs(rng, 10, [(-2.0, 1.0), (2.0, -1.0)])
        a = train_mlp(X, y, X, y, seed=7)
        b = train_mlp(X, y, X, y, seed=7)
        assert np.array_equal(a.params(), b.params())

    def test_seeds_change_the_fit(self, rng):
        X, y = blobs(rng, 10, [(-2.0, 1.0), (2.0, -1.0)])
        a = train_mlp(X, y, X, y, seed=1)
        b = train_mlp(X, y, X, y, seed=2)
        assert not np.array_equal(a.params(), b.params())

    def test_classes_sorted_from_labels(self, rng):
        X, y = blobs(rng, 5, [(-3.0,), (0.0,), (3.0,)], sd=0.2)
        grades = np.array([4, 2, 3])[y.astype(int)]
        model = train_mlp(X, grades, X, grades,
                          cfg=TrainConfig(max_iters=20))
        assert model.classes == (2, 3, 4)
        assert set(model.predict(X)) <= {2, 3, 4}

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(6, 2))
        with pytest.raises(SingleClass):
            train_mlp(X, np.ones(6), X, np.ones(6))

    def test_iteration_budget_respected(self, rng):
        X, y = blobs(rng, 10, [(-1.0,), (1.0,)], sd=1.0)
        cfg = TrainConfig(max_iters=7, validation_patience=100)
        _, hist = train_mlp(X, y, X, y, cfg=cfg, return_history=True)
        assert len(hist["train_loss"]) <= 8   # initial loss + 7 iterations
