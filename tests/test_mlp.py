import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomics.classify import TrainConfig
from gliomics.errors import EmptyMatrix, GliomicsError, SingleClass
from gliomics.mlp import (ARMIJO_C1, GRAD_CHECK_STEP, HIDDEN_UNITS,
                          MAX_BACKTRACKS, VAL_CHECK_INTERVAL, MlpModel,
                          _Columns, _mean_nll, _onehot, _Slot, init_params,
                          loss_and_grad, mlp_gradient_check, train_mlp)


def blobs(rng, n_per_class, centers, sd=0.5):
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(c, sd, size=(n_per_class, len(c))))
        y.append(np.full(n_per_class, label))
    return np.vstack(X), np.concatenate(y)


def zero_model(d=2, k=3):
    h = HIDDEN_UNITS
    return model_of(np.zeros((d + 1) * h + (h + 1) * k), d, k)


def model_of(theta, d, k):
    """The network over classes 0..k-1 whose flat parameters are ``theta``."""
    return MlpModel(theta, d, tuple(range(k)))


def predict(model, X):
    return model.predict_from(model.forward(X))


def loss_at(theta, X, onehot):
    """``loss_and_grad`` at ``theta`` on the rows of ``X``, labelled by the
    one-hot rows of ``onehot``, in buffers made for this call."""
    d, k = X.shape[1], onehot.shape[1]
    return loss_and_grad(_Slot(d, HIDDEN_UNITS, k, theta),
                         _Columns(X, HIDDEN_UNITS, k, onehot))


class TestForward:
    def test_rows_are_distributions(self, rng):
        m = model_of(init_params(2, 3, seed=9), 2, 3)
        probs = m.forward(rng.normal(size=(8, 2)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_zero_weights_give_uniform(self):
        probs = zero_model(k=4).forward(np.array([[3.0, -1.0]]))
        assert np.allclose(probs, 0.25)

    def test_predict_maps_back_to_class_values(self, rng):
        theta = zero_model(d=2, k=2).theta
        reference_layers(theta, 2, HIDDEN_UNITS, 2)[1][-1] = [5.0, 0.0]
        m = MlpModel(theta, 2, (2, 4))
        # bias favors the first output column, so everything maps to class 2
        assert np.all(predict(m, rng.normal(size=(6, 2))) == 2)


class TestInitParams:
    @pytest.mark.parametrize("d, k, seed", [(1, 2, 0), (3, 3, 11),
                                            (14, 2, 7), (70, 3, 2**32 - 1)])
    def test_draws_match_an_independent_layout(self, d, k, seed):
        # the four draws of default_rng(seed), in this order, laid out as
        # [w1; b1] and then [w2; b2], each bias the last row of its layer
        rng = np.random.default_rng(seed)
        h = HIDDEN_UNITS
        lim1, lim2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
        w1 = rng.uniform(-lim1, lim1, size=(d, h))
        b1 = rng.uniform(-lim1, lim1, size=h)
        w2 = rng.uniform(-lim2, lim2, size=(h, k))
        b2 = rng.uniform(-lim2, lim2, size=k)
        want = np.concatenate([np.vstack([w1, b1]).ravel(),
                               np.vstack([w2, b2]).ravel()])
        assert same_bytes(init_params(d, k, seed), want)


class TestLoss:
    def test_uniform_prediction_costs_log_k(self):
        theta = zero_model(k=3).theta
        X = np.array([[1.0, 2.0], [0.0, -1.0]])
        onehot = np.eye(3)[[0, 2]]
        loss, _ = loss_at(theta, X, onehot)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_mean_reduction_ignores_duplication(self, rng):
        theta = init_params(3, 2, seed=4)
        X = rng.normal(size=(5, 3))
        Y = np.eye(2)[rng.integers(2, size=5)]
        lm, gm = loss_at(theta, X, Y)
        ld, gd = loss_at(theta, np.vstack([X, X]), np.vstack([Y, Y]))
        assert ld == pytest.approx(lm, rel=1e-12)
        assert np.allclose(gd, gm, rtol=1e-9)

class TestGradient:
    def test_backprop_matches_central_differences(self, rng):
        m = model_of(init_params(3, 3, seed=11), 3, 3)
        X = rng.normal(size=(6, 3))
        labels = rng.integers(3, size=6)
        assert mlp_gradient_check(m, X, labels) < 1e-5


class TestTraining:
    def test_separated_blobs_learned(self, rng):
        X, y = blobs(rng, 20, [(0.0, 3.0), (-3.0, -2.0), (3.0, -2.0)], sd=0.5)
        model = train_mlp(X, y, X, y, seed=0)
        assert np.mean(predict(model, X) == y) >= 0.95

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
        got, _ = loss_at(model.theta, X, onehot)
        assert got <= min(hist["val_loss"]) + 1e-12

    def test_seed_determinism(self, rng):
        X, y = blobs(rng, 10, [(-2.0, 1.0), (2.0, -1.0)])
        a = train_mlp(X, y, X, y, seed=7)
        b = train_mlp(X, y, X, y, seed=7)
        assert np.array_equal(a.theta, b.theta)

    def test_seeds_change_the_fit(self, rng):
        X, y = blobs(rng, 10, [(-2.0, 1.0), (2.0, -1.0)])
        a = train_mlp(X, y, X, y, seed=1)
        b = train_mlp(X, y, X, y, seed=2)
        assert not np.array_equal(a.theta, b.theta)

    def test_classes_sorted_from_labels(self, rng):
        X, y = blobs(rng, 5, [(-3.0,), (0.0,), (3.0,)], sd=0.2)
        grades = np.array([4, 2, 3])[y.astype(int)]
        model = train_mlp(X, grades, X, grades,
                          cfg=TrainConfig(max_iters=20))
        assert model.classes == (2, 3, 4)
        assert set(predict(model, X)) <= {2, 3, 4}

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(6, 2))
        with pytest.raises(SingleClass):
            train_mlp(X, np.ones(6), X, np.ones(6))

    def test_validation_label_unknown_to_training_rejected(self, rng):
        X, y = blobs(rng, 6, [(-2.0,), (2.0,)])
        y_val = np.array([0, 1, 2])
        with pytest.raises(GliomicsError, match="label 2 ") as info:
            train_mlp(X, y, X[:3], y_val)
        assert not isinstance(info.value, KeyError)

    def test_empty_validation_set_rejected(self, rng):
        X, y = blobs(rng, 6, [(-2.0,), (2.0,)])
        with pytest.raises(EmptyMatrix):
            train_mlp(X, y, X[:0], y[:0])

    def test_iteration_budget_respected(self, rng):
        X, y = blobs(rng, 10, [(-1.0,), (1.0,)], sd=1.0)
        cfg = TrainConfig(max_iters=7, validation_patience=100)
        _, hist = train_mlp(X, y, X, y, cfg=cfg, return_history=True)
        assert len(hist["train_loss"]) <= 8   # initial loss + 7 iterations


# Reference copy of the plain-expression network and its conjugate-gradient
# loop, in the module's column layout: one column per sample, each bias the
# last row of its layer's matrix, multiplied by a row of ones.  The module
# computes the same floats in place; these must agree with it byte for byte.

def reference_layers(theta, d, h, k):
    split = (d + 1) * h
    return theta[:split].reshape(d + 1, h), theta[split:].reshape(h + 1, k)


def over_ones(A):
    """``A`` over a row of ones, in C order as the module's buffers are: a
    product's float order depends on its operands' memory order."""
    return np.ascontiguousarray(np.vstack([A, np.ones((1, A.shape[1]))]))


def reference_forward(X, W1, W2):
    """Inputs and hidden activations, each over a row of ones, and the
    class probabilities, columns summing to 1."""
    x = over_ones(X.T)
    hidden = over_ones(np.tanh(np.dot(W1.T, x)))
    logits = np.dot(W2.T, hidden)
    logits = logits - logits.max(axis=0)
    e = np.exp(logits)
    return x, hidden, e / e.sum(axis=0)


def reference_cross_entropy(probs, onehot):
    """Over k x n probabilities and their n x k one-hot labels."""
    p = np.clip(probs, 1e-300, None)
    return -float(np.mean(np.sum(onehot.T * np.log(p), axis=0)))


def reference_loss_and_grad(theta, X, onehot, d, h, k):
    W1, W2 = reference_layers(theta, d, h, k)
    x, hidden, probs = reference_forward(X, W1, W2)
    loss = reference_cross_entropy(probs, onehot)
    g_logits = (probs - onehot.T) / len(X)
    g_W2 = np.dot(hidden, g_logits.T)
    z = hidden[:h]
    g_hidden = np.dot(W2[:h], g_logits) * (1.0 - z * z)
    g_W1 = np.dot(x, g_hidden.T)
    return loss, np.concatenate([g_W1.ravel(), g_W2.ravel()])


def row_form_loss_and_grad(theta, X, onehot, d, h, k):
    """The same loss in row layout, with the biases added after the
    products: the same math, in another float order."""
    W1, W2 = reference_layers(theta, d, h, k)
    w1, b1, w2, b2 = W1[:d], W1[d], W2[:h], W2[h]
    z = np.tanh(X @ w1 + b1)
    logits = z @ w2 + b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    p = np.clip(probs, 1e-300, None)
    loss = float(np.mean(-np.sum(onehot * np.log(p), axis=1)))
    g_logits = (probs - onehot) / len(X)
    g_hidden = (g_logits @ w2.T) * (1.0 - z * z)
    grad = np.empty_like(theta)
    G1, G2 = reference_layers(grad, d, h, k)
    G1[:d], G1[d] = X.T @ g_hidden, g_hidden.sum(axis=0)
    G2[:h], G2[h] = z.T @ g_logits, g_logits.sum(axis=0)
    return loss, grad


def reference_train_mlp(X, labels, X_val, labels_val, cfg, seed):
    classes = tuple(sorted(np.unique(labels).tolist()))
    Y, Y_val = _onehot(labels, classes), _onehot(labels_val, classes)
    d, k, h = X.shape[1], len(classes), HIDDEN_UNITS
    theta = init_params(d, k, seed)
    restart = theta.size
    loss, grad = reference_loss_and_grad(theta, X, Y, d, h, k)
    direction = -grad
    step = 1.0
    history = {"train_loss": [loss], "val_loss": []}

    def val_loss(t):
        return reference_cross_entropy(
            reference_forward(X_val, *reference_layers(t, d, h, k))[2], Y_val)

    best_val = val_loss(theta)
    best_theta = theta.copy()
    history["val_loss"].append(best_val)
    stale_checks = 0
    for it in range(1, cfg.max_iters + 1):
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = float(grad @ direction)
            if slope >= 0.0:
                break
        t = min(2.0 * step, 10.0)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = theta + t * direction
            new_loss, new_grad = reference_loss_and_grad(cand, X, Y, d, h, k)
            if np.isfinite(new_loss) and \
                    new_loss <= loss + ARMIJO_C1 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        step = t
        beta = max(0.0, float(new_grad @ (new_grad - grad))
                   / max(float(grad @ grad), 1e-300))
        theta, loss = cand, new_loss
        grad = new_grad
        direction = -grad if it % restart == 0 else -grad + beta * direction
        history["train_loss"].append(loss)
        if it % VAL_CHECK_INTERVAL == 0:
            vl = val_loss(theta)
            history["val_loss"].append(vl)
            if vl < best_val - 1e-12:
                best_val, best_theta = vl, theta.copy()
                stale_checks = 0
            else:
                stale_checks += 1
                if stale_checks >= cfg.validation_patience:
                    break
    if val_loss(theta) < best_val:
        best_theta = theta.copy()
    return best_theta, history


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def problems(draw, max_n=60, max_d=70):
    """A labelled problem of n rows, d features and k classes, every class
    present, plus a validation set; features span tiny to saturating."""
    n = draw(st.integers(4, max_n))
    d = draw(st.integers(1, max_d))
    k = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((0.01, 1.0, 30.0)))
    X = rng.normal(0.0, scale, size=(n, d))
    labels = rng.integers(k, size=n)
    labels[:k] = np.arange(k)
    n_val = draw(st.integers(1, 12))
    X_val = rng.normal(0.0, scale, size=(n_val, d))
    labels_val = rng.integers(k, size=n_val)
    return X, labels, X_val, labels_val


class TestAgainstReference:
    @given(problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradient_are_byte_equal(self, problem, seed):
        X, labels, _, _ = problem
        d, k = X.shape[1], int(labels.max()) + 1
        Y = _onehot(labels, tuple(range(k)))
        theta = init_params(d, k, seed)
        loss, grad = loss_at(theta, X, Y)
        ref_loss, ref_grad = reference_loss_and_grad(theta, X, Y, d,
                                                     HIDDEN_UNITS, k)
        assert same_bytes(loss, ref_loss)
        assert same_bytes(grad, ref_grad)
        probs = model_of(theta, d, k).forward(X)
        ref_probs = reference_forward(
            X, *reference_layers(theta, d, HIDDEN_UNITS, k))[2]
        assert same_bytes(probs, ref_probs.T)
        # the validation loss of train_mlp
        val_loss = _mean_nll(probs, np.flatnonzero(Y), np.empty(len(X)))
        assert same_bytes(val_loss, reference_cross_entropy(ref_probs, Y))

    @given(problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradient_match_the_row_form(self, problem, seed):
        # the column layout only reorders the float operations
        X, labels, _, _ = problem
        d, k = X.shape[1], int(labels.max()) + 1
        Y = _onehot(labels, tuple(range(k)))
        theta = init_params(d, k, seed)
        loss, grad = loss_at(theta, X, Y)
        row_loss, row_grad = row_form_loss_and_grad(theta, X, Y, d,
                                                    HIDDEN_UNITS, k)
        assert loss == pytest.approx(row_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, row_grad, rtol=1e-12, atol=1e-12)

    @given(problems(), st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_training_is_byte_equal(self, problem, seed, patience):
        X, labels, X_val, labels_val = problem
        cfg = TrainConfig(max_iters=200, validation_patience=patience)
        self.assert_fits_agree(X, labels, X_val, labels_val, cfg, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_training_past_the_periodic_restart_is_byte_equal(self, rng,
                                                              seed):
        # d = 1 and k = 2 give P = 82 parameters, and a validation set equal
        # to the training set keeps improving, so all 200 iterations run
        # and the directions restart at iterations 82 and 164
        X, y = blobs(rng, 10, [(-1.0,), (1.0,)], sd=1.0)
        hist = self.assert_fits_agree(X, y, X, y, TrainConfig(), seed)
        assert init_params(1, 2, seed).size == 82
        assert len(hist["train_loss"]) == 201

    @staticmethod
    def assert_fits_agree(X, labels, X_val, labels_val, cfg, seed):
        model, hist = train_mlp(X, labels, X_val, labels_val, cfg, seed,
                                return_history=True)
        ref_theta, ref_hist = reference_train_mlp(X, labels, X_val,
                                                  labels_val, cfg, seed)
        assert same_bytes(model.theta, ref_theta)
        assert same_bytes(hist["train_loss"], ref_hist["train_loss"])
        assert same_bytes(hist["val_loss"], ref_hist["val_loss"])
        return hist

    @pytest.mark.parametrize("d, k, seed", [(1, 2, 0), (3, 3, 11),
                                            (14, 2, 7)])
    def test_gradient_check_is_byte_equal_and_reads_only(self, d, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(9, d))
        labels = np.arange(9) % k
        model = model_of(init_params(d, k, seed), d, k)
        before = model.theta.tobytes()
        got = mlp_gradient_check(model, X, labels)
        assert model.theta.tobytes() == before
        # the same central difference over the reference loss
        Y = _onehot(labels, model.classes)
        theta = model.theta
        _, analytic = reference_loss_and_grad(theta, X, Y, d, HIDDEN_UNITS,
                                              k)
        numeric = np.empty_like(analytic)
        for i in range(theta.size):
            tp = theta.copy(); tp[i] += GRAD_CHECK_STEP
            tm = theta.copy(); tm[i] -= GRAD_CHECK_STEP
            lp, _ = reference_loss_and_grad(tp, X, Y, d, HIDDEN_UNITS, k)
            lm, _ = reference_loss_and_grad(tm, X, Y, d, HIDDEN_UNITS, k)
            numeric[i] = (lp - lm) / (2.0 * GRAD_CHECK_STEP)
        scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        want = float(np.max(np.abs(analytic - numeric) / scale))
        assert same_bytes(got, want)


class TestFitsShareNoBuffers:
    """Each fit makes its own buffers: a model never changes after it is
    returned, and concurrent fits give the serial bytes."""

    def problems(self, rng):
        out = []
        for d in (2, 5):
            X, y = blobs(rng, 12, [(-1.0,) * d, (1.0,) * d, (0.0,) * d],
                         sd=1.0)
            out.append((X, y, X[::2], y[::2]))
        return out

    def test_model_unchanged_by_a_later_fit(self, rng):
        first, second = self.problems(rng)
        model = train_mlp(*first, seed=1)
        before = model.theta.copy()
        train_mlp(*second, seed=2)
        assert same_bytes(model.theta, before)

    def test_concurrent_fits_give_serial_bytes(self, rng):
        problems = self.problems(rng) * 2
        serial = [train_mlp(*p, seed=i).theta for i, p in
                  enumerate(problems)]
        results = [None] * len(problems)

        def fit(i):
            results[i] = train_mlp(*problems[i], seed=i).theta

        threads = [threading.Thread(target=fit, args=(i,))
                   for i in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads mid-step
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert same_bytes(got, want)
