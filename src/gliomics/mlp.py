"""Single-hidden-layer network (20 tanh units, softmax output) trained by
full-batch Polak-Ribiere conjugate gradient on the cross-entropy loss.

The loss is the mean cross-entropy in nats.  Training keeps the parameter
vector flat so the optimizer and the finite-difference gradient check share
one code path.

A training step is a handful of small matrix products on a few dozen rows,
so its cost is mostly per-call numpy overhead.  The step therefore works in
place: activations and probabilities overwrite their own buffers, the
gradient is written straight into views of one flat vector, and the
conjugate-gradient direction is updated where it lies.  Each in-place form
computes the same floats, in the same order, as the plain expression it
replaces (``tests/test_mlp.py`` keeps that plain form as the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import TrainConfig
from .errors import SingleClass

HIDDEN_UNITS = 20
VAL_CHECK_INTERVAL = 5   # iterations between early-stopping checks
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
GRAD_CHECK_STEP = 1e-5   # central-difference step of mlp_gradient_check


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray        # (d, h)
    b1: np.ndarray        # (h,)
    w2: np.ndarray        # (h, K)
    b2: np.ndarray        # (K,)
    classes: tuple        # class values in output order

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, rows summing to 1."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return _forward(X, self.w1, self.b1, self.w2, self.b2)[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_from(self.forward(X))

    def predict_from(self, probs: np.ndarray) -> np.ndarray:
        """Class of each row of ``forward``'s probabilities."""
        return np.asarray(self.classes)[np.argmax(probs, axis=1)]

    def params(self) -> np.ndarray:
        return _pack(self.w1, self.b1, self.w2, self.b2)

    def with_params(self, theta: np.ndarray) -> "MlpModel":
        d, h = self.w1.shape
        k = self.w2.shape[1]
        w1, b1, w2, b2 = _unpack(theta, d, h, k)
        return MlpModel(w1, b1, w2, b2, self.classes)


def _forward(X, w1, b1, w2, b2):
    """Hidden activations and class probabilities of the network."""
    z = X @ w1
    z += b1
    np.tanh(z, out=z)
    probs = z @ w2
    probs += b2
    probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    return z, probs


def _pack(w1, b1, w2, b2) -> np.ndarray:
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def _unpack(theta: np.ndarray, d: int, h: int, k: int):
    i = 0
    w1 = theta[i:i + d * h].reshape(d, h); i += d * h
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + h * k].reshape(h, k); i += h * k
    b2 = theta[i:i + k]
    return w1, b1, w2, b2


def init_params(d: int, k: int, seed: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer, seed-determined."""
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(d)
    lim2 = 1.0 / np.sqrt(HIDDEN_UNITS)
    w1 = rng.uniform(-lim1, lim1, size=(d, HIDDEN_UNITS))
    b1 = rng.uniform(-lim1, lim1, size=HIDDEN_UNITS)
    w2 = rng.uniform(-lim2, lim2, size=(HIDDEN_UNITS, k))
    b2 = rng.uniform(-lim2, lim2, size=k)
    return _pack(w1, b1, w2, b2)


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Mean cross-entropy in nats between predicted rows and one-hot targets."""
    p = np.maximum(probs, 1e-300)
    np.log(p, out=p)
    p *= onehot
    per_sample = np.add.reduce(p, axis=1)
    np.negative(per_sample, out=per_sample)   # per row: a zero keeps its sign
    return float(np.add.reduce(per_sample) / len(per_sample))


def loss_and_grad(theta: np.ndarray, X: np.ndarray, onehot: np.ndarray,
                  d: int, h: int, k: int):
    """Mean cross-entropy and its gradient w.r.t. ``theta``."""
    w1, b1, w2, b2 = _unpack(theta, d, h, k)
    z, probs = _forward(X, w1, b1, w2, b2)
    loss = cross_entropy(probs, onehot)
    grad = np.empty_like(theta)
    g_w1, g_b1, g_w2, g_b2 = _unpack(grad, d, h, k)
    g_logits = probs                  # probs are not needed past the loss
    g_logits -= onehot
    g_logits /= len(X)
    np.matmul(z.T, g_logits, out=g_w2)
    np.add.reduce(g_logits, axis=0, out=g_b2)
    g_hidden = g_logits @ w2.T
    z *= z
    np.subtract(1.0, z, out=z)        # tanh' = 1 - z**2
    g_hidden *= z
    np.matmul(X.T, g_hidden, out=g_w1)
    np.add.reduce(g_hidden, axis=0, out=g_b1)
    return loss, grad


def _onehot(labels: np.ndarray, classes) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((len(labels), len(classes)))
    for row, lab in enumerate(labels):
        out[row, index[lab]] = 1.0
    return out


def train_mlp(X: np.ndarray, labels: np.ndarray, X_val: np.ndarray,
              labels_val: np.ndarray, cfg: TrainConfig = TrainConfig(),
              seed: int = 0, return_history: bool = False):
    """Fit the network; returns the weights with the best validation loss.

    Conjugate-gradient directions restart every ``cfg.cg_restart_interval``
    iterations (parameter count when unset) and whenever the direction stops
    descending; steps are chosen by Armijo backtracking, so accepted steps
    never increase the training loss.  Stops early when the validation loss
    has not improved for ``cfg.validation_patience`` consecutive checks.
    """
    X = np.asarray(X, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    classes = tuple(sorted(np.unique(np.asarray(labels)).tolist()))
    if len(classes) < 2:
        raise SingleClass("training labels contain a single class")
    Y = _onehot(np.asarray(labels), classes)
    Y_val = _onehot(np.asarray(labels_val), classes)
    d, k, h = X.shape[1], len(classes), HIDDEN_UNITS

    theta = init_params(d, k, seed)
    restart = cfg.cg_restart_interval or theta.size
    loss, grad = loss_and_grad(theta, X, Y, d, h, k)
    direction = -grad
    step = 1.0
    history = {"train_loss": [loss], "val_loss": []}

    def val_loss(t):
        return cross_entropy(_forward(X_val, *_unpack(t, d, h, k))[1], Y_val)

    best_val = val_loss(theta)
    best_theta = theta.copy()
    history["val_loss"].append(best_val)
    stale_checks = 0

    for it in range(1, cfg.max_iters + 1):
        slope = float(grad @ direction)
        if slope >= 0.0:          # not a descent direction: restart
            direction = -grad
            slope = float(grad @ direction)
            if slope >= 0.0:      # zero gradient: converged
                break
        t = min(2.0 * step, 10.0)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = t * direction
            cand += theta
            new_loss, new_grad = loss_and_grad(cand, X, Y, d, h, k)
            if (math.isfinite(new_loss)
                    and new_loss <= loss + ARMIJO_C1 * t * slope):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break                 # no progress at any step size
        step = t
        beta = max(0.0, float(new_grad @ (new_grad - grad))
                   / max(float(grad @ grad), 1e-300))
        theta, loss = cand, new_loss
        grad = new_grad
        if it % restart == 0:
            direction = -grad
        else:                     # -grad + beta * direction, in place
            direction *= beta
            direction -= grad
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
    model = MlpModel(*_unpack(best_theta, d, h, k), classes)
    return (model, history) if return_history else model


def mlp_gradient_check(model: MlpModel, X: np.ndarray, labels) -> float:
    """Max relative error of backprop vs central differences, all weights."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = _onehot(np.asarray(labels), model.classes)
    d, h = model.w1.shape
    k = model.w2.shape[1]
    theta = model.params()
    _, analytic = loss_and_grad(theta, X, Y, d, h, k)
    numeric = np.empty_like(analytic)
    for i in range(theta.size):
        tp = theta.copy(); tp[i] += GRAD_CHECK_STEP
        tm = theta.copy(); tm[i] -= GRAD_CHECK_STEP
        lp, _ = loss_and_grad(tp, X, Y, d, h, k)
        lm, _ = loss_and_grad(tm, X, Y, d, h, k)
        numeric[i] = (lp - lm) / (2.0 * GRAD_CHECK_STEP)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))
