"""Single-hidden-layer network (20 tanh units, softmax output) trained by
full-batch Polak-Ribiere conjugate gradient on the cross-entropy loss.

The loss is the mean cross-entropy in nats.  Training keeps the parameter
vector flat so the optimizer and the finite-difference gradient check share
one code path.

A training step is a handful of small matrix products on a few dozen rows,
so its cost is mostly per-call numpy overhead.  A fit therefore sets up its
memory once, and no step allocates:

* two ``_Slot``s, each a parameter vector and a gradient vector with their
  ``(w1, b1, w2, b2)`` views.  A line-search trial is written into the spare
  slot, and the two slots swap when the trial is accepted;
* two ``_Rows``, the scratch arrays (hidden activations, probabilities,
  backprop) of the training rows and of the validation rows.

Matrix products write through ``out=``.  The softmax's row max and row sum
are taken column by column, which adds in the order ``np.add.reduce`` uses
on this layout.  The cross-entropy gathers each row's true-class
probability instead of summing ``onehot * log p``, whose other terms are
zeros.  Each form computes the same floats as the plain expression it
replaces (``tests/test_mlp.py`` keeps that plain form as the reference).

The trainer calls the module-level ``loss_and_grad`` once per line-search
trial, by that name: the benchmark's tracer rebinds it to time and count
the trials.  It therefore keeps its signature, and a fit's buffers reach
it through the keyword-only ``work``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import TrainConfig
from .errors import EmptyMatrix, GliomicsError, SingleClass

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
        rows = _Rows(len(X), *self.w2.shape)
        return _forward(X, (self.w1, self.b1, self.w2, self.b2), rows)[1]

    def predict_from(self, probs: np.ndarray) -> np.ndarray:
        """Class of each row of ``forward``'s probabilities."""
        return np.asarray(self.classes)[np.argmax(probs, axis=1)]

    def params(self) -> np.ndarray:
        return _pack(self.w1, self.b1, self.w2, self.b2)


class _Slot:
    """A parameter vector and a gradient vector, each with its
    ``(w1, b1, w2, b2)`` views; ``theta`` is used as the parameter vector
    when given, else a fresh one is made."""

    def __init__(self, d: int, h: int, k: int, theta=None):
        size = d * h + h + h * k + k
        self.theta = np.empty(size) if theta is None else theta
        self.grad = np.empty(size)
        self.params = _unpack(self.theta, d, h, k)
        self.grads = _unpack(self.grad, d, h, k)


class _Rows:
    """Scratch arrays of the loss on n rows, for h hidden units and k >= 2
    outputs.  ``true`` is the flat index into ``probs`` of each row's class,
    from ``onehot``; it is needed only by the loss."""

    def __init__(self, n: int, h: int, k: int, onehot=None):
        self.z = np.empty((n, h))          # activations, then tanh'
        self.probs = np.empty((n, k))      # logits, probabilities, g_logits
        self.columns = tuple(self.probs[:, j] for j in range(k))
        self.row = np.empty((n, 1))        # row max, then row sum
        self.row_flat = self.row[:, 0]
        self.picked = np.empty(n)          # per row: -log p of its class
        self.g_hidden = np.empty((n, h))
        self.true = None if onehot is None else np.flatnonzero(onehot)


def _reduce_rows(ufunc, rows: _Rows) -> np.ndarray:
    """``ufunc.reduce(rows.probs, axis=1, keepdims=True)``, taken column by
    column into ``rows.row``."""
    cols, out = rows.columns, rows.row_flat
    ufunc(cols[0], cols[1], out=out)
    for col in cols[2:]:
        ufunc(out, col, out=out)
    return rows.row


def _forward(X, params, rows: _Rows):
    """Hidden activations and class probabilities, in ``rows``' buffers."""
    w1, b1, w2, b2 = params
    z, probs = rows.z, rows.probs
    np.matmul(X, w1, out=z)
    z += b1
    np.tanh(z, out=z)
    np.matmul(z, w2, out=probs)
    probs += b2
    probs -= _reduce_rows(np.maximum, rows)
    np.exp(probs, out=probs)
    probs /= _reduce_rows(np.add, rows)
    return z, probs


def _mean_nll(probs, true, picked) -> float:
    """Mean of -log p over the probabilities at flat indices ``true``,
    gathered into ``picked``."""
    probs.take(true, out=picked, mode="clip")
    np.maximum(picked, 1e-300, out=picked)
    np.log(picked, out=picked)
    np.negative(picked, out=picked)
    return float(np.add.reduce(picked) / len(picked))


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


def loss_and_grad(theta: np.ndarray, X: np.ndarray, onehot: np.ndarray,
                  d: int, h: int, k: int, *, work=None):
    """Mean cross-entropy and its gradient w.r.t. ``theta``.

    ``work`` is a fit's ``(slot, rows)``, with ``theta`` the slot's
    parameter vector and ``rows`` built for ``onehot``: the gradient returned
    is then ``slot.grad``, which the next evaluation in that slot overwrites.
    Without it, the buffers are made for this call.
    """
    slot, rows = work or (_Slot(d, h, k, theta), _Rows(len(X), h, k, onehot))
    g_w1, g_b1, g_w2, g_b2 = slot.grads
    z, probs = _forward(X, slot.params, rows)
    loss = _mean_nll(probs, rows.true, rows.picked)
    g_logits = probs                  # probs are not needed past the loss
    g_logits -= onehot
    g_logits /= len(X)
    np.matmul(z.T, g_logits, out=g_w2)
    np.add.reduce(g_logits, axis=0, out=g_b2)
    g_hidden = np.matmul(g_logits, slot.params[2].T, out=rows.g_hidden)
    z *= z
    np.subtract(1.0, z, out=z)        # tanh' = 1 - z**2
    g_hidden *= z
    np.matmul(X.T, g_hidden, out=g_w1)
    np.add.reduce(g_hidden, axis=0, out=g_b1)
    return loss, slot.grad


def _onehot(labels: np.ndarray, classes) -> np.ndarray:
    """One row per label, 1.0 in the column of its class in ``classes``.

    No labels raise ``EmptyMatrix``, and a label outside ``classes`` a
    ``GliomicsError`` that names it.
    """
    index = {c: i for i, c in enumerate(classes)}
    labels = np.asarray(labels).tolist()
    if not labels:
        raise EmptyMatrix("no labelled rows")
    try:
        columns = [index[lab] for lab in labels]
    except KeyError as err:
        raise GliomicsError(f"label {err.args[0]!r} is not one of the "
                            f"training classes {classes}") from None
    out = np.zeros((len(labels), len(classes)))
    out[np.arange(len(labels)), columns] = 1.0
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
    An empty validation set, or a validation label no training row has,
    raises before training starts.
    """
    X = np.asarray(X, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    classes = tuple(sorted(np.unique(np.asarray(labels)).tolist()))
    if len(classes) < 2:
        raise SingleClass("training labels contain a single class")
    Y = _onehot(labels, classes)
    Y_val = _onehot(labels_val, classes)
    d, k, h = X.shape[1], len(classes), HIDDEN_UNITS

    rows, val_rows = _Rows(len(X), h, k, Y), _Rows(len(X_val), h, k, Y_val)
    cur, spare = _Slot(d, h, k, init_params(d, k, seed)), _Slot(d, h, k)
    restart = cfg.cg_restart_interval or cur.theta.size
    loss, grad = loss_and_grad(cur.theta, X, Y, d, h, k, work=(cur, rows))
    direction = -grad
    grad_change = np.empty_like(grad)
    step = 1.0
    history = {"train_loss": [loss], "val_loss": []}

    def val_loss(slot):
        probs = _forward(X_val, slot.params, val_rows)[1]
        return _mean_nll(probs, val_rows.true, val_rows.picked)

    best_val = val_loss(cur)
    best_theta = cur.theta.copy()
    history["val_loss"].append(best_val)
    stale_checks = 0

    for it in range(1, cfg.max_iters + 1):
        grad = cur.grad
        slope = float(grad @ direction)
        if slope >= 0.0:          # not a descent direction: restart
            np.negative(grad, out=direction)
            slope = float(grad @ direction)
            if slope >= 0.0:      # zero gradient: converged
                break
        t = min(2.0 * step, 10.0)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            np.multiply(direction, t, out=spare.theta)
            spare.theta += cur.theta
            new_loss, new_grad = loss_and_grad(spare.theta, X, Y, d, h, k,
                                               work=(spare, rows))
            if (math.isfinite(new_loss)
                    and new_loss <= loss + ARMIJO_C1 * t * slope):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break                 # no progress at any step size
        step = t
        np.subtract(new_grad, grad, out=grad_change)
        beta = max(0.0, float(new_grad @ grad_change)
                   / max(float(grad @ grad), 1e-300))
        cur, spare = spare, cur
        loss = new_loss
        if it % restart == 0:
            np.negative(new_grad, out=direction)
        else:                     # -grad + beta * direction, in place
            direction *= beta
            direction -= new_grad
        history["train_loss"].append(loss)

        if it % VAL_CHECK_INTERVAL == 0:
            vl = val_loss(cur)
            history["val_loss"].append(vl)
            if vl < best_val - 1e-12:
                best_val = vl
                np.copyto(best_theta, cur.theta)
                stale_checks = 0
            else:
                stale_checks += 1
                if stale_checks >= cfg.validation_patience:
                    break

    if val_loss(cur) < best_val:
        np.copyto(best_theta, cur.theta)
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
