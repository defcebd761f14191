"""Single-hidden-layer network (20 tanh units, softmax output) trained by
full-batch Polak-Ribiere conjugate gradient on the cross-entropy loss.

The loss is the mean cross-entropy in nats.  Training keeps the parameter
vector flat so the optimizer and the finite-difference gradient check share
one code path, and a model is that vector with its input width and classes.

A training step is a handful of small matrix products on a few dozen
samples, so its cost is mostly the number of numpy calls.  The step
therefore works in column layout, one column per sample, with each bias
folded into its layer's matrix product:

* the flat vector holds ``[w1; b1]`` and then ``[w2; b2]``, which
  ``_layers`` alone reads, as a (d+1) x h and an (h+1) x k matrix, each
  with its bias as the last row;
* a fit stores its inputs once as a (d+1) x n block whose last row is
  ones, and the hidden activations live in an (h+1) x n buffer whose last
  row stays ones, so each layer is one ``np.dot`` with no bias added after
  it, and the gradient products give the bias gradients as their last
  rows;
* a fit sets up its memory once, and no step allocates: two ``_Slot``s,
  each a parameter vector and a gradient vector with their two layer
  views (a line-search trial is written into the spare slot, and the two
  slots swap when the trial is accepted), and two ``_Columns``, the inputs
  and scratch arrays of the training samples and of the validation
  samples.  Training and validation samples never share a product, as a
  BLAS kernel's result for one sample can depend on how many others it
  multiplies with.  The buffers are C-ordered: a product's floats depend
  on its operands' memory order as well as on their values.

The cross-entropy gathers each sample's true-class log probability, in
sample order, instead of summing ``onehot * log p``, whose other terms are
zeros, and negates their sum, not each term.  Each form computes the same
floats as the plain expression it replaces (``tests/test_mlp.py`` keeps
that plain form as the reference).

The trainer calls the module-level ``loss_and_grad(slot, cols)`` once per
line-search trial, by that name: the benchmark's tracer rebinds it to time
and count the trials, and passes both arguments through unread.
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
    theta: np.ndarray     # the flat parameter vector train_mlp writes
    n_features: int
    classes: tuple        # class values in output order

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, rows summing to 1."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        h, k = HIDDEN_UNITS, len(self.classes)
        layers = _layers(self.theta, self.n_features, h, k)
        return _forward(layers, _Columns(X, h, k)).T

    def predict_from(self, probs: np.ndarray) -> np.ndarray:
        """Class of each row of ``forward``'s probabilities."""
        return np.asarray(self.classes)[np.argmax(probs, axis=1)]


def _layers(theta: np.ndarray, d: int, h: int, k: int):
    """The (d+1) x h and (h+1) x k views of ``theta``'s two layers, each
    with its bias as the last row."""
    split = (d + 1) * h
    return theta[:split].reshape(d + 1, h), theta[split:].reshape(h + 1, k)


class _Slot:
    """A parameter vector and a gradient vector, each with its two layer
    views; ``theta`` is used as the parameter vector when given, else a
    fresh one is made."""

    def __init__(self, d: int, h: int, k: int, theta=None):
        size = (d + 1) * h + (h + 1) * k
        self.theta = np.empty(size) if theta is None else theta
        self.grad = np.empty(size)
        self.layers = _layers(self.theta, d, h, k)
        self.w2 = self.layers[1][:h]       # the output layer without bias
        self.grads = _layers(self.grad, d, h, k)


class _Columns:
    """The loss's inputs and scratch arrays on the n samples (rows) of
    ``X``, one column per sample, for h hidden units and k >= 2 outputs.
    The labels ``onehot`` (n x k), which only the loss needs, are kept as
    its k x n transpose and as ``true``, the flat index into ``probs`` of
    each sample's class."""

    def __init__(self, X: np.ndarray, h: int, k: int, onehot=None):
        n, d = X.shape
        self.x = np.ones((d + 1, n))       # inputs over a row of ones
        self.x[:d] = X.T
        self.hidden = np.ones((h + 1, n))  # activations over a row of ones
        self.z = self.hidden[:h]           # activations, then tanh'
        self.probs = np.empty((k, n))      # logits, probabilities, g_logits
        self.per_sample = np.empty(n)      # max over classes, then sum
        self.picked = np.empty(n)          # per sample: log p of its class
        self.g_hidden = np.empty((h, n))
        self.onehot = self.true = None
        if onehot is not None:
            self.onehot = np.ascontiguousarray(onehot.T)
            self.true = np.argmax(onehot, axis=1) * n + np.arange(n)


def _forward(layers, cols: _Columns) -> np.ndarray:
    """Class probabilities (k x n), with the hidden activations left in
    ``cols.z``."""
    w1, w2 = layers
    z, probs = cols.z, cols.probs
    np.dot(w1.T, cols.x, out=z)
    np.tanh(z, out=z)
    np.dot(w2.T, cols.hidden, out=probs)
    per_sample = cols.per_sample
    probs -= np.maximum.reduce(probs, axis=0, out=per_sample)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0, out=per_sample)
    return probs


def _mean_nll(probs, true, picked) -> float:
    """Mean of -log p over the probabilities at flat indices ``true``,
    gathered into ``picked``."""
    probs.take(true, out=picked, mode="clip")
    np.maximum(picked, 1e-300, out=picked)
    np.log(picked, out=picked)
    return -float(np.add.reduce(picked)) / len(picked)


def init_params(d: int, k: int, seed: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer, seed-determined."""
    rng = np.random.default_rng(seed)
    slot = _Slot(d, HIDDEN_UNITS, k)
    for layer, fan_in in zip(slot.layers, (d, HIDDEN_UNITS)):
        lim = 1.0 / np.sqrt(fan_in)
        layer[:-1] = rng.uniform(-lim, lim, size=layer[:-1].shape)
        layer[-1] = rng.uniform(-lim, lim, size=layer.shape[1])
    return slot.theta


def loss_and_grad(slot: _Slot, cols: _Columns):
    """Mean cross-entropy on the labelled samples ``cols`` and its gradient
    w.r.t. ``slot.theta``, which is only read.  The gradient returned is
    ``slot.grad``, which the next evaluation in that slot overwrites."""
    g_w1, g_w2 = slot.grads
    probs = _forward(slot.layers, cols)
    loss = _mean_nll(probs, cols.true, cols.picked)
    g_logits = probs                  # probs are not needed past the loss
    g_logits -= cols.onehot
    g_logits /= len(cols.picked)
    np.dot(cols.hidden, g_logits.T, out=g_w2)     # last row: g_b2
    g_hidden = np.dot(slot.w2, g_logits, out=cols.g_hidden)
    z = cols.z
    z *= z
    np.subtract(1.0, z, out=z)        # tanh' = 1 - z**2
    g_hidden *= z
    np.dot(cols.x, g_hidden.T, out=g_w1)          # last row: g_b1
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

    Conjugate-gradient directions restart every P iterations, P the
    parameter count, and whenever the direction stops descending; steps
    are chosen by Armijo backtracking, so accepted steps never increase
    the training loss.  Stops early when the validation loss
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

    cols, val_cols = _Columns(X, h, k, Y), _Columns(X_val, h, k, Y_val)
    cur, spare = _Slot(d, h, k, init_params(d, k, seed)), _Slot(d, h, k)
    restart = cur.theta.size
    loss, grad = loss_and_grad(cur, cols)
    direction = -grad
    grad_change = np.empty_like(grad)
    step = 1.0
    history = {"train_loss": [loss], "val_loss": []}

    def val_loss(slot):
        probs = _forward(slot.layers, val_cols)
        return _mean_nll(probs, val_cols.true, val_cols.picked)

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
            new_loss, new_grad = loss_and_grad(spare, cols)
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
    model = MlpModel(best_theta, d, classes)
    return (model, history) if return_history else model


def mlp_gradient_check(model: MlpModel, X: np.ndarray, labels) -> float:
    """Max relative error of backprop vs central differences, all weights,
    each perturbed in a copy of ``model.theta``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = _onehot(np.asarray(labels), model.classes)
    d, h, k = model.n_features, HIDDEN_UNITS, len(model.classes)
    cols, probe = _Columns(X, h, k, Y), _Slot(d, h, k, model.theta.copy())
    analytic = loss_and_grad(probe, cols)[1].copy()
    numeric = np.empty_like(analytic)
    for i, value in enumerate(model.theta):
        probe.theta[i] = value + GRAD_CHECK_STEP
        lp, _ = loss_and_grad(probe, cols)
        probe.theta[i] = value - GRAD_CHECK_STEP
        lm, _ = loss_and_grad(probe, cols)
        probe.theta[i] = value
        numeric[i] = (lp - lm) / (2.0 * GRAD_CHECK_STEP)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))
