"""Soft-margin SVM trained by sequential minimal optimization.

The dual ``min 1/2 a'Qa - 1'a`` subject to ``y'a = 0``, ``0 <= a <= C``,
with ``Q = (y y') * K``, is solved LIBSVM-style on a precomputed kernel
matrix: the solver keeps ``F = -y * (Qa - 1)`` and updates it with one
O(n) numpy step per pair.  Each step takes ``i``, the maximal violator
``argmax F`` over ``I_up = {a < C, y = +1} | {a > 0, y = -1}``, and its
partner ``j`` in ``I_low = {a < C, y = -1} | {a > 0, y = +1}`` with
``F_j < F_i`` that maximizes the second-order gain ``b^2 / c`` (``b = F_i
- F_j``, ``c = K_ii + K_jj - 2 K_ij``; Fan, Chen & Lin, JMLR 2005), then
moves the pair along the feasible direction to the clipped minimum.  It
stops when the gap ``m - M = max_{I_up} F - min_{I_low} F`` is at most
``tol`` (Keerthi et al., Neural Comput. 2001).  The bias lies in ``[M,
m]``, so every sample's KKT residual is at most ``tol``.  The solver is
deterministic: ties go to the lowest index.

``max_passes`` counts sweeps of ``n`` pair updates: more than
``max_passes * n`` updates raise NoConvergence.  ``SmoResult.passes`` is
the number of updates made, divided by ``n`` and rounded up.

One-against-all multiclass stacks one binary model per class and predicts
the class with the maximal decision value.  ``train_ova`` fits a whole C
grid on one kernel matrix and solves each distinct dual once.
``SmoResult.reached_c`` records whether any alpha reached C after a pair
step.  If none did, no C-type cap ever bound, so every clipped step, every
``t == cap`` test and every ``I_up``/``I_low`` membership is the same at
any C' >= C: a fresh solve at C' makes the same updates and returns
bit-identical alphas, bias and passes.  That solve's model is reused for
the later grid values.  An unsorted grid compares against the last C
actually solved.  ``train_ova`` can also stop after a grid model: a
caller that can tell no later model will be chosen (the validation search
in ``classify``) passes ``until``, and the C values after that model are
not solved.

A two-class problem is solved once, with the higher class as +1 (the
LIBSVM convention; Chang & Lin, ACM TIST 2011), and stored as that one
model: ``OvaSvm.decision_matrix`` scores the lower class as the negated
decision value, so the two columns are exact negatives.  Solving the lower
class instead would not give the same model: the working-set choice is not
symmetric under ``y -> -y``, so the two solves stop at different points
within ``tol``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingleClass

# least pair curvature K_ii + K_jj - 2 K_ij the step divides by; LIBSVM
# puts it in for curvatures <= 0, this also keeps 1 / curvature finite
SMO_TAU = 1e-12

# default stopping gap and sweep limit of every SMO solve
SMO_TOL = 1e-3
SMO_MAX_PASSES = 10_000


@dataclass(frozen=True)
class Kernel:
    name: str                 # "linear" | "rbf"
    gamma: float = None       # rbf only

    def __post_init__(self):
        if self.name not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.name!r}")
        if self.name == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("rbf kernel needs gamma > 0")

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        if self.name == "linear":
            return a @ b.T
        d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        return np.exp(-self.gamma * np.maximum(d2, 0.0))


@dataclass(frozen=True)
class SmoResult:
    alphas: np.ndarray
    bias: float
    updates: int        # pair updates made
    reached_c: bool     # some alpha was >= C after a pair step

    @property
    def passes(self) -> int:
        """Pair updates made, divided by ``n`` and rounded up."""
        return -(-self.updates // len(self.alphas))


def smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float = SMO_TOL,
              max_passes: int = SMO_MAX_PASSES) -> SmoResult:
    """Minimize the dual on a precomputed kernel matrix.

    Returns the full alpha vector so callers can check the KKT conditions;
    raises NoConvergence if more than ``max_passes * n`` pair updates are
    needed to close the gap to ``tol``.
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    kdiag = np.diag(K)
    inv_curv = 1.0 / np.maximum(kdiag[:, None] + kdiag[None, :] - 2.0 * K,
                                SMO_TAU)
    alphas = np.zeros(n)
    F = y.copy()                # -y * gradient at alpha = 0
    # I_up and I_low as masks: up is +inf on I_up and -inf off it, low is
    # -inf on I_low and +inf off it, so min(F, up) is F on I_up and -inf
    # elsewhere and max(F, low) is F on I_low and +inf elsewhere.  Both only
    # select, so every value matches the boolean-mask formulation bit for bit
    up = np.where(y > 0, np.inf, -np.inf)   # at alpha = 0: I_up = {y > 0}
    low = up.copy()                         # and I_low = {y < 0}
    # the pair step reads scalars as Python floats and writes into these
    # buffers: at the sizes the grid solves, numpy scalars and fresh arrays
    # cost more than the O(n) arithmetic
    labels = y.tolist()
    F_up, F_low, b, gain, dF = (np.empty(n) for _ in range(5))
    limit = max_passes * n
    iters = 0
    reached_c = False
    rechecked = False
    while True:
        np.minimum(F, up, out=F_up)
        i = int(F_up.argmax())
        m = F_up.item(i)
        np.maximum(F, low, out=F_low)
        M = F_low.item(int(F_low.argmin()))
        if m - M <= tol:
            if rechecked:
                break
            # F is updated incrementally; confirm the gap on an exact one
            F = y - K @ (alphas * y)
            rechecked = True
            continue
        rechecked = False
        if iters >= limit:
            raise NoConvergence(
                f"SMO did not settle within {max_passes} sweeps "
                f"({limit} pair updates, gap {m - M:.3g} > tol {tol:g})")
        np.subtract(m, F_low, out=b)
        np.maximum(b, 0.0, out=b)        # positive exactly on the candidates
        np.multiply(b, b, out=gain)
        gain *= inv_curv[i]
        j = int(gain.argmax())          # never i, whose b is 0
        # move alpha_i by +y_i t and alpha_j by -y_j t, which keeps y'a = 0
        a_i, a_j = alphas.item(i), alphas.item(j)
        y_i, y_j = labels[i], labels[j]
        cap_i = C - a_i if y_i > 0 else a_i
        cap_j = a_j if y_j > 0 else C - a_j
        t = min(b.item(j) * inv_curv.item(i, j), cap_i, cap_j)
        a_i = (C if y_i > 0 else 0.0) if t == cap_i else a_i + y_i * t
        a_j = (0.0 if y_j > 0 else C) if t == cap_j else a_j - y_j * t
        alphas[i], alphas[j] = a_i, a_j
        reached_c = reached_c or a_i >= C or a_j >= C
        np.subtract(K[i], K[j], out=dF)
        dF *= t
        F -= dF
        up[i] = np.inf if (a_i < C if y_i > 0 else a_i > 0.0) else -np.inf
        up[j] = np.inf if (a_j < C if y_j > 0 else a_j > 0.0) else -np.inf
        low[i] = -np.inf if (a_i > 0.0 if y_i > 0 else a_i < C) else np.inf
        low[j] = -np.inf if (a_j > 0.0 if y_j > 0 else a_j < C) else np.inf
        iters += 1
    free = (alphas > 0.0) & (alphas < C)
    bias = float(F[free].mean()) if free.any() else 0.5 * float(m + M)
    return SmoResult(alphas, bias, iters, reached_c)


@dataclass(frozen=True)
class SvmModel:
    kernel: Kernel
    support_vectors: np.ndarray   # (m, d) standardized feature rows
    duals: np.ndarray             # alpha_i * y_i per support vector
    bias: float

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if len(self.support_vectors) == 0:
            return np.full(len(X), self.bias)
        return self.kernel.matrix(X, self.support_vectors) @ self.duals + self.bias


def _binary_model(kernel, X, y, res: SmoResult) -> SvmModel:
    keep = res.alphas > 1e-10
    return SvmModel(kernel, X[keep].copy(), (res.alphas * y)[keep], res.bias)


@dataclass(frozen=True)
class OvaSvm:
    classes: tuple                # sorted class values (grades)
    models: tuple                 # SvmModel per class, same order; with two
                                  # classes only the higher one's
    prevalence: tuple             # training count per class, same order

    def decision_matrix(self, X: np.ndarray) -> np.ndarray:
        if len(self.classes) == 2:
            f = self.models[0].decision_function(X)
            return np.column_stack([-f, f])
        return np.column_stack([m.decision_function(X) for m in self.models])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_from(self.decision_matrix(X))

    def predict_from(self, dec: np.ndarray) -> np.ndarray:
        """Class of each row of a ``decision_matrix``."""
        out = np.empty(len(dec), dtype=np.int64)
        for i, row in enumerate(dec):
            # ties fall to the more prevalent training class, then the
            # lower class value
            best = max(zip(row, self.prevalence, [-c for c in self.classes],
                           self.classes))
            out[i] = best[3]
        return out


def train_ova(X: np.ndarray, classes: np.ndarray, kernel: Kernel,
              c_grid, tol: float = SMO_TOL, max_passes: int = SMO_MAX_PASSES,
              until=None):
    """One-against-all models (class vs rest), one OvaSvm per ``c_grid``
    value in grid order.

    All fits share one kernel matrix.  A class's solve is reused at a later
    C, as the same SvmModel, when no alpha reached the C it was solved at
    and the later C is not smaller.  With two classes only the higher one
    is solved, and each OvaSvm holds that one model.  ``until``, if given,
    is called with each OvaSvm as soon as it is made; once it returns true
    the grid ends there, and the later C values are not solved.  Returns
    ``(grid, tally)``: the list of OvaSvm and a Counter of ``solved`` and
    ``reused`` models and the solves' pair ``updates``.
    """
    X = np.asarray(X, dtype=np.float64)
    classes = np.asarray(classes)
    values = sorted(np.unique(classes).tolist())
    if len(values) < 2:
        raise SingleClass("one-against-all needs at least two classes")
    counts, labels = [], []
    for v in values:
        n_v = int(np.sum(classes == v))
        if n_v < 2:
            raise SingleClass(f"class {v} has only {n_v} sample(s)")
        counts.append(n_v)
        labels.append(np.where(classes == v, 1.0, -1.0))
    if len(values) == 2:
        labels = labels[1:]
    K = kernel.matrix(X, X)
    last = [None] * len(labels)   # (C, reached_c, SvmModel) of each solve
    tally = Counter()
    grid = []
    for C in c_grid:
        models = []
        for k, y in enumerate(labels):
            if last[k] is None or last[k][1] or C < last[k][0]:
                res = smo_solve(K, y, C, tol=tol, max_passes=max_passes)
                last[k] = (C, res.reached_c, _binary_model(kernel, X, y, res))
                tally["solved"] += 1
                tally["updates"] += res.updates
            else:
                tally["reused"] += 1
            models.append(last[k][2])
        grid.append(OvaSvm(tuple(values), tuple(models), tuple(counts)))
        if until is not None and until(grid[-1]):
            break
    return grid, tally
