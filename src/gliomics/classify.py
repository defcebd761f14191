"""Training configuration, feature standardization and model selection glue
for the two learners (one-against-all SVM, tanh/softmax network).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import EmptyMatrix
from .svm import SMO_MAX_PASSES, SMO_TOL, Kernel, train_ova

log = logging.getLogger(__name__)


def _positive(value, kind) -> bool:
    # bool is an Integral too, but a JSON true is not a count; JSON's
    # Infinity and NaN fail the bounds
    return (isinstance(value, kind) and not isinstance(value, bool)
            and 0 < value < math.inf)


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 200
    validation_patience: int = 6        # early-stop checks without progress
    svm_c_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    rbf_gamma_grid: tuple = (0.25, 1.0, 4.0)   # multiples of 1/n_features
    smo_tolerance: float = SMO_TOL
    smo_max_passes: int = SMO_MAX_PASSES

    def __post_init__(self):
        if not all(_positive(v, Integral) for v in (
                self.max_iters, self.validation_patience,
                self.smo_max_passes)):
            raise ValueError("max_iters, validation_patience and "
                             "smo_max_passes must be positive integers")
        if not (self.svm_c_grid and self.rbf_gamma_grid and all(
                _positive(v, Real) for v in (self.smo_tolerance,
                                             *self.svm_c_grid,
                                             *self.rbf_gamma_grid))):
            raise ValueError("smo_tolerance and the svm_c_grid and "
                             "rbf_gamma_grid values must be positive finite "
                             "numbers")


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    sd: np.ndarray       # 1.0 stored for constant columns

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return (X - self.mean) / self.sd


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Column-wise z-score parameters from training rows only.

    Constant columns get sd 1 so they map to exactly 0 after centering.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.size == 0:
        raise EmptyMatrix("cannot standardize an empty matrix")
    mean = X.mean(axis=0)
    var = X.var(axis=0)
    # a column of identical large values has var > 0 from mean rounding
    # alone; dividing by that phantom sd would blow up unseen data, so
    # treat variance at the level of summation noise as constant
    n = X.shape[0]
    eps = np.finfo(np.float64).eps
    constant = var <= n * eps * var + (n * eps * mean) ** 2
    mean = np.where(constant, X[0], mean)
    sd = np.where(constant, 1.0, np.sqrt(var))
    return Standardizer(mean, sd)


def select_svm_hyperparams(X_tr, y_tr, X_val, y_val, kernel_name: str,
                           cfg: TrainConfig = TrainConfig()):
    """Grid-search C (and gamma for rbf) by validation accuracy.

    Inputs are already standardized.  The grid runs gamma by gamma, C by C
    within each, and the first grid entry with the highest accuracy wins,
    so selection is deterministic.  A grid model that classifies every
    validation row ends the search: no later entry can beat it, so the
    later C values and gammas are not solved, and the choice, the model
    and its decision values are those of the full search.  Returns
    (kernel, C, fitted OvaSvm) and logs the search's SMO work and choice as
    one debug line.
    """
    d = np.asarray(X_tr).shape[1]
    if kernel_name == "linear":
        kernels = [Kernel("linear")]
    else:
        kernels = [Kernel("rbf", gamma=m / d) for m in cfg.rbf_gamma_grid]
    y_val = np.asarray(y_val)
    accs = []       # validation accuracy of each grid model made, in order

    def perfect(model) -> bool:
        accs.append(float(np.mean(model.predict(X_val) == y_val)))
        return accs[-1] == 1.0

    models = []
    tally = Counter()
    for kern in kernels:
        fits, counts = train_ova(X_tr, y_tr, kern, cfg.svm_c_grid,
                                 tol=cfg.smo_tolerance,
                                 max_passes=cfg.smo_max_passes, until=perfect)
        models += fits
        tally.update(counts)
        if accs[-1] == 1.0:
            break
    # the binary models of the grid points after a stop
    tally["skipped"] = ((len(kernels) * len(cfg.svm_c_grid) - len(models))
                        * len(models[0].models))
    best = accs.index(max(accs))
    kern = kernels[best // len(cfg.svm_c_grid)]
    C = cfg.svm_c_grid[best % len(cfg.svm_c_grid)]
    log.debug("svm grid %s: solved %d, reused %d, skipped %d, pair updates "
              "%d; chose gamma %s, C %g", kernel_name, tally["solved"],
              tally["reused"], tally["skipped"], tally["updates"],
              "-" if kern.gamma is None else f"{kern.gamma:.4g}", C)
    return kern, C, models[best]
