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
    cg_restart_interval: int = None     # None -> parameter count
    validation_patience: int = 6        # early-stop checks without progress
    svm_c_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    rbf_gamma_grid: tuple = (0.25, 1.0, 4.0)   # multiples of 1/n_features
    smo_tolerance: float = SMO_TOL
    smo_max_passes: int = SMO_MAX_PASSES

    def __post_init__(self):
        counts = (self.max_iters, self.validation_patience, self.smo_max_passes,
                  1 if self.cg_restart_interval is None
                  else self.cg_restart_interval)
        if not all(_positive(v, Integral) for v in counts):
            raise ValueError("max_iters, validation_patience, smo_max_passes "
                             "and a set cg_restart_interval must be positive "
                             "integers")
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

    Inputs are already standardized.  Ties keep the earliest grid entry, so
    selection is deterministic.  Returns (kernel, C, fitted OvaSvm) and logs
    the search's SMO work and choice as one debug line.
    """
    d = np.asarray(X_tr).shape[1]
    if kernel_name == "linear":
        kernels = [Kernel("linear")]
    else:
        kernels = [Kernel("rbf", gamma=m / d) for m in cfg.rbf_gamma_grid]
    best = None
    tally = Counter()
    for kern in kernels:
        models, counts = train_ova(X_tr, y_tr, kern, cfg.svm_c_grid,
                                   tol=cfg.smo_tolerance,
                                   max_passes=cfg.smo_max_passes)
        tally.update(counts)
        for C, model in zip(cfg.svm_c_grid, models):
            acc = float(np.mean(model.predict(X_val) == np.asarray(y_val)))
            if best is None or acc > best[0]:
                best = (acc, kern, C, model)
    log.debug("svm grid %s: solved %d, reused %d, pair updates %d; chose "
              "gamma %s, C %g", kernel_name, tally["solved"], tally["reused"],
              tally["updates"],
              "-" if best[1].gamma is None else f"{best[1].gamma:.4g}",
              best[2])
    return best[1], best[2], best[3]
