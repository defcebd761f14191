"""Training configuration, feature standardization and model selection glue
for the two learners (one-against-all SVM, tanh/softmax network).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix
from .mlp import MlpModel, mlp_gradient_check, train_mlp
from .svm import Kernel, OvaSvm, SvmModel, train_ova, train_svm_binary

__all__ = [
    "TrainConfig", "Standardizer", "fit_standardizer",
    "select_svm_hyperparams", "Kernel", "SvmModel", "OvaSvm", "MlpModel",
    "train_svm_binary", "train_ova", "train_mlp", "mlp_gradient_check",
]


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    max_iters: int = 200
    cg_restart_interval: int = None     # None -> parameter count
    validation_patience: int = 6        # early-stop checks without progress
    svm_c_grid: tuple = (0.1, 1.0, 10.0, 100.0)
    rbf_gamma_grid: tuple = (0.25, 1.0, 4.0)   # multiples of 1/n_features
    smo_tolerance: float = 1e-3
    smo_max_passes: int = 10_000

    def __post_init__(self):
        if self.max_iters <= 0 or self.validation_patience <= 0:
            raise ValueError("max_iters and validation_patience must be positive")
        if self.cg_restart_interval is not None and self.cg_restart_interval <= 0:
            raise ValueError("cg_restart_interval must be positive when set")
        if self.smo_tolerance <= 0 or self.smo_max_passes <= 0:
            raise ValueError("smo settings must be positive")
        if not self.svm_c_grid or any(c <= 0 for c in self.svm_c_grid):
            raise ValueError("svm_c_grid must be positive values")
        if not self.rbf_gamma_grid or any(g <= 0 for g in self.rbf_gamma_grid):
            raise ValueError("rbf_gamma_grid must be positive values")


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    sd: np.ndarray       # 1.0 stored for constant columns

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return (X - self.mean) / self.sd

    def to_json(self) -> str:
        return json.dumps({"mean": self.mean.tolist(), "sd": self.sd.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Standardizer":
        d = json.loads(text)
        return cls(np.asarray(d["mean"]), np.asarray(d["sd"]))


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
                           cfg: TrainConfig = None):
    """Grid-search C (and gamma for rbf) by validation accuracy.

    Inputs are already standardized.  Ties keep the earliest grid entry, so
    selection is deterministic.  Returns (kernel, C, fitted OvaSvm).
    """
    cfg = cfg or TrainConfig()
    d = np.asarray(X_tr).shape[1]
    if kernel_name == "linear":
        kernels = [Kernel("linear")]
    else:
        kernels = [Kernel("rbf", gamma=m / d) for m in cfg.rbf_gamma_grid]
    best = None
    for kern in kernels:
        for C in cfg.svm_c_grid:
            model = train_ova(X_tr, y_tr, kern, C=C, tol=cfg.smo_tolerance,
                              max_passes=cfg.smo_max_passes)
            acc = float(np.mean(model.predict(X_val) == np.asarray(y_val)))
            if best is None or acc > best[0]:
                best = (acc, kern, C, model)
    return best[1], best[2], best[3]
