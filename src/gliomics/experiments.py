"""Grade-classification experiment grid and the repeated-run protocol.

One experiment is a grade subset (II-IV, III-IV, II-III or all three), a
feature matrix and a classifier name.  A run draws a fresh stratified
80/10/10 split, standardizes on the training rows, picks SVM
hyperparameters on the validation rows (or early-stops the network on
them), and scores the held-out test rows.  The protocol repeats runs with
consecutive seeds and reports mean and best accuracy plus AUC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_csv
from .classify import TrainConfig, fit_standardizer, select_svm_hyperparams
from .errors import GliomicsError
from .evaluate import roc_auc, stratified_split
from .features import KIND_LENGTHS
from .mlp import train_mlp
from .phantom import GRADES

EXPERIMENTS = (
    ("II-IV", (2, 4)),
    ("III-IV", (3, 4)),
    ("II-III", (2, 3)),
    ("all", GRADES),
)

CLASSIFIERS = ("svm-linear", "svm-rbf", "ann")


@dataclass(frozen=True)
class RunResult:
    seed: int
    accuracy: float
    auc: float


@dataclass(frozen=True)
class ExperimentSummary:
    experiment: str
    classifier: str
    kind: str
    modality: str
    runs: tuple              # RunResult per seed, ascending
    mean_accuracy: float
    best_accuracy: float
    mean_auc: float
    best_auc: float


def _ovr_auc(scores: np.ndarray, truth: np.ndarray, classes) -> float:
    """Macro one-vs-rest AUC; falls back to accuracy-free NaN when a test
    split lacks a class entirely."""
    aucs = []
    for j, c in enumerate(classes):
        y = (truth == c).astype(int)
        if y.min() == y.max():
            continue
        _, a = roc_auc(scores[:, j], y)
        aucs.append(a)
    return float(np.mean(aucs)) if aucs else float("nan")


def run_once(X: np.ndarray, grades: np.ndarray, classifier: str,
             cfg: TrainConfig, seed: int) -> RunResult:
    """One split -> train -> test cycle; returns test accuracy and AUC."""
    if classifier not in CLASSIFIERS:
        raise GliomicsError(f"unknown classifier {classifier!r}")
    tr, va, te = stratified_split(grades, seed)
    std = fit_standardizer(X[tr])
    X_tr, X_va, X_te = std.apply(X[tr]), std.apply(X[va]), std.apply(X[te])
    y_tr, y_va, y_te = grades[tr], grades[va], grades[te]

    if classifier == "ann":
        model = train_mlp(X_tr, y_tr, X_va, y_va, cfg, seed)
        scores = model.forward(X_te)
    else:
        kernel_name = "linear" if classifier == "svm-linear" else "rbf"
        _, _, model = select_svm_hyperparams(X_tr, y_tr, X_va, y_va,
                                             kernel_name, cfg)
        scores = model.decision_matrix(X_te)
    pred = model.predict_from(scores)
    classes = model.classes

    accuracy = float(np.mean(pred == y_te))
    # two grades are ranked by the higher grade's column alone: the SVM's
    # two columns are exact negatives, and that is the one its model holds
    first = 1 if len(classes) == 2 else 0
    auc = _ovr_auc(scores[:, first:], y_te, classes[first:])
    return RunResult(seed, accuracy, auc)


def run_experiment(X: np.ndarray, grades: np.ndarray, experiment: str,
                   classifier: str, cfg: TrainConfig = TrainConfig(), *,
                   n_runs: int, seed0: int = 0,
                   kind: str = "", modality: str = "") -> ExperimentSummary:
    """The full repeated-run protocol for one Table row."""
    if n_runs < 1:
        raise GliomicsError(f"need at least one run, got {n_runs}")
    wanted = dict(EXPERIMENTS).get(experiment)
    if wanted is None:
        raise GliomicsError(f"unknown experiment {experiment!r}")
    keep = np.isin(grades, wanted)
    X_sub, g_sub = np.asarray(X, dtype=np.float64)[keep], np.asarray(grades)[keep]
    runs = []
    for i in range(n_runs):
        try:
            runs.append(run_once(X_sub, g_sub, classifier, cfg, seed0 + i))
        except GliomicsError as exc:
            # the same class, so the same exit code
            raise type(exc)(f"run {i} (seed {seed0 + i}) of {experiment}/"
                            f"{classifier} failed: {exc}") from exc
    accs = np.array([r.accuracy for r in runs])
    aucs = np.array([r.auc for r in runs])
    finite = aucs[np.isfinite(aucs)]
    return ExperimentSummary(
        experiment, classifier, kind, modality, tuple(runs),
        float(accs.mean()), float(accs.max()),
        float(finite.mean()) if finite.size else float("nan"),
        float(finite.max()) if finite.size else float("nan"))


def write_feature_table(path, rows, kind: str, provenance: dict):
    """One CSV per feature kind: a provenance line, then subject_id,
    modality, grade, kind, f000..

    ``rows`` iterates (subject_id, modality, grade, values).
    """
    n = KIND_LENGTHS[kind]
    table = [["subject_id", "modality", "grade", "kind",
              *[f"f{i:03d}" for i in range(n)]]]
    for subject_id, modality, grade, values in rows:
        if len(values) != n:
            raise GliomicsError(
                f"{kind} row for {subject_id}/{modality} has "
                f"{len(values)} values, want {n}")
        table.append([subject_id, modality, grade, kind,
                      *[f"{v:.12g}" for v in values]])
    return write_csv(path, table, provenance)


def read_feature_table(path):
    """Inverse of write_feature_table -> (meta rows, X, kind)."""
    fixed = {"subject_id": str, "modality": str, "grade": GRADES,
             "kind": str}
    records = read_csv(path, fixed, rest=float,
                       key=("subject_id", "modality"))
    if not records:
        raise GliomicsError(f"feature table {path} is empty")
    fcols = [c for c in records[0] if c not in fixed]
    meta = [{c: rec[c] for c in fixed} for rec in records]
    kinds = {m["kind"] for m in meta}
    if len(kinds) != 1:
        raise GliomicsError(f"feature table {path} mixes kinds {sorted(kinds)}")
    X = np.asarray([[rec[c] for c in fcols] for rec in records],
                   dtype=np.float64)
    return meta, X, kinds.pop()


def summary_csv_rows(summaries) -> list:
    """Flatten summaries into Table-shaped CSV rows (header first)."""
    out = [["kind", "modality", "classifier", "experiment",
            "mean_accuracy", "best_accuracy", "mean_auc", "best_auc"]]
    for s in summaries:
        out.append([s.kind, s.modality, s.classifier, s.experiment,
                    f"{s.mean_accuracy:.4f}", f"{s.best_accuracy:.4f}",
                    f"{s.mean_auc:.4f}", f"{s.best_auc:.4f}"])
    return out
