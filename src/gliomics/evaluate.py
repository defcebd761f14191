"""Stratified holdout splitting, ROC/AUC and classification reports.

The ROC sweep groups tied scores, so the trapezoidal AUC equals the
Mann-Whitney statistic with half credit for ties; the property suite
compares both routes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassTooSmall, LengthMismatch, SingleClass


# train, validation and test shares of every class
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


def stratified_split(grades, seed: int = 0):
    """Per-class 80/10/10 partition -> (train, val, test) index arrays.

    Validation and test each get max(1, round(fraction * n)) members of
    every class; classes with fewer than 3 samples cannot populate all
    three parts and raise ClassTooSmall.  Deterministic given the seed.
    """
    grades = np.asarray(grades)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for value in sorted(np.unique(grades).tolist()):
        idx = np.flatnonzero(grades == value)
        n = len(idx)
        if n < 3:
            raise ClassTooSmall(f"class {value} has {n} sample(s); need >= 3")
        perm = rng.permutation(idx)
        n_val = max(1, int(round(SPLIT_FRACTIONS[1] * n)))
        n_test = max(1, int(round(SPLIT_FRACTIONS[2] * n)))
        if n_val + n_test >= n:
            n_val = n_test = 1
        val.append(perm[:n_val])
        test.append(perm[n_val:n_val + n_test])
        train.append(perm[n_val + n_test:])
    return (np.sort(np.concatenate(train)), np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


def roc_auc(scores, labels):
    """ROC curve points and trapezoidal AUC for binary 0/1 labels.

    Thresholds sweep the distinct score values from high to low; tied
    scores move the curve diagonally in one step.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if set(np.unique(labels).tolist()) - {0, 1}:
        raise ValueError("labels must be 0 or 1")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both a positive and a negative sample")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # group runs of equal scores so ties advance TP and FP together
    boundary = np.flatnonzero(np.diff(s)) + 1
    tp = np.add.reduceat(y == 1, np.r_[0, boundary]).cumsum()
    fp = np.add.reduceat(y == 0, np.r_[0, boundary]).cumsum()
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    auc = float(np.trapezoid(tpr, fpr))
    return np.column_stack([fpr, tpr]), auc


@dataclass(frozen=True)
class EvalReport:
    classes: tuple
    confusion: np.ndarray        # rows: truth, cols: prediction
    sensitivity: dict            # class -> TP/(TP+FN)
    specificity: dict            # class -> TN/(TN+FP)
    accuracy: float


def classification_report(pred, truth) -> EvalReport:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise LengthMismatch(
            f"prediction length {pred.shape} vs truth {truth.shape}")
    classes = tuple(sorted(np.unique(np.concatenate([truth, pred])).tolist()))
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth, pred):
        confusion[index[t], index[p]] += 1
    total = confusion.sum()
    sens, spec = {}, {}
    for c in classes:
        i = index[c]
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        tn = total - tp - fn - fp
        sens[c] = float(tp / (tp + fn)) if tp + fn else 0.0
        spec[c] = float(tn / (tn + fp)) if tn + fp else 0.0
    accuracy = float(np.trace(confusion) / total)
    return EvalReport(classes, confusion, sens, spec, accuracy)
