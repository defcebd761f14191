"""Nonparametric group comparison: Kruskal-Wallis with tie correction and
Dunn's pairwise post-hoc test under Bonferroni adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewGroups


@dataclass(frozen=True)
class KwResult:
    h: float
    df: int
    p_value: float
    all_identical: bool   # degenerate input: every observation equal


@dataclass(frozen=True)
class DunnResult:
    pairs: tuple          # ((i, j), ...) zero-based group indices
    z: tuple
    p_adjusted: tuple     # two-sided, Bonferroni-multiplied, capped at 1


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if df < 1:
        raise ValueError("df must be >= 1")
    # imported on first call, so that importing gliomics loads no SciPy
    from scipy.special import gammaincc
    return float(gammaincc(df / 2.0, x / 2.0))


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with tied observations sharing the average rank.

    A run of equal sorted values at positions ``i..j`` (0-based) gets rank
    ``(i + j) / 2 + 1``.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    s = values[order]
    new_run = np.ones(len(s), dtype=bool)
    new_run[1:] = s[1:] != s[:-1]
    bounds = np.append(np.flatnonzero(new_run), len(s))  # run starts, then N
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0,
                             np.diff(bounds))
    return ranks


def _check_groups(groups):
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(groups) < 2:
        raise TooFewGroups("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("every group must be non-empty")
    return groups


def _tie_term(pooled: np.ndarray) -> float:
    """Sum of t^3 - t over tied value groups."""
    _, counts = np.unique(pooled, return_counts=True)
    t = counts.astype(np.float64)
    return float(np.sum(t ** 3 - t))


def kruskal_wallis(groups) -> KwResult:
    """Rank-based k-group test; p from the chi-square upper tail.

    All-identical data makes the tie-corrected denominator vanish; that case
    is defined as H = 0, p = 1 and flagged instead of raised.
    """
    groups = _check_groups(groups)
    pooled = np.concatenate(groups)
    n_total = len(pooled)
    if n_total < 3:
        raise ValueError("need at least 3 observations in total")
    df = len(groups) - 1
    if np.all(pooled == pooled[0]):
        return KwResult(0.0, df, 1.0, True)
    ranks = midranks(pooled)
    h = 0.0
    start = 0
    for g in groups:
        r = ranks[start:start + len(g)]
        h += r.sum() ** 2 / len(g)
        start += len(g)
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    correction = 1.0 - _tie_term(pooled) / (n_total ** 3 - n_total)
    # H >= 0 exactly, but as the difference of two large terms it can round
    # below 0 when every group has the same rank sum
    h = max(0.0, h / correction)
    return KwResult(float(h), df, chi2_sf(h, df), False)


def dunn_posthoc(groups) -> DunnResult:
    """Pairwise rank-mean comparisons with tie-corrected pooled variance.

    Two-sided normal p-values are multiplied by the number of pairs
    (Bonferroni) and capped at 1.
    """
    groups = _check_groups(groups)
    k = len(groups)
    if k < 3:
        raise TooFewGroups("post-hoc comparisons need at least three groups")
    pooled = np.concatenate(groups)
    n_total = len(pooled)
    ranks = midranks(pooled)
    sizes = [len(g) for g in groups]
    means = []
    start = 0
    for n in sizes:
        means.append(float(ranks[start:start + n].mean()))
        start += n
    var_base = (n_total * (n_total + 1) / 12.0
                - _tie_term(pooled) / (12.0 * (n_total - 1)))
    n_pairs = k * (k - 1) // 2
    pairs, zs, ps = [], [], []
    for i in range(k):
        for j in range(i + 1, k):
            denom = math.sqrt(var_base * (1.0 / sizes[i] + 1.0 / sizes[j]))
            z = (means[i] - means[j]) / denom if denom > 0 else 0.0
            p = math.erfc(abs(z) / math.sqrt(2.0))
            pairs.append((i, j))
            zs.append(float(z))
            ps.append(min(1.0, p * n_pairs))
    return DunnResult(tuple(pairs), tuple(zs), tuple(ps))
