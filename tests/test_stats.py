"""Rank-statistics oracles.

The central fixture (1,2,3),(4,5,6),(7,8,9) is small enough to rank by hand:
rank sums are 6, 15, 24, so H = 12/(9*10) * (36/3 + 225/3 + 576/3) - 3*10
= 7.2 with no tie correction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomics.errors import TooFewGroups
from gliomics.stats import chi2_sf, dunn_posthoc, kruskal_wallis, midranks

FIXTURE = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

groups_strategy = st.lists(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=12),
    min_size=3, max_size=5,
).filter(lambda g: sum(len(x) for x in g) >= 3)


def reference_midranks(values):
    """The tie-run loop ``midranks`` replaced; it must give the same bits."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    s = values[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def snake_dealt_groups():
    """Three groups of 22 holding ranks 1..66 in snake order."""
    deal = np.arange(1.0, 67.0).reshape(11, 6)
    return [np.r_[deal[:, i], deal[:, 5 - i]] for i in range(3)]


def kw_rank_oracle(groups):
    """H from first principles: explicit midranks and tie correction."""
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    n = len(pooled)
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and pooled[order[j]] == pooled[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    h = 0.0
    start = 0
    for g in groups:
        r = ranks[start:start + len(g)]
        h += r.sum() ** 2 / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3 * (n + 1)
    _, counts = np.unique(pooled, return_counts=True)
    correction = 1.0 - float(np.sum(counts ** 3 - counts)) / (n ** 3 - n)
    return h / correction if correction > 0 else 0.0


class TestMidranks:
    def test_no_ties(self):
        assert np.array_equal(midranks([30.0, 10.0, 20.0]), [3, 1, 2])

    def test_ties_averaged(self):
        assert np.array_equal(midranks([5.0, 5.0, 1.0]), [2.5, 2.5, 1])

    def test_all_equal(self):
        assert np.array_equal(midranks([2.0, 2.0, 2.0, 2.0]), [2.5] * 4)

    @given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 2.5, 7.0]),
                              st.floats(allow_nan=True)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_tie_run_loop(self, values):
        # few distinct values make long tied runs; NaN never ties
        assert (midranks(values).tobytes()
                == reference_midranks(values).tobytes())


class TestChi2Sf:
    def test_df2_closed_form(self):
        for x in (0.0, 0.5, 1.0, 3.7, 7.2, 25.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_at_zero_is_one(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 5) == 1.0

    def test_monotone_decreasing(self):
        vals = [chi2_sf(x, 3) for x in np.linspace(0, 20, 50)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestKruskalWallis:
    def test_hand_fixture(self):
        kw = kruskal_wallis(FIXTURE)
        assert kw.h == pytest.approx(7.2, abs=1e-9)
        assert kw.df == 2
        assert kw.p_value == pytest.approx(math.exp(-3.6), abs=1e-9)
        assert not kw.all_identical

    def test_identical_groups(self):
        kw = kruskal_wallis([(5, 5), (5, 5), (5, 5)])
        assert kw.h == 0.0
        assert kw.p_value == 1.0
        assert kw.all_identical

    def test_equal_rank_sums_give_h_zero(self):
        # ranks 1..66 dealt in snake order (1 2 3 3 2 1 4 5 6 6 5 4 ...)
        # give every group the rank sum 737; H then rounds to -2.8e-14
        kw = kruskal_wallis(snake_dealt_groups())
        assert kw.h == 0.0 and not np.signbit(kw.h)
        assert kw.p_value == 1.0
        assert not kw.all_identical

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            kruskal_wallis([(1, 2, 3)])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([(1, 2), (), (3, 4)])

    @given(groups_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_rank_oracle(self, groups):
        pooled = [v for g in groups for v in g]
        if len(set(pooled)) == 1:
            return
        kw = kruskal_wallis(groups)
        assert kw.h == pytest.approx(kw_rank_oracle(groups), abs=1e-9)

    @given(groups_strategy, st.floats(0.1, 5.0), st.floats(-100, 100))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_increasing_affine_map(self, groups, a, b):
        pooled = [v for g in groups for v in g]
        mapped = [[a * v + b for v in g] for g in groups]
        # rank statistics only care about order; guard against float
        # round-off merging previously distinct values into new ties
        if len(set(pooled)) == 1 or \
                len({a * v + b for v in pooled}) != len(set(pooled)):
            return
        assert kruskal_wallis(mapped).h == \
            pytest.approx(kruskal_wallis(groups).h, abs=1e-9)

    @given(groups_strategy)
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_within_group_permutation(self, groups):
        pooled = [v for g in groups for v in g]
        if len(set(pooled)) == 1:
            return
        rng = np.random.default_rng(0)
        shuffled = [list(rng.permutation(np.asarray(g, dtype=float)))
                    for g in groups]
        assert kruskal_wallis(shuffled).h == \
            pytest.approx(kruskal_wallis(groups).h, abs=1e-12)


class TestDunn:
    def test_fixture_extreme_pair(self):
        dunn = dunn_posthoc(FIXTURE)
        assert len(dunn.pairs) == 3
        z = {pair: z for pair, z in zip(dunn.pairs, dunn.z)}
        # rank means 2 vs 8 across groups 0 and 2 give the largest gap
        assert abs(z[(0, 2)]) == max(abs(v) for v in z.values())
        assert abs(z[(0, 2)]) == pytest.approx(6.0 / math.sqrt(5.0), abs=1e-9)

    def test_identical_rank_means(self):
        dunn = dunn_posthoc([(1, 6), (2, 5), (3, 4)])  # all rank means 3.5
        assert np.allclose(dunn.z, 0.0)
        assert np.allclose(dunn.p_adjusted, 1.0)

    def test_swap_antisymmetry(self):
        a = dunn_posthoc(FIXTURE)
        b = dunn_posthoc([FIXTURE[1], FIXTURE[0], FIXTURE[2]])
        za = dict(zip(a.pairs, a.z))
        zb = dict(zip(b.pairs, b.z))
        assert za[(0, 1)] == pytest.approx(-zb[(0, 1)])
        pa = dict(zip(a.pairs, a.p_adjusted))
        pb = dict(zip(b.pairs, b.p_adjusted))
        assert pa[(0, 1)] == pytest.approx(pb[(0, 1)])

    def test_adjusted_p_capped_at_one(self):
        dunn = dunn_posthoc([(1, 2), (1.5, 2.5), (2, 3)])
        assert all(p <= 1.0 for p in dunn.p_adjusted)

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            dunn_posthoc([(1, 2), (3, 4)])

    def test_table_lists_every_pair(self):
        dunn = dunn_posthoc(FIXTURE)
        assert dunn.pairs == ((0, 1), (0, 2), (1, 2))
        assert len(dunn.z) == len(dunn.p_adjusted) == 3


def mann_whitney_p(x, y):
    """Two-sided normal-approximation Mann-Whitney p with tie correction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = len(x), len(y)
    ranks = midranks(np.concatenate([x, y]))
    u = ranks[:n1].sum() - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    _, counts = np.unique(np.concatenate([x, y]), return_counts=True)
    tie = float(np.sum(counts ** 3 - counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * (n + 1 - tie)
    if var == 0:
        return 1.0
    z = (u - n1 * n2 / 2.0) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def test_two_group_kw_agrees_with_mann_whitney():
    # k=2 Kruskal-Wallis is the square of the MW normal statistic, so the
    # p-values agree up to the chi^2(1) vs normal tail identity
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.normal(0.0, 1.0, rng.integers(20, 40))
        y = rng.normal(rng.uniform(-1, 1), 1.0, rng.integers(20, 40))
        kw = kruskal_wallis([x, y])
        assert kw.p_value == pytest.approx(mann_whitney_p(x, y), abs=0.01)
