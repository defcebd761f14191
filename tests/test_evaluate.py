import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gliomics.errors import ClassTooSmall, LengthMismatch, SingleClass
from gliomics.evaluate import (SplitSpec, classification_report, roc_auc,
                               stratified_split)


def mann_whitney_auc(scores, labels):
    """Pairwise comparison oracle: wins plus half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


score_label_lists = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(0, 1)),
    min_size=2, max_size=40,
).filter(lambda ps: {lab for _, lab in ps} == {0, 1})


class TestSplitSpec:
    def test_default_fractions(self):
        assert SplitSpec().fractions == (0.8, 0.1, 0.1)

    @pytest.mark.parametrize("fracs", [
        (0.8, 0.2), (0.5, 0.5, 0.5), (0.8, 0.1, -0.1), (1.0, 0.0, 0.0),
    ])
    def test_bad_fractions_rejected(self, fracs):
        with pytest.raises(ValueError):
            SplitSpec(fractions=fracs)


class TestStratifiedSplit:
    def test_ten_per_class_gives_8_1_1(self):
        grades = np.repeat([2, 3, 4], 10)
        tr, va, te = stratified_split(grades)
        assert (len(tr), len(va), len(te)) == (24, 3, 3)
        for part, want in ((tr, 8), (va, 1), (te, 1)):
            counts = [np.sum(grades[part] == g) for g in (2, 3, 4)]
            assert counts == [want] * 3

    def test_three_sample_class_keeps_one_each(self):
        tr, va, te = stratified_split([7, 7, 7])
        assert len(tr) == len(va) == len(te) == 1

    def test_too_small_class_raises(self):
        with pytest.raises(ClassTooSmall):
            stratified_split([2, 2, 3, 3, 3])

    def test_deterministic(self):
        grades = np.repeat([2, 3, 4], 12)
        a = stratified_split(grades, SplitSpec(seed=9))
        b = stratified_split(grades, SplitSpec(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_assignment(self):
        grades = np.repeat([2, 3, 4], 30)
        a = stratified_split(grades, SplitSpec(seed=0))
        b = stratified_split(grades, SplitSpec(seed=1))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    @given(st.lists(st.integers(3, 8), min_size=1, max_size=4),
           st.integers(0, 1000))
    def test_parts_partition_the_indices(self, sizes, seed):
        grades = np.concatenate([np.full(n, i) for i, n in enumerate(sizes)])
        tr, va, te = stratified_split(grades, SplitSpec(seed=seed))
        merged = np.sort(np.concatenate([tr, va, te]))
        # equality with arange also rules out duplicates across parts
        assert np.array_equal(merged, np.arange(len(grades)))
        for i in range(len(sizes)):
            assert np.sum(grades[va] == i) >= 1
            assert np.sum(grades[te] == i) >= 1


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0

    def test_reversed_separation(self):
        _, auc = roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc == 0.0

    def test_all_tied_scores_give_half(self):
        curve, auc = roc_auc([3.0, 3.0, 3.0, 3.0], [1, 0, 1, 0])
        assert auc == 0.5
        assert np.array_equal(curve, [[0.0, 0.0], [1.0, 1.0]])

    def test_curve_runs_origin_to_corner_monotonically(self, rng):
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, size=50)
        assume_both = {0, 1} <= set(labels.tolist())
        assert assume_both
        curve, _ = roc_auc(scores, labels)
        assert np.array_equal(curve[0], [0.0, 0.0])
        assert np.array_equal(curve[-1], [1.0, 1.0])
        assert np.all(np.diff(curve[:, 0]) >= 0)
        assert np.all(np.diff(curve[:, 1]) >= 0)

    @given(score_label_lists)
    def test_auc_equals_mann_whitney(self, pairs):
        scores = [float(s) for s, _ in pairs]
        labels = [lab for _, lab in pairs]
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(mann_whitney_auc(scores, labels),
                                    abs=1e-12)

    @given(score_label_lists)
    def test_auc_invariant_under_increasing_transform(self, pairs):
        scores = np.array([float(s) for s, _ in pairs])
        labels = [lab for _, lab in pairs]
        _, auc = roc_auc(scores, labels)
        # strictly increasing maps preserve order and ties exactly
        _, auc_affine = roc_auc(2.0 * scores + 1.0, labels)
        _, auc_cubic = roc_auc(scores ** 3, labels)
        assert auc_affine == auc
        assert auc_cubic == auc

    def test_label_values_validated(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 2])

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.2, 0.3], [1, 1, 1])


class TestClassificationReport:
    def test_confusion_and_rates(self):
        truth = [2, 2, 2, 3, 3, 4]
        pred = [2, 3, 2, 3, 3, 2]
        r = classification_report(pred, truth)
        assert r.classes == (2, 3, 4)
        assert np.array_equal(r.confusion,
                              [[2, 1, 0], [0, 2, 0], [1, 0, 0]])
        assert r.accuracy == pytest.approx(4 / 6)
        assert r.sensitivity == pytest.approx({2: 2 / 3, 3: 1.0, 4: 0.0})
        assert r.specificity == pytest.approx({2: 2 / 3, 3: 3 / 4, 4: 1.0})

    def test_prediction_only_class_appears(self):
        r = classification_report([2, 4], [2, 3])
        assert r.classes == (2, 3, 4)
        assert r.sensitivity[4] == 0.0

    def test_perfect_prediction(self):
        r = classification_report([1, 2, 3], [1, 2, 3])
        assert r.accuracy == 1.0
        assert all(v == 1.0 for v in r.sensitivity.values())
        assert all(v == 1.0 for v in r.specificity.values())

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            classification_report([1, 2], [1, 2, 3])
