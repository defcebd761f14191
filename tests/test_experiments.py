import csv

import numpy as np
import pytest

from gliomics.classify import TrainConfig
from gliomics.errors import ClassTooSmall, GliomicsError
from gliomics.experiments import (CLASSIFIERS, EXPERIMENTS,
                                  ExperimentSummary, RunResult,
                                  read_feature_table, run_experiment,
                                  run_once, summary_csv_rows,
                                  write_feature_table)
from gliomics.features import KIND_LENGTHS, shape_block
from gliomics.phantom import generate_cohort

FAST_CFG = TrainConfig(max_iters=15, svm_c_grid=(1.0,), rbf_gamma_grid=(1.0,))
PROV = {"tool_version": "0", "config_digest": "0" * 16, "seed": 0}


@pytest.fixture(scope="module")
def tiny_matrix():
    # five per grade keeps two training samples per class after the
    # 3/1/1 split, the SVM minimum
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(3.0 * g, 1.0, size=(5, 6)) for g in (2, 3, 4)])
    return X, np.repeat([2, 3, 4], 5)


class TestGridConstants:
    def test_experiment_grade_subsets(self):
        assert dict(EXPERIMENTS) == {"II-IV": (2, 4), "III-IV": (3, 4),
                                     "II-III": (2, 3), "all": (2, 3, 4)}

    def test_classifier_names(self):
        assert CLASSIFIERS == ("svm-linear", "svm-rbf", "ann")


class TestFeatureTables:
    def make_rows(self, kind, n_subjects=4):
        n = KIND_LENGTHS[kind]
        rng = np.random.default_rng(3)
        return [(f"s{i:02d}", "t2", 2 + i % 3, rng.normal(size=n))
                for i in range(n_subjects)]

    def test_round_trip(self, tmp_path):
        rows = self.make_rows("v1")
        path = write_feature_table(tmp_path / "v1.csv", rows, "v1", PROV)
        meta, X, kind = read_feature_table(path)
        assert kind == "v1"
        assert X.shape == (4, 14)
        assert [m["subject_id"] for m in meta] == [r[0] for r in rows]
        assert [m["grade"] for m in meta] == [r[2] for r in rows]
        assert all(m["modality"] == "t2" for m in meta)
        want = np.vstack([r[3] for r in rows])
        assert np.allclose(X, want, rtol=1e-11)

    def test_wrong_length_rejected(self, tmp_path):
        rows = [("s00", "t2", 2, np.zeros(13))]
        with pytest.raises(GliomicsError, match="13 values, want 14"):
            write_feature_table(tmp_path / "bad.csv", rows, "v1", PROV)

    def test_empty_table_rejected(self, tmp_path):
        path = write_feature_table(tmp_path / "empty.csv", [], "shape", PROV)
        with pytest.raises(GliomicsError, match="empty"):
            read_feature_table(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "modality", "grade", "kind", "f000"])
            w.writerow(["a", "t2", 2, "v1", "0.5"])
            w.writerow(["b", "t2", 3, "v2", "0.5"])
        with pytest.raises(GliomicsError, match="mixes kinds"):
            read_feature_table(path)

    def test_comment_lines_skipped(self, tmp_path):
        rows = self.make_rows("shape", n_subjects=2)
        path = write_feature_table(tmp_path / "s.csv", rows, "shape", PROV)
        text = path.read_text()
        path.write_text("# provenance: whatever\n" + text)
        meta, X, kind = read_feature_table(path)
        assert kind == "shape"
        assert X.shape == (2, 20)


class TestRunProtocol:
    def test_run_once_fields(self, tiny_matrix):
        X, grades = tiny_matrix
        r = run_once(X, grades, "svm-linear", FAST_CFG, seed=0)
        assert r.seed == 0
        assert 0.0 <= r.accuracy <= 1.0
        assert np.isnan(r.auc) or 0.0 <= r.auc <= 1.0

    def test_unknown_classifier(self, tiny_matrix):
        X, grades = tiny_matrix
        with pytest.raises(GliomicsError, match="unknown classifier"):
            run_once(X, grades, "svm-cubic", FAST_CFG, seed=0)

    def test_unknown_experiment(self, tiny_matrix):
        X, grades = tiny_matrix
        with pytest.raises(GliomicsError, match="unknown experiment"):
            run_experiment(X, grades, "II-V", "ann", FAST_CFG, n_runs=1)

    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_summary_shape(self, tiny_matrix, classifier):
        X, grades = tiny_matrix
        s = run_experiment(X, grades, "II-IV", classifier, FAST_CFG,
                           n_runs=3, seed0=5, kind="v1", modality="t2")
        assert isinstance(s, ExperimentSummary)
        assert (s.experiment, s.classifier) == ("II-IV", classifier)
        assert (s.kind, s.modality) == ("v1", "t2")
        assert [r.seed for r in s.runs] == [5, 6, 7]
        accs = [r.accuracy for r in s.runs]
        assert s.mean_accuracy == pytest.approx(np.mean(accs))
        assert s.best_accuracy == max(accs)
        assert s.best_accuracy >= s.mean_accuracy

    def test_experiment_filters_grades(self, tiny_matrix):
        # grade 4 rows carry NaN: II-III must never touch them, so any
        # leak across the grade filter would poison training and throw
        X, grades = tiny_matrix
        X = X.copy()
        X[grades == 4] = np.nan
        s = run_experiment(X, grades, "II-III", "svm-linear", FAST_CFG,
                           n_runs=2)
        assert len(s.runs) == 2
        assert all(np.isfinite(r.accuracy) for r in s.runs)

    def test_deterministic(self, tiny_matrix):
        X, grades = tiny_matrix
        a = run_experiment(X, grades, "III-IV", "ann", FAST_CFG, n_runs=2)
        b = run_experiment(X, grades, "III-IV", "ann", FAST_CFG, n_runs=2)
        assert a.runs == b.runs

    def test_failed_run_keeps_error_class(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        grades = np.array([2, 2, 4, 4, 4])
        with pytest.raises(ClassTooSmall, match=r"run 0 \(seed 0\)"):
            run_experiment(X, grades, "II-IV", "svm-linear", FAST_CFG,
                           n_runs=1)

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_needs_at_least_one_run(self, tiny_matrix, n_runs):
        X, grades = tiny_matrix
        with pytest.raises(GliomicsError, match="at least one run"):
            run_experiment(X, grades, "II-IV", "ann", FAST_CFG, n_runs=n_runs)

    def test_readme_cohort_shape_table_converges(self):
        # at split seed 1 the C = 100 fits of this cell need over a thousand
        # sweeps each; they must still settle within the default limit
        cohort = generate_cohort(n_per_grade=(18, 14, 25), base_seed=0)
        X = np.vstack([shape_block(s.labelmap).values
                       for s in cohort.subjects])
        grades = np.array([s.grade for s in cohort.subjects])
        s = run_experiment(X, grades, "all", "svm-linear", n_runs=1, seed0=1)
        assert [r.seed for r in s.runs] == [1]
        assert 0.0 <= s.mean_accuracy <= 1.0


class TestSummaryCsv:
    def test_rows(self):
        s = ExperimentSummary("II-IV", "ann", "v2", "t2",
                              (RunResult(0, 0.5, 0.25),), 0.51234, 0.9,
                              0.25, 0.25)
        rows = summary_csv_rows([s])
        assert rows[0][:4] == ["kind", "modality", "classifier", "experiment"]
        assert rows[1] == ["v2", "t2", "ann", "II-IV",
                           "0.5123", "0.9000", "0.2500", "0.2500"]
