"""End-to-end runs of the command-line pipeline on a small generated cohort.

Most tests drive ``main(argv)`` in process.  Subprocess tests check three
ways in: the console-script entry point declared in ``pyproject.toml``, run
from source the way an installed wrapper runs it; ``python -m gliomics``; and
the installed ``gliomics`` script, where one is on PATH.  The cohort and
downstream artifacts are built once per module because phantom generation
dominates the runtime.
"""

import dataclasses
import gzip
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import gliomics
from gliomics import cli, features
from gliomics.cli import build_parser, main
from gliomics.experiments import write_feature_table
from gliomics.nifti import VOX_OFFSET, read_nifti
from gliomics.registration import EsConfig, MiConfig


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cohort")
    rc = main(["phantom", "--out", str(d), "--n-per-grade", "3,3,3",
               "--no-compress", "--seed", "11"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def feature_dir(cohort_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("features")
    rc = main(["features", str(cohort_dir / "manifest.csv"),
               "--kinds", "v1,shape", "--out", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def volumetrics_csv(cohort_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("vol") / "volumetrics.csv"
    rc = main(["volumetrics", str(cohort_dir / "manifest.csv"),
               "--out", str(path)])
    assert rc == 0
    return path


class TestPhantomCommand:
    def test_layout(self, cohort_dir):
        assert (cohort_dir / "manifest.csv").is_file()
        assert len(list(cohort_dir.glob("*_seg.nii"))) == 9
        assert len(list(cohort_dir.glob("*_t2.nii"))) == 9
        prov = json.loads((cohort_dir / "provenance.json").read_text())
        assert prov["tool_version"] == gliomics.__version__
        assert prov["seed"] == 11
        assert len(prov["config_digest"]) == 16

    def test_bad_count_list(self, tmp_path):
        assert main(["phantom", "--out", str(tmp_path), "--n-per-grade",
                     "3,3"]) == 2

    @pytest.mark.parametrize("flag, value", [("--n-per-grade", "1,1,1"),
                                             ("--dims", "20,20,20")])
    def test_sizes_the_phantom_cannot_build(self, tmp_path, flag, value):
        out = tmp_path / "cohort"
        assert main(["phantom", "--out", str(out), flag, value]) == 2
        assert not out.exists()


class TestFeaturesCommand:
    def test_tables_written(self, feature_dir):
        for kind, width in (("v1", 14), ("shape", 20)):
            path = feature_dir / f"features_{kind}.csv"
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# tool_version=")
            assert "config_digest=" in lines[0]
            header = lines[1].split(",")
            assert header[:4] == ["subject_id", "modality", "grade", "kind"]
            assert header[4:] == [f"f{i:03d}" for i in range(width)]
            assert len(lines) == 2 + 9 * 3     # comment, header, rows
        assert not (feature_dir / "features_v2.csv").exists()

    def test_rows_sorted_by_subject(self, feature_dir):
        lines = (feature_dir / "features_v1.csv").read_text().splitlines()[2:]
        ids = [ln.split(",")[0] for ln in lines]
        assert ids == sorted(ids)

    def test_rerun_byte_identical(self, cohort_dir, feature_dir, tmp_path):
        rc = main(["features", str(cohort_dir / "manifest.csv"),
                   "--kinds", "v1,shape", "--out", str(tmp_path)])
        assert rc == 0
        for kind in ("v1", "shape"):
            a = (feature_dir / f"features_{kind}.csv").read_bytes()
            b = (tmp_path / f"features_{kind}.csv").read_bytes()
            assert a == b

    def test_parallel_matches_serial(self, cohort_dir, feature_dir, tmp_path):
        rc = main(["features", str(cohort_dir / "manifest.csv"),
                   "--kinds", "v1,shape", "--out", str(tmp_path),
                   "--jobs", "2"])
        assert rc == 0
        for kind in ("v1", "shape"):
            a = (feature_dir / f"features_{kind}.csv").read_bytes()
            assert (tmp_path / f"features_{kind}.csv").read_bytes() == a

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, cohort_dir, tmp_path, jobs):
        out = tmp_path / "feats"
        assert main(["features", str(cohort_dir / "manifest.csv"),
                     "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()

    def test_unknown_kind(self, cohort_dir, tmp_path):
        assert main(["features", str(cohort_dir / "manifest.csv"),
                     "--kinds", "v9", "--out", str(tmp_path)]) == 2

    def test_missing_manifest(self, tmp_path):
        assert main(["features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("corrupt", ["truncated_header", "label_7",
                                         "half_gz"])
    def test_corrupt_subject_aborts_unless_skipped(self, cohort_dir,
                                                   feature_dir, tmp_path,
                                                   corrupt, jobs):
        broken = tmp_path / "broken"
        shutil.copytree(cohort_dir, broken)
        subject = CORRUPTIONS[corrupt](broken)
        manifest = str(broken / "manifest.csv")
        assert main(["features", manifest, "--kinds", "v1", "--jobs", jobs,
                     "--out", str(tmp_path / "o1")]) == 2
        assert not (tmp_path / "o1").exists()
        for out, n_jobs in (("o2", jobs), ("serial", "1")):
            assert main(["features", manifest, "--kinds", "v1", "--jobs",
                         n_jobs, "--out", str(tmp_path / out),
                         "--skip-errors"]) == 0
        table = (tmp_path / "o2" / "features_v1.csv").read_bytes()
        assert table == (tmp_path / "serial" / "features_v1.csv").read_bytes()
        # header and rows of the clean cohort, less the dropped subject's
        # three modality rows
        clean = (feature_dir / "features_v1.csv").read_text().splitlines()[1:]
        kept = [ln for ln in clean if not ln.startswith(subject + ",")]
        assert len(kept) == len(clean) - 3
        assert table.decode().splitlines()[1:] == kept

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched extractor")
    def test_first_error_cancels_queued_subjects(self, cohort_dir, tmp_path,
                                                 monkeypatch):
        broken = tmp_path / "broken"
        shutil.copytree(cohort_dir, broken)
        assert _label_7(broken) == "g2_000"     # first in the manifest
        touched = tmp_path / "touched"
        touched.mkdir()
        monkeypatch.setattr(cli, "_extract_subject",
                            partial(_touch_then_extract, touched))
        assert main(["features", str(broken / "manifest.csv"), "--kinds",
                     "v1", "--jobs", "2", "--out", str(tmp_path / "o")]) == 2
        assert 1 <= len(list(touched.iterdir())) < 9


def _touch_then_extract(touched, row, *args, **kwargs):
    """``_extract_subject`` that first leaves a marker file per subject in
    ``touched``, so a test can count the subjects worker processes started."""
    (touched / row["subject_id"]).touch()
    if row["subject_id"] != "g2_000":
        time.sleep(0.2)     # the failing subject comes back first
    return _REAL_EXTRACT(row, *args, **kwargs)


_REAL_EXTRACT = cli._extract_subject


def _truncate_header(cohort):
    seg = cohort / "g3_001_seg.nii"
    seg.write_bytes(seg.read_bytes()[:100])         # BadMagic
    return "g3_001"


def _label_7(cohort):
    seg = cohort / "g2_000_seg.nii"
    data = bytearray(seg.read_bytes())
    data[VOX_OFFSET] = 7                            # LabelOutOfRange
    seg.write_bytes(bytes(data))
    return "g2_000"


def _half_gz(cohort):
    nii = cohort / "g3_002_t2.nii"
    packed = gzip.compress(nii.read_bytes())
    (cohort / "g3_002_t2.nii.gz").write_bytes(packed[:len(packed) // 2])
    manifest = cohort / "manifest.csv"
    manifest.write_text(manifest.read_text().replace("g3_002_t2.nii",
                                                     "g3_002_t2.nii.gz"))
    return "g3_002"                                 # IoFailure (EOF)


CORRUPTIONS = {"truncated_header": _truncate_header, "label_7": _label_7,
               "half_gz": _half_gz}


class TestFeaturesStage:
    """The features stage on a 3/3/3 cohort (seed 0), run from relative
    paths so the provenance digests do not depend on the temp directory."""

    # sha256 of each file as the pipeline wrote it before shape features
    # were computed once per label map; any byte change is a regression
    # (a version bump changes the provenance line, and these with it)
    DIGESTS = {
        "feats/features_v1.csv":
            "e39f225425ab484c0201971559eadf23bc975e9f2ddc17f6108e59f7f0242a99",
        "feats/features_v2.csv":
            "2724ea40573ee56873d78cb75830ae41d5b5b46cdb8745973f29403d6ea2acd3",
        "feats/features_v3.csv":
            "80b3908d51a6c2024f1961b26b36ef4be75f8616e9b3215b797e7c73aa0e30ac",
        "feats/features_shape.csv":
            "2ffc78b42d1ba8116a5c99070fca92a17a1b58483c44d8285f216d283a561005",
        "volumetrics.csv":
            "e035a42c32ffd055aa169cf20d99e01b8114cff70ecf95ff5e51d81b12fe2c38",
        "stats/stats.json":
            "9d6c847baebc09876f6b404ae2aaf76a45793be36e57b52198fde85975577673",
    }

    def test_shape_once_per_subject_and_bytes_unchanged(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["phantom", "--out", "cohort", "--n-per-grade", "3,3,3",
                     "--seed", "0"]) == 0
        calls = []
        real = features.shape_block

        def counting(lm):
            calls.append(lm)
            return real(lm)

        monkeypatch.setattr(features, "shape_block", counting)
        monkeypatch.setattr(cli, "shape_block", counting, raising=False)
        assert main(["features", "cohort/manifest.csv", "--out", "feats"]) == 0
        assert len(calls) == 9
        assert main(["volumetrics", "cohort/manifest.csv",
                     "--out", "volumetrics.csv"]) == 0
        assert main(["stats", "volumetrics.csv", "--out", "stats"]) == 0
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS


class TestVolumetricsCommand:
    def test_table_contents(self, volumetrics_csv):
        lines = volumetrics_csv.read_text().splitlines()
        assert lines[0].startswith("# tool_version=")
        header = lines[1].split(",")
        assert header[0] == "subject_id"
        assert "ratio_pct_label1" in header
        assert len(lines) == 2 + 9
        for ln in lines[2:]:
            cells = ln.split(",")
            ratios = [float(v) for v in cells[-5:]]
            assert sum(ratios) == pytest.approx(100.0, abs=1e-3)

    def test_exclude_edema_changes_output(self, cohort_dir, volumetrics_csv,
                                          tmp_path):
        path = tmp_path / "vol_ne.csv"
        rc = main(["volumetrics", str(cohort_dir / "manifest.csv"),
                   "--out", str(path), "--exclude-edema"])
        assert rc == 0
        assert path.read_bytes() != volumetrics_csv.read_bytes()


class TestStatsCommand:
    def test_outputs(self, volumetrics_csv, tmp_path):
        rc = main(["stats", str(volumetrics_csv), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        ratios = payload["ratios"]
        assert set(ratios) == {f"ratio_pct_label{k}" for k in range(1, 6)}
        for entry in ratios.values():
            assert {p["pair"] for p in entry["pairs"]} == \
                {"2-3", "2-4", "3-4"}
        lines = (tmp_path / "stats.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["ratio", "h"]
        assert len(lines) == 2 + 5 * 3         # 5 ratios x 3 pairs

    def test_missing_grade_rejected(self, volumetrics_csv, tmp_path):
        culled = tmp_path / "two_grades.csv"
        lines = volumetrics_csv.read_text().splitlines()
        kept = [ln for ln in lines
                if not ln.startswith("g4_")]
        culled.write_text("\n".join(kept) + "\n")
        assert main(["stats", str(culled), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["stats", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_wrong_table_rejected(self, feature_dir, tmp_path):
        rc = main(["stats", str(feature_dir / "features_v1.csv"),
                   "--out", str(tmp_path)])
        assert rc == 2


class TestTrainEvalCommand:
    def test_ann_grid(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "classifiers": ["ann"], "experiments": ["II-IV"],
            "train": {"max_iters": 10},
        }))
        out = tmp_path / "reports"
        rc = main(["train-eval", str(feature_dir / "features_v1.csv"),
                   "--out", str(out), "--runs", "2", "--config", str(cfg)])
        assert rc == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 2 + 3             # three modalities
        reports = sorted(p.name for p in out.glob("report_*.json"))
        assert reports == [f"report_v1_{m}_ann_II-IV.json"
                           for m in ("t1_post", "t1_pre", "t2")]
        payload = json.loads((out / reports[0]).read_text())
        assert len(payload["per_run"]) == 2
        assert payload["provenance"]["tool_version"] == gliomics.__version__

    def test_unknown_classifier_in_config(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-cubic"]}))
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 2

    def test_class_too_small_maps_to_exit_4(self, feature_dir, tmp_path):
        # three subjects per grade leave one training row per class, below
        # the SVM minimum
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-linear"],
                                   "experiments": ["II-IV"]}))
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--runs", "1",
                     "--config", str(cfg)]) == 4

    def test_failed_grid_writes_no_reports(self, feature_dir, tmp_path):
        # ann succeeds on every modality; svm-linear then fails on the 3/3/3
        # cohort's one training row per class
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["ann", "svm-linear"],
                                   "experiments": ["II-IV"],
                                   "train": {"max_iters": 10}}))
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(out), "--runs", "1",
                     "--config", str(cfg)]) == 4
        assert not list(out.glob("report_*.json"))
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_rejected(self, feature_dir, tmp_path, runs):
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(out), "--runs", runs]) == 2
        assert not out.exists()

    def test_bad_config_json(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 2

    def test_binary_config(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\x80\x81 not text")
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("config", [
        [1],
        {"n_runs": "abc"},
        {"train": [1]},
        {"train": {"svm_c_grid": 5}},
        {"train": {"seed": 7}},
        {"seed": 7},
    ], ids=["list", "runs-text", "train-list", "grid-number", "train-seed",
            "top-level-seed"])
    def test_malformed_config_exits_2_before_reading_tables(
            self, feature_dir, tmp_path, monkeypatch, config):
        def unread(path):
            pytest.fail(f"read {path} before the config was checked")

        monkeypatch.setattr(cli, "read_feature_table", unread)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(out), "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_provenance_digests_effective_config(self, tmp_path):
        # five subjects per grade leave every SVM two training rows per
        # class, so the default grid runs
        rng = np.random.default_rng(8)
        rows = [(f"s{g}{i}", "t2", g, rng.normal(3.0 * g, 1.0, size=14))
                for g in (2, 3, 4) for i in range(5)]
        table = write_feature_table(tmp_path / "features_v1.csv", rows, "v1",
                                    {"tool_version": "0", "seed": 0,
                                     "config_digest": "0" * 16})
        outputs = []
        for i, config in enumerate([None, {"n_runs": 2},
                                    {"n_runs": 2,
                                     "train": {"max_iters": 200}}]):
            argv = ["train-eval", str(table), "--out", str(tmp_path / f"o{i}")]
            if config is None:
                argv += ["--runs", "2"]
            else:
                (tmp_path / f"c{i}.json").write_text(json.dumps(config))
                argv += ["--config", str(tmp_path / f"c{i}.json")]
            assert main(argv) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / f"o{i}").iterdir()})
        assert len(outputs[0]) == 1 + 12       # summary, 3 x 4 reports
        assert outputs[0] == outputs[1] == outputs[2]


class TestSubtractCommand:
    def test_identical_volumes_give_zero_map(self, cohort_dir, tmp_path):
        pre = cohort_dir / "g2_000_t1_pre.nii"
        rc = main(["subtract", str(pre), str(pre), "--out", str(tmp_path)])
        assert rc == 0
        sub = read_nifti(tmp_path / "subtraction.nii.gz")
        assert np.all(sub.data == 0.0)
        t = json.loads((tmp_path / "transform.json").read_text())
        assert t["rotation_rad"] == [0.0, 0.0, 0.0]
        assert t["translation_mm"] == [0.0, 0.0, 0.0]
        assert t["provenance"]["seed"] == 0

    def test_debug_log_reports_search_and_keeps_bytes(self, cohort_dir,
                                                      tmp_path):
        argv = ["subtract", str(cohort_dir / "g2_000_t1_pre.nii"),
                str(cohort_dir / "g2_000_t1_post.nii"), "--seed", "3"]
        assert main([*argv, "--out", str(tmp_path / "quiet")]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "gliomics", *argv,
             "--out", str(tmp_path / "debug")], capture_output=True,
            text=True, env={**_source_env(), "GLIOMICS_LOG": "debug"})
        assert out.returncode == 0, out.stderr
        lines = [ln for ln in out.stderr.splitlines() if "register:" in ln]
        assert len(lines) == 1
        for field in ("coarse", "fine", "evals", "accepted", "final radius",
                      "MI gain", "overlap"):
            assert field in lines[0]
        for name in ("transform.json", "subtraction.nii.gz"):
            assert (tmp_path / "quiet" / name).read_bytes() == \
                (tmp_path / "debug" / name).read_bytes()

    def test_provenance_digests_effective_config(self, cohort_dir, tmp_path):
        pre = str(cohort_dir / "g2_000_t1_pre.nii")
        assert main(["subtract", pre, pre, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "transform.json").read_text())
        config = {"pre": pre, "post": pre,
                  "mi": dataclasses.asdict(MiConfig()),
                  "es": dataclasses.asdict(EsConfig(seed=0))}
        assert payload["provenance"]["config_digest"] == \
            cli._config_digest(config)

    def test_missing_input(self, tmp_path):
        assert main(["subtract", str(tmp_path / "a.nii"),
                     str(tmp_path / "b.nii"), "--out", str(tmp_path)]) == 2


class TestRerunIdentity:
    def test_phantom_and_subtract_are_byte_identical(self, tmp_path):
        # compressed output, so the .nii.gz headers are compared too
        for side in ("a", "b"):
            assert main(["phantom", "--out", str(tmp_path / side),
                         "--n-per-grade", "3,3,3", "--seed", "4"]) == 0
        pre = str(tmp_path / "a" / "g3_001_t1_pre.nii.gz")
        post = str(tmp_path / "a" / "g3_001_t1_post.nii.gz")
        for side in ("a", "b"):
            assert main(["subtract", pre, post, "--seed", "4",
                         "--out", str(tmp_path / side / "sub")]) == 0
        files = sorted(p.relative_to(tmp_path / "a")
                       for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert len(files) == 9 * 4 + 2 + 2     # volumes, manifest, provenance, sub
        assert files == sorted(p.relative_to(tmp_path / "b")
                               for p in (tmp_path / "b").rglob("*")
                               if p.is_file())
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel


def _edit_csv(src, dst, edit):
    """Copy CSV ``src`` to ``dst``, with ``edit`` applied in place to the
    list of rows (header first); ``#`` lines are kept."""
    lines = src.read_text().splitlines()
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    edit(rows)
    kept = [ln for ln in lines if ln.startswith("#")]
    dst.write_text("\n".join(kept + [",".join(r) for r in rows]) + "\n")
    return dst


def _drop_column(name):
    def edit(rows):
        i = rows[0].index(name)
        for row in rows:
            del row[i]
    return edit


def _set_first_cell(name, value):
    def edit(rows):
        rows[1][rows[0].index(name)] = value
    return edit


# (command, input, edit or None to pass the input as it is, what the
# logged error says after the file name)
CSV_FAULTS = {
    "manifest-no-labelmap-features":
        ("features", "manifest", _drop_column("labelmap"),
         "no labelmap column"),
    "manifest-no-labelmap-volumetrics":
        ("volumetrics", "manifest", _drop_column("labelmap"),
         "no labelmap column"),
    "manifest-grade-two":
        ("features", "manifest", _set_first_cell("grade", "two"),
         "row 1, column grade: cannot read 'two' as int"),
    "manifest-binary":
        ("features", "nifti", None, "not a CSV text file"),
    "feature-cell-abc":
        ("train-eval", "features", _set_first_cell("f000", "abc"),
         "row 1, column f000: cannot read 'abc' as float"),
    "feature-no-subject_id":
        ("train-eval", "features", _drop_column("subject_id"),
         "no subject_id column"),
    "volumetrics-grade-x":
        ("stats", "volumetrics", _set_first_cell("grade", "x"),
         "row 1, column grade: cannot read 'x' as int"),
    "volumetrics-ratio-na":
        ("stats", "volumetrics", _set_first_cell("ratio_pct_label1", "n/a"),
         "row 1, column ratio_pct_label1: cannot read 'n/a' as float"),
}


class TestMalformedCsv:
    @pytest.mark.parametrize("fault", list(CSV_FAULTS))
    def test_exits_2_naming_file_and_row(self, cohort_dir, feature_dir,
                                         volumetrics_csv, tmp_path, caplog,
                                         fault):
        command, source, edit, message = CSV_FAULTS[fault]
        src = {"manifest": cohort_dir / "manifest.csv",
               "nifti": cohort_dir / "g2_000_t2.nii",
               "features": feature_dir / "features_v1.csv",
               "volumetrics": volumetrics_csv}[source]
        bad = src if edit is None else _edit_csv(src, tmp_path / "bad.csv",
                                                 edit)
        out = tmp_path / "out"
        argv = [command, str(bad), "--out",
                str(out / "v.csv" if command == "volumetrics" else out)]
        if command == "train-eval":
            argv += ["--runs", "1"]
        assert main(argv) == 2
        assert f"{bad}: {message}" in caplog.text
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("flag", [["--jobs", "8"], ["--skip-errors"],
                                      ["--config", "missing.json"]])
    def test_flag_only_where_honoured(self, tmp_path, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(tmp_path / "v.csv"), "--out", str(tmp_path),
                  *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["phantom", "--out", "c", "--seed", "1"],
        ["features", "m.csv", "--out", "f", "--jobs", "1", "--skip-errors",
         "--seed", "1"],
        ["volumetrics", "m.csv", "--out", "v.csv", "--seed", "1"],
        ["stats", "v.csv", "--out", "s", "--seed", "1"],
        ["train-eval", "f.csv", "--out", "r", "--config", "t.json",
         "--runs", "2", "--seed", "1"],
        ["subtract", "a.nii", "b.nii", "--out", "o", "--seed", "1"],
    ])
    def test_documented_flags_parse(self, argv):
        assert build_parser().parse_args(argv).seed == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# Directory holding the imported package, so subprocesses run the same code
# whose ``__version__`` they are compared against, not another installed copy.
SOURCE_ROOT = Path(gliomics.__file__).resolve().parents[1]


def _source_env():
    paths = [str(SOURCE_ROOT), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _run_declared_script(*args):
    """Run the ``gliomics`` entry of ``[project.scripts]`` as pip's wrapper
    would: import ``module:attr``, set ``argv[0]``, exit with its result."""
    try:
        import tomllib
    except ModuleNotFoundError:         # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gliomics"]
    module, _, attr = target.partition(":")
    code = (f"import sys; from {module} import {attr} as f; "
            "sys.argv[0] = 'gliomics'; sys.exit(f())")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=_source_env())


def _check_version(out):
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == gliomics.__version__


def _check_usage_error(out):
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("usage: gliomics")


class TestEntryPoint:
    def test_console_script_version(self):
        _check_version(_run_declared_script("--version"))

    def test_module_invocation(self):
        _check_version(subprocess.run(
            [sys.executable, "-m", "gliomics", "--version"],
            capture_output=True, text=True, env=_source_env()))

    def test_no_command_is_usage_error(self):
        _check_usage_error(_run_declared_script())

    @pytest.mark.skipif(shutil.which("gliomics") is None,
                        reason="gliomics console script not installed")
    def test_installed_script(self):
        script = shutil.which("gliomics")
        _check_version(subprocess.run([script, "--version"],
                                      capture_output=True, text=True))
        _check_usage_error(subprocess.run([script], capture_output=True,
                                          text=True))
