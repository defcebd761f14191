"""End-to-end runs of the command-line pipeline on a small generated cohort.

Most tests drive ``main(argv)`` in process.  Subprocess tests check three
ways in: the console-script entry point declared in ``pyproject.toml``, run
from source the way an installed wrapper runs it; ``python -m gliomics``; and
the installed ``gliomics`` script, where one is on PATH.  Others run a
command in a fresh interpreter, for the modules it imports and for worker
pools off fork.  The cohort and downstream artifacts are built once per
module because phantom generation dominates the runtime.
"""

import dataclasses
import gzip
import json
import logging
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import gliomics
from gliomics import cli, features, phantom
from gliomics.classify import TrainConfig
from gliomics.cli import build_parser, main
from gliomics.errors import (BadMagic, GeometryMismatch, IoFailure,
                             LabelOutOfRange, NonFiniteVoxel)
from gliomics.experiments import (CLASSIFIERS, EXPERIMENTS, run_experiment,
                                  write_feature_table)
from gliomics.nifti import VOX_OFFSET, read_nifti
from gliomics.phantom import generate_cohort, read_manifest, write_cohort
from gliomics.registration import EsConfig, MiConfig
from gliomics.volume import (LabelMap, Volume, load_labelmap, load_volume,
                             save_labelmap, save_volume)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cohort")
    rc = main(["phantom", "--out", str(d), "--n-per-grade", "3,3,3",
               "--seed", "11"])
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


def _with_cell(src, dst, row, column, cell):
    """A copy of the CSV ``src`` at ``dst`` with the cell at ``row``,
    counted from 1 after the header, and ``column`` set to ``cell``."""
    lines = src.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    fields = lines[header + row].split(",")
    fields[lines[header].split(",").index(column)] = cell
    lines[header + row] = ",".join(fields)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def _train_config(path, **config):
    """``config`` written at ``path`` as a train-eval JSON config."""
    path.write_text(json.dumps(config))
    return path


class TestPhantomCommand:
    def test_layout(self, cohort_dir):
        assert (cohort_dir / "manifest.csv").is_file()
        assert len(list(cohort_dir.glob("*_seg.nii.gz"))) == 9
        assert len(list(cohort_dir.glob("*_t2.nii.gz"))) == 9
        prov = json.loads((cohort_dir / "provenance.json").read_text())
        assert prov["tool_version"] == gliomics.__version__
        assert prov["seed"] == 11
        assert len(prov["config_digest"]) == 16

    def test_bad_count_list(self, tmp_path):
        assert main(["phantom", "--out", str(tmp_path), "--n-per-grade",
                     "3,3"]) == 2

    @pytest.mark.parametrize("flag, value", [("--n-per-grade", "1,1,1")])
    def test_sizes_the_phantom_cannot_build(self, tmp_path, flag, value):
        out = tmp_path / "cohort"
        assert main(["phantom", "--out", str(out), flag, value]) == 2
        assert not out.exists()

    # the grid is always 32^3 and the files always .nii.gz
    @pytest.mark.parametrize("flag", [["--dims", "32,32,32"],
                                      ["--no-compress"]])
    def test_grid_and_format_flags_rejected(self, tmp_path, flag, capsys):
        out = tmp_path / "cohort"
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--out", str(out), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


STREAMED = ["--n-per-grade", "6,6,6", "--seed", "3"]


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPhantomStreaming:
    """``phantom`` builds and writes subjects on worker threads; each thread
    holds one subject at a time."""

    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        trees = {"default": None, 1: None, 2: None}
        for workers in trees:
            if workers != "default":
                monkeypatch.setattr(cli, "worker_count", lambda n=workers: n)
            out = tmp_path / str(workers)
            assert main(["phantom", "--out", str(out), *STREAMED]) == 0
            trees[workers] = _tree(out)
        assert len(trees[1]) == 18 * 4 + 2      # NIfTI, manifest, provenance
        assert trees["default"] == trees[1] == trees[2]
        reference = tmp_path / "in_memory"
        write_cohort(generate_cohort((6, 6, 6), base_seed=3), reference)
        del trees[1][Path("provenance.json")]
        assert _tree(reference) == trees[1]

    def test_two_workers_hold_few_subjects(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        tracemalloc.start()
        try:
            assert main(["phantom", "--out", str(tmp_path), *STREAMED]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all 18 subjects in memory at once peak at about 17 MB
        assert peak < 6e6

    def test_failed_subject_leaves_no_manifest(self, tmp_path, monkeypatch):
        started = []

        def fail_one(vol, path):
            name = Path(path).name
            started.append(name[:len("g2_000")])
            if name.startswith("g2_000_t1_post"):
                raise IoFailure(f"{path}: no space left on device")
            time.sleep(0.05)    # most subjects are still queued at the failure
            return real_save(vol, path)

        real_save = phantom.save_volume
        monkeypatch.setattr(phantom, "save_volume", fail_one)
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        out = tmp_path / "cohort"
        assert main(["phantom", "--out", str(out), *STREAMED]) == 2
        names = [p.name for p in out.iterdir()]
        assert "manifest.csv" not in names
        assert "provenance.json" not in names
        assert not [n for n in names if n.endswith(".tmp")]
        # the subjects still queued were cancelled, never started
        assert 1 <= len(set(started)) < 18

    def test_info_line_on_stderr(self, tmp_path, monkeypatch, caplog, capsys):
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        with caplog.at_level(logging.INFO, logger="gliomics"):
            assert main(["phantom", "--out", str(tmp_path), "--n-per-grade",
                         "3,3,3"]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.INFO]
        assert re.fullmatch(r"wrote \S+manifest\.csv: 9 subjects, 38 files, "
                            r"2 worker threads, \d+\.\d\d s", line), line
        assert capsys.readouterr().out == ""


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

    def test_shape_once_per_subject(self, cohort_dir, tmp_path, monkeypatch):
        calls = []
        real = features.shape_block

        def counting(lm):
            calls.append(lm)
            return real(lm)

        monkeypatch.setattr(features, "shape_block", counting)
        assert main(["features", str(cohort_dir / "manifest.csv"),
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 9

    def test_parallel_matches_serial(self, cohort_dir, feature_dir, tmp_path):
        rc = main(["features", str(cohort_dir / "manifest.csv"),
                   "--kinds", "v1,shape", "--out", str(tmp_path),
                   "--jobs", "2"])
        assert rc == 0
        for kind in ("v1", "shape"):
            a = (feature_dir / f"features_{kind}.csv").read_bytes()
            assert (tmp_path / f"features_{kind}.csv").read_bytes() == a

    def test_pool_no_larger_than_the_cohort(self, cohort_dir, feature_dir,
                                           tmp_path, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the pool size asked for and starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        rc = main(["features", str(cohort_dir / "manifest.csv"),
                   "--kinds", "v1,shape", "--out", str(tmp_path),
                   "--jobs", "64"])
        assert rc == 0
        assert sizes == [9]
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

    def test_empty_kinds_rejected(self, cohort_dir, tmp_path, caplog):
        out = tmp_path / "feats"
        assert main(["features", str(cohort_dir / "manifest.csv"),
                     "--kinds", "", "--out", str(out)]) == 2
        assert "unknown feature kind ''" in caplog.text
        assert not out.exists()

    def test_repeated_kind_rejected(self, cohort_dir, tmp_path, caplog):
        out = tmp_path / "feats"
        assert main(["features", str(cohort_dir / "manifest.csv"),
                     "--kinds", "v1,shape,v1", "--out", str(out)]) == 2
        assert "--kinds names 'v1' twice" in caplog.text
        assert not out.exists()

    def test_label_map_off_the_volume_grid(self, cohort_dir, tmp_path,
                                           caplog):
        # every kind needs the pair on one grid, shape too, though it reads
        # the label map alone
        broken = tmp_path / "broken"
        shutil.copytree(cohort_dir, broken)
        assert _spacing_2mm(broken) == "g2_000"
        manifest = str(broken / "manifest.csv")
        assert main(["features", manifest, "--kinds", "shape",
                     "--out", str(tmp_path / "o")]) == 2
        assert "differ in dims, spacing or affine" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_manifest_without_modalities_rejected(self, cohort_dir,
                                                  tmp_path):
        # with no modality column every table would hold only its header
        rows, _ = read_manifest(cohort_dir / "manifest.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("subject_id,grade,labelmap\n" + "".join(
            f"{r['subject_id']},{r['grade']},{r['labelmap']}\n"
            for r in rows))
        out = tmp_path / "feats"
        assert main(["features", str(manifest), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_manifest(self, tmp_path):
        assert main(["features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("corrupt", ["truncated_header", "label_7",
                                         "half_gz", "nan_voxel",
                                         "spacing_2mm"])
    def test_corrupt_subject_aborts_unless_skipped(self, cohort_dir,
                                                   feature_dir, tmp_path,
                                                   corrupt, jobs):
        broken = tmp_path / "broken"
        shutil.copytree(cohort_dir, broken)
        corruption, error = CORRUPTIONS[corrupt]
        subject = corruption(broken)
        manifest = str(broken / "manifest.csv")
        [row] = [r for r in read_manifest(manifest)[0]
                 if r["subject_id"] == subject]
        assert type(cli._extract_subject(row, ["t2"], ["v1"])) is error
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

    def test_non_finite_voxel_skip_names_file_and_voxel(self, cohort_dir,
                                                        tmp_path, caplog):
        broken = tmp_path / "broken"
        shutil.copytree(cohort_dir, broken)
        subject = _nan_voxel(broken)
        with caplog.at_level(logging.WARNING, logger="gliomics"):
            assert main(["features", str(broken / "manifest.csv"), "--kinds",
                         "v1", "--out", str(tmp_path / "o"),
                         "--skip-errors"]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.WARNING]
        assert line.startswith(f"skipping {subject}: ")
        assert line.endswith(f"{subject}_t2.nii.gz: voxel (0, 0, 0) holds "
                             f"nan, not a finite value")

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


# All but _half_gz write plain NIfTI bytes back under the .nii.gz name: a
# reader tells gzip from plain NIfTI by the magic bytes, not the name.

def _truncate_header(cohort):
    seg = cohort / "g3_001_seg.nii.gz"
    seg.write_bytes(gzip.decompress(seg.read_bytes())[:100])
    return "g3_001"


def _label_7(cohort):
    seg = cohort / "g2_000_seg.nii.gz"
    data = bytearray(gzip.decompress(seg.read_bytes()))
    data[VOX_OFFSET] = 7
    seg.write_bytes(bytes(data))
    return "g2_000"


def _half_gz(cohort):
    nii = cohort / "g3_002_t2.nii.gz"
    packed = nii.read_bytes()
    nii.write_bytes(packed[:len(packed) // 2])
    return "g3_002"


def _nan_voxel(cohort):
    nii = cohort / "g2_001_t2.nii.gz"
    data = bytearray(gzip.decompress(nii.read_bytes()))
    data[VOX_OFFSET:VOX_OFFSET + 4] = np.float32(np.nan).tobytes()
    nii.write_bytes(bytes(data))
    return "g2_001"


def _spacing_2mm(cohort):
    """A label map with the volumes' dims on 2 mm voxels, over 1 mm volumes."""
    seg = cohort / "g2_000_seg.nii.gz"
    lm = load_labelmap(seg)
    affine = lm.affine.copy()
    affine[:3, :3] *= 2.0
    save_labelmap(LabelMap(lm.data, (2.0, 2.0, 2.0), affine), seg)
    return "g2_000"


# name -> (corruption, the error the broken subject raises)
CORRUPTIONS = {"truncated_header": (_truncate_header, BadMagic),
               "label_7": (_label_7, LabelOutOfRange),
               "half_gz": (_half_gz, IoFailure),
               "nan_voxel": (_nan_voxel, NonFiniteVoxel),
               "spacing_2mm": (_spacing_2mm, GeometryMismatch)}


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

    def test_equal_rank_sums_exit_0(self, tmp_path):
        # ranks 1..66 dealt to the three grades in snake order give every
        # grade the rank sum 737, where H rounds to just below 0
        deal = np.arange(1.0, 67.0).reshape(11, 6)
        columns = [f"ratio_pct_label{k}" for k in range(1, 6)]
        lines = ["subject_id,grade," + ",".join(columns)]
        for i, grade in enumerate((2, 3, 4)):
            for n, value in enumerate(np.r_[deal[:, i], deal[:, 5 - i]]):
                lines.append(f"g{grade}_{n:03d},{grade},"
                             + ",".join([f"{value:g}"] * len(columns)))
        ratios = tmp_path / "volumetrics.csv"
        ratios.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stats"
        assert main(["stats", str(ratios), "--out", str(out)]) == 0
        payload = json.loads((out / "stats.json").read_text())
        assert {(e["h"], e["p"]) for e in payload["ratios"].values()} == \
            {(0.0, 1.0)}

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_ratio_exits_2(self, volumetrics_csv, tmp_path,
                                      caplog, cell):
        ratios = _with_cell(volumetrics_csv, tmp_path / "volumetrics.csv",
                            4, "ratio_pct_label1", cell)
        out = tmp_path / "stats"
        assert main(["stats", str(ratios), "--out", str(out)]) == 2
        assert (f"{ratios}: row 4, column ratio_pct_label1: {cell!r} is "
                f"not a finite number") in caplog.text
        assert not out.exists()


class TestTrainEvalCommand:
    def test_ann_grid(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "classifiers": ["ann"], "experiments": ["II-IV"], "n_runs": 2,
            "train": {"max_iters": 10},
        }))
        out = tmp_path / "reports"
        rc = main(["train-eval", str(feature_dir / "features_v1.csv"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 2 + 3             # three modalities
        reports = sorted(p.name for p in out.glob("report_*.json"))
        assert reports == [f"report_v1_{m}_ann_II-IV.json"
                           for m in ("t1_post", "t1_pre", "t2")]
        payload = json.loads((out / reports[0]).read_text())
        assert len(payload["per_run"]) == 2
        assert payload["provenance"]["tool_version"] == gliomics.__version__

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the patched trainer")
    def test_identical_modality_rows_are_trained_once(self, tmp_path,
                                                       monkeypatch):
        rng = np.random.default_rng(6)
        values = {(g, i): rng.normal(3.0 * g, 1.0, size=14)
                  for g in (2, 3, 4) for i in range(5)}
        prov = {"tool_version": "0", "seed": 0, "config_digest": "0" * 16}

        def table(modalities):
            rows = [(f"s{g}{i}", m, g, v) for m in modalities
                    for (g, i), v in values.items()]
            return write_feature_table(tmp_path / "features_v1.csv", rows,
                                       "v1", prov)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-linear", "ann"],
                                   "experiments": ["II-IV", "all"],
                                   "n_runs": 2, "train": {"max_iters": 10}}))
        for workers in (1, 2):
            monkeypatch.setattr(cli, "worker_count", lambda n=workers: n)
            touched = tmp_path / f"touched{workers}"
            touched.mkdir()
            monkeypatch.setattr(cli, "run_experiment",
                                partial(_touch_then_train, touched))

            def calls():
                return [tuple(p.name.split(",")[:3])
                        for p in touched.iterdir()]

            grid = tmp_path / f"grid{workers}"
            argv = ["train-eval", str(table(("t2", "t1_pre", "t1_post"))),
                    "--config", str(cfg)]
            assert main([*argv, "--out", str(grid)]) == 0
            # modalities run in sorted order, so t1_post trains and the
            # others reuse its summaries
            assert sorted(calls()) == [(c, e, "t1_post")
                                       for c in ("ann", "svm-linear")
                                       for e in ("II-IV", "all")]
            reports = {p.name: json.loads(p.read_text())
                       for p in grid.glob("report_*.json")}
            assert len(reports) == 3 * 4
            for name, report in reports.items():
                first = reports[name.replace(f"_{report['modality']}_",
                                             "_t1_post_")]
                assert {**report, "modality": "t1_post"} == first
            # a reused report is byte-equal to one trained afresh from a
            # table at the same path, so that the provenance matches too
            table(("t2",))
            fresh = tmp_path / f"fresh{workers}"
            assert main([*argv, "--out", str(fresh)]) == 0
            assert len(calls()) == 4 + 4
            for report in fresh.glob("report_*.json"):
                assert report.read_bytes() == \
                    (grid / report.name).read_bytes()

    def test_two_tables_of_one_kind_exit_2(self, feature_dir, tmp_path,
                                           monkeypatch, caplog):
        def untrained(*args, **kwargs):
            pytest.fail("trained before every table was read")

        monkeypatch.setattr(cli, "run_experiment", untrained)
        copy = tmp_path / "copy" / "features_v1.csv"
        copy.parent.mkdir()
        shutil.copy(feature_dir / "features_v1.csv", copy)
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     str(feature_dir / "features_shape.csv"), str(copy),
                     "--out", str(out)]) == 2
        assert f"{copy} are both v1 tables" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exits_2(self, feature_dir, tmp_path, caplog,
                                        cell):
        # a grid that trains on the 3/3/3 cohort when every cell is finite
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["ann"],
                                   "experiments": ["II-IV"], "n_runs": 1,
                                   "train": {"max_iters": 10}}))
        table = _with_cell(feature_dir / "features_v1.csv",
                           tmp_path / "features_v1.csv", 2, "f003", cell)
        out = tmp_path / "reports"
        assert main(["train-eval", str(table), "--out", str(out),
                     "--config", str(cfg)]) == 2
        assert (f"{table}: row 2, column f003: {cell!r} is not a finite "
                f"number") in caplog.text
        assert not out.exists()

    def test_unknown_classifier_in_config(self, feature_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-cubic"]}))
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, names", [
        ("classifiers", ["svm-rbf", "ann", "svm-rbf"]),
        ("experiments", ["II-IV", "II-IV"])])
    def test_repeated_name_in_config(self, feature_dir, tmp_path, caplog,
                                     key, names):
        # a repeat would train and write every summary row of it twice
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: names, "n_runs": 1}))
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(out), "--config", str(cfg)]) == 2
        assert f"config {key} names {names[0]!r} twice" in caplog.text
        assert not out.exists()

    def test_class_too_small_maps_to_exit_4(self, feature_dir, tmp_path):
        # three subjects per grade leave one training row per class, below
        # the SVM minimum
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-linear"],
                                   "experiments": ["II-IV"], "n_runs": 1}))
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(tmp_path), "--config", str(cfg)]) == 4

    def test_failed_grid_writes_no_reports(self, feature_dir, tmp_path):
        # ann succeeds on every modality; svm-linear then fails on the 3/3/3
        # cohort's one training row per class
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["ann", "svm-linear"],
                                   "experiments": ["II-IV"], "n_runs": 1,
                                   "train": {"max_iters": 10}}))
        out = tmp_path / "reports"
        assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                     "--out", str(out), "--config", str(cfg)]) == 4
        assert not list(out.glob("report_*.json"))
        assert not (out / "summary.csv").exists()

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
        {"n_runs": 0},
        {"n_runs": -3},
        {"train": [1]},
        {"train": {"svm_c_grid": 5}},
        {"train": {"seed": 7}},
        {"seed": 7},
        {"train": {"rbf_gamma_grid": [float("inf")]}},
        {"train": {"smo_tolerance": float("inf")}},
        {"train": {"svm_c_grid": [1.0, float("nan")]}},
        {"train": {"cg_restart_interval": 7}},
    ], ids=["list", "runs-text", "runs-zero", "runs-neg", "train-list",
            "grid-number", "train-seed", "top-level-seed", "gamma-infinity",
            "tolerance-infinity", "c-nan", "removed-restart-interval"])
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

    def test_debug_log_reports_svm_grid_and_keeps_bytes(self, tmp_path):
        # grade IV far from II and III, which overlap: the IV-vs-rest solve
        # leaves every alpha below some C, so a larger C reuses it, while
        # II and III keep the three-grade search short of a perfect
        # validation score for a while
        rng = np.random.default_rng(4)
        rows = [(f"s{g}{i}", "t2", g,
                 rng.normal({2: 0.0, 3: 0.5, 4: 30.0}[g], 1.0, size=14))
                for g in (2, 3, 4) for i in range(5)]
        table = write_feature_table(tmp_path / "features_v1.csv", rows, "v1",
                                    {"tool_version": "0", "seed": 0,
                                     "config_digest": "0" * 16})
        cfg = _train_config(tmp_path / "cfg.json", n_runs=2)
        argv = ["train-eval", str(table), "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "quiet")]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "gliomics", *argv,
             "--out", str(tmp_path / "debug")], capture_output=True,
            text=True, env={**_source_env(), "GLIOMICS_LOG": "debug"})
        assert out.returncode == 0, out.stderr
        lines = [ln for ln in out.stderr.splitlines() if "svm grid" in ln]
        # one line per SVM run: 2 runs x 4 experiments x 2 kernels
        assert len(lines) == 16
        for field in ("solved", "reused", "skipped", "pair updates", "gamma",
                      "C"):
            assert all(field in ln for ln in lines)
        assert not any("mirror" in ln for ln in lines)
        counts = [{k: int(re.search(rf"{k} (\d+)", ln)[1])
                   for k in ("solved", "reused", "skipped")} for ln in lines]
        # a solve reused along C before a perfect grid point stopped the
        # search, and a search that never stopped
        assert any(c["reused"] > 0 and c["skipped"] > 0 for c in counts)
        assert any(c["skipped"] == 0 for c in counts)
        # kernel by kernel (4 C values, then 3 gammas x 4 C values),
        # experiment by experiment (II-IV, III-IV, II-III, all), two runs
        # each: a two-class search has one model per grid point, the
        # three-class one three, each solved, reused or skipped
        grid = [4] * 8 + [12] * 8
        assert [sum(c.values()) for c in counts] == \
            [n * (1 if k % 8 < 6 else 3) for k, n in enumerate(grid)]
        quiet = {p.name: p.read_bytes() for p in (tmp_path / "quiet").iterdir()}
        debug = {p.name: p.read_bytes() for p in (tmp_path / "debug").iterdir()}
        assert len(quiet) == 1 + 12 and quiet == debug

    def test_provenance_digests_effective_config(self, tmp_path):
        # five subjects per grade leave every SVM two training rows per
        # class, so the default grid runs
        rng = np.random.default_rng(8)
        rows = [(f"s{g}{i}", "t2", g, rng.normal(3.0 * g, 1.0, size=14))
                for g in (2, 3, 4) for i in range(5)]
        table = write_feature_table(tmp_path / "features_v1.csv", rows, "v1",
                                    {"tool_version": "0", "seed": 0,
                                     "config_digest": "0" * 16})
        # the defaults, spelled out in full or in part
        spelled = {"classifiers": list(CLASSIFIERS),
                   "experiments": [name for name, _ in EXPERIMENTS],
                   "train": dataclasses.asdict(TrainConfig())}
        outputs = []
        for i, config in enumerate([{"n_runs": 2},
                                    {"n_runs": 2, **spelled},
                                    {"n_runs": 2,
                                     "train": {"max_iters": 200}}]):
            cfg = _train_config(tmp_path / f"c{i}.json", **config)
            assert main(["train-eval", str(table), "--out",
                         str(tmp_path / f"o{i}"), "--config", str(cfg)]) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in (tmp_path / f"o{i}").iterdir()})
        assert len(outputs[0]) == 1 + 12       # summary, 3 x 4 reports
        assert outputs[0] == outputs[1] == outputs[2]


def _touch_then_train(touched, **cell):
    """``run_experiment`` that first leaves a marker file per call in
    ``touched``, named for the cell's classifier, experiment and modality,
    so that a test can count the cells worker processes trained."""
    prefix = ",".join((cell["classifier"], cell["experiment"],
                       cell["modality"], ""))
    os.close(tempfile.mkstemp(prefix=prefix, dir=touched)[0])
    return run_experiment(**cell)


def _grid_table(path):
    """A v1 table of 5 subjects per grade under three modalities: t2 and
    t1_post hold the same rows, t1_pre others."""
    rng = np.random.default_rng(9)
    values = {(g, i): rng.normal(3.0 * g, 1.0, size=(2, 14))
              for g in (2, 3, 4) for i in range(5)}
    rows = [(f"s{g}{i}", m, g, v[int(m == "t1_pre")])
            for m in ("t2", "t1_pre", "t1_post")
            for (g, i), v in values.items()]
    return write_feature_table(path, rows, "v1",
                               {"tool_version": "0", "seed": 0,
                                "config_digest": "0" * 16})


class TestTrainEvalWorkers:
    """``train-eval`` trains its distinct cells on worker processes, the
    costliest first, and writes the serial run's bytes."""

    def test_same_bytes_and_debug_lines_for_any_worker_count(
            self, tmp_path, monkeypatch, caplog):
        table = _grid_table(tmp_path / "features_v1.csv")
        cfg = _train_config(tmp_path / "cfg.json", n_runs=2)
        trees, lines = {}, {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(cli, "worker_count", lambda n=workers: n)
            out = tmp_path / str(workers)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="gliomics"):
                assert main(["train-eval", str(table), "--config", str(cfg),
                             "--out", str(out)]) == 0
            trees[workers] = _tree(out)
            lines[workers] = [r.getMessage() for r in caplog.records
                              if r.levelno == logging.DEBUG]
        assert len(trees[1]) == 1 + 3 * 12     # summary, 3 x 12 reports
        assert trees[1] == trees[2] == trees[3]
        # 2 runs x 4 experiments x 2 kernels, for t1_post and t1_pre
        assert sum("svm grid" in ln for ln in lines[1]) == 2 * 16
        assert lines[1] == lines[2] == lines[3]

    def test_one_worker_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker must not start a pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        table = _grid_table(tmp_path / "features_v1.csv")
        cfg = _train_config(tmp_path / "cfg.json", n_runs=1)
        assert main(["train-eval", str(table), "--config", str(cfg),
                     "--out", str(tmp_path / "reports")]) == 0
        assert len(list((tmp_path / "reports").iterdir())) == 1 + 3 * 12

    def test_class_too_small_exits_4_through_the_pool(
            self, feature_dir, tmp_path, monkeypatch, caplog):
        # ann succeeds on every modality; svm-linear fails on the 3/3/3
        # cohort's one training row per class
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["ann", "svm-linear"],
                                   "experiments": ["II-IV", "all"],
                                   "n_runs": 1, "train": {"max_iters": 10}}))
        errors = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "worker_count", lambda n=workers: n)
            out = tmp_path / str(workers)
            caplog.clear()
            assert main(["train-eval", str(feature_dir / "features_v1.csv"),
                         "--out", str(out), "--config", str(cfg)]) == 4
            assert not out.exists()
            errors[workers] = [r.getMessage() for r in caplog.records
                               if r.levelno == logging.ERROR]
        # the first failure in submission order, whichever finished first
        assert errors[1] == errors[2]
        assert errors[1][0].startswith("training failed: run 0 (seed 0) of "
                                       "all/svm-linear failed:")

    def test_failed_grid_logs_the_cells_trained_before_it(
            self, tmp_path, monkeypatch, caplog):
        # three grade IV subjects leave II-IV one training row of grade IV,
        # below the SVM minimum; II-III goes first in the queue and trains
        rng = np.random.default_rng(4)
        rows = [(f"s{g}{i}", "t2", g, rng.normal(10.0 * g, 1.0, size=14))
                for g, n in ((2, 5), (3, 5), (4, 3)) for i in range(n)]
        table = write_feature_table(tmp_path / "features_v1.csv", rows, "v1",
                                    {"tool_version": "0", "seed": 0,
                                     "config_digest": "0" * 16})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["svm-rbf"],
                                   "experiments": ["II-IV", "II-III"],
                                   "n_runs": 2}))
        for workers in (1, 2):
            monkeypatch.setattr(cli, "worker_count", lambda n=workers: n)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="gliomics"):
                assert main(["train-eval", str(table), "--config", str(cfg),
                             "--out", str(tmp_path / str(workers))]) == 4
            # one line per run of II-III, then the failure
            messages = [r.getMessage() for r in caplog.records]
            assert [m.split(":")[0] for m in messages] == \
                ["svm grid rbf"] * 2 + ["training failed"]

    def test_info_line_on_stderr(self, feature_dir, tmp_path, monkeypatch,
                                 caplog, capsys):
        monkeypatch.setattr(cli, "worker_count", lambda: 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifiers": ["ann"],
                                   "experiments": ["II-IV", "III-IV"],
                                   "n_runs": 1, "train": {"max_iters": 10}}))
        with caplog.at_level(logging.INFO, logger="gliomics"):
            assert main(["train-eval", str(feature_dir / "features_shape.csv"),
                         "--out", str(tmp_path), "--config", str(cfg)]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.INFO]
        # the shape table repeats each subject's row under all 3 modalities
        assert re.fullmatch(r"wrote \S+summary\.csv: 6 cells, 2 trained, "
                            r"4 reused, 2 worker processes, \d+\.\d\d s",
                            line), line
        assert capsys.readouterr().out == ""


class TestSubtractCommand:
    def test_identical_volumes_give_zero_map(self, cohort_dir, tmp_path):
        pre = cohort_dir / "g2_000_t1_pre.nii.gz"
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
        argv = ["subtract", str(cohort_dir / "g2_000_t1_pre.nii.gz"),
                str(cohort_dir / "g2_000_t1_post.nii.gz"), "--seed", "3"]
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
        pre = str(cohort_dir / "g2_000_t1_pre.nii.gz")
        assert main(["subtract", pre, pre, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "transform.json").read_text())
        config = {"mi": dataclasses.asdict(MiConfig()),
                  "es": dataclasses.asdict(EsConfig(seed=0))}
        assert payload["provenance"]["config_digest"] == \
            cli._config_digest(config)

    def test_no_overlap_exits_3_and_writes_nothing(self, cohort_dir, tmp_path,
                                                   caplog):
        post = cohort_dir / "g2_000_t1_post.nii.gz"
        vol = load_volume(cohort_dir / "g2_000_t1_pre.nii.gz")
        affine = vol.affine.copy()
        affine[0, 3] += 200.0       # no post voxel maps into the moved pre
        pre = tmp_path / "far_pre.nii"
        save_volume(Volume(vol.data, vol.spacing, affine), pre)
        out = tmp_path / "sub"
        assert main(["subtract", str(pre), str(post), "--out", str(out)]) == 3
        assert "registration failed: initial overlap" in caplog.text
        assert not (out / "transform.json").exists()
        assert not (out / "subtraction.nii.gz").exists()

    def test_missing_input(self, tmp_path):
        assert main(["subtract", str(tmp_path / "a.nii"),
                     str(tmp_path / "b.nii"), "--out", str(tmp_path)]) == 2


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


def _repeat_first_row(rows):
    rows.append(rows[1])


def _append_column(name, cell):
    def edit(rows):
        rows[0].append(name)
        for row in rows[1:]:
            row.append(cell)
    return edit


def _lengthen_first_row(rows):
    rows[1].append(rows[1][-1])


def _shorten_first_row(rows):
    del rows[1][-1]


def _relabel_and_drop_four(kind):
    """Every row's kind set to ``kind``, and the last four feature columns
    dropped."""
    def edit(rows):
        i = rows[0].index("kind")
        for row in rows[1:]:
            row[i] = kind
        for row in rows:
            del row[-4:]
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
    # a grade outside II-IV would form a class or a rank-test group of its
    # own, so it stops the run before any volume is read or model trained
    "manifest-grade-five-features":
        ("features", "manifest", _set_first_cell("grade", "5"),
         "row 1, column grade: '5' is not one of 2, 3, 4"),
    "manifest-grade-five-volumetrics":
        ("volumetrics", "manifest", _set_first_cell("grade", "5"),
         "row 1, column grade: '5' is not one of 2, 3, 4"),
    "volumetrics-grade-five":
        ("stats", "volumetrics", _set_first_cell("grade", "5"),
         "row 1, column grade: '5' is not one of 2, 3, 4"),
    "feature-grade-one":
        ("train-eval", "features", _set_first_cell("grade", "1"),
         "row 1, column grade: '1' is not one of 2, 3, 4"),
    "manifest-binary":
        ("features", "nifti", None, "not a CSV text file"),
    # a repeated subject would count twice, or land in training and test
    "manifest-repeat-features":
        ("features", "manifest", _repeat_first_row,
         "row 10: subject_id g2_000 repeats row 1"),
    "manifest-repeat-volumetrics":
        ("volumetrics", "manifest", _repeat_first_row,
         "row 10: subject_id g2_000 repeats row 1"),
    "feature-repeat":
        ("train-eval", "features", _repeat_first_row,
         "row 28: subject_id g2_000, modality t1_pre repeats row 1"),
    "feature-cell-abc":
        ("train-eval", "features", _set_first_cell("f000", "abc"),
         "row 1, column f000: cannot read 'abc' as float"),
    "feature-no-subject_id":
        ("train-eval", "features", _drop_column("subject_id"),
         "no subject_id column"),
    "volumetrics-grade-x":
        ("stats", "volumetrics", _set_first_cell("grade", "x"),
         "row 1, column grade: cannot read 'x' as int"),
    "volumetrics-repeat":
        ("stats", "volumetrics", _repeat_first_row,
         "row 10: subject_id g2_000 repeats row 1"),
    # a header that names a column twice, or a row longer or shorter than
    # the header, would read the wrong cell or none
    "manifest-grade-twice":
        ("volumetrics", "manifest", _append_column("grade", "4"),
         "the header names column grade 2 times"),
    "manifest-long-row-features":
        ("features", "manifest", _lengthen_first_row,
         "row 1 has 7 cells, the header 6"),
    "manifest-long-row-volumetrics":
        ("volumetrics", "manifest", _lengthen_first_row,
         "row 1 has 7 cells, the header 6"),
    "manifest-short-row":
        ("features", "manifest", _shorten_first_row,
         "row 1 has 5 cells, the header 6"),
    # a feature table is read as the kind and width its writer gives it
    "feature-kind-v9-narrowed":
        ("train-eval", "features", _relabel_and_drop_four("v9"),
         "unknown kind 'v9'"),
    "feature-v1-narrowed":
        ("train-eval", "features", _relabel_and_drop_four("v1"),
         "its feature columns are not a v1 table's f000..f013"),
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
               "nifti": cohort_dir / "g2_000_t2.nii.gz",
               "features": feature_dir / "features_v1.csv",
               "volumetrics": volumetrics_csv}[source]
        bad = src if edit is None else _edit_csv(src, tmp_path / "bad.csv",
                                                 edit)
        out = tmp_path / "out"
        argv = [command, str(bad), "--out",
                str(out / "v.csv" if command == "volumetrics" else out)]
        assert main(argv) == 2
        assert f"{bad}: {message}" in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("level", ["verbose", "15"])
def test_unknown_log_level_exits_2(tmp_path, monkeypatch, capsys, level):
    monkeypatch.setenv("GLIOMICS_LOG", level)
    assert main(["phantom", "--out", str(tmp_path / "cohort")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == (
        f"gliomics: GLIOMICS_LOG must be one of debug, info, warning, error, "
        f"critical, got {level!r}\n")


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
         "--seed", "1"],
        ["subtract", "a.nii", "b.nii", "--out", "o", "--seed", "1"],
    ])
    def test_documented_flags_parse(self, argv):
        assert build_parser().parse_args(argv).seed == 1

    def test_train_eval_has_no_runs_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-eval", "f.csv", "--out", "r", "--runs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --runs 2" in capsys.readouterr().err


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

    def test_import_loads_no_scipy(self):
        # every command pays for this import, and SciPy would double it:
        # each module imports SciPy inside the function that calls it
        code = "import sys, gliomics, gliomics.cli; print(*sys.modules)"
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env=_source_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        loaded = out.stdout.split()
        assert "gliomics.cli" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    @pytest.mark.skipif(shutil.which("gliomics") is None,
                        reason="gliomics console script not installed")
    def test_installed_script(self):
        script = shutil.which("gliomics")
        _check_version(subprocess.run([script, "--version"],
                                      capture_output=True, text=True))
        _check_usage_error(subprocess.run([script], capture_output=True,
                                          text=True))


# Runs ``main`` on argv in a fresh interpreter, under the start method,
# worker count and thread switch interval given, and prints the SciPy
# modules loaded before and after the run as its last stdout line.  The
# entry code sits under the ``__main__`` check, as spawn and forkserver
# workers import this file again.
_RUN_MAIN = """\
import json
import multiprocessing
import sys

from gliomics import cli


def scipy_modules():
    return sorted(n for n in sys.modules if n.split(".")[0] == "scipy")


if __name__ == "__main__":
    opts = json.loads(sys.argv[1])
    if opts["start_method"]:
        multiprocessing.set_start_method(opts["start_method"])
    if opts["workers"]:
        cli.worker_count = lambda: opts["workers"]
    before = scipy_modules()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(opts["switch_interval"] or interval)
    try:
        code = cli.main(opts["argv"])
    finally:
        sys.setswitchinterval(interval)
    print(json.dumps([before, scipy_modules()]))
    sys.exit(code)
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """``fresh(argv, **opts)`` runs ``main(argv)`` in a fresh interpreter,
    asserts exit 0 and returns the SciPy modules loaded before the command
    ran and after it."""
    script = tmp_path_factory.mktemp("fresh") / "run_main.py"
    script.write_text(_RUN_MAIN)

    def run(argv, start_method=None, workers=None, switch_interval=None):
        opts = {"argv": [str(a) for a in argv], "start_method": start_method,
                "workers": workers, "switch_interval": switch_interval}
        out = subprocess.run([sys.executable, str(script), json.dumps(opts)],
                             capture_output=True, text=True,
                             env=_source_env(), timeout=300)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    return run


class TestFreshInterpreter:
    """Commands run from a fresh interpreter, as a user runs them.  The test
    process has SciPy loaded and runs its pools under the platform's default
    start method, so neither the imports a command pays for nor a pool off
    fork shows in process."""

    def test_volumetrics_and_train_eval_load_no_scipy(
            self, fresh, cohort_dir, tmp_path):
        _, loaded = fresh(["volumetrics", cohort_dir / "manifest.csv",
                           "--out", tmp_path / "volumetrics.csv"])
        assert loaded == []
        table = _grid_table(tmp_path / "features_v1.csv")
        cfg = _train_config(tmp_path / "cfg.json", n_runs=1)
        _, loaded = fresh(["train-eval", table, "--config", cfg,
                           "--out", tmp_path / "reports"])
        assert loaded == []

    def test_stats_loads_scipy_special_alone(self, fresh, volumetrics_csv,
                                             tmp_path):
        _, loaded = fresh(["stats", volumetrics_csv, "--out", tmp_path])
        assert "scipy.special" in loaded
        assert [n for n in loaded if n.startswith("scipy.ndimage")] == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pools_off_fork_write_the_in_process_bytes(
            self, fresh, method, cohort_dir, feature_dir, tmp_path,
            monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        table = _grid_table(tmp_path / "features_v1.csv")
        cfg = _train_config(tmp_path / "cfg.json", n_runs=1)
        argv = ["train-eval", table, "--config", cfg, "--out"]
        monkeypatch.setattr(cli, "worker_count", lambda: 1)
        assert main([*map(str, argv), str(tmp_path / "serial")]) == 0
        fresh([*argv, tmp_path / "pooled"], start_method=method, workers=2)
        assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")
        fresh(["features", cohort_dir / "manifest.csv", "--kinds", "v1,shape",
               "--jobs", "2", "--out", tmp_path / "features"],
              start_method=method)
        assert _tree(tmp_path / "features") == _tree(feature_dir)

    def test_first_scipy_import_races_on_phantom_threads(
            self, fresh, cohort_dir, tmp_path):
        # four threads, more than a 2-core host has, switching every
        # microsecond, all reach SciPy's first import in their first subject
        before, after = fresh(["phantom", "--out", tmp_path, "--n-per-grade",
                               "3,3,3", "--seed", "11"],
                              workers=4, switch_interval=1e-6)
        assert before == []
        assert "scipy.ndimage" in after
        assert _tree(tmp_path) == _tree(cohort_dir)
