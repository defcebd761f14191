"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, then runs one
pass of operations in a closed loop with one client: an operation starts
only after the previous one returned.  ``inspect`` checks a finished pass
outside the timed region and turns it into the numbers the metrics need.

* ``cohort``   -- the README walkthrough through ``cli.main``, run twice;
  one operation is one whole walkthrough.
* ``classify`` -- the full train-eval grid through ``run_experiment``; one
  operation is one grid point, all three classifiers.
* ``register`` -- MI registration plus subtraction on two kinds of pair.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gliomics import cli, experiments, features, phantom, registration, volume
from gliomics.classify import TrainConfig
from gliomics.errors import GliomicsError
from gliomics.features import KIND_LENGTHS
from gliomics.registration import EsConfig, MiConfig, RigidTransform

from measure import timed_region

# criterion 4's tolerance for a recovered transform
RECOVER_DEG = 1.0
RECOVER_MM = 0.5


@dataclass
class Pass:
    """What one pass did, for the checks and the metrics."""

    op_seconds: list = field(default_factory=list)
    op_ref_seconds: list = field(default_factory=list)
    op_ok: list = field(default_factory=list)
    # success of each unit of work: a classify cell, else an operation
    unit_ok: list = field(default_factory=list)
    runs: list = field(default_factory=list)        # (acc, auc) or None
    residuals: list = field(default_factory=list)   # (deg, mm) per pair
    artifacts: int = 0
    nondeterministic: list = field(default_factory=list)
    problems: list = field(default_factory=list)     # failed checks
    failures: list = field(default_factory=list)     # ops the program failed
    outputs: dict = field(default_factory=dict)
    wall_s: float = 0.0


def timed_ops(tracer, speed, result: Pass, ops):
    """Run (label, fn) operations back to back; fn returns True on success.

    An exception from the program fails its operation and is recorded; the
    loop goes on with the next one.  The host speed is probed after each.
    """
    def attempt(label, fn):
        try:
            return bool(fn())
        except Exception as exc:   # keep the loop going, report it
            result.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return False

    for label, fn in ops:
        units = len(result.unit_ok)
        with tracer.operation(len(result.op_seconds)):
            ok, seconds, ref_seconds = timed_region(speed, attempt, label, fn)
        result.op_seconds.append(seconds)
        result.op_ref_seconds.append(ref_seconds)
        result.op_ok.append(ok)
        if len(result.unit_ok) == units:   # the operation is its own unit
            result.unit_ok.append(ok)


def compare_trees(a: Path, b: Path):
    """(relative paths of all files, those whose bytes differ or that exist
    on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    names = sorted(files_a | files_b)
    differ = [n for n in names if n not in files_a or n not in files_b
              or (a / n).read_bytes() != (b / n).read_bytes()]
    return names, differ


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(ln for ln in fh if not ln.startswith("#")))


# -------------------------------------------------------------------- cohort

COHORT_KINDS = ("v1", "v2", "v3", "shape")
COHORT_FEATURE_ROWS = (18 + 14 + 25) * 3     # subjects x modalities
COHORT_TRAIN = {"classifiers": ["svm-rbf", "ann"],
                "experiments": ["II-IV", "II-III"],
                "n_runs": 2, "train": {"max_iters": 200}}
# the volumetrics CSV prints ratios with 6 significant digits, so five
# ratios below 100 % each carry at most 5e-5 of rounding
RATIO_SUM_TOL = 5 * 5e-5


class Cohort:
    name = "cohort"

    def __init__(self, root: Path, work: Path, seed: int, speed):
        self.root, self.work, self.seed, self.speed = root, work, seed, speed
        self.config = work / "train.json"

    def setup(self):
        """Write the train-eval config, then start a fresh interpreter that
        imports the CLI: the start-up every gliomics command pays."""
        self.config.write_text(json.dumps(COHORT_TRAIN, sort_keys=True))
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import gliomics.cli"],
                       env=env, check=True, timeout=120)

    def _stages(self):
        seed = str(self.seed)
        tables = [f"feats/features_{k}.csv" for k in COHORT_KINDS]
        return [
            ("phantom", ["phantom", "--out", "cohort", "--n-per-grade",
                         "18,14,25", "--seed", seed]),
            ("features", ["features", "cohort/manifest.csv", "--out", "feats",
                          "--kinds", ",".join(COHORT_KINDS), "--jobs", "1",
                          "--seed", seed]),
            ("volumetrics", ["volumetrics", "cohort/manifest.csv", "--out",
                             "volumetrics.csv", "--seed", seed]),
            ("stats", ["stats", "volumetrics.csv", "--out", "stats",
                       "--seed", seed]),
            ("train-eval", ["train-eval", *tables, "--out", "reports",
                            "--config", str(self.config), "--seed", seed]),
        ]

    def _walkthrough(self, out: Path, side: str, result: Pass) -> bool:
        """Every stage in ``out``, from relative paths so that identical
        arguments give identical provenance; stops at the first stage that
        does not exit 0."""
        home = os.getcwd()
        os.chdir(out)
        try:
            for i, (name, argv) in enumerate(self._stages()):
                if i:   # follows host speed within the walkthrough
                    self.speed.probe()
                if cli.main(argv) != 0:
                    result.failures.append(f"{side}/{name}: exit status")
                    return False
        finally:
            os.chdir(home)
        return True

    def run_pass(self, index: int, tracer) -> Pass:
        """The walkthrough twice, into two directories; each walkthrough is
        one operation."""
        result = Pass()
        for side in ("a", "b"):
            result.outputs[side] = self.work / f"pass{index}{side}"
            result.outputs[side].mkdir(parents=True)
        timed_ops(tracer, self.speed, result,
                  [(f"walkthrough/{side}",
                    lambda side=side: self._walkthrough(result.outputs[side],
                                                        side, result))
                   for side in ("a", "b")])
        return result

    def inspect(self, result: Pass):
        a, b = result.outputs["a"], result.outputs["b"]
        if not all(result.op_ok):
            result.problems.append("a walkthrough stage did not exit 0: "
                                   + "; ".join(result.failures))
            return
        for out in (a, b):
            self._check_outputs(out, result.problems)
        names, differ = compare_trees(a, b)
        result.artifacts = len(names)
        result.nondeterministic = [str(n) for n in differ]
        for n in differ:
            if n.suffix in (".csv", ".json"):
                result.problems.append(f"{n} differs between the two passes")
        for report in sorted((a / "reports").glob("report_*.json")):
            for run in json.loads(report.read_text())["per_run"]:
                result.runs.append((run["accuracy"], run["auc"]))

    def _check_outputs(self, out: Path, problems: list):
        for kind in COHORT_KINDS:
            rows = _csv_rows(out / "feats" / f"features_{kind}.csv")[1:]
            width = 4 + KIND_LENGTHS[kind]
            if (len(rows) != COHORT_FEATURE_ROWS
                    or any(len(r) != width for r in rows)):
                problems.append(f"{out.name}: features_{kind}.csv is not "
                                f"{COHORT_FEATURE_ROWS} rows x {width} "
                                "columns")
        table = _csv_rows(out / "volumetrics.csv")
        ratio_cols = [i for i, c in enumerate(table[0])
                      if c.startswith("ratio_pct_")]
        for row in table[1:]:
            total = sum(float(row[i]) for i in ratio_cols)
            if abs(total - 100.0) > RATIO_SUM_TOL:
                problems.append(f"{out.name}: ratios of {row[0]} sum to "
                                f"{total}")
        stats = json.loads((out / "stats" / "stats.json").read_text())
        p_values = [r["p"] for r in stats["ratios"].values()]
        p_values += [p["p_adjusted"] for r in stats["ratios"].values()
                     for p in r["pairs"]]
        if not p_values or not all(0.0 <= p <= 1.0 for p in p_values):
            problems.append(f"{out.name}: a stats p-value is outside [0, 1]")


# ------------------------------------------------------------------ classify

CLASSIFY_KINDS = ("v1", "v2", "v3", "shape")


class Classify:
    name = "classify"

    def __init__(self, root: Path, work: Path, seed: int, speed):
        self.seed, self.speed = seed, speed
        self.points = []

    def setup(self):
        """Feature tables of the README's cohort (18/14/25, phantom seed 0),
        one per kind and modality, rows in subject order as train-eval reads
        them from CSV.  The workload seed picks the train/test splits: how
        long the SVMs take to converge hangs far more on the cohort than on
        the split, and a cohort drawn from the seed spread the grid's time
        by a third between seeds."""
        cohort = phantom.generate_cohort(n_per_grade=(18, 14, 25),
                                         base_seed=0)
        subjects = sorted(cohort.subjects, key=lambda s: s.subject_id)
        modalities = sorted(subjects[0].volumes)
        rows = {}
        for sub in subjects:
            for modality in modalities:
                vecs = features.extract_all(sub.volumes[modality],
                                            sub.labelmap)
                for kind in CLASSIFY_KINDS:
                    rows.setdefault((kind, modality), []).append(
                        vecs[kind].values)
        grades = np.array([s.grade for s in subjects])
        self.points = [[(kind, modality, clf, exp,
                         np.vstack(rows[kind, modality]), grades)
                        for clf in experiments.CLASSIFIERS]
                       for kind in CLASSIFY_KINDS for modality in modalities
                       for exp, _ in experiments.EXPERIMENTS]

    def run_pass(self, index: int, tracer) -> Pass:
        """One operation per grid point: a (kind, modality, experiment)
        with each classifier in turn, so that every operation holds one
        cell of each classifier.  A single cell's time hangs on whether its
        SVM converges soon, which changes from seed to seed; the time of a
        grid point varies far less."""
        result = Pass()
        summaries = result.outputs.setdefault("summaries", [])

        def cell(kind, modality, clf, exp, X, grades):
            try:
                summaries.append(experiments.run_experiment(
                    X, grades, exp, clf, TrainConfig(), n_runs=1,
                    seed0=self.seed, kind=kind, modality=modality))
                ok = True
            except GliomicsError as exc:   # a failed cell, counted
                summaries.append(None)
                result.failures.append(f"{kind}/{modality}/{clf}/{exp}: "
                                       f"{type(exc).__name__}")
                ok = False
            result.unit_ok.append(ok)
            return ok

        def grid_point(cells):
            return all([cell(*c) for c in cells])   # every cell runs

        timed_ops(tracer, self.speed, result,
                  [("/".join(p[0][:2] + p[0][3:4]), lambda p=p: grid_point(p))
                   for p in self.points])
        return result

    def inspect(self, result: Pass):
        cells = sum(len(p) for p in self.points)
        if len(result.unit_ok) != cells or cells != 144:
            result.problems.append(f"{len(result.unit_ok)} of {cells} cells "
                                   "attempted, want 144")
        for summary in result.outputs["summaries"]:
            if summary is None:
                result.runs.append(None)
                continue
            for run in summary.runs:
                if not 0.0 <= run.accuracy <= 1.0:
                    result.problems.append(
                        f"{summary.kind}/{summary.modality}/"
                        f"{summary.classifier}/{summary.experiment}: "
                        f"accuracy {run.accuracy}")
                result.runs.append((run.accuracy, run.auc))


# ------------------------------------------------------------------ register

ALIGNED_PAIRS = 3        # phantom t1_pre/t1_post at 32^3, one per grade
MOVED_PAIRS = 6          # blob volumes at 48^3 under a seeded rigid move
MOVED_DIMS = (48, 48, 48)
MAX_DEG, MAX_MM = 5.0, 5.0


class Register:
    name = "register"

    def __init__(self, root: Path, work: Path, seed: int, speed):
        self.work, self.seed, self.speed = work, seed, speed

    def setup(self):
        """Write a 3/3/3 phantom cohort as NIfTI and move blob volumes by
        seeded rigid transforms.  The phantom's t1_pre and t1_post share one
        label map, so the true transform of an aligned pair is the identity.

        The volumes are the same for every seed (phantom seed 0, blob seeds
        0-5); the workload seed picks each move and each search's seed.  With
        volumes drawn from the seed too, the median pair time spread twice
        as widely between seeds.
        """
        inputs = self.work / "inputs"
        cohort = phantom.generate_cohort(n_per_grade=(3, 3, 3), base_seed=0)
        manifest = phantom.write_cohort(cohort, inputs)
        rows, _ = phantom.read_manifest(manifest)
        firsts = [r for r in rows if r["subject_id"].endswith("_000")]
        rng = np.random.default_rng([self.seed, 1])
        self.aligned = [(r["subject_id"], r["t1_pre"], r["t1_post"],
                         int(rng.integers(2 ** 31)))
                        for r in firsts[:ALIGNED_PAIRS]]
        self.moved = []
        for i in range(MOVED_PAIRS):
            blob = phantom.smooth_blob_volume(dims=MOVED_DIMS, seed=i)
            center = tuple(blob.geometry.world_center())
            true = RigidTransform(
                tuple(np.deg2rad(rng.uniform(-MAX_DEG, MAX_DEG, size=3))),
                tuple(rng.uniform(-MAX_MM, MAX_MM, size=3)), center)
            moved = volume.resample(blob, blob.geometry, mode="linear",
                                    world_map=true.matrix())
            self.moved.append((blob, moved, true, int(rng.integers(2 ** 31))))

    def _subtract(self, out: Path, pre, post, es_seed) -> bool:
        return cli.main(["subtract", pre, post, "--out", str(out),
                         "--seed", str(es_seed)]) == 0

    def run_pass(self, index: int, tracer) -> Pass:
        """One operation per pair: an aligned pair through ``gliomics
        subtract``, a moved pair registered with criterion 4's settings and
        subtracted."""
        result = Pass()
        result.outputs["a"] = self.work / f"pass{index}a"
        result.outputs["b"] = self.work / f"pass{index}b"
        fits = result.outputs.setdefault("moved", [])

        def register(blob, moved, true, es_seed):
            fit = registration.register_rigid(
                blob, moved, mi=MiConfig(sample_fraction=0.5),
                es=EsConfig(seed=es_seed))
            fits.append((fit, registration.subtraction_map(moved, blob, fit),
                         true, blob))
            return True

        out = result.outputs["a"]
        ops = [(f"aligned/{sid}",
                lambda sid=sid, pair=pair: self._subtract(out / sid, *pair))
               for sid, *pair in self.aligned]
        ops += [(f"moved/{i}", lambda m=m: register(*m))
                for i, m in enumerate(self.moved)]
        timed_ops(tracer, self.speed, result, ops)
        return result

    def inspect(self, result: Pass):
        if not all(result.op_ok):
            result.problems.append("a registration did not finish")
            return
        # the first aligned pair again, untimed and with identical
        # arguments, to find the artifacts that are not byte-identical
        # between two runs; one pair writes every kind of artifact
        a, b = result.outputs["a"], result.outputs["b"]
        again = self.aligned[0]
        if not self._subtract(b / again[0], *again[1:]):
            result.problems.append(f"{again[0]}: second subtract failed")
        pairs = []
        for sid, _, post, _ in self.aligned:
            fit = RigidTransform.from_json(
                json.loads((a / sid / "transform.json").read_text()))
            sub = volume.load_volume(a / sid / "subtraction.nii.gz")
            pairs.append((sid, fit.params(), sub,
                          volume.load_volume(post).geometry))
        for i, (fit, sub, true, blob) in enumerate(result.outputs["moved"]):
            pairs.append((f"moved/{i}", fit.compose(true).params(), sub,
                          blob.geometry))
        for label, resid, sub, grid in pairs:
            if not np.all(np.isfinite(resid)):
                result.problems.append(f"{label}: transform is not finite")
            if not sub.geometry.matches(grid) or not np.all(sub.data >= 0.0):
                result.problems.append(f"{label}: subtraction map is not "
                                       ">= 0 on the post grid")
            result.residuals.append((float(np.abs(resid[:3]).max()),
                                     float(np.abs(resid[3:]).max())))
        names, differ = compare_trees(a / again[0], b / again[0])
        result.artifacts = len(names)
        result.nondeterministic = [f"{again[0]}/{n}" for n in differ]
        for n in differ:
            if n.suffix == ".json":
                result.problems.append(f"{n} differs between the two passes")


WORKLOADS = {w.name: w for w in (Cohort, Classify, Register)}


def registration_quality(residuals) -> dict:
    """Recovery against criterion 4's tolerance, over a pass's pairs."""
    n = len(residuals)
    recovered = sum(deg <= RECOVER_DEG and mm <= RECOVER_MM
                    for deg, mm in residuals)
    return {
        "registration.recovered_frac": (recovered / n if n else 0.0,
                                        "fraction"),
        "registration.rot_err_p50_deg": (
            float(np.median([d for d, _ in residuals])) if n else 0.0, "deg"),
        "registration.trans_err_p50_mm": (
            float(np.median([m for _, m in residuals])) if n else 0.0, "mm"),
    }
