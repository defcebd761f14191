"""Command-line pipeline: phantom generation, registration/subtraction,
feature extraction, volumetrics, training/evaluation and group statistics.

Every artifact embeds {tool_version, config_digest, seed} (JSON key or CSV
comment line) and contains no timestamps, so reruns with identical inputs
are byte-identical.  Every file goes through ``artifacts``, which writes it
atomically (unique temp file + rename), so no file is ever half-written.

Exit codes: 0 success, otherwise the ``exit_code`` of the package error
raised (see ``errors``); any other OS error exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import read_bytes, read_csv, write_csv, write_json
from .classify import TrainConfig
from .errors import GliomicsError
from .experiments import (CLASSIFIERS, EXPERIMENTS, read_feature_table,
                          run_experiment, summary_csv_rows,
                          write_feature_table)
from .features import KIND_LENGTHS, extract_all
from .phantom import (DIMS, GRADES, cohort_specs, read_manifest,
                      stream_cohort, worker_count, worker_map)
from .stats import dunn_posthoc, kruskal_wallis
from .volume import TUMOR_LABELS, load_labelmap, load_volume, save_volume
from .volumetrics import component_volumes, volume_ratios

log = logging.getLogger("gliomics")

# what the error line says before the message, by exit code
_FAILURE_PREFIX = {3: "registration failed: ", 4: "training failed: "}


def _config_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _provenance(seed: int, config: dict) -> dict:
    return {"tool_version": __version__, "config_digest": _config_digest(config),
            "seed": seed}


_CONFIG_KEYS = ("classifiers", "experiments", "n_runs", "train")


def _load_config(path) -> dict:
    """The train-eval config file as a dict ({} without one)."""
    if path is None:
        return {}
    try:
        config = json.loads(read_bytes(path))
    except ValueError as exc:   # not JSON, or not UTF-8
        raise GliomicsError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or not set(config) <= set(_CONFIG_KEYS):
        raise GliomicsError(f"config {path} must be a JSON object with keys "
                            f"from {list(_CONFIG_KEYS)}")
    return config


def _no_repeats(names, what: str):
    """Raise GliomicsError naming the first name ``names`` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise GliomicsError(f"{what} names {name!r} twice")
        seen.add(name)


def _config_names(config: dict, key: str, known) -> list:
    names = config.get(key, list(known))
    if not (isinstance(names, list) and names
            and all(n in known for n in names)):
        raise GliomicsError(f"config {key} must be a non-empty list from "
                            f"{list(known)}, got {names!r}")
    _no_repeats(names, f"config {key}")
    return names


def _train_config(train) -> TrainConfig:
    if not isinstance(train, dict):
        raise GliomicsError(f"config train must be a JSON object, got {train!r}")
    # JSON has no tuples; the grids arrive as lists
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in train.items()}
    try:
        return TrainConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise GliomicsError(f"bad train config: {exc}") from exc


# ---------------------------------------------------------------- subtract

def cmd_subtract(args) -> int:
    # imported here: registration loads SciPy, which no other command needs
    from .registration import (EsConfig, MiConfig, register_rigid,
                               subtraction_map)
    pre = load_volume(args.pre)
    post = load_volume(args.post)
    out = Path(args.out)
    mi, es = MiConfig(), EsConfig(seed=args.seed)
    transform = register_rigid(post, pre, mi, es)
    sub = subtraction_map(pre, post, transform)
    prov = _provenance(args.seed, {"mi": asdict(mi), "es": asdict(es)})
    save_volume(sub, out / "subtraction.nii.gz")
    payload = transform.to_json()
    payload["provenance"] = prov
    write_json(out / "transform.json", payload)
    log.info("wrote %s", out / "subtraction.nii.gz")
    return 0


# ---------------------------------------------------------------- features

def _extract_subject(row, modalities, kinds):
    """One subject's feature vectors, or the ``GliomicsError`` it hit,
    returned so that it comes back alike from this or a worker process."""
    try:
        lm = load_labelmap(row["labelmap"])
        out = {}
        for modality in modalities:
            v = load_volume(row[modality])
            out[modality] = {kind: fv.values for kind, fv
                             in extract_all(v, lm, kinds).items()}
    except GliomicsError as exc:
        return exc
    return row["subject_id"], row["grade"], out


def cmd_features(args) -> int:
    if args.jobs < 1:
        raise GliomicsError(f"--jobs must be at least 1, got {args.jobs}")
    rows, modalities = read_manifest(args.manifest)
    if not rows:
        raise GliomicsError(f"manifest {args.manifest} lists no subjects")
    if not modalities:
        raise GliomicsError(f"manifest {args.manifest} has no modality column")
    kinds = (list(KIND_LENGTHS) if args.kinds is None
             else args.kinds.split(","))
    for kind in kinds:
        if kind not in KIND_LENGTHS:
            raise GliomicsError(f"unknown feature kind {kind!r}")
    _no_repeats(kinds, "--kinds")
    if "shape" in kinds:    # loaded before the pool forks, not per worker
        import scipy.ndimage  # noqa: F401
    extract = partial(_extract_subject, modalities=modalities, kinds=kinds)
    results = []
    outcomes = worker_map(extract, rows, args.jobs)
    for row, outcome in zip(rows, outcomes):
        if not isinstance(outcome, GliomicsError):
            results.append(outcome)
        elif args.skip_errors:
            log.warning("skipping %s: %s", row["subject_id"], outcome)
        else:
            outcomes.close()    # cancels the subjects still queued
            raise outcome
    if not results:
        raise GliomicsError("no subject could be processed")
    results.sort(key=lambda r: r[0])

    out = Path(args.out)
    prov = _provenance(args.seed, {"kinds": kinds, "modalities": modalities})
    for kind in kinds:
        table_rows = [(sid, modality, grade, vecs[modality][kind])
                      for sid, grade, vecs in results
                      for modality in modalities]
        path = write_feature_table(out / f"features_{kind}.csv", table_rows,
                                   kind, prov)
        log.info("wrote %s (%d rows)", path, len(table_rows))
    return 0


# ------------------------------------------------------------- volumetrics

_RATIO_COLUMNS = tuple(f"ratio_pct_label{k}" for k in TUMOR_LABELS)


def cmd_volumetrics(args) -> int:
    rows, _ = read_manifest(args.manifest)
    if not rows:
        raise GliomicsError(f"manifest {args.manifest} lists no subjects")
    prov = _provenance(args.seed, {"include_edema": not args.exclude_edema})
    table = [["subject_id", "grade",
              *[f"vol_mm3_label{k}" for k in TUMOR_LABELS], "total_mm3",
              *_RATIO_COLUMNS]]
    for row in sorted(rows, key=lambda r: r["subject_id"]):
        lm = load_labelmap(row["labelmap"])
        cv = component_volumes(lm, include_edema=not args.exclude_edema)
        vr = volume_ratios(cv)
        if vr.degenerate:
            log.warning("subject %s has zero tumor volume", row["subject_id"])
        table.append([row["subject_id"], row["grade"],
                      *[f"{cv.volumes_mm3[k]:.6g}" for k in TUMOR_LABELS],
                      f"{cv.total_mm3:.6g}",
                      *[f"{vr.ratios_pct[k]:.6g}" for k in TUMOR_LABELS]])
    write_csv(args.out, table, prov)
    return 0


# -------------------------------------------------------------- train-eval

def _cost_rank(key) -> tuple:
    """A distinct cell's place in the queue, the costliest first so that no
    long cell runs alone at the end: linear-kernel SVM cells took 72% of the
    default study's cell time (133.3 of 184.1 s, each ``run_experiment``
    call timed in one process on a 2-core host), and within a classifier
    ``all`` costs most, then II-III (107.4 and 23.7 s of svm-linear's)."""
    _, classifier, experiment = key
    return (classifier != "svm-linear",
            {"all": 0, "II-III": 1}.get(experiment, 2))


class _Records(logging.Handler):
    """Keeps the records it is handed, each message formatted, so that the
    records pickle whatever their arguments were."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)


def _train_cell(cell: dict, level: int):
    """``run_experiment(**cell)`` and the log records it made, held back so
    that ``cmd_train_eval`` emits them in the serial order for any worker
    count.  ``level`` is the caller's, for a worker process that did not
    inherit its logging set-up.

    Worker processes get this function by reference, so it must be a
    module-level function of its own: whatever rebinds ``run_experiment``
    makes that name no longer pickle by reference."""
    saved = log.level, log.propagate
    captured = _Records()
    log.addHandler(captured)
    log.setLevel(level)
    log.propagate = False
    try:
        return run_experiment(**cell), captured.records
    finally:
        log.removeHandler(captured)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def cmd_train_eval(args) -> int:
    config = _load_config(args.config)
    classifiers = _config_names(config, "classifiers", CLASSIFIERS)
    experiments = _config_names(config, "experiments",
                                [name for name, _ in EXPERIMENTS])
    n_runs = config.get("n_runs", 100)          # runs per cell
    if type(n_runs) is not int or n_runs < 1:   # bool is no count
        raise GliomicsError(f"need a positive whole number of runs, "
                            f"got {n_runs!r}")
    cfg = _train_config(config.get("train", {}))

    # report names carry the kind, so two tables of one kind would overwrite
    # each other's reports
    tables = {}
    for path in args.features:
        meta, X, kind = read_feature_table(path)
        if kind in tables:
            raise GliomicsError(f"{tables[kind][0]} and {path} are both "
                                f"{kind} tables")
        tables[kind] = (path, meta, X)

    out = Path(args.out)
    # the settings the grid runs with, however they were given
    prov = _provenance(args.seed, {
        "classifiers": classifiers, "experiments": experiments,
        "n_runs": n_runs, "train": asdict(cfg)})
    # every run's seed and settings are the grid's, so equal rows give equal
    # summaries: the shape table repeats its rows under every modality, and
    # each distinct (rows, classifier, experiment) trains once
    cells, distinct = [], {}
    for kind, (_, meta, X) in tables.items():
        by_modality = {}
        for i, m in enumerate(meta):
            by_modality.setdefault(m["modality"], []).append(i)
        for modality, idx in sorted(by_modality.items()):
            idx = sorted(idx, key=lambda i: meta[i]["subject_id"])
            Xm = X[idx]
            grades = np.array([meta[i]["grade"] for i in idx])
            rows = (kind, Xm.shape, Xm.tobytes(), grades.tobytes())
            for classifier in classifiers:
                for experiment in experiments:
                    key = (rows, classifier, experiment)
                    cells.append((key, modality))
                    distinct.setdefault(key, {
                        "X": Xm, "grades": grades, "experiment": experiment,
                        "classifier": classifier, "cfg": cfg,
                        "n_runs": n_runs, "seed0": args.seed, "kind": kind,
                        "modality": modality})
    order = sorted(distinct, key=_cost_rank)
    workers = min(worker_count(), len(order))
    start = time.perf_counter()
    train = partial(_train_cell, level=log.getEffectiveLevel())
    trained = {}
    try:
        for key, result in zip(order, worker_map(
                train, [distinct[k] for k in order], workers)):
            trained[key] = result
    finally:
        # the records of every cell trained, failed grid or not, in the
        # order the cells would train in serially
        for key in distinct:
            for record in trained.get(key, (None, ()))[1]:
                logging.getLogger(record.name).handle(record)
    summaries, reports = [], {}
    for key, modality in cells:
        s = replace(trained[key][0], modality=modality)
        summaries.append(s)
        report = asdict(s)
        report["per_run"] = report.pop("runs")
        report["provenance"] = prov
        name = (f"report_{s.kind}_{modality}_{s.classifier}_"
                f"{s.experiment}.json")
        reports[name] = report
    # nothing is written until the whole grid has run
    for name, report in reports.items():
        write_json(out / name, report)
    write_csv(out / "summary.csv", summary_csv_rows(summaries), prov)
    log.info("wrote %s: %d cells, %d trained, %d reused, %d worker "
             "processes, %.2f s", out / "summary.csv", len(cells),
             len(distinct), len(cells) - len(distinct), workers,
             time.perf_counter() - start)
    return 0


# ------------------------------------------------------------------- stats

def cmd_stats(args) -> int:
    rows = read_csv(args.ratios, {"subject_id": str, "grade": GRADES,
                                  **dict.fromkeys(_RATIO_COLUMNS, float)},
                    key=("subject_id",))
    grades = sorted({r["grade"] for r in rows})
    if len(grades) < 3:
        raise GliomicsError(f"need all three grades, found {grades}")

    prov = _provenance(args.seed, {})     # the rank tests take no settings
    results = {}
    table = [["ratio", "h", "p_kw", "pair", "z", "p_adjusted", "significant"]]
    for col in _RATIO_COLUMNS:
        groups = [[r[col] for r in rows if r["grade"] == g] for g in grades]
        kw = kruskal_wallis(groups)
        dunn = dunn_posthoc(groups)
        pair_rows = []
        for (i, j), z, p in zip(dunn.pairs, dunn.z, dunn.p_adjusted):
            pair = f"{grades[i]}-{grades[j]}"
            sig = bool(p < 0.05)
            pair_rows.append({"pair": pair, "z": z, "p_adjusted": p,
                              "significant": sig})
            table.append([col, f"{kw.h:.6g}", f"{kw.p_value:.6g}", pair,
                          f"{z:.6g}", f"{p:.6g}", str(sig).lower()])
        results[col] = {"h": kw.h, "p": kw.p_value,
                        "all_identical": kw.all_identical, "pairs": pair_rows}
    out = Path(args.out)
    write_json(out / "stats.json", {"provenance": prov, "ratios": results})
    write_csv(out / "stats.csv", table, prov)
    return 0


# ----------------------------------------------------------------- phantom

def cmd_phantom(args) -> int:
    try:
        n_per_grade = tuple(int(x) for x in args.n_per_grade.split(","))
    except ValueError as exc:
        raise GliomicsError(f"bad integer list: {exc}") from exc
    if len(n_per_grade) != 3:
        raise GliomicsError("n-per-grade needs exactly three values")
    try:
        specs = cohort_specs(n_per_grade=n_per_grade, base_seed=args.seed)
    except ValueError as exc:   # sizes the phantom model cannot build
        raise GliomicsError(f"bad cohort size: {exc}") from exc
    out = Path(args.out)
    workers = worker_count()
    start = time.perf_counter()
    # loaded before the pool forks, not per worker
    import scipy.ndimage  # noqa: F401
    manifest = stream_cohort(specs, out, workers)
    # the grid is fixed, but it describes the data, so the digest covers it
    prov = _provenance(args.seed, {"n_per_grade": n_per_grade, "dims": DIMS})
    write_json(out / "provenance.json", prov)
    n_files = len(specs) * (1 + len(specs[0][1].modalities)) + 2
    log.info("wrote %s: %d subjects, %d files, %d worker processes, %.2f s",
             manifest, len(specs), n_files, workers,
             time.perf_counter() - start)
    return 0


# ------------------------------------------------------------------ parser

def _seed(text: str) -> int:
    """``--seed``: a whole number, at least 0, as NumPy's seeding takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 0, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gliomics",
        description="Glioma grading pipeline over NIfTI volumes and label maps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("subtract", help="register pre to post, write the "
                                        "positive-clamped difference")
    p.add_argument("pre")
    p.add_argument("post")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_subtract)

    p = sub.add_parser("features", help="extract feature CSVs from a manifest")
    p.add_argument("manifest")
    p.add_argument("--kinds", default=None,
                   help="comma list from v1,v2,v3,shape (default all)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--skip-errors", action="store_true",
                   help="skip unreadable subjects instead of aborting")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("volumetrics", help="per-subject component volumes "
                                           "and ratios")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--exclude-edema", action="store_true",
                   help="drop edema from the total-volume denominator")
    common(p)
    p.set_defaults(func=cmd_volumetrics)

    p = sub.add_parser("train-eval", help="run the experiment grid over "
                                          "feature tables")
    p.add_argument("features", nargs="+", help="per-kind feature CSV paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON config file")
    common(p)
    p.set_defaults(func=cmd_train_eval)

    p = sub.add_parser("stats", help="Kruskal-Wallis + Dunn over a "
                                     "volumetrics table")
    p.add_argument("ratios", help="volumetrics CSV")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-grade", default="18,14,25")
    common(p)
    p.set_defaults(func=cmd_phantom)
    return parser


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def main(argv=None) -> int:
    level = os.environ.get("GLIOMICS_LOG", "warning")
    if level.lower() not in _LOG_LEVELS:
        print(f"gliomics: GLIOMICS_LOG must be one of "
              f"{', '.join(_LOG_LEVELS)}, got {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GliomicsError as exc:
        log.error("%s%s", _FAILURE_PREFIX.get(exc.exit_code, ""), exc)
        return exc.exit_code
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
