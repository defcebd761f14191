"""Where the traced run wraps gliomics, and the per-layer metrics it derives.

Each layer is one gliomics module.  Spans are named ``<layer>.<what>``, so a
layer's self time is the summed self time of the spans carrying its name.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
from gliomics import (classify, cli, evaluate, experiments, features, mlp,
                      nifti, phantom, registration, stats, svm, volume,
                      volumetrics)

from tracer import self_times

LAYERS = ("cli", "phantom", "nifti", "volume", "registration", "features",
          "volumetrics", "stats", "experiments", "classify", "svm", "mlp",
          "evaluate")
CLI_COMMANDS = ("phantom", "features", "volumetrics", "stats", "train_eval",
                "subtract")
CLASSIFIER_NAMES = experiments.CLASSIFIERS
# set-up work reported apart from the pass: what setup_s is made of
SETUP_SPANS = ("phantom.generate_cohort", "phantom.write_cohort",
               "features.extract_all", "volume.resample")

# NIfTI-1 datatype code -> bytes per voxel, from the format's standard
_NIFTI_ITEMSIZE = {2: 1, 4: 2, 8: 4, 16: 4, 64: 8, 256: 1, 512: 2, 768: 4,
                   1024: 8, 1280: 8}


def _nifti_read(tracer, args, kwargs, parsed):
    path = args[0] if args else kwargs["path"]
    tracer.counts["nifti.read_bytes"] += (
        parsed.data.size * _NIFTI_ITEMSIZE.get(parsed.datatype_code, 0))
    tracer.counts["nifti.read_disk_bytes"] += os.path.getsize(path)


def _nifti_write(tracer, args, kwargs, _):
    bound = dict(zip(("path", "data", "spacing", "affine", "dtype"), args),
                 **kwargs)
    tracer.counts["nifti.write_bytes"] += (
        bound["data"].size * np.dtype(bound["dtype"]).itemsize)
    tracer.counts["nifti.write_disk_bytes"] += os.path.getsize(bound["path"])


def _es_steps(tracer, args, kwargs, result):
    _, mi_trace = result
    tracer.counts["registration.accepted_steps"] += len(mi_trace) - 1


def _smo_passes(tracer, args, kwargs, result):
    tracer.counts["svm.smo_passes"] += result.passes


def _kernel_entries(tracer, args, kwargs, result):
    tracer.counts["svm.kernel_entries"] += result.size


def _mlp_iters(tracer, args, kwargs, result):
    _, history = result
    tracer.counts["mlp.iters"] += len(history["train_loss"]) - 1


def _run_once_name(X, grades, classifier, *args, **kwargs):
    return f"experiments.run_once.{classifier}"


def install(tracer):
    """Wrap every traced boundary; ``tracer.uninstall()`` undoes it."""
    w = tracer.wrap
    for command in CLI_COMMANDS:
        w(cli, f"cmd_{command}", f"cli.{command}")
    w(phantom, "generate_cohort", "phantom.generate_cohort")
    w(phantom, "write_cohort", "phantom.write_cohort")
    w(nifti, "read_nifti", "nifti.read", observe=_nifti_read)
    w(nifti, "write_nifti", "nifti.write", observe=_nifti_write)
    w(volume, "load_volume", "volume.load_volume")
    w(volume, "load_labelmap", "volume.load_labelmap")
    w(volume, "resample", "volume.resample")
    w(registration, "register_rigid", "registration.register",
      observe=_es_steps, extra="return_trace")
    # one interpolation per MI evaluation; volume.resample keeps its own
    w(registration, "map_coordinates", "registration.interp",
      where=[registration])
    w(registration, "subtraction_map", "registration.subtraction")
    w(features, "extract_all", "features.extract_all")
    w(features, "shape_block", "features.shape_block")
    w(features, "connected_components", "features.connected_components")
    for build in ("build_v1", "build_v2", "build_v3"):
        w(features, build, "features.intensity")
    w(volumetrics, "component_volumes", "volumetrics.component_volumes")
    w(stats, "kruskal_wallis", "stats.kruskal_wallis")
    w(stats, "dunn_posthoc", "stats.dunn_posthoc")
    w(experiments, "run_experiment", "experiments.cell")
    w(experiments, "run_once", _run_once_name)
    w(classify, "select_svm_hyperparams", "classify.select_svm")
    w(classify, "train_ova", "classify.grid_fit", where=[classify])
    w(classify, "fit_standardizer", "classify.standardize")
    w(classify.Standardizer, "apply", "classify.standardize",
      where=[classify.Standardizer])
    w(svm, "smo_solve", "svm.smo", observe=_smo_passes)
    w(svm.Kernel, "matrix", "svm.kernel_matrix", observe=_kernel_entries,
      where=[svm.Kernel])
    w(mlp, "train_mlp", "mlp.train", observe=_mlp_iters,
      extra="return_history")
    w(mlp, "loss_and_grad", "mlp.loss_and_grad")
    w(evaluate, "stratified_split", "evaluate.stratified_split")
    w(evaluate, "roc_auc", "evaluate.roc_auc")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer) -> dict:
    """Per-layer metric name -> (value, unit) from the recorded spans.

    The layer metrics come from the spans of the traced pass (those with an
    operation id); the ``setup.*`` ones from the spans set-up recorded.
    ``tracer.counts`` and ``tracer.raised`` must hold the pass's alone.
    """
    calls, secs, layer_self, setup = Counter(), Counter(), Counter(), Counter()
    in_pass = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, op = span[0], span[1], span[2], span[4]
        if op is None:
            setup[name] += end - start
            continue
        in_pass += 1
        calls[name] += 1
        secs[name] += end - start
        layer_self[name.split(".", 1)[0]] += own
    c = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for command in CLI_COMMANDS:
        put(f"cli.{command}_s", secs[f"cli.{command}"], "s")
    for what in ("generate_cohort", "write_cohort"):
        put(f"phantom.{what}_s", secs[f"phantom.{what}"], "s")
    for op in ("read", "write"):
        put(f"nifti.{op}_calls", calls[f"nifti.{op}"], "count")
        put(f"nifti.{op}_s", secs[f"nifti.{op}"], "s")
        put(f"nifti.{op}_bytes", c[f"nifti.{op}_bytes"], "B_computed")
        put(f"nifti.{op}_disk_bytes", c[f"nifti.{op}_disk_bytes"], "B")
    put("volume.load_volume_calls", calls["volume.load_volume"], "count")
    put("volume.load_labelmap_calls", calls["volume.load_labelmap"], "count")
    put("volume.resample_calls", calls["volume.resample"], "count")
    put("volume.resample_s", secs["volume.resample"], "s")
    put("registration.register_calls", calls["registration.register"],
        "count")
    put("registration.register_s", secs["registration.register"], "s")
    put("registration.mi_evals", calls["registration.interp"], "count")
    put("registration.interp_s", secs["registration.interp"], "s")
    put("registration.interp_share",
        _ratio(secs["registration.interp"], secs["registration.register"]),
        "fraction")
    put("registration.accept_ratio",
        _ratio(c["registration.accepted_steps"], calls["registration.interp"]),
        "fraction")
    put("registration.subtraction_s", secs["registration.subtraction"], "s")
    put("features.extract_all_calls", calls["features.extract_all"], "count")
    put("features.extract_all_s", secs["features.extract_all"], "s")
    put("features.shape_block_calls", calls["features.shape_block"], "count")
    put("features.shape_block_s", secs["features.shape_block"], "s")
    put("features.connected_components_calls",
        calls["features.connected_components"], "count")
    put("features.intensity_s", secs["features.intensity"], "s")
    put("volumetrics.component_volumes_s",
        secs["volumetrics.component_volumes"], "s")
    put("stats.kruskal_wallis_s", secs["stats.kruskal_wallis"], "s")
    put("stats.dunn_posthoc_s", secs["stats.dunn_posthoc"], "s")
    put("experiments.run_once_calls",
        sum(calls[f"experiments.run_once.{k}"] for k in CLASSIFIER_NAMES),
        "count")
    for k in CLASSIFIER_NAMES:
        put(f"experiments.run_once_s.{k}", secs[f"experiments.run_once.{k}"],
            "s")
    put("experiments.cells_failed", tracer.raised["experiments.cell"],
        "count")
    put("classify.select_svm_calls", calls["classify.select_svm"], "count")
    put("classify.select_svm_s", secs["classify.select_svm"], "s")
    put("classify.grid_fits", calls["classify.grid_fit"], "count")
    put("classify.standardize_s", secs["classify.standardize"], "s")
    put("svm.smo_calls", calls["svm.smo"], "count")
    put("svm.smo_s", secs["svm.smo"], "s")
    put("svm.smo_passes", c["svm.smo_passes"], "count")
    put("svm.smo_failures", tracer.raised["svm.smo"], "count")
    put("svm.kernel_matrix_calls", calls["svm.kernel_matrix"], "count")
    put("svm.kernel_entries", c["svm.kernel_entries"], "count")
    put("svm.kernel_matrix_s", secs["svm.kernel_matrix"], "s")
    put("mlp.train_calls", calls["mlp.train"], "count")
    put("mlp.train_s", secs["mlp.train"], "s")
    put("mlp.loss_and_grad_calls", calls["mlp.loss_and_grad"], "count")
    put("mlp.loss_and_grad_s", secs["mlp.loss_and_grad"], "s")
    put("mlp.iters", c["mlp.iters"], "count")
    put("evaluate.stratified_split_s", secs["evaluate.stratified_split"], "s")
    put("evaluate.roc_auc_calls", calls["evaluate.roc_auc"], "count")
    put("evaluate.roc_auc_s", secs["evaluate.roc_auc"], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    for name in SETUP_SPANS:
        put(f"setup.{name}_s", setup[name], "s")
    put("trace.spans", in_pass, "count")
    return out
