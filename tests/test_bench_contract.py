"""The names the benchmark's tracer wraps still exist and are still called.

``bench/layers.py`` rebinds gliomics functions by name (``train_ova``,
``smo_solve``, ``train_mlp``, ...).  A rename would leave a traced run
without those spans, or break ``bench/run.py --trace 1`` outright; this
test makes it fail here first.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from gliomics import classify, experiments, mlp, svm
from gliomics.classify import TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return (importlib.import_module("layers"),
            importlib.import_module("tracer"))


def test_traced_classifiers_record_their_spans(bench_modules):
    layers, tracer_module = bench_modules
    rng = np.random.default_rng(2)
    grades = np.repeat([2, 3, 4], 5)
    X = rng.normal(3.0 * grades[:, None], 1.0, size=(15, 4))
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        with tracer.operation(0):
            for classifier in experiments.CLASSIFIERS:
                experiments.run_experiment(X, grades, "all", classifier,
                                           TrainConfig(max_iters=10),
                                           n_runs=1)
        metrics = layers.metrics(tracer)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("svm.smo", "svm.kernel_matrix", "classify.select_svm",
                 "classify.grid_fit", "mlp.train", "mlp.loss_and_grad"):
        assert name in names, name
    for name in ("svm.smo_calls", "svm.smo_passes", "classify.grid_fits",
                 "mlp.train_calls", "mlp.iters"):
        assert metrics[name][0] > 0, name
    assert classify.train_ova is svm.train_ova
    assert experiments.train_mlp is mlp.train_mlp
