"""Every function and method written in ``src/gliomics`` runs in the study
the README walks through, or is on ``ALLOWED`` with a comment naming its
caller.

The README's walkthrough runs in-process under ``sys.setprofile``, which
records each Python function as it is called.  It runs every classifier
and experiment at one run per cell, on one worker, since a pool's threads
and processes run unprofiled, on the smallest cohort where every cell
trains (4 per grade).  A function that nothing reaches and nothing
allowed calls is a second copy of the pipeline, or dead: delete it, or
list it here with its caller.
"""

import importlib
import inspect
import logging
import pkgutil
import sys

import readme

import gliomics
from gliomics import cli, phantom

# dotted names under gliomics that the walkthrough does not reach
ALLOWED = {
    # bench/workloads.py: the classify workload's in-memory cohort and
    # feature rows, the register workload's ground truth and its scoring
    # (criterion 4 uses smooth_blob_volume and compose as well)
    "phantom.generate_cohort",
    "phantom.write_cohort",
    "phantom.smooth_blob_volume",
    "features.extract_all",
    "registration.RigidTransform.from_json",
    "registration.RigidTransform.compose",
    "registration.RigidTransform.from_matrix",    # called by compose
    "registration._matrix_to_euler_zyx",          # called by from_matrix
    # bench/layers.py: the traced run's SMO pass count
    "svm.SmoResult.passes",
    # input the pipeline never writes itself, each with the test covering it
    "errors.LabelOutOfRange.__init__",    # test_volume test_labelmap_range
    "errors.LabelOutOfRange.__reduce__",  # test_errors test_pickle_round_trip
    "nifti._quaternion_rotation",         # test_nifti test_qform_fallback
    # the reference the gates check against: criterion 5 and tests/test_mlp.py
    "mlp.mlp_gradient_check",
    # sensitivity and specificity, until train-eval reports them or the
    # function goes (ROADMAP Direction F); tests/test_evaluate.py
    "evaluate.classification_report",
}


def defined() -> dict:
    """Code object -> dotted name, for every module-level function and
    every method of a class, written in a module of ``src/gliomics``."""
    names = {}
    for info in pkgutil.iter_modules(gliomics.__path__):
        if info.name == "__main__":     # importing it runs the command
            continue
        module = importlib.import_module(f"gliomics.{info.name}")
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value)
                           for attr, value in vars(obj).items()]
            for dotted, value in members:
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                code = getattr(value, "__code__", None)
                # leaves out imported names and the methods dataclass makes
                if code is not None and code.co_filename == module.__file__:
                    names[code] = f"{info.name}.{dotted}"
    return names


def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(cli, "worker_count", lambda: 1)
    monkeypatch.setattr(phantom, "worker_count", lambda: 1)
    # the debug lines, as GLIOMICS_LOG=debug gives them: train-eval hands
    # each cell's records on through a handler of its own
    caplog.set_level(logging.DEBUG, logger="gliomics")
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    argvs = readme.commands(tmp_path, {"n_runs": 1}, n_per_grade="4,4,4",
                            jobs="1")
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes)

    names = defined()
    unreached = {name for code, name in names.items() if code not in seen}
    assert sorted(unreached - ALLOWED) == []
    # an entry that is gone, or that the walkthrough now reaches, goes too
    assert sorted(ALLOWED - unreached) == []
