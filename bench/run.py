#!/usr/bin/env python3
"""Benchmark of the gliomics pipeline: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload cohort --seed 0 --seconds 30 --trace 0

Workloads (``workloads.py``): ``cohort``, ``classify`` and ``register``.

``--trace 0`` sets the workload up SETUP_REPEATS times, then runs whole
passes while another pass still fits in ``--seconds`` (at least one), checks
every pass and prints the end-to-end metrics.  ``--trace 1`` sets up once
with tracing on, runs one pass untraced and one traced, and prints the
per-layer metrics of the traced pass, plus ``setup.*`` times of the set-up;
``trace.overhead_s`` is the traced pass's wall time minus the untraced one's.
End-to-end metrics come only from untraced runs.

Every run pins OpenBLAS to one thread: the single-threaded baseline.
``setup_s`` and ``op_p50_s`` are in reference seconds: each set-up and each
operation is timed between two probes of a fixed reference kernel
(``measure.HostSpeed``) and scaled by how much slower or faster than
``measure.REF_S`` the kernel ran there, so that the shared host's changes of
speed do not pass into them.  Besides the bounded metrics an untraced run
prints, as unbounded diagnostics, the pass's wall time, the p90 operation
time (the median where a pass has under 92 operations), and the measured
seconds of ``op_p50_s`` and ``setup_s`` before scaling.

Every run prints one metric per line, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
The full record -- environment, seed, details, and the spans of a traced
run -- goes to .bench_work/results/.  Exit status 0 means the run finished;
``correct`` says whether the program's outputs passed the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure
import selftest
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# value printed for an end-to-end metric the workload does not exercise
# (no classifier runs on register, no written artifacts on classify), so
# every run prints every metric and none reads 0; the result file lists
# such metrics under "not_measured"
NOT_MEASURED = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def timed_pass(workload, index, tracer):
    result, result_wall = timed(workload.run_pass, index, tracer)
    result.wall_s = result_wall
    return result


def end_to_end(passes, setups, speed):
    ops = [t for p in passes for t in p.op_ref_seconds]
    raw_ops = [t for p in passes for t in p.op_seconds]
    ok = [o for p in passes for o in p.unit_ok]
    runs = [r for p in passes for r in p.runs]
    artifacts = sum(p.artifacts for p in passes)
    differ = sum(len(p.nondeterministic) for p in passes)
    p90, q = measure.op_p90(ops)
    wall = statistics.median(p.wall_s for p in passes)
    not_measured = []
    if runs:
        accuracy, auc = measure.score_runs(runs)
    else:
        accuracy = auc = NOT_MEASURED
        not_measured += ["mean_accuracy", "mean_auc"]
    if not artifacts:
        not_measured.append("identical_artifacts_frac")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "ok_frac": (sum(ok) / len(ok), "fraction"),
        "mean_accuracy": (accuracy, "fraction"),
        "mean_auc": (auc, "fraction"),
        "identical_artifacts_frac": (
            (artifacts - differ) / artifacts if artifacts else NOT_MEASURED,
            "fraction"),
        "peak_rss_mb": (rss, "MiB"),
    }
    # reported without a bound: on classify both follow the few SVM cells
    # that take seconds, and which cells do varies too much from seed to
    # seed for any bound the benchmark may set
    details = {"wall_s": wall, "op_p90_s": p90, "op_p90_percentile_used": q,
               "op_p50_raw_s": statistics.median(raw_ops),
               "setup_raw_s": statistics.median(raw for raw, _ in setups),
               "ops": len(ops), "op_ref_seconds": ops, "op_seconds": raw_ops,
               "classifier_runs": len(runs), "artifacts": artifacts,
               "nondeterministic_artifacts": differ,
               "not_measured": not_measured,
               "setup_samples": setups,
               "ref_kernel_s": speed.samples}
    return metrics, details


def untraced(workload, seconds, tracer, speed):
    setups = [measure.timed_region(speed, workload.setup)[1:]
              for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(workload, len(passes), tracer))
        workload.inspect(passes[-1])
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    metrics, details = end_to_end(passes, setups, speed)
    return passes, metrics, details


def traced(workload, tracer, layers):
    layers.install(tracer)
    try:
        _, setup_s = timed(workload.setup)
    finally:
        tracer.uninstall()
    # set-up keeps its spans (no operation id); counts are the pass's alone
    tracer.counts.clear()
    tracer.raised.clear()
    plain = timed_pass(workload, 0, tracer)   # the untraced wall time only
    layers.install(tracer)
    try:
        result = timed_pass(workload, 1, tracer)
    finally:
        tracer.uninstall()
    workload.inspect(result)
    metrics = layers.metrics(tracer)
    metrics["trace.overhead_s"] = (result.wall_s - plain.wall_s, "s")
    details = {"setup_s": setup_s, "untraced_wall_s": plain.wall_s,
               "traced_wall_s": result.wall_s}
    return [plain, result], metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gliomics" / "__init__.py").is_file():
        print(f"bench: no gliomics sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # before numpy loads: the pipeline's arrays are too small to gain from
    # BLAS threads, and a second one competes with the run for the cores
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from workloads import WORKLOADS, registration_quality

    failures = selftest.run()
    if failures:
        for line in failures:
            print(f"bench: selftest: {line}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]

    env = measure.environment(ROOT, args.workload, args.seed, args.seconds,
                              args.trace)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    speed = measure.HostSpeed()
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, speed)
        if args.trace:
            passes, metrics, details = traced(workload, tracer, layers)
        else:
            passes, metrics, details = untraced(workload, args.seconds, tracer,
                                                speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # registration quality spreads too widely from seed to seed for an
    # end-to-end bound, so it is a per-layer metric of the pass it came from
    quality = registration_quality(passes[-1].residuals)
    if args.trace:
        metrics.update(quality)
    else:
        details.update({k: v for k, (v, _) in quality.items()})
    if sorted(metrics) != sorted(wanted):
        print("bench: metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(wanted))}", file=sys.stderr)
        return 2
    problems = [p for r in passes for p in r.problems]
    attempted = sum(len(r.unit_ok) for r in passes)
    failed = attempted - sum(sum(r.unit_ok) for r in passes)
    details.update(
        passes=len(passes), pass_wall_s=[r.wall_s for r in passes],
        op_failures=[f for r in passes for f in r.failures],
        problems=problems,
        nondeterministic_examples=[n for r in passes
                                   for n in r.nondeterministic][:10])

    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name:40s} {value:>16.6g} {unit}")
    for name in ("wall_s", "op_p90_s", "op_p50_raw_s", "setup_raw_s"):
        if name in details:
            print(f"# {name:38s} {details[name]:>16.6g} s (no bound)")
    record = {"env": env, "correct": not problems, "attempted": attempted,
              "failed": failed, "details": details,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "spans": tracer.spans}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": metrics[n][0],
                                      "unit": metrics[n][1]}
                                  for n in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
