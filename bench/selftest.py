#!/usr/bin/env python3
"""Checks of the benchmark's own arithmetic.

``run.py`` runs these before every measurement and refuses to report when
one fails.  Standalone: ``python3 bench/selftest.py`` (exit 0 when all pass).
"""

from __future__ import annotations

import math
import sys

from measure import REF_S, HostSpeed, op_p90, percentile, score_runs
from tracer import NO_PARENT, self_times, union_length


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_percentile_rule() -> list:
    bad = []
    if not _close(percentile(range(1, 101), 90), 90.1):
        bad.append("p90 of 1..100 is not 90.1")
    # 91 samples leave only nine above the p90: the median is reported
    samples = [float(i) for i in range(1, 92)]
    if op_p90(samples) != (46.0, 50):
        bad.append("op_p90 of 91 samples does not fall back to the median")
    # 92 samples leave ten above it: the p90 is reported
    value, q = op_p90([float(i) for i in range(1, 93)])
    if q != 90 or not _close(value, 82.9):
        bad.append(f"op_p90 of 1..92 is p{q} = {value}, want p90 = 82.9")
    return bad


def _span(name, start, end, parent=NO_PARENT):
    return [name, start, end, parent, 0]


def check_self_time() -> list:
    bad = []
    if not _close(union_length([(1, 4), (3, 6), (8, 10), (9, 9.5)]), 7.0):
        bad.append("union of overlapping intervals is not 7")
    spans = [_span("a.root", 0.0, 10.0),
             _span("b.x", 1.0, 4.0, 0),
             _span("b.y", 3.0, 6.0, 0),      # overlaps its sibling
             _span("c.z", 8.0, 12.0, 0),     # runs past its parent
             _span("c.w", 2.0, 3.0, 1)]      # grandchild, not subtracted twice
    want = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0]
    got = self_times(spans)
    if not all(_close(g, w) for g, w in zip(got, want)):
        bad.append(f"self times {got}, want {want}")
    return bad


def check_failed_run_scoring() -> list:
    bad = []
    acc, auc = score_runs([(1.0, 1.0), None])
    if not (_close(acc, 0.5) and _close(auc, 0.75)):
        bad.append(f"one perfect and one failed run score {acc}, {auc}")
    acc, auc = score_runs([(0.5, float("nan")), (0.25, 0.75)])
    if not (_close(acc, 0.375) and _close(auc, 0.625)):
        bad.append(f"an undefined AUC does not score 0.5 ({acc}, {auc})")
    return bad


def check_reference_seconds() -> list:
    speed = HostSpeed.__new__(HostSpeed)   # the arithmetic, no probing
    speed.samples = [REF_S, 2 * REF_S, 2 * REF_S, 4 * REF_S]
    bad = []
    # from probe 1 on, the kernel took 8/3 x REF_S on average
    if not _close(speed.reference_seconds(3.0, 1), 3.0 * 3 / 8):
        bad.append("3 s between kernels of 2, 2 and 4 x REF_S is not 1.125 "
                   "reference seconds")
    if not _close(speed.reference_seconds(3.0, 0), 3.0 * 4 / 9):
        bad.append("3 s over all four probes is not 4/3 reference seconds")
    return bad


def run() -> list:
    return (check_percentile_rule() + check_self_time()
            + check_failed_run_scoring() + check_reference_seconds())


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {'FAILED' if failures else 'ok'}")
    sys.exit(1 if failures else 0)
