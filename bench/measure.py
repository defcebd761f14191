"""The benchmark's own arithmetic: percentiles, run scoring, host speed,
environment."""

from __future__ import annotations

import glob
import math
import os
import platform
import statistics
import time
from pathlib import Path

# op_p90_s needs ten samples above the p90: 92 operations or more
MIN_P90_SAMPLES = 92


def percentile(samples, q: int) -> float:
    """The q-th percentile, linear between order statistics (inclusive)."""
    values = sorted(samples)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def op_p90(samples) -> tuple:
    """(value, percentile used) for the op_p90_s metric.

    The p90 is reported only with at least ten samples above it; with fewer
    operations the median is reported and the percentile used is 50.
    """
    if len(samples) >= MIN_P90_SAMPLES:
        return percentile(samples, 90), 90
    return statistics.median(samples), 50


FAILED_ACCURACY = 0.0
FAILED_AUC = 0.5


def score_runs(runs) -> tuple:
    """(mean accuracy, mean AUC) over attempted classifier runs.

    ``runs`` holds (accuracy, auc) per finished run and None per failed run.
    A failed run scores accuracy 0 and AUC 0.5 (chance); so does an AUC the
    program left undefined (NaN), which counts as no ranking ability.
    """
    if not runs:
        raise ValueError("no classifier runs to score")
    accs, aucs = [], []
    for run in runs:
        if run is None:
            accs.append(FAILED_ACCURACY)
            aucs.append(FAILED_AUC)
        else:
            acc, auc = run
            accs.append(float(acc))
            aucs.append(float(auc) if math.isfinite(auc) else FAILED_AUC)
    return statistics.fmean(accs), statistics.fmean(aucs)


# seconds the reference kernel takes on the reference host (about its time
# on an unloaded core of the 2-core host it was set on); a time in reference
# seconds is what the measured time would have been there
REF_S = 0.002
KERNELS_PER_PROBE = 4


class HostSpeed:
    """The host's speed, from a fixed reference kernel timed between the
    timed regions of a run.

    A shared host can change speed by half or more within minutes, and
    the pipeline's operations slow with it.  The kernel does the kinds of work
    the pipeline does (trilinear interpolation, small matrix-vector steps
    in a Python loop, a pure-Python loop, a sort) on fixed inputs, through
    numpy and scipy alone, so no change to gliomics changes its time.  A
    timed region is converted to reference seconds with the probes taken
    just before and after it, so a change of host speed during a run is
    followed as well.
    """

    def __init__(self):
        import numpy as np
        from scipy import ndimage
        rng = np.random.default_rng(0)
        self._np, self._ndimage = np, ndimage
        self._volume = rng.random((32, 32, 32))
        self._points = rng.random((3, 16000)) * 31
        self._matrix = rng.random((60, 60)) / 60
        self._vector = rng.random(60)
        self._values = rng.random(20000)
        self.samples = []     # kernel seconds, one per probe
        self.spent = 0.0      # seconds spent probing
        self._kernel()        # warm-up, not counted
        self.probe()

    def _kernel(self):
        np = self._np
        self._ndimage.map_coordinates(self._volume, self._points, order=1)
        v = self._vector
        for _ in range(100):
            w = self._matrix @ v
            v = np.exp(-np.abs(w - w.mean()))
        total = 0
        for i in range(8000):
            total += i * i
        np.sort(self._values)

    def probe(self):
        """Time the kernel; the probe's fastest run goes to ``samples``.

        The first run after other work finds the kernel's data out of the
        cache; the fastest run is the host's speed without that.
        """
        start = time.perf_counter()
        times = []
        for _ in range(KERNELS_PER_PROBE):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(min(times))
        self.spent += time.perf_counter() - start

    def mark(self) -> int:
        """The index of the latest probe: the one before a timed region."""
        return len(self.samples) - 1

    def reference_seconds(self, seconds: float, first: int) -> float:
        """``seconds`` measured between probe ``first`` and the latest
        probe, in reference seconds."""
        return seconds * REF_S / statistics.fmean(self.samples[first:])


def timed_region(speed: HostSpeed, fn, *args):
    """(fn's value, seconds, reference seconds) of one call between two
    probes; probes ``fn`` takes itself are not counted in its time."""
    first, spent = speed.mark(), speed.spent
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    finally:
        seconds = time.perf_counter() - t0 - (speed.spent - spent)
        speed.probe()
    return value, seconds, speed.reference_seconds(seconds, first)


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, workload: str, seed: int, seconds: int,
                trace: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(root),
    }
