"""Shipping gate: one test per release criterion.

Each test prints a single ``[acceptance N] PASS/FAIL`` line with its measured
numbers (visible under ``pytest -v`` via capsys.disabled), then asserts.
Criteria with stated runtime budgets assert on wall time as well; the
end-to-end cohort work (criterion 8) shares one cached cohort between its
two parts and budgets their combined time.
"""

import functools
import gzip
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import readme
from test_cli import _tree
from test_evaluate import mann_whitney_auc
from test_features import one_label_shape
from test_mlp import model_of
from test_stats import mann_whitney_p

from gliomics.classify import fit_standardizer
from gliomics.cli import main
from gliomics.evaluate import roc_auc
from gliomics.features import (TUMOR_LABELS, build_v2, ellipse_perimeter,
                               extract_all, region_histogram, shannon_entropy)
from gliomics.mlp import init_params, mlp_gradient_check, train_mlp
from gliomics.phantom import (PhantomSpec, generate_cohort, generate_phantom,
                              sample_cohort_ratios, smooth_blob_volume)
from gliomics.registration import (EsConfig, MiConfig, RigidTransform,
                                   register_rigid, subtraction_map)
from gliomics.experiments import run_experiment
from gliomics.stats import chi2_sf, dunn_posthoc, kruskal_wallis
from gliomics.svm import Kernel, smo_solve, train_ova
from gliomics.volume import resample
from gliomics.volumetrics import component_volumes, volume_ratios

KIND_WIDTHS = {"v1": 14, "v2": 70, "v3": 28, "shape": 20}
_ELAPSED = {}


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@functools.lru_cache(maxsize=1)
def study_cohort():
    return generate_cohort((18, 14, 25), base_seed=0)


def test_criterion_1_feature_vector_contract(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    problems = []
    for i in range(100):
        grade = (2, 3, 4)[i % 3]
        spec = PhantomSpec(grade=grade, ratios=sample_cohort_ratios(grade, rng),
                           modalities=("t2",), seed=1000 + i)
        vols, lm = generate_phantom(spec)
        vecs = extract_all(vols["t2"], lm)
        widths = {k: v.values.size for k, v in vecs.items()}
        if widths != KIND_WIDTHS:
            problems.append(f"phantom {i}: widths {widths}")
        present = set(np.unique(lm.data).tolist()) - {0}
        for lab in set(TUMOR_LABELS) - present:
            v2_block = vecs["v2"].values[(lab - 1) * 14: lab * 14]
            sh_block = vecs["shape"].values[(lab - 1) * 4: lab * 4]
            if np.any(v2_block != 0.0) or np.any(sh_block != 0.0):
                problems.append(f"phantom {i}: label {lab} block not zero")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    report(capsys, 1, ok,
           f"vector widths 14/70/28/20 and zero blocks for absent labels "
           f"on 100 phantoms in {elapsed:.1f}s (limit 60s)"
           + (f"; first problem: {problems[0]}" if problems else ""))


def test_criterion_2_entropy_suite(capsys):
    t0 = time.perf_counter()
    checks = []
    checks.append(("uniform 10-bin",
                   abs(shannon_entropy(np.full(10, 0.1)) - math.log2(10)) <= 1e-9))
    delta = np.zeros(10)
    delta[3] = 1.0
    checks.append(("delta", shannon_entropy(delta) == 0.0))
    checks.append(("two-bin", abs(shannon_entropy([0.5, 0.5]) - 1.0) <= 1e-9))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 200))
        vals = rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20.0), n)
        a, b = float(rng.uniform(0.1, 8.0)), float(rng.uniform(-100, 100))
        e_raw = shannon_entropy(region_histogram(vals))
        e_map = shannon_entropy(region_histogram(a * vals + b))
        worst = max(worst, abs(e_raw - e_map))
    checks.append(("monotone remap", worst <= 1e-9))
    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    report(capsys, 2, not failed,
           f"entropy oracles and remap invariance on 1000 regions "
           f"(worst drift {worst:.2e}) in {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_3_shape_suite(capsys):
    t0 = time.perf_counter()
    checks = []
    worst_rel = 0.0
    for a in (0.25, 0.5, 1.0, 3.7, 20.0, 250.0):
        rel = abs(ellipse_perimeter(a, a) - 2.0 * math.pi * a) / (2.0 * math.pi * a)
        worst_rel = max(worst_rel, rel)
    checks.append(("circle limit", worst_rel <= 1e-13))

    yy, xx = np.mgrid[0:45, 0:45]
    disk = ((yy - 22.0) ** 2 + (xx - 22.0) ** 2 <= 20.0 ** 2)[:, :, None]
    solidity, ecc, _, _ = one_label_shape(disk)
    checks.append(("disk eccentricity", ecc < 0.1))
    checks.append(("disk solidity", solidity > 0.95))

    rect = np.zeros((30, 30, 1), dtype=bool)
    rect[5:25, 8:20, 0] = True
    checks.append(("rectangle solidity", one_label_shape(rect)[0] == 1.0))
    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    report(capsys, 3, not failed,
           f"circle limit rel err {worst_rel:.1e}, disk ecc "
           f"{ecc:.3f} / solidity {solidity:.3f}, rectangle "
           f"solidity exact, in {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_registration_recovery(capsys):
    t0 = time.perf_counter()
    blob = smooth_blob_volume(dims=(48, 48, 48), seed=4)
    center = tuple(blob.geometry.world_center())
    rng = np.random.default_rng(2026)
    hits = 0
    worst = (0.0, 0.0)
    for i in range(20):
        rot = tuple(np.deg2rad(rng.uniform(-5.0, 5.0, size=3)))
        shift = tuple(rng.uniform(-5.0, 5.0, size=3))
        true = RigidTransform(rot, shift, center)
        moved = resample(blob, blob.geometry, mode="linear",
                         world_map=true.matrix())
        rec = register_rigid(blob, moved, mi=MiConfig(sample_fraction=0.5),
                             es=EsConfig(seed=100 + i))
        resid = rec.compose(true).params()
        rot_err = float(np.abs(resid[:3]).max())   # approx degrees
        tr_err = float(np.abs(resid[3:]).max())    # mm = voxels here
        if rot_err <= 1.0 and tr_err <= 0.5:
            hits += 1
        worst = max(worst, (rot_err, tr_err))

    same = subtraction_map(blob, blob, RigidTransform.identity(center))
    other = smooth_blob_volume(dims=(48, 48, 48), seed=9)
    diff = subtraction_map(other, blob, RigidTransform.identity(center))
    clamp_ok = (np.all(same.data == 0.0)
                and np.array_equal(diff.data,
                                   np.maximum(blob.data - other.data, 0.0)))
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and clamp_ok and elapsed < 300.0
    report(capsys, 4, ok,
           f"{hits}/20 perturbations within 0.5 voxel / 1 degree (worst "
           f"{worst[0]:.3f} deg / {worst[1]:.3f} mm), clamp invariants "
           f"{'exact' if clamp_ok else 'BROKEN'}, in {elapsed:.1f}s "
           f"(limit 300s)")


def test_criterion_5_classifier_oracles(capsys):
    t0 = time.perf_counter()
    checks = []
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    [rbf], _ = train_ova(X, y, Kernel("rbf", gamma=1.0), [10.0])
    [lin], _ = train_ova(X, y, Kernel("linear"), [10.0])
    rbf_errors = int(np.sum(rbf.predict(X) != y))
    lin_errors = int(np.sum(lin.predict(X) != y))
    checks.append(("xor", rbf_errors == 0 and lin_errors >= 1))

    rng = np.random.default_rng(5)
    Xb = np.vstack([rng.normal(-2.0, 1.0, size=(30, 2)),
                    rng.normal(2.0, 1.0, size=(30, 2))])
    yb = np.repeat([-1.0, 1.0], 30)
    C, tol = 1.0, 1e-3
    K = Kernel("linear").matrix(Xb, Xb)
    res = smo_solve(K, yb, C=C, tol=tol)
    margins = yb * ((res.alphas * yb) @ K + res.bias)
    kkt = max(
        float(np.max(np.abs(margins[(res.alphas > 1e-8) & (res.alphas < C - 1e-8)] - 1.0), initial=0.0)),
        float(np.max(1.0 - margins[res.alphas <= 1e-8], initial=0.0)),
        float(np.max(margins[res.alphas >= C - 1e-8] - 1.0, initial=0.0)))
    checks.append(("kkt", kkt <= tol + 1e-9))

    probe = model_of(init_params(3, 3, seed=11), 3, 3)
    grad_err = mlp_gradient_check(probe, rng.normal(size=(6, 3)),
                                  rng.integers(3, size=6))
    checks.append(("gradient", grad_err < 1e-5))

    Xm = fit_standardizer(Xb).apply(Xb)
    labels = np.repeat([0, 1], 30)
    m1 = train_mlp(Xm, labels, Xm, labels, seed=3)
    m2 = train_mlp(Xm, labels, Xm, labels, seed=3)
    checks.append(("determinism", np.array_equal(m1.theta, m2.theta)))

    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    ok = not failed and elapsed < 60.0
    report(capsys, 5, ok,
           f"xor rbf/linear errors {rbf_errors}/{lin_errors}, kkt residual "
           f"{kkt:.2e}, gradient err {grad_err:.2e}, seeded refit identical, "
           f"in {elapsed:.1f}s (limit 60s)"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_6_auc_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 80))
        scores = rng.integers(-4, 5, size=n).astype(float)  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        worst = max(worst, abs(auc - mann_whitney_auc(scores, labels)))

    perm_scores = rng.normal(size=1000)
    perm_labels = rng.permutation(np.repeat([0, 1], 500))
    _, perm_auc = roc_auc(perm_scores, perm_labels)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and 0.45 <= perm_auc <= 0.55
    report(capsys, 6, ok,
           f"AUC vs rank-sum worst gap {worst:.1e} over 100 tied score sets, "
           f"permuted-label AUC {perm_auc:.3f} at n=1000, in {elapsed:.1f}s")


def test_criterion_7_statistics_oracles(capsys):
    t0 = time.perf_counter()
    checks = []
    kw = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    checks.append(("fixture H", abs(kw.h - 7.2) <= 1e-9))
    worst_chi = max(abs(chi2_sf(x, 2) - math.exp(-x / 2.0))
                    for x in (0.01, 0.3, 1.0, 2.0, 3.6, 7.2, 20.0))
    checks.append(("chi2 df=2", worst_chi <= 1e-12))

    rng = np.random.default_rng(17)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 41))
        a = rng.normal(0.0, 1.0, size=n)
        b = rng.normal(rng.uniform(-1.0, 1.0), 1.0, size=n)
        gap = abs(kruskal_wallis([a.tolist(), b.tolist()]).p_value
                  - mann_whitney_p(a, b))
        worst_gap = max(worst_gap, gap)
    checks.append(("2-group agreement", worst_gap <= 0.01))
    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    report(capsys, 7, not failed,
           f"H={kw.h:.10f}, chi2 worst gap {worst_chi:.1e}, 2-group KW vs "
           f"rank-sum worst gap {worst_gap:.4f}, in {elapsed:.1f}s"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_8a_cohort_rank_tests(capsys):
    t0 = time.perf_counter()
    cohort = study_cohort()
    by_grade = {2: [], 3: [], 4: []}
    for sub in cohort.subjects:
        vr = volume_ratios(component_volumes(sub.labelmap))
        by_grade[sub.grade].append(vr.ratios_pct)

    pair_name = {(0, 1): "II-III", (0, 2): "II-IV", (1, 2): "III-IV"}
    problems = []
    summary = []
    for lab, name in ((1, "edema"), (5, "necrosis"), (2, "enhancing")):
        groups = [[r[lab] for r in by_grade[g]] for g in (2, 3, 4)]
        dunn = dunn_posthoc(groups)
        p = {pair_name[pr]: pv for pr, pv in zip(dunn.pairs, dunn.p_adjusted)}
        summary.append(f"{name} II-III p={p['II-III']:.3f}")
        if not (p["II-IV"] < 0.05 and p["III-IV"] < 0.05):
            problems.append(f"{name}: IV pair not significant {p}")
        if not p["II-III"] >= 0.05:
            problems.append(f"{name}: II-III unexpectedly significant {p}")
    _ELAPSED["8a"] = time.perf_counter() - t0
    report(capsys, "8a", not problems,
           f"grade IV separable, II vs III not, for edema/necrosis/enhancing "
           f"ratios ({'; '.join(summary)}), in {_ELAPSED['8a']:.1f}s"
           + (f"; failed: {problems}" if problems else ""))


def test_criterion_8b_ann_histogram_separation(capsys):
    t0 = time.perf_counter()
    subjects = study_cohort().subjects
    X = np.vstack([build_v2(s.volumes["t2"], s.labelmap).values
                   for s in subjects])
    grades = np.array([s.grade for s in subjects])
    s = run_experiment(X, grades, "II-III", "ann", n_runs=100, seed0=0,
                       kind="v2", modality="t2")
    elapsed = time.perf_counter() - t0
    total = elapsed + _ELAPSED.get("8a", 0.0)
    ok = s.best_accuracy >= 0.90 and total < 900.0
    report(capsys, "8b", ok,
           f"ANN on t2 histogram features, II vs III best accuracy "
           f"{s.best_accuracy:.2f} (mean {s.mean_accuracy:.2f}) over 100 "
           f"runs; criterion-8 total {total:.0f}s (limit 900s)")


# criterion 9's digest of each stage; an output change updates them
STAGE_DIGESTS = {
    "phantom":
        "becf609befa506c1f6797857b5fb0a6ed30376be5923e00c5a23c562c1bc9bce",
    "features":
        "ed26b98b1625711c77aaec60cf1cf2559164acb8c4ffa2f1f1623011bf5dae94",
    "volumetrics":
        "e038678af31ef70529946d7fbbe6ccc789898a340443385af51991253b6289df",
    "stats":
        "fa9f66e2b5b03a68fce8f86021a02ce4745d2e07afff9e30de63b092116a373c",
    "train-eval":
        "218530e8308da5aec3830e81db3003b703b5133d879e998ef819b56fcd74a239",
    "subtract":
        "30aef173f5ef51d1b05ce3797ec58a5b190446946a47643f97dec33ef52ab549",
}


def stage_digest(tree: dict, out: Path) -> str:
    """sha256 over the sorted (path, bytes) pairs of ``tree`` at or under
    ``out``; a ``.nii.gz`` counts by its payload, as zlib builds differ."""
    digest = hashlib.sha256()
    for path in sorted((p for p in tree if out in (p, *p.parents)), key=str):
        data = tree[path]
        if path.name.endswith(".nii.gz"):
            data = gzip.decompress(data)
        digest.update(f"{path}\0".encode() + hashlib.sha256(data).digest())
    return digest.hexdigest()


def test_criterion_9_readme_walkthrough_end_to_end(capsys, tmp_path,
                                                   monkeypatch):
    # the README's walkthrough as written, with a train.json of the whole
    # grid at n_runs 2, so the shape table is trained at C 100; a rerun on
    # absolute paths must give the same bytes, as provenance digests cover
    # settings, not input paths
    t0 = time.perf_counter()
    problems, seconds, outs = [], {}, {}     # side a's times and outputs
    for side in ("a", "b"):
        root = tmp_path / side
        root.mkdir()
        monkeypatch.chdir(root)
        for argv in readme.commands(root if side == "b" else "",
                                    {"n_runs": 2}):
            start = time.perf_counter()
            if main(argv) != 0:
                problems.append(f"{side}: {argv[0]} did not exit 0")
                break
            seconds.setdefault(argv[0], time.perf_counter() - start)
            outs.setdefault(argv[0], Path(argv[argv.index("--out") + 1]))
    elapsed = time.perf_counter() - t0
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    digests = {k: stage_digest(a, out) for k, out in outs.items()}
    if digests != STAGE_DIGESTS:
        problems.append(f"stage digests differ, now {digests}")
    differ = sorted(rel for rel in a.keys() | b.keys()
                    if a.get(rel) != b.get(rel))
    if differ:
        problems.append(f"{len(differ)} files differ, first {differ[0]}")
    reports = [rel for rel in a if rel.parent.name == "reports"]
    if len(reports) != 145:
        problems.append(f"{len(reports)} train-eval files, want 144 + 1")
    stages = ", ".join(f"{k} {v:.2f}s" for k, v in seconds.items())
    report(capsys, 9, not problems,
           f"README walkthrough on 18/14/25 twice, the second on absolute "
           f"paths, {len(a)} files each, byte-identical, "
           f"{len(STAGE_DIGESTS)} stage digests pinned; first run {stages}; "
           f"both in {elapsed:.1f}s"
           + (f"; failed: {problems}" if problems else ""))
