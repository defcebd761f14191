import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gliomics import svm
from gliomics.errors import NoConvergence, SingleClass
from gliomics.svm import Kernel, OvaSvm, SvmModel, smo_solve, train_ova

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def kkt_residual(K, y, res, C):
    """Worst violation of the soft-margin KKT conditions (criterion 5)."""
    margins = y * ((res.alphas * y) @ K + res.bias)
    free = (res.alphas > 1e-8) & (res.alphas < C - 1e-8)
    return max(
        float(np.max(np.abs(margins[free] - 1.0), initial=0.0)),
        float(np.max(1.0 - margins[res.alphas <= 1e-8], initial=0.0)),
        float(np.max(margins[res.alphas >= C - 1e-8] - 1.0, initial=0.0)))


def reference_smo_solve(K, y, C, tol=svm.SMO_TOL,
                        max_passes=svm.SMO_MAX_PASSES):
    """``smo_solve``'s loop in its plain form, on boolean masks and numpy
    scalars; ``smo_solve`` must make the same updates bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    pos = y > 0
    kdiag = np.diag(K)
    inv_curv = 1.0 / np.maximum(kdiag[:, None] + kdiag[None, :] - 2.0 * K,
                                svm.SMO_TAU)
    alphas = np.zeros(n)
    F = y.copy()
    up, low = pos.copy(), ~pos
    limit = max_passes * n
    iters = 0
    reached_c = False
    rechecked = False
    while True:
        F_up = np.where(up, F, -np.inf)
        i = int(F_up.argmax())
        m = F_up[i]
        F_low = np.where(low, F, np.inf)
        M = F_low.min()
        if m - M <= tol:
            if rechecked:
                break
            F = y - K @ (alphas * y)
            rechecked = True
            continue
        rechecked = False
        if iters >= limit:
            raise NoConvergence("reference SMO did not settle")
        b = np.maximum(m - F_low, 0.0)
        j = int((b * b * inv_curv[i]).argmax())
        a_i, a_j = alphas[i], alphas[j]
        cap_i = C - a_i if pos[i] else a_i
        cap_j = a_j if pos[j] else C - a_j
        t = min(b[j] * inv_curv[i, j], cap_i, cap_j)
        alphas[i] = (C if pos[i] else 0.0) if t == cap_i else a_i + y[i] * t
        alphas[j] = (0.0 if pos[j] else C) if t == cap_j else a_j - y[j] * t
        reached_c = reached_c or alphas[i] >= C or alphas[j] >= C
        F -= t * (K[i] - K[j])
        for k in (i, j):
            up[k] = alphas[k] < C if pos[k] else alphas[k] > 0.0
            low[k] = alphas[k] > 0.0 if pos[k] else alphas[k] < C
        iters += 1
    free = (alphas > 0.0) & (alphas < C)
    bias = float(F[free].mean()) if free.any() else 0.5 * float(m + M)
    return svm.SmoResult(alphas, bias, iters, reached_c)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def svm_problems(draw):
    """(K, y, C) for 4-40 samples in 1-4 dimensions, both labels present."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
    y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    y[:2] = (1.0, -1.0)
    gamma = draw(st.sampled_from([None, 0.1, 1.0, 10.0]))
    kernel = Kernel("linear") if gamma is None else Kernel("rbf", gamma=gamma)
    C = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    return kernel.matrix(X, X), y, C


@st.composite
def ova_grids(draw):
    """(X, classes, kernel, C grid): 2 or 3 classes of at least two samples
    each, a C grid sorted or not, repeats allowed."""
    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(2 * n_classes, 30))
    X = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 4))),
                        elements=st.floats(-5.0, 5.0)))
    classes = draw(hnp.arrays(np.int64, n,
                              elements=st.integers(0, n_classes - 1)))
    classes[:2 * n_classes] = np.repeat(np.arange(n_classes), 2)
    gamma = draw(st.sampled_from([None, 0.1, 1.0, 10.0]))
    kernel = Kernel("linear") if gamma is None else Kernel("rbf", gamma=gamma)
    grid = st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
                    min_size=1, max_size=5)
    c_grid = draw(st.one_of(grid, grid.map(sorted)))
    return X, classes, kernel, c_grid


@st.composite
def two_class_ovas(draw):
    """(OvaSvm, rows): a two-class model built from drawn support vectors,
    duals and bias, no support vectors included, and 1-8 rows to score."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    coords = st.floats(-5.0, 5.0)
    sv = draw(hnp.arrays(np.float64, (m, d), elements=coords))
    duals = draw(hnp.arrays(np.float64, m, elements=st.floats(-100.0, 100.0)))
    gamma = draw(st.sampled_from([None, 0.1, 1.0, 10.0]))
    kernel = Kernel("linear") if gamma is None else Kernel("rbf", gamma=gamma)
    model = SvmModel(kernel, sv, duals, draw(coords))
    rows = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), d),
                           elements=coords))
    return OvaSvm((2, 4), (model,), (2, 2)), rows


def blobs(rng, n_per_class, centers, sd=0.5):
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(c, sd, size=(n_per_class, len(c))))
        y.append(np.full(n_per_class, label))
    return np.vstack(X), np.concatenate(y)


class TestKernel:
    def test_linear_is_dot_product(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        assert np.allclose(Kernel("linear").matrix(a, b), a @ b.T)

    def test_rbf_diagonal_is_one(self, rng):
        a = rng.normal(size=(6, 4))
        K = Kernel("rbf", gamma=0.7).matrix(a, a)
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)

    def test_rbf_decays_with_distance(self):
        k = Kernel("rbf", gamma=1.0)
        near = k.matrix(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k.matrix(np.array([[0.0]]), np.array([[3.0]]))[0, 0]
        assert near > far

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            Kernel("cubic")

    def test_rbf_needs_gamma(self):
        with pytest.raises(ValueError):
            Kernel("rbf")


class TestSmo:
    def test_two_point_oracle(self):
        # max-margin separator of (+1,0)/(-1,0) is w=(1,0), b=0, both
        # points on the margin with alpha = 1/2
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        res = smo_solve(Kernel("linear").matrix(X, X), y, C=10.0)
        assert np.allclose(res.alphas, [0.5, 0.5], atol=1e-6)
        assert res.bias == pytest.approx(0.0, abs=1e-6)

    def test_four_point_oracle(self):
        # support vectors are the antipodal pair (1,1)/(-1,-1); the other
        # two points sit strictly inside the margin, so their alphas must
        # vanish and the remaining pair splits 0.25/0.25 to give w=(.5,.5)
        X = np.array([[1.0, 1.0], [2.0, 3.0], [-1.0, -1.0], [-2.0, -3.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        res = smo_solve(Kernel("linear").matrix(X, X), y, C=100.0)
        assert np.allclose(res.alphas, [0.25, 0.0, 0.25, 0.0], atol=1e-4)
        w = (res.alphas * y) @ X
        assert np.allclose(w, [0.5, 0.5], atol=1e-4)
        assert res.bias == pytest.approx(0.0, abs=1e-4)

    def test_kkt_residuals(self, rng):
        X, labels = blobs(rng, 20, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(labels == 0, -1.0, 1.0)
        C, tol = 1.0, 1e-3
        K = Kernel("linear").matrix(X, X)
        res = smo_solve(K, y, C=C, tol=tol)
        margins = y * ((res.alphas * y) @ K + res.bias)
        free = (res.alphas > 1e-8) & (res.alphas < C - 1e-8)
        assert np.all(np.abs(margins[free] - 1.0) <= tol + 1e-6)
        assert np.all(margins[res.alphas <= 1e-8] >= 1.0 - tol - 1e-6)
        assert np.all(margins[res.alphas >= C - 1e-8] <= 1.0 + tol + 1e-6)

    def test_alphas_within_box(self, rng):
        X, labels = blobs(rng, 15, [(-1.0,), (1.0,)], sd=1.0)
        y = np.where(labels == 0, -1.0, 1.0)
        res = smo_solve(Kernel("linear").matrix(X, X), y, C=0.5)
        assert np.all(res.alphas >= -1e-12)
        assert np.all(res.alphas <= 0.5 + 1e-12)
        # dual equality constraint: sum alpha_i y_i = 0
        assert float(res.alphas @ y) == pytest.approx(0.0, abs=1e-9)

    @given(svm_problems())
    @settings(max_examples=150, deadline=None)
    def test_solution_is_feasible_optimal_and_repeatable(self, problem):
        K, y, C = problem
        tol = 1e-3
        res = smo_solve(K, y, C=C, tol=tol)
        assert np.all(res.alphas >= 0.0) and np.all(res.alphas <= C)
        assert abs(float(res.alphas @ y)) <= 1e-9
        assert kkt_residual(K, y, res, C) <= tol + 1e-9
        again = smo_solve(K, y, C=C, tol=tol)
        assert np.array_equal(again.alphas, res.alphas)
        assert again.bias == res.bias

    @given(svm_problems())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_reference_pair_step(self, problem):
        K, y, C = problem
        res, ref = smo_solve(K, y, C), reference_smo_solve(K, y, C)
        assert bits(res.alphas) == bits(ref.alphas)
        assert bits(res.bias) == bits(ref.bias)
        assert res.updates == ref.updates and res.reached_c == ref.reached_c

    def test_no_convergence_raises(self, rng):
        X, labels = blobs(rng, 25, [(-0.1, 0.0), (0.1, 0.0)], sd=2.0)
        y = np.where(labels == 0, -1.0, 1.0)
        with pytest.raises(NoConvergence):
            smo_solve(Kernel("rbf", gamma=5.0).matrix(X, X), y, C=1000.0,
                      max_passes=1)


def fit(X, y, kernel, C=1.0):
    """The one-against-all model of ``y`` at ``C`` alone."""
    [model], _ = train_ova(X, y, kernel, [C])
    return model


class TestBinaryTraining:
    """Two classes: ``train_ova`` solves the higher one as +1, so with -1/+1
    labels its one model is the binary SVM of those labels."""

    def test_xor_rbf_solves_linear_does_not(self):
        rbf = fit(XOR_X, XOR_Y, Kernel("rbf", gamma=1.0), C=10.0)
        linear = fit(XOR_X, XOR_Y, Kernel("linear"), C=10.0)
        assert np.array_equal(rbf.predict(XOR_X), XOR_Y)
        assert np.sum(linear.predict(XOR_X) != XOR_Y) >= 1

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit(XOR_X, np.ones(4), Kernel("linear"))

    def test_decision_sign_matches_predict(self, rng):
        X, labels = blobs(rng, 12, [(-2.0, 0.0), (2.0, 0.0)])
        y = np.where(labels == 0, -1.0, 1.0)
        m = fit(X, y, Kernel("linear"), C=1.0)
        assert np.array_equal(np.sign(m.models[0].decision_function(X)),
                              m.predict(X))

    def test_only_support_vectors_kept(self):
        X = np.array([[1.0, 1.0], [2.0, 3.0], [-1.0, -1.0], [-2.0, -3.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        m = fit(X, y, Kernel("linear"), C=100.0)
        assert len(m.models[0].support_vectors) == 2


class TestOneVsAll:
    def test_three_separated_blobs(self, rng):
        X, y = blobs(rng, 15, [(0.0, 4.0), (-4.0, -2.0), (4.0, -2.0)], sd=0.6)
        [model], _ = train_ova(X, y, Kernel("linear"), [10.0])
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_decision_matrix_shape(self, rng):
        X, y = blobs(rng, 5, [(0.0, 4.0), (-4.0, -2.0), (4.0, -2.0)], sd=0.3)
        [model], _ = train_ova(X, y, Kernel("rbf", gamma=0.2), [5.0])
        assert model.decision_matrix(X).shape == (15, 3)

    def test_needs_two_samples_per_class(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingleClass):
            train_ova(X, np.array([0, 0, 1]), Kernel("linear"), [1.0])

    def test_needs_two_classes(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(SingleClass):
            train_ova(X, np.array([2, 2]), Kernel("linear"), [1.0])

    def test_prevalence_breaks_ties(self):
        # the model's only support vector is the origin, so under the linear
        # kernel every decision value is 0, both columns tie and the more
        # prevalent class must win
        m = SvmModel(Kernel("linear"), np.array([[0.0, 0.0]]),
                     np.array([1.0]), 0.0)
        ova = OvaSvm(classes=(3, 7), models=(m,), prevalence=(2, 5))
        pred = ova.predict(np.array([[1.0, 1.0], [0.5, -0.5]]))
        assert np.all(pred == 7)

    @given(ova_grids())
    @settings(max_examples=100, deadline=None)
    def test_grid_solves_are_bit_identical_to_fresh_ones(self, problem):
        # every grid model, reused along C or not, equals an independent
        # fit at its grid value; two classes are solved for the higher one
        # only, and each OvaSvm holds that one model
        X, classes, kernel, c_grid = problem
        grid, tally = train_ova(X, classes, kernel, c_grid)
        values = np.unique(classes)
        solved = values[1:] if len(values) == 2 else values
        assert tally["solved"] + tally["reused"] == len(c_grid) * len(solved)
        # a reused solve is the model object built when it was solved
        assert len({id(m) for ova in grid for m in ova.models}) == \
            tally["solved"]
        for C, ova in zip(c_grid, grid):
            assert ova.classes == tuple(values.tolist())
            assert len(ova.models) == len(solved)
            for v, model in zip(solved, ova.models):
                y = np.where(classes == v, 1.0, -1.0)
                ref = fit(X, y, kernel, C).models[0]
                assert bits(model.duals) == bits(ref.duals)
                assert bits(model.support_vectors) == \
                    bits(ref.support_vectors)
                assert bits(model.bias) == bits(ref.bias)

    @given(two_class_ovas())
    @settings(max_examples=200, deadline=None)
    def test_two_class_columns_are_exact_negatives(self, problem):
        ova, rows = problem
        dec = ova.decision_matrix(rows)
        f = ova.models[0].decision_function(rows)
        assert bits(dec[:, 1]) == bits(f)
        # equal as values; a zero may differ in sign
        assert np.array_equal(dec[:, 0], -dec[:, 1])
        # the margin of the higher class over the lower is exactly twice
        # its decision value, so both rank rows alike
        assert np.array_equal(dec[:, 1] - dec[:, 0], 2.0 * dec[:, 1])

    def test_rank_deficient_large_c_problem_stalls(self):
        # 7 points in 2 dimensions, so the linear kernel has rank 2.  C 1
        # and 10 converge (1,211 and 13,688 pair updates); at C 100 SMO ends
        # in a 4-cycle of pairs, (4, 2), (2, 1), (4, 3), (1, 2), with the
        # same steps each time: the dual falls about 3e-6 per step while the
        # gap stays at 0.0075.  The grid fails loudly instead of returning
        # an unconverged model.  A Newton step on the free set (ROADMAP,
        # Direction B) should make this converge; this test must then
        # assert the converged solution instead.
        X = np.array([[0.03, 0.0], [0.0, 2.969], [-2.080, -2.5625],
                      [1.21875, 0.0], [0.0, -0.9375], [0.0, 0.0],
                      [0.0, -1.0]])
        classes = np.array([0, 0, 1, 1, 1, 1, 0])
        grid, _ = train_ova(X, classes, Kernel("linear"), [1.0, 10.0])
        assert len(grid) == 2
        with pytest.raises(NoConvergence, match="10000 sweeps"):
            train_ova(X, classes, Kernel("linear"), [100.0])

    def test_separable_grid_reuses_solves(self, rng):
        X, y = blobs(rng, 10, [(0.0, 6.0), (-6.0, -4.0), (6.0, -4.0)])
        grid, counts = train_ova(X, y, Kernel("linear"), [0.1, 1.0, 10.0,
                                                          100.0])
        assert counts["reused"] > 0
        assert counts["solved"] + counts["reused"] == 3 * 4
        for C, model in zip([0.1, 1.0, 10.0, 100.0], grid):
            [alone], _ = train_ova(X, y, Kernel("linear"), [C])
            assert np.array_equal(model.decision_matrix(X),
                                  alone.decision_matrix(X))

    def test_no_convergence_surfaces_from_the_grid(self, rng):
        X, labels = blobs(rng, 25, [(-0.1, 0.0), (0.1, 0.0)], sd=2.0)
        with pytest.raises(NoConvergence):
            train_ova(X, labels, Kernel("rbf", gamma=5.0), [0.1, 1000.0],
                      max_passes=1)

    def test_deterministic(self, rng):
        X, y = blobs(rng, 10, [(0.0, 3.0), (-3.0, -2.0), (3.0, -2.0)])
        [a], _ = train_ova(X, y, Kernel("linear"), [1.0])
        [b], _ = train_ova(X, y, Kernel("linear"), [1.0])
        assert np.array_equal(a.decision_matrix(X), b.decision_matrix(X))
