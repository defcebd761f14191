import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gliomics import features
from gliomics.errors import (GeometryMismatch, LengthMismatch,
                             NegativeProbability)
from gliomics.features import (KIND_LENGTHS, TUMOR_LABELS, FeatureVector,
                               _boundary_perimeter, _component_shape,
                               _convex_hull, _hull_pixel_count, build_v1,
                               build_v2, build_v3,
                               connected_components, ellipse_perimeter,
                               extract_all, intensity_block, region_histogram,
                               shannon_entropy, shape_block)
from gliomics.volume import LabelMap, Volume

from conftest import make_labelmap


def vol_of(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=float), spacing,
                  np.diag([*spacing, 1.0]))


def region(values):
    """A region's 1-D float values, as build_v1/v2/v3 pass them."""
    return np.asarray(values, dtype=float)


class TestEntropy:
    def test_uniform_is_log2_bins(self):
        assert shannon_entropy([0.1] * 10) == pytest.approx(np.log2(10),
                                                            abs=1e-9)

    def test_delta_is_zero(self):
        h = shannon_entropy([1.0] + [0.0] * 9)
        assert h == 0.0 and not np.signbit(h)   # a CSV prints -0.0 as -0

    def test_two_even_bins_is_one_bit(self):
        assert shannon_entropy([0.5, 0.5] + [0.0] * 8) == pytest.approx(1.0)

    def test_all_zero_input_is_zero(self):
        assert shannon_entropy([0.0] * 10) == 0.0

    def test_negative_probability_rejected(self):
        with pytest.raises(NegativeProbability):
            shannon_entropy([0.6, 0.5, -0.1] + [0.0] * 7)

    @given(st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_uniform(self, weights):
        total = sum(weights)
        if total == 0:
            return
        p = [w / total for w in weights]
        assert shannon_entropy(p) <= np.log2(10) + 1e-12


class TestRegionHistogram:
    def test_uniform_spread(self):
        assert np.allclose(region_histogram(region(np.arange(10.0))), 0.1)

    def test_constant_region_all_mass_in_bin_zero(self):
        hist = region_histogram(region([7.0] * 6))
        assert hist[0] == 1.0 and np.all(hist[1:] == 0.0)

    def test_empty_mask_all_zeros(self, identity_volume):
        mask = np.zeros(identity_volume.dims, dtype=bool)
        assert np.all(region_histogram(identity_volume.data[mask]) == 0.0)

    def test_span_wider_than_float_range(self):
        # hi - lo overflows to inf; extremes must still land in bins 0 and 9
        hist = region_histogram(region([-1.7e308, 1e307, 1.7e308]))
        assert hist.sum() == pytest.approx(1.0)
        assert hist[0] == hist[5] == hist[9] == pytest.approx(1 / 3)

    def test_max_value_falls_in_last_bin(self):
        hist = region_histogram(region([0.0, 10.0]))
        assert hist[0] == 0.5 and hist[9] == 0.5

    @pytest.mark.parametrize("values", [[0.0, 5e-324, 5e-324, 5e-324],
                                        [1e-310, 2e-310, 3e-310]])
    def test_tiny_span_is_binned_like_a_scaled_one(self, values):
        # scaling by a power of two is exact, so the bins must not change
        hist = region_histogram(region(values))
        scaled = np.asarray(values) * 2.0 ** 600
        assert np.array_equal(hist, region_histogram(region(scaled)))

    def test_subnormal_maximum_lands_in_last_bin(self):
        hist = region_histogram(region([0.0, 5e-324, 5e-324, 5e-324]))
        assert np.array_equal(hist, [0.25] + [0.0] * 8 + [0.75])

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    @example([0.0, 5e-324], 0)
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sums_to_one_when_nonempty(self, values, _seed):
        assert region_histogram(region(values)).sum() == \
            pytest.approx(1.0, abs=1e-9)


# a block is hist [:10], then min, max, mean [10:13], then entropy [13]
class TestIntensityBlock:
    def test_two_level_region(self):
        blk = intensity_block(region([2.0, 2.0, 4.0, 4.0]))
        assert tuple(blk[10:13]) == (2.0, 4.0, 3.0)
        assert blk[0] == 0.5 and blk[9] == 0.5
        assert blk[13] == pytest.approx(1.0)

    def test_empty_region_all_zeros(self, identity_volume):
        mask = np.zeros(identity_volume.dims, dtype=bool)
        blk = intensity_block(identity_volume.data[mask])
        assert np.all(blk == 0.0)

    def test_constant_region(self):
        blk = intensity_block(region([5.5] * 4))
        assert blk[10] == blk[11] == blk[12] == 5.5
        assert blk[13] == 0.0

    def test_order_of_fields(self):
        arr = intensity_block(region([1.0, 3.0]))
        assert len(arr) == 14
        assert np.array_equal(arr[10:13], [1.0, 3.0, 2.0])  # min, max, mean

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_min_mean_max_ordering(self, values):
        lo, hi, mean = intensity_block(region(values))[10:13]
        assert lo <= mean + 1e-12
        assert mean <= hi + 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30),
           st.floats(0.1, 10.0), st.floats(-100, 100))
    @settings(max_examples=150, deadline=None)
    def test_affine_remap_covariance(self, values, alpha, beta):
        vals = np.asarray(values)
        lo, hi, spread = vals.min(), vals.max(), np.ptp(vals)
        # the real-number invariant cannot survive rounding in two regimes:
        # a spread at the ulp scale of the remapped values lets alpha*v+beta
        # merge distinct values, and a value exactly on an interior bin edge
        # can land on either side after remap rounding
        rescale = max(1.0, abs(alpha * lo + beta), abs(alpha * hi + beta))
        assume(alpha * spread > 1e-6 * rescale)
        u = (vals - lo) * (10.0 / spread)
        interior = (np.round(u) >= 1) & (np.round(u) <= 9)
        assume(not np.any(interior & (np.abs(u - np.round(u)) < 1e-5)))
        a = intensity_block(region(values))
        b = intensity_block(region(values) * alpha + beta)
        # entropy invariant, extrema covariant
        assert b[13] == pytest.approx(a[13], abs=1e-9)
        assert b[10] == pytest.approx(alpha * a[10] + beta, rel=1e-9, abs=1e-9)
        assert b[11] == pytest.approx(alpha * a[11] + beta, rel=1e-9, abs=1e-9)


class TestVectors:
    def test_lengths(self, small_phantom):
        vols, lm = small_phantom
        v = vols["t1_post"]
        assert build_v1(v, lm).values.shape == (14,)
        assert build_v2(v, lm).values.shape == (70,)
        assert build_v3(v, lm).values.shape == (28,)
        assert shape_block(lm).values.shape == (20,)

    def test_v1_is_union_block(self, small_phantom):
        vols, lm = small_phantom
        v = vols["t2"]
        union = lm.data > 0
        assert np.array_equal(build_v1(v, lm).values,
                              intensity_block(v.data[union]))

    def test_v2_blocks_match_per_label_oracle(self, small_phantom):
        vols, lm = small_phantom
        v = vols["t1_post"]
        v2 = build_v2(v, lm).values
        for i, lab in enumerate((1, 2, 3, 4, 5)):
            expected = intensity_block(v.data[lm.data == lab])
            assert np.array_equal(v2[14 * i:14 * (i + 1)], expected)

    def test_v2_absent_labels_are_zero_blocks(self):
        lm = make_labelmap({1: [(2, 2, 2), (2, 3, 2)], 3: [(5, 5, 5)]})
        v = vol_of(np.random.default_rng(0).normal(size=(12, 12, 12)))
        v2 = build_v2(v, lm).values
        assert np.all(v2[14:28] == 0.0)   # label 2 absent
        assert np.all(v2[42:70] == 0.0)   # labels 4, 5 absent
        assert np.any(v2[0:14] != 0.0)

    def test_v3_is_projection_of_v2(self, small_phantom):
        vols, lm = small_phantom
        v = vols["t1_pre"]
        v2 = build_v2(v, lm).values
        v3 = build_v3(v, lm).values
        assert np.array_equal(v3[:14], v2[14:28])    # label 2
        assert np.array_equal(v3[14:], v2[56:70])    # label 5

    def test_v3_without_its_labels_is_zero(self):
        lm = make_labelmap({1: [(0, 0, 0)], 3: [(1, 1, 1)]})
        v = vol_of(np.ones((12, 12, 12)))
        assert np.all(build_v3(v, lm).values == 0.0)

    def test_all_background(self):
        lm = make_labelmap({})
        v = vol_of(np.ones((12, 12, 12)))
        assert np.all(build_v1(v, lm).values == 0.0)
        assert np.all(build_v2(v, lm).values == 0.0)

    @pytest.mark.parametrize("build", [build_v1, build_v2, build_v3])
    def test_volume_off_the_label_grid_rejected(self, build):
        lm = make_labelmap({2: [(3, 3, 3)], 5: [(6, 6, 6)]})
        with pytest.raises(GeometryMismatch):
            build(vol_of(np.ones((12, 12, 11))), lm)

    @pytest.mark.parametrize("kind", list(KIND_LENGTHS))
    def test_volume_on_other_spacing_rejected(self, kind):
        # same dims, so only the spacing and affine tell the grids apart
        lm = make_labelmap({2: [(3, 3, 3)], 5: [(6, 6, 6)]})
        with pytest.raises(GeometryMismatch):
            extract_all(vol_of(np.ones((12, 12, 12)), (2.0, 2.0, 2.0)), lm,
                        (kind,))

    def test_feature_vector_validates_length(self):
        with pytest.raises(LengthMismatch):
            FeatureVector("v1", np.zeros(13))

    def test_feature_vector_values_read_only(self):
        fv = FeatureVector("v1", np.zeros(14))
        with pytest.raises(ValueError):
            fv.values[0] = 1.0

    def test_extract_all_kinds(self, small_phantom):
        vols, lm = small_phantom
        out = extract_all(vols["t2"], lm)
        assert set(out) == {"v1", "v2", "v3", "shape"}
        assert [out[k].values.size for k in ("v1", "v2", "v3", "shape")] == \
            [14, 70, 28, 20]

    def test_unknown_kind(self, small_phantom):
        vols, lm = small_phantom
        with pytest.raises(ValueError, match="unknown feature kind"):
            extract_all(vols["t2"], lm, ("v9",))


class TestConnectedComponents:
    def test_two_disjoint_cubes(self):
        mask = np.zeros((10, 10, 10), dtype=bool)
        mask[0:2, 0:2, 0:2] = True       # 8 voxels
        mask[6:9, 6:9, 6:9] = True       # 27 voxels
        comps = connected_components(mask)
        assert len(comps) == 2
        assert comps[0].sum() == 27      # biggest first
        assert comps[1].sum() == 8

    def test_empty_mask(self):
        assert connected_components(np.zeros((3, 3, 3), dtype=bool)) == []

    def test_diagonal_voxels_are_one_component(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = True
        mask[1, 1, 1] = True             # touches only at a corner
        comps = connected_components(mask)
        assert len(comps) == 1
        assert comps[0].sum() == 2

    def test_single_component_is_a_fresh_mask(self):
        mask = np.zeros((5, 5, 5), dtype=np.int16)
        mask[1:3, 1:4, 2] = 1
        [comp] = connected_components(mask)
        assert comp.dtype == bool and np.array_equal(comp, mask)
        assert not np.shares_memory(comp, mask)

    def test_tie_broken_by_first_voxel(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[5, 5, 5] = True
        mask[0, 0, 0] = True
        comps = connected_components(mask)
        assert comps[0][0, 0, 0] and comps[1][5, 5, 5]


def one_label_shape(component):
    """The label-1 slots of ``shape_block`` on a label map whose only label
    is ``component``, a single 26-connected component."""
    data = np.asarray(component).astype(np.int16)
    return shape_block(LabelMap(data, (1.0, 1.0, 1.0), np.eye(4))).values[:4]


def disk_component(radius, size=51):
    yy, xx = np.mgrid[:size, :size]
    c = size // 2
    disk = (xx - c) ** 2 + (yy - c) ** 2 <= radius * radius
    return disk[:, :, None]


class TestShape:
    def test_circle_limit_of_perimeter_formula(self):
        # P(a, a) = pi(6a - sqrt(16 a^2)) = 2 pi a; float rounding only
        for a in (0.25, 1.0, 3.7, 250.0):
            assert ellipse_perimeter(a, a) == pytest.approx(2 * np.pi * a,
                                                            rel=1e-15)

    def test_perimeter_formula_known_value(self):
        # e.g. a=3, b=1: pi(12 - sqrt(10 * 6))
        expected = np.pi * (12.0 - np.sqrt(60.0))
        assert ellipse_perimeter(3.0, 1.0) == pytest.approx(expected)

    def test_digital_disk(self):
        solidity, ecc, axis_ratio, perimeter_ratio = one_label_shape(
            disk_component(20))
        assert ecc < 0.1
        assert axis_ratio < 1.1
        assert solidity > 0.95
        # frozen oracle: cracked-edge boundary of a digital disk is ~8r,
        # so the ratio sits near pi/4 rather than 1
        assert perimeter_ratio == pytest.approx(0.766732, abs=1e-6)

    def test_rectangle_solidity_exact(self):
        comp = np.zeros((20, 20, 1), dtype=bool)
        comp[4:16, 7:12, 0] = True
        solidity, _, _, _ = one_label_shape(comp)
        assert solidity == 1.0

    def test_elongated_rectangle_eccentric(self):
        comp = np.zeros((40, 40, 1), dtype=bool)
        comp[2:38, 10:13, 0] = True
        _, ecc, axis_ratio, _ = one_label_shape(comp)
        assert ecc > 0.9
        assert axis_ratio > 3.0

    def test_single_voxel_conventions(self):
        comp = np.zeros((5, 5, 5), dtype=bool)
        comp[2, 2, 2] = True
        solidity, ecc, axis_ratio, _ = one_label_shape(comp)
        assert ecc == 0.0
        assert axis_ratio == 1.0
        assert solidity == 1.0

    def test_measures_largest_axial_slice(self):
        comp = np.zeros((9, 9, 3), dtype=bool)
        comp[4, 4, 0] = True                 # 1-pixel slice
        comp[2:7, 2:7, 1] = True             # 5x5 slice dominates
        comp[4, 4, 2] = True
        blk = one_label_shape(comp)
        square = np.zeros((9, 9, 1), dtype=bool)
        square[2:7, 2:7, 0] = True
        expected = _component_shape(square, (1.0, 1.0, 1.0))
        assert np.array_equal(blk, expected)

    def test_shape_block_absent_label_zeros(self):
        lm = make_labelmap({2: [(3, 3, 3), (3, 4, 3), (4, 3, 3), (4, 4, 3)]})
        values = shape_block(lm).values
        assert np.any(values[4:8] != 0.0)    # label 2 slots
        assert np.all(values[0:4] == 0.0)    # label 1 absent
        assert np.all(values[8:] == 0.0)     # labels 3..5 absent

    def test_shape_block_single_component_equals_features(self):
        voxels = [(x, y, 5) for x in range(3, 7) for y in range(3, 9)]
        lm = make_labelmap({3: voxels})
        comp = np.zeros((12, 12, 12), dtype=bool)
        for v in voxels:
            comp[v] = True
        expected = _component_shape(comp, (1.0, 1.0, 1.0))
        assert np.allclose(shape_block(lm).values[8:12], expected)

    def test_shape_block_area_weighting(self):
        # two label-1 components with slice areas 12 and 4 -> weights 3:1
        big = [(x, y, 2) for x in range(0, 4) for y in range(0, 3)]
        small = [(x, y, 8) for x in range(8, 10) for y in range(8, 10)]
        lm = make_labelmap({1: big + small})
        comp_big = np.zeros((12, 12, 12), dtype=bool)
        comp_small = np.zeros((12, 12, 12), dtype=bool)
        for v in big:
            comp_big[v] = True
        for v in small:
            comp_small[v] = True
        blk_big = _component_shape(comp_big, (1.0, 1.0, 1.0))
        blk_small = _component_shape(comp_small, (1.0, 1.0, 1.0))
        expected = 0.75 * blk_big + 0.25 * blk_small
        assert np.allclose(shape_block(lm).values[0:4], expected)


def reference_hull(points):
    """Monotone chain over every distinct point, counter-clockwise."""
    pts = np.unique(np.asarray(points), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower, upper = half(pts), half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def reference_hull_pixel_count(points):
    """Lattice points on or inside the reference hull, tested one by one."""
    pts = np.unique(np.asarray(points), axis=0)
    hull = [tuple(int(c) for c in p) for p in reference_hull(pts)]
    if len(hull) <= 2:
        return len(pts)
    (i0, j0), (i1, j1) = pts.min(axis=0), pts.max(axis=0)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return sum(all((b[0] - a[0]) * (j - a[1]) - (b[1] - a[1]) * (i - a[0]) >= 0
                   for a, b in edges)
               for i in range(i0, i1 + 1) for j in range(j0, j1 + 1))


def reference_shape_block(lm):
    """shape_block with every label split over the full grid, uncropped."""
    out = []
    for lab in TUMOR_LABELS:
        comps = connected_components(lm.data == lab)
        if not comps:
            out.append(np.zeros(4))
            continue
        blocks, weights = [], []
        for comp in comps:
            blocks.append(_component_shape(comp, lm.spacing))
            # the measured slice's area
            weights.append(comp.sum(axis=(0, 1)).max()
                           * lm.spacing[0] * lm.spacing[1])
        w = np.asarray(weights) / np.sum(weights)
        out.append(np.sum(np.stack(blocks) * w[:, None], axis=0))
    return np.concatenate(out)


@st.composite
def label_maps(draw):
    """Small label maps holding boxes and scattered voxels of labels 1..5.

    Boxes of one size and single voxels give many components of equal
    voxel count, so the tie rule decides their order.
    """
    dims = draw(st.tuples(*[st.integers(4, 10)] * 3))
    data = np.zeros(dims, dtype=np.int16)
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.tuples(*[st.integers(1, 3)] * 3))
        corner = [draw(st.integers(0, d - s)) for d, s in zip(dims, size)]
        box = tuple(slice(c, c + s) for c, s in zip(corner, size))
        data[box] = draw(st.integers(1, 5))
    voxels = draw(st.lists(st.tuples(*[st.integers(0, d - 1) for d in dims]),
                           max_size=12))
    for voxel in voxels:
        data[voxel] = draw(st.integers(1, 5))
    spacing = draw(st.tuples(*[st.sampled_from((0.5, 0.9, 1.0, 1.3))] * 3))
    return LabelMap(data, spacing, np.diag([*spacing, 1.0]))


pixel_sets = st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6)),
                      min_size=1, max_size=40)


class TestShapeAgainstReference:
    @given(pixel_sets)
    @example([(2, 0), (2, 4), (2, 1), (2, 3)])            # one row
    @example([(0, 3), (4, 3), (1, 3), (2, 3)])            # one column
    @example([(0, 0), (1, 1), (2, 2), (3, 3), (1, 1)])    # diagonal
    @example([(0, 0), (2, 1), (4, 2)])                    # collinear, gaps
    @example([(1, 1), (1, 1), (3, 2), (3, 2), (0, 4)])    # duplicates
    @example([(5, 5)])
    @settings(max_examples=300, deadline=None)
    def test_hull_matches_chain_over_all_points(self, points):
        # the pixel list of a mask, as _measure_slice passes it: argwhere
        # output (distinct, (i, j) order) shifted by the crop offset
        mask = np.zeros((10, 10), dtype=bool)
        mask[tuple((np.array(points) + 3).T)] = True
        ij = np.argwhere(mask) - 3
        assert np.array_equal(_convex_hull(ij), reference_hull(ij))
        assert _hull_pixel_count(ij) == reference_hull_pixel_count(ij)

    @given(label_maps())
    @settings(max_examples=200, deadline=None)
    def test_shape_block_matches_uncropped_path(self, lm):
        assert np.array_equal(shape_block(lm).values,
                              reference_shape_block(lm))


def reference_perimeter(mask, sx, sy):
    """Exposed pixel edges counted as the 0/1 steps of the zero-padded mask."""
    padded = np.pad(mask.astype(np.int8), 1)
    faces_x = int(np.abs(np.diff(padded, axis=0)).sum())
    faces_y = int(np.abs(np.diff(padded, axis=1)).sum())
    return faces_x * sy + faces_y * sx


@given(st.tuples(st.integers(1, 9), st.integers(1, 9)), st.data())
@settings(max_examples=200, deadline=None)
def test_perimeter_matches_padded_steps(dims, data):
    cells = data.draw(st.lists(st.booleans(), min_size=dims[0] * dims[1],
                               max_size=dims[0] * dims[1]))
    mask = np.array(cells).reshape(dims)
    # a strided view, as _component_shape passes one axial slice
    view = np.stack([mask, ~mask], axis=2)[:, :, 0]
    assert _boundary_perimeter(view, 0.9, 1.3) == \
        reference_perimeter(mask, 0.9, 1.3)


class TestShapeMemo:
    @given(label_maps())
    @settings(max_examples=100, deadline=None)
    def test_extract_all_is_bit_equal_to_a_fresh_shape_block(self, lm):
        v = Volume(np.zeros(lm.data.shape), lm.spacing, lm.affine)
        twin = LabelMap(lm.data.copy(), lm.spacing, lm.affine)
        fresh = shape_block(LabelMap(lm.data, lm.spacing, lm.affine))
        # the first call fills the memo, the second reads it; the twin is
        # equal but built apart, so it holds a memo of its own
        for vals in (extract_all(v, lm, ("shape",))["shape"].values,
                     extract_all(v, lm, ("shape",))["shape"].values,
                     extract_all(v, twin, ("shape",))["shape"].values):
            assert vals.tobytes() == fresh.values.tobytes()

    def test_extract_all_computes_shape_once(self, small_phantom,
                                             monkeypatch):
        vols, lm = small_phantom
        lm = LabelMap(lm.data, lm.spacing, lm.affine)   # an empty memo
        calls = []
        real = features.shape_block

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(features, "shape_block", counting)
        shapes = [extract_all(v, lm)["shape"] for v in vols.values()]
        assert len(vols) == 3
        assert len(calls) == 1 and calls[0] is lm
        assert all(s is shapes[0] for s in shapes)


@given(label_maps(), st.lists(st.sampled_from(list(KIND_LENGTHS)), min_size=1,
                              unique=True))
@settings(max_examples=100, deadline=None)
def test_extract_all_returns_the_kinds_asked_for(lm, kinds):
    # intensities that differ across the grid, so every block has a range
    v = Volume(np.arange(lm.data.size, dtype=float).reshape(lm.data.shape)
               % 7.0 + lm.data, lm.spacing, lm.affine)
    out = extract_all(v, lm, kinds)
    assert list(out) == kinds
    full = extract_all(v, LabelMap(lm.data.copy(), lm.spacing, lm.affine))
    for kind in kinds:
        assert out[kind].values.tobytes() == full[kind].values.tobytes()
