import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumetrack import (
    DegenerateUpdateError,
    GridBelief,
    GridGeometry,
    LikelihoodField,
    MeasurementContext,
    PlannerParams,
    bayes_update,
    detection_likelihood,
    miss_likelihood,
    point_estimate,
    uniform_belief,
)
from plumetrack.belief import angle_between, miss_block_weights
from plumetrack.uncertainty import MarginalDist

PAPER_GRID = GridGeometry(nx=100, ny=50, h=5.0)


def _ctx(usv_pos, v_hat=(1 / math.sqrt(2), 1 / math.sqrt(2)), **kw):
    return MeasurementContext(usv_pos=usv_pos, v_hat=v_hat, **kw)


DEFAULT_PARAMS = PlannerParams()


def _belief_with(geometry, placements):
    probs = np.zeros((geometry.ny, geometry.nx))
    for (i, j), p in placements.items():
        probs[j, i] = p
    return GridBelief(geometry, probs)


class TestUniformBelief:
    def test_paper_grid(self):
        b = uniform_belief(PAPER_GRID)
        assert np.allclose(b.probs, 1 / 5000)

    def test_single_cell(self):
        b = uniform_belief(GridGeometry(nx=1, ny=1, h=1.0))
        assert b.probs[0, 0] == 1.0

    def test_sums_to_one(self):
        assert uniform_belief(PAPER_GRID).probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPointEstimate:
    def test_uniform_is_origin(self):
        est = point_estimate(uniform_belief(PAPER_GRID))
        assert est[0] == pytest.approx(0.0, abs=1e-9)
        assert est[1] == pytest.approx(0.0, abs=1e-9)

    def test_point_mass(self):
        b = _belief_with(PAPER_GRID, {(50, 25): 1.0})
        assert PAPER_GRID.cell_center(50, 25) == (2.5, 2.5)
        assert point_estimate(b) == pytest.approx((2.5, 2.5))

    def test_two_point_expectation(self):
        # 0.25 at x = -2.5 and 0.75 at x = +2.5 with a common y row
        b = _belief_with(PAPER_GRID, {(49, 25): 0.25, (50, 25): 0.75})
        est = point_estimate(b)
        assert est[0] == pytest.approx(0.25 * -2.5 + 0.75 * 2.5)
        assert est[1] == pytest.approx(2.5)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(11)
        geom = GridGeometry(nx=12, ny=9, h=2.0)
        for _ in range(20):
            p1 = rng.random((9, 12))
            p2 = rng.random((9, 12))
            b1 = GridBelief(geom, p1 / p1.sum())
            b2 = GridBelief(geom, p2 / p2.sum())
            alpha = float(rng.random())
            mix = GridBelief(geom, alpha * b1.probs + (1 - alpha) * b2.probs)
            e1, e2, em = point_estimate(b1), point_estimate(b2), point_estimate(mix)
            assert em[0] == pytest.approx(alpha * e1[0] + (1 - alpha) * e2[0], abs=1e-9)
            assert em[1] == pytest.approx(alpha * e1[1] + (1 - alpha) * e2[1], abs=1e-9)


class TestDetectionKernel:
    def test_upwind_cell_gets_peak_weight(self):
        # usv at origin cell, wind blowing +x: a cell straight west of the
        # vehicle looks straight downwind from the cell, so theta = 0
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), v_hat=(1.0, 0.0))
        like = detection_likelihood(ctx, geom, DEFAULT_PARAMS)
        assert like.weights[10, 5] == pytest.approx(1.0)

    def test_perpendicular_cell_weight(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), v_hat=(1.0, 0.0))
        like = detection_likelihood(ctx, geom, PlannerParams(sigma2_hit=1.0))
        expected = math.exp(-((math.pi / 2) ** 2) / (2 * 1.0))
        assert like.weights[13, 10] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2912, abs=5e-5)

    def test_downwind_cell_weight(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), v_hat=(1.0, 0.0))
        like = detection_likelihood(ctx, geom, PlannerParams(sigma2_hit=1.0))
        expected = math.exp(-(math.pi**2) / 2)
        assert like.weights[10, 13] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.19e-3, abs=5e-5)

    def test_own_cell_gets_unit_weight(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        # vehicle off the cell centre still marks its own cell as consistent
        ctx = _ctx(usv_pos=(0.3, -0.2), v_hat=(0.0, 1.0))
        like = detection_likelihood(ctx, geom, DEFAULT_PARAMS)
        assert like.weights[10, 10] == 1.0

    def test_mirror_symmetry_across_wind_axis(self):
        geom = GridGeometry(nx=31, ny=31, h=2.0)
        ctx = _ctx(usv_pos=geom.cell_center(15, 15), v_hat=(1.0, 0.0))
        w = detection_likelihood(ctx, geom, PlannerParams(local_radius_cells=15)).weights
        assert np.allclose(w, w[::-1, :], atol=1e-12)

    def test_uncovered_cells_copy_nearest_covered(self):
        geom = GridGeometry(nx=41, ny=41, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(20, 20), v_hat=(1.0, 0.0))
        w = detection_likelihood(ctx, geom, PlannerParams(local_radius_cells=3)).weights
        # far corner copies the nearest covered block corner
        assert w[40, 40] == w[23, 23]
        assert w[0, 20] == w[17, 20]
        # inside the block different bearings keep different weights
        assert w[20, 22] != w[22, 20]


class TestMissKernel:
    def test_no_prior_hit_is_uninformative(self):
        geom = GridGeometry(nx=11, ny=11, h=1.0)
        ctx = _ctx(usv_pos=(0.0, 0.0))
        like = miss_likelihood(ctx, geom, DEFAULT_PARAMS)
        assert np.all(like.weights == like.weights[0, 0])
        updated = bayes_update(uniform_belief(geom), like)
        assert np.allclose(updated.probs, 1 / 121, atol=1e-15)

    def test_no_prior_hit_gives_ones_on_every_block(self):
        # before the first detection the batched kernel returns ones, the
        # weights a last hit at each reading's own position gives
        geom = GridGeometry(nx=9, ny=7, h=0.7, origin=(0.3, -1.1))
        X, Y = geom.cell_centers()
        px, py = X[0, [1, 4, 8]], Y[[0, 3, 6], 0]
        bx, by = X[0, [[0, 1, 2], [3, 4, 5], [6, 7, 8]]], Y[[[0, 1], [2, 3], [5, 6]], 0]
        own = (np.array([0, 1, 1]), np.array([1, 1, 2]))
        w = miss_block_weights(px, py, bx, by, own, None, geom.h, 4.0)
        assert w.shape == (3, 2, 3) and w.dtype == np.float64 and (w == 1.0).all()
        for c in range(3):
            at_own = miss_block_weights(
                px[c : c + 1], py[c : c + 1], bx[c : c + 1], by[c : c + 1],
                (own[0][c : c + 1], own[1][c : c + 1]), (px[c], py[c]), geom.h, 4.0,
            )
            assert at_own.tobytes() == w[c : c + 1].tobytes()

    def test_towards_last_hit_gets_peak_weight(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), last_hit_pos=geom.cell_center(14, 10))
        like = miss_likelihood(ctx, geom, DEFAULT_PARAMS)
        assert like.weights[10, 13] == pytest.approx(1.0)

    def test_opposite_last_hit_weight(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), last_hit_pos=geom.cell_center(14, 10))
        like = miss_likelihood(ctx, geom, PlannerParams(sigma2_miss=4.0))
        expected = math.exp(-(math.pi**2) / (2 * 4.0))
        assert like.weights[10, 6] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2912, abs=5e-5)

    def test_own_cell_takes_covered_minimum(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        ctx = _ctx(usv_pos=geom.cell_center(10, 10), last_hit_pos=geom.cell_center(14, 10))
        w = miss_likelihood(ctx, geom, PlannerParams(local_radius_cells=5)).weights
        block = w[5:16, 5:16]
        assert w[10, 10] == block.min()

    def test_point_symmetry_about_the_vehicle(self):
        # a last hit strictly south-west of the vehicle mirrors one strictly
        # north-east; the own cell's zero offset must not see a signed zero
        geom = GridGeometry(nx=41, ny=41, h=1.0)
        params = PlannerParams(local_radius_cells=5)
        usv = geom.cell_center(20, 20)
        sw = miss_likelihood(_ctx(usv, last_hit_pos=geom.cell_center(13, 17)), geom, params)
        ne = miss_likelihood(_ctx(usv, last_hit_pos=geom.cell_center(27, 23)), geom, params)
        assert np.allclose(sw.weights, ne.weights[::-1, ::-1], rtol=0, atol=1e-12)


def _full_grid_reference(kernel, ctx, geometry, params):
    """The kernel evaluated on every cell, the own cell set, then every cell
    given the weight of its index clamp into the covered block."""
    X, Y = geometry.cell_centers()
    ux, uy = ctx.usv_pos
    if kernel is detection_likelihood:
        theta = angle_between(ux - X, uy - Y, *ctx.v_hat)
        w = np.exp(-(theta**2) / (2.0 * params.sigma2_hit))
    else:
        if ctx.last_hit_pos is None:
            return np.ones((geometry.ny, geometry.nx))
        rx, ry = ctx.last_hit_pos[0] - ux, ctx.last_hit_pos[1] - uy
        if np.hypot(rx, ry) < 1e-12 * geometry.h:
            return np.ones((geometry.ny, geometry.nx))
        phi = angle_between(X - ux, Y - uy, rx, ry)
        w = np.exp(-(phi**2) / (2.0 * params.sigma2_miss))
    ui, uj = geometry.cell_of(ctx.usv_pos)
    r = params.local_radius_cells
    ilo, ihi = max(ui - r, 0), min(ui + r, geometry.nx - 1)
    jlo, jhi = max(uj - r, 0), min(uj + r, geometry.ny - 1)
    if kernel is detection_likelihood:
        w[uj, ui] = 1.0
    else:
        w[uj, ui] = w[jlo : jhi + 1, ilo : ihi + 1].min()
    rows = np.clip(np.arange(geometry.ny), jlo, jhi)
    cols = np.clip(np.arange(geometry.nx), ilo, ihi)
    return w[np.ix_(rows, cols)]


@st.composite
def kernel_cases(draw):
    """Off-lattice vehicle and last hit on a grid with non-integer h and a
    non-zero origin; radii from 0 to past the grid's extent."""
    nx, ny = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    h = draw(st.floats(0.1, 10.0).filter(lambda h: not h.is_integer()))
    origin = draw(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)).filter(any)
    )
    geom = GridGeometry(nx, ny, h, origin)
    (x0, x1), (y0, y1) = geom.x_bounds, geom.y_bounds
    position = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    usv = draw(position)
    wind = draw(st.floats(0.0, 2.0 * math.pi))
    ctx = MeasurementContext(
        usv_pos=usv,
        v_hat=(math.cos(wind), math.sin(wind)),
        last_hit_pos=draw(st.one_of(st.none(), st.just(usv), position)),
    )
    params = PlannerParams(
        sigma2_hit=draw(st.floats(0.01, 10.0)),
        sigma2_miss=draw(st.floats(0.01, 10.0)),
        local_radius_cells=draw(st.integers(0, max(nx, ny) + 3)),
    )
    return ctx, geom, params


class TestKernelsOnTheCoveredBlock:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_equal_to_full_grid_evaluation_then_clamp(self, case):
        ctx, geom, params = case
        for kernel in (detection_likelihood, miss_likelihood):
            expected = _full_grid_reference(kernel, ctx, geom, params)
            assert np.array_equal(kernel(ctx, geom, params).weights, expected)


class TestMissBeforeFirstDetection:
    # Mission.run skips these misses and keeps its belief object; should a
    # miss before the first detection ever carry information, this fails
    # and the skip has to go
    @settings(max_examples=200, deadline=None)
    @given(kernel_cases(), st.integers(0, 2**32 - 1))
    def test_constant_likelihood_keeps_the_prior(self, case, seed):
        ctx, geom, params = case
        like = miss_likelihood(dataclasses.replace(ctx, last_hit_pos=None), geom, params)
        assert like.weights.min() > 0
        assert like.weights.min() == like.weights.max()
        p = np.random.default_rng(seed).random((geom.ny, geom.nx)) ** 3
        for prior in (uniform_belief(geom), GridBelief(geom, p / p.sum())):
            assert bayes_update(prior, like) is prior


class TestBayesUpdate:
    def test_uniform_likelihood_is_identity(self):
        geom = GridGeometry(nx=10, ny=6, h=1.0)
        rng = np.random.default_rng(2)
        p = rng.random((6, 10))
        b = GridBelief(geom, p / p.sum())
        like = LikelihoodField(geom, np.full((6, 10), 0.37))
        assert bayes_update(b, like) is b

    def test_subnormal_constant_likelihood_keeps_the_prior(self):
        # every product underflows to zero, yet the reading carries no information
        geom = GridGeometry(nx=3, ny=2, h=1.0)
        b = GridBelief(geom, np.array([[0.1, 0.2, 0.3], [0.4, 0.0, 0.0]]))
        like = LikelihoodField(geom, np.full((2, 3), 5e-324))
        assert bayes_update(b, like) is b

    def test_exclusion(self):
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        b = GridBelief(geom, np.array([[0.5, 0.5]]))
        like = LikelihoodField(geom, np.array([[1.0, 0.0]]))
        updated = bayes_update(b, like)
        assert updated.probs[0, 0] == 1.0
        assert updated.probs[0, 1] == 0.0

    def test_three_cell_hand_computation(self):
        geom = GridGeometry(nx=3, ny=1, h=1.0)
        b = GridBelief(geom, np.array([[0.2, 0.3, 0.5]]))
        like = LikelihoodField(geom, np.array([[1.0, 2.0, 1.0]]))
        updated = bayes_update(b, like)
        assert np.allclose(updated.probs, [[2 / 13, 6 / 13, 5 / 13]], atol=1e-15)

    def test_equal_subnormal_weights_keep_the_prior_ratio(self):
        # unscaled, 1/3 and 2/3 times 6.4e-323 rounded to 2e-323 and
        # 4.4e-323, a posterior of 4/13 and 9/13
        geom = GridGeometry(nx=3, ny=1, h=1.0)
        b = GridBelief(geom, np.array([[1.0, 2.0, 0.0]]) / 3.0)
        updated = bayes_update(b, LikelihoodField(geom, np.array([[6.4e-323, 6.4e-323, 0.0]])))
        assert updated.probs.tobytes() == b.probs.tobytes()
        # a subnormal mass times a subnormal weight underflowed to 0, a
        # degenerate update; all the mass moves onto the weighted cell
        b = GridBelief(geom, np.array([[1.0, 1.1e-308, 0.0]]))
        updated = bayes_update(b, LikelihoodField(geom, np.array([[0.0, 1e-295, 0.0]])))
        assert updated.probs.tolist() == [[0.0, 1.0, 0.0]]
        # the scale comes from the cells holding mass: a cell without mass
        # weighted 1 neither hides the subnormal weight nor overflows
        b = GridBelief(geom, np.array([[0.0, 1.0, 2.0]]) / 3.0)
        like = LikelihoodField(geom, np.array([[1.0, 1e-320, 1e-320]]))
        assert bayes_update(b, like).probs.tobytes() == b.probs.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 20]))
    def test_normal_range_products_keep_their_bits(self, seed, power):
        # products summing to 2**-900 or more are not rescaled, so the update
        # is the product renormalized, bit for bit
        rng = np.random.default_rng(seed)
        geom = GridGeometry(nx=7, ny=5, h=1.0)
        p = rng.random((5, 7)) ** power
        b = GridBelief(geom, p / p.sum())
        w = rng.random((5, 7)) ** power
        post = b.probs * w
        assert post.sum() >= 2.0**-900
        updated = bayes_update(b, LikelihoodField(geom, w))
        assert updated.probs.tobytes() == (post / float(post.sum())).tobytes()

    def test_degenerate_update_raises(self):
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        b = GridBelief(geom, np.array([[1.0, 0.0]]))
        # disjoint support, and an all-zero field (an underflowed kernel)
        for weights in ([[0.0, 1.0]], [[0.0, 0.0]]):
            like = LikelihoodField(geom, np.array(weights))
            with pytest.raises(DegenerateUpdateError):
                bayes_update(b, like)

    def test_geometry_mismatch_raises(self):
        b = uniform_belief(GridGeometry(nx=2, ny=2, h=1.0))
        like = LikelihoodField(GridGeometry(nx=3, ny=3, h=1.0), np.ones((3, 3)))
        with pytest.raises(ValueError):
            bayes_update(b, like)


class TestBeliefProperties:
    def test_normalization_after_updates(self):
        geom = GridGeometry(nx=30, ny=20, h=5.0)
        rng = np.random.default_rng(5)
        b = uniform_belief(geom)
        for _ in range(100):
            w = rng.random((20, 30)) + 1e-6
            b = bayes_update(b, LikelihoodField(geom, w))
            assert abs(b.probs.sum() - 1.0) <= 1e-9

    def test_likelihood_scale_invariance(self):
        geom = GridGeometry(nx=15, ny=10, h=2.0)
        rng = np.random.default_rng(6)
        p = rng.random((10, 15))
        b = GridBelief(geom, p / p.sum())
        w = rng.random((10, 15)) + 0.01
        for scale in (1e-6, 0.5, 3.0, 1e6):
            u1 = bayes_update(b, LikelihoodField(geom, w))
            u2 = bayes_update(b, LikelihoodField(geom, scale * w))
            assert np.allclose(u1.probs, u2.probs, atol=1e-12)

    def test_sequential_consistency(self):
        # updating with L1 then L2 equals one update with L1 * L2
        geom = GridGeometry(nx=8, ny=8, h=1.0)
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = rng.random((8, 8))
            b = GridBelief(geom, p / p.sum())
            w1 = rng.random((8, 8)) + 1e-3
            w2 = rng.random((8, 8)) + 1e-3
            seq = bayes_update(bayes_update(b, LikelihoodField(geom, w1)), LikelihoodField(geom, w2))
            joint = bayes_update(b, LikelihoodField(geom, w1 * w2))
            assert np.allclose(seq.probs, joint.probs, atol=1e-12)

    def test_belief_validation(self):
        geom = GridGeometry(nx=2, ny=2, h=1.0)
        with pytest.raises(ValueError):
            GridBelief(geom, np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            GridBelief(geom, np.array([[1.5, -0.5], [0.0, 0.0]]))


_PAIR = GridGeometry(nx=2, ny=1, h=1.0)


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: GridBelief(_PAIR, [v]),
            lambda v: LikelihoodField(_PAIR, [v]),
            lambda v: MarginalDist(v, 1.0),
        ],
        ids=["GridBelief", "LikelihoodField", "MarginalDist"],
    )
    @pytest.mark.parametrize(
        "values",
        [
            (math.nan, 1.0),
            (math.nan, math.nan),
            (math.inf, 1.0),
            (math.inf, math.inf),
            (-math.inf, 1.0),
        ],
        ids=str,
    )
    def test_rejected(self, make, values):
        with pytest.raises(ValueError):
            make(values)

    @pytest.mark.parametrize(
        "v_hat", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)], ids=str
    )
    def test_measurement_context_rejects_a_nan_direction(self, v_hat):
        with pytest.raises(ValueError, match="unit vector"):
            MeasurementContext((0.0, 0.0), v_hat)
