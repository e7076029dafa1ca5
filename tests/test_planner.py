import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plumetrack import (
    GridBelief,
    GridGeometry,
    MeasurementContext,
    PlannerParams,
    candidate_waypoints,
    select_waypoint,
    uniform_belief,
)
from plumetrack.belief import (
    angle_between,
    detection_block_weights,
    detection_likelihood,
    miss_likelihood,
)
import plumetrack.planner as planner
from plumetrack.planner import _hit_kernel_table, _hit_probabilities, _update_kl, score_candidates

V_HAT = (1 / math.sqrt(2), 1 / math.sqrt(2))


def _ctx(geom, usv_cell, last_hit=None):
    return MeasurementContext(
        usv_pos=geom.cell_center(*usv_cell), v_hat=V_HAT, last_hit_pos=last_hit
    )


def hit_probability(belief, cand, params):
    return _hit_probabilities(belief, [cand], V_HAT, params)[0]


def outcome_weighted_kl(belief, hit_weights, miss_weights, p_hit):
    """p_hit * KL(hit posterior || belief) + (1 - p_hit) * KL(miss posterior || belief)."""
    mass = belief.probs.reshape(1, -1)
    kl_hit = _update_kl(mass, np.reshape(hit_weights, (1, -1)))[0]
    kl_miss = _update_kl(mass, np.reshape(miss_weights, (1, -1)))[0]
    return float(p_hit * kl_hit + (1.0 - p_hit) * kl_miss)


def random_kernel_params(rng, **fixed):
    """PlannerParams with the kernel parameters drawn at random."""
    return PlannerParams(
        sigma2_hit=float(rng.uniform(0.2, 4.0)),
        sigma2_miss=float(rng.uniform(0.5, 8.0)),
        local_radius_cells=int(rng.integers(0, 4)),
        **fixed,
    )


class TestCandidateWaypoints:
    def test_interior_window_eleven(self):
        geom = GridGeometry(nx=100, ny=50, h=5.0)
        cands = candidate_waypoints(geom, (50, 25), PlannerParams(window_cells=11))
        assert len(cands) == 120
        assert (50, 25) not in cands

    def test_corner_clipping(self):
        geom = GridGeometry(nx=100, ny=50, h=5.0)
        cands = candidate_waypoints(geom, (0, 0), PlannerParams(window_cells=11))
        assert len(cands) == 35
        assert all(0 <= i <= 5 and 0 <= j <= 5 for i, j in cands)

    def test_window_three_moore_neighbourhood(self):
        geom = GridGeometry(nx=10, ny=10, h=1.0)
        cands = candidate_waypoints(geom, (4, 4), PlannerParams(window_cells=3))
        assert len(cands) == 8

    def test_row_major_order(self):
        geom = GridGeometry(nx=10, ny=10, h=1.0)
        cands = candidate_waypoints(geom, (4, 4), PlannerParams(window_cells=3))
        flat = [j * 10 + i for i, j in cands]
        assert flat == sorted(flat)

    def test_outside_grid_raises(self):
        geom = GridGeometry(nx=10, ny=10, h=1.0)
        with pytest.raises(ValueError):
            candidate_waypoints(geom, (10, 0), PlannerParams())


class TestPredictedHitProbability:
    def test_point_mass_upwind_clamps_high(self):
        # source mass directly upwind of the candidate: kernel peak, clamped
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        probs = np.zeros((21, 21))
        probs[5, 5] = 1.0  # cell (5,5); candidate (10,10) is downwind of it
        belief = GridBelief(geom, probs)
        params = PlannerParams()
        p = hit_probability(belief, (10, 10), params)
        assert p == 1.0 - params.prob_clip

    def test_point_mass_downwind(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        probs = np.zeros((21, 21))
        probs[15, 15] = 1.0  # downwind of candidate (10,10): theta = pi
        belief = GridBelief(geom, probs)
        p = hit_probability(belief, (10, 10), PlannerParams(sigma2_hit=1.0))
        assert p == pytest.approx(math.exp(-(math.pi**2) / 2), rel=1e-9)

    def test_split_belief_mixes_kernel_values(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        probs = np.zeros((21, 21))
        probs[5, 5] = 0.5  # upwind: theta = 0
        probs[5, 15] = 0.5  # perpendicular-ish: theta = pi/2 for diagonal wind
        belief = GridBelief(geom, probs)
        p = hit_probability(belief, (10, 10), PlannerParams(sigma2_hit=1.0))
        expected = 0.5 * 1.0 + 0.5 * math.exp(-((math.pi / 2) ** 2) / 2)
        assert p == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.6456, abs=5e-5)

    def test_detection_ceiling_scales(self):
        geom = GridGeometry(nx=11, ny=11, h=1.0)
        probs = np.zeros((11, 11))
        probs[2, 2] = 1.0
        belief = GridBelief(geom, probs)
        p_full = hit_probability(belief, (7, 7), PlannerParams())
        p_half = hit_probability(belief, (7, 7), PlannerParams(detection_ceiling=0.5))
        assert p_half == pytest.approx(0.5, abs=1e-6)
        assert p_full == pytest.approx(1.0, abs=1e-5)


def closed_form_hit_table(geom, v_hat, sigma2):
    """The detection kernel written out over the cell-to-cell offsets, with
    the kernel maximum at the zero offset: the layout of _hit_kernel_table,
    whose entry [ny - 1 - dj, nx - 1 - di] holds offset (di, dj)."""
    nx, ny = geom.nx, geom.ny
    di = np.arange(nx - 1, -nx, -1)[None, :]
    dj = np.arange(ny - 1, -ny, -1)[:, None]
    theta = angle_between(di * geom.h, dj * geom.h, v_hat[0], v_hat[1])
    table = np.exp(-(theta**2) / (2.0 * sigma2))
    table[ny - 1, nx - 1] = 1.0
    return table


def candidate_kernel(table, geom, cand):
    """The full-grid hit kernel of a candidate cell: a positive-stride slice."""
    nx, ny = geom.nx, geom.ny
    ci, cj = cand
    return table[ny - 1 - cj : 2 * ny - 1 - cj, nx - 1 - ci : 2 * nx - 1 - ci]


@st.composite
def hit_table_cases(draw):
    """Grids of 1x1 to 25x25 cells with non-integer h and a non-zero origin,
    any wind direction, sigma2_hit from 1e-2 to 10 and a reading at a cell
    centre."""
    nx, ny = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    h = draw(st.floats(0.1, 10.0).filter(lambda h: not h.is_integer()))
    origin = draw(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)).filter(any)
    )
    geom = GridGeometry(nx, ny, h, origin)
    wind = draw(st.floats(0.0, 2.0 * math.pi))
    sigma2_hit = draw(st.floats(0.01, 10.0))
    cell = draw(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)))
    return geom, (math.cos(wind), math.sin(wind)), sigma2_hit, cell


class TestOneDetectionKernel:
    @settings(max_examples=200, deadline=None)
    @given(hit_table_cases())
    def test_hit_table_is_the_update_kernel(self, case):
        geom, v_hat, sigma2_hit, (ci, cj) = case
        table = _hit_kernel_table(geom, v_hat, sigma2_hit)
        assert table.tobytes() == closed_form_hit_table(geom, v_hat, sigma2_hit).tobytes()
        # a radius that covers the grid leaves no clamped cell, so the update's
        # likelihood is the kernel p_hit reads, up to the rounding of the
        # cell-centre differences off the origin
        params = PlannerParams(sigma2_hit=sigma2_hit, local_radius_cells=max(geom.nx, geom.ny))
        ctx = MeasurementContext(geom.cell_center(ci, cj), v_hat)
        weights = detection_likelihood(ctx, geom, params).weights
        kernel = candidate_kernel(table, geom, (ci, cj))
        assert np.allclose(weights, kernel, rtol=0, atol=1e-12)


class TestInformationGain:
    def test_point_mass_belief_gains_nothing(self):
        geom = GridGeometry(nx=9, ny=9, h=1.0)
        probs = np.zeros((9, 9))
        probs[4, 4] = 1.0
        belief = GridBelief(geom, probs)
        ctx = _ctx(geom, (2, 2))
        _, ig, _ = score_candidates(belief, (2, 2), ctx, PlannerParams(window_cells=3))
        assert np.abs(ig).max() <= 1e-12

    def test_uniform_likelihoods_give_zero_gain(self):
        # all cells strictly upwind in a single row: the detection kernel is
        # constant and no hit has happened, so both branches keep the prior
        geom = GridGeometry(nx=5, ny=1, h=1.0)
        belief = uniform_belief(geom)
        ctx = MeasurementContext(usv_pos=geom.cell_center(3, 0), v_hat=(1.0, 0.0))
        cells, ig, _ = score_candidates(belief, (3, 0), ctx, PlannerParams(window_cells=3))
        assert abs(ig[cells.index((4, 0))]) <= 1e-12

    def test_two_cell_hand_computation(self):
        # frozen from direct evaluation of the outcome-weighted KL formula
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        belief = GridBelief(geom, np.array([[0.5, 0.5]]))
        det = np.array([[1.0, 0.1]])
        miss = np.array([[1.0, 1.0]])
        p_ta = np.array([10 / 11, 1 / 11])
        expected = 0.5 * (
            p_ta[0] * math.log(p_ta[0] / 0.5) + p_ta[1] * math.log(p_ta[1] / 0.5)
        )
        ig = outcome_weighted_kl(belief, det, miss, p_hit=0.5)
        assert ig == pytest.approx(expected, rel=1e-12)
        assert ig == pytest.approx(0.194256, abs=1e-6)

    def test_degenerate_branch_contributes_zero(self):
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        belief = GridBelief(geom, np.array([[1.0, 0.0]]))
        det = np.array([[0.0, 1.0]])  # annihilates prior
        miss = np.array([[1.0, 1.0]])
        assert outcome_weighted_kl(belief, det, miss, p_hit=0.7) == 0.0

    def test_non_negative_over_random_cases(self):
        rng = np.random.default_rng(123)
        geom = GridGeometry(nx=6, ny=6, h=2.0)
        params = PlannerParams(window_cells=5, local_radius_cells=2)
        for _ in range(50):
            p = rng.random((6, 6)) ** 2
            belief = GridBelief(geom, p / p.sum())
            usv_cell = (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            last_hit = None
            if rng.random() < 0.5:
                last_hit = geom.cell_center(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            ctx = _ctx(geom, usv_cell, last_hit=last_hit)
            _, ig, _ = score_candidates(belief, usv_cell, ctx, params)
            assert ig.min() >= -1e-12


def brute_force_select(belief, usv_cell, ctx, params):
    """From-first-principles reimplementation of candidate scoring.

    Pure python loops; recomputes kernels, posteriors, KL terms and the
    tie-break ordering without touching the planner module.
    """
    geom = belief.geometry
    r = params.window_cells // 2
    ci, cj = usv_cell
    cands = []
    for j in range(max(cj - r, 0), min(cj + r, geom.ny - 1) + 1):
        for i in range(max(ci - r, 0), min(ci + r, geom.nx - 1) + 1):
            if (i, j) != (ci, cj):
                cands.append((i, j))

    def angle(ax, ay, bx, by):
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        return math.atan2(abs(cross), dot + 0.0)  # a -0.0 dot is a zero vector, not pi

    def likelihood_fields(cand):
        cx, cy = geom.cell_center(*cand)
        radius = params.local_radius_cells
        ilo, ihi = max(cand[0] - radius, 0), min(cand[0] + radius, geom.nx - 1)
        jlo, jhi = max(cand[1] - radius, 0), min(cand[1] + radius, geom.ny - 1)

        det = {}
        for j in range(geom.ny):
            for i in range(geom.nx):
                ii, jj = min(max(i, ilo), ihi), min(max(j, jlo), jhi)
                px, py = geom.cell_center(ii, jj)
                if (ii, jj) == cand:
                    det[(i, j)] = 1.0
                else:
                    th = angle(cx - px, cy - py, ctx.v_hat[0], ctx.v_hat[1])
                    det[(i, j)] = math.exp(-(th**2) / (2 * params.sigma2_hit))

        miss = {}
        no_direction = ctx.last_hit_pos is not None and math.hypot(
            ctx.last_hit_pos[0] - cx, ctx.last_hit_pos[1] - cy
        ) < 1e-12 * geom.h
        if ctx.last_hit_pos is None or no_direction:
            for j in range(geom.ny):
                for i in range(geom.nx):
                    miss[(i, j)] = 1.0
        else:
            rx, ry = ctx.last_hit_pos[0] - cx, ctx.last_hit_pos[1] - cy
            raw = {}
            for j in range(jlo, jhi + 1):
                for i in range(ilo, ihi + 1):
                    px, py = geom.cell_center(i, j)
                    ph = angle(px - cx, py - cy, rx, ry)
                    raw[(i, j)] = math.exp(-(ph**2) / (2 * params.sigma2_miss))
            raw[cand] = min(raw.values())
            for j in range(geom.ny):
                for i in range(geom.nx):
                    miss[(i, j)] = raw[(min(max(i, ilo), ihi), min(max(j, jlo), jhi))]
        return det, miss

    def posterior(prior, like):
        tot = sum(prior[(i, j)] * like[(i, j)] for (i, j) in prior)
        if tot <= 0:
            return None
        return {k: prior[k] * like[k] / tot for k in prior}

    prior = {
        (i, j): float(belief.probs[j, i]) for j in range(geom.ny) for i in range(geom.nx)
    }

    def kl(post, pri):
        total = 0.0
        for k, q in post.items():
            if q > 0:
                total += q * math.log(q / pri[k])
        return total

    scored = []
    for cand in cands:
        det, miss = likelihood_fields(cand)
        # predicted hit probability from the raw kernel over every cell
        p_hit = 0.0
        cx, cy = geom.cell_center(*cand)
        for (i, j), pb in prior.items():
            if (i, j) == cand:
                w = 1.0
            else:
                px, py = geom.cell_center(i, j)
                th = angle(cx - px, cy - py, ctx.v_hat[0], ctx.v_hat[1])
                w = math.exp(-(th**2) / (2 * params.sigma2_hit))
            p_hit += pb * params.detection_ceiling * w
        p_hit = min(max(p_hit, params.prob_clip), 1 - params.prob_clip)

        ig = 0.0
        post_a = posterior(prior, det)
        if post_a is not None:
            ig += p_hit * kl(post_a, prior)
        post_b = posterior(prior, miss)
        if post_b is not None:
            ig += (1 - p_hit) * kl(post_b, prior)
        scored.append((cand, ig))

    best = max(ig for _, ig in scored)
    tied = [(cand, ig) for cand, ig in scored if ig >= best - 1e-12]
    return min(
        tied,
        key=lambda t: (
            (t[0][0] - ci) ** 2 + (t[0][1] - cj) ** 2,
            t[0][1] * geom.nx + t[0][0],
        ),
    )[0]


class TestSelectWaypoint:
    def test_tie_break_on_point_mass(self):
        # every candidate scores zero: nearest then row-major wins
        geom = GridGeometry(nx=9, ny=9, h=1.0)
        probs = np.zeros((9, 9))
        probs[4, 4] = 1.0
        belief = GridBelief(geom, probs)
        params = PlannerParams(window_cells=3)
        choice = select_waypoint(belief, (4, 4), _ctx(geom, (4, 4)), params)
        assert choice == (4, 3)  # lowest flat index among the 4 nearest

    def test_corner_selection_stays_clipped(self):
        geom = GridGeometry(nx=20, ny=20, h=2.0)
        belief = uniform_belief(geom)
        params = PlannerParams(window_cells=11)
        cands = candidate_waypoints(geom, (0, 0), params)
        assert len(cands) == 35
        choice = select_waypoint(belief, (0, 0), _ctx(geom, (0, 0)), params)
        assert choice in cands

    def test_upwind_mass_attracts_selection(self):
        # belief concentrated upwind-left of the vehicle: the chosen waypoint
        # should sit in that quadrant of the window (brute-force checked too)
        geom = GridGeometry(nx=30, ny=30, h=5.0)
        probs = np.zeros((30, 30))
        probs[13:16, 13:16] = 1.0
        belief = GridBelief(geom, probs / probs.sum())
        ctx = MeasurementContext(
            usv_pos=geom.cell_center(20, 20),
            v_hat=V_HAT,
            last_hit_pos=geom.cell_center(18, 18),
        )
        params = PlannerParams(window_cells=11)
        choice = select_waypoint(belief, (20, 20), ctx, params)
        assert choice[0] < 20 and choice[1] < 20
        assert choice == brute_force_select(belief, (20, 20), ctx, params)

    def test_empty_candidates_raise(self):
        geom = GridGeometry(nx=1, ny=1, h=1.0)
        belief = uniform_belief(geom)
        with pytest.raises(ValueError):
            select_waypoint(belief, (0, 0), _ctx(geom, (0, 0)), PlannerParams(window_cells=3))

    def test_matches_brute_force_on_random_beliefs(self):
        rng = np.random.default_rng(777)
        for trial in range(50):
            params = random_kernel_params(rng, window_cells=5, prob_clip=1e-6)
            nx = int(rng.integers(3, 7))
            ny = int(rng.integers(3, 7))
            geom = GridGeometry(nx=nx, ny=ny, h=2.0)
            p = rng.random((ny, nx)) ** 2
            belief = GridBelief(geom, p / p.sum())
            usv_cell = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
            last_hit = None
            if rng.random() < 0.6:
                last_hit = geom.cell_center(
                    int(rng.integers(0, nx)), int(rng.integers(0, ny))
                )
            ctx = _ctx(geom, usv_cell, last_hit=last_hit)
            got = select_waypoint(belief, usv_cell, ctx, params)
            want = brute_force_select(belief, usv_cell, ctx, params)
            assert got == want, f"trial {trial} ({params}): planner {got} vs brute force {want}"
            # the mission's path: the scores computed once and passed in
            scores = score_candidates(belief, usv_cell, ctx, params)
            assert select_waypoint(belief, usv_cell, ctx, params, scores=scores) == want

    def test_determinism(self):
        geom = GridGeometry(nx=12, ny=10, h=3.0)
        rng = np.random.default_rng(55)
        p = rng.random((10, 12))
        belief = GridBelief(geom, p / p.sum())
        ctx = _ctx(geom, (6, 5), last_hit=geom.cell_center(8, 7))
        params = PlannerParams(window_cells=7)
        first = select_waypoint(belief, (6, 5), ctx, params)
        for _ in range(5):
            assert select_waypoint(belief, (6, 5), ctx, params) == first

    def test_scale_invariance_of_selection(self):
        # posteriors normalize away likelihood scaling, so scaling both
        # kernel fields cannot move the argmax; emulate by scaling variance
        # inputs identically and comparing ig values across a constant factor
        geom = GridGeometry(nx=8, ny=8, h=1.0)
        rng = np.random.default_rng(99)
        p = rng.random((8, 8))
        belief = GridBelief(geom, p / p.sum())
        det = rng.random((8, 8)) + 0.05
        miss = rng.random((8, 8)) + 0.05
        ig1 = outcome_weighted_kl(belief, det, miss, 0.4)
        ig2 = outcome_weighted_kl(belief, 7.3 * det, 0.002 * miss, 0.4)
        assert ig1 == pytest.approx(ig2, abs=1e-12)


class TestScoreCandidates:
    def test_scores_align_with_candidates(self):
        geom = GridGeometry(nx=10, ny=10, h=1.0)
        belief = uniform_belief(geom)
        params = PlannerParams(window_cells=3)
        cells, ig, p_hit = score_candidates(belief, (5, 5), _ctx(geom, (5, 5)), params)
        assert cells == candidate_waypoints(geom, (5, 5), params)
        for scores in (ig, p_hit):
            assert scores.dtype == np.float64 and scores.shape == (len(cells),)
        assert np.all((0 < p_hit) & (p_hit < 1))


def per_candidate_reference(belief, cand, ctx, params):
    """(p_hit, ig) of one candidate the direct way: both kernels on the full
    grid as if the vehicle stood at the candidate, and per branch the KL of
    its posterior from the belief, 0 for a degenerate one.

    Cells of one likelihood weight w share the ratio post / prior = w / Z, so
    the KL is summed over the groups of equal weight: with m the prior mass
    of a group, post = m * w / Z and KL = sum(post * (log post - log m)).
    Summing a group's masses before multiplying keeps a small mass from
    underflowing cell by cell against a subnormal weight (3e-9 * 6e-316 is
    0). The grouping is by value alone, so it knows nothing of the planner's
    clamp regions. The log of the ratio is a difference of logs, which cannot
    overflow on a subnormal prior mass."""
    geom = belief.geometry
    table = _hit_kernel_table(geom, tuple(ctx.v_hat), params.sigma2_hit)
    kernel = candidate_kernel(table, geom, cand)
    p_hit = params.detection_ceiling * float(np.sum(belief.probs * kernel))
    p_hit = min(max(p_hit, params.prob_clip), 1.0 - params.prob_clip)
    cand_ctx = replace(ctx, usv_pos=geom.cell_center(*cand))
    ig = 0.0
    for weight, likelihood in ((p_hit, detection_likelihood), (1.0 - p_hit, miss_likelihood)):
        levels, group = np.unique(
            likelihood(cand_ctx, geom, params).weights.ravel(), return_inverse=True
        )
        mass = np.bincount(group, weights=belief.probs.ravel(), minlength=len(levels))
        post = mass * levels
        z = post.sum()
        if not z > 0:  # a degenerate update keeps the prior
            continue
        post /= z
        live = post > 0
        ig += weight * float(np.sum(post[live] * (np.log(post[live]) - np.log(mass[live]))))
    return p_hit, ig


@st.composite
def scoring_cases(draw):
    """Flat, peaked (p**20), partly zero and point-mass beliefs on grids down
    to one row or column, with non-integer h and a non-zero origin; kernel
    variances from 1e-2 to 10 and an underflowing 1e-9; radii from 0 to past
    the grid, and one no int64 holds; no last hit, one at a cell centre (possibly a candidate's) or
    one off the lattice."""
    nx = draw(st.integers(1, 16))
    ny = draw(st.integers(1, 16).filter(lambda ny: nx * ny > 1))
    h = draw(st.floats(0.1, 10.0).filter(lambda h: not h.is_integer()))
    origin = draw(
        st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)).filter(any)
    )
    geom = GridGeometry(nx, ny, h, origin)
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=geom.k, max_size=geom.k)))
    p = p.reshape(ny, nx) ** draw(st.sampled_from([1, 20]))
    shape = draw(st.sampled_from(["dense", "zero block", "point mass"]))
    if shape == "zero block":
        (i0, j0), (i1, j1) = draw(cell), draw(cell)
        p[min(j0, j1) : max(j0, j1) + 1, min(i0, i1) : max(i0, i1) + 1] = 0.0
    if shape == "point mass" or not p.sum() > 0:
        i, j = draw(cell)
        p = np.zeros((ny, nx))
        p[j, i] = 1.0
    belief = GridBelief(geom, p / p.sum())
    variance = st.one_of(st.floats(1e-2, 10.0), st.just(1e-9))
    params = PlannerParams(
        window_cells=draw(st.sampled_from([3, 5, 7])),
        sigma2_hit=draw(variance),
        sigma2_miss=draw(variance),
        local_radius_cells=draw(
            st.one_of(st.integers(0, max(nx, ny) + 3), st.just(10**20))
        ),
    )
    (x0, x1), (y0, y1) = geom.x_bounds, geom.y_bounds
    off_lattice = st.tuples(st.floats(x0, x1), st.floats(y0, y1))
    usv_cell = draw(cell)
    wind = draw(st.floats(0.0, 2.0 * math.pi))
    ctx = MeasurementContext(
        usv_pos=geom.cell_center(*usv_cell),
        v_hat=(math.cos(wind), math.sin(wind)),
        last_hit_pos=draw(
            st.one_of(st.none(), cell.map(lambda c: geom.cell_center(*c)), off_lattice)
        ),
    )
    return belief, usv_cell, ctx, params


def reversed_slice_p_hit(belief, cells, v_hat, params):
    """p_hit in the earlier layout: a table whose entry [dj + ny - 1, di + nx - 1]
    holds offset (di, dj), read per candidate through a reversed slice."""
    geom = belief.geometry
    nx, ny = geom.nx, geom.ny
    bx = np.arange(nx - 1, -nx, -1)[None] * geom.h
    by = np.arange(ny - 1, -ny, -1)[None] * geom.h
    own = (ny - 1, nx - 1)
    table = detection_block_weights([0.0], [0.0], bx, by, own, v_hat, params.sigma2_hit)[0]
    product = np.empty_like(belief.probs)
    sums = np.empty(len(cells))
    for c, (ci, cj) in enumerate(cells):
        np.multiply(belief.probs, table[cj : cj + ny, ci : ci + nx][::-1, ::-1], out=product)
        sums[c] = product.sum()
    return np.clip(params.detection_ceiling * sums, params.prob_clip, 1.0 - params.prob_clip)


class TestBatchedScoring:
    @settings(max_examples=300, deadline=None)
    @given(
        hit_table_cases(),
        st.one_of(st.floats(0.01, 10.0), st.just(1e-9)),
        st.floats(0.01, 1.0),
        st.sampled_from([1, 20]),
        st.integers(0, 2**32 - 1),
    )
    def test_p_hit_equals_the_reversed_slice_form(self, case, sigma2_hit, ceiling, power, seed):
        # every cell of the grid is a candidate, so every slice is read
        geom, v_hat, *_ = case
        p = np.random.default_rng(seed).random((geom.ny, geom.nx)) ** power
        belief = GridBelief(geom, p / p.sum())
        params = PlannerParams(sigma2_hit=sigma2_hit, detection_ceiling=ceiling)
        cells = [(i, j) for j in range(geom.ny) for i in range(geom.nx)]
        got = _hit_probabilities(belief, cells, v_hat, params)
        assert got.tobytes() == reversed_slice_p_hit(belief, cells, v_hat, params).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_per_candidate_reference(self, case):
        belief, usv_cell, ctx, params = case
        for cell, got_ig, got_p_hit in zip(*score_candidates(belief, usv_cell, ctx, params)):
            p_hit, ig = per_candidate_reference(belief, cell, ctx, params)
            assert got_p_hit == p_hit, cell
            # the tie tolerance of select_waypoint
            assert abs(got_ig - ig) <= 1e-12, (cell, got_ig, ig)

    def test_chunked_scores_match_one_pass(self, monkeypatch):
        # a radius past the grid makes every block the whole grid, so a
        # budget below the cell count scores one candidate per chunk
        geom = GridGeometry(9, 7, 1.3, (0.4, -2.0))
        probs = np.random.default_rng(3).random((7, 9)) ** 20
        belief = GridBelief(geom, probs / probs.sum())
        params = PlannerParams(window_cells=7, local_radius_cells=12)
        ctx = _ctx(geom, (4, 3), last_hit=geom.cell_center(1, 5))
        cells, *one_pass = score_candidates(belief, (4, 3), ctx, params)
        monkeypatch.setattr(planner, "_BLOCK_ELEMENTS", 1)
        chunked_cells, *chunked = score_candidates(belief, (4, 3), ctx, params)
        assert chunked_cells == cells
        for got, want in zip(chunked, one_pass):
            assert got.tobytes() == want.tobytes()

    def test_memory_stays_bounded_for_a_wide_window_past_the_grid(self):
        # 2,399 candidates whose blocks are the whole 60x40 grid: one
        # (C, ny, nx) float array would take 46 MB
        geom = GridGeometry(60, 40, 1.0)
        probs = np.random.default_rng(0).random((40, 60))
        belief = GridBelief(geom, probs / probs.sum())
        params = PlannerParams(window_cells=121, local_radius_cells=60)
        ctx = _ctx(geom, (30, 20), last_hit=geom.cell_center(0, 0))
        tracemalloc.start()
        try:
            cells, _, _ = score_candidates(belief, (30, 20), ctx, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == geom.k - 1
        # a few float arrays of one chunk's size: O(grid), far below 46 MB
        assert peak < 16 * 8 * max(planner._BLOCK_ELEMENTS, geom.k)


class TestScoreMemory:
    """score_candidates with a memory returns the bits of memory-less scoring."""

    @staticmethod
    def _counted_score(monkeypatch):
        calls = []
        score = planner._score

        def counted(*args):
            calls.append(args[1])
            return score(*args)

        monkeypatch.setattr(planner, "_score", counted)
        return calls

    def test_scores_equal_memoryless_scoring(self, monkeypatch):
        geom = GridGeometry(12, 9, 2.5, (1.0, -3.0))
        rng = np.random.default_rng(5)
        probs = rng.random((9, 12))
        belief = GridBelief(geom, probs / probs.sum())
        # a new object with the same bits
        copy = GridBelief(geom, belief.probs.copy())
        probs = rng.random((9, 12))
        other = GridBelief(geom, probs / probs.sum())
        params = PlannerParams(window_cells=5, local_radius_cells=3)
        hit = geom.cell_center(10, 1)
        # (belief, cell, last_hit_pos, whether it is scored)
        steps = [
            (belief, (4, 4), None, True),
            (belief, (4, 4), None, False),
            (belief, (6, 3), None, True),
            (belief, (4, 4), None, False),
            (copy, (4, 4), None, True),
            # the copy took the memory's one belief
            (belief, (6, 3), None, True),
            (belief, (6, 3), hit, True),
            (belief, (6, 3), None, True),
            (other, (6, 3), None, True),
            (other, (6, 3), None, False),
        ]
        want = [
            score_candidates(b, cell, _ctx(geom, cell, last_hit), params)
            for b, cell, last_hit, _ in steps
        ]
        calls = self._counted_score(monkeypatch)
        memory = {}
        for (b, cell, last_hit, scored), (want_cells, *want_scores) in zip(steps, want):
            before = len(calls)
            cells, *scores = score_candidates(
                b, cell, _ctx(geom, cell, last_hit), params, memory=memory
            )
            assert len(calls) - before == int(scored)
            assert cells == want_cells
            for got, expected in zip(scores, want_scores):
                assert got.tobytes() == expected.tobytes()

    def test_returned_arrays_are_read_only(self):
        geom = GridGeometry(10, 10, 1.0)
        belief = uniform_belief(geom)
        params = PlannerParams(window_cells=3)
        memory = {}
        for _ in range(2):
            _, ig, p_hit = score_candidates(belief, (5, 5), _ctx(geom, (5, 5)), params, memory)
            assert not ig.flags.writeable and not p_hit.flags.writeable
            with pytest.raises(ValueError):
                ig[0] = 1.0
