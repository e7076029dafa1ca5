import math

import numpy as np
import pytest

from plumetrack import (
    GridBelief,
    GridGeometry,
    LikelihoodField,
    MeasurementContext,
    PlannerParams,
    candidate_waypoints,
    expected_information_gain,
    information_gain,
    predicted_hit_probability,
    select_waypoint,
    uniform_belief,
)
from plumetrack.planner import score_candidates

V_HAT = (1 / math.sqrt(2), 1 / math.sqrt(2))


def _ctx(geom, usv_cell, last_hit=None):
    return MeasurementContext(
        usv_pos=geom.cell_center(*usv_cell), v_hat=V_HAT, last_hit_pos=last_hit
    )


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
        p = predicted_hit_probability(belief, (10, 10), V_HAT, params)
        assert p == 1.0 - params.prob_clip

    def test_point_mass_downwind(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        probs = np.zeros((21, 21))
        probs[15, 15] = 1.0  # downwind of candidate (10,10): theta = pi
        belief = GridBelief(geom, probs)
        p = predicted_hit_probability(belief, (10, 10), V_HAT, PlannerParams(sigma2_hit=1.0))
        assert p == pytest.approx(math.exp(-(math.pi**2) / 2), rel=1e-9)

    def test_split_belief_mixes_kernel_values(self):
        geom = GridGeometry(nx=21, ny=21, h=1.0)
        probs = np.zeros((21, 21))
        probs[5, 5] = 0.5  # upwind: theta = 0
        probs[5, 15] = 0.5  # perpendicular-ish: theta = pi/2 for diagonal wind
        belief = GridBelief(geom, probs)
        p = predicted_hit_probability(belief, (10, 10), V_HAT, PlannerParams(sigma2_hit=1.0))
        expected = 0.5 * 1.0 + 0.5 * math.exp(-((math.pi / 2) ** 2) / 2)
        assert p == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.6456, abs=5e-5)

    def test_detection_ceiling_scales(self):
        geom = GridGeometry(nx=11, ny=11, h=1.0)
        probs = np.zeros((11, 11))
        probs[2, 2] = 1.0
        belief = GridBelief(geom, probs)
        p_full = predicted_hit_probability(belief, (7, 7), V_HAT, PlannerParams())
        p_half = predicted_hit_probability(
            belief, (7, 7), V_HAT, PlannerParams(detection_ceiling=0.5)
        )
        assert p_half == pytest.approx(0.5, abs=1e-6)
        assert p_full == pytest.approx(1.0, abs=1e-5)


class TestInformationGain:
    def test_point_mass_belief_gains_nothing(self):
        geom = GridGeometry(nx=9, ny=9, h=1.0)
        probs = np.zeros((9, 9))
        probs[4, 4] = 1.0
        belief = GridBelief(geom, probs)
        ctx = _ctx(geom, (2, 2))
        for cand in candidate_waypoints(geom, (2, 2), PlannerParams(window_cells=3)):
            score = expected_information_gain(belief, cand, ctx, PlannerParams(window_cells=3))
            assert abs(score.ig) <= 1e-12

    def test_uniform_likelihoods_give_zero_gain(self):
        # all cells strictly upwind in a single row: the detection kernel is
        # constant and no hit has happened, so both branches keep the prior
        geom = GridGeometry(nx=5, ny=1, h=1.0)
        belief = uniform_belief(geom)
        ctx = MeasurementContext(usv_pos=geom.cell_center(3, 0), v_hat=(1.0, 0.0))
        score = expected_information_gain(belief, (4, 0), ctx, PlannerParams(window_cells=3))
        assert abs(score.ig) <= 1e-12

    def test_two_cell_hand_computation(self):
        # frozen from direct evaluation of the outcome-weighted KL formula
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        belief = GridBelief(geom, np.array([[0.5, 0.5]]))
        det = LikelihoodField(geom, np.array([[1.0, 0.1]]))
        miss = LikelihoodField(geom, np.array([[1.0, 1.0]]))
        p_ta = np.array([10 / 11, 1 / 11])
        expected = 0.5 * (
            p_ta[0] * math.log(p_ta[0] / 0.5) + p_ta[1] * math.log(p_ta[1] / 0.5)
        )
        ig = information_gain(belief, det, miss, p_hit=0.5)
        assert ig == pytest.approx(expected, rel=1e-12)
        assert ig == pytest.approx(0.194256, abs=1e-6)

    def test_degenerate_branch_contributes_zero(self):
        geom = GridGeometry(nx=2, ny=1, h=1.0)
        belief = GridBelief(geom, np.array([[1.0, 0.0]]))
        det = LikelihoodField(geom, np.array([[0.0, 1.0]]))  # annihilates prior
        miss = LikelihoodField(geom, np.array([[1.0, 1.0]]))
        assert information_gain(belief, det, miss, p_hit=0.7) == 0.0

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
            for cand in candidate_waypoints(geom, usv_cell, params):
                assert expected_information_gain(belief, cand, ctx, params).ig >= -1e-12


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
        ig1 = information_gain(
            belief, LikelihoodField(geom, det), LikelihoodField(geom, miss), 0.4
        )
        ig2 = information_gain(
            belief, LikelihoodField(geom, 7.3 * det), LikelihoodField(geom, 0.002 * miss), 0.4
        )
        assert ig1 == pytest.approx(ig2, abs=1e-12)


class TestScoreCandidates:
    def test_scores_align_with_candidates(self):
        geom = GridGeometry(nx=10, ny=10, h=1.0)
        belief = uniform_belief(geom)
        params = PlannerParams(window_cells=3)
        scores = score_candidates(belief, (5, 5), _ctx(geom, (5, 5)), params)
        assert [s.cell for s in scores] == candidate_waypoints(geom, (5, 5), params)
        assert all(0 < s.p_hit < 1 for s in scores)
