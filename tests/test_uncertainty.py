import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plumetrack import (
    GridBelief,
    GridGeometry,
    LikelihoodField,
    bayes_update,
    marginal,
    sci_widths,
    smallest_credible_interval,
    termination_check,
    uniform_belief,
)
from plumetrack.uncertainty import MarginalDist

PAPER_GRID = GridGeometry(nx=100, ny=50, h=5.0)


def exhaustive_sci(probs, gamma):
    """Independent O(k^2) oracle: enumerate every contiguous interval and
    pick the minimum by (length, -mass, lower index)."""
    prefix = np.concatenate(([np.longdouble(0)], np.cumsum(probs.astype(np.longdouble))))
    best = None
    k = len(probs)
    for lo in range(k):
        for hi in range(lo, k):
            mass = prefix[hi + 1] - prefix[lo]
            if mass >= np.longdouble(gamma):
                key = (hi - lo + 1, -mass, lo)
                if best is None or key < best:
                    best = key
    assert best is not None
    length, neg_mass, lo = best
    return lo, lo + length - 1, float(-neg_mass)


def _dist(probs):
    p = np.asarray(probs, dtype=float)
    return MarginalDist(p / p.sum(), 1.0)


class TestMarginal:
    def test_uniform_marginals(self):
        b = uniform_belief(PAPER_GRID)
        mx = marginal(b, "x")
        my = marginal(b, "y")
        assert mx.probs.shape == (100,)
        assert my.probs.shape == (50,)
        assert np.allclose(mx.probs, 1 / 100)
        assert np.allclose(my.probs, 1 / 50)

    def test_point_mass_marginal(self):
        probs = np.zeros((50, 100))
        probs[20, 40] = 1.0
        b = GridBelief(PAPER_GRID, probs)
        my = marginal(b, "y")
        assert my.probs[20] == 1.0
        assert my.probs.sum() == 1.0

    def test_column_sums(self):
        probs = np.zeros((50, 100))
        probs[:, 5] = 0.3 / 50
        probs[:, 9] = 0.7 / 50
        b = GridBelief(PAPER_GRID, probs)
        mx = marginal(b, "x")
        assert mx.probs[5] == pytest.approx(0.3)
        assert mx.probs[9] == pytest.approx(0.7)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            marginal(uniform_belief(PAPER_GRID), "z")


class TestSmallestCredibleInterval:
    def test_point_mass(self):
        p = np.zeros(20)
        p[7] = 1.0
        assert smallest_credible_interval(_dist(p), 0.99) == (7, 7)

    def test_uniform_hundred(self):
        p = np.full(100, 0.01)
        result = smallest_credible_interval(_dist(p), 0.99)
        lo, hi, _ = exhaustive_sci(p, 0.99)
        assert result == (lo, hi)
        assert result == (0, 98)

    def test_four_cell_example(self):
        p = np.array([0.05, 0.45, 0.45, 0.05])
        result = smallest_credible_interval(_dist(p), 0.9)
        lo, hi, mass = exhaustive_sci(p, 0.9)
        assert result == (lo, hi)
        assert result == (1, 2)
        assert mass == pytest.approx(0.90)

    def test_equal_mass_tie_goes_to_lowest_index(self):
        p = np.array([0.24, 0.26, 0.0, 0.26, 0.24])
        result = smallest_credible_interval(_dist(p), 0.5)
        assert result == exhaustive_sci(p, 0.5)[:2]
        assert result == (0, 1)

    def test_equal_length_heavier_mass_wins(self):
        # both length-2 intervals (0,1) and (3,4) reach gamma; (3,4) is heavier
        p = np.array([0.24, 0.26, 0.0, 0.26, 0.27])
        p = p / p.sum()
        result = smallest_credible_interval(_dist(p), 0.48)
        lo, hi, _ = exhaustive_sci(p, 0.48)
        assert result == (lo, hi) == (3, 4)

    def test_matches_oracle_on_random_distributions(self):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            k = int(rng.integers(1, 60))
            p = rng.random(k) ** 3
            p /= p.sum()
            gamma = float(rng.choice([0.5, 0.9, 0.99]))
            got = smallest_credible_interval(_dist(p), gamma)
            lo, hi, _ = exhaustive_sci(p, gamma)
            assert got == (lo, hi), f"trial {trial}: got {got}, oracle {(lo, hi)}"

    def test_coverage_always_reached(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 80))
            p = rng.random(k)
            p /= p.sum()
            for gamma in (0.5, 0.9, 0.99):
                lo, hi = smallest_credible_interval(_dist(p), gamma)
                assert p[lo : hi + 1].sum() >= gamma - 1e-12

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = rng.random(40)
            p /= p.sum()
            widths = []
            for gamma in (0.3, 0.5, 0.7, 0.9, 0.99):
                lo, hi = smallest_credible_interval(_dist(p), gamma)
                widths.append(hi - lo)
            assert all(a <= b for a, b in zip(widths, widths[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 5e-324, 1.0, 2.0, 3.0]), min_size=1, max_size=40).filter(
            lambda w: max(w) >= 1.0
        ),
        st.sampled_from([0.25, 0.5, 0.75, 0.9, 0.99]) | st.floats(0.01, 0.99),
    )
    # length ties resolved by mass, equal masses by the lowest index, with
    # zero and subnormal masses in and around the intervals
    @example([2.0, 2.0, 0.0, 3.0, 3.0], 0.35)
    @example([1.0, 0.0, 1.0], 0.5)
    @example([5e-324, 1.0, 0.0, 1.0, 5e-324], 0.5)
    @example([0.0, 5e-324, 1.0, 5e-324, 0.0], 0.99)
    def test_matches_oracle_on_ties_and_tiny_masses(self, weights, gamma):
        # whole weights repeat, so many intervals tie exactly; zero and
        # 5e-324 are kept as masses, since dividing them by the total would
        # round the subnormal to zero
        w = np.array(weights)
        heavy = w >= 1.0
        p = np.where(heavy, w / w[heavy].sum(), w)
        got = smallest_credible_interval(MarginalDist(p, 1.0), gamma)
        lo, hi, _ = exhaustive_sci(p, gamma)
        assert got == (lo, hi)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            smallest_credible_interval(_dist(np.ones(4)), 0.0)
        with pytest.raises(ValueError):
            smallest_credible_interval(_dist(np.ones(4)), 1.0)


class TestSciWidths:
    def test_point_mass_width_is_one_cell(self):
        probs = np.zeros((50, 100))
        probs[25, 50] = 1.0
        assert sci_widths(GridBelief(PAPER_GRID, probs), 0.99) == (5.0, 5.0)

    def test_two_adjacent_columns_give_tau(self):
        probs = np.zeros((50, 100))
        probs[25, 50] = 0.5
        probs[25, 51] = 0.5
        wx, wy = sci_widths(GridBelief(PAPER_GRID, probs), 0.99)
        assert wx == 10.0
        assert wy == 5.0

    def test_uniform_belief_widths(self):
        # oracle on the uniform marginals: 99 of 100 columns and all 50 rows
        wx, wy = sci_widths(uniform_belief(PAPER_GRID), 0.99)
        lo_x, hi_x, _ = exhaustive_sci(np.full(100, 0.01), 0.99)
        lo_y, hi_y, _ = exhaustive_sci(np.full(50, 0.02), 0.99)
        assert wx == (hi_x - lo_x + 1) * 5.0 == 495.0
        assert wy == (hi_y - lo_y + 1) * 5.0 == 250.0

    def test_point_mask_update_never_widens(self):
        rng = np.random.default_rng(31)
        geom = GridGeometry(nx=20, ny=12, h=5.0)
        for _ in range(25):
            p = rng.random((12, 20))
            b = GridBelief(geom, p / p.sum())
            w_before = sci_widths(b, 0.9)
            mask = np.zeros((12, 20))
            mask[rng.integers(0, 12), rng.integers(0, 20)] = 1.0
            updated = bayes_update(b, LikelihoodField(geom, mask))
            w_after = sci_widths(updated, 0.9)
            assert w_after[0] <= w_before[0]
            assert w_after[1] <= w_before[1]


class TestTermination:
    def test_threshold_met(self):
        assert termination_check((10.0, 10.0), 10.0) is True

    def test_one_axis_over(self):
        assert termination_check((10.0, 15.0), 10.0) is False

    def test_both_under(self):
        assert termination_check((5.0, 5.0), 10.0) is True

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            termination_check((1.0, 1.0), 0.0)
