import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plumetrack import (
    FlowSpec,
    GridGeometry,
    SourceSpec,
    init_field,
    max_stable_dt,
    run_warmup,
    sample_concentration,
    step,
)
import plumetrack.field as field_module
from plumetrack.field import ScalarField, clock_stalls, peak_bound
from plumetrack.scenario import bundled_scenario_names, parse_scenario

PAPER_GRID = GridGeometry(nx=100, ny=50, h=5.0)
NO_SOURCE = SourceSpec(position=(0.0, 0.0), rate=0.0)


def test_init_field_zero():
    f = init_field(PAPER_GRID, 0.0)
    assert f.values.shape == (50, 100)
    assert f.values.size == 5000
    assert np.all(f.values == 0.0)
    assert f.time == 0.0


def test_cell_centres_span_workspace():
    assert PAPER_GRID.cell_center(0, 0) == (-247.5, -122.5)
    assert PAPER_GRID.cell_center(99, 49) == (247.5, 122.5)
    assert PAPER_GRID.x_bounds == (-250.0, 250.0)
    assert PAPER_GRID.y_bounds == (-125.0, 125.0)


def test_init_field_rejects_negative():
    with pytest.raises(ValueError):
        init_field(PAPER_GRID, -1.0)


def test_max_stable_dt_advection_bound():
    flow = FlowSpec(v=(1.2247, 1.2247), diffusivity=0.0)
    expected = 5.0 / (abs(1.2247) + abs(1.2247))
    assert max_stable_dt(flow, PAPER_GRID) == pytest.approx(expected, rel=1e-12)


def test_max_stable_dt_no_transport():
    flow = FlowSpec(v=(0.0, 0.0), diffusivity=0.0)
    assert max_stable_dt(flow, PAPER_GRID) == math.inf


def test_max_stable_dt_molecular_diffusion_negligible():
    # at h = 5 m the advection bound dominates the molecular-diffusivity bound
    adv_only = max_stable_dt(FlowSpec((1.2247, 1.2247), 0.0), PAPER_GRID)
    both = max_stable_dt(FlowSpec((1.2247, 1.2247), 4.9e-10), PAPER_GRID)
    assert both == pytest.approx(adv_only, rel=1e-10)
    diff_bound = 5.0**2 / (4 * 4.9e-10)
    assert diff_bound > adv_only


def test_step_no_dynamics_advances_time_only():
    f = init_field(PAPER_GRID, 3.0)
    g = step(f, FlowSpec((0.0, 0.0), 0.0), NO_SOURCE, dt=1.0)
    assert np.array_equal(g.values, f.values)
    assert g.time == 1.0


def test_step_uniform_field_is_fixed_point():
    # zero-gradient boundaries keep a constant field constant under any flow
    f = init_field(PAPER_GRID, 7.5)
    flow = FlowSpec((1.2247, 1.2247), 4.9e-10)
    g = step(f, flow, NO_SOURCE, dt=1.0)
    assert np.allclose(g.values, 7.5, rtol=1e-12, atol=0)


@pytest.mark.parametrize("v", [(0.0, 0.0), (1.2247, 1.2247)])
@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.0, -1.0])
def test_step_rejects_dt_not_finite_and_positive(v, dt):
    # without transport the stability bound is infinite, so only this test
    # stands between a bad dt and a NaN, frozen or infinite-time field
    f = init_field(PAPER_GRID, 1.0)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        step(f, FlowSpec(v, 0.0), NO_SOURCE, dt)


def test_warmup_rejects_non_finite_duration():
    f = init_field(PAPER_GRID, 0.0)
    with pytest.raises(ValueError, match="finite"):
        run_warmup(f, FlowSpec((1.0, 0.0)), NO_SOURCE, math.nan, dt=1.0)


def test_warmup_whose_clock_stalls_raises_before_a_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("the warm-up took a step")

    monkeypatch.setattr(field_module, "step", no_step)
    f = init_field(GridGeometry(4, 3, 1.0), 0.0)
    # 1e17 + 1.0 == 1e17; so is 2**53 + 1.0, a tie rounded to even
    for duration in (1e17, 2.0**53 + 2):
        with pytest.raises(ValueError, match="never ends"):
            run_warmup(f, FlowSpec((1.0, 0.0)), NO_SOURCE, duration, dt=1.0)


def test_clock_stalls_at_the_float_spacing():
    assert not clock_stalls(2.0**53, 1.0)  # the integers below 2**53 are floats
    assert clock_stalls(2.0**53 + 2, 1.0)
    assert clock_stalls(1e17, 1.0) and not clock_stalls(1e17, 16.0)
    assert not clock_stalls(0.0, 5e-324) and not clock_stalls(300.0, 1e-9)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-1074, 1000),
    st.integers(1, 64),
    st.integers(-3, 3),
    st.integers(1, 200),
    st.floats(0.25, 4.0),
)
def test_a_clock_that_does_not_stall_reaches_its_target(exponent, back, shift, spacings, scale):
    # start a few spacings below a power of two, where the spacing doubles,
    # with dt near half a spacing either side of the power
    edge = math.ldexp(1.0, exponent)
    t = max(edge - back * math.ulp(edge) / 2, 0.0)
    dt = math.ldexp(scale, shift) * math.ulp(edge) / 2
    target = t + spacings * math.ulp(edge)
    assume(t < target < math.inf and dt > 0)
    if clock_stalls(target, dt):
        return
    start, steps = t, 0
    for _ in range(4 * (back + spacings) + 8):
        if not t < target:
            break
        assert t + dt > t
        t += dt
        steps += 1
    assert not t < target
    # each step advances by at least dt / 2, as peak_bound counts them
    assert steps <= 2 * (target - start) / dt + 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([0.25, 1.0, 5.0]),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.floats(0.0, 1.0),
    st.sampled_from([1.0, 0.5, 0.1]),
    st.floats(1e-3, 1e3),
    st.integers(1, 40),
)
def test_no_cell_exceeds_the_peak_bound(nx, ny, h, v, lam, fraction, rate, steps):
    # within the stability bound a step is a convex combination plus one
    # injection, at its limit too
    geom = GridGeometry(nx, ny, h)
    flow = FlowSpec(v, lam)
    dt = fraction * min(max_stable_dt(flow, geom), 10.0)
    source = SourceSpec(geom.cell_center(nx // 2, ny // 2), rate)
    field = run_warmup(init_field(geom), flow, source, steps * dt, dt)
    assert field.values.max() <= peak_bound(source, h, dt, steps * dt) < math.inf


def test_peak_bound_without_injection_is_zero():
    # however many steps: their count overflows here
    assert peak_bound(NO_SOURCE, 1.0, 5e-324, 1e300) == 0.0


def test_nan_concentration_rejected():
    with pytest.raises(ValueError):
        init_field(PAPER_GRID, math.nan)
    values = np.zeros((PAPER_GRID.ny, PAPER_GRID.nx))
    for bad in (np.full_like(values, math.nan), np.where(np.eye(50, 100) > 0, math.nan, values)):
        with pytest.raises(ValueError, match="non-negative"):
            ScalarField(PAPER_GRID, bad)


def test_step_rejects_unstable_dt():
    flow = FlowSpec((1.2247, 1.2247), 0.0)
    f = init_field(PAPER_GRID, 0.0)
    bound = max_stable_dt(flow, PAPER_GRID)
    with pytest.raises(ValueError):
        step(f, flow, NO_SOURCE, dt=bound * 1.01)


def _gaussian_blob(geometry, centre, sigma, mass=1.0):
    X, Y = geometry.cell_centers()
    g = np.exp(-((X - centre[0]) ** 2 + (Y - centre[1]) ** 2) / (2 * sigma**2))
    g *= mass / (g.sum() * geometry.h**2)
    return g


def test_blob_advection_matches_exact_translation():
    # independent oracle: the analytic blob translated by v * T and sampled
    # on the cell centres; the upwind scheme must stay within 15% L1 error
    geom = GridGeometry(nx=120, ny=60, h=5.0)
    sigma, T, v = 20.0, 50.0, (1.0, 0.0)
    blob = _gaussian_blob(geom, (-100.0, 0.0), sigma)
    f = ScalarField(geom, blob, 0.0)
    flow = FlowSpec(v, 0.0)
    dt = 2.5
    for _ in range(int(T / dt)):
        f = step(f, flow, NO_SOURCE, dt)
    oracle = _gaussian_blob(geom, (-100.0 + v[0] * T, 0.0), sigma)
    mass = blob.sum() * geom.h**2
    l1 = np.abs(f.values - oracle).sum() * geom.h**2
    assert l1 <= 0.15 * mass


def test_blob_advection_error_shrinks_with_grid_refinement():
    sigma, T, v = 20.0, 50.0, (1.0, 0.0)
    errors = []
    for h in (10.0, 5.0, 2.5):
        geom = GridGeometry(nx=int(600 / h), ny=int(300 / h), h=h)
        blob = _gaussian_blob(geom, (-100.0, 0.0), sigma)
        f = ScalarField(geom, blob, 0.0)
        for _ in range(int(T)):
            f = step(f, FlowSpec(v, 0.0), NO_SOURCE, dt=1.0)
        oracle = _gaussian_blob(geom, (-100.0 + v[0] * T, 0.0), sigma)
        errors.append(np.abs(f.values - oracle).sum() * geom.h**2)
    assert errors[0] > errors[1] > errors[2]


# An 81x81 grid with the source in its centre cell, 40 cells from every wall
MASS_GRID = GridGeometry(nx=81, ny=81, h=2.0)
MASS_SOURCE = SourceSpec(position=(0.0, 0.0), rate=1.3)
MASS_FLOW = FlowSpec((0.8, -0.5), 0.1)


def test_open_boundary_mass_after_each_step():
    # advection and diffusion each spread mass by at most one cell per step
    # and axis, so 19 steps from a zero field reach no wall: the total mass
    # is what the source injected
    dt = 0.9 * max_stable_dt(MASS_FLOW, MASS_GRID)
    f = init_field(MASS_GRID, 0.0)
    for n in range(1, 20):
        f = step(f, MASS_FLOW, MASS_SOURCE, dt)
        assert f.total_mass() == pytest.approx(n * MASS_SOURCE.rate * dt, rel=1e-9)


def test_open_boundary_outflow_leaves_the_domain():
    # the plume reaches the downwind walls, x = 81 m at 0.8 m/s and y = -81 m
    # at 0.5 m/s, long before t = 600 s, and what crosses them is gone
    f = run_warmup(init_field(MASS_GRID, 0.0), MASS_FLOW, MASS_SOURCE, 600.0, dt=1.0)
    assert f.values[:, -1].max() > 0 and f.values[0, :].max() > 0
    assert f.total_mass() < 0.5 * MASS_SOURCE.rate * f.time


def test_positivity_random_stable_steps():
    rng = np.random.default_rng(1234)
    geom = GridGeometry(nx=20, ny=16, h=2.0)
    f = ScalarField(geom, rng.random((16, 20)), 0.0)
    for k in range(200):
        flow = FlowSpec(tuple(rng.uniform(-2, 2, size=2)), float(rng.uniform(0, 0.5)))
        dt = float(rng.uniform(0.1, 1.0)) * max_stable_dt(flow, geom)
        f = step(f, flow, NO_SOURCE, dt)
        assert f.values.min() >= 0.0


def test_step_determinism():
    geom = GridGeometry(nx=25, ny=25, h=4.0)
    rng = np.random.default_rng(7)
    start = rng.random((25, 25))
    flow = FlowSpec((0.9, -0.4), 0.2)
    src = SourceSpec((0.0, 0.0), 1.0)

    def run():
        f = ScalarField(geom, start.copy(), 0.0)
        for _ in range(20):
            f = step(f, flow, src, 0.5)
        return f.values

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_warmup_zero_duration_is_identity():
    f = init_field(PAPER_GRID, 2.0)
    g = run_warmup(f, FlowSpec((1.0, 1.0)), NO_SOURCE, 0.0, dt=1.0)
    assert g.time == f.time
    assert np.array_equal(g.values, f.values)


def test_warmup_plume_extends_downwind():
    # plume mass centroid should sit downwind of the source and decay with
    # downwind distance along the wave direction
    geom = PAPER_GRID
    source = SourceSpec(position=(2.5, 2.5), rate=2.5)
    flow = FlowSpec((1.2247, 1.2247), 4.9e-10)
    f = run_warmup(init_field(geom, 0.0), flow, source, 120.0, dt=1.0)
    X, Y = geom.cell_centers()
    total = f.values.sum()
    cx = (X * f.values).sum() / total
    cy = (Y * f.values).sum() / total
    assert cx > source.position[0] and cy > source.position[1]
    # concentration sampled along the wind axis decays monotonically
    samples = [
        sample_concentration(f, (2.5 + d / math.sqrt(2), 2.5 + d / math.sqrt(2)))
        for d in (0.0, 40.0, 80.0, 120.0)
    ]
    assert all(a > b for a, b in zip(samples, samples[1:]))


def test_sample_at_cell_centre_is_identity():
    rng = np.random.default_rng(3)
    geom = GridGeometry(nx=10, ny=8, h=3.0)
    f = ScalarField(geom, rng.random((8, 10)), 0.0)
    for i, j in [(0, 0), (4, 3), (9, 7)]:
        assert sample_concentration(f, geom.cell_center(i, j)) == pytest.approx(
            f.values[j, i], abs=1e-14
        )


def test_sample_midpoint_interpolates():
    geom = GridGeometry(nx=4, ny=3, h=2.0)
    vals = np.zeros((3, 4))
    vals[1, 1] = 0.0
    vals[1, 2] = 4.0
    f = ScalarField(geom, vals, 0.0)
    p1 = geom.cell_center(1, 1)
    p2 = geom.cell_center(2, 1)
    mid = ((p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2)
    assert sample_concentration(f, mid) == pytest.approx(2.0)


def test_sample_outside_workspace_raises():
    f = init_field(PAPER_GRID, 0.0)
    for pos in [(250.1, 0.0), (-250.1, 0.0), (0.0, 125.1), (0.0, -125.1)]:
        with pytest.raises(ValueError):
            sample_concentration(f, pos)
    # boundary itself is inside
    assert sample_concentration(f, (250.0, 125.0)) == 0.0


def test_source_injection_raises_concentration_by_rate_dt_over_area():
    geom = GridGeometry(nx=9, ny=9, h=2.0)
    src = SourceSpec(position=(0.0, 0.0), rate=3.0)
    f = step(init_field(geom, 0.0), FlowSpec((0.0, 0.0)), src, dt=0.5)
    i, j = geom.cell_of(src.position)
    assert f.values[j, i] == pytest.approx(3.0 * 0.5 / 2.0**2)
    assert np.count_nonzero(f.values) == 1


# -- the raveled step against the 2D flux form ---------------------------------


def _reference_step(field, flow, source, dt):
    """The 2D flux-form step with open walls, face arrays per axis; returns
    the result before the clip of rounding-scale negatives, and after it."""
    c, h = field.values, field.geometry.h
    vx, vy = flow.v
    out = c.copy()
    if vx != 0.0:
        fx = np.empty((c.shape[0], c.shape[1] + 1))
        fx[:, 1:-1] = vx * (c[:, :-1] if vx > 0 else c[:, 1:])
        fx[:, 0], fx[:, -1] = vx * c[:, 0], vx * c[:, -1]
        out -= (dt / h) * (fx[:, 1:] - fx[:, :-1])
    if vy != 0.0:
        fy = np.empty((c.shape[0] + 1, c.shape[1]))
        fy[1:-1, :] = vy * (c[:-1, :] if vy > 0 else c[1:, :])
        fy[0, :], fy[-1, :] = vy * c[0, :], vy * c[-1, :]
        out -= (dt / h) * (fy[1:, :] - fy[:-1, :])
    if flow.diffusivity > 0:
        lam, c = flow.diffusivity, out
        out = c.copy()
        gx = np.zeros((c.shape[0], c.shape[1] + 1))
        gx[:, 1:-1] = -lam * (c[:, 1:] - c[:, :-1]) / h
        out -= (dt / h) * (gx[:, 1:] - gx[:, :-1])
        gy = np.zeros((c.shape[0] + 1, c.shape[1]))
        gy[1:-1, :] = -lam * (c[1:, :] - c[:-1, :]) / h
        out -= (dt / h) * (gy[1:, :] - gy[:-1, :])
    unclipped = out.copy()
    np.maximum(out, 0.0, out=out)
    if source.rate > 0:
        si, sj = field.geometry.cell_of(source.position)
        out[sj, si] += source.rate * dt / h**2
    return unclipped, out


@st.composite
def step_cases(draw):
    """Grids from 1x1 to 30x30, signed-zero velocity components, diffusivity
    0, molecular or large, dt at or below the CFL bound, and zero, -0.0,
    subnormal, point-mass or random starting fields."""
    nx = draw(st.one_of(st.just(1), st.integers(1, 30)))
    ny = draw(st.one_of(st.just(1), st.integers(1, 30)))
    geom = GridGeometry(nx, ny, draw(st.floats(0.5, 6.0)))
    speed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
    lam = draw(st.one_of(st.just(0.0), st.just(4.9e-10), st.floats(0.0, 0.5)))
    flow = FlowSpec((draw(speed), draw(speed)), lam)
    bound = max_stable_dt(flow, geom)
    scale = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    dt = scale * (bound if bound < math.inf else 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from(["zero", "negative zero", "subnormal", "point", "random"]))
    if start == "zero":
        values = np.zeros((ny, nx))
    elif start == "negative zero":
        values = np.full((ny, nx), -0.0)
    elif start == "subnormal":
        values = rng.integers(0, 4, (ny, nx)) * 5e-324
    elif start == "point":
        values = np.zeros((ny, nx))
        values[rng.integers(ny), rng.integers(nx)] = rng.uniform(0.0, 10.0)
    else:
        values = rng.random((ny, nx)) ** 3
    i, j = int(rng.integers(nx)), int(rng.integers(ny))
    source = SourceSpec(geom.cell_center(i, j), draw(st.sampled_from([0.0, 1.3])))
    return ScalarField(geom, values), flow, source, dt


def _reaches_float_limit(field, flow, source, dt):
    """Whether a step from field overflows a float: dt / h does, or the 2D
    flux form leaves a non-finite cell."""
    if not dt / field.geometry.h < math.inf:
        return True
    with np.errstate(over="ignore", invalid="ignore"):
        _, values = _reference_step(field, flow, source, dt)
    return not np.isfinite(values).all()


def _float_limit_case(v, lam, h, rate, c0=0.0):
    """A 1x1 field of c0 under flow (v, lam) with dt at its stability bound,
    which a velocity or diffusivity at the float underflow limit puts near
    the largest float."""
    geom = GridGeometry(1, 1, h)
    flow = FlowSpec(v, lam)
    source = SourceSpec((0.0, 0.0), rate)
    return init_field(geom, c0), flow, source, max_stable_dt(flow, geom)


# Draws of --hypothesis-seed 0 (a subnormal velocity: dt / h overflows) and
# of seeds 16 and 27 (a subnormal diffusivity: the source cell overflows at
# the second step). Seeds 16 and 27 shrink to one draw; the third case is
# seed 27's draw before shrinking, its start value as printed.
FLOAT_LIMIT_CASES = (
    _float_limit_case((2.225073858507203e-309, 2.225073858507203e-309), 0.0, 0.5, 0.0),
    _float_limit_case((0.0, 0.0), 2.225073858507203e-309, 1.0, 1.3),
    _float_limit_case((0.0, 0.0), 2.225073858507203e-309, 0.5, 1.3, 7.17260033),
)


class TestRaveledStep:
    @pytest.mark.parametrize("case", FLOAT_LIMIT_CASES)
    def test_float_limit_raises(self, case):
        field, flow, source, dt = case
        for _ in range(2):
            if _reaches_float_limit(field, flow, source, dt):
                break
            field = step(field, flow, source, dt)
        assert _reaches_float_limit(field, flow, source, dt)
        with pytest.raises(ValueError, match="not a finite float|not finite"):
            step(field, flow, source, dt)

    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    @example(FLOAT_LIMIT_CASES[0])
    @example(FLOAT_LIMIT_CASES[1])
    @example(FLOAT_LIMIT_CASES[2])
    def test_bitwise_equal_to_the_2d_flux_form(self, case):
        field, flow, source, dt = case
        expected = field
        for _ in range(3):
            try:
                field = step(field, flow, source, dt)
            except ValueError:
                assert _reaches_float_limit(expected, flow, source, dt)
                return
            _, values = _reference_step(expected, flow, source, dt)
            expected = ScalarField(expected.geometry, values, expected.time + dt)
            assert field.values.tobytes() == expected.values.tobytes()
            assert field.time == expected.time

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    @example(FLOAT_LIMIT_CASES[0])
    @example(FLOAT_LIMIT_CASES[1])
    @example(FLOAT_LIMIT_CASES[2])
    def test_positivity(self, case):
        # each substep is monotone within the CFL bound, so the clip only
        # removes rounding errors: relative to the field's largest value, or
        # a few subnormal units where the field itself is subnormal
        field, flow, source, dt = case
        tiny = np.finfo(float).smallest_subnormal
        for _ in range(3):
            try:
                stepped = step(field, flow, source, dt)
            except ValueError:
                assert _reaches_float_limit(field, flow, source, dt)
                return
            unclipped, _ = _reference_step(field, flow, source, dt)
            assert unclipped.min() >= -1e-12 * field.values.max() - 8 * tiny
            field = stepped
            assert np.isfinite(field.values).all()
            assert field.values.min() >= 0.0


    @settings(max_examples=200, deadline=None)
    @given(step_cases(), st.integers(1, 9))
    @example(FLOAT_LIMIT_CASES[0], 1)
    @example(FLOAT_LIMIT_CASES[0], 9)
    @example(FLOAT_LIMIT_CASES[1], 1)
    @example(FLOAT_LIMIT_CASES[1], 9)
    @example(FLOAT_LIMIT_CASES[2], 1)
    @example(FLOAT_LIMIT_CASES[2], 9)
    def test_steps_in_one_call_equal_chained_steps(self, case, steps):
        field, flow, source, dt = case
        before = field.values.tobytes()
        chained, error = field, None
        try:
            for _ in range(steps):
                chained = step(chained, flow, source, dt)
        except ValueError as exc:
            error = str(exc)
        if error is None:
            stepped = step(field, flow, source, dt, steps)
            assert stepped.values.tobytes() == chained.values.tobytes()
            assert stepped.time == chained.time
        else:
            with pytest.raises(ValueError) as raised:
                step(field, flow, source, dt, steps)
            assert str(raised.value) == error
        assert field.values.tobytes() == before

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5])
    def test_a_nan_formed_mid_call_raises_as_chained_steps_do(self, steps):
        # an infinite inflow cell makes a NaN there on the first step, which
        # a chained call rejects at once; in one call the NaN drifts one cell
        # a step and reaches the source cell's injection on the third
        geom = GridGeometry(5, 1, 1.0)
        flow, source = FlowSpec((1.0, 0.0)), SourceSpec(geom.cell_center(3, 0), 1.0)
        field = ScalarField(geom, np.array([[np.inf, 0.0, 0.0, 0.0, 0.0]]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^concentration values must be non-negative$"):
                step(field, flow, source, 1.0)
            with pytest.raises(ValueError, match="^concentration values must be non-negative$"):
                step(field, flow, source, 1.0, steps)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_a_leg_from_the_read_only_warm_field(self, name):
        sc = parse_scenario(name)
        warm = run_warmup(init_field(sc.geometry), sc.flow, sc.source, sc.warmup_s, sc.dt)
        warm.values.setflags(write=False)
        cached = warm.values.tobytes()
        chained = warm
        for steps in range(1, 10):
            chained = step(chained, sc.flow, sc.source, sc.dt)
            stepped = step(warm, sc.flow, sc.source, sc.dt, steps)
            assert stepped.values.tobytes() == chained.values.tobytes()
            assert stepped.time == chained.time
        assert not warm.values.flags.writeable and warm.values.tobytes() == cached

    def test_steps_below_one_raise(self):
        field = init_field(GridGeometry(3, 2, 1.0))
        with pytest.raises(ValueError, match="steps must be >= 1"):
            step(field, FlowSpec((1.0, 0.0)), NO_SOURCE, 0.5, 0)
