import math

import numpy as np
import pytest

from plumetrack import (
    FlowSpec,
    GridGeometry,
    SourceSpec,
    advance_towards,
    init_field,
    run_warmup,
    take_reading,
)
from plumetrack.field import ScalarField


def test_advance_at_waypoint_stays_put():
    assert advance_towards((3.0, 4.0), (3.0, 4.0), reach=2.0) == (3.0, 4.0)


def test_advance_moves_along_bearing():
    assert advance_towards((0.0, 0.0), (10.0, 0.0), reach=2.0) == pytest.approx((2.0, 0.0))
    assert advance_towards((0.0, 0.0), (6.0, 8.0), reach=2.0) == pytest.approx((1.2, 1.6))


def test_advance_clamps_without_overshoot():
    assert advance_towards((0.0, 0.0), (1.0, 0.0), reach=2.0) == (1.0, 0.0)


def test_advance_rejects_waypoint_outside_workspace():
    geom = GridGeometry(nx=10, ny=10, h=1.0)
    with pytest.raises(ValueError, match="outside workspace"):
        advance_towards((0.0, 0.0), (100.0, 0.0), reach=1.0, geometry=geom)


@pytest.mark.parametrize("reach", [0.0, -1.0, math.nan])
def test_advance_rejects_a_reach_that_is_not_positive(reach):
    with pytest.raises(ValueError, match="reach must be positive"):
        advance_towards((0.0, 0.0), (1.0, 0.0), reach=reach)


def test_travel_bound_and_exact_arrival_step_count():
    rng = np.random.default_rng(8)
    for _ in range(20):
        start = tuple(rng.uniform(-50, 50, size=2))
        goal = tuple(rng.uniform(-50, 50, size=2))
        reach = float(rng.uniform(0.5, 4.0)) * float(rng.uniform(0.2, 2.0))
        pos = start
        steps = 0
        while pos != goal:
            before = pos
            pos = advance_towards(pos, goal, reach)
            assert math.dist(before, pos) <= reach * (1 + 1e-12)
            steps += 1
            assert steps <= 10_000
        assert steps == max(1, math.ceil(math.dist(start, goal) / reach - 1e-12))


def test_reading_zero_field():
    geom = GridGeometry(nx=10, ny=10, h=2.0)
    field = ScalarField(geom, np.zeros((10, 10)), 3.0)
    r = take_reading(field, (0.0, 0.0), 0.5, 0.0, np.random.default_rng(0))
    assert r.concentration == 0.0
    assert r.z == 0
    assert r.time == 3.0


def test_reading_threshold_is_inclusive():
    geom = GridGeometry(nx=3, ny=3, h=1.0)
    field = ScalarField(geom, np.full((3, 3), 0.5), 0.0)
    r = take_reading(field, (0.0, 0.0), 0.5, 0.0, np.random.default_rng(0))
    assert r.z == 1


@pytest.mark.parametrize(
    "threshold, noise_std, message",
    [
        (0.0, 0.0, "threshold must be positive"),
        (-1.0, 0.0, "threshold must be positive"),
        (math.nan, 0.0, "threshold must be positive"),
        (1.0, -0.1, "noise_std must be >= 0"),
        (1.0, math.nan, "noise_std must be >= 0"),
    ],
)
def test_reading_rejects_bad_sonde_settings(threshold, noise_std, message):
    field = init_field(GridGeometry(nx=3, ny=3, h=1.0), 1.0)
    with pytest.raises(ValueError, match=message):
        take_reading(field, (0.0, 0.0), threshold, noise_std, np.random.default_rng(0))


def test_noise_free_reading_never_consumes_rng():
    geom = GridGeometry(nx=5, ny=5, h=1.0)
    field = ScalarField(geom, np.ones((5, 5)), 0.0)
    rng = np.random.default_rng(42)
    take_reading(field, (0.0, 0.0), 0.5, 0.0, rng)
    take_reading(field, (0.0, 0.0), 0.5, 0.0, rng)
    fresh = np.random.default_rng(42)
    assert rng.integers(1 << 30) == fresh.integers(1 << 30)


def test_noisy_reading_is_seed_deterministic():
    geom = GridGeometry(nx=5, ny=5, h=1.0)
    field = ScalarField(geom, np.ones((5, 5)), 0.0)
    r1 = take_reading(field, (0.0, 0.0), 0.5, 0.3, np.random.default_rng(7))
    r2 = take_reading(field, (0.0, 0.0), 0.5, 0.3, np.random.default_rng(7))
    assert r1 == r2
    assert r1.concentration >= 0.0


def test_source_cell_reads_hot_after_warmup():
    # the concentration over the source must clear the auto-calibrated
    # threshold (a percent of the plume maximum) once the plume has formed
    geom = GridGeometry(nx=100, ny=50, h=5.0)
    flow = FlowSpec((1.2247, 1.2247), 4.9e-10)
    source = SourceSpec((2.5, 2.5), 2.5)
    field = run_warmup(init_field(geom, 0.0), flow, source, 300.0, dt=1.0)
    threshold = 0.01 * float(field.values.max())
    r = take_reading(field, (2.5, 2.5), threshold, 0.0, np.random.default_rng(0))
    assert r.z == 1
