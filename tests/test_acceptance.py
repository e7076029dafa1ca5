"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they stream; any failure prints the criterion number in the test name.
"""

import hashlib
import json

import numpy as np
import pytest

from plumetrack import (
    FlowSpec,
    GridBelief,
    GridGeometry,
    LikelihoodField,
    Mission,
    MissionGoal,
    MissionStatus,
    PlannerParams,
    SourceSpec,
    bayes_update,
    init_field,
    max_stable_dt,
    parse_scenario,
    select_waypoint,
    step,
)
from plumetrack.belief import MeasurementContext
from plumetrack.cli import main
from plumetrack.field import ScalarField
from plumetrack.planner import score_candidates
from plumetrack.uncertainty import MarginalDist, smallest_credible_interval

from test_planner import V_HAT, brute_force_select, random_kernel_params


def _ok(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


@pytest.fixture(scope="module")
def traced_scenario_a_mission():
    """One scenario-(a) mission with planner tracing and belief monitoring."""
    scenario = parse_scenario("scenario_a")
    mission = Mission(
        MissionGoal.for_scenario(scenario),
        rng=np.random.default_rng(scenario.seed),
        collect_trace=True,
    )
    belief_sums = []
    mission._feedback_cb = lambda fb: belief_sums.append(float(mission.belief.probs.sum()))
    result = mission.run()
    return mission, result, belief_sums


def test_criterion_1_scenario_a_three_trials():
    scenario = parse_scenario("scenario_a")
    errors = []
    for seed in (0, 1, 2):
        goal = MissionGoal.for_scenario(scenario, seed=seed)
        result = Mission(goal, rng=np.random.default_rng(seed)).run()
        assert result.status == MissionStatus.SUCCEEDED, f"seed {seed}: {result.status}"
        assert result.error_m <= 10.0, f"seed {seed}: error {result.error_m:.2f} m"
        errors.append(result.error_m)
    _ok(1, f"scenario (a) 3/3 succeeded, errors {[f'{e:.2f}' for e in errors]} m <= 10 m")


def test_criterion_2_scenario_b_trials():
    scenario = parse_scenario("scenario_b")
    outcomes = []
    for seed in (0, 1, 2):
        goal = MissionGoal.for_scenario(scenario, seed=seed)
        result = Mission(goal, rng=np.random.default_rng(seed)).run()
        assert result.status in (MissionStatus.SUCCEEDED, MissionStatus.ABORTED)
        if result.status == MissionStatus.SUCCEEDED:
            assert result.error_m <= 10.0, f"seed {seed}: error {result.error_m:.2f} m"
        outcomes.append(result.status)
    succeeded = sum(s == MissionStatus.SUCCEEDED for s in outcomes)
    assert succeeded >= 1, f"no scenario (b) trial succeeded: {outcomes}"
    _ok(2, f"scenario (b) {succeeded}/3 succeeded (all within 10 m when succeeding)")


def test_criterion_3_upwind_start_aborts():
    scenario = parse_scenario("scenario_upwind")
    mission = Mission(MissionGoal.for_scenario(scenario))
    result = mission.run()
    assert result.status == MissionStatus.ABORTED
    assert result.updates == scenario.max_updates
    assert all(fb.last_z == 0 for fb in mission.log.feedbacks), "unexpected detection upwind"
    _ok(3, f"upwind start aborted on budget after {result.updates} updates, no crash")


def _exhaustive_sci_vectorized(p, gamma):
    """Exhaustive oracle: score every (lo, hi) pair, then lexicographic pick."""
    k = p.size
    prefix = np.concatenate(([np.longdouble(0)], np.cumsum(p.astype(np.longdouble))))
    lo_idx, hi_idx = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    mass = prefix[hi_idx + 1] - prefix[lo_idx]
    valid = (hi_idx >= lo_idx) & (mass >= np.longdouble(gamma))
    assert valid.any()
    lengths = hi_idx - lo_idx + 1
    lo_f, hi_f = lo_idx[valid], hi_idx[valid]
    keys = np.lexsort((lo_f, -mass[valid].astype(np.longdouble), lengths[valid]))
    best = keys[0]
    return int(lo_f[best]), int(hi_f[best])


def test_criterion_4_sci_oracle_equivalence():
    rng = np.random.default_rng(20240810)
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 201))
        p = rng.random(k) ** 2 + 1e-12
        p /= p.sum()
        gamma = float(rng.choice([0.5, 0.9, 0.99]))
        dist = MarginalDist(p, 1.0)
        got = smallest_credible_interval(dist, gamma)
        want = _exhaustive_sci_vectorized(p, gamma)
        assert got == want, f"k={k} gamma={gamma}: {got} vs oracle {want}"
        got_mass = float(p[got[0] : got[1] + 1].sum())
        want_mass = float(p[want[0] : want[1] + 1].sum())
        assert abs(got_mass - want_mass) <= 1e-12
        checked += 1
    _ok(4, f"SCI matches the exhaustive oracle on {checked} random distributions")


def test_criterion_5_planner_oracle_equivalence():
    rng = np.random.default_rng(424242)
    for trial in range(50):
        params = random_kernel_params(rng, window_cells=5)
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        geom = GridGeometry(nx=nx, ny=ny, h=5.0)
        p = rng.random((ny, nx)) ** 2
        belief = GridBelief(geom, p / p.sum())
        usv_cell = (int(rng.integers(0, nx)), int(rng.integers(0, ny)))
        last_hit = None
        if rng.random() < 0.5:
            last_hit = geom.cell_center(int(rng.integers(0, nx)), int(rng.integers(0, ny)))
        ctx = MeasurementContext(
            usv_pos=geom.cell_center(*usv_cell), v_hat=V_HAT, last_hit_pos=last_hit
        )
        got = select_waypoint(belief, usv_cell, ctx, params)
        want = brute_force_select(belief, usv_cell, ctx, params)
        assert got == want, f"trial {trial} ({params}): {got} vs brute force {want}"
    _ok(5, "waypoint selection matches brute-force scoring on 50 random beliefs and kernels")


def test_criterion_6_belief_properties(traced_scenario_a_mission):
    _, result, belief_sums = traced_scenario_a_mission
    assert len(belief_sums) == result.updates
    assert all(abs(s - 1.0) <= 1e-9 for s in belief_sums)

    rng = np.random.default_rng(99)
    geom = GridGeometry(nx=12, ny=8, h=2.0)
    for _ in range(100):
        p = rng.random((8, 12))
        belief = GridBelief(geom, p / p.sum())
        w1 = rng.random((8, 12)) + 1e-3
        w2 = rng.random((8, 12)) + 1e-3
        scaled = bayes_update(belief, LikelihoodField(geom, 123.456 * w1))
        plain = bayes_update(belief, LikelihoodField(geom, w1))
        assert np.allclose(scaled.probs, plain.probs, atol=1e-12)
        seq = bayes_update(plain, LikelihoodField(geom, w2))
        joint = bayes_update(belief, LikelihoodField(geom, w1 * w2))
        assert np.allclose(seq.probs, joint.probs, atol=1e-12)
    _ok(6, f"belief normalized through {len(belief_sums)} updates; scale + sequential props hold")


def test_criterion_7_information_gain_properties(traced_scenario_a_mission):
    mission, _, _ = traced_scenario_a_mission
    igs = np.array([row[4] for row in mission.log.trace])
    assert igs.size > 0
    assert igs.min() >= -1e-12, f"negative information gain {igs.min()}"

    geom = GridGeometry(nx=9, ny=9, h=5.0)
    probs = np.zeros((9, 9))
    probs[4, 4] = 1.0
    belief = GridBelief(geom, probs)
    ctx = MeasurementContext(usv_pos=geom.cell_center(2, 2), v_hat=V_HAT)
    params = PlannerParams(window_cells=5)
    # the windows around these cells hold (0, 0), (4, 4), (8, 8) and (2, 6)
    for usv_cell in [(2, 2), (6, 6), (4, 4)]:
        _, ig, _ = score_candidates(belief, usv_cell, ctx, params)
        assert np.abs(ig).max() <= 1e-12
    _ok(7, f"IG non-negative across {igs.size} scored candidates; zero at certainty")


def test_criterion_8_solver_properties():
    rng = np.random.default_rng(31337)
    geom = GridGeometry(nx=12, ny=10, h=2.0)
    field = ScalarField(geom, rng.random((10, 12)), 0.0)
    no_source = SourceSpec((0.0, 0.0), 0.0)
    for _ in range(10_000):
        flow = FlowSpec(tuple(rng.uniform(-2, 2, size=2)), float(rng.uniform(0, 0.4)))
        dt = float(rng.uniform(0.05, 1.0)) * max_stable_dt(flow, geom)
        field = step(field, flow, no_source, dt)
        assert field.values.min() >= 0.0

    source = SourceSpec((1.0, 1.0), 1.3)
    flow = FlowSpec((0.8, -0.5), 0.1)
    f = init_field(geom, 0.5)
    m0 = f.total_mass()
    dt = 0.9 * max_stable_dt(flow, geom)
    for n in range(1, 201):
        f = step(f, flow, source, dt, boundary="closed")
    assert f.total_mass() == pytest.approx(m0 + 200 * source.rate * dt, rel=1e-9)

    sigma, T, v = 20.0, 50.0, (1.0, 0.0)
    errors = []
    for h in (10.0, 5.0, 2.5):
        g = GridGeometry(nx=int(600 / h), ny=int(300 / h), h=h)
        X, Y = g.cell_centers()
        blob = np.exp(-((X + 100) ** 2 + Y**2) / (2 * sigma**2))
        blob /= blob.sum() * h**2
        fld = ScalarField(g, blob, 0.0)
        for _ in range(int(T)):
            fld = step(fld, FlowSpec(v, 0.0), no_source, 1.0)
        oracle = np.exp(-((X + 100 - v[0] * T) ** 2 + Y**2) / (2 * sigma**2))
        oracle /= oracle.sum() * h**2
        errors.append(float(np.abs(fld.values - oracle).sum() * h**2))
    assert errors[0] > errors[1] > errors[2]
    _ok(8, f"positivity x 10^4 steps, mass exact, L1 errors decrease {[f'{e:.3f}' for e in errors]}")


# sha256 of the artifacts of `plumetrack run --scenario scenario_a --seed 0
# --trace`. A refactor must leave every byte in place; a change here is a
# change in behaviour and has to be made on purpose.
CRITERION_9_SHA256 = {
    "metrics.json": "e0782d3ce7b213b9079a03d659a61744bb8e89349a683c0a815bf5d827873cb5",
    "trajectory.csv": "b5129a96a4d61c84cad1a15f811f984ba8ae1a983cbcfa541472609b5362def7",
    "uncertainty.csv": "4cc6101d2688df7a59b42f1b081dffb40b19c221fd1786494b63466c83af3b3d",
    "belief_final.csv": "19c0bea06b36dcf710f54e8bf7d03db5b73d08398f3bc22a02a75a6dfb934142",
    "planner_trace.csv": "d4a4fe9fe1248668ff02a34fc39b7e15b23ddbe9da9338d3777fbd2600659db9",
}


def test_criterion_9_cli_determinism(tmp_path):
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        argv = ["run", "--scenario", "scenario_a", "--seed", "0", "--trace", "--out", str(out)]
        assert main(argv) == 0
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in CRITERION_9_SHA256
            }
        )
    assert digests[0] == digests[1]
    assert digests[0] == CRITERION_9_SHA256
    _ok(9, f"repeated runs byte-identical and equal to the {len(digests[0])} pinned digests")


# The same five artifacts for the other bundled scenarios, one run each: the
# repeat-run check above covers determinism, these pin the bytes of a second
# tracking run and of a 300-update search without a detection.
CRITERION_9_OTHER_SHA256 = {
    "scenario_b": {
        "metrics.json": "27ca2f865516e6005b18dfc189e30b950cc568347a3e674008acc264f01ea531",
        "trajectory.csv": "e39d0fa7ebe9afb2b68cbe52d19683fb4e824c3ffc513d9ee5bbc40af7179c2d",
        "uncertainty.csv": "8cb1b1afd6cf7f579548028a14ecb34ea019b18db347a2c2730381a8477590ea",
        "belief_final.csv": "017e50c8b6365c4f164a00a3e15f93dea1c0c11cfe441f9203a8224c2bffc97d",
        "planner_trace.csv": "3957785ef4239be2419a7280868f584cd10e6b1ea81c5406b88217d801e9b43e",
    },
    "scenario_upwind": {
        "metrics.json": "5939f7fd19fa15e877c8273235811c51df68ac5ef0022ab105f389bd804b6acf",
        "trajectory.csv": "c99ab954ed3fd95b5a4a583300aa062e199d0075fb528aafeb87c8015f613e27",
        "uncertainty.csv": "7b7bb96d82892d9a712f71944d39a7abc0f0036ad68795c0941279e21b0d59ed",
        "belief_final.csv": "5d368d6910306651479148cdf622c83aefe6fe2b3fefb7658048416bb61d50a8",
        "planner_trace.csv": "f3007d11d402cea0ca877ec46ad3e95971575b53555170f3038711cb6f2b14b7",
    },
}


@pytest.mark.parametrize("name", sorted(CRITERION_9_OTHER_SHA256))
def test_criterion_9_other_bundled_scenarios_pinned(tmp_path, name):
    pinned = CRITERION_9_OTHER_SHA256[name]
    argv = ["run", "--scenario", name, "--seed", "0", "--trace", "--out", str(tmp_path)]
    main(argv)  # scenario_upwind aborts on its budget and exits 1
    got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in pinned}
    assert got == pinned
    _ok(9, f"{name}: {len(got)} artifacts equal to the pinned digests")


def test_criterion_10_runtime_and_success_rate_not_reproduced(tmp_path):
    # wall-clock runtime targets and sub-100% success rates from real-time
    # middleware stacks are out of scope by design: this build is
    # deterministic, so runtime is reported but never asserted against, and
    # metrics.json must not persist wall-clock values at all
    out = tmp_path / "out"
    cfg = {
        "workspace": {"nx": 30, "ny": 20, "h": 5.0},
        "flow": {"v": [1.2247, 1.2247]},
        "source": {"position": [-22.5, -22.5], "rate": 2.5},
        "usv": {"start": [30.0, 30.0]},
        "sim": {"dt": 1.0, "warmup_s": 120.0, "max_updates": 400, "max_sim_time_s": 3600.0},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    main(["run", "--scenario", str(path), "--out", str(out)])
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["wall_time_s"] is None
    _ok(10, "wall-clock runtime deliberately unpersisted and never asserted")
