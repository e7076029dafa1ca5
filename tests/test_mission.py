import dataclasses
import threading

import numpy as np
import pytest

import plumetrack.field as field_module
import plumetrack.mission as mission_module
import plumetrack.planner as planner
from plumetrack import (
    Mission,
    MissionGoal,
    MissionStatus,
    TrackResult,
    parse_scenario,
    scenario_from_dict,
)
from plumetrack.belief import DegenerateUpdateError, MeasurementContext
from plumetrack.cli import write_outputs
from plumetrack.field import step
from plumetrack.vehicle import advance_towards


def small_scenario(**overrides):
    """Compact tracking setup that converges in well under a second."""
    cfg = {
        "workspace": {"nx": 30, "ny": 20, "h": 5.0, "origin": [0.0, 0.0]},
        "flow": {"v": [1.2247, 1.2247], "lambda": 4.9e-10},
        "source": {"position": [-22.5, -22.5], "rate": 2.5},
        "usv": {"start": [30.0, 30.0], "speed": 2.0},
        "sim": {"dt": 1.0, "warmup_s": 120.0, "max_updates": 400, "max_sim_time_s": 3600.0},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    return scenario_from_dict(cfg)


def test_zero_update_budget_aborts_with_uniform_estimate():
    goal = MissionGoal.for_scenario(small_scenario(), max_updates=0)
    result = Mission(goal).run()
    assert result.status == MissionStatus.ABORTED
    assert result.estimate == pytest.approx((0.0, 0.0), abs=1e-9)
    assert result.updates == 0


def test_small_scenario_succeeds():
    goal = MissionGoal.for_scenario(small_scenario())
    result = Mission(goal).run()
    assert result.status == MissionStatus.SUCCEEDED
    assert result.error_m <= 10.0
    assert result.sci_m[0] <= 10.0 and result.sci_m[1] <= 10.0


def test_result_is_reproducible():
    goal = MissionGoal.for_scenario(small_scenario())
    r1 = Mission(goal, rng=np.random.default_rng(3)).run()
    r2 = Mission(goal, rng=np.random.default_rng(3)).run()
    assert r1 == r2
    assert dataclasses.asdict(r1) == dataclasses.asdict(r2)


def test_feedback_stream_is_reproducible_and_monotone():
    goal = MissionGoal.for_scenario(small_scenario())
    streams = []
    for _ in range(2):
        fb = []
        Mission(goal, feedback=fb.append).run()
        streams.append(fb)
    assert streams[0] == streams[1]
    steps = [f.step for f in streams[0]]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)
    times = [f.sim_time_s for f in streams[0]]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_feedback_emitted_once_per_update():
    goal = MissionGoal.for_scenario(small_scenario())
    fb = []
    result = Mission(goal, feedback=fb.append).run()
    assert len(fb) == result.updates


def test_budget_safety():
    goal = MissionGoal.for_scenario(small_scenario(), max_updates=7)
    result = Mission(goal).run()
    assert result.status == MissionStatus.ABORTED
    assert result.updates == 7

    # sim-time budget: a leg stops before its step would pass the budget
    goal = MissionGoal.for_scenario(small_scenario(), max_sim_time_s=30.0)
    result = Mission(goal).run()
    assert result.status == MissionStatus.ABORTED
    assert result.sim_time_s <= 30.0


@pytest.mark.parametrize("mode", ["on_arrival", "continuous"])
@pytest.mark.parametrize("budget", [0.0, 50.0, 101.0, 333.0])
def test_time_budget_is_never_overrun(budget, mode):
    sc = parse_scenario("scenario_upwind")
    sc = dataclasses.replace(sc, measure_mode=mode, max_sim_time_s=budget)
    mission = Mission(MissionGoal(sc))
    result = mission.run()
    assert result.status == MissionStatus.ABORTED
    assert result.sim_time_s <= budget
    # once no further solver step fits, the mission stops instead of taking
    # readings where the vehicle already stood
    positions = [fb.usv_position for fb in mission.log.feedbacks]
    assert all(a != b for a, b in zip(positions, positions[1:]))


def test_estimate_stays_inside_workspace():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    result = mission.run()
    (x0, x1) = goal.scenario.geometry.x_bounds
    (y0, y1) = goal.scenario.geometry.y_bounds
    for fb in mission.log.feedbacks:
        assert x0 <= fb.estimate[0] <= x1
        assert y0 <= fb.estimate[1] <= y1
    assert x0 <= result.estimate[0] <= x1


def test_termination_soundness():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    result = mission.run()
    assert result.status == MissionStatus.SUCCEEDED
    assert result.sci_m[0] <= goal.scenario.tau_m and result.sci_m[1] <= goal.scenario.tau_m
    # every earlier feedback failed the termination test
    for fb in mission.log.feedbacks[:-1]:
        assert fb.sci_m[0] > goal.scenario.tau_m or fb.sci_m[1] > goal.scenario.tau_m


def test_cancel_before_first_update():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    mission.cancel()
    result = mission.run()
    assert result.status == MissionStatus.CANCELED
    assert result.estimate == pytest.approx((0.0, 0.0), abs=1e-9)
    assert result.updates == 0


def test_cancel_mid_run_carries_latest_estimate():
    goal = MissionGoal.for_scenario(small_scenario())
    mission_holder = {}

    def cancel_at_step_five(fb):
        if fb.step == 5:
            mission_holder["m"].cancel()

    mission = Mission(goal, feedback=cancel_at_step_five)
    mission_holder["m"] = mission
    result = mission.run()
    assert result.status == MissionStatus.CANCELED
    assert result.updates == 5
    assert result.estimate == mission.log.feedbacks[-1].estimate


def test_cancel_after_success_returns_result_unchanged():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    result = mission.run()
    assert result.status == MissionStatus.SUCCEEDED
    mission.cancel()
    again = mission.run()
    assert again == result


def test_cancel_from_another_thread():
    goal = MissionGoal.for_scenario(small_scenario(), max_updates=100_000)
    barrier = threading.Event()

    def slow_feedback(fb):
        if fb.step == 3:
            barrier.set()

    mission = Mission(goal, feedback=slow_feedback)
    mission.start()
    assert barrier.wait(timeout=30.0)
    mission.cancel()
    result = mission.run()
    assert result.status in (MissionStatus.CANCELED, MissionStatus.SUCCEEDED)


def test_run_after_start_waits_for_the_mission_thread():
    # run() after start() waits for that thread; a second loop would share its state
    goal = MissionGoal.for_scenario(small_scenario())
    for _ in range(5):
        fb = []
        mission = Mission(goal, feedback=fb.append).start()
        result = mission.run()
        assert result == mission.result()
        assert [f.step for f in fb] == list(range(1, result.updates + 1))


def test_underflowing_miss_kernel_keeps_the_prior():
    # sigma2_miss = 1e-9 zeroes whole predicted miss likelihoods; an all-zero
    # field is a degenerate update, not an invalid one
    sc = small_scenario(planner={"sigma2_miss": 1e-9})
    result = Mission(MissionGoal.for_scenario(sc)).run()
    assert isinstance(result, TrackResult)
    assert result.status == MissionStatus.SUCCEEDED


def test_belief_normalized_throughout():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    sums = []
    mission._feedback_cb = lambda fb: sums.append(float(mission.belief.probs.sum()))
    mission.run()
    assert sums
    assert all(abs(s - 1.0) <= 1e-9 for s in sums)


def test_trajectory_rows_cover_all_readings():
    goal = MissionGoal.for_scenario(small_scenario())
    mission = Mission(goal)
    result = mission.run()
    assert len(mission.log.trajectory) == result.updates
    final = mission.log.trajectory[-1]
    assert final[5] is None and final[6] is None  # no waypoint after success


def test_trace_selects_each_steps_waypoint_at_its_largest_gain():
    mission = Mission(MissionGoal.for_scenario(small_scenario()), collect_trace=True)
    result = mission.run()
    geom = mission.goal.scenario.geometry
    # every update but the successful last one plans a waypoint, one entry each
    assert [entry[0] for entry in mission.log.trace] == list(range(1, result.updates))
    for step, (cells, ig, _), waypoint in mission.log.trace:
        assert cells.count(waypoint) == 1
        assert geom.cell_center(*waypoint) == mission.log.trajectory[step - 1][5:]
        assert ig[cells.index(waypoint)] >= ig.max() - 1e-12


def test_continuous_measure_mode_runs_and_succeeds():
    sc = small_scenario(sonde={"measure_mode": "continuous", "sample_period": 4.0})
    result = Mission(MissionGoal.for_scenario(sc)).run()
    assert result.status == MissionStatus.SUCCEEDED
    assert result.error_m <= 10.0


def test_upwind_start_aborts_without_detection():
    # vehicle placed upwind of the source, outside the plume: the belief
    # never sharpens and the mission must exhaust its budget gracefully
    sc = small_scenario(
        source={"position": [22.5, 22.5], "rate": 2.5},
        usv={"start": [-60.0, -40.0], "speed": 2.0},
        sim={"dt": 1.0, "warmup_s": 120.0, "max_updates": 60, "max_sim_time_s": 3600.0},
    )
    mission = Mission(MissionGoal.for_scenario(sc))
    result = mission.run()
    assert result.status == MissionStatus.ABORTED
    assert result.updates == 60
    assert all(fb.last_z == 0 for fb in mission.log.feedbacks)


def test_goal_validation():
    sc = small_scenario()
    with pytest.raises(ValueError):
        MissionGoal.for_scenario(sc, gamma=1.0)
    with pytest.raises(ValueError):
        MissionGoal.for_scenario(sc, tau_m=0.0)
    with pytest.raises(ValueError):
        MissionGoal.for_scenario(sc, max_updates=-1)


def test_upwind_search_scores_each_belief_and_cell_once(monkeypatch):
    # before the first detection a miss leaves the belief as it was, so the
    # vehicle circles on one belief and 100 plan calls see 11 windows
    score = planner._score
    calls = []

    def counted(*args):
        calls.append(args[1])
        return score(*args)

    monkeypatch.setattr(planner, "_score", counted)
    goal = MissionGoal.for_scenario(parse_scenario("scenario_upwind"), max_updates=100)
    mission = Mission(goal)
    start = mission.belief
    result = mission.run()
    assert result.updates == 100
    assert mission.belief is start
    assert len(calls) <= 11


def test_search_without_detection_does_no_belief_work(monkeypatch):
    # every reading is a miss before the first detection, and such a miss
    # builds no likelihood: the start belief is summarized once, for all
    # feedbacks and the result
    calls = {}

    def count(name):
        fn = getattr(mission_module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mission_module, name, counted)

    for name in ("detection_likelihood", "miss_likelihood", "bayes_update",
                 "point_estimate", "sci_widths"):
        count(name)
    goal = MissionGoal.for_scenario(parse_scenario("scenario_upwind"), max_updates=8)
    mission = Mission(goal)
    start = mission.belief
    result = mission.run()
    assert result.updates == 8
    assert calls == {"point_estimate": 1, "sci_widths": 1}
    assert mission.belief is start
    feedbacks = mission.log.feedbacks
    assert [fb.step for fb in feedbacks] == list(range(1, 9))
    assert all(fb.last_z == 0 for fb in feedbacks)
    assert {(fb.estimate, fb.sci_m) for fb in feedbacks} == {(result.estimate, result.sci_m)}


def test_upwind_search_traces_each_remembered_window_as_one_object():
    goal = MissionGoal.for_scenario(parse_scenario("scenario_upwind"), max_updates=100)
    mission = Mission(goal, collect_trace=True)
    mission.run()
    assert len(mission.log.trace) == 100
    assert len({id(scores) for _, scores, _ in mission.log.trace}) <= 11


class TestBeliefMemo:
    """The mission scores each window once per belief object and last_hit."""

    @pytest.mark.parametrize("name", ["small", "scenario_a"])
    def test_a_detection_renews_the_windows_of_a_kept_belief(self, monkeypatch, name):
        # every update is degenerate, so the belief object never changes, but
        # a detection moves last_hit and with it the scores of every window
        def degenerate(prior, likelihood):
            raise DegenerateUpdateError("every update is degenerate")

        monkeypatch.setattr(mission_module, "bayes_update", degenerate)
        sc = small_scenario() if name == "small" else parse_scenario("scenario_a")
        mission = Mission(MissionGoal.for_scenario(sc, max_updates=40), collect_trace=True)
        start = mission.belief
        mission.run()
        assert mission.belief is start
        trace, rows = mission.log.trace, mission.log.trajectory
        assert len(trace) == 40 and any(row[4] for row in rows)
        v_hat, last_hit, detections, held = sc.flow.direction(), None, 0, {}
        for step, scores, _ in trace:
            _, x, y, _, z, *_ = rows[step - 1]
            if z:
                last_hit, detections = (x, y), detections + 1
            cell = sc.geometry.cell_of((x, y))
            ctx = MeasurementContext((x, y), v_hat, last_hit)
            cells, *want = planner.score_candidates(start, cell, ctx, sc.planner)
            assert scores[0] == cells
            for got, expected in zip(scores[1:], want):
                assert got.tobytes() == expected.tobytes()
            # one tuple per window between two detections, a new one after
            assert held.setdefault((detections, cell), scores) is scores
        assert len({id(scores) for _, scores, _ in trace}) == len(held)


def test_untraced_mission_keeps_no_trace():
    mission = Mission(MissionGoal.for_scenario(small_scenario()))
    mission.run()
    assert mission.log.trace is None


def _reference_travel(sc, field, position, t0, waypoint):
    """A leg stepped once per dt: the vehicle moves and the field steps
    together until arrival, the sample period or the time budget."""
    reach = sc.usv_speed * sc.dt
    elapsed = 0.0
    while position != tuple(waypoint):
        if field.time + sc.dt - t0 > sc.max_sim_time_s:
            return False, position, field
        position = advance_towards(position, waypoint, reach, sc.geometry)
        field = step(field, sc.flow, sc.source, sc.dt)
        elapsed += sc.dt
        if sc.measure_mode == "continuous" and elapsed + 1e-9 >= sc.sonde_sample_period:
            break
    return True, position, field


@pytest.mark.parametrize(
    "mode, budget", [("on_arrival", 3600.0), ("continuous", 3600.0), ("on_arrival", 40.0)]
)
def test_a_travel_leg_equals_stepping_once_per_dt(mode, budget):
    # dt = 0.3 s sums inexactly (0.3 + 0.3 + 0.3 != 0.9), so each leg's time
    # must be the per-step sum; continuous legs end after 4 steps at the 1 s period
    sc = small_scenario(
        sonde={"measure_mode": mode}, sim={"dt": 0.3, "max_sim_time_s": budget}
    )
    mission = Mission(MissionGoal(sc))
    corners = [(0, 0), (29, 19), (29, 0), (0, 19), (15, 10)]
    for waypoint in [sc.geometry.cell_center(i, j) for i, j in corners]:
        expected = _reference_travel(
            sc, mission.field, mission.position, mission._t0, waypoint
        )
        in_time = mission._travel(waypoint)
        assert (in_time, mission.position) == expected[:2]
        assert mission.field.time == expected[2].time
        assert mission.field.values.tobytes() == expected[2].values.tobytes()
    # the cut leg stopped short, and no later leg stepped past the budget
    if budget < 3600.0:
        assert not in_time and mission.sim_time_s <= budget


class TestSharedSpinUp:
    """Missions of an equal scenario share one warm-up per process."""

    @staticmethod
    def _counted_steps(monkeypatch):
        # run_warmup calls step through the field module's global; one entry per step
        calls = []
        step = field_module.step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(field_module, "step", counted)
        return calls

    def test_second_equal_mission_steps_no_solver_in_its_constructor(self, monkeypatch):
        field_module._warmed.cache_clear()
        steps = self._counted_steps(monkeypatch)
        sc = small_scenario()
        Mission(MissionGoal.for_scenario(sc))
        assert len(steps) == 120
        # an equal scenario built anew, with another seed and budget
        Mission(MissionGoal.for_scenario(small_scenario(), seed=4, max_updates=9))
        assert len(steps) == 120

    def test_a_mission_stepping_away_leaves_the_cached_field(self):
        sc = small_scenario()
        first = Mission(MissionGoal.for_scenario(sc))
        warm = first.field.values
        cached = warm.tobytes()
        first.run()
        assert first.field.values is not warm and first.field.time > 120.0
        second = Mission(MissionGoal.for_scenario(sc))
        assert second.field.values.tobytes() == cached
        assert second.field.time == 120.0

    def test_equal_missions_write_equal_artifacts(self, tmp_path):
        field_module._warmed.cache_clear()
        goal = MissionGoal.for_scenario(small_scenario())
        for name in ("cold", "warm"):
            mission = Mission(goal, collect_trace=True)
            write_outputs(mission.run(), mission, tmp_path / name)
        files = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "warm").iterdir())
        for name in files:
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()

    def test_a_warmup_that_raises_raises_again(self, monkeypatch):
        # every 30th solver step raises (the parser rejects a scenario whose
        # injection could overflow, so the failure is injected), and an
        # exception is never cached
        field_module._warmed.cache_clear()
        steps, step = [], field_module.step

        def failing(*args):
            steps.append(1)
            if len(steps) % 30 == 0:
                raise ValueError("source injection makes the source cell not finite")
            return step(*args)

        monkeypatch.setattr(field_module, "step", failing)
        goal = MissionGoal.for_scenario(small_scenario(flow={"v": [0.01, 0.01]}))
        counts = []
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                Mission(goal)
            counts.append(len(steps))
        # the second mission spun up again, as far as the first
        assert 0 < counts[0] < 120 and counts[1] == 2 * counts[0]
