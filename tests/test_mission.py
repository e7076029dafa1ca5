import dataclasses
import hashlib
import itertools
import json
import math
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plumetrack.field as field_module
import plumetrack.mission as mission_module
import plumetrack.planner as planner
from plumetrack import (
    Mission,
    MissionGoal,
    MissionStatus,
    ScenarioError,
    TrackResult,
    parse_scenario,
    scenario_from_dict,
)
from plumetrack.belief import DegenerateUpdateError, MeasurementContext
from plumetrack.cli import main, write_outputs
from plumetrack.field import FlowSpec, SourceSpec, init_field, max_stable_dt, run_warmup, step
from plumetrack.grid import GridGeometry
from plumetrack.io import write_trace_csv
from plumetrack.scenario import Scenario, bundled_scenario_names
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


def _scored_cells(monkeypatch):
    """The list of cells planner._score receives, one entry per call."""
    score = planner._score
    calls = []

    def counted(*args):
        calls.append(list(zip(args[1].tolist(), args[2].tolist())))
        return score(*args)

    monkeypatch.setattr(planner, "_score", counted)
    return calls


def _built_cell_scores(monkeypatch):
    """The planner.CellScores a mission builds, in order."""
    built = []

    def counted():
        built.append(planner.CellScores())
        return built[-1]

    monkeypatch.setattr(mission_module, "CellScores", counted)
    return built


def test_upwind_search_scores_each_belief_and_cell_once(monkeypatch):
    # before the first detection a miss leaves the belief as it was, so the
    # vehicle circles on one belief: its 11 windows hold 1,320 candidates, of
    # which 719 are distinct cells, each scored once
    calls = _scored_cells(monkeypatch)
    built = _built_cell_scores(monkeypatch)
    goal = MissionGoal.for_scenario(parse_scenario("scenario_upwind"), max_updates=100)
    mission = Mission(goal)
    start = mission.belief
    result = mission.run()
    assert result.updates == 100
    assert mission.belief is start
    cells = [cell for call in calls for cell in call]
    assert len(calls) <= 11
    assert len(cells) == len(set(cells)) == 719
    assert len(built) == 1 and built[0].probs is start.probs


@pytest.mark.parametrize(
    "name, calls, cells", [("scenario_a", 31, 3665), ("scenario_b", 34, 4025)]
)
def test_a_tracking_run_scores_every_window_once(monkeypatch, name, calls, cells):
    # the belief changes at every update, so no cell score carries over from
    # one plan to the next: a memo that scored more would show here. The
    # mission's one CellScores never holds the belief whose SCI test ends it
    scored = _scored_cells(monkeypatch)
    built = _built_cell_scores(monkeypatch)
    mission = Mission(MissionGoal(parse_scenario(name)))
    result = mission.run()
    assert result.status is MissionStatus.SUCCEEDED
    assert (len(scored), sum(map(len, scored))) == (calls, cells)
    assert len(built) == 1 and built[0].probs is not mission.belief.probs


@pytest.mark.parametrize("name, rows", [("scenario_a", 1455), ("scenario_b", 1746)])
def test_a_tracking_run_computes_each_miss_row_once_per_detection(monkeypatch, name, rows):
    # a miss row depends only on the cell and the last hit, so the beliefs
    # between two detections share the miss rows of the mission's one
    # planner.CellScores: 1,455 and 1,746 rows, where a row per scored
    # candidate made 3,665 and 4,025
    computed = []  # (last hit, cell centre) per row; holding the last hits keeps their ids
    miss = planner.miss_block_weights

    def counted(px, py, bx, by, own, last_hit, *args):
        if last_hit is not None:
            computed.extend((last_hit, xy) for xy in zip(px.tolist(), py.tolist()))
        return miss(px, py, bx, by, own, last_hit, *args)

    monkeypatch.setattr(planner, "miss_block_weights", counted)
    built = _built_cell_scores(monkeypatch)
    assert Mission(MissionGoal(parse_scenario(name))).run().status is MissionStatus.SUCCEEDED
    assert len(computed) == len({(id(last_hit), xy) for last_hit, xy in computed}) == rows
    assert len(built) == 1


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


def test_upwind_search_selects_once_per_scored_window(monkeypatch, tmp_path):
    # the memo holds each window's selection with its scores: 11 windows in
    # 100 updates, and the trace bytes of a selection at every update
    calls = []
    select = mission_module.select_waypoint

    def counted(*args, **kwargs):
        calls.append(kwargs["scores"])
        return select(*args, **kwargs)

    monkeypatch.setattr(mission_module, "select_waypoint", counted)
    goal = MissionGoal.for_scenario(parse_scenario("scenario_upwind"), max_updates=100)
    mission = Mission(goal, collect_trace=True)
    mission.run()
    trace = mission.log.trace
    assert len(trace) == 100 and len(calls) == 11
    assert {id(scores) for scores in calls} == {id(scores) for _, scores, _ in trace}
    write_trace_csv(tmp_path / "planner_trace.csv", trace)
    data = (tmp_path / "planner_trace.csv").read_bytes()
    assert len(data) == 416_398
    assert hashlib.sha256(data).hexdigest() == (
        "88b71d249ad628f31ebe70a51ff640263b33ac43cc1a7203dcff9c02e630d065"
    )


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
        scored_at = {}  # cell -> the plan steps whose _score call took it
        score = planner._score

        def counted(*args):
            for cell in zip(args[1].tolist(), args[2].tolist()):
                scored_at.setdefault(cell, []).append(len(mission.log.trace) + 1)
            return score(*args)

        monkeypatch.setattr(planner, "_score", counted)
        start = mission.belief
        mission.run()
        assert mission.belief is start
        trace, rows = mission.log.trace, mission.log.trajectory
        assert len(trace) == 40 and any(row[4] for row in rows)
        v_hat, last_hit, detections, held = sc.flow.direction(), None, 0, {}
        detected = 0  # the step of the last detection
        overlapping = 0  # windows holding a cell scored before the last detection
        for step, scores, _ in trace:
            _, x, y, _, z, *_ = rows[step - 1]
            if z:
                last_hit, detections, detected = (x, y), detections + 1, step
            # each cell's scores come from a _score call since the last
            # detection, also where an earlier window scored the cell before it
            for cell in scores[0]:
                assert any(detected <= s <= step for s in scored_at[cell]), (step, cell)
            overlapping += any(s < detected for cell in scores[0] for s in scored_at[cell])
            cell = sc.geometry.cell_of((x, y))
            ctx = MeasurementContext((x, y), v_hat, last_hit)
            cells, *want = planner.score_candidates(start, cell, ctx, sc.planner)
            assert scores[0] == cells
            for got, expected in zip(scores[1:], want):
                assert got.tobytes() == expected.tobytes()
            # one tuple per window between two detections, a new one after
            assert held.setdefault((detections, cell), scores) is scores
        assert len({id(scores) for _, scores, _ in trace}) == len(held)
        assert overlapping


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
        mission_module._warmed.cache_clear()
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
        mission_module._warmed.cache_clear()
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
        mission_module._warmed.cache_clear()
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


def _plume(geometry, flow, source, warmup_s):
    """The Plume of a scenario with these plume settings and dt = 1 s."""
    return mission_module.Plume(Scenario(geometry, flow, source, (0.0, 0.0), warmup_s=warmup_s))


class TestWarmField:
    """A Plume's warm field: that of run_warmup, spun up once per process."""

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bitwise_equal_to_a_fresh_warmup(self, name):
        sc = parse_scenario(name)
        fresh = run_warmup(init_field(sc.geometry), sc.flow, sc.source, sc.warmup_s, sc.dt)
        mission_module._warmed.cache_clear()
        for _ in range(2):  # the spin-up, then the cached field
            warm = mission_module.Plume(sc).field
            assert warm.geometry is sc.geometry
            assert warm.time == fresh.time
            assert warm.values.tobytes() == fresh.values.tobytes()

    def test_values_are_read_only(self):
        geom = GridGeometry(100, 50, 5.0)
        warm = _plume(geom, FlowSpec((1.0, 0.5)), SourceSpec((2.5, 2.5), 1.0), 5.0).field
        assert not warm.values.flags.writeable
        with pytest.raises(ValueError):
            warm.values[0, 0] = 1.0

    def test_signed_zeros_share_an_entry_and_give_their_own_bits(self):
        # the origin, the source position, the zero velocity component and
        # the diffusivity each take either sign of zero: 64 variants that
        # compare equal, so the first one's spin-up serves them all
        mission_module._warmed.cache_clear()
        for signs in itertools.product((0.0, -0.0), repeat=6):
            ox, oy, sx, sy, vy, lam = signs
            geom = GridGeometry(12, 8, 2.5, (ox, oy))
            flow, source = FlowSpec((1.5, vy), lam), SourceSpec((sx, sy), 2.0)
            fresh = run_warmup(init_field(geom), flow, source, 30.0, 1.0)
            warm = _plume(geom, flow, source, 30.0).field
            assert warm.geometry is geom and warm.time == fresh.time
            assert warm.values.tobytes() == fresh.values.tobytes()
        assert mission_module._warmed.cache_info().currsize == 1


def _mission_record(mission):
    """What a run leaves: result, trajectory, feedbacks, final field bits and
    time, belief bits."""
    result = mission.run()
    field = mission.field
    return (result, mission.log.trajectory, mission.log.feedbacks,
            field.values.tobytes(), field.time, mission.belief.probs.tobytes())


def _solver_calls(monkeypatch):
    """The steps of each solver call the mission makes, one entry per call."""
    calls = []
    field_step = mission_module.field_step

    def counted(*args):
        calls.append(args[4] if len(args) > 4 else 1)
        return field_step(*args)

    monkeypatch.setattr(mission_module, "field_step", counted)
    return calls


def _tabled_and_stepped(sc):
    """A mission of sc with the plume's period record, and one stepping
    every leg: built after a cache clear, so that no record made earlier in
    the process serves it."""
    tabled = Mission(MissionGoal(sc))
    mission_module._warmed.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission_module, "CYCLE_TABLE_CELLS", 0)
        calls = _solver_calls(mp)
        stepped = Mission(MissionGoal(sc))
        stepped_record = _mission_record(stepped)
    # it recorded no period and read none: each solver step was a leg's
    assert sum(calls) == stepped.plume.steps
    return tabled, _mission_record(tabled), stepped_record


def _upwind_search():
    return dataclasses.replace(parse_scenario("scenario_upwind"), max_updates=100)


@pytest.fixture
def no_warm_plumes():
    """No warm field in the process, so no plume period record either."""
    mission_module._warmed.cache_clear()


@pytest.mark.usefixtures("no_warm_plumes")
class TestPlumeCycle:
    """A mission whose plume repeats reads later legs from one period."""

    @pytest.mark.parametrize("budget", [None, 333.0])
    @pytest.mark.parametrize("mode", ["on_arrival", "continuous"])
    @pytest.mark.parametrize("name", ["scenario_a", "scenario_b", "scenario_upwind"])
    def test_a_tabled_mission_equals_one_stepping_every_leg(self, name, mode, budget):
        overrides = {"measure_mode": mode}
        if budget is not None:
            overrides["max_sim_time_s"] = budget
        sc = dataclasses.replace(parse_scenario(name), **overrides)
        tabled, record, stepped = _tabled_and_stepped(sc)
        assert record == stepped
        if name == "scenario_upwind":
            assert tabled.plume._period[0] is not None

    def test_a_table_keeps_the_per_step_time_sum(self):
        # dt = 0.3 s sums inexactly, so a table-served leg's time must be the
        # per-step sum; with no diffusion this plume repeats every 2 steps
        sc = small_scenario(flow={"lambda": 0.0}, sim={"dt": 0.3})
        tabled, record, stepped = _tabled_and_stepped(sc)
        assert record == stepped
        onset, table = tabled.plume._period[0]
        assert len(table) == 2 and tabled.field.values is table[(tabled.plume.steps - onset) % 2]

    def test_the_upwind_search_finds_the_period_of_12_steps(self, monkeypatch):
        calls = _solver_calls(monkeypatch)
        mission = Mission(MissionGoal(_upwind_search()))
        mission.run()
        onset, table = mission.plume._period[0]
        assert onset == 29
        assert len(table) == 12 and mission.field.values is table[(mission.plume.steps - onset) % 12]
        assert all(not values.flags.writeable for values in table)
        # 19 legs stepped, 11 single steps recorded the period, 29 more from
        # the warm field found its onset, and the remaining 81 legs read it
        assert len(calls) == 59 and calls[19:] == [1] * 40

    def test_a_period_over_the_budget_is_not_tabled(self, monkeypatch):
        # a table of the upwind plume's 12-step period on 5,000 cells holds
        # 60,000 cells
        sc = _upwind_search()
        monkeypatch.setattr(mission_module, "CYCLE_TABLE_CELLS", 12 * 5000 - 1)
        mission = Mission(MissionGoal(sc))
        record = _mission_record(mission)
        assert mission.plume._period[0] is None
        monkeypatch.setattr(mission_module, "CYCLE_TABLE_CELLS", 12 * 5000)
        mission = Mission(MissionGoal(sc))
        assert _mission_record(mission) == record and len(mission.plume._period[0][1]) == 12

    def test_fields_that_differ_in_the_sign_of_a_zero_do_not_match(self):
        a = np.array([[0.0, 1.5], [2.0, 3.0]])
        b = a.copy()
        assert mission_module._same_bits(a, b)
        b[0, 0] = -0.0
        assert (a == b).all() and not mission_module._same_bits(a, b)
        b[0, 0] = 1e-320
        assert not mission_module._same_bits(a, b)


@pytest.mark.usefixtures("no_warm_plumes")
class TestSharedPeriod:
    """The missions of one warm plume share its period record, each from
    the first leg that ends at or past its onset."""

    @staticmethod
    def _stepped_reference(sc):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mission_module, "CYCLE_TABLE_CELLS", 0)
            return _mission_record(Mission(MissionGoal(sc)))

    @pytest.mark.parametrize(
        "mode, counts, onsets",
        [
            # the first mission finds the period at step 163, records it in
            # 11 single steps and finds its onset, 29, in 29 more; the others
            # step one leg, to 20, and read the next, to 38, from the record
            ("on_arrival", [(59, 203), (1, 20), (1, 20)], [29, 29, 29]),
            # legs of one step: the first mission finds the period at step 43,
            # and the others step to 28, the last step before the onset
            ("continuous", [(83, 83), (28, 28), (28, 28)], [29, 29, 29]),
        ],
    )
    def test_repeated_upwind_searches_read_the_first_ones_period(
        self, monkeypatch, mode, counts, onsets
    ):
        sc = dataclasses.replace(_upwind_search(), measure_mode=mode)
        reference = self._stepped_reference(sc)
        calls = _solver_calls(monkeypatch)
        seen = []
        for _ in range(3):
            calls.clear()
            mission = Mission(MissionGoal(sc))
            assert _mission_record(mission) == reference
            seen.append(((len(calls), sum(calls)), mission.plume._period[0][0]))
        assert seen == list(zip(counts, onsets))
        onset, table = mission.plume._period[0]
        warm = mission_module.Plume(sc).field
        stepped = step(warm, sc.flow, sc.source, sc.dt, onset)
        assert table[0].tobytes() == stepped.values.tobytes()

    @pytest.mark.parametrize(
        "first, second", [("continuous", "on_arrival"), ("on_arrival", "continuous")]
    )
    def test_a_record_serves_the_other_measure_mode(self, monkeypatch, first, second):
        sc = _upwind_search()
        reference = self._stepped_reference(dataclasses.replace(sc, measure_mode=second))
        Mission(MissionGoal(dataclasses.replace(sc, measure_mode=first))).run()
        record = mission_module._warmed(sc.geometry, sc.flow, sc.source, sc.warmup_s, sc.dt)[2][0]
        assert record is not None
        calls = _solver_calls(monkeypatch)
        mission = Mission(MissionGoal(dataclasses.replace(sc, measure_mode=second)))
        assert _mission_record(mission) == reference
        # it recorded nothing, and read its later legs from the record
        assert mission.plume._period[0][1] is record[1] and sum(calls) < mission.plume.steps

    def test_missions_on_threads_and_a_search_after_eviction(self, monkeypatch):
        sc = _upwind_search()
        reference = self._stepped_reference(sc)
        mission_module._warmed.cache_clear()
        missions = [Mission(MissionGoal(sc)) for _ in range(2)]
        for mission in missions:
            mission.start()
        assert [_mission_record(mission) for mission in missions] == [reference] * 2
        # four other warm plumes evict this one's entry and its record
        for duration in (1.0, 2.0, 3.0, 4.0):
            mission_module._warmed(sc.geometry, sc.flow, sc.source, duration, sc.dt)
        calls = _solver_calls(monkeypatch)
        mission = Mission(MissionGoal(sc))
        assert mission.plume._period[0] is None
        assert _mission_record(mission) == reference and len(calls) == 59


def _bits_and_time(field):
    return hashlib.sha256(field.values.tobytes()).digest(), field.time


class _Chain:
    """The fields of one-step calls from a fresh warm-up, as (digest of the
    bits, time) per step count, extended on demand."""

    def __init__(self, sc):
        self.sc = sc
        self.field = run_warmup(init_field(sc.geometry), sc.flow, sc.source, sc.warmup_s, sc.dt)
        self.seen = [_bits_and_time(self.field)]

    def __getitem__(self, n):
        while len(self.seen) <= n:
            self.field = step(self.field, self.sc.flow, self.sc.source, self.sc.dt)
            self.seen.append(_bits_and_time(self.field))
        return self.seen[n]


# With no diffusion the small plume repeats every 2 steps from step 63, and
# dt = 0.9 s sums inexactly; spun up for 180 s, it repeats from the warm
# field on. The upwind plume repeats every 12 steps from step 29.
_PLUMES = {
    "small": lambda: small_scenario(flow={"lambda": 0.0}, sim={"dt": 0.9}),
    "small_repeating": lambda: small_scenario(
        flow={"lambda": 0.0}, sim={"dt": 0.9, "warmup_s": 180.0}
    ),
    "upwind": lambda: parse_scenario("scenario_upwind"),
}
_CHAINS = {}


def _chain(name):
    if name not in _CHAINS:
        _CHAINS[name] = _Chain(_PLUMES[name]())
    return _CHAINS[name]


@pytest.mark.usefixtures("no_warm_plumes")
class TestPlume:
    """Plume.advance on leg patterns no mission makes."""

    @pytest.mark.parametrize("name", sorted(_PLUMES))
    @settings(max_examples=25, deadline=None)
    @given(plans=st.lists(st.lists(st.integers(1, 40), max_size=30), min_size=2, max_size=3))
    # on the upwind plume, which repeats from step 29, legs of 2 and of 3
    # find the period, and later legs end on the onset, just before it and
    # past it, straddle it and outlast the period
    @example(plans=[[2] * 21, [29, 13], [28, 14]])
    @example(plans=[[3] * 19, [20, 9, 1, 40], [28, 1]])
    def test_each_leg_equals_chained_one_step_calls(self, name, plans):
        # Plumes of one warm plume, one after another: the first finds the
        # period, and later ones step to its onset and read it from there
        sc = _PLUMES[name]()
        chain = _chain(name)
        mission_module._warmed.cache_clear()
        for legs in plans:
            plume = mission_module.Plume(sc)
            n, time = 0, plume.field.time
            for steps in legs:
                for _ in range(steps):
                    time += sc.dt
                n += steps
                field = plume.advance(steps, time)
                assert field is plume.field and _bits_and_time(field) == chain[n]

    @pytest.mark.parametrize("name", sorted(_PLUMES))
    @settings(max_examples=15, deadline=None)
    @given(plans=st.lists(st.lists(st.integers(1, 40), max_size=30), min_size=2, max_size=3))
    def test_every_plan_records_the_period_from_its_exact_onset(self, name, plans):
        # each plan's Plume is alone in the process and takes its legs, then
        # legs of one step, until it has recorded the period
        sc = _PLUMES[name]()
        chain = _chain(name)
        tables = set()
        for legs in plans:
            mission_module._warmed.cache_clear()
            plume = mission_module.Plume(sc)
            for steps in itertools.chain(legs, itertools.repeat(1, 400)):
                if plume._period[0] is not None:
                    break
                plume.advance(steps, plume.field.time + steps * sc.dt)
            assert plume._period[0] is not None
            onset, table = plume._period[0]
            digests = [hashlib.sha256(values.tobytes()).digest() for values in table]
            assert chain[onset][0] == digests[0]
            if onset > 0:
                assert chain[onset - 1][0] not in digests
            tables.add(b"".join(values.tobytes() for values in table))
        assert len(tables) == 1


# Numbers a draw may put in place of a sane one: signed zeros, subnormals,
# the float limits and any other finite float.
_EXTREME = st.one_of(
    st.sampled_from(
        [0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 1e9, 1e300,
         1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
# (section, key, strategy for an extreme value) of the keys a draw may replace
_EXTREME_KEYS = (
    *(
        (section, key, _EXTREME)
        for section, key in (
            ("workspace", "h"), ("flow", "lambda"), ("source", "rate"), ("usv", "speed"),
            ("sonde", "threshold"), ("sonde", "threshold_fraction"), ("sonde", "noise_std"),
            ("sonde", "sample_period"), ("stopping", "gamma"), ("stopping", "tau_m"),
            ("sim", "dt"), ("planner", "sigma2_hit"), ("planner", "sigma2_miss"),
            ("planner", "detection_ceiling"), ("planner", "prob_clip"),
        )
    ),
    *(
        (section, key, st.lists(_EXTREME, min_size=2, max_size=2))
        for section, key in (
            ("workspace", "origin"), ("flow", "v"), ("source", "position"), ("usv", "start"),
        )
    ),
    *(
        (section, key, st.sampled_from([-1, 0, 1, 2, 4, 10**6]))
        for section, key in (("planner", "window_cells"), ("planner", "local_radius_cells"))
    ),
)


@st.composite
def scenario_dicts(draw):
    """A scenario file's dict: a grid of up to 12 x 12 cells, at most 30
    updates, and up to two numbers replaced by extreme finite ones. The
    warm-up and the time budget are whole multiples of the final dt, up to
    300 steps each, so a draw that runs takes a fraction of a second."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    h = draw(st.floats(0.5, 20.0))
    v = [draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))]
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    try:
        bound = max_stable_dt(FlowSpec(tuple(v), lam), GridGeometry(nx, ny, h))
    except ValueError:
        bound = 1.0
    half = (nx * h / 2, ny * h / 2)

    def position():
        return [draw(st.floats(-half[0], half[0])), draw(st.floats(-half[1], half[1]))]

    cfg = {
        "workspace": {"nx": nx, "ny": ny, "h": h},
        "flow": {"v": v, "lambda": lam},
        "source": {"position": position(), "rate": draw(st.floats(0.01, 10.0))},
        "usv": {"start": position(), "speed": draw(st.floats(0.1, 5.0))},
        "sonde": {
            "threshold": draw(st.one_of(st.none(), st.floats(1e-6, 1.0))),
            "threshold_fraction": draw(st.floats(1e-3, 0.5)),
            "noise_std": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
            "sample_period": draw(st.floats(0.5, 10.0)),
            "measure_mode": draw(st.sampled_from(["on_arrival", "continuous"])),
        },
        "planner": {
            "window_cells": draw(st.sampled_from([3, 5, 11])),
            "sigma2_hit": draw(st.floats(0.1, 10.0)),
            "sigma2_miss": draw(st.floats(0.1, 10.0)),
            "detection_ceiling": draw(st.floats(0.1, 1.0)),
            "prob_clip": draw(st.floats(1e-9, 0.1)),
            "local_radius_cells": draw(st.integers(0, 6)),
        },
        "stopping": {"gamma": draw(st.floats(0.5, 0.999)), "tau_m": draw(st.floats(1.0, 50.0))},
        "sim": {
            "dt": draw(st.floats(0.05, 1.0)) * (bound if bound < math.inf else 1.0),
            "max_updates": draw(st.integers(0, 30)),
        },
        "seed": draw(st.integers(0, 1000)),
    }
    for section, key, values in draw(st.lists(st.sampled_from(_EXTREME_KEYS), max_size=2)):
        cfg[section][key] = draw(values)
    dt = cfg["sim"]["dt"]
    cfg["sim"]["warmup_s"] = draw(st.integers(0, 300)) * dt
    cfg["sim"]["max_sim_time_s"] = draw(st.integers(0, 300)) * dt
    return cfg


class TestValidScenariosRun:
    """A scenario is rejected at parse time or runs to a TrackResult."""

    @settings(max_examples=60, deadline=None)
    @given(scenario_dicts())
    def test_a_scenario_is_rejected_or_runs_as_a_stepped_mission_does(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "drawn.json"
            path.write_text(json.dumps(cfg))
            code = main(["run", "--scenario", str(path), "--out", str(Path(tmp) / "out")])
        try:
            sc = scenario_from_dict(cfg)
        except ScenarioError:
            assert code == 2
            return
        _, record, stepped = _tabled_and_stepped(sc)
        result = record[0]
        assert isinstance(result, TrackResult) and math.isfinite(result.error_m)
        # exit 1 only for an aborted mission
        assert code == (1 if result.status == MissionStatus.ABORTED else 0)
        assert result.status != MissionStatus.CANCELED
        assert record == stepped
