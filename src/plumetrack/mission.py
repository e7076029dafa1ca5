"""Closed tracking loop with in-process action semantics.

A mission owns the warmed-up plume field, the vehicle's position, the grid
belief and the planner, and iterates measure, update, plan, navigate until the
credible interval termination test passes, a budget runs out, or the goal is
cancelled. The field's time is the mission's one clock, and the vehicle's
speed and sonde settings are read from the scenario; only the calibrated
sonde threshold is the mission's own. Feedback is emitted exactly once per
reading. Cancellation is a flag checked at update boundaries, safe to
set from another thread.

A miss before the first detection carries no information: the loop builds
no likelihood for it and keeps the belief object, as bayes_update would for
that constant likelihood. One memo holds the work done per belief: the point
estimate, the SCI widths and the scores of each window planned from. It is
renewed on a new belief object or a detection, the only time last_hit moves.

Everything in the loop is deterministic for a fixed (scenario, seed): the
random generator is consumed only by sensor noise, which defaults to off.

The goal holds only the scenario, whose fields set the stopping test, the
budgets and (in its PlannerParams) the kernel parameters;
MissionGoal.for_scenario(scenario, **overrides) replaces some for one mission.
"""

import enum
import logging
import threading
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .belief import (
    DegenerateUpdateError,
    MeasurementContext,
    bayes_update,
    detection_likelihood,
    miss_likelihood,
    point_estimate,
    uniform_belief,
)
# init_field and run_warmup stay bound here: an outside-in tracer that wraps
# this module's names (perfbench/layers.py) expects them. A travel leg steps
# the field in one call through the name field_step, which that tracer times
# as the field layer and divides by the cell-steps it saw; without it a traced
# mission would count no solver cells. run_warmup keeps one step call per
# step, since the tracer counts a spin-up's solver steps by wrapping
# field.step.
from .field import init_field, run_warmup, step as field_step, warm_field  # noqa: F401
from .planner import score_candidates, select_waypoint
from .scenario import Scenario
from .uncertainty import sci_widths, termination_check
from .vehicle import advance_towards, take_reading

logger = logging.getLogger(__name__)


class MissionStatus(enum.Enum):
    SUCCEEDED = "succeeded"
    ABORTED = "aborted"
    CANCELED = "canceled"


@dataclass(frozen=True)
class MissionGoal:
    """Tracking request: the scenario, whose fields set the stopping test and budgets."""

    scenario: Scenario

    @classmethod
    def for_scenario(cls, scenario: Scenario, **overrides) -> "MissionGoal":
        """Goal for the scenario with some fields replaced, e.g. max_updates=10.

        The replaced scenario is validated again, so a bad override raises
        ScenarioError (a ValueError) naming its field.
        """
        return cls(replace(scenario, **overrides))


@dataclass(frozen=True)
class MissionFeedback:
    step: int
    sim_time_s: float
    estimate: tuple[float, float]
    sci_m: tuple[float, float]
    usv_position: tuple[float, float]
    last_z: int


@dataclass(frozen=True)
class TrackResult:
    status: MissionStatus
    estimate: tuple[float, float]
    sci_m: tuple[float, float]
    error_m: float
    updates: int
    sim_time_s: float


@dataclass
class MissionLog:
    """Per-run artifact rows, appended as the loop progresses.

    trace is None unless the mission collects one; then it holds one
    (step, scores, waypoint_cell) entry per plan call, scores being the
    (cells, ig, p_hit) tuple score_candidates returned. A window the memo
    holds is the same tuple object at each of its steps.
    """

    trajectory: list = dc_field(default_factory=list)
    trace: list | None = None
    feedbacks: list = dc_field(default_factory=list)
    degenerate_updates: int = 0


class Mission:
    """One tracking mission; run synchronously or via start()/result().

    The constructor performs the plume warmup and sonde calibration, so the
    object is ready to answer field and belief queries before the loop runs.
    The warm-up comes from field.warm_field: missions of an equal scenario
    in one process share one spin-up, bit for bit the field a fresh one
    gives. The CLI's field export calls run_warmup and is never cached.
    """

    def __init__(self, goal: MissionGoal, rng=None, feedback=None, collect_trace=False):
        self.goal = goal
        sc = goal.scenario
        self._rng = rng if rng is not None else np.random.default_rng(sc.seed)
        self._feedback_cb = feedback
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None
        self._result: TrackResult | None = None
        self.log = MissionLog(trace=[] if collect_trace else None)

        self.field = warm_field(sc.geometry, sc.flow, sc.source, sc.warmup_s, sc.dt)
        self.threshold = sc.sonde_threshold
        if self.threshold is None:
            # positive: the source cell holds at least one step's injection,
            # and the Scenario checks that this fraction of it is
            self.threshold = sc.sonde_threshold_fraction * float(self.field.values.max())

        self.v_hat = sc.flow.direction()
        self.belief = uniform_belief(sc.geometry)
        self.position = sc.usv_start
        self.last_hit: tuple[float, float] | None = None
        self._t0 = self.field.time
        self.updates_used = 0

    # -- action surface ----------------------------------------------------

    def start(self) -> "Mission":
        """Run the loop on a background thread; pair with result() or run()."""
        if self._thread is None and self._result is None:
            self._thread = threading.Thread(target=self.run, daemon=True)
            self._thread.start()
        return self

    def cancel(self):
        """Stop at the next update boundary: run() then returns a canceled
        result, or the result of a loop that already ended."""
        self._cancel.set()

    def result(self, timeout=None) -> TrackResult:
        if self._thread is not None:
            self._thread.join(timeout)
        if self._result is None:
            raise RuntimeError("mission has not produced a result yet")
        return self._result

    @property
    def sim_time_s(self) -> float:
        return self.field.time - self._t0

    # -- the loop ----------------------------------------------------------

    def run(self) -> TrackResult:
        """Run the loop to its end; after start(), wait for its thread instead."""
        if self._thread is not None and self._thread is not threading.current_thread():
            return self.result()
        if self._result is not None:
            return self._result

        sc = self.goal.scenario
        out_of_time = False
        summarized = None  # the belief object that estimate, widths and windows describe
        while True:
            if self._cancel.is_set():
                status = MissionStatus.CANCELED
                break
            if self.updates_used >= sc.max_updates or out_of_time:
                status = MissionStatus.ABORTED
                break

            reading = take_reading(
                self.field, self.position, self.threshold, sc.sonde_noise_std, self._rng
            )
            if reading.z:
                self.last_hit = reading.position
            # the detection kernel ignores last_hit_pos, so the context the
            # planner needs serves the update as well
            ctx = MeasurementContext(reading.position, self.v_hat, self.last_hit)
            # a miss before the first detection has a constant likelihood,
            # for which bayes_update returns the prior: skip building it
            if self.last_hit is not None:
                kernel = detection_likelihood if reading.z else miss_likelihood
                like = kernel(ctx, sc.geometry, sc.planner)
                try:
                    self.belief = bayes_update(self.belief, like)
                except DegenerateUpdateError:
                    self.log.degenerate_updates += 1
                    logger.warning(
                        "degenerate update at step %d (z=%d); prior kept",
                        self.updates_used + 1,
                        reading.z,
                    )
            self.updates_used += 1

            if self.belief is not summarized or reading.z:
                summarized = self.belief
                estimate, widths = point_estimate(summarized), sci_widths(summarized, sc.gamma)
                windows = {}  # usv_cell -> score_candidates' (cells, ig, p_hit)
            fb = MissionFeedback(
                step=self.updates_used,
                sim_time_s=self.sim_time_s,
                estimate=estimate,
                sci_m=widths,
                usv_position=self.position,
                last_z=reading.z,
            )
            self.log.feedbacks.append(fb)
            if self._feedback_cb is not None:
                self._feedback_cb(fb)

            if termination_check(widths, sc.tau_m):
                self.log.trajectory.append(
                    (reading.time - self._t0, *reading.position,
                     reading.concentration, reading.z, None, None)
                )
                status = MissionStatus.SUCCEEDED
                break

            usv_cell = sc.geometry.cell_of(self.position)
            if usv_cell not in windows:
                windows[usv_cell] = score_candidates(self.belief, usv_cell, ctx, sc.planner)
            scores = windows[usv_cell]
            waypoint_cell = select_waypoint(self.belief, usv_cell, ctx, sc.planner, scores=scores)
            if self.log.trace is not None:
                self.log.trace.append((self.updates_used, scores, waypoint_cell))
            waypoint = sc.geometry.cell_center(*waypoint_cell)
            self.log.trajectory.append(
                (reading.time - self._t0, *reading.position,
                 reading.concentration, reading.z, *waypoint)
            )
            out_of_time = not self._travel(waypoint)

        if self.belief is not summarized:
            estimate, widths = point_estimate(self.belief), sci_widths(self.belief, sc.gamma)
        src = sc.source.position
        error = float(np.hypot(estimate[0] - src[0], estimate[1] - src[1]))
        self._result = TrackResult(
            status=status,
            estimate=estimate,
            sci_m=widths,
            error_m=error,
            updates=self.updates_used,
            sim_time_s=self.sim_time_s,
        )
        return self._result

    def _travel(self, waypoint) -> bool:
        """Move the vehicle usv_speed * dt per step until arrival, then step
        the field as many times in one call.

        The leg runs on a local clock, t += dt per step, which gives the
        floats field.time takes, and checks the waypoint against the
        workspace on its first move only. In continuous measure mode the leg
        is interrupted once sample_period elapses, so the next reading
        happens en route. Returns False, leaving the vehicle short of the
        waypoint, when the next step would take the mission past
        max_sim_time_s.
        """
        sc = self.goal.scenario
        reach = sc.usv_speed * sc.dt
        target = tuple(waypoint)
        geometry = sc.geometry
        t = self.field.time
        elapsed = 0.0
        steps = 0
        in_time = True
        while self.position != target:
            if t + sc.dt - self._t0 > sc.max_sim_time_s:
                in_time = False
                break
            self.position = advance_towards(self.position, waypoint, reach, geometry)
            geometry = None
            t += sc.dt
            elapsed += sc.dt
            steps += 1
            if sc.measure_mode == "continuous" and elapsed + 1e-9 >= sc.sonde_sample_period:
                break
        if steps:
            self.field = field_step(self.field, sc.flow, sc.source, sc.dt, steps)
        return in_time
