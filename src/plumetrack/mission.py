"""Closed tracking loop with in-process action semantics.

A mission owns the warmed-up plume field, the vehicle, the grid belief and
the planner, and iterates measure, update, plan, navigate until the credible
interval termination test passes, a budget runs out, or the goal is
cancelled. Feedback is emitted exactly once per belief update. Cancellation
is a flag checked at update boundaries, safe to set from another thread.

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
from .field import init_field, run_warmup, step as field_step
from .planner import score_candidates, select_waypoint
from .scenario import Scenario
from .uncertainty import sci_widths, termination_check
from .vehicle import SondeSpec, UsvState, advance_towards, take_reading

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
    """Per-run artifact rows, appended as the loop progresses."""

    trajectory: list = dc_field(default_factory=list)
    trace: list = dc_field(default_factory=list)
    feedbacks: list = dc_field(default_factory=list)
    degenerate_updates: int = 0


class Mission:
    """One tracking mission; run synchronously or via start()/result().

    The constructor performs the plume warmup and sonde calibration, so the
    object is ready to answer field and belief queries before the loop runs.
    """

    def __init__(self, goal: MissionGoal, rng=None, feedback=None, collect_trace=False):
        self.goal = goal
        sc = goal.scenario
        self._rng = rng if rng is not None else np.random.default_rng(sc.seed)
        self._feedback_cb = feedback
        self._collect_trace = collect_trace
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None
        self._result: TrackResult | None = None
        self.log = MissionLog()

        self.flow = sc.solver_flow()
        self.field = run_warmup(
            init_field(sc.geometry, 0.0), self.flow, sc.source, sc.warmup_s, sc.dt
        )
        threshold = sc.sonde_threshold
        if threshold is None:
            threshold = sc.sonde_threshold_fraction * float(self.field.values.max())
            if not threshold > 0:
                raise ValueError(
                    "sonde auto-calibration found an empty plume; "
                    "set sonde.threshold explicitly or check the source rate"
                )
        self.sonde = SondeSpec(threshold, sc.sonde_noise_std, sc.sonde_sample_period)

        speed = float(np.hypot(*sc.flow.v))
        self.v_hat = (sc.flow.v[0] / speed, sc.flow.v[1] / speed)
        self.belief = uniform_belief(sc.geometry)
        self.usv = UsvState(sc.usv_start, sc.usv_speed, time=self.field.time)
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
        return self.usv.time - self._t0

    # -- the loop ----------------------------------------------------------

    def run(self) -> TrackResult:
        """Run the loop to its end; after start(), wait for its thread instead."""
        if self._thread is not None and self._thread is not threading.current_thread():
            return self.result()
        if self._result is not None:
            return self._result

        sc = self.goal.scenario
        out_of_time = False
        while True:
            if self._cancel.is_set():
                status = MissionStatus.CANCELED
                break
            if self.updates_used >= sc.max_updates or out_of_time:
                status = MissionStatus.ABORTED
                break

            reading = take_reading(self.field, self.usv, self.sonde, self._rng)
            if reading.z:
                self.last_hit = reading.position
            # the detection kernel ignores last_hit_pos, so the context the
            # planner needs serves the update as well
            ctx = MeasurementContext(reading.position, self.v_hat, self.last_hit)
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

            estimate = point_estimate(self.belief)
            widths = sci_widths(self.belief, sc.gamma)
            fb = MissionFeedback(
                step=self.updates_used,
                sim_time_s=self.sim_time_s,
                estimate=estimate,
                sci_m=widths,
                usv_position=self.usv.position,
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

            usv_cell = sc.geometry.cell_of(self.usv.position)
            scores = score_candidates(self.belief, usv_cell, ctx, sc.planner)
            waypoint_cell = select_waypoint(self.belief, usv_cell, ctx, sc.planner, scores=scores)
            if self._collect_trace:
                cells, ig, p_hit = scores
                for cell, p, g in zip(cells, p_hit.tolist(), ig.tolist()):
                    self.log.trace.append(
                        (self.updates_used, *cell, p, g, int(cell == waypoint_cell))
                    )
            waypoint = sc.geometry.cell_center(*waypoint_cell)
            self.log.trajectory.append(
                (reading.time - self._t0, *reading.position,
                 reading.concentration, reading.z, *waypoint)
            )
            out_of_time = not self._travel(waypoint)

        estimate = point_estimate(self.belief)
        widths = sci_widths(self.belief, sc.gamma)
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
        """Advance vehicle and field on the same dt schedule until arrival.

        In continuous measure mode the leg is interrupted once sample_period
        elapses, so the next reading happens en route. Returns False, leaving
        the vehicle short of the waypoint, when the next step would take the
        mission past max_sim_time_s.
        """
        sc = self.goal.scenario
        elapsed = 0.0
        while self.usv.position != tuple(waypoint):
            if self.usv.time + sc.dt - self._t0 > sc.max_sim_time_s:
                return False
            self.usv = advance_towards(self.usv, waypoint, sc.dt, sc.geometry)
            self.field = field_step(self.field, self.flow, sc.source, sc.dt)
            elapsed += sc.dt
            if sc.measure_mode == "continuous" and elapsed + 1e-9 >= self.sonde.sample_period:
                break
        return True

