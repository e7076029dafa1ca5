"""Closed tracking loop with in-process action semantics.

A mission owns its plume, the vehicle's position, the grid belief and the
planner, and iterates measure, update, plan, navigate until the credible
interval termination test passes, a budget runs out, or the goal is
cancelled. The field's time is the mission's one clock, and the vehicle's
speed and sonde settings are read from the scenario; only the calibrated
sonde threshold is the mission's own. Feedback is emitted exactly once per
reading. Cancellation is a flag checked at update boundaries, safe to
set from another thread.

A miss before the first detection carries no information: the loop builds
no likelihood for it and keeps the belief object, as bayes_update would for
that constant likelihood. One memo holds the work done per belief: the
point estimate, the SCI widths, and the scores and selected waypoint of each
window planned from (the selection depends only on the scores and the
vehicle's cell). It is renewed on a new belief object or a detection, the
only time last_hit moves. Beneath it, one planner.CellScores per mission
holds the planner's work per cell, which score_candidates renews as the
belief and last_hit move. So the 100-update upwind search scores 719
distinct cells, where its 11 windows hold 1,320 candidates, and a tracking
run, whose belief changes at every update, scores every candidate of every
window, as before, but computes a cell's miss row once per detection, 1,455
rows on scenario_a where its windows hold 3,665 candidates.

The plume never depends on the vehicle, so a Plume holds it: the field, its
solver steps since the warm field, and Brent's search for an exact period of
the stepped fields, bit for bit, and for its exact onset. The Plumes of one
warm plume in a process share the period record: whichever finds it makes
the same one, written once. Each serves every leg that ends at or past the
onset from it, with the bits and times stepping gives.

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
from functools import lru_cache

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
# perfbench/layers.py times the field layer by wrapping these three names here
from .field import ScalarField, init_field, run_warmup, step as field_step
from .planner import CellScores, score_candidates, select_waypoint
from .scenario import Scenario
from .uncertainty import sci_widths, termination_check
from .vehicle import advance_towards, take_reading

logger = logging.getLogger(__name__)

# The most cells a table of one plume period may hold for a Plume to record
# it: 2**17 float64 cells, 1 MiB.
CYCLE_TABLE_CELLS = 2**17


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

    The mission holds the vehicle, the belief and the loop; its Plume holds
    the field. The constructor takes the plume's warm field and calibrates
    the sonde, so the object is ready to answer field and belief queries
    before the loop runs.
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

        self.plume = Plume(sc)
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
    def field(self) -> ScalarField:
        return self.plume.field

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
        scored = CellScores()  # the planner's work per cell, which score_candidates renews
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
                windows = {}  # usv_cell -> (score_candidates' result, waypoint cell)
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
                scores = score_candidates(self.belief, usv_cell, ctx, sc.planner, scored)
                windows[usv_cell] = scores, select_waypoint(
                    self.belief, usv_cell, ctx, sc.planner, scores=scores
                )
            scores, waypoint_cell = windows[usv_cell]
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
        """Move the vehicle usv_speed * dt per step until arrival, then
        advance the plume as many steps (Plume.advance).

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
            self.plume.advance(steps, t)
        return in_time


@lru_cache(maxsize=4)
def _warmed(geometry, flow, source, duration, dt):
    """A spun-up field's read-only values and time, and a one-item list for
    the plume's period record, so that it is evicted with them. Arguments that
    differ only in the sign of a zero share an entry: the solver's bits do not
    depend on it. A warm-up that raises is not cached."""
    field = run_warmup(init_field(geometry), flow, source, duration, dt)
    field.values.setflags(write=False)
    return field.values, field.time, [None]


class Plume:
    """One mission's plume: its field and solver steps since the warm field.
    Plumes of an equal scenario in one process share one spin-up, bit for
    bit a fresh one, read-only, and one period record."""

    def __init__(self, scenario: Scenario):
        sc = self._scenario = scenario
        values, time, self._period = _warmed(sc.geometry, sc.flow, sc.source, sc.warmup_s, sc.dt)
        self.field = self._warm = ScalarField(sc.geometry, values, time)
        self.steps = 0
        # without a period record, Brent's cycle search over the leg-end
        # fields: the anchor, the legs and solver steps since it, and the
        # legs after which it moves on
        self._anchor = values
        self._legs = self._since = 0
        self._power = 1

    def advance(self, steps, time) -> ScalarField:
        """The field `steps` solver steps on, at `time`: from the period
        record if the leg ends at or past its onset, else stepped.

        A step's values depend only on the values before it, the flow, the
        source and dt. The record (onset, table) holds the fields of the
        shortest period P from the first step count whose field recurs: for
        every n >= onset, table[(n - onset) % P] is the field n solver steps
        after the warm field. Without a record, a leg end whose bits equal
        the anchor's, `since` steps after it, proves the field repeats every
        `since` steps. If that many fields of the grid fit CYCLE_TABLE_CELLS,
        the record is made (_record_period) and stored. Every Plume that
        makes it makes the same one, so it is written once and never changed.
        """
        sc = self._scenario
        n = self.steps = self.steps + steps
        record = self._period[0]
        if record is not None and n >= record[0]:
            onset, table = record
            self.field = ScalarField(sc.geometry, table[(n - onset) % len(table)], time)
            return self.field
        self.field = field_step(self.field, sc.flow, sc.source, sc.dt, steps)
        if record is not None:
            return self.field
        self._legs += 1
        self._since += steps
        if _same_bits(self.field.values, self._anchor) and (
            self._since * sc.geometry.k <= CYCLE_TABLE_CELLS
        ):
            self._period[0] = self._record_period(self._since)
        elif self._legs == self._power:
            # the solver never writes an array it has returned
            self._anchor = self.field.values
            self._legs = self._since = 0
            self._power *= 2
        return self.field

    def _record_period(self, steps) -> tuple:
        """The record (onset, table) of the field, which recurs after `steps`
        steps: the fields of one period by single steps, cut at its first
        return, then single steps from the warm field to the first field on
        that period, the onset (Brent's second phase). The anchor lies on it,
        so that walk ends at the latest at the anchor's step count."""
        sc = self._scenario
        field = self.field
        cycle = [field.values]
        for _ in range(steps - 1):
            field = field_step(field, sc.flow, sc.source, sc.dt)
            if _same_bits(field.values, cycle[0]):
                break
            cycle.append(field.values)
        position = {values.tobytes(): i for i, values in enumerate(cycle)}
        field, onset = self._warm, 0
        while (i := position.get(field.values.tobytes())) is None:
            field = field_step(field, sc.flow, sc.source, sc.dt)
            onset += 1
        table = cycle[i:] + cycle[:i]
        for values in table:
            values.setflags(write=False)
        return onset, tuple(table)


def _same_bits(a, b) -> bool:
    """Whether two float arrays of one shape hold the same bits, compared as
    bytes: -0.0 differs from +0.0, and a NaN matches only the same NaN bits."""
    return a.tobytes() == b.tobytes()
