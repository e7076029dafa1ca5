"""Uncertainty-aware active tracking of a marine pollution source.

A desk-scale, fully deterministic stack: an advection-diffusion plume
simulator, a categorical grid belief with angular measurement kernels, a
greedy expected-information-gain waypoint planner, credible-interval
uncertainty quantification, a kinematic survey vehicle, and a mission loop
tying them together with action-style goal/feedback/result/cancel semantics.
"""

from .belief import (
    DegenerateUpdateError,
    GridBelief,
    LikelihoodField,
    MeasurementContext,
    bayes_update,
    detection_likelihood,
    miss_likelihood,
    point_estimate,
    uniform_belief,
)
from .field import (
    FlowSpec,
    ScalarField,
    SourceSpec,
    init_field,
    max_stable_dt,
    run_warmup,
    sample_concentration,
    step,
)
from .grid import GridGeometry
from .mission import Mission, MissionFeedback, MissionGoal, MissionStatus, TrackResult
from .planner import PlannerParams, candidate_waypoints, select_waypoint
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_from_dict
from .uncertainty import (
    MarginalDist,
    marginal,
    sci_widths,
    smallest_credible_interval,
    termination_check,
)
from .vehicle import SondeReading, SondeSpec, UsvState, advance_towards, take_reading

__version__ = "0.1.0"
