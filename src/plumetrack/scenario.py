"""Scenario configuration: JSON schema, validation, and bundled setups.

A scenario file is a JSON object with the sections

    workspace  nx, ny, h, origin
    flow       v, lambda, effective_lambda (optional, wins over lambda)
    source     position, rate
    usv        start, speed
    sonde      threshold (or threshold_fraction auto-calibration),
               noise_std, sample_period, measure_mode
    planner    window_cells, sigma2_hit, sigma2_miss, detection_ceiling,
               prob_clip, local_radius_cells
    stopping   gamma, tau_m
    sim        dt, warmup_s, max_updates, max_sim_time_s
    seed       base RNG seed

Unknown keys are rejected so typos cannot silently fall back to defaults,
and every invariant violation is reported with its field path. Non-finite
numbers (JSON Infinity, NaN) are rejected too.

Each default is written once, on its dataclass field: workspace, source and
planner keys are the field names of GridGeometry, SourceSpec and
PlannerParams, and the usv, sonde, stopping and sim keys and the seed map
onto Scenario fields through _FLAT_FIELDS, which serves the parser alone.
The flow section builds Scenario.flow, the one flow the solver runs: its
diffusivity is effective_lambda when that key is given and not null, else
lambda. The measurement kernel parameters (sigma2_hit, sigma2_miss,
local_radius_cells) are PlannerParams fields, read by the belief update and
the planner alike. The stopping test (gamma, tau_m) and the budgets
(max_updates, max_sim_time_s) are Scenario fields;
mission.MissionGoal.for_scenario(scenario, **overrides) replaces them for
one mission and validates the result as a parsed file would be.
"""

import hashlib
import json
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .field import (
    MAX_CELL_STEPS,
    FlowSpec,
    SourceSpec,
    cell_steps,
    clock_stalls,
    max_stable_dt,
    peak_bound,
)
from .grid import GridGeometry
from .planner import PlannerParams

MEASURE_MODES = ("on_arrival", "continuous")
_SCENARIO_DIR = Path(__file__).parent / "scenarios"


class ScenarioError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    geometry: GridGeometry
    flow: FlowSpec
    source: SourceSpec
    usv_start: tuple[float, float]
    usv_speed: float = 2.0
    sonde_threshold: float | None = None
    sonde_threshold_fraction: float = 0.01
    sonde_noise_std: float = 0.0
    sonde_sample_period: float = 1.0
    measure_mode: str = "on_arrival"
    planner: PlannerParams = PlannerParams()
    gamma: float = 0.99
    tau_m: float = 10.0
    dt: float = 1.0
    warmup_s: float = 300.0
    max_updates: int = 2000
    max_sim_time_s: float = 3600.0
    seed: int = 0
    source_sha256: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # the parser rejects non-finite numbers, but replace() or a direct call
        # can pass one, so each float's range test below fails on NaN and inf
        if not self.geometry.contains(self.source.position):
            raise ScenarioError(
                f"source.position: {self.source.position} lies outside the workspace"
            )
        if not self.geometry.contains(self.usv_start):
            raise ScenarioError(f"usv.start: {self.usv_start} lies outside the workspace")
        if not 0 < self.usv_speed < math.inf:
            raise ScenarioError(f"usv.speed: must be positive and finite, got {self.usv_speed}")
        try:  # the mission's v_hat
            self.flow.direction()
        except ValueError as exc:
            raise ScenarioError(f"flow.{exc}") from exc
        if self.sonde_threshold is not None and not 0 < self.sonde_threshold < math.inf:
            raise ScenarioError("sonde.threshold: must be positive and finite when given")
        if not 0 < self.sonde_threshold_fraction < 1:
            raise ScenarioError("sonde.threshold_fraction: must be in (0, 1)")
        if not 0 <= self.sonde_noise_std < math.inf:
            raise ScenarioError("sonde.noise_std: must be finite and >= 0")
        if not 0 < self.sonde_sample_period < math.inf:
            raise ScenarioError("sonde.sample_period: must be positive and finite")
        if self.measure_mode not in MEASURE_MODES:
            raise ScenarioError(
                f"sonde.measure_mode: expected one of {MEASURE_MODES}, "
                f"got {reprlib.repr(self.measure_mode)}"
            )
        if not 0 < self.gamma < 1:
            raise ScenarioError(f"stopping.gamma: must be in (0, 1), got {self.gamma}")
        if not 0 < self.tau_m < math.inf:
            raise ScenarioError(f"stopping.tau_m: must be positive and finite, got {self.tau_m}")
        if self.geometry.k == 1 and self.geometry.h > self.tau_m:
            # the SCI widths stay h and there is no other cell to move to
            raise ScenarioError(
                f"workspace: a 1x1 grid offers no waypoint, so its h = {self.geometry.h} "
                f"must not exceed stopping.tau_m = {self.tau_m}"
            )
        if not self.dt > 0:
            raise ScenarioError(f"sim.dt: must be positive, got {self.dt}")
        bound = max_stable_dt(self.flow, self.geometry)
        if self.dt > bound * (1.0 + 1e-12):
            raise ScenarioError(f"sim.dt: {self.dt} exceeds the stability bound {bound:.6g}")
        if not 0 <= self.warmup_s < math.inf:
            raise ScenarioError("sim.warmup_s: must be finite and >= 0")
        if clock_stalls(self.warmup_s, self.dt):
            raise ScenarioError(
                f"sim.warmup_s: the clock stops short of {self.warmup_s:g} s, "
                f"where t + sim.dt == t for dt = {self.dt:g}"
            )
        if self.sonde_threshold is None:
            # auto-calibration reads the warmed-up plume, which must not be empty
            if self.warmup_s == 0:
                raise ScenarioError(
                    "sim.warmup_s: a zero warm-up leaves no plume to calibrate the "
                    "sonde threshold on; give a positive warm-up or set sonde.threshold"
                )
            # field.step's injection per step, in its arithmetic: the source
            # cell holds at least that after the warm-up, so a threshold
            # fraction of it that does not underflow bounds the calibration
            injection = self.source.rate * self.dt / self.geometry.h**2
            if self.sonde_threshold_fraction * injection == 0:
                raise ScenarioError(
                    f"source.rate: the injection per step, rate * dt / h**2 = {injection:g}, "
                    "times sonde.threshold_fraction is 0, so the calibrated sonde "
                    "threshold could be 0; give a larger rate or set sonde.threshold"
                )
        if self.max_updates < 0:
            raise ScenarioError("sim.max_updates: must be >= 0")
        if not 0 <= self.max_sim_time_s < math.inf:
            raise ScenarioError("sim.max_sim_time_s: must be finite and >= 0")
        duration = self.warmup_s + self.max_sim_time_s
        work = cell_steps(self.geometry, duration, self.dt)
        if not work <= MAX_CELL_STEPS:
            raise ScenarioError(
                f"sim.dt: {self.dt:g} s steps make nx * ny * (sim.warmup_s + "
                f"sim.max_sim_time_s) / sim.dt = {work:.3g} cell-steps, more than "
                f"the {MAX_CELL_STEPS:.0e} a run may take"
            )
        if not peak_bound(self.source, self.geometry.h, self.dt, duration) < math.inf:
            raise ScenarioError(
                f"source.rate: {self.source.rate:g} injected every sim.dt into {self.geometry.h:g} "
                f"m cells for sim.warmup_s + sim.max_sim_time_s = {duration:g} s could overflow"
            )
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ScenarioError(f"seed: must be >= 0, got {self.seed}")


class _Section:
    """One schema section: tracks consumed keys and rejects unknown ones."""

    def __init__(self, name: str, data: dict):
        if not isinstance(data, dict):
            raise ScenarioError(f"{name}: expected an object, got {type(data).__name__}")
        self.name = name
        self.data = data
        self.seen: set[str] = set()

    def get(self, key, default=MISSING):
        self.seen.add(key)
        if key in self.data:
            return self.data[key]
        if default is MISSING:
            raise ScenarioError(f"{self.name}.{key}: required key missing")
        return default

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ScenarioError(f"{self.name}: unknown key(s) {reprlib.repr(sorted(unknown))}")


def _number(section, key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{section}.{key}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{section}.{key}: expected a finite number, got {reprlib.repr(value)}")
    return number


def _diffusivity(key, value):
    lam = _number("flow", key, value)
    if lam < 0:  # FlowSpec would reject it, naming its own field
        raise ScenarioError(f"flow.{key}: must be >= 0, got {lam}")
    return lam


def _optional_number(section, key, value):
    return None if value is None else _number(section, key, value)


def _integer(section, key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{section}.{key}: expected an integer, got {reprlib.repr(value)}")
    return value


def _pair(section, key, value):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{section}.{key}: expected a pair [x, y], got {reprlib.repr(value)}")
    return (_number(section, key, value[0]), _number(section, key, value[1]))


def _as_given(section, key, value):
    return value


# converter per field type of the dataclasses that sections map onto
_CONVERTERS = {int: _integer, float: _number, tuple[float, float]: _pair}
# (section, key, Scenario field, converter) for every other JSON key that sets
# one Scenario field; "scenario" is the top level.
_FLAT_FIELDS = (
    ("usv", "start", "usv_start", _pair),
    ("usv", "speed", "usv_speed", _number),
    ("sonde", "threshold", "sonde_threshold", _optional_number),
    ("sonde", "threshold_fraction", "sonde_threshold_fraction", _number),
    ("sonde", "noise_std", "sonde_noise_std", _number),
    ("sonde", "sample_period", "sonde_sample_period", _number),
    ("sonde", "measure_mode", "measure_mode", _as_given),
    ("stopping", "gamma", "gamma", _number),
    ("stopping", "tau_m", "tau_m", _number),
    ("sim", "dt", "dt", _number),
    ("sim", "warmup_s", "warmup_s", _number),
    ("sim", "max_updates", "max_updates", _integer),
    ("sim", "max_sim_time_s", "max_sim_time_s", _number),
    ("scenario", "seed", "seed", _integer),
)
_SECTIONS = ("workspace", "flow", "source", "usv", "sonde", "planner", "stopping", "sim")
_OPTIONAL_SECTIONS = ("sonde", "planner", "stopping", "sim")
# flow.lambda when absent: the molecular diffusivity of a dye in water (m^2/s)
_DEFAULT_LAMBDA = 4.9e-10
# (key, converter, required) per field of the dataclasses whose field names are
# section keys, and the required Scenario fields: built once, as fields() is slow
_SECTION_KEYS = {
    cls: tuple((f.name, _CONVERTERS[f.type], f.default is MISSING) for f in fields(cls))
    for cls in (GridGeometry, SourceSpec, PlannerParams)
}
_REQUIRED = frozenset(f.name for f in fields(Scenario) if f.default is MISSING)


def _from_section(section: _Section, cls):
    """cls built from a section whose keys are its field names. Absent keys
    take the field defaults; cls starts each ValueError with the field name."""
    kwargs = {}
    for key, convert, required in _SECTION_KEYS[cls]:
        if required or key in section.data:
            kwargs[key] = convert(section.name, key, section.get(key))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{section.name}.{exc}") from exc


def scenario_from_dict(data: dict, source_sha256: str | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario: expected a JSON object, got {type(data).__name__}")
    top = _Section("scenario", data)
    sections = {"scenario": top}
    for name in _SECTIONS:
        default = {} if name in _OPTIONAL_SECTIONS else MISSING
        sections[name] = _Section(name, top.get(name, default))

    fl = sections["flow"]
    v = _pair("flow", "v", fl.get("v"))
    diffusivity = _diffusivity("lambda", fl.get("lambda", _DEFAULT_LAMBDA))
    effective = fl.get("effective_lambda", None)
    if effective is not None:  # the solver's diffusivity wins when given
        diffusivity = _diffusivity("effective_lambda", effective)
    kwargs = {
        "geometry": _from_section(sections["workspace"], GridGeometry),
        "flow": FlowSpec(v, diffusivity),
        "source": _from_section(sections["source"], SourceSpec),
        "planner": _from_section(sections["planner"], PlannerParams),
    }
    for section, key, name, convert in _FLAT_FIELDS:
        if key in sections[section].data or name in _REQUIRED:
            kwargs[name] = convert(section, key, sections[section].get(key))
    for section in sections.values():
        section.finish()
    return Scenario(**kwargs, source_sha256=source_sha256)


def bundled_scenario_names() -> list[str]:
    return sorted(p.stem for p in _SCENARIO_DIR.glob("*.json"))


def resolve_scenario_path(name_or_path) -> Path:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path
    bundled = _SCENARIO_DIR / f"{path.name}.json"
    if bundled.exists():
        return bundled
    raise ScenarioError(
        f"scenario {name_or_path!r} is neither a file nor a bundled scenario "
        f"(bundled: {', '.join(bundled_scenario_names())})"
    )


def parse_scenario(name_or_path) -> Scenario:
    """Load and validate a scenario file; defaults fill absent optional keys."""
    path = resolve_scenario_path(name_or_path)
    raw = path.read_bytes()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from exc
    sha = hashlib.sha256(raw).hexdigest()
    try:
        return scenario_from_dict(data, source_sha256=sha)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

