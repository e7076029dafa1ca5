import json
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import plumetrack.field as field_module
from plumetrack import (
    FlowSpec,
    GridGeometry,
    Mission,
    MissionGoal,
    MissionStatus,
    PlannerParams,
    Scenario,
    ScenarioError,
    SourceSpec,
    TrackResult,
    parse_scenario,
    scenario_from_dict,
)
from plumetrack.cli import main
from plumetrack.scenario import (
    _DEFAULT_LAMBDA,
    _FLAT_FIELDS,
    bundled_scenario_names,
    resolve_scenario_path,
)


def minimal_config(**overrides):
    cfg = {
        "workspace": {"nx": 20, "ny": 10, "h": 5.0},
        "flow": {"v": [1.0, 0.5]},
        "source": {"position": [2.5, 2.5], "rate": 1.0},
        "usv": {"start": [-30.0, -10.0]},
    }
    cfg.update(overrides)
    return cfg


class TestBundledScenarios:
    def test_names_present(self):
        names = bundled_scenario_names()
        assert {"scenario_a", "scenario_b", "scenario_upwind"} <= set(names)

    def test_scenario_a_values(self):
        sc = parse_scenario("scenario_a")
        assert sc.source.position == (2.5, 2.5)
        assert sc.source.rate == 2.5
        assert sc.usv_start == (120.0, 120.0)
        assert sc.flow.v == (1.2247, 1.2247)
        assert sc.flow.diffusivity == 4.9e-10
        assert sc.geometry.nx == 100 and sc.geometry.ny == 50 and sc.geometry.h == 5.0
        assert sc.gamma == 0.99 and sc.tau_m == 10.0

    def test_scenario_b_values(self):
        sc = parse_scenario("scenario_b")
        assert sc.source.position == (102.5, -52.5)
        assert sc.usv_start == (-120.0, 120.0)
        assert sc.flow.v == (-1.2247, 1.2247)

    def test_scenario_sha_recorded(self):
        sc = parse_scenario("scenario_a")
        assert sc.source_sha256 is not None and len(sc.source_sha256) == 64

    def test_unknown_name_raises(self):
        with pytest.raises(ScenarioError):
            resolve_scenario_path("scenario_zzz")


class TestValidation:
    def test_defaults_applied(self):
        sc = scenario_from_dict(minimal_config())
        assert sc.usv_speed == 2.0
        assert sc.gamma == 0.99
        assert sc.tau_m == 10.0
        assert sc.dt == 1.0
        assert sc.warmup_s == 300.0
        assert sc.max_updates == 2000
        assert sc.planner.window_cells == 11
        assert sc.planner.local_radius_cells == 5
        assert sc.sonde_threshold is None
        assert sc.sonde_threshold_fraction == 0.01
        assert sc.measure_mode == "on_arrival"
        assert sc.seed == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(minimal_config(extra={"a": 1}))

    def test_unknown_nested_key_named(self):
        cfg = minimal_config()
        cfg["sim"] = {"warmupz": 100.0}
        with pytest.raises(ScenarioError, match="warmupz"):
            scenario_from_dict(cfg)

    def test_source_outside_workspace_names_field(self):
        cfg = minimal_config()
        cfg["source"] = {"position": [500.0, 0.0], "rate": 1.0}
        with pytest.raises(ScenarioError, match="source.position"):
            scenario_from_dict(cfg)

    def test_usv_outside_workspace(self):
        cfg = minimal_config()
        cfg["usv"] = {"start": [0.0, 400.0]}
        with pytest.raises(ScenarioError, match="usv.start"):
            scenario_from_dict(cfg)

    def test_zero_flow_rejected(self):
        cfg = minimal_config()
        cfg["flow"] = {"v": [0.0, 0.0]}
        with pytest.raises(ScenarioError, match="flow.v"):
            scenario_from_dict(cfg)

    def test_flow_too_small_for_a_direction_rejected(self, tmp_path, capsys):
        # |v| rounds to the smallest subnormal, so v / |v| is (1, 1), no unit
        # vector: the file is rejected before a mission warms its plume up
        cfg = minimal_config(flow={"v": [5e-324, 5e-324]})
        with pytest.raises(ScenarioError, match=r"^flow\.v: "):
            scenario_from_dict(cfg)
        sc = scenario_from_dict(minimal_config())
        with pytest.raises(ScenarioError, match=r"^flow\.v: "):
            replace(sc, flow=FlowSpec((5e-324, 5e-324)))
        path = tmp_path / "tiny_flow.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "flow.v: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unstable_dt_rejected(self):
        cfg = minimal_config()
        cfg["sim"] = {"dt": 10.0}
        with pytest.raises(ScenarioError, match="sim.dt"):
            scenario_from_dict(cfg)

    def test_wrong_types_rejected(self):
        cfg = minimal_config()
        cfg["workspace"] = {"nx": 20.5, "ny": 10, "h": 5.0}
        with pytest.raises(ScenarioError, match="workspace.nx"):
            scenario_from_dict(cfg)
        cfg = minimal_config()
        cfg["flow"] = {"v": [1.0]}
        with pytest.raises(ScenarioError, match="flow.v"):
            scenario_from_dict(cfg)

    def test_missing_required_key(self):
        cfg = minimal_config()
        del cfg["source"]
        with pytest.raises(ScenarioError, match="source"):
            scenario_from_dict(cfg)

    def test_bad_measure_mode(self):
        cfg = minimal_config()
        cfg["sonde"] = {"measure_mode": "sometimes"}
        with pytest.raises(ScenarioError, match="measure_mode"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("value", ["Infinity", "NaN", pytest.param("9" * 401, id="9x401")])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("sim", "warmup_s"),
            ("sim", "max_sim_time_s"),
            ("flow", "lambda"),
            ("flow", "effective_lambda"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        # json.loads accepts Infinity and NaN; an infinite warmup never returns.
        # A 401-digit integer overflows a float.
        cfg = minimal_config()
        cfg.setdefault(section, {})[key] = json.loads(value)
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(cfg))
        assert value in path.read_text()
        with pytest.raises(ScenarioError, match=rf"{section}\.{key}: expected a finite number"):
            parse_scenario(path)

    def test_negative_lambda_names_its_key(self):
        cfg = minimal_config(flow={"v": [1.0, 0.5], "lambda": -0.5})
        with pytest.raises(ScenarioError, match=r"^flow\.lambda: must be >= 0, got -0\.5$"):
            scenario_from_dict(cfg)

    def test_negative_effective_lambda_names_its_key(self):
        cfg = minimal_config(flow={"v": [1.0, 0.5], "effective_lambda": -0.25})
        match = r"^flow\.effective_lambda: must be >= 0, got -0\.25$"
        with pytest.raises(ScenarioError, match=match):
            scenario_from_dict(cfg)

    def test_effective_lambda_is_the_flow_diffusivity(self):
        effective = scenario_from_dict(
            minimal_config(flow={"v": [1.0, 0.5], "lambda": 4.9e-10, "effective_lambda": 0.75})
        )
        plain = scenario_from_dict(minimal_config(flow={"v": [1.0, 0.5], "lambda": 0.75}))
        assert effective.flow == plain.flow == FlowSpec((1.0, 0.5), 0.75)
        assert effective == plain
        null = minimal_config(flow={"v": [1.0, 0.5], "lambda": 0.5, "effective_lambda": None})
        assert scenario_from_dict(null).flow.diffusivity == 0.5

    def test_single_cell_grid_needs_tau_at_least_h(self):
        # one cell offers no waypoint: the SCI widths (h, h) must pass at once
        cfg = minimal_config(
            workspace={"nx": 1, "ny": 1, "h": 5.0},
            source={"position": [0.0, 0.0], "rate": 1.0},
            usv={"start": [1.0, 1.0]},
            stopping={"tau_m": 4.9},
        )
        with pytest.raises(ScenarioError, match=r"workspace: a 1x1 grid"):
            scenario_from_dict(cfg)
        cfg["stopping"] = {"tau_m": 5.0}
        result = Mission(MissionGoal(scenario_from_dict(cfg))).run()
        assert result.status == MissionStatus.SUCCEEDED
        assert result.updates == 1

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario(path)


# Objects built without a file skip the parser's finite-number check, so each
# dataclass rejects a non-finite value itself, naming the field.
NON_FINITE_FIELDS = {
    # an infinite warmup never returns from Mission()
    "warmup_s=inf": (lambda sc: MissionGoal.for_scenario(sc, warmup_s=math.inf), "sim.warmup_s"),
    # a NaN budget compares false and disables the time limit
    "max_sim_time_s=nan": (
        lambda sc: MissionGoal.for_scenario(sc, max_sim_time_s=math.nan),
        "sim.max_sim_time_s",
    ),
    "usv_speed=inf": (lambda sc: replace(sc, usv_speed=math.inf), "usv.speed"),
    "tau_m=inf": (lambda sc: replace(sc, tau_m=math.inf), "stopping.tau_m"),
    "usv_start=nan": (lambda sc: replace(sc, usv_start=(math.nan, 0.0)), "usv.start"),
    "noise_std=inf": (lambda sc: replace(sc, sonde_noise_std=math.inf), "sonde.noise_std"),
    "source.rate=nan": (lambda sc: SourceSpec((0.0, 0.0), math.nan), "rate"),
    "source.position=nan": (lambda sc: SourceSpec((math.nan, 0.0), 1.0), "position"),
    "flow.diffusivity=nan": (lambda sc: FlowSpec((1.0, 0.0), math.nan), "diffusivity"),
    "flow.diffusivity=inf": (lambda sc: FlowSpec((1.0, 0.0), math.inf), "diffusivity"),
    "workspace.h=inf": (lambda sc: GridGeometry(4, 4, math.inf), "h"),
    "workspace.origin=nan": (lambda sc: GridGeometry(4, 4, 1.0, (0.0, math.nan)), "origin"),
    # not a non-finite value, but rejected the same way: numpy's generators
    # would reject it later without naming the key
    "seed=-1": (lambda sc: MissionGoal.for_scenario(sc, seed=-1), "seed"),
    # out of range too: the vehicle's speed and sonde settings are checked
    # once, on the Scenario, and the vehicle functions take them as given
    "usv_speed=0": (lambda sc: replace(sc, usv_speed=0.0), "usv.speed"),
    "sonde_threshold=0": (lambda sc: replace(sc, sonde_threshold=0.0), "sonde.threshold"),
    "sonde_noise_std=-0.1": (lambda sc: replace(sc, sonde_noise_std=-0.1), "sonde.noise_std"),
    "sonde_sample_period=0": (
        lambda sc: replace(sc, sonde_sample_period=0.0),
        "sonde.sample_period",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FIELDS))
def test_non_finite_field_rejected(case):
    build, field_path = NON_FINITE_FIELDS[case]
    sc = scenario_from_dict(minimal_config())
    with pytest.raises(ValueError, match=rf"^{re.escape(field_path)}: "):
        build(sc)


# (key path, JSON value) whose error line once echoed the whole value
LONG_VALUES = {
    "source.rate": int("9" * 401),
    "sim.max_updates": "7" * 5000,
    "usv.start": [1.0] * 3000,
}


@pytest.mark.parametrize("key_path", sorted(LONG_VALUES))
def test_error_line_quotes_a_bounded_value(tmp_path, monkeypatch, capsys, key_path):
    section, key = key_path.split(".")
    cfg = minimal_config()
    cfg.setdefault(section, {})[key] = LONG_VALUES[key_path]
    monkeypatch.chdir(tmp_path)
    Path("long.json").write_text(json.dumps(cfg))
    assert main(["validate", "--scenario", "long.json"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(len(line) < 200 for line in lines), lines
    assert key_path in lines[0]


def workspace_of_scenario_a(**workspace):
    """scenario_a on a 10x10 workspace with the given keys replaced, the
    source and the start at the origin."""
    cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
    cfg["workspace"].update({"nx": 10, "ny": 10, **workspace})
    cfg["source"]["position"] = cfg["usv"]["start"] = [0.0, 0.0]
    return cfg


# (workspace keys, key path) of grids across which the product of two
# displacements, bounded by 2 * ((nx + ny) * h)^2, overflows a float
OVERSIZED_WORKSPACES = {
    # max_stable_dt's h**2 raised OverflowError
    "h=1e308": ({"h": 1e308}, "workspace.h"),
    # x_bounds could not convert nx to a float
    "nx=9x401": ({"nx": int("9" * 401), "h": 5.0}, "workspace.nx"),
    # validated, then the miss kernel's angle went NaN mid-mission
    "h=1.3e154": ({"h": 1.3e154}, "workspace.h"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_WORKSPACES))
def test_oversized_workspace_rejected_at_parse_time(tmp_path, capsys, case):
    workspace, key_path = OVERSIZED_WORKSPACES[case]
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(workspace_of_scenario_a(**workspace)))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert f": {key_path}: " in capsys.readouterr().err


def test_workspace_just_inside_the_float_bound_runs():
    # on 10x10 cells the bound 2 * (20 * h)^2 < inf holds up to h = 4.74e152
    with pytest.raises(ValueError, match=r"^h: "):
        GridGeometry(10, 10, 4.75e152)
    sc = scenario_from_dict(workspace_of_scenario_a(h=4.74e152))
    assert isinstance(Mission(MissionGoal(sc)).run(), TrackResult)


def test_underflowing_cell_area_rejected_at_parse_time(tmp_path, capsys):
    # h * h underflowed to 0 and the source injection divided by it: the run
    # ended in a ZeroDivisionError traceback with exit 1, an aborted mission's
    with pytest.raises(ValueError, match=r"^h: the cell area"):
        GridGeometry(10, 10, 1.4e-154)  # h * h is subnormal
    GridGeometry(10, 10, 1.5e-154)
    cfg = workspace_of_scenario_a(h=1e-300)
    cfg["sim"].update(dt=1e-301, warmup_s=0.0)
    cfg["stopping"]["tau_m"] = 1e-305
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--scenario", str(path)]) == 2
        assert ": workspace.h: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def scenario_a_with(section, key, value):
    cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
    cfg[section][key] = value
    return cfg


# (section, key, value, key path named) of scenario_a files that warm up a
# plume whose auto-calibrated threshold is 0, found only when the mission
# starts: run exited 2 after validate said ok
EMPTY_PLUMES = {
    "warmup_s=0": ("sim", "warmup_s", 0.0, "sim.warmup_s"),
    "rate=0": ("source", "rate", 0, "source.rate"),
    # rate * dt / h**2 underflows to 0
    "rate=5e-324": ("source", "rate", 5e-324, "source.rate"),
    # the injection is 1e-322, but 1% of the plume's maximum underflows to 0
    "rate=2.5e-321": ("source", "rate", 2.5e-321, "source.rate"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_PLUMES))
def test_empty_plume_rejected_at_parse_time(tmp_path, capsys, case):
    section, key, value, key_path = EMPTY_PLUMES[case]
    cfg = scenario_a_with(section, key, value)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--scenario", str(path)]) == 2
        assert f": {key_path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a given threshold needs no plume to calibrate on
    cfg["sonde"]["threshold"] = 0.01
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--scenario", str(path)]) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3000), st.floats(1e-3, 0.5), st.sampled_from([0.25, 0.5, 1.0]))
def test_a_validated_auto_calibration_finds_a_plume(units, fraction, h):
    # subnormal rates around the bound, where 1% of the plume underflowed
    cfg = minimal_config(
        workspace={"nx": 20, "ny": 10, "h": h},
        source={"position": [0.5, 0.25], "rate": units * 5e-324},
        usv={"start": [-1.0, -0.5]},
        sonde={"threshold_fraction": fraction},
        sim={"dt": 0.125, "warmup_s": 1.0},
    )
    try:
        sc = scenario_from_dict(cfg)
    except ScenarioError as exc:
        assert str(exc).startswith("source.rate: ")
        return
    assert Mission(MissionGoal(sc)).threshold > 0


@pytest.fixture
def bounded_steps(monkeypatch):
    """field.step that fails after a few calls, so a warm-up that would never
    end fails instead of hanging."""
    step, calls = field_module.step, []

    def bounded(*args):
        calls.append(1)
        if len(calls) > 5:
            raise AssertionError("the solver kept stepping")
        return step(*args)

    monkeypatch.setattr(field_module, "step", bounded)
    return calls


def test_stalled_clock_rejected_at_parse_time(tmp_path, capsys, bounded_steps):
    # 1e17 + 1.0 == 1e17: the warm-up's clock stopped short of its target
    path = tmp_path / "stalled.json"
    path.write_text(json.dumps(scenario_a_with("sim", "warmup_s", 1e17)))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--scenario", str(path)]) == 2
        assert ": sim.warmup_s: the clock stops short" in capsys.readouterr().err
    # a clock that stalls takes t / dt >= 2**53 steps, so the field export's
    # cell-step bound rejects it first; run_warmup's own check is in test_field
    out = tmp_path / "field.csv"
    assert main(["field", "--scenario", "scenario_a", "--t", "1e17", "--out", str(out)]) == 2
    assert "error: --t: " in capsys.readouterr().err
    assert not bounded_steps and not out.exists() and not (tmp_path / "out").exists()
    # the largest warm-up at dt = 1 whose clock still advances passes the
    # stall check, and the cell-step bound rejects it
    with pytest.raises(ScenarioError, match=r"^sim\.dt: "):
        scenario_from_dict(scenario_a_with("sim", "warmup_s", 2.0**53))
    with pytest.raises(ScenarioError, match=r"^sim\.warmup_s: "):
        scenario_from_dict(scenario_a_with("sim", "warmup_s", 2.0**53 + 2))


def test_too_many_cell_steps_rejected_at_parse_time(tmp_path, capsys, bounded_steps):
    # sim.dt: 1e-9 on scenario_a: 5000 cells * 3900 s / 1e-9 s is 1.95e16
    # cell-steps, a warm-up of 3e11 steps
    path = tmp_path / "tiny_dt.json"
    path.write_text(json.dumps(scenario_a_with("sim", "dt", 1e-9)))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert ": sim.dt: " in err and "= 1.95e+16 cell-steps" in err
    assert not bounded_steps and not (tmp_path / "out").exists()
    # 5000 cells * (0 + 2e5 s) / 1 s is the bound itself
    cfg = scenario_a_with("sim", "warmup_s", 0.0)
    cfg["sonde"]["threshold"] = 0.01
    cfg["sim"]["max_sim_time_s"] = 2e5
    scenario_from_dict(cfg)
    cfg["sim"]["max_sim_time_s"] = 200001.0
    with pytest.raises(ScenarioError, match=r"^sim\.dt: .* = 1e\+09 cell-steps"):
        scenario_from_dict(cfg)


def test_the_benchmark_spin_up_grid_is_inside_the_cell_step_bound():
    # 200x100 cells of 2.5 m: 20000 * 3900 s / 1 s = 7.8e7 cell-steps
    cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
    cfg["workspace"].update(nx=200, ny=100, h=2.5)
    sc = scenario_from_dict(cfg)
    assert field_module.cell_steps(sc.geometry, sc.warmup_s + sc.max_sim_time_s, sc.dt) == 7.8e7


def overflowing_injection(rate):
    """scenario_a on 1e-9 m cells with a near-still flow."""
    cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
    cfg["workspace"].update(nx=20, ny=10, h=1e-9)
    cfg["source"] = {"position": [0, 0], "rate": rate}
    cfg["usv"]["start"] = [2e-9, 2e-9]
    cfg["flow"] = {"v": [1e-20, 1e-20], "lambda": 0}
    cfg["sim"].update(dt=1, warmup_s=10, max_sim_time_s=100)
    return cfg


# the injection per step, rate * dt / h**2, overflows at 1e300 and is 1e308
# at 1e290, where the second step overflowed: validate said ok, and run
# exited 2 with "source injection over dt=1.0 makes the source cell not finite"
@pytest.mark.parametrize("rate", [1e300, 1e290])
def test_overflowing_injection_rejected_at_parse_time(tmp_path, capsys, rate):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(overflowing_injection(rate)))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--scenario", str(path)]) == 2
        assert ": source.rate: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # 110 s of injections of 1e298 stay finite, and such a mission runs
    sc = scenario_from_dict(overflowing_injection(1e280))
    assert isinstance(Mission(MissionGoal(sc)).run(), TrackResult)


class TestRoundTrip:
    def test_round_trip_with_explicit_threshold_and_lambda(self):
        cfg = minimal_config()
        cfg["sonde"] = {"threshold": 0.125, "noise_std": 0.01}
        cfg["flow"] = {"v": [1.0, 0.5], "lambda": 4.9e-10, "effective_lambda": 0.75}
        sc = scenario_from_dict(cfg)
        assert sc.sonde_threshold == 0.125
        assert sc.flow.diffusivity == 0.75

    def test_seed_override(self):
        sc = scenario_from_dict(minimal_config())
        assert MissionGoal.for_scenario(sc, seed=5).scenario.seed == 5
        assert MissionGoal.for_scenario(sc, seed=0).scenario == sc
        assert MissionGoal.for_scenario(sc, seed=5).scenario != sc


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_defaults():
    """{(section, key): default text} from the README scenario table, where a
    default is the backquoted value in the parentheses after a backquoted key,
    as in `speed` (`2.0` m/s). The seed row names no key."""
    shown = {}
    for section, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M):
        if section == "seed":
            keys = "`seed` " + keys.removeprefix("base RNG seed ")
        for key, text in re.findall(r"`(\w+)` \([^)`]*`([^`]+)`", keys):
            shown[section, key] = text
    return shown


def field_defaults():
    """{(section, key): default} for every key whose dataclass field default is
    a value, and flow.lambda's _DEFAULT_LAMBDA."""
    defaults = {("flow", "lambda"): _DEFAULT_LAMBDA}
    sections = (("workspace", GridGeometry), ("source", SourceSpec), ("planner", PlannerParams))
    for section, cls in sections:
        defaults.update({(section, f.name): f.default for f in fields(cls)})
    by_name = {f.name: f.default for f in fields(Scenario)}
    for section, key, name, _ in _FLAT_FIELDS:
        defaults["seed" if key == "seed" else section, key] = by_name[name]
    return {k: v for k, v in defaults.items() if v is not MISSING and v is not None}


def test_readme_table_shows_the_field_defaults():
    shown, defaults = readme_defaults(), field_defaults()
    assert shown.keys() == defaults.keys()
    for (section, key), text in shown.items():
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # a bare word such as on_arrival
        default = defaults[section, key]
        assert value == (list(default) if isinstance(default, tuple) else default), (section, key)
