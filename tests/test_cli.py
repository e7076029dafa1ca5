import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plumetrack.field as field_module
from plumetrack import GridGeometry, Mission, MissionGoal, parse_scenario
from plumetrack.cli import main, write_outputs
from plumetrack.io import (
    _cell,
    _write_csv,
    dumps_json,
    fmt_float,
    write_grid_csv,
    write_trace_csv,
)
from plumetrack.scenario import resolve_scenario_path

SMALL = {
    "workspace": {"nx": 30, "ny": 20, "h": 5.0, "origin": [0.0, 0.0]},
    "flow": {"v": [1.2247, 1.2247], "lambda": 4.9e-10},
    "source": {"position": [-22.5, -22.5], "rate": 2.5},
    "usv": {"start": [30.0, 30.0], "speed": 2.0},
    "sim": {"dt": 1.0, "warmup_s": 120.0, "max_updates": 400, "max_sim_time_s": 3600.0},
}


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunCommand:
    def test_run_writes_artifacts_and_exits_zero(self, small_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(small_file), "--seed", "7", "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "uncertainty.csv", "belief_final.csv", "metrics.json"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["status"] == "succeeded"
        assert metrics["seed"] == 7
        assert metrics["error_m"] <= 10.0
        assert metrics["wall_time_s"] is None
        assert metrics["scenario_sha256"] == hashlib.sha256(small_file.read_bytes()).hexdigest()
        assert "wall_time" in capsys.readouterr().out

    def test_metrics_key_order(self, small_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(small_file), "--out", str(out)])
        keys = list(json.loads((out / "metrics.json").read_text()).keys())
        assert keys == [
            "status",
            "estimate_m",
            "error_m",
            "sci_m",
            "updates",
            "sim_time_s",
            "wall_time_s",
            "seed",
            "scenario_sha256",
        ]

    def test_deterministic_artifacts(self, small_file, tmp_path):
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--scenario", str(small_file), "--seed", "3", "--out", str(out)]) == 0
            hashes.append((_sha(out / "metrics.json"), _sha(out / "trajectory.csv")))
        assert hashes[0] == hashes[1]

    def test_seed_reaches_the_sensor_noise(self, tmp_path):
        # noise about the size of the auto-calibrated threshold draws from the
        # mission's generator at every reading
        cfg = {**SMALL, "sonde": {"noise_std": 2e-3}}
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(cfg))
        scenario = parse_scenario(path)
        trajectories = []
        for seed in (4, 5):
            cli, api = tmp_path / f"cli_{seed}", tmp_path / f"api_{seed}"
            main(["run", "--scenario", str(path), "--seed", str(seed), "--out", str(cli)])
            mission = Mission(MissionGoal.for_scenario(scenario, seed=seed))
            write_outputs(mission.run(), mission, api)
            trajectory = (cli / "trajectory.csv").read_bytes()
            assert trajectory == (api / "trajectory.csv").read_bytes()
            trajectories.append(trajectory)
        assert trajectories[0] != trajectories[1]

    def test_trace_flag_writes_planner_trace(self, small_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(small_file), "--out", str(out), "--trace"])
        with (out / "planner_trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"step", "cand_i", "cand_j", "p_hit", "ig", "selected"}
        by_step = {}
        for r in rows:
            by_step.setdefault(r["step"], []).append(r)
        for step_rows in by_step.values():
            assert sum(int(r["selected"]) for r in step_rows) == 1

    def test_trace_flag_writes_a_header_when_no_waypoint_is_planned(self, tmp_path):
        # a credible box this wide passes at the first update, before any plan
        cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
        cfg["stopping"]["tau_m"] = 10000.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out), "--trace"]) == 0
        assert json.loads((out / "metrics.json").read_text())["updates"] == 1
        assert (out / "planner_trace.csv").read_text() == "step,cand_i,cand_j,p_hit,ig,selected\n"

    def test_aborted_run_exits_one(self, tmp_path):
        cfg = dict(SMALL)
        cfg["sim"] = {**SMALL["sim"], "max_updates": 0}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["status"] == "aborted"
        assert metrics["estimate_m"] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_negative_seed_names_its_key(self, small_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(small_file), "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_layouts(self, small_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(small_file), "--out", str(out)])
        traj = (out / "trajectory.csv").read_text()
        assert traj.startswith("time_s,x_m,y_m,concentration,z,waypoint_x_m,waypoint_y_m\n")
        assert "\r" not in traj
        unc = (out / "uncertainty.csv").read_text().splitlines()
        assert unc[0] == "step,time_s,width_x_m,width_y_m,est_x_m,est_y_m"
        with (out / "belief_final.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "x_m", "y_m", "probability"]
        assert len(rows) == 1 + 30 * 20
        # row-major: j outer, i inner
        assert [r[0] for r in rows[1:32]] == [str(i) for i in range(30)] + ["0"]
        assert rows[1][2] == fmt_float(-72.5) and rows[1][3] == fmt_float(-47.5)


class TestBatchCommand:
    def test_batch_metrics_and_aggregates(self, small_file, tmp_path):
        out = tmp_path / "batch"
        code = main(
            ["batch", "--scenario", str(small_file), "--trials", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert [t["seed"] for t in payload["trials"]] == [5, 6, 7]
        agg = payload["aggregate"]
        assert agg["trials"] == 3
        succeeded = [t for t in payload["trials"] if t["status"] == "succeeded"]
        assert agg["succeeded"] == len(succeeded)
        assert agg["success_rate"] == pytest.approx(len(succeeded) / 3)
        if succeeded:
            mean_err = sum(t["error_m"] for t in succeeded) / len(succeeded)
            assert agg["mean_error_m"] == pytest.approx(mean_err, rel=1e-6)
        mean_sim = sum(t["sim_time_s"] for t in payload["trials"]) / 3
        assert agg["mean_sim_time_s"] == pytest.approx(mean_sim, rel=1e-6)
        for t in range(3):
            assert (out / f"trial_{t:03d}" / "metrics.json").exists()

    def test_batch_requires_positive_trials(self, small_file, tmp_path):
        assert main(["batch", "--scenario", str(small_file), "--trials", "0"]) == 2

    def test_negative_seed_leaves_no_out_dir(self, small_file, tmp_path, capsys):
        out = tmp_path / "batch"
        argv = ["batch", "--scenario", str(small_file), "--trials", "1", "--seed", "-1"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_validate_ok(self, small_file):
        assert main(["validate", "--scenario", str(small_file)]) == 0

    def test_validate_broken_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL, "source": {"position": [999, 0], "rate": 1.0}}))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "source.position" in capsys.readouterr().err

    def test_validate_bundled_names(self):
        for name in ("scenario_a", "scenario_b", "scenario_upwind"):
            assert main(["validate", "--scenario", name]) == 0

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, on this file
        path = tmp_path / "nested.json"
        path.write_text('{"workspace": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    def test_unknown_scenario_exits_two(self):
        assert main(["validate", "--scenario", "no_such_scenario"]) == 2

    def test_usage_error_exits_two(self):
        assert main(["frobnicate"]) == 2


class TestFieldCommand:
    def test_field_snapshot(self, small_file, tmp_path):
        out = tmp_path / "snap.csv"
        assert main(["field", "--scenario", str(small_file), "--t", "60", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 600
        total = sum(float(r["concentration"]) for r in rows)
        # open boundaries may shed a little mass; most of 60 s of release remains
        assert 0 < total * 5.0**2 <= 2.5 * 60 + 1e-6

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_duration_is_a_usage_error(self, t, tmp_path):
        # a subprocess with a timeout, so a warm-up that never ends fails the
        # test instead of stalling the suite
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = tmp_path / "snap.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "plumetrack", "field", "--scenario", "scenario_a",
             "--t", t, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert not out.exists()


    def test_too_many_cell_steps_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # 5000 cells * 1e6 s / 1 s: 5e9 cell-steps, rejected before a step
        monkeypatch.setattr(field_module, "step", None)
        out = tmp_path / "snap.csv"
        assert main(["field", "--scenario", "scenario_a", "--t", "1e6", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: --t: nx * ny * t / sim.dt = 5e+09 cell-steps, more than the 1e+09 "
            "a field export may take"
        ]
        assert not out.exists()


class TestJsonWriter:
    def test_nine_significant_digits(self):
        assert fmt_float(math.pi) == "3.14159265"
        assert fmt_float(120.0) == "120"
        assert fmt_float(4.9e-10) == "4.9e-10"

    def test_dumps_round_trips(self):
        obj = {
            "a": [1.5, None, True, False],
            "b": {"nested": "tex\"t", "n": 3},
            "c": [],
            "d": {},
        }
        assert json.loads(dumps_json(obj)) == {
            "a": [1.5, None, True, False],
            "b": {"nested": 'tex"t', "n": 3},
            "c": [],
            "d": {},
        }


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1 / 3, 1e22]


def _csv_module_bytes(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path.read_bytes()


class TestCsvWriters:
    """The writers join cells themselves; their bytes equal the csv module's."""

    def test_rows_match_the_csv_module(self, tmp_path):
        values = [None, 0, 7, -3, np.int64(12), np.int32(-5), np.float64(2.5), *SPECIAL_FLOATS]
        rows = [tuple(values[(k + r) % len(values)] for k in range(7)) for r in range(len(values))]
        header = ["time_s", "x_m", "y_m", "concentration", "z", "waypoint_x_m", "waypoint_y_m"]
        _write_csv(tmp_path / "ours.csv", header, rows)
        expected = _csv_module_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "ours.csv").read_bytes() == expected

    def test_trace_matches_the_csv_module(self, tmp_path):
        floats = SPECIAL_FLOATS + [0.25, 1e-6, 1 - 1e-6]
        n = len(floats)

        def scores(shift):
            cells = [(k % 7, k // 7) for k in range(n)]
            ig = np.array([floats[(k + shift) % n] for k in range(n)])
            p_hit = np.array([floats[(-k - shift) % n] for k in range(n)])
            return cells, ig, p_hit

        repeated = scores(0)
        # the repeated tuple is written at steps 1 and 3 with different selections
        entries = [(1, repeated, (3, 0)), (2, scores(5), (0, 0)), (3, repeated, (4, 1))]
        rows = [
            (step, i, j, p, g, int((i, j) == waypoint))
            for step, (cells, ig, p_hit), waypoint in entries
            for (i, j), p, g in zip(cells, p_hit.tolist(), ig.tolist())
        ]
        header = ["step", "cand_i", "cand_j", "p_hit", "ig", "selected"]
        write_trace_csv(tmp_path / "ours.csv", entries)
        expected = _csv_module_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "ours.csv").read_bytes() == expected

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (4, 7)])
    def test_grid_matches_the_csv_module(self, shape, tmp_path):
        ny, nx = shape
        geom = GridGeometry(nx=nx, ny=ny, h=0.7, origin=(1.3, -2.1))
        rng = np.random.default_rng(nx * 100 + ny)
        values = rng.choice(np.array(SPECIAL_FLOATS + [0.25, 3.0]), size=(ny, nx))
        X, Y = geom.cell_centers()
        rows = [
            (i, j, float(X[j, i]), float(Y[j, i]), float(values[j, i]))
            for j in range(ny)
            for i in range(nx)
        ]
        header = ["i", "j", "x_m", "y_m", "probability"]
        write_grid_csv(tmp_path / "ours.csv", geom, values, "probability")
        expected = _csv_module_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "ours.csv").read_bytes() == expected


@pytest.mark.parametrize("command", [["run"], ["batch", "--trials", "1"], ["field", "--t", "0"]])
def test_grid_too_large_to_allocate_is_a_usage_error(command, tmp_path, capsys):
    # 10^16 cells pass validation, but their first array exceeds any address
    # space; zero durations keep them inside the cell-step bound
    cfg = json.loads(resolve_scenario_path("scenario_a").read_text())
    cfg["workspace"].update(nx=100_000_000, ny=100_000_000)
    cfg["sim"].update(warmup_s=0.0, max_sim_time_s=0.0)
    cfg["sonde"]["threshold"] = 0.01
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--scenario", str(path)]) == 0
    out = tmp_path / "out"
    assert main([*command, "--scenario", str(path), "--out", str(out / "x")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "allocate" in err[0]
    assert not out.exists()
