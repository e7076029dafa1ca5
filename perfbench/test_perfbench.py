"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

run.load_program()

from plumetrack import cli  # noqa: E402


def test_generated_scenarios_pass_validate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    for workload in run.WORKLOADS:
        for inp in run.make_inputs(workload, seed=5):
            assert cli.main(["validate", "--scenario", str(inp.path)]) == 0
            assert json.loads(inp.path.read_text())["seed"] == 5


@pytest.fixture(scope="module")
def traced_unit(tmp_path_factory):
    """One traced track mission, with the bindings seen before and after it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT", tmp_path_factory.mktemp("perfbench"))
        inp = run.make_inputs("track", seed=1)[0]
    out = tmp_path_factory.mktemp("out")
    reference = json.loads((run.HERE / "reference.json").read_text())

    def bindings():
        return {
            (module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _ in layers.BINDINGS
        }

    before = bindings()
    tracer = layers.Tracer()
    tracer.install()
    try:
        wrapped = bindings()
        unit = run.mission_unit("track", inp, out, reference, tracer)
    finally:
        tracer.remove()
    return before, wrapped, bindings(), tracer, unit


def test_wrappers_are_removed_after_the_traced_run(traced_unit):
    before, wrapped, after, _, _ = traced_unit
    assert all(wrapped[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_traced_unit_passes_its_checks(traced_unit):
    *_, tracer, unit = traced_unit
    assert unit.failures == []
    assert tracer.calls["planner.select"] == unit.updates - 1
    assert tracer.calls["mission.run"] == 1


def test_layer_self_times_add_up_to_the_unit_time(traced_unit):
    *_, tracer, unit = traced_unit
    assert set(tracer.self_time) <= set(layers.LAYERS)
    total = sum(tracer.self_time.values())
    assert total == pytest.approx(unit.total_s, rel=0.03)
    assert tracer.self_time["mission"] > 0


def test_probe_takes_its_readings_out_of_the_cycles(monkeypatch):
    stamps = iter([0.0, 3.0, 5.0, 9.0])
    monkeypatch.setattr(run, "clock", lambda: next(stamps))
    monkeypatch.setattr(run, "reference_s", lambda: 1.0)
    probe = run.Probe(every=2)
    for _ in range(4):
        probe()
    assert probe.kernel == [1.0, 0.0, 1.0, 0.0]
    assert probe.cycles() == [2.0, 2.0, 3.0]
    assert probe.readings() == [1.0, 1.0]
    assert run.Probe(every=0).readings() == []


def test_cycle_medians_are_per_cycle_over_repeats():
    def unit(name, cycles, scale):
        return run.Unit(name, 0.0, 0.0, cycles, 0.0, 0, 0.0, readings=[run.REFERENCE_S / scale])

    units = [
        unit("a", [1.0, 2.0, 3.0], 1.0),
        unit("a", [1.0, 4.0, 3.0], 1.0),
        unit("a", [0.5, 1.0], 2.0),
        unit("b", [5.0], 1.0),
    ]
    assert run.cycle_medians(units) == [1.0, 2.0, 5.0]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "track", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
