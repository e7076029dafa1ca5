"""Benchmark of plumetrack: three workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload track --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
--trace 0 reports the end-to-end metrics from untraced units. --trace 1
alternates untraced and traced units and reports the per-layer metrics.
perfbench/README.md defines every workload and metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from time import perf_counter

from layers import LAYERS, Tracer, call, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Bundled scenarios each workload runs, in rotation.
WORKLOADS = {
    "track": ("scenario_a", "scenario_b"),
    "search": ("scenario_upwind",),
    "spinup": ("scenario_a", "scenario_b"),
}
SEARCH_BUDGET = 100
# Spin-up grid: the bundled 500 x 250 m extent at h = 2.5 m. With dt = 1 s the
# Courant number is (|vx| + |vy|) dt / h = 2.4494 / 2.5 = 0.98.
SPINUP_GRID = {"nx": 200, "ny": 100, "h": 2.5}
SPINUP_T = 1800.0
TRACK_MAX_ERROR_M = 10.0
# After every measured unit, set-ups of its input run back to back: at least
# SETUP_REPEATS, for at least SETUP_SECONDS (a spin-up set-up takes well under
# a millisecond). Spread over the run like the units, they keep one quiet or
# busy stretch of a shared machine from setting the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.02
# The shared machine's speed drifts: the same unit's CPU time moves by up to
# half within seconds to minutes. So a short reference kernel that uses no
# plumetrack code is timed inside every untraced unit (after each mission
# cycle, after every KERNEL_EVERY_STEPS-th spin-up solver step) and after
# each batch of set-ups. Its time is left out of every measured interval,
# and each end-to-end duration is scaled by REFERENCE_S over the mean
# reading taken with it: it is reported in seconds at the host speed at
# which the kernel takes REFERENCE_S (its fast state on the baseline
# machine). A change to the program moves the durations and not the
# readings; host speed moves both.
REFERENCE_S = 0.00115
KERNEL_EVERY_STEPS = 50

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "sim_rate": "sim_s/s",
    "peak_rss_mb": "MiB",
    "error_m": "m",
    "updates": "count",
    "mission_sim_s": "sim_s",
}

PER_LAYER = {
    "planner.plan_calls": "count",
    "planner.plan_s": "s",
    "planner.candidates": "count",
    "planner.us_per_candidate": "us",
    "field.step_calls": "count",
    "field.step_s": "s",
    "field.ns_per_cell_step": "ns",
    "field.warmup_s": "s",
    "belief.likelihood_calls": "count",
    "belief.likelihood_s": "s",
    "belief.update_s": "s",
    "belief.estimate_s": "s",
    "belief.degenerate_updates": "count",
    "uncertainty.sci_calls": "count",
    "uncertainty.sci_s": "s",
    "vehicle.reading_s": "s",
    "vehicle.advance_s": "s",
    "mission.field_steps_per_update": "count",
    "io.write_s": "s",
    "io.rows": "count",
    "io.bytes": "B",
    "scenario.parse_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unit_s": "s",
    "trace_overhead_s": "s",
    "cold_unit_s": "s",
    "decide_samples": "count",
}


def load_program():
    """Put this checkout's src/ first on the import path; fail without it."""
    init = SRC / "plumetrack" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a plumetrack checkout")
    sys.path.insert(0, str(SRC))
    import plumetrack

    if Path(plumetrack.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported plumetrack from {plumetrack.__file__}, not {init}")


@dataclass(frozen=True)
class Input:
    name: str
    path: Path
    seed: int
    collect_trace: bool


@dataclass
class Unit:
    """One unit of work: a mission run plus its artifact write, or one spin-up
    plus its CSV export."""

    name: str
    wall_s: float
    total_s: float
    cycles: list
    sim_s: float
    updates: int
    error_m: float
    digests: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)
    # reference kernel readings taken during the unit (none when traced)
    readings: list = dc_field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this unit's CPU seconds to reference-speed seconds."""
        return REFERENCE_S / statistics.fmean(self.readings) if self.readings else 1.0


def make_inputs(workload: str, seed: int) -> list[Input]:
    """Write the workload's scenario files, generated from the seed."""
    from plumetrack.scenario import resolve_scenario_path

    shutil.rmtree(OUT / workload, ignore_errors=True)
    inputs = []
    for name in WORKLOADS[workload]:
        data = json.loads(resolve_scenario_path(name).read_text())
        data["seed"] = seed
        if workload == "search":
            data["sim"]["max_updates"] = SEARCH_BUDGET
        elif workload == "spinup":
            data["workspace"].update(SPINUP_GRID)
        base = OUT / workload / name
        base.mkdir(parents=True, exist_ok=True)
        path = base / "scenario.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        inputs.append(Input(name, path, seed, workload == "search"))
    return inputs


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def waypoint_digest(trajectory) -> str:
    """Digest of the waypoint sequence, one 'x,y' line per planning step."""
    lines = "".join(f"{row[5]!r},{row[6]!r}\n" for row in trajectory if row[5] is not None)
    return hashlib.sha256(lines.encode()).hexdigest()


# -- host speed ----------------------------------------------------------------


def reference_s() -> float:
    """CPU seconds of the reference kernel: numpy arithmetic on an array of a
    mission grid's size and a pure-Python loop, the mix plumetrack runs."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 5000)
    t0 = clock()
    total = 0.0
    for i in range(1, 31):
        b = np.exp(-a * (i * 1e-3))
        b /= b.sum()
        total += float((b * np.log(b)).sum()) + sum(j * 0.5 for j in range(100))
    return clock() - t0


class Probe:
    """Called at the start of every cycle: stamps the host time, then reads
    the reference kernel after every `every`-th stamp (never when `every`
    is 0, as in traced units, whose layer times must not include it)."""

    def __init__(self, every: int):
        self.every = every
        self.stamps = []
        self.kernel = []  # kernel[j]: seconds of the reading taken after stamp j

    def __call__(self, *_):
        self.stamps.append(clock())
        read = self.every and (len(self.stamps) - 1) % self.every == 0
        self.kernel.append(reference_s() if read else 0.0)

    def cycles(self) -> list:
        """Host seconds between consecutive stamps, less the readings."""
        return [b - a - k for a, b, k in zip(self.stamps, self.stamps[1:], self.kernel)]

    def readings(self) -> list:
        return self.kernel[:: self.every] if self.every else []


# -- missions (track, search) --------------------------------------------------


def mission_setup(inp: Input, tracer=None, feedback=None):
    import numpy as np
    from plumetrack import mission, scenario

    sc = scenario.parse_scenario(inp.path)

    def construct():
        goal = mission.MissionGoal.for_scenario(sc)
        rng = np.random.default_rng(inp.seed)
        return mission.Mission(goal, rng=rng, feedback=feedback, collect_trace=inp.collect_trace)

    return call(tracer, "mission.init", construct)


def mission_unit(workload: str, inp: Input, out: Path, reference: dict, tracer=None) -> Unit:
    from plumetrack import cli
    from plumetrack.mission import MissionStatus

    probe = Probe(every=0 if tracer else 1)
    t0 = clock()
    m = mission_setup(inp, tracer, feedback=probe)
    t1 = clock()
    result = call(tracer, "mission.run", m.run)
    call(tracer, "cli.write", cli.write_outputs, result, m, out)
    t2 = clock()

    kernel_s = sum(probe.kernel)
    unit = Unit(
        name=inp.name,
        wall_s=t2 - t1 - kernel_s,
        total_s=t2 - t0 - kernel_s,
        cycles=probe.cycles(),
        sim_s=result.sim_time_s,
        updates=result.updates,
        error_m=result.error_m,
        digests={a: sha256(out / a) for a in ("trajectory.csv", "belief_final.csv")},
        readings=probe.readings(),
    )
    digest = waypoint_digest(m.log.trajectory)
    if digest != reference[f"{workload}/{inp.name}"]:
        unit.failures.append("waypoint sequence differs from the reference digest")
    if workload == "track":
        if result.status is not MissionStatus.SUCCEEDED:
            unit.failures.append(f"status {result.status.value}, expected succeeded")
        if not result.error_m <= TRACK_MAX_ERROR_M:
            unit.failures.append(f"error {result.error_m:.3f} m > {TRACK_MAX_ERROR_M} m")
    else:
        if result.status is not MissionStatus.ABORTED or result.updates != SEARCH_BUDGET:
            unit.failures.append(
                f"status {result.status.value} after {result.updates} updates, "
                f"expected aborted after {SEARCH_BUDGET}"
            )
        if m.last_hit is not None or any(row[4] for row in m.log.trajectory):
            unit.failures.append("search detected the plume")
    return unit


# -- spin-up (spinup) ----------------------------------------------------------


@contextlib.contextmanager
def stamped(module, attr, probe):
    """Call the probe at the start of each call through module.attr."""
    fn = getattr(module, attr)

    def stamp(*args, **kwargs):
        probe()
        return fn(*args, **kwargs)

    setattr(module, attr, stamp)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def spinup_setup(inp: Input, tracer=None):
    from plumetrack import field, scenario

    sc = scenario.parse_scenario(inp.path)
    call(tracer, "field.init", field.init_field, sc.geometry, 0.0)
    return sc


def spinup_unit(workload: str, inp: Input, out: Path, reference: dict, tracer=None) -> Unit:
    import numpy as np
    from plumetrack import cli, field

    csv = out / "field.csv"
    argv = ["field", "--scenario", str(inp.path), "--t", f"{SPINUP_T:g}", "--out", str(csv)]
    probe = Probe(every=0 if tracer else KERNEL_EVERY_STEPS)
    t0 = clock()
    sc = spinup_setup(inp, tracer)
    with stamped(field, "step", probe), contextlib.redirect_stdout(io.StringIO()):
        t1 = clock()
        code = call(tracer, "cli.main", cli.main, argv)
        t2 = clock()

    kernel_s = sum(probe.kernel)
    unit = Unit(
        name=inp.name,
        wall_s=t2 - t1 - kernel_s,
        total_s=t2 - t0 - kernel_s,
        cycles=probe.cycles(),
        sim_s=len(probe.stamps) * sc.dt,
        updates=len(probe.stamps),
        error_m=float("nan"),
        readings=probe.readings(),
    )
    if code != 0:
        unit.failures.append(f"plumetrack field exited {code}")
        return unit
    unit.digests = {"field.csv": sha256(csv)}
    table = np.loadtxt(csv, delimiter=",", skiprows=1)
    values = table[:, 4]
    if table.shape[0] != sc.geometry.k or not np.all(np.isfinite(values)) or values.min() < 0:
        unit.failures.append("field is not finite and non-negative on every cell")
    peak = table[int(np.argmax(values))]
    unit.error_m = float(np.hypot(peak[2] - sc.source.position[0], peak[3] - sc.source.position[1]))
    return unit


# -- run loop ------------------------------------------------------------------


def time_setups(setup_fn, inp: Input) -> tuple[list, list]:
    """(input name, seconds) of back-to-back set-ups of one input, unscaled
    and at reference speed. The kernel is read as many times as there were
    set-ups, after them: read between them, it disturbs a spin-up set-up's
    tenth of a millisecond."""
    samples = []
    start = perf_counter()
    while len(samples) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        t0 = clock()
        setup_fn(inp)
        samples.append((inp.name, clock() - t0))
    scale = REFERENCE_S / statistics.fmean(reference_s() for _ in samples)
    return samples, [(name, t * scale) for name, t in samples]


def medians(pairs) -> dict:
    """Median of the values of each input, from (input name, value) pairs."""
    by_input = defaultdict(list)
    for name, value in pairs:
        by_input[name].append(value)
    return {name: statistics.median(v) for name, v in by_input.items()}


def per_input(units, attr) -> float:
    """Mean over the workload's inputs of each input's median of attr."""
    return statistics.fmean(medians((u.name, getattr(u, attr)) for u in units).values())


def cycle_medians(units) -> list:
    """The median time of each cycle over the repeats of its input, at
    reference speed. Every unit of an input does the same work in its j-th
    cycle, so this leaves out the host's brief slow spells, which would
    otherwise make up the slowest tenth of the pooled cycles."""
    by_input = defaultdict(list)
    for u in units:
        by_input[u.name].append([x * u.scale for x in u.cycles])
    return [
        statistics.median(c[j] for c in runs)
        for runs in by_input.values()
        for j in range(min(len(c) for c in runs))
    ]


def end_to_end(plain: list, setups: list) -> dict:
    """End-to-end metrics, every duration at reference speed."""
    walls = medians((u.name, u.wall_s * u.scale) for u in plain)
    sims = medians((u.name, u.sim_s) for u in plain)
    cycles = cycle_medians(plain)
    return {
        "setup_s": statistics.fmean(medians(setups).values()),
        "wall_s": statistics.fmean(walls.values()),
        "decide_ms_p50": statistics.median(cycles) * 1e3,
        "decide_ms_p90": statistics.quantiles(cycles, n=10)[8] * 1e3,
        "sim_rate": sum(sims.values()) / sum(walls.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_m": per_input(plain, "error_m"),
        "updates": per_input(plain, "updates"),
        "mission_sim_s": statistics.fmean(sims.values()),
    }


def per_layer(tracer: Tracer, traced: list, io_rows: int, io_bytes: int) -> dict:
    """Per-layer totals per traced unit; self times add up to unit_s."""
    from plumetrack.planner import candidate_waypoints

    n = len(traced)
    t, c, notes = tracer.time, tracer.calls, tracer.notes
    candidates = sum(len(candidate_waypoints(*args)) for args in notes["planner.select"])
    cell_steps = sum(notes["field.step"]) + sum(notes["field.warmup_step"])
    plan_s = t["planner.score"] + t["planner.select"]
    step_s = t["field.step"] + t["field.warmup_step"]
    updates = sum(u.updates for u in traced) if c["mission.run"] else 0
    metrics = {
        "planner.plan_calls": c["planner.select"] / n,
        "planner.plan_s": plan_s / n,
        "planner.candidates": candidates / n,
        "planner.us_per_candidate": plan_s / candidates * 1e6 if candidates else 0.0,
        "field.step_calls": (c["field.step"] + c["field.warmup_step"]) / n,
        "field.step_s": step_s / n,
        "field.ns_per_cell_step": step_s / cell_steps * 1e9,
        "field.warmup_s": t["field.warmup"] / n,
        "belief.likelihood_calls": c["belief.likelihood"] / n,
        "belief.likelihood_s": t["belief.likelihood"] / n,
        "belief.update_s": t["belief.update"] / n,
        "belief.estimate_s": t["belief.estimate"] / n,
        "belief.degenerate_updates": tracer.errors["belief.update"] / n,
        "uncertainty.sci_calls": c["uncertainty.sci"] / n,
        "uncertainty.sci_s": t["uncertainty.sci"] / n,
        "vehicle.reading_s": t["vehicle.reading"] / n,
        "vehicle.advance_s": t["vehicle.advance"] / n,
        "mission.field_steps_per_update": c["field.step"] / updates if updates else 0.0,
        "io.write_s": t["io.write"] / n,
        "io.rows": io_rows / n,
        "io.bytes": io_bytes / n,
        "scenario.parse_s": t["scenario.parse"] / n,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_time[layer] / n
    metrics["unit_s"] = statistics.fmean(u.total_s for u in traced)
    return metrics


def written(paths) -> tuple[int, int]:
    """CSV data rows and bytes in the files a unit wrote."""
    rows = size = 0
    for path in set(paths):
        data = Path(path).read_bytes()
        size += len(data)
        if str(path).endswith(".csv"):
            rows += data.count(b"\n") - 1
    return rows, size


def environment(workload: str, seed: int, inputs: list) -> dict:
    import numpy as np
    from plumetrack.scenario import parse_scenario

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "workload": workload,
        "seed": seed,
        "grid_array_bytes": {
            i.name: parse_scenario(i.path).geometry.k * np.dtype(float).itemsize for i in inputs
        },
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                env[f"L{level}_cache"] = (index / "size").read_text().strip()
    return env


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; return (metrics, attempted, failed, environment)."""
    reference = json.loads((HERE / "reference.json").read_text())
    inputs = make_inputs(workload, seed)
    unit_fn = spinup_unit if workload == "spinup" else mission_unit
    setup_fn = spinup_setup if workload == "spinup" else mission_setup
    first_digest = {}
    attempted = failed = io_rows = io_bytes = 0

    def attempt(inp, tracer=None):
        nonlocal attempted, failed, io_rows, io_bytes
        attempted += 1
        # a fresh output directory per unit, as a new `plumetrack run --out` has
        out = OUT / workload / inp.name / f"out{attempted}"
        out.mkdir(parents=True)
        try:
            unit = unit_fn(workload, inp, out, reference, tracer)
        except Exception:
            failed += 1
            print(f"perfbench: {inp.name} raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                rows, size = written(tracer.notes.pop("io.write", []))
                io_rows += rows
                io_bytes += size
            shutil.rmtree(out)
        for artifact, digest in unit.digests.items():
            if first_digest.setdefault((inp.name, artifact), digest) != digest:
                unit.failures.append(f"{artifact} differs between repeats")
        if unit.failures:
            failed += 1
            print(f"perfbench: {inp.name}: {'; '.join(unit.failures)}", file=sys.stderr)
        return unit

    # The process-wide lru_caches (grid cell centres, the planner's kernel
    # table) are filled by one untimed cold unit per input, so every measured
    # unit runs warm, as repeated missions in one process do.
    cold = [attempt(inp) for inp in inputs]
    plain, traced, setups, raw_setups = [], [], [], []
    tracer = Tracer() if trace else None
    start = perf_counter()
    i = 0
    # whole rotations only, so every input weighs the same in the totals
    while i % len(inputs) or i == 0 or perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        i += 1
        plain.append(attempt(inp))
        raw, scaled = time_setups(setup_fn, inp)
        raw_setups += raw
        setups += scaled
        if trace:
            tracer.install()
            try:
                traced.append(attempt(inp, tracer))
            finally:
                tracer.remove()

    plain = [u for u in plain if u is not None]
    traced = [u for u in traced if u is not None]
    if not plain or (trace and not traced):
        sys.exit("perfbench: every measured unit raised; no metrics")

    env = environment(workload, seed, inputs)
    env["units"] = len(plain)
    env["decide_samples"] = sum(len(u.cycles) for u in plain)
    readings = [r for u in plain for r in u.readings]
    env["reference_ms"] = {
        "nominal": REFERENCE_S * 1e3,
        "median": statistics.median(readings) * 1e3,
        "min": min(readings) * 1e3,
        "max": max(readings) * 1e3,
    }
    # the same medians from the unscaled CPU times
    env["unscaled"] = {
        "setup_s": statistics.fmean(medians(raw_setups).values()),
        "wall_s": per_input(plain, "wall_s"),
    }
    if not trace:
        return end_to_end(plain, setups), attempted, failed, env
    metrics = per_layer(tracer, traced, io_rows, io_bytes)
    metrics["trace_overhead_s"] = per_input(traced, "wall_s") - per_input(plain, "wall_s")
    metrics["cold_unit_s"] = statistics.fmean(u.total_s for u in cold if u is not None)
    metrics["decide_samples"] = env["decide_samples"]
    return metrics, attempted, failed, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    metrics, attempted, failed, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
