"""Command-line front-end: run, batch, validate, and field subcommands."""

import argparse
import sys
import time
from pathlib import Path

from . import io
from .field import MAX_CELL_STEPS, cell_steps, init_field, run_warmup
from .mission import Mission, MissionGoal, MissionStatus, TrackResult
from .scenario import Scenario, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_USAGE = 2


def _result_dict(result: TrackResult, seed: int, scenario_sha: str | None) -> dict:
    # wall time is reported on stdout, never persisted: artifacts must be
    # byte-stable for a fixed (scenario, seed)
    return {
        "status": result.status.value,
        "estimate_m": [result.estimate[0], result.estimate[1]],
        "error_m": result.error_m,
        "sci_m": [result.sci_m[0], result.sci_m[1]],
        "updates": result.updates,
        "sim_time_s": result.sim_time_s,
        "wall_time_s": None,
        "seed": seed,
        "scenario_sha256": scenario_sha,
    }


def write_outputs(result: TrackResult, mission: Mission, out_dir) -> None:
    """Write the artifact set for a completed mission into out_dir.

    planner_trace.csv is written whenever the mission was built to collect
    a trace, header only if it planned no waypoint.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_trajectory_csv(out_dir / "trajectory.csv", mission.log.trajectory)
    io.write_uncertainty_csv(
        out_dir / "uncertainty.csv",
        [(fb.step, fb.sim_time_s, *fb.sci_m, *fb.estimate) for fb in mission.log.feedbacks],
    )
    io.write_belief_csv(out_dir / "belief_final.csv", mission.belief)
    if mission.log.trace is not None:
        io.write_trace_csv(out_dir / "planner_trace.csv", mission.log.trace)
    io.write_json(
        out_dir / "metrics.json",
        _result_dict(result, mission.goal.scenario.seed, mission.goal.scenario.source_sha256),
    )


def run_single(
    scenario: Scenario, seed: int, out_dir: Path, trace: bool = False
) -> tuple[TrackResult, float]:
    """Run one mission and write the full artifact set into out_dir."""
    goal = MissionGoal.for_scenario(scenario, seed=seed)
    mission = Mission(goal, collect_trace=trace)
    t_start = time.perf_counter()
    result = mission.run()
    wall = time.perf_counter() - t_start
    write_outputs(result, mission, out_dir)
    return result, wall


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    result, wall = run_single(scenario, seed, Path(args.out), trace=args.trace)
    print(
        f"status={result.status.value} estimate=({result.estimate[0]:.2f}, "
        f"{result.estimate[1]:.2f}) m error={result.error_m:.2f} m "
        f"sci=({result.sci_m[0]:.1f}, {result.sci_m[1]:.1f}) m "
        f"updates={result.updates} sim_time={result.sim_time_s:.0f} s "
        f"wall_time={wall:.2f} s"
    )
    return EXIT_OK if result.status == MissionStatus.SUCCEEDED else EXIT_ABORTED


def _cmd_batch(args) -> int:
    if args.trials < 1:
        raise ScenarioError(f"--trials must be >= 1, got {args.trials}")
    scenario = parse_scenario(args.scenario)
    base_seed = args.seed if args.seed is not None else scenario.seed
    out_dir = Path(args.out)

    trials: list[tuple[int, TrackResult]] = []
    for t in range(args.trials):
        seed = base_seed + t
        trial_dir = out_dir / f"trial_{t:03d}"
        result, wall = run_single(scenario, seed, trial_dir)
        trials.append((seed, result))
        print(
            f"trial {t}: seed={seed} status={result.status.value} "
            f"error={result.error_m:.2f} m updates={result.updates} "
            f"sim_time={result.sim_time_s:.0f} s wall_time={wall:.2f} s"
        )

    results = [r for _, r in trials]
    succeeded = [r for r in results if r.status == MissionStatus.SUCCEEDED]
    aggregate = {
        "trials": len(results),
        "succeeded": len(succeeded),
        "success_rate": len(succeeded) / len(results),
        "mean_error_m": (
            sum(r.error_m for r in succeeded) / len(succeeded) if succeeded else None
        ),
        "mean_sim_time_s": sum(r.sim_time_s for r in results) / len(results),
    }
    payload = {
        "scenario_sha256": scenario.source_sha256,
        "base_seed": base_seed,
        "trials": [
            {
                "seed": seed,
                "status": r.status.value,
                "error_m": r.error_m,
                "estimate_m": list(r.estimate),
                "sci_m": list(r.sci_m),
                "updates": r.updates,
                "sim_time_s": r.sim_time_s,
                "wall_time_s": None,
            }
            for seed, r in trials
        ],
        "aggregate": aggregate,
    }
    io.write_json(out_dir / "metrics.json", payload)
    print(
        f"batch: {aggregate['succeeded']}/{aggregate['trials']} succeeded, "
        f"mean_error="
        + (
            f"{aggregate['mean_error_m']:.2f} m"
            if aggregate["mean_error_m"] is not None
            else "n/a"
        )
    )
    return EXIT_OK if succeeded else EXIT_ABORTED


def _cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    print(
        f"ok: {args.scenario} (grid {scenario.geometry.nx}x{scenario.geometry.ny}, "
        f"source at {scenario.source.position}, seed {scenario.seed})"
    )
    return EXIT_OK


def _cmd_field(args) -> int:
    scenario = parse_scenario(args.scenario)
    # a NaN passes, for run_warmup to reject
    work = cell_steps(scenario.geometry, args.t, scenario.dt)
    if work > MAX_CELL_STEPS:
        raise ValueError(
            f"--t: nx * ny * t / sim.dt = {work:.3g} cell-steps, more than the "
            f"{MAX_CELL_STEPS:.0e} a field export may take"
        )
    field = init_field(scenario.geometry, 0.0)
    field = run_warmup(field, scenario.flow, scenario.source, args.t, scenario.dt)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_field_csv(out, field)
    print(f"wrote {out} at t={field.time:g} s (max concentration {field.values.max():.6g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumetrack",
        description="Active tracking of a marine pollution source on a simulated plume.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mission and write its artifacts")
    p_run.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--trace", action="store_true", help="also write planner_trace.csv")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run several seeded trials and aggregate")
    p_batch.add_argument("--scenario", required=True)
    p_batch.add_argument("--trials", type=int, required=True)
    p_batch.add_argument("--seed", type=int, default=None, help="base seed (trial t uses seed+t)")
    p_batch.add_argument("--out", default="out")
    p_batch.set_defaults(func=_cmd_batch)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_field = sub.add_parser("field", help="export a plume snapshot after warmup to t")
    p_field.add_argument("--scenario", required=True)
    p_field.add_argument("--t", type=float, required=True, help="warmup duration in seconds")
    p_field.add_argument("--out", default="field.csv", help="output CSV path")
    p_field.set_defaults(func=_cmd_field)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # a grid too large to allocate fails on its first array, before any output
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
