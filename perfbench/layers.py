"""Outside-in layer tracing for the benchmark.

The program has no timing spans of its own, so the benchmark wraps the
public functions of each module at the names the mission loop and the CLI
bind them to, times every call as one span, and puts the original bindings
back afterwards. A span's self time is its duration minus the time of the
spans it encloses; a layer's self time is the sum over its spans.
"""

import importlib
from collections import defaultdict
from time import process_time

# Every duration the benchmark reports is host CPU time of this process. The
# program is single-threaded and compute-bound, so on an idle machine this
# equals wall-clock time; unlike wall-clock time it leaves out the intervals
# in which a shared virtual machine's CPU is taken away from the process.
clock = process_time

# (module, attribute, span). The span name's prefix is the layer. The grid
# module is not wrapped: its cost is timed inside its callers.
BINDINGS = (
    ("plumetrack.scenario", "parse_scenario", "scenario.parse"),
    ("plumetrack.cli", "parse_scenario", "scenario.parse"),
    ("plumetrack.mission", "init_field", "field.init"),
    ("plumetrack.cli", "init_field", "field.init"),
    ("plumetrack.mission", "run_warmup", "field.warmup"),
    ("plumetrack.cli", "run_warmup", "field.warmup"),
    ("plumetrack.mission", "field_step", "field.step"),
    # run_warmup calls step through its own module's global
    ("plumetrack.field", "step", "field.warmup_step"),
    ("plumetrack.mission", "uniform_belief", "belief.init"),
    ("plumetrack.mission", "detection_likelihood", "belief.likelihood"),
    ("plumetrack.mission", "miss_likelihood", "belief.likelihood"),
    ("plumetrack.mission", "bayes_update", "belief.update"),
    ("plumetrack.mission", "point_estimate", "belief.estimate"),
    ("plumetrack.mission", "sci_widths", "uncertainty.sci"),
    ("plumetrack.mission", "termination_check", "uncertainty.stop"),
    ("plumetrack.mission", "take_reading", "vehicle.reading"),
    ("plumetrack.mission", "advance_towards", "vehicle.advance"),
    ("plumetrack.mission", "score_candidates", "planner.score"),
    ("plumetrack.mission", "select_waypoint", "planner.select"),
    # cli calls the writers as io.<name>, so the io module's binding is the one used
    ("plumetrack.io", "write_trajectory_csv", "io.write"),
    ("plumetrack.io", "write_uncertainty_csv", "io.write"),
    ("plumetrack.io", "write_belief_csv", "io.write"),
    ("plumetrack.io", "write_trace_csv", "io.write"),
    ("plumetrack.io", "write_field_csv", "io.write"),
    ("plumetrack.io", "write_json", "io.write"),
)

LAYERS = ("scenario", "field", "belief", "uncertainty", "vehicle", "planner", "io", "mission", "cli")

# Small facts kept per call, read after the unit so that no count is taken
# inside a timed interval: grid cells per solver step, the planner's inputs
# (to count candidates), and the files the writers produced.
NOTES = {
    "field.step": lambda args: args[0].geometry.k,
    "field.warmup_step": lambda args: args[0].geometry.k,
    "planner.select": lambda args: (args[0].geometry, args[1], args[3]),
    "io.write": lambda args: args[0],
}


class Tracer:
    """Span totals per name and self time per layer, kept in memory."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_time = defaultdict(float)
        self.notes = defaultdict(list)
        self._open = []
        self._saved = []

    def wrap(self, name, fn):
        """fn, timed as one span of `name` per call."""
        layer = name.split(".")[0]
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if note is not None:
                self.notes[name].append(note(args))
            self.calls[name] += 1
            children = [0.0]
            self._open.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                duration = clock() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += duration
                self.time[name] += duration
                self.self_time[layer] += duration - children[0]

        return traced

    def install(self):
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def call(tracer, name, fn, *args, **kwargs):
    """Call fn, as a span of `name` when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.wrap(name, fn)(*args, **kwargs)
