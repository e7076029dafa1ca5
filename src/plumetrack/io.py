"""CSV and JSON artifact writers.

All floats in run artifacts are serialized with 9 significant digits and
files use LF line endings, so a fixed (scenario, seed) pair produces
byte-identical outputs. The JSON writer is hand-rolled for exactly that
reason: stdlib json offers no control over float formatting.
"""

from pathlib import Path

from .belief import GridBelief
from .field import ScalarField


def fmt_float(x) -> str:
    """9-significant-digit decimal rendering, stable across runs."""
    return format(float(x), ".9g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_csv(path, header, rows):
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_grid_csv(path, geometry, values, value_column):
    """Per-cell snapshot, row-major with j outer and i inner; one write per grid row.

    A column shares its x and a row its y, so each is formatted once: one
    %-template holds the i and x of every column, and each row fills in its
    j, y and values ('%.9g' % v is format(v, '.9g'))."""
    X, Y = geometry.cell_centers()
    xs = [format(x, ".9g") for x in X[0].tolist()]
    ys = [format(y, ".9g") for y in Y[:, 0].tolist()]
    template = "".join(f"{i},%s,{x},%s,%.9g\n" for i, x in enumerate(xs))
    args = [None] * (3 * len(xs))
    with Path(path).open("w", newline="") as fh:
        fh.write(f"i,j,x_m,y_m,{value_column}\n")
        for j, y in enumerate(ys):
            args[0::3], args[1::3], args[2::3] = [j] * len(xs), [y] * len(xs), values[j].tolist()
            fh.write(template % tuple(args))


def write_field_csv(path, field: ScalarField):
    write_grid_csv(path, field.geometry, field.values, "concentration")


def write_belief_csv(path, belief: GridBelief):
    write_grid_csv(path, belief.geometry, belief.probs, "probability")


def write_trajectory_csv(path, rows):
    _write_csv(
        path,
        ["time_s", "x_m", "y_m", "concentration", "z", "waypoint_x_m", "waypoint_y_m"],
        rows,
    )


def write_uncertainty_csv(path, rows):
    _write_csv(
        path, ["step", "time_s", "width_x_m", "width_y_m", "est_x_m", "est_y_m"], rows
    )


def write_trace_csv(path, entries):
    """Planner trace, one row per candidate: step,cand_i,cand_j,p_hit,ig,selected.

    Takes MissionLog.trace entries, (step, (cells, ig, p_hit), waypoint_cell).
    The rows after "step," of each distinct (scores tuple, waypoint) pair,
    "i,j,p_hit,ig,selected", are formatted once, keyed by the tuple's
    identity (the entries keep the tuples alive), and each step joins them
    with its own "\n{step},": the same float through the same format is the
    same bytes. The mission's memo gives a window one tuple and one waypoint
    at all its steps, so a search that keeps one belief formats each window
    it revisits once.
    """
    bodies = {}
    with Path(path).open("w", newline="") as fh:
        fh.write("step,cand_i,cand_j,p_hit,ig,selected\n")
        for step, scores, waypoint in entries:
            body = bodies.get((id(scores), waypoint))
            if body is None:
                cells, ig, p_hit = scores
                body = bodies[id(scores), waypoint] = [
                    f"{i},{j},{p:.9g},{g:.9g},{int((i, j) == waypoint)}"
                    for (i, j), p, g in zip(cells, p_hit.tolist(), ig.tolist())
                ]
            fh.write(f"{step}," + f"\n{step},".join(body) + "\n")


def dumps_json(obj, indent=0) -> str:
    """Minimal JSON serializer with fmt_float applied to every float."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + dumps_json(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": ' + dumps_json(v, indent + 2) for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj):
    Path(path).write_text(dumps_json(obj) + "\n")
