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
    """Per-cell snapshot, row-major with j outer and i inner; one write per grid row."""
    X, Y = geometry.cell_centers()
    with Path(path).open("w", newline="") as fh:
        fh.write(f"i,j,x_m,y_m,{value_column}\n")
        for j in range(geometry.ny):
            cells = enumerate(zip(X[j].tolist(), Y[j].tolist(), values[j].tolist()))
            fh.write("".join(f"{i},{j},{x:.9g},{y:.9g},{v:.9g}\n" for i, (x, y, v) in cells))


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


def write_trace_csv(path, rows):
    """Planner trace rows (step, i, j, p_hit, ig, selected), all ints and
    floats, formatted as _write_csv would: one f-string per row."""
    with Path(path).open("w", newline="") as fh:
        fh.write("step,cand_i,cand_j,p_hit,ig,selected\n")
        for step, i, j, p, g, sel in rows:
            fh.write(f"{step},{i},{j},{p:.9g},{g:.9g},{sel}\n")


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
