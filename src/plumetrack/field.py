"""Advection-diffusion plume simulation on the workspace grid.

The pollutant concentration c(p, t) follows

    dc/dt - lambda * laplace(c) + div(v * c) = f(p)

with a spatially uniform flow v and a point source f. The solver is an
explicit finite-volume scheme, operator-split into a first-order upwind
advection substep and a central-difference diffusion substep, followed by
source injection. Both substeps are written in flux form and each is
monotone (positivity preserving) for time steps within the CFL bound.

Boundaries are open: zero-gradient ghost cells let outflow leave the domain
and give no diffusive boundary flux, and an inflow wall takes nothing in.
So total mass is conserved exactly, up to round-off, while no mass reaches
an outflow wall.

A step works on the raveled grid, one contiguous shift per flux difference,
and does the 2D flux form's operations in its order, so it is bitwise equal
to it. Its temporaries are per-thread scratch reused across steps. One call
can take several steps: it checks dt, the stability bound and dt / h, finds
the source cell and builds its flux views once per call, checks the injected
source cell on every step, and checks non-negativity once, on the returned
field. A NaN formed by an earlier step still fails that check, since it
stays NaN through every later step. Its steps alternate between the returned
array and one more per-thread array, so only the returned array is new, and
the result is bitwise equal to one call per step.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .grid import GridGeometry


@dataclass(frozen=True)
class FlowSpec:
    """Uniform wave velocity (m/s) and diffusion coefficient (m^2/s)."""

    v: tuple[float, float]
    diffusivity: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.v[0]) and math.isfinite(self.v[1])):
            raise ValueError(f"v: must be finite, got {self.v}")
        if not 0 <= self.diffusivity < math.inf:
            raise ValueError(f"diffusivity: must be finite and >= 0, got {self.diffusivity}")

    def direction(self) -> tuple[float, float]:
        """v / |v|, the kernels' v_hat. Raises when |v| is zero or so near the
        underflow limit that the quotient fails MeasurementContext's unit test,
        and when it overflows to inf, which makes the quotient zero."""
        with np.errstate(over="ignore"):
            speed = float(np.hypot(*self.v))
        if speed > 0:
            v_hat = (self.v[0] / speed, self.v[1] / speed)
            if abs(float(np.hypot(*v_hat)) - 1.0) <= 1e-6:
                return v_hat
        raise ValueError(f"v: {self.v} is too small to give the wave direction tracking needs")


@dataclass(frozen=True)
class SourceSpec:
    """Point release: world position (m) and mass release rate (kg/s)."""

    position: tuple[float, float]
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.position[0]) and math.isfinite(self.position[1])):
            raise ValueError(f"position: must be finite, got {self.position}")
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"rate: must be finite and >= 0, got {self.rate}")


@dataclass
class ScalarField:
    """Depth-averaged concentration (kg/m^2) per cell, shape (ny, nx), at a sim time."""

    geometry: GridGeometry
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.ny, self.geometry.nx):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.geometry.ny}, {self.geometry.nx})"
            )
        # one reduction per solver call; written so that a NaN fails it
        if not self.values.min() >= 0:
            raise ValueError("concentration values must be non-negative")

    def total_mass(self) -> float:
        """Total pollutant mass in kg (unit depth)."""
        return float(self.values.sum()) * self.geometry.h**2


def init_field(geometry: GridGeometry, c0: float = 0.0) -> ScalarField:
    """Uniform initial concentration c0 at time zero."""
    if not c0 >= 0:
        raise ValueError(f"initial concentration must be >= 0, got {c0}")
    return ScalarField(geometry, np.full((geometry.ny, geometry.nx), float(c0)), 0.0)


def max_stable_dt(flow: FlowSpec, geometry: GridGeometry) -> float:
    """Largest dt with (|vx|+|vy|)*dt/h <= 1 and 4*lambda*dt/h^2 <= 1.

    Returns +inf when there is no transport at all (v = 0 and lambda = 0).
    """
    h = geometry.h
    speed = abs(flow.v[0]) + abs(flow.v[1])
    dt_adv = h / speed if speed > 0 else math.inf
    dt_diff = h**2 / (4.0 * flow.diffusivity) if flow.diffusivity > 0 else math.inf
    return min(dt_adv, dt_diff)


def step(
    field: ScalarField, flow: FlowSpec, source: SourceSpec, dt: float, steps: int = 1
) -> ScalarField:
    """Advance the field by `steps` explicit time steps of length dt.

    Each step is upwind advection, then central diffusion, then injection of
    source.rate * dt / h^2 into the cell containing the source. The result,
    values and time, is bitwise equal to that of `steps` chained one-step
    calls, and so is any ValueError raised.

    Once per call, before any step: steps >= 1, dt finite and positive and
    within the stability bound, and, where a velocity or diffusivity at the
    float underflow limit lets the bound near the largest float, dt / h
    finite. On every step: the source cell after injection is finite. Once,
    on the returned field: ScalarField's non-negativity check. A NaN that
    forms mid-call still fails that one min() check, because a NaN cell stays
    NaN through every later step's arithmetic and through np.maximum; where
    it reaches the source cell first, the injection check reports it as the
    non-negativity failure a chained call raises at the step that made it.
    """
    if not steps >= 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    bound = max_stable_dt(flow, field.geometry)
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} exceeds stability bound {bound}")

    geom = field.geometry
    nx, n, h = geom.nx, geom.k, geom.h
    s = dt / h
    if not s < math.inf:
        raise ValueError(f"dt / h = {dt} / {h} is not a finite float")
    lam = flow.diffusivity
    out = np.empty(n)
    scratch, delta, faces, spare = _scratch(n, nx)
    source_cell = geom.flat_index(*geom.cell_of(source.position)) if source.rate > 0 else None
    injection = source.rate * dt / h**2

    # Face k of an axis with cell stride t lies between cells k - t and k, so
    # a flux difference is f[t:] - f[:-t]. Along x the face between two rows
    # is the right wall of one and the left wall of the next. Per moving
    # axis: the upwind flux p (p[k] leaves cell k), the zero-gradient ghosts
    # with the wall cells' fluxes they copy, the difference's operands, and
    # for x an inflow wall's fluxes and differences.
    advection = []
    for axis, (t, v) in enumerate(zip((1, nx), flow.v)):
        if v == 0.0:
            continue
        f = faces[: n + t]
        p = f[t:] if v > 0 else f[:n]
        inflow = None
        if axis == 0:
            wall = slice(0, n, nx) if v > 0 else slice(nx - 1, n, nx)
            inflow = (p[wall], delta[wall])
        advection.append((v, p, (f[:t], p[:t]), (f[n:], p[n - t :]), f[t:], f[:n], inflow))
    # per axis when diffusing: the inner faces, the wall faces, the operands
    diffusion = []
    if lam > 0:
        for axis, t in enumerate((1, nx)):
            f = faces[: n + t]
            walls = (f[::nx],) if axis == 0 else (f[:nx], f[n:])
            diffusion.append((t, f[t:n], walls, f[t:], f[:n]))

    c = field.values.reshape(n)
    time = field.time
    for i in range(steps):
        # the steps' results alternate between `spare` and `out`, ending in
        # `out`, so no step writes the field it reads
        dst = out if (steps - i) % 2 else spare
        # substeps chain without copies; diffusion reads `adv` while writing `dst`
        dest = scratch if lam > 0 else dst
        adv = c
        for v, p, (ghost0, flux0), (ghost1, flux1), upper, lower, inflow in advection:
            np.multiply(c, v, out=p)
            ghost0[...] = flux0
            ghost1[...] = flux1
            np.subtract(upper, lower, out=delta)
            if inflow:
                # an inflow wall's zero-gradient ghost gives its cell one flux
                # in and out; a shared face holds the other row's outflow flux
                np.subtract(inflow[0], inflow[0], out=inflow[1])
            adv = np.subtract(adv, np.multiply(delta, s, out=delta), out=dest)

        res = adv
        for t, inner, walls, upper, lower in diffusion:
            np.subtract(adv[t:], adv[: n - t], out=inner)
            np.multiply(inner, -lam, out=inner)
            np.divide(inner, h, out=inner)
            # wall faces are assigned, as -lam * 0.0 would be -0.0
            for w in walls:
                w.fill(0.0)
            np.subtract(upper, lower, out=delta)
            res = np.subtract(res, np.multiply(delta, s, out=delta), out=dst)

        # flux differencing can leave ulp-scale negatives at the exact CFL limit
        np.maximum(res, 0.0, out=dst)
        if source_cell is not None:
            # Python float arithmetic: an overflow gives inf, not a warning
            injected = float(dst[source_cell]) + injection
            if not injected < math.inf:
                if i:  # the previous step's field raises for a NaN it holds
                    ScalarField(geom, c.reshape(geom.ny, nx))
                raise ValueError(f"source injection over dt={dt} makes the source cell not finite")
            dst[source_cell] = injected
        c = dst
        time += dt
    return ScalarField(geom, out.reshape(geom.ny, nx), time)


_local = threading.local()


def _scratch(n, nx):
    """This thread's two n-cell arrays, (n + nx)-face array and n-cell array
    for the fields between a call's steps, reused across calls."""
    buf = getattr(_local, "buf", None)
    if buf is None or buf[0].size != n or buf[2].size != n + nx:
        buf = _local.buf = (np.empty(n), np.empty(n), np.empty(n + nx), np.empty(n))
    return buf


def run_warmup(
    field: ScalarField, flow: FlowSpec, source: SourceSpec, duration: float, dt: float = 1.0
) -> ScalarField:
    """Step the field until field.time >= duration (plume spin-up). Raises,
    before any step, for a target the clock may never reach (clock_stalls)."""
    if not 0 <= duration < math.inf:
        raise ValueError(f"warmup duration must be finite and >= 0, got {duration}")
    target = field.time + duration
    if field.time < target and clock_stalls(target, dt):
        raise ValueError(
            f"warmup to t = {target:g} s never ends: below it t + dt == t for dt = {dt:g}"
        )
    while field.time < target:
        field = step(field, flow, source, dt)
    return field


def clock_stalls(until: float, dt: float) -> bool:
    """Whether a clock that adds dt per step can stop short of until: some
    time t below it has t + dt == t. Floats below until are spaced most
    widely just below it, and a dt of at most half that spacing rounds away
    there (exactly half rounds away on a tie to even)."""
    return dt <= math.ulp(math.nextafter(until, 0.0)) / 2


def peak_bound(source: SourceSpec, h: float, dt: float, duration: float) -> float:
    """Bound on any cell's concentration after duration seconds of steps of
    dt from an empty field, inf when it overflows. Within the stability bound
    advection and diffusion make each cell a convex combination of the cells
    before the step, so no cell exceeds the steps taken times the injection
    per step, rate * dt / h**2. A clock that does not stall (clock_stalls)
    advances by at least dt / 2 per step, so a warm-up and the run after it,
    each ending at most one step past its time, take 2 * duration / dt + 2
    steps at most.
    """
    injection = source.rate * dt / h**2
    return injection * (2.0 * duration / dt + 2.0) if injection else 0.0


# The most cell-steps (grid cells times solver steps) that a scenario's
# warm-up and run, or a field export, may take: at the solver's 20-30 ns
# per cell-step, about half a minute.
MAX_CELL_STEPS = 1e9


def cell_steps(geometry: GridGeometry, duration: float, dt: float) -> float:
    """nx * ny * duration / dt, the cell-steps of stepping a field on the
    grid for duration seconds; inf where the product overflows."""
    return float(geometry.nx) * geometry.ny * duration / dt


def sample_concentration(field: ScalarField, position) -> float:
    """Bilinear interpolation of cell-centre values at a workspace position.

    Queries between the outermost centres and the workspace edge clamp to the
    edge cell, consistent with the zero-gradient boundary.
    """
    geom = field.geometry
    if not geom.contains(position):
        raise ValueError(f"position {tuple(position)} outside workspace")
    fx = (position[0] - geom.origin[0]) / geom.h + (geom.nx - 1) / 2.0
    fy = (position[1] - geom.origin[1]) / geom.h + (geom.ny - 1) / 2.0
    fx = min(max(fx, 0.0), geom.nx - 1.0)
    fy = min(max(fy, 0.0), geom.ny - 1.0)
    i0 = min(int(fx), geom.nx - 2) if geom.nx > 1 else 0
    j0 = min(int(fy), geom.ny - 2) if geom.ny > 1 else 0
    i1 = min(i0 + 1, geom.nx - 1)
    j1 = min(j0 + 1, geom.ny - 1)
    wx = fx - i0
    wy = fy - j0
    v = field.values
    c = (
        v[j0, i0] * (1 - wx) * (1 - wy)
        + v[j0, i1] * wx * (1 - wy)
        + v[j1, i0] * (1 - wx) * wy
        + v[j1, i1] * wx * wy
    )
    return float(max(c, 0.0))
