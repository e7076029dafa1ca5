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
to it. Its temporaries are per-thread scratch reused across steps.

The spin-up is deterministic, so warm_field keeps the last few warmed-up
fields, read-only, and missions of an equal scenario in one process share
one spin-up. run_warmup itself caches nothing.
"""

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

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
        underflow limit that the quotient fails MeasurementContext's unit test."""
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
        # one reduction per step; written so that a NaN fails it
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


def step(field: ScalarField, flow: FlowSpec, source: SourceSpec, dt: float) -> ScalarField:
    """Advance the field by one explicit time step of length dt.

    Upwind advection, then central diffusion, then injection of
    source.rate * dt / h^2 into the cell containing the source. Raises if dt
    is not finite and positive or exceeds the stability bound, and, where a
    velocity or diffusivity at the float underflow limit lets the bound near
    the largest float, if dt / h or the source cell would not be finite.
    """
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
    c = field.values.reshape(n)
    out = np.empty(n)
    scratch, delta, faces = _scratch(n, nx)
    # substeps chain without copies; diffusion reads `adv` while writing `out`
    dest = scratch if lam > 0 else out
    adv = c

    # Face k of an axis with cell stride t lies between cells k - t and k, so
    # a flux difference is f[t:] - f[:-t]. Along x the face between two rows
    # is the right wall of one and the left wall of the next.
    for axis, (t, v) in enumerate(zip((1, nx), flow.v)):
        if v == 0.0:
            continue
        f = faces[: n + t]
        p = f[t:] if v > 0 else f[:n]  # p[k]: the upwind flux leaving cell k
        np.multiply(c, v, out=p)
        f[:t], f[n:] = p[:t], p[n - t :]  # zero-gradient ghosts: the wall cells' flux
        np.subtract(f[t:], f[:n], out=delta)
        if axis == 0:
            # an inflow wall's zero-gradient ghost gives its cell one flux in
            # and out; a shared face holds the other row's outflow flux
            wall = slice(0, n, nx) if v > 0 else slice(nx - 1, n, nx)
            np.subtract(p[wall], p[wall], out=delta[wall])
        adv = np.subtract(adv, np.multiply(delta, s, out=delta), out=dest)

    res = adv
    if lam > 0:
        for axis, t in enumerate((1, nx)):
            f = faces[: n + t]
            inner = f[t:n]
            np.subtract(adv[t:], adv[: n - t], out=inner)
            np.multiply(inner, -lam, out=inner)
            np.divide(inner, h, out=inner)
            # wall faces are assigned, as -lam * 0.0 would be -0.0
            if axis == 0:
                f[::nx] = 0.0
            else:
                f[:nx] = f[n:] = 0.0
            np.subtract(f[t:], f[:n], out=delta)
            res = np.subtract(res, np.multiply(delta, s, out=delta), out=out)

    # flux differencing can leave ulp-scale negatives at the exact CFL limit
    np.maximum(res, 0.0, out=out)
    if source.rate > 0:
        k = geom.flat_index(*geom.cell_of(source.position))
        # Python float arithmetic: an overflow gives inf, not a warning
        injected = float(out[k]) + source.rate * dt / h**2
        if not injected < math.inf:
            raise ValueError(f"source injection over dt={dt} makes the source cell not finite")
        out[k] = injected
    return ScalarField(geom, out.reshape(geom.ny, nx), field.time + dt)


_local = threading.local()


def _scratch(n, nx):
    """This thread's two n-cell arrays and (n + nx)-face array, reused across steps."""
    buf = getattr(_local, "buf", None)
    if buf is None or buf[0].size != n or buf[2].size != n + nx:
        buf = _local.buf = (np.empty(n), np.empty(n), np.empty(n + nx))
    return buf


def run_warmup(
    field: ScalarField, flow: FlowSpec, source: SourceSpec, duration: float, dt: float = 1.0
) -> ScalarField:
    """Step the field until field.time >= duration (plume spin-up)."""
    if not 0 <= duration < math.inf:
        raise ValueError(f"warmup duration must be finite and >= 0, got {duration}")
    target = field.time + duration
    while field.time < target:
        field = step(field, flow, source, dt)
    return field


def warm_field(
    geometry: GridGeometry, flow: FlowSpec, source: SourceSpec, duration: float, dt: float
) -> ScalarField:
    """run_warmup(init_field(geometry), flow, source, duration, dt), spun up
    once per process for each of the last few distinct arguments.

    Each call returns a new ScalarField on the caller's geometry; its values
    are the cached array, read-only, which a step only reads. Arguments that
    differ only in the sign of a zero compare equal and share an entry: the
    solver's bits do not depend on that sign. A warm-up that raises is not
    cached, so the next call raises again.
    """
    values, time = _warmed(geometry, flow, source, duration, dt)
    return ScalarField(geometry, values, time)


@lru_cache(maxsize=4)
def _warmed(geometry, flow, source, duration, dt):
    field = run_warmup(init_field(geometry), flow, source, duration, dt)
    field.values.setflags(write=False)
    return field.values, field.time


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
