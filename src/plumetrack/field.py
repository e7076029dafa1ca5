"""Advection-diffusion plume simulation on the workspace grid.

The pollutant concentration c(p, t) follows

    dc/dt - lambda * laplace(c) + div(v * c) = f(p)

with a spatially uniform flow v and a point source f. The solver is an
explicit finite-volume scheme, operator-split into a first-order upwind
advection substep and a central-difference diffusion substep, followed by
source injection. Both substeps are written in flux form, so with closed
boundaries total mass is conserved exactly up to round-off, and each substep
is monotone (positivity preserving) for time steps within the CFL bound.

Boundary handling: "open" uses zero-gradient ghost cells (outflow leaves the
domain, diffusive boundary flux vanishes); "closed" zeroes every boundary
flux and exists mainly so mass accounting can be tested.
"""

import math
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
        if self.values.min() < 0:
            raise ValueError("concentration values must be non-negative")

    def total_mass(self) -> float:
        """Total pollutant mass in kg (unit depth)."""
        return float(self.values.sum()) * self.geometry.h**2


def init_field(geometry: GridGeometry, c0: float = 0.0) -> ScalarField:
    """Uniform initial concentration c0 at time zero."""
    if c0 < 0:
        raise ValueError(f"initial concentration must be >= 0, got {c0}")
    return ScalarField(geometry, np.full((geometry.ny, geometry.nx), float(c0)), 0.0)


def max_stable_dt(flow: FlowSpec, geometry: GridGeometry, cfl: float = 1.0) -> float:
    """Largest dt with (|vx|+|vy|)*dt/h <= cfl and 4*lambda*dt/h^2 <= cfl.

    Returns +inf when there is no transport at all (v = 0 and lambda = 0).
    """
    if not 0 < cfl <= 1:
        raise ValueError(f"cfl must be in (0, 1], got {cfl}")
    h = geometry.h
    speed = abs(flow.v[0]) + abs(flow.v[1])
    dt_adv = cfl * h / speed if speed > 0 else math.inf
    dt_diff = cfl * h**2 / (4.0 * flow.diffusivity) if flow.diffusivity > 0 else math.inf
    return min(dt_adv, dt_diff)


def step(
    field: ScalarField,
    flow: FlowSpec,
    source: SourceSpec,
    dt: float,
    boundary: str = "open",
) -> ScalarField:
    """Advance the field by one explicit time step of length dt.

    Upwind advection, then central diffusion, then injection of
    source.rate * dt / h^2 into the cell containing the source. Raises if dt
    exceeds the stability bound rather than silently producing garbage.
    """
    if boundary not in ("open", "closed"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    bound = max_stable_dt(flow, field.geometry, 1.0)
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} exceeds stability bound {bound}")

    geom = field.geometry
    h = geom.h
    c = _advect(field.values, flow.v, h, dt, boundary)
    if flow.diffusivity > 0:
        c = _diffuse(c, flow.diffusivity, h, dt)
    # flux differencing can leave ulp-scale negatives at the exact CFL limit
    np.maximum(c, 0.0, out=c)

    if source.rate > 0:
        si, sj = geom.cell_of(source.position)
        c[sj, si] += source.rate * dt / h**2
    return ScalarField(geom, c, field.time + dt)


def _advect(c, v, h, dt, boundary):
    """Flux-form first-order upwind advection. Returns a new array."""
    vx, vy = v
    out = c.copy()
    if vx != 0.0:
        fx = np.empty((c.shape[0], c.shape[1] + 1))
        fx[:, 1:-1] = vx * (c[:, :-1] if vx > 0 else c[:, 1:])
        if boundary == "open":
            # zero-gradient ghosts: the upwind value at either wall is the wall cell
            fx[:, 0] = vx * c[:, 0]
            fx[:, -1] = vx * c[:, -1]
        else:
            fx[:, 0] = 0.0
            fx[:, -1] = 0.0
        out -= (dt / h) * (fx[:, 1:] - fx[:, :-1])
    if vy != 0.0:
        fy = np.empty((c.shape[0] + 1, c.shape[1]))
        fy[1:-1, :] = vy * (c[:-1, :] if vy > 0 else c[1:, :])
        if boundary == "open":
            fy[0, :] = vy * c[0, :]
            fy[-1, :] = vy * c[-1, :]
        else:
            fy[0, :] = 0.0
            fy[-1, :] = 0.0
        out -= (dt / h) * (fy[1:, :] - fy[:-1, :])
    return out


def _diffuse(c, lam, h, dt):
    """Flux-form central diffusion; boundary flux is zero in both modes."""
    out = c.copy()
    gx = np.zeros((c.shape[0], c.shape[1] + 1))
    gx[:, 1:-1] = -lam * (c[:, 1:] - c[:, :-1]) / h
    out -= (dt / h) * (gx[:, 1:] - gx[:, :-1])
    gy = np.zeros((c.shape[0] + 1, c.shape[1]))
    gy[1:-1, :] = -lam * (c[1:, :] - c[:-1, :]) / h
    out -= (dt / h) * (gy[1:, :] - gy[:-1, :])
    return out


def run_warmup(
    field: ScalarField,
    flow: FlowSpec,
    source: SourceSpec,
    duration: float,
    dt: float = 1.0,
    boundary: str = "open",
) -> ScalarField:
    """Step the field until field.time >= duration (plume spin-up)."""
    if duration < 0:
        raise ValueError(f"warmup duration must be >= 0, got {duration}")
    target = field.time + duration
    while field.time < target:
        field = step(field, flow, source, dt, boundary)
    return field


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
