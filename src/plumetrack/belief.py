"""Categorical grid belief over the source cell, and its measurement update.

The belief assigns a probability p(g_i) to every cell g_i of containing the
source. Each binarized sonde reading z produces a likelihood field over the
cells, built from a Gaussian kernel on angular deviation:

* detection (z = 1): the source sits upwind, so a cell is weighted by the
  angle between the direction from the cell to the vehicle and the wave
  direction, with variance sigma2_hit;
* miss (z = 0): the source is more plausible towards the last detection, so
  a cell is weighted by the angle between the direction from the vehicle to
  the cell and the direction to the last above-threshold reading, with
  variance sigma2_miss. Before any detection a miss carries no information.

The kernel is computed only on the covered block, the square neighbourhood of
the vehicle's cell clipped to the grid, and edge-extended to the whole grid:
every cell outside the block inherits the weight of the nearest covered cell.
Posterior updates are plain Bayes products followed by normalization. A
likelihood that leaves no posterior mass, all-zero weights included, raises
DegenerateUpdateError, and the mission keeps its prior.

The kernel parameters sigma2_hit, sigma2_miss and local_radius_cells live on
planner.PlannerParams (the scenario's `planner` section): the mission's
belief update and the planner's predicted updates read the same object.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridGeometry

if TYPE_CHECKING:
    from .planner import PlannerParams


class DegenerateUpdateError(Exception):
    """The likelihood annihilated the prior (zero posterior mass)."""


@dataclass(frozen=True)
class MeasurementContext:
    """Everything the likelihood kernels need about the current measurement.

    v_hat must be a unit vector. last_hit_pos is the world position of the
    most recent above-threshold reading, or None before the first detection.
    """

    usv_pos: tuple[float, float]
    v_hat: tuple[float, float]
    last_hit_pos: tuple[float, float] | None = None

    def __post_init__(self):
        norm = float(np.hypot(*self.v_hat))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"v_hat must be a unit vector, |v_hat| = {norm}")


@dataclass
class GridBelief:
    """Probability per cell that it contains the source, shape (ny, nx)."""

    geometry: GridGeometry
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (self.geometry.ny, self.geometry.nx):
            raise ValueError(
                f"probs shape {self.probs.shape} does not match grid "
                f"({self.geometry.ny}, {self.geometry.nx})"
            )
        if self.probs.min() < 0:
            raise ValueError("belief probabilities must be non-negative")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"belief must sum to 1 within 1e-9, got {total}")
        self.probs.setflags(write=False)


@dataclass
class LikelihoodField:
    """Non-negative per-cell measurement likelihood, shape (ny, nx)."""

    geometry: GridGeometry
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.geometry.ny, self.geometry.nx):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match grid "
                f"({self.geometry.ny}, {self.geometry.nx})"
            )
        if self.weights.min() < 0:
            raise ValueError("likelihood weights must be non-negative")
        self.weights.setflags(write=False)


def uniform_belief(geometry: GridGeometry) -> GridBelief:
    return GridBelief(geometry, np.full((geometry.ny, geometry.nx), 1.0 / geometry.k))


def point_estimate(belief: GridBelief) -> tuple[float, float]:
    """Expectation of the cell-centre coordinates under the belief."""
    X, Y = belief.geometry.cell_centers()
    return float(np.sum(X * belief.probs)), float(np.sum(Y * belief.probs))


def angle_between(ux, uy, wx, wy):
    """Unsigned angle in [0, pi] between vectors (ux, uy) and (wx, wy).

    Scale invariant; the degenerate zero-vector case maps to angle 0. A zero
    vector's dot product can be -0.0, for which arctan2 returns pi: adding
    0.0 turns it into +0.0.
    """
    cross = ux * wy - uy * wx
    dot = ux * wx + uy * wy
    return np.arctan2(np.abs(cross), dot + 0.0)


def _covered_block(geometry: GridGeometry, usv_pos, radius):
    """Cell-centre coordinates X, Y of the covered block, the index of the
    vehicle's cell in them, and the np.pad widths that extend a block array
    to the grid.

    The block is axis-aligned, so the Euclidean-nearest covered cell of any
    cell is its componentwise index clamp into the block: np.pad's edge mode.
    """
    ui, uj = geometry.cell_of(usv_pos)
    ilo, ihi = max(ui - radius, 0), min(ui + radius, geometry.nx - 1)
    jlo, jhi = max(uj - radius, 0), min(uj + radius, geometry.ny - 1)
    X, Y = geometry.cell_centers()
    block = np.s_[jlo : jhi + 1, ilo : ihi + 1]
    pad = ((jlo, geometry.ny - 1 - jhi), (ilo, geometry.nx - 1 - ihi))
    return X[block], Y[block], (uj - jlo, ui - ilo), pad


def detection_likelihood(
    ctx: MeasurementContext, geometry: GridGeometry, params: "PlannerParams"
) -> LikelihoodField:
    """Likelihood field for an above-threshold reading at ctx.usv_pos.

    Covered cells get exp(-theta^2 / (2 * sigma2_hit)) where theta is the
    angle between the cell-to-vehicle direction and v_hat; the vehicle's own
    cell gets the kernel maximum (a detection right at the source is fully
    consistent).
    """
    X, Y, own, pad = _covered_block(geometry, ctx.usv_pos, params.local_radius_cells)
    theta = angle_between(ctx.usv_pos[0] - X, ctx.usv_pos[1] - Y, *ctx.v_hat)
    w = np.exp(-(theta**2) / (2.0 * params.sigma2_hit))
    w[own] = 1.0
    return LikelihoodField(geometry, np.pad(w, pad, mode="edge"))


def miss_likelihood(
    ctx: MeasurementContext, geometry: GridGeometry, params: "PlannerParams"
) -> LikelihoodField:
    """Likelihood field for a below-threshold reading at ctx.usv_pos.

    Uninformative (all equal) before the first detection. Otherwise covered
    cells get exp(-phi^2 / (2 * sigma2_miss)) where phi is the angle between
    the vehicle-to-cell direction and the direction towards the last hit; the
    vehicle's own cell takes the minimum covered weight, since a miss argues
    against the source being underfoot.
    """
    # before the first detection the "last hit" is the vehicle itself
    hx, hy = ctx.last_hit_pos or ctx.usv_pos
    rx, ry = hx - ctx.usv_pos[0], hy - ctx.usv_pos[1]
    if np.hypot(rx, ry) < 1e-12 * geometry.h:
        # no detection yet, or it was taken here: no usable direction
        return LikelihoodField(geometry, np.ones((geometry.ny, geometry.nx)))
    X, Y, own, pad = _covered_block(geometry, ctx.usv_pos, params.local_radius_cells)
    phi = angle_between(X - ctx.usv_pos[0], Y - ctx.usv_pos[1], rx, ry)
    w = np.exp(-(phi**2) / (2.0 * params.sigma2_miss))
    w[own] = w.min()
    return LikelihoodField(geometry, np.pad(w, pad, mode="edge"))


def bayes_update(belief: GridBelief, like: LikelihoodField) -> GridBelief:
    """Posterior proportional to prior times likelihood, renormalized."""
    if belief.geometry != like.geometry:
        raise ValueError("belief and likelihood must share one grid geometry")
    post = belief.probs * like.weights
    total = float(post.sum())
    if total <= 0.0:
        raise DegenerateUpdateError("likelihood leaves zero posterior mass")
    return GridBelief(belief.geometry, post / total)
