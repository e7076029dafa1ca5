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
  variance sigma2_miss. Before any detection a miss carries no information:
  its block weights are all 1.0, so the planner's predicted miss keeps the
  belief, and the mission builds no likelihood for it and keeps its belief
  object, which is what bayes_update returns for it.

The kernel is computed only on the covered block, the square neighbourhood of
the vehicle's cell clipped to the grid, by the same batched block kernels the
planner scores with, and edge-extended to the whole grid by index clamp:
every cell outside the block inherits the weight of the nearest covered cell.
Posterior updates are plain Bayes products followed by normalization; a
constant likelihood returns the prior itself. Where the products' total is
so small that their rounding could reach the posterior, as with subnormal
weights, the products are taken again from weights scaled up by an exact
power of two (weighted_mass): the posterior does not depend on that scale.
A likelihood that leaves no posterior mass, all-zero weights included,
raises DegenerateUpdateError, and the mission keeps its prior.

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
        if not abs(norm - 1.0) <= 1e-6:
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
        # written so that NaN fails each check
        if not self.probs.min() >= 0:
            raise ValueError("belief probabilities must be non-negative")
        total = float(self.probs.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"belief must sum to 1 within 1e-9, got {total}")
        self.probs.setflags(write=False)


@dataclass
class LikelihoodField:
    """Finite, non-negative per-cell measurement likelihood, shape (ny, nx)."""

    geometry: GridGeometry
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.geometry.ny, self.geometry.nx):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match grid "
                f"({self.geometry.ny}, {self.geometry.nx})"
            )
        if not (self.weights.min() >= 0 and self.weights.max() < np.inf):
            raise ValueError("likelihood weights must be finite and non-negative")
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


def detection_block_weights(px, py, bx, by, own, v_hat, sigma2_hit) -> np.ndarray:
    """Detection kernel on the covered blocks of C readings, shape (C, H, W).

    Reading c was taken at (px[c], py[c]); bx[c] and by[c] are the cell-centre
    x of its block's W columns and y of its H rows, and own = (rows, columns)
    indexes the reading's cell in its block. See detection_likelihood.
    """
    px, py = np.asarray(px)[:, None, None], np.asarray(py)[:, None, None]
    theta = angle_between(px - bx[:, None, :], py - by[:, :, None], *v_hat)
    w = np.exp(-(theta**2) / (2.0 * sigma2_hit))
    w[(np.arange(len(w)), *own)] = 1.0
    return w


def miss_block_weights(px, py, bx, by, own, last_hit_pos, h, sigma2_miss) -> np.ndarray:
    """Miss kernel on the covered blocks of C readings, shape (C, H, W); the
    arguments are those of detection_block_weights. Block entries that repeat
    a cell leave the block minimum unchanged. Before the first detection
    (last_hit_pos None) every weight is 1.0, as is every weight of a reading
    taken at the last hit. See miss_likelihood.
    """
    if last_hit_pos is None:
        return np.ones((len(px), by.shape[1], bx.shape[1]))
    px, py = np.asarray(px)[:, None, None], np.asarray(py)[:, None, None]
    rx, ry = last_hit_pos[0] - px, last_hit_pos[1] - py
    phi = angle_between(bx[:, None, :] - px, by[:, :, None] - py, rx, ry)
    w = np.exp(-(phi**2) / (2.0 * sigma2_miss))
    w[(np.arange(len(w)), *own)] = w.min(axis=(1, 2))
    # the last detection was taken here: no usable direction
    w[np.hypot(rx, ry)[:, 0, 0] < 1e-12 * h] = 1.0
    return w


def _block_likelihood(kernel, ctx: MeasurementContext, geometry: GridGeometry, params, *args):
    """A block kernel's weights for the reading at ctx.usv_pos on its covered
    block, edge-extended to the grid; args follow the kernel's own.

    The block is axis-aligned, so the Euclidean-nearest covered cell of any
    cell is its componentwise index clamp into the block.
    """
    ui, uj = geometry.cell_of(ctx.usv_pos)
    r = params.local_radius_cells
    ilo, ihi = max(ui - r, 0), min(ui + r, geometry.nx - 1)
    jlo, jhi = max(uj - r, 0), min(uj + r, geometry.ny - 1)
    X, Y = geometry.cell_centers()
    bx, by = X[None, 0, ilo : ihi + 1], Y[None, jlo : jhi + 1, 0]
    w = kernel([ctx.usv_pos[0]], [ctx.usv_pos[1]], bx, by, (uj - jlo, ui - ilo), *args)[0]
    rows = np.arange(geometry.ny).clip(jlo, jhi) - jlo
    cols = np.arange(geometry.nx).clip(ilo, ihi) - ilo
    return LikelihoodField(geometry, w.take(rows, 0).take(cols, 1))


def detection_likelihood(
    ctx: MeasurementContext, geometry: GridGeometry, params: "PlannerParams"
) -> LikelihoodField:
    """Likelihood field for an above-threshold reading at ctx.usv_pos.

    Covered cells get exp(-theta^2 / (2 * sigma2_hit)) where theta is the
    angle between the cell-to-vehicle direction and v_hat; the vehicle's own
    cell gets the kernel maximum (a detection right at the source is fully
    consistent).
    """
    args = (ctx.v_hat, params.sigma2_hit)
    return _block_likelihood(detection_block_weights, ctx, geometry, params, *args)


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
    args = (ctx.last_hit_pos, geometry.h, params.sigma2_miss)
    return _block_likelihood(miss_block_weights, ctx, geometry, params, *args)


# A sum of products at or above this is 2**175 times the most that rounding
# can take from one product, 2**-1075.
_RESCALE_BELOW = 2.0**-900


def weighted_mass(mass: np.ndarray, weights: np.ndarray, axis=None):
    """(mass * weights, its sum along axis with kept dimensions), a posterior
    before normalization.

    Where a sum falls below 2**-900, the products are taken again with the
    weights of the cells holding mass scaled up by the power of two that
    brings their largest into [1, 2). The other weights, which could exceed
    those by more than the float range, are set to 0. The scaling is exact
    and the posterior does not depend on it, while unscaled a product with a
    subnormal weight rounds to a few bits or to 0: masses 1/3 and 2/3 times
    equal weights of 6.4e-323 gave 2e-323 and 4.4e-323.
    """
    post = mass * weights
    total = post.sum(axis=axis, keepdims=True)
    low = total < _RESCALE_BELOW
    if low.any():
        live = np.where(mass > 0, weights, 0.0)
        _, exponent = np.frexp(live.max(axis=axis, keepdims=True))
        scaled = mass * np.ldexp(live, np.maximum(1 - exponent, 0))
        post = np.where(low, scaled, post)
        total = post.sum(axis=axis, keepdims=True)
    return post, total


def bayes_update(belief: GridBelief, like: LikelihoodField) -> GridBelief:
    """Posterior proportional to prior times likelihood, renormalized.

    A constant positive likelihood, such as a miss before the first detection,
    returns the prior object itself: that is the exact posterior, which
    renormalizing would perturb in the last bits. The mission relies on this
    to skip such misses and to reuse the prior's estimate and SCI widths.
    """
    if belief.geometry != like.geometry:
        raise ValueError("belief and likelihood must share one grid geometry")
    lowest = like.weights.min()
    if lowest > 0 and lowest == like.weights.max():
        return belief
    post, total = weighted_mass(belief.probs, like.weights)
    total = total.item()
    if total <= 0.0:
        raise DegenerateUpdateError("likelihood leaves zero posterior mass")
    return GridBelief(belief.geometry, post / total)
