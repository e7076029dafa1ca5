"""Greedy waypoint selection by expected information gain.

Candidate waypoints are the cell centres of a square window around the
vehicle's cell. Each candidate is scored with the expectation, over the
binary measurement outcome, of the KL divergence from the current belief to
the predicted posterior:

    ig = p_hit * KL(posterior_if_hit || belief)
       + (1 - p_hit) * KL(posterior_if_miss || belief)

where p_hit is the belief-weighted probability that a source somewhere in
the grid would place detectable plume at the candidate, using the same
angular detection kernel as the measurement model. The candidate with the
largest gain wins; ties break towards the nearest candidate and then
row-major cell order, so selection is fully deterministic.

One pass scores every candidate, at a cost per candidate that does not grow
with the grid. A reading's likelihood is computed on its covered block, the
(2r+1)^2 cells around the reading's cell, by the block kernels of the belief
module, and edge-extended to the grid, so a full-grid sum over the belief is
a sum over the block in which block cell b carries P_b, the belief mass that
clamps onto it. With block weights w_b,
Z = sum_b P_b * w_b and post_b = P_b * w_b / Z,

    KL(posterior || belief) = sum_b post_b * log(post_b / P_b)

and a branch with Z = 0, a degenerate update, adds nothing. Along each axis a
clamp region runs from the block edge to the grid border, or is the cell
itself, so P_b is read from cumulative sums of the belief anchored at that
border. A summed-area table would take P_b as a difference of partial sums of
order one, and cancellation would lose small masses. The hit kernel of p_hit
is not clamped, so p_hit stays a full-grid product with a slice of one kernel
table, per candidate. The table is detection_block_weights over the lattice
of cell offsets, so the update and p_hit share one detection kernel. The pass
takes the candidates in chunks whose block arrays hold at most
max(2^16, nx * ny) elements, so a wide window or a radius past the grid cannot
hold C * nx * ny numbers at once; the bundled scenarios fit one chunk. The
scores are two float64 arrays, ig and p_hit, aligned with the list of
candidate cells, so scoring and selection build no object per candidate.

A mission passes score_candidates a memory of the windows it scored for its
current belief. A window's scores depend only on the belief, the vehicle's
cell, v_hat, last_hit_pos, the grid and the planner parameters. The memory
holds the belief's probs array by reference and matches it by identity, with
the rest of the key by equality, and returns the arrays _score returned, so a
remembered window is the same bits as a fresh one. Before the first detection
a miss is uninformative and bayes_update returns the prior itself, so the 100
plan calls of the bundled upwind search keep one belief and score 11 windows.
A tracking run's belief changes at every update, so there every lookup misses.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .belief import (
    GridBelief,
    MeasurementContext,
    detection_block_weights,
    miss_block_weights,
)
from .grid import GridGeometry


@dataclass(frozen=True)
class PlannerParams:
    """Planner settings and the measurement kernel parameters, which the belief
    update and the planner's predicted updates both read from here."""

    window_cells: int = 11
    sigma2_hit: float = 1.0
    sigma2_miss: float = 4.0
    detection_ceiling: float = 1.0
    prob_clip: float = 1e-6
    local_radius_cells: int = 5

    def __post_init__(self):
        if self.window_cells < 3 or self.window_cells % 2 == 0:
            raise ValueError(f"window_cells: must be odd and >= 3, got {self.window_cells}")
        if not self.sigma2_hit > 0:
            raise ValueError(f"sigma2_hit: must be positive, got {self.sigma2_hit}")
        if not self.sigma2_miss > 0:
            raise ValueError(f"sigma2_miss: must be positive, got {self.sigma2_miss}")
        if not 0 < self.detection_ceiling <= 1:
            raise ValueError(f"detection_ceiling: must be in (0, 1], got {self.detection_ceiling}")
        if not 0 < self.prob_clip < 0.5:
            raise ValueError(f"prob_clip: must be in (0, 0.5), got {self.prob_clip}")
        if self.local_radius_cells < 0:
            raise ValueError(f"local_radius_cells: must be >= 0, got {self.local_radius_cells}")


def candidate_waypoints(
    geometry: GridGeometry, usv_cell: tuple[int, int], params: PlannerParams
) -> list[tuple[int, int]]:
    """Window cells around usv_cell, clipped to the grid, minus usv_cell itself."""
    ci, cj = usv_cell
    if not (0 <= ci < geometry.nx and 0 <= cj < geometry.ny):
        raise ValueError(f"usv_cell {usv_cell} outside grid")
    r = params.window_cells // 2
    cells = [
        (i, j)
        for j in range(max(cj - r, 0), min(cj + r, geometry.ny - 1) + 1)
        for i in range(max(ci - r, 0), min(ci + r, geometry.nx - 1) + 1)
        if (i, j) != (ci, cj)
    ]
    return cells


@lru_cache(maxsize=8)
def _hit_kernel_table(geometry: GridGeometry, v_hat: tuple[float, float], sigma2: float):
    """Detection kernel over all cell-to-cell offsets.

    Entry [ny - 1 - dj, nx - 1 - di] is the kernel weight for a candidate
    displaced (di, dj) cells from a hypothesized source cell: the block
    kernel for one reading at the origin over the cell at minus that offset
    (0.0 - (-d * h) is d * h exactly), with the zero offset, at
    [ny - 1, nx - 1], as its own cell. Cell centres lie on a regular lattice,
    so the full-grid kernel of candidate (ci, cj) is the positive-stride
    slice [ny - 1 - cj : 2 ny - 1 - cj, nx - 1 - ci : 2 nx - 1 - ci].
    """
    nx, ny = geometry.nx, geometry.ny
    bx = np.arange(-(nx - 1), nx)[None] * geometry.h
    by = np.arange(-(ny - 1), ny)[None] * geometry.h
    table = detection_block_weights([0.0], [0.0], bx, by, (ny - 1, nx - 1), v_hat, sigma2)[0]
    table.setflags(write=False)
    return table


def _hit_probabilities(belief: GridBelief, cells, v_hat, params: PlannerParams) -> np.ndarray:
    """Belief-weighted chance that a measurement at each cell comes up hot,
    clipped to [prob_clip, 1 - prob_clip], through one reused product buffer."""
    geom = belief.geometry
    nx, ny = geom.nx, geom.ny
    table = _hit_kernel_table(geom, tuple(v_hat), params.sigma2_hit)
    product = np.empty_like(belief.probs)
    sums = np.empty(len(cells))
    for c, (ci, cj) in enumerate(cells):
        kernel = table[ny - 1 - cj : 2 * ny - 1 - cj, nx - 1 - ci : 2 * nx - 1 - ci]
        np.multiply(belief.probs, kernel, out=product)
        sums[c] = product.sum()
    return np.clip(params.detection_ceiling * sums, params.prob_clip, 1.0 - params.prob_clip)


def _update_kl(mass: np.ndarray, w: np.ndarray) -> np.ndarray:
    """KL(posterior || prior) per row, for prior masses mass[c, b] with
    likelihood weights w[c, b] (see the module docstring); 0 for a degenerate
    row. The log ratio is a difference of logs, which cannot overflow on a
    subnormal prior mass as a quotient would."""
    post = mass * w
    z = post.sum(axis=1, keepdims=True)
    post /= np.where(z > 0, z, 1.0)  # a degenerate row is all zero and stays so
    live = post > 0
    log_ratio = np.log(post, out=np.zeros_like(post), where=live)
    log_ratio -= np.log(mass, out=np.zeros_like(post), where=live)
    return (post * log_ratio).sum(axis=1)


def _block_axis(c: np.ndarray, r: int, n: int):
    """One axis of the covered blocks of cells c, min(2r+1, n) entries per
    cell: the block's cell indices, the index of c in its block, and for
    _clamped_mass whether each entry lies in the block, its clamp-region kind
    and the index its mass is read at. Entries past a block's end repeat its
    last cell."""
    lo, hi = np.maximum(c - r, 0)[:, None], np.minimum(c + r, n - 1)[:, None]
    k = lo + np.arange(min(2 * r + 1, n))
    idx = np.minimum(k, hi)
    kind = np.where(idx == lo, 0, np.where(idx == hi, 2, 1))
    # a one-cell-wide block takes the whole axis: the prefix sum at its end
    read = np.where(lo == hi, n - 1, idx)
    return idx, c - lo[:, 0], k <= hi, kind, read


def _anchored_sums(probs: np.ndarray) -> np.ndarray:
    """3x3 tables of shape (ny, nx) for _clamped_mass. Along each axis, table
    0 sums from the low grid border to an index, table 1 is the cell and
    table 2 sums from an index to the high border."""

    def along(a, axis):
        return np.cumsum(a, axis), a, np.flip(np.cumsum(np.flip(a, axis), axis), axis)

    tables = np.empty((3, 3, *probs.shape))
    for kx, by_column in enumerate(along(probs, 1)):
        for ky, table in enumerate(along(by_column, 0)):
            tables[ky, kx] = table
    return tables


def _clamped_mass(tables: np.ndarray, rows, cols) -> np.ndarray:
    """Belief mass P_b that clamps onto each block cell, shape (C, H, W), 0
    past a block; rows and cols are the last three results of _block_axis.
    Along an axis the clamp region of kind 0 runs from the grid border to the
    block's low edge, of kind 1 is the cell, and of kind 2 runs from the
    block's high edge to the grid border."""
    (in_y, kind_y, read_y), (in_x, kind_x, read_x) = rows, cols
    mass = tables[kind_y[:, :, None], kind_x[:, None, :], read_y[:, :, None], read_x[:, None, :]]
    mass[~(in_y[:, :, None] & in_x[:, None, :])] = 0.0
    return mass


def _block_kls(geom: GridGeometry, tables, cells, ctx: MeasurementContext, r: int, params):
    """KL divergences of the hit and of the miss posterior for each cell."""
    X, Y = geom.cell_centers()
    xs, ys = X[0], Y[:, 0]
    n = len(cells)
    ci, cj = np.array(cells, dtype=int).reshape(-1, 2).T
    cols, own_i, *col_mass = _block_axis(ci, r, geom.nx)
    rows, own_j, *row_mass = _block_axis(cj, r, geom.ny)
    mass = _clamped_mass(tables, row_mass, col_mass).reshape(n, -1)
    block = (xs[ci], ys[cj], xs[cols], ys[rows], (own_j, own_i))
    w = detection_block_weights(*block, ctx.v_hat, params.sigma2_hit)
    kl_hit = _update_kl(mass, w.reshape(n, -1))
    w = miss_block_weights(*block, ctx.last_hit_pos, geom.h, params.sigma2_miss)
    kl_miss = _update_kl(mass, w.reshape(n, -1))
    return kl_hit, kl_miss


# Elements of one (C, H, W) block array: _score takes the candidates in chunks
# of at most this many, or of the grid's cell count if larger, so its memory
# stays O(nx * ny) for any window and radius.
_BLOCK_ELEMENTS = 1 << 16


def _score(belief: GridBelief, cells, ctx: MeasurementContext, params: PlannerParams):
    """(ig, p_hit) arrays of the given cells, in their order, from their
    covered blocks (see the module docstring), in chunks of candidates."""
    geom = belief.geometry
    # a block stops at the grid, and so does a larger radius, which int64 may not hold
    r = min(params.local_radius_cells, max(geom.nx, geom.ny))
    block = min(2 * r + 1, geom.ny) * min(2 * r + 1, geom.nx)
    per_chunk = max(_BLOCK_ELEMENTS, geom.k) // block
    tables = _anchored_sums(belief.probs)
    ig, p_hit = np.empty(len(cells)), np.empty(len(cells))
    for start in range(0, len(cells), per_chunk):
        part = slice(start, start + per_chunk)
        kl_hit, kl_miss = _block_kls(geom, tables, cells[part], ctx, r, params)
        p = p_hit[part] = _hit_probabilities(belief, cells[part], ctx.v_hat, params)
        ig[part] = p * kl_hit + (1.0 - p) * kl_miss
    return ig, p_hit


def score_candidates(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
    memory: dict | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """(cells, ig, p_hit): the candidate_waypoints cells around usv_cell and
    two float64 arrays holding each cell's gain and hit probability, in that
    order.

    memory, a dict the caller keeps (a mission keeps one), remembers the
    windows scored for one belief and returns a remembered window as it was
    scored (see the module docstring); another belief or key replaces its
    contents. The arrays are read-only.
    """
    if memory is None:
        memory = {}
    key = (belief.geometry, ctx.v_hat, ctx.last_hit_pos, params)
    if memory.get("probs") is not belief.probs or memory["key"] != key:
        memory.update(probs=belief.probs, key=key, windows={})
    windows = memory["windows"]
    if usv_cell not in windows:
        cells = candidate_waypoints(belief.geometry, usv_cell, params)
        ig, p_hit = _score(belief, cells, ctx, params)
        ig.setflags(write=False)
        p_hit.setflags(write=False)
        windows[usv_cell] = (cells, ig, p_hit)
    return windows[usv_cell]


def select_waypoint(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
    scores: tuple[list[tuple[int, int]], np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int]:
    """Candidate cell with maximal gain; deterministic tie-breaks.

    Gains within 1e-12 of the maximum count as tied and resolve by squared
    cell distance to usv_cell, then row-major cell order (j, then i). Pass the
    score_candidates result as scores to reuse it; the mission does.
    """
    cells, ig, _ = scores if scores is not None else score_candidates(belief, usv_cell, ctx, params)
    if not cells:
        raise ValueError("no candidate waypoints (grid too small)")
    ci, cj = usv_cell

    def rank(c):
        i, j = cells[c]
        return ((i - ci) ** 2 + (j - cj) ** 2, j, i)

    return cells[min(np.flatnonzero(ig >= ig.max() - 1e-12), key=rank)]
