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
order one, and cancellation would lose small masses. The nine sums are
written in place, a suffix sum through a reversed view, and a chunk's masses
are one gather from them. The detection kernel over the lattice of cell
offsets is one table per grid, wind and sigma2_hit, and a chunk's hit
weights are one gather from it on every grid. Where cell centres d cells
apart differ by exactly d * h in floats, as on the bundled grids, these are
the block kernel's bits; elsewhere they differ from them by rounding only.
The hit kernel of p_hit is not clamped, so p_hit stays a full-grid product
per candidate with a kernel from the same table, read as a contiguous run of
a strip of it copied once per candidate column: p_hit and the hit branch
read one table. The hit and the miss branch share one log of the masses.
These forms multiply and add as plain slices of the grid would, in the same
order, to the same bits. The pass takes the candidates in chunks whose block
arrays hold at most max(2^16, nx * ny) elements, so a wide window or a
radius past the grid cannot hold C * nx * ny numbers at once; the bundled
scenarios fit one chunk. The scores are two float64 arrays, ig and p_hit,
aligned with the list of candidate cells, so scoring and selection build no
object per candidate.

Two memos keep work for later windows. A cell's ig and p_hit depend on the
belief, v_hat, last_hit and the params, not on the vehicle's cell. So a
CellScores holds them for one such set, beside the belief's anchored sums:
the first window's arrays as scored, and from a second window on (ny, nx)
grids with a mask of the cells scored. score_candidates reads a window's
known cells from the grids, passes only the rest to the pass, in window
order, and returns fresh read-only copies. A cell's miss weights depend only
on the cell and last_hit, for one grid and params, so a MissRows holds them
from one detection to the next, across beliefs: the miss kernel runs once
per cell per detection. A call without a CellScores uses a fresh one, with a
fresh MissRows. A row of the pass does not depend on the other cells of its
chunk, so every window holds the bits that scoring it whole gives. A mission
keeps a CellScores per belief and last_hit and one MissRows (see the mission
module).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .belief import (
    GridBelief,
    MeasurementContext,
    detection_block_weights,
    miss_block_weights,
    weighted_mass,
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
        for name in ("sigma2_hit", "sigma2_miss"):
            sigma2 = getattr(self, name)
            if not sigma2 > 0:
                raise ValueError(f"{name}: must be positive, got {sigma2}")
            # the kernels divide a squared angle, up to pi**2, by 2 * sigma2
            if not math.pi**2 / (2.0 * sigma2) < math.inf:
                raise ValueError(f"{name}: pi**2 / (2 * {sigma2:g}) overflows")
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


def _hit_probabilities(belief: GridBelief, ci, cj, v_hat, params: PlannerParams) -> np.ndarray:
    """Belief-weighted chance that a measurement at each cell (ci, cj) comes
    up hot, clipped to [prob_clip, 1 - prob_clip], through one reused product
    buffer. In the strip of column i, the kernel of (i, j) is the nx * ny
    numbers from row ny - 1 - j on."""
    geom = belief.geometry
    nx, ny, k = geom.nx, geom.ny, geom.k
    table = _hit_kernel_table(geom, tuple(v_hat), params.sigma2_hit)
    probs = belief.probs.reshape(k)
    product = np.empty(k)
    strip = np.empty((2 * ny - 1, nx))
    kernels = strip.reshape(-1)
    by_column = {}
    for c, (i, j) in enumerate(zip(ci.tolist(), cj.tolist())):
        by_column.setdefault(i, []).append((c, (ny - 1 - j) * nx))
    sums = np.empty(len(ci))
    for i, column in by_column.items():
        np.copyto(strip, table[:, nx - 1 - i : 2 * nx - 1 - i])
        for c, start in column:
            np.multiply(probs, kernels[start : start + k], out=product)
            sums[c] = np.add.reduce(product)
    return np.clip(params.detection_ceiling * sums, params.prob_clip, 1.0 - params.prob_clip)


def _log_mass(mass: np.ndarray) -> np.ndarray:
    """log(mass) where mass > 0, else 0: _update_kl's log prior, which the
    hit and the miss branch of a chunk share."""
    return np.log(mass, out=np.zeros_like(mass), where=mass > 0)


def _update_kl(mass: np.ndarray, w: np.ndarray, log_mass: np.ndarray) -> np.ndarray:
    """KL(posterior || prior) per row, for prior masses mass[c, b] with
    likelihood weights w[c, b] (see the module docstring) and log_mass the
    _log_mass of mass; 0 for a degenerate row. The log ratio is a difference
    of logs, which cannot overflow on a subnormal prior mass as a quotient
    would, and is taken only where the posterior holds mass, so the prior's
    mass there is positive. The products are those of bayes_update
    (weighted_mass)."""
    post, z = weighted_mass(mass, w, axis=1)
    post /= np.where(z > 0, z, 1.0)  # a degenerate row is all zero and stays so
    live = post > 0
    log_ratio = np.log(post, out=np.zeros_like(post), where=live)
    np.subtract(log_ratio, log_mass, out=log_ratio, where=live)
    log_ratio *= post
    return log_ratio.sum(axis=1)


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
    table 2 sums from an index to the high border, written in place: a suffix
    sum is a cumulative sum of the reversed axis into a reversed view."""
    tables = np.empty((3, 3, *probs.shape))
    rows = tables[1]  # the sums along x, which the sums along y read
    np.cumsum(probs, 1, out=rows[0])
    rows[1] = probs
    np.cumsum(probs[:, ::-1], 1, out=rows[2, :, ::-1])
    for kx in range(3):
        np.cumsum(rows[kx], 0, out=tables[0, kx])
        np.cumsum(rows[kx, ::-1], 0, out=tables[2, kx, ::-1])
    return tables


def _clamped_mass(tables: np.ndarray, rows, cols) -> np.ndarray:
    """Belief mass P_b that clamps onto each block cell, shape (C, H, W), 0
    past a block; rows and cols are the last three results of _block_axis.
    Along an axis the clamp region of kind 0 runs from the grid border to the
    block's low edge, of kind 1 is the cell, and of kind 2 runs from the
    block's high edge to the grid border. One gather reads the raveled
    tables at a row part plus a column part of each flat index."""
    (in_y, kind_y, read_y), (in_x, kind_x, read_x) = rows, cols
    ny, nx = tables.shape[2:]
    row = kind_y * (3 * ny * nx) + read_y * nx
    col = kind_x * (ny * nx) + read_x
    mass = tables.reshape(-1).take(row[:, :, None] + col[:, None, :])
    mass[~(in_y[:, :, None] & in_x[:, None, :])] = 0.0
    return mass


def _table_hit_weights(geom: GridGeometry, ci, cj, rows, cols, v_hat, sigma2_hit):
    """Hit weights of the covered blocks of cells (ci, cj), shape (C, H, W),
    as one gather from _hit_kernel_table, on every grid; rows and cols are
    the block cell indices from _block_axis. Where cell centres d cells apart
    differ by exactly d * h in floats these are the bits of
    detection_block_weights, and elsewhere they differ by rounding only; the
    zero offset holds 1.0 and entries past a block repeat a cell, as there."""
    nx, ny = geom.nx, geom.ny
    table = _hit_kernel_table(geom, tuple(v_hat), sigma2_hit)
    row = (ny - 1 - cj[:, None] + rows) * (2 * nx - 1)
    col = nx - 1 - ci[:, None] + cols
    return table.reshape(-1).take(row[:, :, None] + col[:, None, :])


# Elements of one (C, H, W) block array: _score takes the candidates in chunks
# of at most this many, or of the grid's cell count if larger, so its memory
# stays O(nx * ny) for any window and radius.
_BLOCK_ELEMENTS = 1 << 16


class MissRows:
    """Rows of miss_block_weights, the miss kernel on a cell's covered block,
    for the cells scored since the last hit moved. A row depends only on the
    cell and the last hit, for one grid and params, so the beliefs between
    two detections share them. One growable (N, H * W) array holds the rows
    in the order filled, and an (ny, nx) index each cell's row, -1 for a
    cell not held. It empties when the last hit is not the held one's
    object, and before it would hold more than two of _score's chunks, so
    its memory stays O(nx * ny) as the pass's does.
    """

    def __init__(self):
        self.last_hit, self.at, self.rows, self.n = None, None, np.empty((0, 0)), 0

    def weights(self, geom: GridGeometry, ci, cj, block, last_hit, sigma2_miss) -> np.ndarray:
        """The (C, H * W) miss weights of the cells (ci, cj), whose covered
        blocks are the miss_block_weights arguments block: one
        miss_block_weights call fills the rows of the cells not held, in
        their order, and one take gathers them all."""
        px, py, bx, by, (own_j, own_i) = block
        most = 2 * max(_BLOCK_ELEMENTS, geom.k) // (by.shape[1] * bx.shape[1])
        if last_hit is not self.last_hit or self.n + len(ci) > most:
            self.last_hit, self.at, self.n = last_hit, np.full((geom.ny, geom.nx), -1), 0
        at = self.at[cj, ci]
        new = np.flatnonzero(at < 0)
        if len(new):
            block = px[new], py[new], bx[new], by[new], (own_j[new], own_i[new])
            w = miss_block_weights(*block, last_hit, geom.h, sigma2_miss)
            end = self.n + len(new)
            if end > len(self.rows):
                # in place, keeping the rows held: no view of them leaves this object
                shape = min(max(end, 2 * len(self.rows)), most), w[0].size
                self.rows.resize(shape, refcheck=False)
            self.rows[self.n : end] = w.reshape(len(new), -1)
            at[new] = self.at[cj[new], ci[new]] = np.arange(self.n, end)
            self.n = end
        return self.rows.take(at, axis=0)


def _block_kls(geom: GridGeometry, tables, misses, ci, cj, ctx: MeasurementContext, r: int, params):
    """KL divergences of the hit and of the miss posterior for each cell (ci,
    cj); after the first detection the miss weights come from misses, a
    MissRows."""
    X, Y = geom.cell_centers()
    xs, ys = X[0], Y[:, 0]
    n = len(ci)
    cols, own_i, *col_mass = _block_axis(ci, r, geom.nx)
    rows, own_j, *row_mass = _block_axis(cj, r, geom.ny)
    mass = _clamped_mass(tables, row_mass, col_mass).reshape(n, -1)
    log_mass = _log_mass(mass)
    w = _table_hit_weights(geom, ci, cj, rows, cols, ctx.v_hat, params.sigma2_hit)
    kl_hit = _update_kl(mass, w.reshape(n, -1), log_mass)
    block = (xs[ci], ys[cj], xs[cols], ys[rows], (own_j, own_i))
    if ctx.last_hit_pos is None:
        w = miss_block_weights(*block, None, geom.h, params.sigma2_miss)
    else:
        w = misses.weights(geom, ci, cj, block, ctx.last_hit_pos, params.sigma2_miss)
    kl_miss = _update_kl(mass, w.reshape(n, -1), log_mass)
    return kl_hit, kl_miss


def _score(
    belief: GridBelief, ci, cj, ctx: MeasurementContext, params: PlannerParams, tables, misses
):
    """(ig, p_hit) arrays of the cells (ci, cj), int arrays, in their order,
    from their covered blocks (see the module docstring), in chunks of
    candidates; tables are the belief's _anchored_sums and misses a
    MissRows."""
    geom = belief.geometry
    # a block stops at the grid, and so does a larger radius, which int64 may not hold
    r = min(params.local_radius_cells, max(geom.nx, geom.ny))
    block = min(2 * r + 1, geom.ny) * min(2 * r + 1, geom.nx)
    per_chunk = max(_BLOCK_ELEMENTS, geom.k) // block
    ig, p_hit = np.empty(len(ci)), np.empty(len(ci))
    for start in range(0, len(ci), per_chunk):
        part = slice(start, start + per_chunk)
        kl_hit, kl_miss = _block_kls(geom, tables, misses, ci[part], cj[part], ctx, r, params)
        p = p_hit[part] = _hit_probabilities(belief, ci[part], cj[part], ctx.v_hat, params)
        ig[part] = p * kl_hit + (1.0 - p) * kl_miss
    return ig, p_hit


class CellScores:
    """The ig and p_hit of the cells scored so far for one belief, v_hat,
    last_hit and params, the belief's _anchored_sums and a MissRows. A
    cell's scores do not depend on the vehicle's cell, so the windows of one
    belief share them: the first window's arrays are kept as scored, and
    (ny, nx) grids with a mask of the scored cells are written only when a
    second window is planned. Whoever keeps one renews it when any of the
    four changes; misses, if given, is the MissRows to fill, which the
    CellScores of other beliefs may share."""

    def __init__(self, belief: GridBelief, misses: MissRows | None = None):
        self.probs = belief.probs
        self.tables = _anchored_sums(belief.probs)
        self.misses = MissRows() if misses is None else misses
        self.first = None  # (ci, cj, ig, p_hit) of the first window
        self.ig = self.p_hit = self.known = None  # the grids, from the second window on

    def _write_grids(self):
        ci, cj, ig, p_hit = self.first
        self.ig, self.p_hit = np.empty((2, *self.probs.shape))
        self.known = np.zeros(self.probs.shape, dtype=bool)
        self.ig[cj, ci], self.p_hit[cj, ci], self.known[cj, ci] = ig, p_hit, True


def score_candidates(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
    scored: CellScores | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """(cells, ig, p_hit): the candidate_waypoints cells around usv_cell and
    two read-only float64 arrays holding each cell's gain and hit
    probability, in that order. The first window of scored is scored whole;
    from the second on, cells that scored holds are read from its grids and
    the rest are scored, in window order, and added to them. A call without
    scored uses a fresh CellScores; one built for another belief raises
    ValueError."""
    cells = candidate_waypoints(belief.geometry, usv_cell, params)
    if scored is None:
        scored = CellScores(belief)
    elif scored.probs is not belief.probs:
        raise ValueError("scored: a CellScores built for another belief")
    ci, cj = np.array(cells, dtype=int).reshape(-1, 2).T
    if scored.first is None:
        ig, p_hit = _score(belief, ci, cj, ctx, params, scored.tables, scored.misses)
        scored.first = ci, cj, ig, p_hit
    else:
        if scored.known is None:
            scored._write_grids()
        new = np.flatnonzero(~scored.known[cj, ci])
        if len(new):
            at = cj[new], ci[new]
            scored.ig[at], scored.p_hit[at] = _score(
                belief, ci[new], cj[new], ctx, params, scored.tables, scored.misses
            )
            scored.known[at] = True
        # integer indexing copies, so a window never shares the grids' memory
        ig, p_hit = scored.ig[cj, ci], scored.p_hit[cj, ci]
    ig.setflags(write=False)
    p_hit.setflags(write=False)
    return cells, ig, p_hit


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
