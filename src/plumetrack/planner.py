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
written in place, a suffix sum through a reversed view, into one buffer of
the grid's full size that the memo keeps: a belief's first pass folds each
sum from its border only as far as its blocks read, and a later pass folds
the whole grid once, so only the folds are cut, never the buffer. The block
geometry of every cell is one table per grid and radius, so a chunk's
masses are one gather, a row part by cj plus a column part by ci. The
detection kernel over the lattice of cell offsets is one table per grid,
wind and sigma2_hit, and a chunk's hit weights are one gather from it on
every grid, through the same block tables. Where cell centres d cells
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

One memo keeps work for later windows. A cell's ig and p_hit depend on the
belief, v_hat, last_hit, the grid and the params, not on the vehicle's cell,
and its miss weights only on the cell and last_hit, for one grid and params.
A CellScores holds both per cell, beside the belief's anchored sums, and
score_candidates renews it first on every call: other grid, v_hat or params
empty both, another last_hit object the miss weights and the scores, and
another belief.probs object the scores. A window's cells it holds are read
from it and only the rest go to the pass, in window order, so the windows
of one belief share their cells' scores and the beliefs between two
detections their miss weights: the miss kernel runs once per cell per
detection. A call without a CellScores uses a fresh one, so there is one
scoring path. A row of the pass does not depend on the other cells of its
chunk, so every window holds the bits that scoring it whole gives. A
mission keeps one CellScores (see the mission module).
"""

import math
from collections import namedtuple
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
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mass = np.log(mass)
    np.copyto(log_mass, 0.0, where=mass <= 0)
    return log_mass


def _update_kl(mass: np.ndarray, w: np.ndarray, log_mass: np.ndarray) -> np.ndarray:
    """KL(posterior || prior) per row, for prior masses mass[c, b] with
    likelihood weights w[c, b] (see the module docstring) and log_mass the
    _log_mass of mass; 0 for a degenerate row. The log ratio is a difference
    of logs, which cannot overflow on a subnormal prior mass as a quotient
    would; it is taken over the whole row, and the terms where the posterior
    holds no mass (-inf or NaN there) are zeroed, so the prior's mass is
    positive at every term kept. The products are those of bayes_update
    (weighted_mass)."""
    post, z = weighted_mass(mass, w, axis=1)
    post /= np.where(z > 0, z, 1.0)  # a degenerate row is all zero and stays so
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(post)
        terms -= log_mass
        terms *= post
    np.copyto(terms, 0.0, where=post <= 0)
    return terms.sum(axis=1)


def _block_axis(c: np.ndarray, r: int, n: int):
    """One axis of the covered blocks of cells c, min(2r+1, n) entries per
    cell: the block's cell indices, the index of c in its block, whether
    each entry lies in the block, its clamp-region kind and the index its
    mass is read at (see _Axis). Entries past a block's end repeat its last
    cell."""
    lo, hi = np.maximum(c - r, 0)[:, None], np.minimum(c + r, n - 1)[:, None]
    k = lo + np.arange(min(2 * r + 1, n))
    idx = np.minimum(k, hi)
    kind = np.where(idx == lo, 0, np.where(idx == hi, 2, 1))
    # a one-cell-wide block takes the whole axis: the prefix sum at its end
    read = np.where(lo == hi, n - 1, idx)
    return idx, c - lo[:, 0], k <= hi, kind, read


# One axis of the blocks of every cell, row c for cell c: _block_axis's five
# results, each entry's flat-index part into the anchored sums (mass) and into
# _hit_kernel_table (hit), its cell centre, and per clamp-region kind (0: from
# the border to the block's low edge, 1: the cell, 2: from its high edge to
# the border) the first and last index read, n and -1 for a kind not read.
_Axis = namedtuple("_Axis", "cells own inside kind read mass hit centres first last")


@lru_cache(maxsize=8)
def _block_tables(geometry: GridGeometry, r: int) -> tuple[_Axis, _Axis]:
    """The _Axis of x and of y for radius r, read-only. A pass gathers rows
    by ci and cj and adds a row part to a column part; the hit parts read
    the offset (ci - i, cj - j) of block cell (i, j) from the table."""
    nx, ny = geometry.nx, geometry.ny
    X, Y = geometry.cell_centers()
    axes = []
    # the flat-index strides per kind, per read and per offset
    for n, at, *stride in ((nx, X[0], ny * nx, 1, 1), (ny, Y[:, 0], 3 * ny * nx, nx, 2 * nx - 1)):
        c = np.arange(n)
        cells, own, inside, kind, read = _block_axis(c, r, n)
        mass = kind * stride[0] + read * stride[1]
        hit = (n - 1 - c[:, None] + cells) * stride[2]
        first = np.stack([np.where(kind == k, read, n).min(1) for k in range(3)], 1)
        last = np.stack([np.where(kind == k, read, -1).max(1) for k in range(3)], 1)
        axes.append(_Axis(cells, own, inside, kind, read, mass, hit, at[cells], first, last))
        for a in axes[-1]:
            a.setflags(write=False)
    return axes[0], axes[1]


def _gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """table raveled, read at rows[c, h] + cols[c, w]: shape (C, H, W)."""
    return table.reshape(-1).take(rows[:, :, None] + cols[:, None, :])


def _anchored_sums(probs: np.ndarray, tables: np.ndarray, cols=None, rows=None) -> np.ndarray:
    """3x3 tables of shape (ny, nx) of the belief masses P_b of the clamp
    regions (see _Axis), written into tables, (3, 3, ny, nx). Along each axis
    table 0 sums from the low border to an index, table 1 is the cell and
    table 2 sums from an index to the high border: a cumulative sum of the
    reversed axis into a reversed view. cols (the half-open span of columns
    read per x kind) and rows (the end of the rows read in y kind 0, the
    start of those in y kind 2) cut the folds; each still runs from its
    border in the same order, so every entry written has the full bits."""
    ny, nx = probs.shape
    cols = cols or ((0, nx),) * 3
    end, start = rows or (ny, 0)
    sums = tables[1]  # the sums along x, which the sums along y read
    (_, e0), (b1, e1), (b2, _) = cols
    np.cumsum(probs[:, :e0], 1, out=sums[0, :, :e0])
    sums[1, :, b1:e1] = probs[:, b1:e1]
    np.cumsum(probs[:, b2:][:, ::-1], 1, out=sums[2, :, b2:][:, ::-1])
    for kx, (b, e) in enumerate(cols):
        np.cumsum(sums[kx, :end, b:e], 0, out=tables[0, kx, :end, b:e])
        np.cumsum(sums[kx, start:, b:e][::-1], 0, out=tables[2, kx, start:, b:e][::-1])
    return tables


# Elements of one (C, H, W) block array: _score takes the candidates in chunks
# of at most this many, or of the grid's cell count if larger, so its memory
# stays O(nx * ny) for any window and radius.
_BLOCK_ELEMENTS = 1 << 16


class _CellRows:
    """Rows of one width per grid cell, for the cells held: a (capacity,
    width) array allocated once, filled in order, and an (ny, nx) index of
    each cell's row, -1 for a cell not held. A call's cells must be distinct
    and fit the capacity."""

    def __init__(self, shape, width, capacity):
        self.at, self.rows, self.n = np.full(shape, -1), np.empty((capacity, width)), 0

    def get(self, ci, cj, fill) -> np.ndarray:
        """The rows of the cells (ci, cj), shape (C, width): one fill(new)
        call gives the rows of the cells not held, new indexing ci and cj in
        their order, and one take gathers them all. A store that cannot hold
        the new rows empties first."""
        at = self.at[cj, ci]
        new = np.flatnonzero(at < 0)
        if self.n + len(new) > len(self.rows):
            self.clear()
            at[:] = -1
            new = np.arange(len(at))
        if len(new):
            end = self.n + len(new)
            self.rows[self.n : end] = fill(new).reshape(len(new), -1)
            at[new] = self.at[cj[new], ci[new]] = np.arange(self.n, end)
            self.n = end
        return self.rows.take(at, axis=0)

    def clear(self):
        self.at.fill(-1)
        self.n = 0


class CellScores:
    """The planner's work per cell for the belief, context and params that
    score_candidates was last given, which renew keeps current (see the
    module docstring), in two _CellRows tiers: the (ig, p_hit) of the cells
    scored and their miss weights; beside them the belief's _anchored_sums
    in one buffer of the grid's size. The miss tier holds one of _score's
    chunks, so its memory stays O(nx * ny) as the pass's does."""

    def __init__(self):
        self.key = self.last_hit = self.probs = None

    def renew(self, belief: GridBelief, ctx: MeasurementContext, params: PlannerParams):
        """Empty what belief, ctx and params make stale: both tiers and the
        sums when the grid, v_hat or params differ, compared by equality as
        the kernel caches compare them; the miss rows and the scores when
        last_hit is another object; the scores and sums when belief.probs is."""
        geom = belief.geometry
        if (geom, tuple(ctx.v_hat), params) != self.key:
            self.key = geom, tuple(ctx.v_hat), params
            # a block stops at the grid, and so does a larger radius, which int64 may not hold
            r = min(params.local_radius_cells, max(geom.nx, geom.ny))
            self.axes = _block_tables(geom, r)
            block = self.axes[0].cells.shape[1] * self.axes[1].cells.shape[1]
            self.chunk = max(_BLOCK_ELEMENTS, geom.k) // block  # candidates per pass chunk
            self.scores = _CellRows((geom.ny, geom.nx), 2, geom.k)
            self.misses = _CellRows((geom.ny, geom.nx), block, self.chunk)
            self.tables, self.probs = np.empty((3, 3, geom.ny, geom.nx)), None
        if ctx.last_hit_pos is not self.last_hit:
            self.last_hit = ctx.last_hit_pos
            self.misses.clear()
            self.scores.clear()
        if belief.probs is not self.probs:
            self.probs, self.fold = belief.probs, None
            self.scores.clear()

    def sums(self, ci, cj) -> np.ndarray:
        """The anchored sums, folded at every flat index that the pass over
        cells (ci, cj) reads: a belief's first pass folds each sum from its
        border only as far as its blocks read, and a later one the whole
        grid, once."""
        if self.fold is None:
            x, y = self.axes
            cols = zip(x.first[ci].min(0).tolist(), (x.last[ci].max(0) + 1).tolist())
            rows = int(y.last[cj, 0].max()) + 1, int(y.first[cj, 2].min())
            _anchored_sums(self.probs, self.tables, tuple(cols), rows)
            self.fold = "cut"
        elif self.fold == "cut":
            _anchored_sums(self.probs, self.tables)
            self.fold = "whole"
        return self.tables


def _block_kls(geom: GridGeometry, memo: CellScores, ci, cj, ctx: MeasurementContext, params):
    """KL divergences of the hit and of the miss posterior for each cell (ci,
    cj), from one gather each of the clamped masses P_b and of the hit
    weights through memo's block tables; after the first detection the miss
    weights come from memo's miss rows. Where cell centres d cells apart
    differ by exactly d * h in floats the hit weights are the bits of
    detection_block_weights, and elsewhere they differ by rounding only."""
    x, y = memo.axes
    n = len(ci)
    mass = _gather(memo.sums(ci, cj), y.mass[cj], x.mass[ci])
    in_y, in_x = y.inside[cj], x.inside[ci]
    if not (in_y.all() and in_x.all()):  # P_b is 0 past a block
        mass[~(in_y[:, :, None] & in_x[:, None, :])] = 0.0
    mass = mass.reshape(n, -1)
    log_mass = _log_mass(mass)
    table = _hit_kernel_table(geom, tuple(ctx.v_hat), params.sigma2_hit)
    kl_hit = _update_kl(mass, _gather(table, y.hit[cj], x.hit[ci]).reshape(n, -1), log_mass)
    X, Y = geom.cell_centers()
    px, py, bx, by = X[0, ci], Y[cj, 0], x.centres[ci], y.centres[cj]
    own_j, own_i = y.own[cj], x.own[ci]

    def miss(at):
        block = px[at], py[at], bx[at], by[at], (own_j[at], own_i[at])
        return miss_block_weights(*block, ctx.last_hit_pos, geom.h, params.sigma2_miss)

    w = miss(slice(None)) if ctx.last_hit_pos is None else memo.misses.get(ci, cj, miss)
    kl_miss = _update_kl(mass, w.reshape(n, -1), log_mass)
    return kl_hit, kl_miss


def _score(
    belief: GridBelief, ci, cj, ctx: MeasurementContext, params: PlannerParams, memo: CellScores
):
    """(C, 2) rows of (ig, p_hit) of the cells (ci, cj), int arrays, in their
    order, from their covered blocks (see the module docstring), in chunks of
    candidates; memo is a CellScores renewed for belief, ctx and params."""
    geom = belief.geometry
    out = np.empty((len(ci), 2))
    for start in range(0, len(ci), memo.chunk):
        part = slice(start, start + memo.chunk)
        kl_hit, kl_miss = _block_kls(geom, memo, ci[part], cj[part], ctx, params)
        p = out[part, 1] = _hit_probabilities(belief, ci[part], cj[part], ctx.v_hat, params)
        out[part, 0] = p * kl_hit + (1.0 - p) * kl_miss
    return out


def score_candidates(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
    memo: CellScores | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """(cells, ig, p_hit): the candidate_waypoints cells around usv_cell and
    two read-only float64 arrays holding each cell's gain and hit
    probability, in that order. memo, renewed first, gives the scores of
    the cells it holds; the rest are scored, in window order, and added to
    it. A call without memo uses a fresh CellScores."""
    cells = candidate_waypoints(belief.geometry, usv_cell, params)
    memo = CellScores() if memo is None else memo
    memo.renew(belief, ctx, params)
    ci, cj = np.array(cells, dtype=int).reshape(-1, 2).T
    rows = memo.scores.get(ci, cj, lambda new: _score(belief, ci[new], cj[new], ctx, params, memo))
    ig, p_hit = rows.T  # take copies, so a window never shares the store's memory
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
