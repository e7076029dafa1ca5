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
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .belief import (
    DegenerateUpdateError,
    GridBelief,
    LikelihoodField,
    MeasurementContext,
    angle_between,
    bayes_update,
    detection_likelihood,
    miss_likelihood,
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


@dataclass(frozen=True)
class CandidateScore:
    cell: tuple[int, int]
    ig: float
    p_hit: float


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

    Entry [dj + ny - 1, di + nx - 1] is the kernel weight for a candidate
    displaced (di, dj) cells from a hypothesized source cell; the zero offset
    carries the kernel maximum. Cell centres lie on a regular lattice, so a
    candidate's full-grid kernel is a reversed slice of this table.
    """
    nx, ny = geometry.nx, geometry.ny
    di = np.arange(-(nx - 1), nx)[None, :]
    dj = np.arange(-(ny - 1), ny)[:, None]
    theta = angle_between(di * geometry.h, dj * geometry.h, v_hat[0], v_hat[1])
    table = np.exp(-(theta**2) / (2.0 * sigma2))
    table[ny - 1, nx - 1] = 1.0
    table.setflags(write=False)
    return table


def _hit_kernel_at(geometry: GridGeometry, candidate, v_hat, sigma2):
    ci, cj = candidate
    table = _hit_kernel_table(geometry, tuple(v_hat), sigma2)
    return table[cj : cj + geometry.ny, ci : ci + geometry.nx][::-1, ::-1]


def predicted_hit_probability(
    belief: GridBelief, candidate: tuple[int, int], v_hat, params: PlannerParams
) -> float:
    """Belief-weighted chance that a measurement at the candidate comes up hot."""
    kernel = _hit_kernel_at(belief.geometry, candidate, v_hat, params.sigma2_hit)
    p = params.detection_ceiling * float(np.sum(belief.probs * kernel))
    return min(max(p, params.prob_clip), 1.0 - params.prob_clip)


def _kl(post: np.ndarray, prior: np.ndarray) -> float:
    # cells with zero posterior contribute nothing; post > 0 implies prior > 0
    mask = post > 0
    return float(np.sum(post[mask] * np.log(post[mask] / prior[mask])))


def information_gain(
    belief: GridBelief,
    hit_like: LikelihoodField,
    miss_like: LikelihoodField,
    p_hit: float,
) -> float:
    """Outcome-weighted KL divergence between predicted posteriors and belief.

    A degenerate branch (likelihood annihilates the prior) keeps the prior
    and contributes zero gain.
    """
    total = 0.0
    for weight, like in ((p_hit, hit_like), (1.0 - p_hit, miss_like)):
        try:
            post = bayes_update(belief, like)
        except DegenerateUpdateError:
            continue
        total += weight * _kl(post.probs, belief.probs)
    return total


def expected_information_gain(
    belief: GridBelief,
    candidate: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
) -> CandidateScore:
    """Score one candidate, evaluating the kernels as if the USV were there."""
    geom = belief.geometry
    cand_ctx = replace(ctx, usv_pos=geom.cell_center(*candidate))
    hit_like = detection_likelihood(cand_ctx, geom, params)
    miss_like = miss_likelihood(cand_ctx, geom, params)
    p_hit = predicted_hit_probability(belief, candidate, ctx.v_hat, params)
    ig = information_gain(belief, hit_like, miss_like, p_hit)
    return CandidateScore(cell=candidate, ig=ig, p_hit=p_hit)


def score_candidates(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
) -> list[CandidateScore]:
    return [
        expected_information_gain(belief, cand, ctx, params)
        for cand in candidate_waypoints(belief.geometry, usv_cell, params)
    ]


def select_waypoint(
    belief: GridBelief,
    usv_cell: tuple[int, int],
    ctx: MeasurementContext,
    params: PlannerParams,
    scores: list[CandidateScore] | None = None,
) -> tuple[int, int]:
    """Candidate cell with maximal gain; deterministic tie-breaks.

    Scores within 1e-12 of the maximum count as tied and resolve by squared
    cell distance to usv_cell, then row-major (flat) cell index. Pass the
    score_candidates result as scores to reuse it; the mission does.
    """
    if scores is None:
        scores = score_candidates(belief, usv_cell, ctx, params)
    if not scores:
        raise ValueError("no candidate waypoints (grid too small)")
    best = max(s.ig for s in scores)
    tied = [s for s in scores if s.ig >= best - 1e-12]
    geom = belief.geometry

    def rank(score: CandidateScore):
        i, j = score.cell
        d2 = (i - usv_cell[0]) ** 2 + (j - usv_cell[1]) ** 2
        return (d2, geom.flat_index(i, j))

    return min(tied, key=rank).cell
