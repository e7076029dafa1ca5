"""Credible-interval uncertainty quantification and the stopping test.

The tracker's uncertainty metric is the width of the smallest credible
interval (SCI) at level gamma, computed independently on the x and y
marginals of the grid belief. The SCI is the shortest contiguous index
interval whose probability mass reaches gamma; it hugs the highest
probability mass region of the marginal. Tracking stops once both axis
widths drop to the threshold tau.
"""

from dataclasses import dataclass

import numpy as np

from .belief import GridBelief


@dataclass
class MarginalDist:
    """1D marginal of the belief along one axis."""

    probs: np.ndarray
    cell_size: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("marginal needs a non-empty 1D probability vector")
        if self.probs.min() < 0:
            raise ValueError("marginal probabilities must be non-negative")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("marginal must sum to 1 within 1e-9")


def marginal(belief: GridBelief, axis: str) -> MarginalDist:
    """Sum the belief over the other axis; output renormalized."""
    if axis == "x":
        p = belief.probs.sum(axis=0)
    elif axis == "y":
        p = belief.probs.sum(axis=1)
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return MarginalDist(p / p.sum(), belief.geometry.h)


def smallest_credible_interval(dist: MarginalDist, gamma: float) -> tuple[int, int]:
    """Shortest contiguous index interval holding at least gamma mass.

    Among intervals of the minimal length the one with the greatest mass
    wins, and remaining ties go to the smallest lower index. Two-pointer
    sweep over prefix sums, O(k). Prefix sums are taken in extended
    precision so that boundary comparisons against gamma behave like exact
    summation.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    p = dist.probs
    k = p.size
    prefix = np.zeros(k + 1, dtype=np.longdouble)
    np.cumsum(p.astype(np.longdouble), out=prefix[1:])
    target = np.longdouble(gamma)

    best: tuple[int, np.longdouble, int] | None = None  # (length, -mass, lower)
    u = 0
    for low in range(k):
        if u < low:
            u = low
        while u < k and prefix[u + 1] - prefix[low] < target:
            u += 1
        if u == k:
            break  # no interval starting at or after `low` reaches gamma
        mass = prefix[u + 1] - prefix[low]
        key = (u - low + 1, -mass, low)
        if best is None or key < best:
            best = key
    if best is None:
        # gamma < 1 and the marginal sums to ~1, so full support always works
        return 0, k - 1
    length, _, low = best
    return low, low + length - 1


def sci_widths(belief: GridBelief, gamma: float) -> tuple[float, float]:
    """SCI width in metres along each axis; a point mass spans one cell."""
    widths = []
    for axis in ("x", "y"):
        dist = marginal(belief, axis)
        lo, hi = smallest_credible_interval(dist, gamma)
        widths.append((hi - lo + 1) * dist.cell_size)
    return widths[0], widths[1]


def termination_check(widths: tuple[float, float], tau: float) -> bool:
    """True once both axis widths are within the threshold."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return widths[0] <= tau and widths[1] <= tau
