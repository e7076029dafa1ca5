"""Workspace grid geometry shared by the plume field and the source belief."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridGeometry:
    """Regular 2D grid of square cells centred on a world-frame origin.

    Cell (i, j) has its centre at
        origin + ((i - (nx - 1) / 2) * h, (j - (ny - 1) / 2) * h)
    so the centre pattern is symmetric about the origin. Flat cell indices
    run row-major with j as the outer axis: flat = j * nx + i.
    """

    nx: int
    ny: int
    h: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 1:
            raise ValueError(f"nx: must be >= 1, got {self.nx}")
        if self.ny < 1:
            raise ValueError(f"ny: must be >= 1, got {self.ny}")
        if not 0 < self.h < math.inf:
            raise ValueError(f"h: must be positive and finite, got {self.h}")
        if not (math.isfinite(self.origin[0]) and math.isfinite(self.origin[1])):
            raise ValueError(f"origin: must be finite, got {self.origin}")
        # the kernels multiply two in-workspace displacements, each shorter
        # than (nx + ny) * h; an integer too large for a float counts as inf
        try:
            cells = float(self.nx + self.ny)
        except OverflowError:
            cells = math.inf
        span = cells * self.h
        if not 2.0 * span * span < math.inf:
            key = "h" if 2.0 * cells * cells < math.inf else "nx" if self.nx >= self.ny else "ny"
            raise ValueError(
                f"{key}: the workspace spans (nx + ny) * h = {span:.6g} m, too far for "
                "the products of two displacements to stay finite"
            )

    @property
    def k(self) -> int:
        """Number of cells."""
        return self.nx * self.ny

    @property
    def x_bounds(self) -> tuple[float, float]:
        half = self.nx * self.h / 2.0
        return self.origin[0] - half, self.origin[0] + half

    @property
    def y_bounds(self) -> tuple[float, float]:
        half = self.ny * self.h / 2.0
        return self.origin[1] - half, self.origin[1] + half

    def contains(self, position) -> bool:
        x, y = float(position[0]), float(position[1])
        (x0, x1), (y0, y1) = self.x_bounds, self.y_bounds
        return x0 <= x <= x1 and y0 <= y <= y1

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return (
            self.origin[0] + (i - (self.nx - 1) / 2.0) * self.h,
            self.origin[1] + (j - (self.ny - 1) / 2.0) * self.h,
        )

    def cell_of(self, position) -> tuple[int, int]:
        """Cell (i, j) containing a workspace position (boundary points clip inward)."""
        if not self.contains(position):
            raise ValueError(f"position {tuple(position)} outside workspace")
        i = int(np.floor((position[0] - self.origin[0]) / self.h + self.nx / 2.0))
        j = int(np.floor((position[1] - self.origin[1]) / self.h + self.ny / 2.0))
        return min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1)

    def flat_index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def cell_centers(self):
        """Arrays X, Y of cell-centre coordinates, shape (ny, nx), indexed [j, i]."""
        return _cell_centers(self)


@lru_cache(maxsize=32)
def _cell_centers(geometry: GridGeometry):
    xs = geometry.origin[0] + (np.arange(geometry.nx) - (geometry.nx - 1) / 2.0) * geometry.h
    ys = geometry.origin[1] + (np.arange(geometry.ny) - (geometry.ny - 1) / 2.0) * geometry.h
    X, Y = np.meshgrid(xs, ys)
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y
