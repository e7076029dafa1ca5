"""Survey vehicle kinematics and the thresholding sonde.

The vehicle is its position alone. Its clock is the plume field's, and its
cruise speed and sonde settings are Scenario fields; the mission passes
them in.
"""

from dataclasses import dataclass

import numpy as np

from .field import ScalarField, sample_concentration
from .grid import GridGeometry


@dataclass(frozen=True)
class SondeReading:
    time: float
    position: tuple[float, float]
    concentration: float
    z: int


def advance_towards(
    position, waypoint, reach: float, geometry: GridGeometry | None = None
) -> tuple[float, float]:
    """Move straight at the waypoint by up to reach metres, clamping to it
    without overshoot."""
    if not reach > 0:
        raise ValueError(f"reach must be positive, got {reach}")
    if geometry is not None and not geometry.contains(waypoint):
        raise ValueError(f"waypoint {tuple(waypoint)} outside workspace")
    wx, wy = float(waypoint[0]), float(waypoint[1])
    dx = wx - position[0]
    dy = wy - position[1]
    dist = float(np.hypot(dx, dy))
    if dist <= reach or dist == 0.0:
        return (wx, wy)
    frac = reach / dist
    return (position[0] + frac * dx, position[1] + frac * dy)


def take_reading(
    field: ScalarField, position, threshold: float, noise_std: float, rng: np.random.Generator
) -> SondeReading:
    """Sample the field at position, add sensor noise, binarize at threshold
    (z = 1 when the concentration reaches it); stamped with the field's time.

    With noise_std = 0 the generator is never consumed, so noise-free runs
    are seed independent.
    """
    if not threshold > 0:
        raise ValueError(f"sonde threshold must be positive, got {threshold}")
    if not noise_std >= 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    c = sample_concentration(field, position)
    if noise_std > 0:
        c = max(0.0, c + float(rng.normal(0.0, noise_std)))
    z = 1 if c >= threshold else 0
    return SondeReading(time=field.time, position=position, concentration=c, z=z)
