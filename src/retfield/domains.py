"""Integration domains for the source region: axis-aligned boxes and balls.

Each gives the boundary point nearest to any point, for ``boundary_leakage``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import Vec3, as_vec3

#: Observation points must sit at least this fraction of the domain diameter
#: outside the domain; keeps every kernel smooth on the integration region.
EXTERIOR_MARGIN_FRACTION = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] with nonempty interior."""

    lo: Vec3
    hi: Vec3

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vec3(self.lo))
        object.__setattr__(self, "hi", as_vec3(self.hi))
        if not np.all(self.hi > self.lo):
            raise ValueError(f"degenerate box: lo={self.lo}, hi={self.hi}")

    @property
    def center(self) -> Vec3:
        return 0.5 * (self.lo + self.hi)

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def exterior_distance(self, x) -> float:
        """Euclidean distance from x to the box (0 if x is inside)."""
        x = as_vec3(x)
        gap = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return float(np.linalg.norm(gap))

    def nearest_boundary_point(self, x) -> Vec3:
        """The point of the box's surface nearest to x."""
        x = as_vec3(x)
        p = np.clip(x, self.lo, self.hi)
        if np.all(p == x):  # inside: move the coordinate nearest a face onto it
            k = int(np.argmin(np.concatenate([x - self.lo, self.hi - x])))
            p[k % 3] = np.concatenate([self.lo, self.hi])[k]
        return p


@dataclass(frozen=True)
class Ball:
    """Ball of given center and radius."""

    center: Vec3
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"degenerate ball: radius={self.radius}")

    def volume(self) -> float:
        return 4.0 / 3.0 * np.pi * self.radius**3

    def diameter(self) -> float:
        return 2.0 * self.radius

    def exterior_distance(self, x) -> float:
        x = as_vec3(x)
        return float(max(np.linalg.norm(x - self.center) - self.radius, 0.0))

    def nearest_boundary_point(self, x) -> Vec3:
        """The point of the sphere nearest to x; its +z pole for the centre."""
        d = as_vec3(x) - self.center
        r = np.linalg.norm(d)
        return self.center + self.radius * (d / r if r > 0.0 else np.array([0.0, 0.0, 1.0]))


Domain = Union[Box, Ball]


def strictly_outside(domain: Domain, x) -> bool:
    """Whether ``x`` lies beyond the exterior margin of ``domain``."""
    return domain.exterior_distance(x) > EXTERIOR_MARGIN_FRACTION * domain.diameter()
