"""Integration domains for the source region: axis-aligned boxes and balls."""

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

    def boundary_points(self, per_edge: int = 24) -> np.ndarray:
        """Deterministic sample grid over all six faces."""
        u = np.linspace(0.0, 1.0, per_edge)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        uu, vv = uu.ravel(), vv.ravel()
        faces = []
        for axis in range(3):
            others = [a for a in range(3) if a != axis]
            for val in (self.lo[axis], self.hi[axis]):
                pts = np.empty((uu.size, 3))
                pts[:, axis] = val
                pts[:, others[0]] = self.lo[others[0]] + uu * (
                    self.hi[others[0]] - self.lo[others[0]]
                )
                pts[:, others[1]] = self.lo[others[1]] + vv * (
                    self.hi[others[1]] - self.lo[others[1]]
                )
                faces.append(pts)
        return np.concatenate(faces, axis=0)

    def interior_points(self, per_axis: int = 16) -> np.ndarray:
        """Deterministic interior grid (cell midpoints), center included."""
        axes = [
            self.lo[a] + (np.arange(per_axis) + 0.5) / per_axis * (self.hi[a] - self.lo[a])
            for a in range(3)
        ]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        return np.concatenate([grid, self.center[None, :]], axis=0)


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

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(p - self.center, axis=-1) <= self.radius

    def exterior_distance(self, x) -> float:
        x = as_vec3(x)
        return float(max(np.linalg.norm(x - self.center) - self.radius, 0.0))

    def boundary_points(self, count: int = 2048) -> np.ndarray:
        """Deterministic Fibonacci-lattice sample of the sphere."""
        k = np.arange(count)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * k
        z = 1.0 - (2.0 * k + 1.0) / count
        rho = np.sqrt(1.0 - z * z)
        pts = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
        return self.center + self.radius * pts

    def interior_points(self, per_axis: int = 16) -> np.ndarray:
        """Deterministic interior grid: bounding-box midpoints inside the ball."""
        box = Box(self.center - self.radius, self.center + self.radius)
        pts = box.interior_points(per_axis)
        return pts[self.contains(pts)]


Domain = Union[Box, Ball]


def strictly_outside(domain: Domain, x) -> bool:
    """Whether ``x`` lies beyond the exterior margin of ``domain``."""
    return domain.exterior_distance(x) > EXTERIOR_MARGIN_FRACTION * domain.diameter()
