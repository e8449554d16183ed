"""Unit systems and the closed-form kernels of the zone representation.

``double_gradient_kernel`` and ``far_kernel`` are the near- and far-zone
kernels written as matrices.  The engine in ``evaluators`` applies them to
the polarization through the identity (I - 3 theta theta^T) v =
v - 3 theta (theta . v) instead of building them; its tests check the two
against each other.  Inputs broadcast: pass shape ``(3,)`` for a single
pair or ``(..., 3)`` stacks for many pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Vec3 = np.ndarray

_EPS0 = 8.8541878128e-12  # F/m (CODATA 2018)


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system: wave speed and the Coulomb prefactor 1/(4*pi*eps0)."""

    c: float = 1.0
    coulomb: float = 1.0

    def __post_init__(self):
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ValueError(f"wave speed must be positive and finite, got {self.c}")
        if not (self.coulomb > 0.0 and np.isfinite(self.coulomb)):
            raise ValueError(
                f"Coulomb prefactor must be positive and finite, got {self.coulomb}"
            )


#: Natural units (c = 1, 1/(4*pi*eps0) = 1); the package default.
NATURAL = PhysicalConstants()

#: SI values, for runs in metres/seconds/volts.
SI = PhysicalConstants(c=299792458.0, coulomb=1.0 / (4.0 * np.pi * _EPS0))


def as_vec3(v) -> Vec3:
    """Coerce to a float64 vector of shape (3,), validating finiteness."""
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"vector has non-finite components: {out}")
    return out


def double_gradient_kernel(x, xp) -> np.ndarray:
    """Mixed second derivative matrix of 1/|x - xp|.

    Returns (delta_kn - 3*theta_k*theta_n)/R^3, symmetric and traceless.
    Shape is (..., 3, 3) for broadcast inputs; coincident points are an
    error.
    """
    d = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("observation point coincides with a source point")
    theta = d / r[..., None]
    outer = theta[..., :, None] * theta[..., None, :]
    return (np.eye(3) - 3.0 * outer) / (r**3)[..., None, None]


def far_kernel(theta) -> np.ndarray:
    """Radiation kernel theta theta^T - I (minus the transverse projector).

    ``theta`` must be a unit vector to within 1e-12.
    """
    th = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(th, axis=-1)
    if np.any(np.abs(norm - 1.0) > 1e-12):
        raise ValueError(f"direction must be a unit vector, |theta| = {norm}")
    return th[..., :, None] * th[..., None, :] - np.eye(3)
