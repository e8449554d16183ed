"""Fixed-order Gauss-Legendre rules over the source domain.

Boxes get a tensor product of per-axis rules.  Balls get a spherical
product rule: Gauss-Legendre in radius, Gauss-Legendre in cos(theta) (which
absorbs the sin(theta) Jacobian exactly), and a uniform azimuthal grid.
All weights are positive and all nodes are strictly interior, so integrands
with kernels that blow up on the boundary stay finite as long as the
observation point is outside the domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domains import Ball, Box, Domain


class ConvergenceError(RuntimeError):
    """Order refinement stopped making progress before reaching tolerance."""


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,), positive, summing to volume(domain)
    order: int
    domain: Domain

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @functools.cached_property
    def node_rows(self) -> np.ndarray:
        """The nodes one row per component, (3, n), read-only, shared by
        every kernel on this rule."""
        rows = np.ascontiguousarray(self.nodes.T)
        rows.flags.writeable = False
        return rows


def _gauss_legendre(nodes, weights, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def build_rule(domain: Domain, order: int) -> QuadratureRule:
    """Tensor rule with ``order`` points per axis (2*order azimuthal on balls)."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    # one Legendre rule, mapped onto each interval
    legendre = np.polynomial.legendre.leggauss(order)
    if isinstance(domain, Box):
        axes = [_gauss_legendre(*legendre, domain.lo[a], domain.hi[a]) for a in range(3)]
        xs = np.stack(
            np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        ws = (
            axes[0][1][:, None, None] * axes[1][1][None, :, None] * axes[2][1][None, None, :]
        ).reshape(-1)
        return QuadratureRule(nodes=xs, weights=ws, order=order, domain=domain)
    if isinstance(domain, Ball):
        r, wr = _gauss_legendre(*legendre, 0.0, domain.radius)
        mu, wmu = _gauss_legendre(*legendre, -1.0, 1.0)
        nphi = 2 * order
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        wphi = np.full(nphi, 2.0 * np.pi / nphi)
        rg, mg, pg = np.meshgrid(r, mu, phi, indexing="ij")
        sin_t = np.sqrt(1.0 - mg**2)
        nodes = domain.center + np.stack(
            [
                rg * sin_t * np.cos(pg),
                rg * sin_t * np.sin(pg),
                rg * mg,
            ],
            axis=-1,
        ).reshape(-1, 3)
        weights = (
            (wr * r**2)[:, None, None] * wmu[None, :, None] * wphi[None, None, :]
        ).reshape(-1)
        return QuadratureRule(nodes=nodes, weights=weights, order=order, domain=domain)
    raise TypeError(f"unsupported domain type: {type(domain).__name__}")

