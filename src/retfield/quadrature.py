"""Fixed-order Gauss rules over the source domain.

Boxes get a tensor product of per-axis Gauss-Legendre rules.  Balls get a
spherical product rule about a polar axis: a radial rule, Gauss-Legendre in
cos(theta) (which absorbs the sin(theta) Jacobian exactly), and a uniform
azimuthal grid, run fastest, so each run of ``ring`` = 2*order nodes is a
ring equally far from any point on the axis line (``QuadratureRule.ring_at``).
The radial rule is Gauss-Legendre, except on a ball whose (truncated)
Gaussian envelope is centred on it: there it is the Gauss rule of the
weight r^2 exp(-r^2 / 2 sigma^2) on [0, reach], its weights divided by the
envelope at the nodes, so that an integrand's envelope factor restores
them (``_envelope_radial``).  All weights are positive and all nodes are
strictly interior, so integrands with kernels that blow up on the boundary
stay finite as long as the observation point is outside the domain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .domains import Ball, Box, Domain
from .geometry import Vec3, as_vec3
from .sources import GaussianEnvelope


class ConvergenceError(RuntimeError):
    """Order refinement stopped making progress before reaching tolerance."""


@dataclass(frozen=True)
class QuadratureRule:
    # (3, n): the node coordinates one row per component, read-only since
    # every kernel on this rule shares them
    rows: np.ndarray
    # (n,), positive; summing to volume(domain) unless built for an envelope
    weights: np.ndarray
    order: int
    domain: Domain
    axis: Vec3 | None = None  # a ball's unit polar axis
    ring: int = 1  # nodes per ring about it

    @property
    def nodes(self) -> np.ndarray:
        """The nodes, (n, 3): a view of ``rows``."""
        return self.rows.T

    def __len__(self) -> int:
        return self.rows.shape[1]

    def ring_at(self, x) -> int:
        """Nodes per ring equally far from ``x``: ``ring`` on the axis line (to
        8 eps of |x - centre| + |centre|; points computed on it land within 5), else 1."""
        d = as_vec3(x) - self.domain.center
        off_axis = 0.0 if self.ring == 1 else np.linalg.norm(d - (d @ self.axis) * self.axis)
        slack = 8.0 * np.finfo(float).eps * (np.linalg.norm(d) + np.linalg.norm(self.domain.center))
        return self.ring if off_axis <= slack else 1


def _gauss_legendre(nodes, weights, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


#: Scaled radius x = r / sigma past which the envelope weight x^2 exp(-x^2/2)
#: is below the smallest double, so the radial rule need not reach further.
_WEIGHT_REACH = 40.0
#: Widest panel, in x, of the composite Gauss-Legendre grid that discretises
#: the envelope weight.
_PANEL_WIDTH = 2.5
#: The recurrence is computed for a multiple of this many terms, so that
#: the orders of one ladder share it.
_RECURRENCE_TERMS = 32


def _gauss(alpha: np.ndarray, off: np.ndarray, mass: float, order: int):
    """Nodes and weights of the ``order``-point Gauss rule of the orthonormal
    polynomials with recurrence coefficients ``alpha`` and ``off`` (the
    Jacobi matrix's diagonal and off-diagonal) of a weight of integral
    ``mass``.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix.  The
    weights are the Christoffel numbers 1 / sum_k p_k(x)^2, which keep their
    relative accuracy where they are tiny, unlike squared eigenvector
    entries.
    """
    a, b = alpha[:order], off[: order - 1]
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    previous, p = np.zeros(order), np.full(order, 1.0 / np.sqrt(mass))
    squares = p * p
    a, b = a.tolist(), b.tolist()
    for k in range(order - 1):
        q = (x - a[k]) * p
        if k:
            q -= b[k - 1] * previous
        q /= b[k]
        squares += q * q
        previous, p = p, q
    return x, 1.0 / squares


@functools.lru_cache(maxsize=16)
def _envelope_recurrence(reach: float, terms: int):
    """(alpha, off, mass): ``terms`` recurrence coefficients of the
    orthonormal polynomials of the weight x^2 exp(-x^2/2) on [0, reach], as
    ``_gauss`` takes them.

    The discretised Stieltjes procedure (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, 2004): the weight is sampled on a
    composite grid of at least two ``terms``-point Gauss-Legendre panels at
    most ``_PANEL_WIDTH`` wide, and the normalised recurrence is run on the
    polynomials times the square roots of the sample weights.  For reaches
    0.05 to 40 and 32 or 64 terms, the coefficients are within 4e-14 of
    those from 48 panels of 160 points, but for the last term on two
    panels at their widest (7e-12 at reach 5 and 32 terms); on one panel,
    the last terms of a short reach drift (2e-5 at term 28 for reach 1).
    """
    edges = np.linspace(0.0, reach, max(2, int(np.ceil(reach / _PANEL_WIDTH))) + 1)
    legendre = np.polynomial.legendre.leggauss(terms)
    t, v = _gauss_legendre(*legendre, edges[:-1, None], edges[1:, None])
    t, v = t.ravel(), (v * t * t * np.exp(-0.5 * t * t)).ravel()
    mass = v.sum()
    alpha, off = np.empty(terms), np.empty(terms - 1)
    previous, u = np.zeros_like(t), np.sqrt(v / mass)
    for k in range(terms):
        tu = t * u
        alpha[k] = u @ tu
        if k + 1 < terms:
            q = tu - alpha[k] * u
            if k:
                q -= off[k - 1] * previous
            off[k] = np.sqrt(q @ q)
            previous, u = u, q / off[k]
    return alpha, off, mass


def _envelope_radial(reach: float, sigma: float, order: int):
    """Radial nodes on (0, reach) and weights of the ``order``-point Gauss
    rule of r^2 exp(-r^2 / 2 sigma^2), the weights divided by
    exp(-r^2 / 2 sigma^2) at the nodes; computed in scaled units
    x = r / sigma."""
    terms = _RECURRENCE_TERMS * -(-order // _RECURRENCE_TERMS)
    x, w = _gauss(*_envelope_recurrence(min(reach / sigma, _WEIGHT_REACH), terms), order)
    return sigma * x, sigma**3 * np.exp(0.5 * x * x) * w


def build_rule(domain: Domain, order: int, envelope=None, axis=None) -> QuadratureRule:
    """Tensor rule with ``order`` points per axis (2*order azimuthal on balls).

    With ``envelope``, the source's envelope, a ball that a (truncated)
    Gaussian envelope is centred on exactly gets the radial rule of that
    envelope, out to the nearer of its cut and the ball's surface; any other
    pair gets the rule it gets without one.  A ball's polar axis is ``axis``
    (any length; z by default, whose frame is x, y, z: the former bits).
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    # one Legendre rule, mapped onto each interval
    legendre = np.polynomial.legendre.leggauss(order)
    if isinstance(domain, Box):
        axes = [_gauss_legendre(*legendre, domain.lo[a], domain.hi[a]) for a in range(3)]
        rows = np.stack(np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij")).reshape(3, -1)
        rows.flags.writeable = False
        ws = (
            axes[0][1][:, None, None] * axes[1][1][None, :, None] * axes[2][1][None, None, :]
        ).reshape(-1)
        return QuadratureRule(rows=rows, weights=ws, order=order, domain=domain)
    if isinstance(domain, Ball):
        if isinstance(envelope, GaussianEnvelope) and np.array_equal(envelope.center, domain.center):
            r, wr = _envelope_radial(min(envelope.reach, domain.radius), envelope.sigma, order)
        else:
            r, wr = _gauss_legendre(*legendre, 0.0, domain.radius)
            wr = wr * r**2
        mu, wmu = _gauss_legendre(*legendre, -1.0, 1.0)
        nphi = 2 * order
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        wphi = np.full(nphi, 2.0 * np.pi / nphi)
        # from the 1-D factors, multiplied in the order a (r, mu, phi) meshgrid took
        r_sin = r[:, None, None] * np.sqrt(1.0 - mu**2)[:, None]
        polar = (r_sin * np.cos(phi), r_sin * np.sin(phi), (r[:, None] * mu)[..., None])
        a = as_vec3((0.0, 0.0, 1.0) if axis is None else axis)
        a = a / np.linalg.norm(a)
        e1 = np.eye(3)[np.argmin(np.abs(a))] - a[np.argmin(np.abs(a))] * a
        frame = np.array([e1 / np.linalg.norm(e1), np.cross(a, e1 / np.linalg.norm(e1)), a])
        rows = np.stack([polar[0] * u + polar[1] * v + polar[2] * w for u, v, w in frame.T])
        rows = rows.reshape(3, -1) + domain.center[:, None]
        rows.flags.writeable = False
        weights = (wr[:, None, None] * wmu[None, :, None] * wphi[None, None, :]).reshape(-1)
        return QuadratureRule(rows=rows, weights=weights, order=order, domain=domain,
                              axis=frame[2], ring=nphi)
    raise TypeError(f"unsupported domain type: {type(domain).__name__}")
