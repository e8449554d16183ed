"""Fixed-order Gauss rules over the source domain.

Boxes get a tensor product of per-axis Gauss-Legendre rules.  Balls get a
spherical product rule about a polar axis: a radial rule, Gauss-Legendre in
cos(theta) (which absorbs the sin(theta) Jacobian exactly), and a uniform
azimuthal grid, run fastest, so each run of ``ring`` = 2*order nodes is a
ring equally far from any point on the axis line (``QuadratureRule.ring_at``).
A ball rule keeps these 1-D factors and builds its nodes and weights from
them on first use; ``QuadratureRule.quarters`` gives its rings' sums of
low-degree integrands from four nodes a ring.  Every Gauss-Legendre rule
comes from the Golub-Welsch solver ``_gauss`` (``_legendre``).
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
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .domains import Ball, Box, Domain
from .geometry import Vec3, as_vec3
from .sources import GaussianEnvelope


class ConvergenceError(RuntimeError):
    """Order refinement stopped making progress before reaching tolerance."""


class BallFactors(NamedTuple):
    """A ball rule's 1-D factors, from which its nodes and weights are built."""

    radii: np.ndarray
    radial_weights: np.ndarray
    cosines: np.ndarray  # mu = cos(theta)
    cosine_weights: np.ndarray
    azimuths: int  # uniform azimuthal points per ring
    frame: np.ndarray  # (3, 3): rows e1, e2 and the polar axis


def _ball_arrays(center: Vec3, f: BallFactors):
    """(rows, weights) of a ball rule, read-only; ``(r, mu, phi)`` with phi
    fastest, and each entry formed as a ``(r, mu, phi)`` meshgrid formed it."""
    phi = 2.0 * np.pi * np.arange(f.azimuths) / f.azimuths
    r_sin = f.radii[:, None, None] * np.sqrt(1.0 - f.cosines**2)[:, None]
    polar = (r_sin * np.cos(phi), r_sin * np.sin(phi), (f.radii[:, None] * f.cosines)[..., None])
    rows = np.empty((3, *polar[0].shape))
    for out, (u, v, w), c in zip(rows, f.frame.T, center):
        np.multiply(polar[0], u, out=out)
        out += polar[1] * v
        out += polar[2] * w
        out += c
    rows = rows.reshape(3, -1)
    weights = (
        f.radial_weights[:, None, None]
        * f.cosine_weights[None, :, None]
        * np.full(f.azimuths, 2.0 * np.pi / f.azimuths)[None, None, :]
    ).reshape(-1)
    rows.flags.writeable = weights.flags.writeable = False
    return rows, weights


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    # (3, n): the node coordinates one row per component, read-only since
    # every kernel on this rule shares them; None for a ball rule's, which
    # are built from its ``factors`` on first use (``__getattr__``), and so
    # left out of ``repr``
    rows: np.ndarray = field(repr=False)
    # (n,), positive; summing to volume(domain) unless built for an envelope;
    # None with ``rows``
    weights: np.ndarray = field(repr=False)
    order: int
    domain: Domain
    axis: Vec3 | None = None  # a ball's unit polar axis
    ring: int = 1  # nodes per ring about it
    factors: BallFactors | None = None  # a ball's, from which it builds rows and weights

    def __post_init__(self):
        if self.rows is None:  # left unset, so that the first read builds them
            object.__delattr__(self, "rows")
            object.__delattr__(self, "weights")

    def __getattr__(self, name):
        if name not in ("rows", "weights") or self.factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, weights = _ball_arrays(self.domain.center, self.factors)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)
        return getattr(self, name)

    @property
    def nodes(self) -> np.ndarray:
        """The nodes, (n, 3): a view of ``rows``."""
        return self.rows.T

    def __len__(self) -> int:
        if self.factors is None:
            return self.rows.shape[1]
        return self.factors.radii.size * self.factors.cosines.size * self.factors.azimuths

    def quarters(self) -> "QuadratureRule":
        """A ball rule's rings of 4 nodes, a quarter turn apart from each
        ring's first node, each ring weighted as a whole as in this rule.

        The uniform azimuthal rule of k points sums trigonometric
        polynomials of degree below k exactly, so for 2*order >= 3 both
        rules give every ring the same sum of anything constant on it times
        a polynomial of degree at most 2 in the node (up to rounding):
        w*A*g and its moments about the first node under an envelope
        radial about the centre, and w*A*(H . p_hat) under a Gaussian one.
        """
        return replace(self, rows=None, weights=None, ring=4,
                       factors=self.factors._replace(azimuths=4))

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


def _legendre(order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on
    [-1, 1], from ``_gauss`` on the Legendre recurrence (alpha_k = 0,
    off_k = k / sqrt(4k^2 - 1), mass 2), made exactly symmetric about 0."""
    k = np.arange(1.0, order)
    x, w = _gauss(np.zeros(order), k / np.sqrt(4.0 * k * k - 1.0), 2.0, order)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


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
    0.05 to 40 (in steps of 0.25 from 0.5) and 32 or 64 terms, the
    coefficients are within 1e-13 of those from 48 panels of 160 points
    (numpy's Gauss-Legendre nodes), but for the last two of 32 terms on two
    panels near their widest (reaches 4.25 to 5; 6.8e-12 at reach 5); on
    one panel, the last terms of a short reach drift (1.2e-5 at term 28
    for reach 1).
    """
    edges = np.linspace(0.0, reach, max(2, int(np.ceil(reach / _PANEL_WIDTH))) + 1)
    t, v = _gauss_legendre(*_legendre(terms), edges[:-1, None], edges[1:, None])
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
    (any length; z by default, whose frame is x, y, z: the former bits).  A
    ball rule holds its 1-D factors; its nodes and weights are built on
    first use, and ``len`` counts them without building them.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    # one Legendre rule, mapped onto each interval
    legendre = _legendre(order)
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
        a = as_vec3((0.0, 0.0, 1.0) if axis is None else axis)
        if not np.any(a):
            raise ValueError("a ball rule's axis must be a nonzero vector")
        a = a / np.linalg.norm(a)
        e1 = np.eye(3)[np.argmin(np.abs(a))] - a[np.argmin(np.abs(a))] * a
        frame = np.array([e1 / np.linalg.norm(e1), np.cross(a, e1 / np.linalg.norm(e1)), a])
        return QuadratureRule(rows=None, weights=None, order=order, domain=domain, axis=frame[2],
                              ring=2 * order, factors=BallFactors(r, wr, mu, wmu, 2 * order, frame))
    raise TypeError(f"unsupported domain type: {type(domain).__name__}")
