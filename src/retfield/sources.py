"""Analytic current-density models.

A source is separable, ``J(x', t') = A * p_hat * g(x') * f(t')``, so every
quantity the field integrals need comes in closed form: the time derivative
and primitive of ``f``, the gradient and Hessian of ``g``, and the charge
density reconstructed from charge conservation,

    rho(x', t) = -A * (p_hat . grad g) * F(t),   F(t) = int_{t_on}^t f.

``rho`` therefore vanishes identically at the switch-on time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domains import Domain
from .geometry import Vec3, as_vec3

# The clipped pulse treats the Gaussian as supported on +/- this many widths.
_GAUSS_CLIP_SIGMAS = 8.0

# A point up to this many epsilons of |center| + cut_radius outside the cut
# sphere counts as on it; points computed on the sphere land up to ~1.3 out.
_CUT_SLACK_EPS = 8.0


def _scalarize(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class SineSquaredPulse:
    """sin^2 burst on [t_on, t_on + tau]; exactly zero outside."""

    t_on: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    def evaluate(self, t):
        """Primitive F, value f and derivative f' at ``t``, as arrays.

        The sines are taken only inside the support; outside it f and f'
        are exactly +0.0 and F is 0.0 before the burst and tau/2 after.
        """
        u = (np.asarray(t, dtype=float) - self.t_on) / self.tau
        inside = (u > 0.0) & (u < 1.0)
        primitive = np.where(u >= 1.0, 0.5 * self.tau, 0.0)
        value = np.zeros(u.shape)
        rate = np.zeros(u.shape)
        u_in = u[inside]
        sin_2pu = np.sin(2.0 * np.pi * u_in)
        primitive[inside] = self.tau * (0.5 * u_in - sin_2pu / (4.0 * np.pi))
        value[inside] = np.sin(np.pi * u_in) ** 2
        rate[inside] = np.pi / self.tau * sin_2pu
        return primitive, value, rate

    def value(self, t):
        return _scalarize(self.evaluate(t)[1])

    def derivative(self, t):
        return _scalarize(self.evaluate(t)[2])

    def primitive(self, t):
        return _scalarize(self.evaluate(t)[0])


@dataclass(frozen=True)
class DifferentiatedGaussianPulse:
    """Derivative-of-Gaussian burst clipped to [t_on, t_on + tau].

    The Gaussian width is tau/16, centered mid-support, so the clip discards
    only the tails beyond 8 widths (relative size ~1e-14).  Clipping makes
    the support exactly compact; its net time integral is exactly zero.
    """

    t_on: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    @property
    def width(self) -> float:
        return self.tau / (2.0 * _GAUSS_CLIP_SIGMAS)

    @property
    def center(self) -> float:
        return self.t_on + 0.5 * self.tau

    def evaluate(self, t):
        """Primitive F, value f and derivative f' at ``t``, as arrays.

        One exponential serves all three; every entry outside the clipped
        support is exactly +0.0.  This runs on every node at every sampled
        time, so it works in place on flat temporaries (a 0-d ``t`` becomes
        one element) and restores the shape of ``t`` at the end.
        """
        t = np.asarray(t, dtype=float)
        u = (t.ravel() - self.center) / self.width
        outside = np.abs(u) >= _GAUSS_CLIP_SIGMAS
        u2 = u * u
        bump = np.exp(-0.5 * u2)
        bump[outside] = 0.0
        primitive = bump - math.exp(-0.5 * _GAUSS_CLIP_SIGMAS**2)
        primitive *= self.width
        primitive[outside] = 0.0
        # Outside the support x * bump is -0.0 for x < 0; adding +0.0 makes
        # it +0.0 and leaves every nonzero value as it is.
        value = np.negative(u, out=u)
        value *= bump
        value += 0.0
        rate = np.subtract(u2, 1.0, out=u2)
        rate /= self.width
        rate *= bump
        rate += 0.0
        return tuple(a.reshape(t.shape) for a in (primitive, value, rate))

    def value(self, t):
        return _scalarize(self.evaluate(t)[1])

    def derivative(self, t):
        return _scalarize(self.evaluate(t)[2])

    def primitive(self, t):
        return _scalarize(self.evaluate(t)[0])


TimeProfile = Union[SineSquaredPulse, DifferentiatedGaussianPulse]

_PROFILE_KINDS = {
    "sine-squared": SineSquaredPulse,
    "differentiated-gaussian": DifferentiatedGaussianPulse,
}


def make_profile(kind: str, t_on: float, tau: float) -> TimeProfile:
    try:
        cls = _PROFILE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown pulse kind {kind!r}; expected one of {sorted(_PROFILE_KINDS)}"
        ) from None
    return cls(t_on=t_on, tau=tau)


@dataclass(frozen=True)
class GaussianEnvelope:
    """Isotropic Gaussian bump exp(-|x - center|^2 / (2 sigma^2))."""

    center: Vec3
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"envelope width must be positive, got {self.sigma}")

    def value(self, points):
        d = np.asarray(points, dtype=float) - self.center
        r2 = np.sum(d * d, axis=-1)
        return _scalarize(np.exp(-0.5 * r2 / self.sigma**2))

    def gradient(self, points):
        d = np.asarray(points, dtype=float) - self.center
        g = np.exp(-0.5 * np.sum(d * d, axis=-1) / self.sigma**2)
        return -d / self.sigma**2 * g[..., None]

    def hessian(self, points):
        d = np.asarray(points, dtype=float) - self.center
        g = np.exp(-0.5 * np.sum(d * d, axis=-1) / self.sigma**2)
        outer = d[..., :, None] * d[..., None, :] / self.sigma**4
        return (outer - np.eye(3) / self.sigma**2) * g[..., None, None]

    def integral(self) -> float:
        """Integral of g over all space."""
        return (2.0 * np.pi) ** 1.5 * self.sigma**3


@dataclass(frozen=True)
class TruncatedGaussianEnvelope:
    """Gaussian chopped to zero outside |x - center| <= cut_radius.

    No smoothing at the cut: this envelope intentionally leaves a finite
    current on the sphere of radius ``cut_radius``, which is what the
    boundary-term experiments need.  Derivatives are the masked smooth
    derivatives; they are not distributionally correct on the cut sphere
    itself.
    """

    center: Vec3
    sigma: float
    cut_radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"envelope width must be positive, got {self.sigma}")
        if not (self.cut_radius > 0.0 and np.isfinite(self.cut_radius)):
            raise ValueError(f"cut radius must be positive, got {self.cut_radius}")

    def _smooth(self) -> GaussianEnvelope:
        return GaussianEnvelope(self.center, self.sigma)

    def _mask(self, points):
        """Inside or on the cut sphere, up to rounding in the coordinates."""
        d = np.asarray(points, dtype=float) - self.center
        scale = np.max(np.abs(self.center)) + self.cut_radius
        reach = self.cut_radius + _CUT_SLACK_EPS * np.finfo(float).eps * scale
        return np.sum(d * d, axis=-1) <= reach**2

    def value(self, points):
        v = np.asarray(self._smooth().value(points))
        return _scalarize(np.where(self._mask(points), v, 0.0))

    def gradient(self, points):
        g = self._smooth().gradient(points)
        return np.where(self._mask(points)[..., None], g, 0.0)

    def hessian(self, points):
        h = self._smooth().hessian(points)
        return np.where(self._mask(points)[..., None, None], h, 0.0)

    def integral(self) -> float:
        a = self.cut_radius / (self.sigma * math.sqrt(2.0))
        radial = self.sigma**3 * math.sqrt(np.pi / 2.0) * math.erf(
            a
        ) - self.sigma**2 * self.cut_radius * math.exp(-a * a)
        return 4.0 * np.pi * radial


SpatialEnvelope = Union[GaussianEnvelope, TruncatedGaussianEnvelope]


def make_envelope(
    kind: str, center, sigma: float, cut_radius: float | None = None
) -> SpatialEnvelope:
    if kind == "gaussian":
        return GaussianEnvelope(center=center, sigma=sigma)
    if kind == "truncated-gaussian":
        if cut_radius is None:
            raise ValueError("truncated-gaussian envelope requires a cut radius")
        return TruncatedGaussianEnvelope(center=center, sigma=sigma, cut_radius=cut_radius)
    raise ValueError(
        f"unknown envelope kind {kind!r}; expected 'gaussian' or 'truncated-gaussian'"
    )


@dataclass(frozen=True)
class SourceModel:
    """Separable current density A * p_hat * g(x') * f(t') on a domain."""

    envelope: SpatialEnvelope
    profile: TimeProfile
    polarization: Vec3
    amplitude: float
    domain: Domain

    def __post_init__(self):
        object.__setattr__(self, "polarization", as_vec3(self.polarization))
        norm = np.linalg.norm(self.polarization)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"polarization must be a unit vector, |p| = {norm}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    @property
    def t_on(self) -> float:
        return self.profile.t_on

    def _directed(self, scalar) -> np.ndarray:
        return np.asarray(scalar)[..., None] * self.polarization

    def current(self, xp, tp) -> np.ndarray:
        """J(x', t'); identically zero before switch-on."""
        return self._directed(
            self.amplitude * np.asarray(self.envelope.value(xp)) * self.profile.value(tp)
        )

    def current_time_derivative(self, xp, tp) -> np.ndarray:
        return self._directed(
            self.amplitude
            * np.asarray(self.envelope.value(xp))
            * self.profile.derivative(tp)
        )

    def current_time_primitive(self, xp, tp) -> np.ndarray:
        """Running time integral of J from switch-on to tp."""
        return self._directed(
            self.amplitude
            * np.asarray(self.envelope.value(xp))
            * self.profile.primitive(tp)
        )

    def current_divergence(self, xp, tp):
        grad = self.envelope.gradient(xp)
        return _scalarize(
            np.asarray(
                self.amplitude * (grad @ self.polarization) * self.profile.value(tp)
            )
        )

    def charge_density(self, xp, tp):
        """Charge reconstructed from charge conservation; zero at switch-on."""
        grad = self.envelope.gradient(xp)
        return _scalarize(
            np.asarray(
                -self.amplitude * (grad @ self.polarization) * self.profile.primitive(tp)
            )
        )

    def charge_gradient(self, xp, tp) -> np.ndarray:
        """Spatial gradient of the charge density at frozen time tp."""
        hess = self.envelope.hessian(xp)
        hp = hess @ self.polarization
        return -self.amplitude * np.asarray(self.profile.primitive(tp))[..., None] * hp

    def boundary_leakage(self) -> float:
        """Peak |J| on the domain boundary relative to peak |J| inside.

        Quantifies how badly the source violates the vanish-at-the-boundary
        hypothesis behind the equivalence of the two field representations.
        Defined as 0 for an identically zero source.
        """
        scale = abs(self.amplitude)
        boundary = scale * np.max(np.abs(self.envelope.value(self.domain.boundary_points())))
        interior = scale * np.max(np.abs(self.envelope.value(self.domain.interior_points())))
        if interior == 0.0:
            return 0.0
        return float(boundary / interior)
