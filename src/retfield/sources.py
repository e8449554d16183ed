"""Analytic current-density models.

A source is separable, ``J(x', t') = A * p_hat * g(x') * f(t')``, so every
quantity the field integrals need comes in closed form: the time derivative
and primitive of ``f``, the gradient and Hessian of ``g``, and the charge
density reconstructed from charge conservation,

    rho(x', t) = -A * (p_hat . grad g) * F(t),   F(t) = int_{t_on}^t f.

``rho`` therefore vanishes identically at the switch-on time.  Every
density is a spatial factor of ``SourceModel`` times a pulse quantity:
``J = p_hat * current_factor * f``, ``rho = charge_factor * F`` and
``grad rho = charge_gradient_factor * F``; the field kernels weight the
same factors by the quadrature weights.

The field engine never evaluates a pulse node by node itself: it hands a
pulse the delays R/c and kernel columns of one observation point and asks
for the node sums of ``F``, ``f`` and ``f'`` against those columns at a set
of times (``column_sums``).  The sine-squared pulse forms them from prefix
sums over the nodes sorted by delay (``prefix_sums``), in O(N log N + k N
+ T k) for N nodes, k columns and T times; the derivative-of-Gaussian
pulse evaluates itself on (times x nodes) blocks of retarded times and
reduces them with ``einsum`` (``block_sums``), in O(T N k).
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


#: Entries of one (times x nodes) block of retarded times in ``block_sums``.
#: It bounds the working set of a sampling (128 KB per block array) whatever
#: the grid; on a 2 MB-L2 x86 core, blocks of 2**15 entries and up ran
#: 1.5-2x slower.
BLOCK_ELEMENTS = 1 << 14


def _scalarize(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def block_height(n_nodes: int) -> int:
    """Observation times per block, so a block holds ~BLOCK_ELEMENTS entries."""
    return max(1, BLOCK_ELEMENTS // n_nodes)


def block_sums(pulse, delays: np.ndarray, columns, times: np.ndarray):
    """Node sums of ``pulse`` against kernel columns at each of ``times``.

    ``columns`` holds, for F, f and f' in that order, a (k, nodes) array of
    columns or None; the result holds a (times, k) array of sums, or None,
    in each place.  The pulse is evaluated on blocks of ``block_height``
    times x all nodes of retarded times ``t - delays``.  einsum sums each
    output row on its own, so a row comes out bit for bit the same whatever
    the block height; a BLAS matmul does not promise that.
    """
    height = block_height(delays.size)
    sums = [None if cols is None else np.empty((times.size, len(cols))) for cols in columns]
    for j in range(0, times.size, height):
        block = pulse.evaluate(times[j : j + height, None] - delays)
        for out, values, cols in zip(sums, block, columns):
            if cols is not None:
                out[j : j + height] = np.einsum("tn,kn->tk", values, cols)
    return sums


def prefix_sums(pulse: "SineSquaredPulse", delays: np.ndarray, columns, times: np.ndarray):
    """The sums of ``block_sums`` for a sine-squared pulse, from prefix sums.

    The nodes are sorted by delay, and d below is a delay's offset from the
    smallest, d0, so that the angles stay of order (delay spread + tau)/tau
    at any distance and switch-on time.  With s = t - t_on - d0,
    u = (s - d)/tau, alpha = 2 pi s/tau and beta = 2 pi d/tau,
    sin 2 pi u = sin(alpha) cos(beta) - cos(alpha) sin(beta).  At one time
    the nodes whose burst is over (d <= s - tau) are a prefix [0, a) of the
    sorted nodes, where F = tau/2 and f = f' = 0, and those inside it
    (s - tau < d < s) are the run [a, b).  So every sum of a column c is
    made of differences of prefix sums of c, c d, c cos(beta) and
    c sin(beta), read at a and b; no pulse value is taken per node and
    time.  A time whose run is empty (ahead of the light front, or after
    every burst) gets exact zeros for f and f', and for F before the front:
    the bits ``block_sums`` gives there.
    """
    order = np.argsort(delays)
    offsets = delays[order]
    origin = offsets[0]
    offsets -= origin
    tau, angular = pulse.tau, 2.0 * np.pi / pulse.tau
    cos_beta = np.cos(angular * offsets)
    sin_beta = np.sin(angular * offsets)

    s = (times - pulse.t_on) - origin
    after = np.searchsorted(offsets, s - tau, side="right")
    # s - tau rounds to s once tau is below half an ulp of s
    end = np.maximum(np.searchsorted(offsets, s, side="left"), after)
    run = np.flatnonzero(after < end)
    s_run = s[run]
    alpha = angular * s_run
    sin_alpha, cos_alpha = np.sin(alpha), np.cos(alpha)

    # Prefix sums are read only at the run ends, so the nodes are summed
    # between consecutive ends (pairwise, by reduceat) and only those few
    # segment sums are accumulated.  marks[i] is the node index of prefix
    # i, from 0 to the node count.  (np.unique would load a module that
    # costs ~1.6 MB of resident memory.)
    is_mark = np.zeros(offsets.size + 1, dtype=bool)
    is_mark[[0, -1]] = True
    is_mark[after] = is_mark[end] = True
    marks = np.flatnonzero(is_mark)
    before = np.searchsorted(marks, after)
    lo, hi = before[run], np.searchsorted(marks, end[run])

    def prefix(weighted):
        """Sums of ``weighted`` (sorted nodes) over the nodes before each mark."""
        out = np.zeros(marks.size)
        np.cumsum(np.add.reduceat(weighted, marks[:-1]), out=out[1:])
        return out

    def run_sums(weighted):
        p = prefix(weighted)
        return p[hi] - p[lo]

    # One column at a time keeps the working set at a few node-length
    # arrays whatever the column count.
    sums = []
    for kind, cols in enumerate(columns):
        if cols is None:
            sums.append(None)
            continue
        out = np.zeros((times.size, len(cols)))
        for j, col in enumerate(cols):
            col = col[order]
            c_cos, c_sin = run_sums(col * cos_beta), run_sums(col * sin_beta)
            sin_u = sin_alpha * c_cos - cos_alpha * c_sin  # sum of c sin 2 pi u
            if kind == 0:
                c_prefix = prefix(col)
                out[:, j] = (0.5 * tau) * c_prefix[before]
                c_one, c_delay = c_prefix[hi] - c_prefix[lo], run_sums(col * offsets)
                out[run, j] += 0.5 * (s_run * c_one - c_delay) - tau / (4.0 * np.pi) * sin_u
            elif kind == 1:
                c_cos_u = cos_alpha * c_cos + sin_alpha * c_sin  # sum of c cos 2 pi u
                out[run, j] = 0.5 * (run_sums(col) - c_cos_u)
            else:
                out[run, j] = (np.pi / tau) * sin_u
        sums.append(out)
    return sums


@dataclass(frozen=True)
class SineSquaredPulse:
    """sin^2 burst on [t_on, t_on + tau]; exactly zero outside."""

    t_on: float
    tau: float

    #: How ``column_sums`` forms its sums, as ``report.json`` names it.
    summation = "prefix"

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    def column_sums(self, delays, columns, times):
        """Node sums of F, f and f' against kernel columns (``prefix_sums``)."""
        return prefix_sums(self, delays, columns, times)

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

    #: How ``column_sums`` forms its sums, as ``report.json`` names it.
    summation = "block"

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    def column_sums(self, delays, columns, times):
        """Node sums of F, f and f' against kernel columns (``block_sums``).

        exp(-u^2/2) does not split into a factor per node times a factor
        per time without overflow, so this pulse is evaluated per entry.
        """
        return block_sums(self, delays, columns, times)

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
    """Separable current density A * p_hat * g(x') * f(t') on a domain.

    Each density is one spatial factor method times a pulse quantity; only
    ``charge_gradient_factor`` evaluates the envelope's Hessian.
    """

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

    def current_factor(self, nodes) -> np.ndarray:
        """A * g(x'): J = p_hat * current_factor * f(t)."""
        return self.amplitude * np.asarray(self.envelope.value(nodes))

    def charge_factor(self, nodes) -> np.ndarray:
        """-A * (p_hat . grad g)(x'): rho = charge_factor * F(t)."""
        return -self.amplitude * (self.envelope.gradient(nodes) @ self.polarization)

    def charge_gradient_factor(self, nodes) -> np.ndarray:
        """-A * (H . p_hat)(x'), a 3-vector per node: grad rho = this * F(t)."""
        return -self.amplitude * (self.envelope.hessian(nodes) @ self.polarization)

    def charge_density(self, xp, tp):
        """Charge reconstructed from charge conservation; zero at switch-on."""
        return _scalarize(np.asarray(self.charge_factor(xp) * self.profile.primitive(tp)))

    def current_divergence(self, xp, tp):
        return _scalarize(np.asarray(-self.charge_factor(xp) * self.profile.value(tp)))

    def boundary_leakage(self) -> float:
        """Peak |J| on the domain boundary relative to peak |J| inside.

        Quantifies how badly the source violates the vanish-at-the-boundary
        hypothesis behind the equivalence of the two field representations.
        Defined as 0 for an identically zero source.
        """
        boundary = np.max(np.abs(self.current_factor(self.domain.boundary_points())))
        interior = np.max(np.abs(self.current_factor(self.domain.interior_points())))
        if interior == 0.0:
            return 0.0
        return float(boundary / interior)
