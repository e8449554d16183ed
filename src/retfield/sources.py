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

The field engine never evaluates a pulse node by node: it hands a pulse the
delays R/c and kernel columns of one observation point and asks for the
node sums of ``F``, ``f`` and ``f'`` against those columns at a set of
times (``column_sums``).  Both pulses form them from sums over the nodes
sorted by delay, read only at the ends of the run of nodes the pulse is
on at each time.  The sine-squared pulse uses prefix sums of c, c d and
c times a sine and cosine of the delay (``prefix_sums``), in
O(N log N + k N + T k) for N nodes, k columns and T times.  The
derivative-of-Gaussian pulse cuts the sorted nodes into slabs a pulse
width long and expands the Gaussian about each slab's midpoint in
Hermite polynomials (``moment_sums``), in O(N log N + K k N + T K k) for
K delay moments per slab.  It forms the moments of all k columns together,
as small matrix products over blocks of the sorted nodes: a block's
columns and powers of the delay stay a few node-length arrays, because
fresh pages for whole-radius copies cost more than the arithmetic.
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


def _marks(n_nodes: int, *ends) -> np.ndarray:
    """The node indices, from 0 to ``n_nodes``, at which prefix sums are read.

    Prefix sums over sorted nodes are read only at run ends, so the nodes
    are summed between consecutive ends (pairwise, by reduceat) and only
    those few segment sums are accumulated.  marks[i] is the node index of
    prefix i.  (np.unique would load a module that costs ~1.6 MB of
    resident memory.)
    """
    is_mark = np.zeros(n_nodes + 1, dtype=bool)
    is_mark[[0, -1]] = True
    for end in ends:
        is_mark[end] = True
    return np.flatnonzero(is_mark)


def _running(segments: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, from 0 before the first segment."""
    out = np.zeros(segments.shape[:-1] + (segments.shape[-1] + 1,))
    np.cumsum(segments, axis=-1, out=out[..., 1:])
    return out


def prefix_sums(pulse: "SineSquaredPulse", delays: np.ndarray, columns, times: np.ndarray):
    """Node sums of F, f and f' of a sine-squared pulse, from prefix sums.

    ``columns`` holds, for F, f and f' in that order, a (k, nodes) array of
    columns or None; the result holds a (times, k) array of sums, or None,
    in each place.

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
    every burst) gets exact zeros for f and f', and for F before the front.
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

    marks = _marks(offsets.size, after, end)
    before = np.searchsorted(marks, after)
    lo, hi = before[run], np.searchsorted(marks, end[run])

    def prefix(weighted):
        """Sums of ``weighted`` (sorted nodes) over the nodes before each mark."""
        return _running(np.add.reduceat(weighted, marks[:-1]))

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


#: Cramér's constant: |He_n(u)| exp(-u^2/4) <= _CRAMER sqrt(n!) for all n, u.
_CRAMER = 1.0865

#: Bound on the Hermite terms ``moment_sums`` drops, relative to the sum of
#: |c| over the nodes (times the pulse's own scale: w, 1 or 1/w).
_MOMENT_TOL = 2.0**-53


def moment_count(x_max: float) -> int:
    """Delay moments K that ``moment_sums`` keeps when no node is more than
    ``x_max`` pulse widths from its slab's midpoint.

    By Cramér's inequality, term k of the expansion of f' is at most
    _CRAMER x^k sqrt((k + 2)!)/k! times the sum of |c|, and of F and f at
    most that.  From k on, each term is at most r_k = x sqrt(k + 3)/(k + 1)
    times the one before, so the terms from K on add up to at most
    term_K/(1 - r_K); K is the first k at which that is within _MOMENT_TOL.
    """
    k, term = 0, _CRAMER * math.sqrt(2.0)
    while True:
        ratio = x_max * math.sqrt(k + 3) / (k + 1)
        if ratio < 1.0 and term <= _MOMENT_TOL * (1.0 - ratio):
            return k
        k += 1
        term *= x_max * math.sqrt(k + 2) / k


#: Sorted nodes per block of ``moment_sums``' products.  Whole-radius (K,
#: nodes) powers and a sorted (columns, nodes) copy are fresh pages on every
#: radius: they raised minor page faults per run about 30-fold and saved no
#: time.  On ``negative_velocity.cfg`` 1024-node blocks fault least (340-380
#: times per run, against 490 at 512 nodes and 750 at 2048), and
#: smaller blocks spend the gain on per-block calls.
_MOMENT_BLOCK = 1024

#: (time, slab) pairs ``moment_sums`` contracts with the Hermite rows at
#: once: a zones kind's (pairs, 4, K) moments stay under 64 KiB at K = 16.
_PAIR_CHUNK = 128


def _first_holding(delays: np.ndarray, first: np.ndarray, holds) -> np.ndarray:
    """For each time, the first sorted node at which ``holds`` (false, then
    true along the nodes) is true, or the node count; found by moving the
    guess ``first`` (updated in place) over whole runs of tied delays,
    which share every value."""
    n = delays.size
    while True:
        back = first > 0
        back[back] = holds(first[back] - 1, back)
        ahead = first < n
        ahead[ahead] = ~holds(first[ahead], ahead)
        if not (back.any() or ahead.any()):
            return first
        first[back] = np.searchsorted(delays, delays[first[back] - 1], side="left")
        first[ahead] = np.searchsorted(delays, delays[first[ahead]], side="right")


def moment_sums(pulse: "DifferentiatedGaussianPulse", delays: np.ndarray, columns, times):
    """Node sums of F, f and f' of a derivative-of-Gaussian pulse, from
    delay moments; ``columns`` and the result are as in ``prefix_sums``.

    With B(u) = exp(-u^2/2) and u = (t - d - center)/w for a node of delay
    d, the clipped pulse is F = w (B - B(8)), f = B'(u) and f' = B''(u)/w
    where |u| < 8, and zero elsewhere.  The nodes are sorted by delay and
    cut into slabs no wider than w.  About a slab's midpoint d0, with
    x = (d - d0)/w and u0 = (t - d0 - center)/w,

        B^(j)(u0 - x) = (-1)^j B(u0) sum_k He_{j+k}(u0) x^k / k!,

    whose terms Cramér's inequality bounds for |x| <= 1/2 (``moment_count``
    picks how many to keep).  The nodes inside the clip at one time are a
    run [a, b) of the sorted nodes, found with the pulse's own rounding of
    u, so it spans whole slabs and at most a part of one at each end.  The
    moments sum c x^k/k! of each slab's part of the run are differences of
    prefix sums read at a, b and the slab ends; no pulse value is taken per
    node and time.  A time whose run is empty (ahead of the light front,
    or after the pulse has left every node) gets exact +0.0 sums.

    Every column's prefix sums are formed at once.  The sorted nodes are
    taken a block of ``_MOMENT_BLOCK`` at a time: the block's part of every
    column is gathered into one (columns, block) array, next to the block's
    powers x^k from a multiply ladder, and the nodes between two marks
    (a, b, the slab starts and the block ends) are summed by one
    (columns, piece) @ (piece, K) product.  The Hermite rows are then
    contracted once per kind of sum (F, f, f'), a chunk of (time, slab)
    pairs at a time.
    """
    w, clip = pulse.width, _GAUSS_CLIP_SIGMAS
    order = np.argsort(delays)
    ordered = delays[order]
    n = ordered.size
    offsets = ordered - ordered[0]

    # a slab is the nodes of one bin [i w, (i + 1) w) of the offsets
    new_bin = np.diff(np.floor(offsets / w), prepend=-1.0) != 0.0
    starts = np.flatnonzero(new_bin)
    slab = np.cumsum(new_bin) - 1
    ends = np.append(starts[1:], n)
    mids = 0.5 * (offsets[starts] + offsets[ends - 1])
    x = (offsets - mids[slab]) / w
    count = moment_count(float(np.abs(x).max()))
    inverse_factorials = 1.0 / np.cumprod(np.maximum(np.arange(count), 1.0))

    def u(node, at):
        return ((times[at] - ordered[node]) - pulse.center) / w

    shift = times - pulse.center
    a = _first_holding(
        ordered,
        np.searchsorted(ordered, shift - clip * w, side="right"),
        lambda node, at: u(node, at) < clip,
    )
    b = _first_holding(
        ordered,
        np.searchsorted(ordered, shift + clip * w, side="left"),
        lambda node, at: u(node, at) <= -clip,
    )
    run = np.flatnonzero(a < b)
    sums = [None if cols is None else np.zeros((times.size, len(cols))) for cols in columns]
    if not run.size:
        return sums
    a, b = a[run], b[run]
    kinds = [kind for kind, cols in enumerate(columns) if cols is not None]
    present = [columns[kind] for kind in kinds]

    # one (time, slab) pair per slab the run of a time meets, grouped by time
    first = slab[a]
    counts = slab[b - 1] - first + 1
    group = np.cumsum(counts) - counts
    pair_time = np.repeat(np.arange(run.size), counts)
    pair_slab = first[pair_time] + np.arange(counts.sum()) - group[pair_time]
    marks = _marks(n, starts, a, b, np.arange(0, n, _MOMENT_BLOCK))
    lo = np.searchsorted(marks, np.maximum(a[pair_time], starts[pair_slab]))
    hi = np.searchsorted(marks, np.minimum(b[pair_time], ends[pair_slab]))

    # B(u0) He_n(u0), n = 0 .. count + 1, by the three-term recurrence
    u0 = ((shift[run] - ordered[0])[pair_time] - mids[pair_slab]) / w
    hermite = np.empty((count + 2, u0.size))
    hermite[0] = np.exp(-0.5 * u0 * u0)
    hermite[1] = u0 * hermite[0]
    for k in range(1, count + 1):
        hermite[k + 1] = u0 * hermite[k] - k * hermite[k - 1]
    floor = math.exp(-0.5 * clip**2)

    # every column's moments at every mark; a piece between marks never
    # crosses a block end, which is a mark too
    rows = np.cumsum([0] + [len(cols) for cols in present])
    prefix = np.zeros((marks.size, rows[-1], count))
    gathered = np.empty(rows[-1] * _MOMENT_BLOCK)
    powers = np.empty(count * _MOMENT_BLOCK)
    bounds = marks.tolist()
    for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        if start % _MOMENT_BLOCK == 0:
            nodes = slice(start, min(start + _MOMENT_BLOCK, n))
            size = nodes.stop - start
            block = gathered[: rows[-1] * size].reshape(rows[-1], size)
            for cols, r0, r1 in zip(present, rows[:-1], rows[1:]):
                # "clip" writes straight into out; "raise" would buffer it
                np.take(cols, order[nodes], axis=1, out=block[r0:r1], mode="clip")
            ladder = powers[: count * size].reshape(count, size)
            ladder[0] = 1.0
            for k in range(1, count):
                np.multiply(ladder[k - 1], x[nodes], out=ladder[k])
        piece = slice(start - nodes.start, stop - nodes.start)
        np.matmul(block[:, piece], ladder[:, piece].T, out=prefix[i + 1])
    np.cumsum(prefix, axis=0, out=prefix)
    prefix *= inverse_factorials

    # a chunk of pairs at a time, so that no (pairs, columns, K) temporary
    # grows with the time count
    for kind, r0, r1 in zip(kinds, rows[:-1], rows[1:]):
        contracted = np.empty((pair_time.size, r1 - r0))
        for chunk in range(0, pair_time.size, _PAIR_CHUNK):
            pairs = slice(chunk, chunk + _PAIR_CHUNK)
            moments = prefix[hi[pairs], r0:r1]
            moments -= prefix[lo[pairs], r0:r1]
            series = hermite[kind : kind + count, pairs].T[:, :, None]
            np.matmul(moments, series, out=contracted[pairs, :, None])
            if kind == 0:
                contracted[pairs] -= floor * moments[..., 0]
        sums[kind][run] = (w, -1.0, 1.0 / w)[kind] * np.add.reduceat(contracted, group)
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
    summation = "moments"

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    def column_sums(self, delays, columns, times):
        """Node sums of F, f and f' against kernel columns (``moment_sums``).

        exp(-u^2/2) does not split into a factor per node times a factor
        per time without overflow, but about a point a width away at most
        it is a short Hermite series in the delay.
        """
        return moment_sums(self, delays, columns, times)

    def most_moments(self, delay_spread: float) -> int:
        """The most delay moments ``column_sums`` keeps for delays that span
        at most ``delay_spread``: no slab is wider than that or a width."""
        return moment_count(min(0.5, 0.5 * delay_spread / self.width))

    @property
    def width(self) -> float:
        return self.tau / (2.0 * _GAUSS_CLIP_SIGMAS)

    @property
    def center(self) -> float:
        return self.t_on + 0.5 * self.tau

    def evaluate(self, t):
        """Primitive F, value f and derivative f' at ``t``, as arrays.

        One exponential serves all three, taken only inside the clipped
        support; every entry outside it is exactly +0.0.
        """
        u = (np.asarray(t, dtype=float) - self.center) / self.width
        inside = np.abs(u) < _GAUSS_CLIP_SIGMAS
        primitive, value, rate = np.zeros(u.shape), np.zeros(u.shape), np.zeros(u.shape)
        u_in = u[inside]
        bump = np.exp(-0.5 * u_in * u_in)
        primitive[inside] = self.width * (bump - math.exp(-0.5 * _GAUSS_CLIP_SIGMAS**2))
        value[inside] = -u_in * bump
        rate[inside] = (u_in * u_in - 1.0) / self.width * bump
        return primitive, value, rate

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
        h = d[..., :, None] * d[..., None, :]
        h /= self.sigma**4
        np.einsum("...ii->...i", h)[...] -= 1.0 / self.sigma**2  # a view of the diagonal
        h *= g[..., None, None]
        return h

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
        outside = ~self._mask(points)
        g = self._smooth().gradient(points)
        g[outside] = 0.0
        return g

    def hessian(self, points):
        outside = ~self._mask(points)
        h = self._smooth().hessian(points)
        h[outside] = 0.0
        return h

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
