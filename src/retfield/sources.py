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

Each pulse class is the one definition of its burst: its support (the
times it is on), ``F`` after the burst, and ``F``, ``f`` and ``f'`` where it
is on.  Per-entry evaluation (``evaluate``) and the field engine read the
same support, so both clip every node alike.

Over a grid of times the field engine never evaluates a pulse node by node
(a single time evaluates it once per node): it hands a pulse the delays R/c
and kernel columns of one observation point and asks for the node sums of
``F``, ``f`` and ``f'`` against those columns at the times
(``column_sums``); a node is a column entry, one ring of nodes where the
point is on the rule's axis.  Both pulses form the sums in ``moment_sums``,
from sums over the nodes sorted by delay, read only at the ends of the run
of nodes the pulse is on at each time.  Each pulse gives its ``Expansion``:
K basis rows of the nodes times K coefficient rows of the time, the rows
carrying every constant of the pulse.  A radius costs O(N log N + K k N +
T K k) for N nodes (or rings), k columns and T times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .domains import Domain
from .geometry import Vec3, as_vec3

# The clipped pulse treats the Gaussian as supported on +/- this many widths.
_GAUSS_CLIP_SIGMAS = 8.0

# B(8) = exp(-8^2/2), the Gaussian at the clip, taken off F = w (B - B(8)) so
# that F is exactly 0 at both ends of the clip.
_GAUSS_FLOOR = math.exp(-0.5 * _GAUSS_CLIP_SIGMAS**2)

# A point up to this many epsilons of |center| + cut_radius outside the cut
# sphere counts as on it; points computed on the sphere land up to ~1.3 out.
_CUT_SLACK_EPS = 8.0


def _scalarize(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def _marks(n_nodes: int, *ends) -> np.ndarray:
    """The node indices 0, ``n_nodes`` and every index in ``ends``, at which
    prefix sums are read; only the segment sums between them are formed.
    (np.unique would load a module that costs ~1.6 MB of resident memory.)"""
    is_mark = np.zeros(n_nodes + 1, dtype=bool)
    is_mark[[0, -1]] = True
    for end in ends:
        is_mark[end] = True
    return np.flatnonzero(is_mark)


#: Cramér's constant: |He_n(u)| exp(-u^2/4) <= _CRAMER sqrt(n!) for all n, u.
_CRAMER = 1.0865

#: Bound on the Hermite terms ``moment_sums`` drops, relative to the sum of
#: |c| over the nodes (times the pulse's own scale of F, f or f': w, 1, 1/w).
_MOMENT_TOL = 2.0**-53


def moment_count(x_max: float) -> int:
    """Delay moments K that the derivative-of-Gaussian pulse keeps when no
    node is more than ``x_max`` pulse widths from its slab's midpoint.

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


#: Sorted nodes per block of ``moment_sums``' products.  The ring sweeps of
#: the shipped configs (100 rings a radius, at most 484) fit in one block;
#: box and off-axis ball sweeps span several.  The block bounds a call's
#: memory: the zones calls of the memory tests, at 8192 and 21296 nodes,
#: peak at 12.4 and 7.5 node arrays, 15.8 and 8.3 at 2048-node blocks and
#: 22.8 and 9.8 at 4096.  2048-node blocks also fault about 670 times per
#: repeated run of an off-axis 5488-node sweep, against 90 at 1024.
_MOMENT_BLOCK = 1024

#: Moments ``moment_sums`` contracts with the coefficient rows at once, as
#: (pair, column, row) entries: 64 KiB, or 128 pairs of a zones kind at K = 16.
_CHUNK_ENTRIES = 8192


def _first_below(ordered, times, t0, unit, bounds) -> np.ndarray:
    """For each bound (a row of ``bounds``) and time, the first sorted node
    whose u = ((t - d) - t0)/unit is below the bound, as the pulse rounds
    u, or the node count; found by moving a guess from the delays alone
    over whole runs of tied delays, which share every value."""
    first = np.searchsorted(ordered, (times - t0) - bounds * unit)
    # delays -inf and +inf either side, where u is never and always below
    padded = np.concatenate([[-np.inf], ordered, [np.inf]])
    while True:
        # u below the bound at the node before the guess ([0]) and at it ([1])
        holds = ((times - padded[first + np.array([0, 1])[:, None, None]]) - t0) / unit < bounds
        back, ahead = holds[0], ~holds[1]
        if not (back.any() or ahead.any()):
            return first
        first[back] = np.searchsorted(ordered, ordered[first[back] - 1], side="left")
        first[ahead] = np.searchsorted(ordered, ordered[first[ahead]], side="right")


@dataclass(frozen=True, eq=False)
class Expansion:
    """A pulse where it is on, as ``moment_sums`` sums it over nodes sorted
    by delay.

    There each of F, f and f' is the sum over k < ``count`` of basis row k
    of the node (``basis(nodes, out)`` writes the rows of a slice of the
    sorted nodes) times coefficient row k of the (time, slab) pair
    (``coefficients(s, slab)`` gives them per kind, at s = t - t0 - smallest
    delay, with t0 the pulse's ``support[0]``).  Slabs begin at ``starts``.
    Where the pulse is on, and what F is past it, the pulse itself says.
    """

    starts: np.ndarray
    count: int
    basis: Callable
    coefficients: Callable


def moment_sums(pulse: "TimeProfile", delays: np.ndarray, columns, times: np.ndarray):
    """Node sums of F, f and f' of a pulse against kernel columns, from
    moments of the nodes sorted by delay.

    ``columns`` holds, for F, f and f' in that order, a (k, nodes) array of
    columns or None; the result holds a (times, k) array of sums, or None,
    in each place.

    At one time the nodes the pulse is over for are a prefix [0, a) of the
    sorted nodes and those it is on are the run [a, b).  Both are found from
    the pulse's ``support`` with the rounding of u that ``evaluate`` uses,
    so the clip is exact per node.  The moments, sums of c times each basis
    row over a slab's part of the run, are differences of prefix sums read
    at the marks: a, b, the slab starts and the block ends.  Each (time,
    slab) pair contracts them with its coefficient rows; F adds the pulse's
    ``after`` times the sum of c over [0, a).  No pulse value is taken per
    node and time, and a time whose run is empty gets exact +0.0 sums of f
    and f', and of F until the pulse reaches a node.

    The sorted nodes are taken a block of ``_MOMENT_BLOCK`` at a time: the
    block's part of every column is gathered into one (columns, block) array
    next to its basis rows, and each piece, the nodes between two marks, is
    summed by one (columns, piece) @ (piece, K) product.  The coefficient
    rows are contracted once per kind, a chunk of pairs at a time.
    """
    order = np.argsort(delays)
    ordered = delays[order]
    n = ordered.size
    expansion = pulse.expansion(ordered - ordered[0])
    t0, unit, lo_u, hi_u = pulse.support
    starts, count = expansion.starts, expansion.count
    # u <= lo is u < the float after lo
    a, b = _first_below(ordered, times, t0, unit, np.array([[hi_u], [np.nextafter(lo_u, np.inf)]]))
    run = np.flatnonzero(a < b)
    sums = [None if cols is None else np.zeros((times.size, len(cols))) for cols in columns]
    past = a if pulse.after else a[:0]  # F reads the sums over [0, a)
    if not (run.size or past.any()):
        return sums
    kinds = [kind for kind, cols in enumerate(columns) if cols is not None]
    present = [columns[kind] for kind in kinds]

    # one (time, slab) pair per slab the run of a time meets, grouped by time
    a_run, b_run = a[run], b[run]
    first = np.searchsorted(starts, a_run, side="right") - 1
    counts = np.searchsorted(starts, b_run - 1, side="right") - first
    group = np.cumsum(counts) - counts
    pair_time = np.repeat(np.arange(run.size), counts)
    pair_slab = first[pair_time] + np.arange(counts.sum()) - group[pair_time]
    marks = _marks(n, starts, past, a_run, b_run, np.arange(0, n, _MOMENT_BLOCK))
    lo = np.searchsorted(marks, np.maximum(a_run[pair_time], starts[pair_slab]))
    hi = np.searchsorted(marks, np.minimum(b_run[pair_time], np.append(starts[1:], n)[pair_slab]))
    coefficients = expansion.coefficients(((times - t0)[run] - ordered[0])[pair_time], pair_slab)

    # every column's moments at every mark; a piece never crosses a block end, a mark too
    rows = list(itertools.accumulate((len(cols) for cols in present), initial=0))
    prefix = np.zeros((marks.size, rows[-1], count))
    gathered = np.empty(rows[-1] * _MOMENT_BLOCK)
    basis = np.empty(count * _MOMENT_BLOCK)
    blocks = np.searchsorted(marks, np.append(np.arange(0, n, _MOMENT_BLOCK), n)).tolist()
    for m0, m1 in zip(blocks[:-1], blocks[1:]):
        nodes = slice(marks[m0], marks[m1])
        cuts = (marks[m0 : m1 + 1] - marks[m0]).tolist()
        block = gathered[: rows[-1] * cuts[-1]].reshape(rows[-1], cuts[-1])
        for cols, r0, r1 in zip(present, rows[:-1], rows[1:]):
            # "clip" writes straight into out; "raise" would buffer it
            np.take(cols, order[nodes], axis=1, out=block[r0:r1], mode="clip")
        ladder = basis[: count * cuts[-1]].reshape(count, cuts[-1])
        expansion.basis(nodes, ladder)
        for i, (start, stop) in enumerate(zip(cuts[:-1], cuts[1:]), m0 + 1):
            np.matmul(block[:, start:stop], ladder[:, start:stop].T, out=prefix[i])
    np.cumsum(prefix, axis=0, out=prefix)

    # a chunk of pairs at a time, so that no (pairs, columns, K) temporary
    # grows with the time count
    for kind, r0, r1 in zip(kinds, rows[:-1], rows[1:]):
        contracted = np.empty((pair_time.size, r1 - r0))
        step = max(1, _CHUNK_ENTRIES // ((r1 - r0) * count))
        for chunk in range(0, pair_time.size, step):
            pairs = slice(chunk, chunk + step)
            moments = prefix[hi[pairs], r0:r1]
            moments -= prefix[lo[pairs], r0:r1]
            series = coefficients[kind][:, pairs].T[:, :, None]
            np.matmul(moments, series, out=contracted[pairs, :, None])
        if group.size < pair_time.size:  # a run meets more than one slab
            contracted = np.add.reduceat(contracted, group)
        sums[kind][run] = contracted
        if kind == 0 and pulse.after:
            sums[kind] += pulse.after * prefix[np.searchsorted(marks, a), r0:r1, 0]
    return sums


@dataclass(frozen=True)
class _Pulse:
    """A burst switched on at ``t_on`` for ``tau``, summed by ``moment_sums``.

    Each pulse states its ``support``, ``(t0, unit, lo, hi)``: it is on where
    lo < u = (t - t0)/unit < hi.  It states F past the burst (u >= hi),
    ``after``, and F, f and f' where it is on: per entry (``_inside(u)``)
    and as rows for ``moment_sums`` (``expansion``).  Everywhere else F, f
    and f' are +0.0.  ``evaluate`` and ``moment_sums`` read the same
    support and after-value, so both clip every node alike.
    """

    t_on: float
    tau: float

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"pulse duration must be positive, got {self.tau}")

    def evaluate(self, t):
        """Primitive F, value f and derivative f' at ``t``, as arrays; the
        formulas are taken only where the pulse is on."""
        t0, unit, lo, hi = self.support
        u = (np.asarray(t, dtype=float) - t0) / unit
        on = (u > lo) & (u < hi)
        primitive = np.where(u >= hi, self.after, 0.0)
        value, rate = np.zeros(u.shape), np.zeros(u.shape)
        primitive[on], value[on], rate[on] = self._inside(u[on])
        return primitive, value, rate

    def value(self, t):
        return _scalarize(self.evaluate(t)[1])

    def derivative(self, t):
        return _scalarize(self.evaluate(t)[2])

    def primitive(self, t):
        return _scalarize(self.evaluate(t)[0])

    def column_sums(self, delays, columns, times):
        """Node sums of F, f and f' against kernel columns (``moment_sums``)."""
        return moment_sums(self, delays, columns, times)


class SineSquaredPulse(_Pulse):
    """sin^2 burst on [t_on, t_on + tau]; exactly zero outside."""

    # each pulse class holds its own entries, which bench/tracer.py wraps by name
    value, derivative, primitive = _Pulse.value, _Pulse.derivative, _Pulse.primitive

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (self.t_on, self.tau, 0.0, 1.0)

    @property
    def after(self) -> float:
        return 0.5 * self.tau

    def _inside(self, u):
        sin_2pu = np.sin(2.0 * np.pi * u)
        primitive = self.tau * (0.5 * u - sin_2pu / (4.0 * np.pi))
        return primitive, np.sin(np.pi * u) ** 2, np.pi / self.tau * sin_2pu

    def expansion(self, offsets) -> Expansion:
        """One slab and the exact basis 1, d, cos(beta), sin(beta): with
        s = t - t_on - d0, u = (s - d)/tau, alpha = 2 pi s/tau and
        beta = 2 pi d/tau, 2 pi u = alpha - beta.  d is a delay's offset from
        the smallest, d0, so that the angles stay of order
        (delay spread + tau)/tau at any distance and switch-on time."""
        angular, k = 2.0 * np.pi / self.tau, self.tau / (4.0 * np.pi)
        cos_beta, sin_beta = np.cos(angular * offsets), np.sin(angular * offsets)

        def basis(nodes, out):
            out[0], out[1], out[2], out[3] = 1.0, offsets[nodes], cos_beta[nodes], sin_beta[nodes]

        def coefficients(s, _):
            sin_alpha, cos_alpha = np.sin(angular * s), np.cos(angular * s)
            rows = np.zeros((3, 4, s.size))
            # F = (s - d)/2 - k sin 2 pi u, f = (1 - cos 2 pi u)/2, f' = (pi/tau) sin 2 pi u
            rows[0, 0], rows[0, 1] = 0.5 * s, -0.5
            rows[0, 2], rows[0, 3] = -k * sin_alpha, k * cos_alpha
            rows[1, 0], rows[1, 2], rows[1, 3] = 0.5, -0.5 * cos_alpha, -0.5 * sin_alpha
            rows[2, 2], rows[2, 3] = np.pi / self.tau * sin_alpha, -np.pi / self.tau * cos_alpha
            return rows

        return Expansion(np.zeros(1, int), 4, basis, coefficients)

    def most_moments(self, delay_spread: float) -> int:
        """The basis rows ``column_sums`` keeps, at any delay spread."""
        return 4


class DifferentiatedGaussianPulse(_Pulse):
    """Derivative-of-Gaussian burst clipped to [t_on, t_on + tau].

    The Gaussian width is tau/16, centered mid-support, so the clip discards
    only the tails beyond 8 widths (relative size ~1e-14).  Clipping makes
    the support exactly compact; its net time integral is exactly zero.
    """

    value, derivative, primitive = _Pulse.value, _Pulse.derivative, _Pulse.primitive

    after = 0.0  # F = w (B - B(8)) is back to 0 at the clip

    @property
    def support(self) -> tuple[float, float, float, float]:
        return (self.center, self.width, -_GAUSS_CLIP_SIGMAS, _GAUSS_CLIP_SIGMAS)

    @property
    def width(self) -> float:
        return self.tau / (2.0 * _GAUSS_CLIP_SIGMAS)

    @property
    def center(self) -> float:
        return self.t_on + 0.5 * self.tau

    def _inside(self, u):
        # one exponential serves all three
        bump = np.exp(-0.5 * u * u)
        rate = (u * u - 1.0) / self.width * bump
        return self.width * (bump - _GAUSS_FLOOR), -u * bump, rate

    def expansion(self, offsets) -> Expansion:
        """Slabs no wider than w, the powers x^k of each node's offset from
        its slab's midpoint, and the Hermite rows of each pair.

        With B(u) = exp(-u^2/2) and u = (t - d - center)/w, the clipped
        pulse is F = w (B - B(8)), f = B'(u) and f' = B''(u)/w where
        |u| < 8.  B does not split into a factor per node times one per
        time without overflow, but about a slab's midpoint d0, with
        x = (d - d0)/w and u0 = (t - d0 - center)/w,

            B^(j)(u0 - x) = (-1)^j B(u0) sum_k He_{j+k}(u0) x^k / k!,

        whose terms Cramér's inequality bounds for |x| <= 1/2
        (``moment_count`` picks how many to keep).  So coefficient row k of
        F, f and f' (j = 0, 1, 2) is w, -1 and 1/w times
        B(u0) He_{j+k}(u0)/k!, and F's row 0 also takes off w B(8).
        """
        w = self.width
        # a slab is the nodes of one bin [i w, (i + 1) w) of the offsets
        new_bin = np.diff(np.floor(offsets / w), prepend=-1.0) != 0.0
        starts = np.flatnonzero(new_bin)
        slab = np.cumsum(new_bin) - 1
        ends = np.append(starts[1:], offsets.size)
        mids = 0.5 * (offsets[starts] + offsets[ends - 1])
        x = (offsets - mids[slab]) / w
        count = moment_count(float(np.abs(x).max()))
        inverse_factorials = 1.0 / np.cumprod(np.maximum(np.arange(count), 1.0))
        factors = np.multiply.outer((w, -1.0, 1.0 / w), inverse_factorials)[..., None]

        def powers(nodes, out):
            out[0] = 1.0
            for k in range(1, count):
                np.multiply(out[k - 1], x[nodes], out=out[k])

        def hermite(s, pair_slab):
            # B(u0) He_n(u0), n = 0 .. count + 1, by the three-term recurrence
            u0 = (s - mids[pair_slab]) / w
            rows = np.empty((count + 2, u0.size))
            rows[0] = np.exp(-0.5 * u0 * u0)
            rows[1] = u0 * rows[0]
            for k in range(1, count + 1):
                rows[k + 1] = u0 * rows[k] - k * rows[k - 1]
            terms = [factors[kind] * rows[kind : kind + count] for kind in range(3)]
            terms[0][0] -= w * _GAUSS_FLOOR
            return terms

        return Expansion(starts, count, powers, hermite)

    def most_moments(self, delay_spread: float) -> int:
        """The most delay moments ``column_sums`` keeps for delays that span
        at most ``delay_spread``: no slab is wider than that or a width."""
        return moment_count(min(0.5, 0.5 * delay_spread / self.width))


TimeProfile = Union[SineSquaredPulse, DifferentiatedGaussianPulse]


@dataclass(frozen=True, eq=False)
class GaussianEnvelope:
    """Isotropic Gaussian bump exp(-|x - center|^2 / (2 sigma^2))."""

    center: Vec3
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ValueError(f"envelope width must be positive, got {self.sigma}")

    # the distance from the centre past which the envelope is zero
    @property
    def reach(self) -> float:
        return math.inf

    def value(self, points):
        d = np.asarray(points, dtype=float) - self.center
        r2 = np.sum(d * d, axis=-1)
        return _scalarize(np.exp(-0.5 * r2 / self.sigma**2))

    def gradient(self, points):
        d = np.asarray(points, dtype=float) - self.center
        g = np.exp(-0.5 * np.sum(d * d, axis=-1) / self.sigma**2)
        return -d / self.sigma**2 * g[..., None]

    def hessian(self, points, direction):
        """H . v, the Hessian of g applied to ``direction`` v, (..., 3):
        g (d (d . v) / sigma^4 - v / sigma^2) with d = x - center."""
        d = np.asarray(points, dtype=float) - self.center
        v = as_vec3(direction)
        g = np.exp(-0.5 * np.sum(d * d, axis=-1) / self.sigma**2)
        h = d * (np.einsum("...i,i->...", d, v) / self.sigma**4)[..., None]
        h -= v / self.sigma**2
        h *= g[..., None]
        return h

    def integral(self) -> float:
        """Integral of g over all space."""
        return (2.0 * np.pi) ** 1.5 * self.sigma**3


@dataclass(frozen=True, eq=False)
class TruncatedGaussianEnvelope(GaussianEnvelope):
    """Gaussian chopped to zero outside |x - center| <= cut_radius.

    No smoothing at the cut: this envelope intentionally leaves a finite
    current on the sphere of radius ``cut_radius``, which is what the
    boundary-term experiments need.  Derivatives are the masked smooth
    derivatives; they are not distributionally correct on the cut sphere
    itself.
    """

    cut_radius: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.cut_radius > 0.0 and np.isfinite(self.cut_radius)):
            raise ValueError(f"cut radius must be positive, got {self.cut_radius}")

    @property
    def reach(self) -> float:
        return self.cut_radius

    def _mask(self, points):
        """Inside or on the cut sphere, up to rounding in the coordinates."""
        d = np.asarray(points, dtype=float) - self.center
        scale = np.max(np.abs(self.center)) + self.cut_radius
        bound = self.cut_radius + _CUT_SLACK_EPS * np.finfo(float).eps * scale
        return np.sum(d * d, axis=-1) <= bound**2

    def value(self, points):
        v = np.asarray(super().value(points))
        return _scalarize(np.where(self._mask(points), v, 0.0))

    def gradient(self, points):
        outside = ~self._mask(points)
        g = super().gradient(points)
        g[outside] = 0.0
        return g

    def hessian(self, points, direction):
        outside = ~self._mask(points)
        h = super().hessian(points, direction)
        h[outside] = 0.0
        return h

    def integral(self) -> float:
        a = self.cut_radius / (self.sigma * math.sqrt(2.0))
        radial = self.sigma**3 * math.sqrt(np.pi / 2.0) * math.erf(
            a
        ) - self.sigma**2 * self.cut_radius * math.exp(-a * a)
        return 4.0 * np.pi * radial


#: Each pulse and envelope class by its config name.
PULSE_KINDS = {
    "sine-squared": SineSquaredPulse,
    "differentiated-gaussian": DifferentiatedGaussianPulse,
}
ENVELOPE_KINDS = {"gaussian": GaussianEnvelope, "truncated-gaussian": TruncatedGaussianEnvelope}


def _class_of(table: dict, kind: str, what: str):
    try:
        return table[kind]
    except KeyError:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {sorted(table)}") from None


def make_profile(kind: str, t_on: float, tau: float) -> TimeProfile:
    return _class_of(PULSE_KINDS, kind, "pulse")(t_on=t_on, tau=tau)


def make_envelope(
    kind: str, center, sigma: float, cut_radius: float | None = None
) -> GaussianEnvelope:
    cls = _class_of(ENVELOPE_KINDS, kind, "envelope")
    if cls is GaussianEnvelope:
        return cls(center=center, sigma=sigma)
    if cut_radius is None:
        raise ValueError(f"{kind} envelope requires a cut radius")
    return cls(center=center, sigma=sigma, cut_radius=cut_radius)


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Separable current density A * p_hat * g(x') * f(t') on a domain.

    Each density is one spatial factor method times a pulse quantity; only
    ``charge_gradient_factor`` evaluates the envelope's Hessian.
    """

    envelope: GaussianEnvelope  # or its truncated subclass
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
        return -self.amplitude * self.envelope.hessian(nodes, self.polarization)

    def charge_density(self, xp, tp):
        """Charge reconstructed from charge conservation; zero at switch-on."""
        return _scalarize(np.asarray(self.charge_factor(xp) * self.profile.primitive(tp)))

    def current_divergence(self, xp, tp):
        return _scalarize(np.asarray(-self.charge_factor(xp) * self.profile.value(tp)))

    def boundary_leakage(self) -> float:
        """Peak |J| on the domain boundary over peak |J| in the domain, exactly.

        The two forms agree only where J vanishes on the boundary.  g is
        radial and decreasing about its centre c: the boundary peak is at the
        boundary point nearest c, the peak in the domain at c, or on the
        boundary (ratio 1) when c is outside.  0 if J is 0 on the boundary.
        """
        c = self.envelope.center
        edge = abs(float(self.current_factor(self.domain.nearest_boundary_point(c))))
        if edge == 0.0:
            return 0.0
        if self.domain.exterior_distance(c) > 0.0:
            return 1.0
        return edge / abs(float(self.current_factor(c)))
