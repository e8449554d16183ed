"""Frozen per-cell evaluators: the field formulas as they stood before the
time-batched engine, kept as a regression oracle.

Each call evaluates one observation point: it recomputes the node frame,
the envelope and (for Jefimenko) the Hessian, and sums with ``np.sum`` and
BLAS matrix-vector products.  The engine reorders those sums, so the two
agree to rounding, not bit for bit.  The pulse formulas are frozen too, in
``legacy_pulse``, and so is the block summation the engine used before
each pulse summed its nodes itself, in ``block_sums``.  The node frame,
kernel columns and envelope Hessian as they stood before the engine laid
nodes out one row per component are frozen in ``legacy_frame``,
``legacy_zone_at``, ``legacy_jefimenko_at`` and ``legacy_hessian``, and
the rule build that took a Legendre rule per axis in
``legacy_build_rule``, which takes the 1-D Gauss-Legendre rule it maps as
an argument.  Do not edit these bodies to follow the package.
"""

from __future__ import annotations

import math

import numpy as np

from retfield.domains import Ball, Box, strictly_outside
from retfield.sources import (
    DifferentiatedGaussianPulse,
    SineSquaredPulse,
    TruncatedGaussianEnvelope,
)


def legacy_pulse(profile, t):
    """(primitive, value, derivative) by the pre-fusion per-method formulas."""
    t = np.asarray(t, dtype=float)
    if isinstance(profile, SineSquaredPulse):
        u = (t - profile.t_on) / profile.tau
        inside = (u > 0.0) & (u < 1.0)
        value = np.where(inside, np.sin(np.pi * u) ** 2, 0.0)
        rate = np.where(inside, np.pi / profile.tau * np.sin(2.0 * np.pi * u), 0.0)
        ramp = profile.tau * (0.5 * u - np.sin(2.0 * np.pi * u) / (4.0 * np.pi))
        primitive = np.select([u <= 0.0, u >= 1.0], [0.0, 0.5 * profile.tau], default=ramp)
        return primitive, value, rate
    assert isinstance(profile, DifferentiatedGaussianPulse)
    u = (t - profile.center) / profile.width
    inside = np.abs(u) < 8.0
    value = np.where(inside, -u * np.exp(-0.5 * u * u), 0.0)
    rate = np.where(inside, (u * u - 1.0) / profile.width * np.exp(-0.5 * u * u), 0.0)
    tail = math.exp(-0.5 * 8.0**2)
    primitive = np.where(inside, profile.width * (np.exp(-0.5 * u * u) - tail), 0.0)
    return primitive, value, rate


#: Entries of one (times x nodes) block of retarded times in ``block_sums``.
BLOCK_ELEMENTS = 1 << 14


def block_sums(pulse, delays, columns, times):
    """Node sums of ``pulse`` against kernel columns at each of ``times``.

    ``columns`` holds, for F, f and f' in that order, a (k, nodes) array of
    columns or None; the result holds a (times, k) array of sums, or None,
    in each place.  The pulse is evaluated per entry on blocks of times x
    all nodes of retarded times ``t - delays``, each reduced with einsum.
    It has the signature of a pulse's ``column_sums``, so a test can put it
    in that method's place.
    """
    height = max(1, BLOCK_ELEMENTS // delays.size)
    sums = [None if cols is None else np.empty((times.size, len(cols))) for cols in columns]
    for j in range(0, times.size, height):
        block = legacy_pulse(pulse, times[j : j + height, None] - delays)
        for out, values, cols in zip(sums, block, columns):
            if cols is not None:
                out[j : j + height] = np.einsum("tn,kn->tk", values, cols)
    return sums


def _node_frame(x, t, rule, c):
    d = x - rule.nodes
    r = np.linalg.norm(d, axis=1)
    theta = d / r[:, None]
    t_ret = t - r / c
    return r, theta, t_ret


def legacy_zone_field(src, x, t, rule, constants):
    """(near, intermediate, far) at one point."""
    c, k_c = constants.c, constants.coulomb
    r, theta, t_ret = _node_frame(x, t, rule, c)
    w = rule.weights
    pol = src.polarization
    primitive, value, rate = legacy_pulse(src.profile, t_ret)

    g = src.amplitude * np.asarray(src.envelope.value(rule.nodes))
    g_prim = g * primitive
    g_val = g * value
    g_rate = g * rate
    theta_pol = theta @ pol

    near = -k_c * (
        pol * np.sum(w * g_prim / r**3) - 3.0 * (theta.T @ (w * g_prim * theta_pol / r**3))
    )
    intermediate = -(k_c / c) * (
        pol * np.sum(w * g_val / r**2) - 3.0 * (theta.T @ (w * g_val * theta_pol / r**2))
    )
    far = (k_c / c**2) * (
        theta.T @ (w * g_rate * theta_pol / r) - pol * np.sum(w * g_rate / r)
    )
    return np.array([near, intermediate, far])


def legacy_jefimenko_field(src, x, t, rule, constants, fd_step=None):
    """(current, charge) at one point; central differences when ``fd_step``."""
    c, k_c = constants.c, constants.coulomb
    r, _, t_ret = _node_frame(x, t, rule, c)
    w = rule.weights
    pol = src.polarization
    g = src.amplitude * np.asarray(src.envelope.value(rule.nodes))

    if fd_step is None:
        g_rate = g * legacy_pulse(src.profile, t_ret)[2]
        current = -(k_c / c**2) * pol * np.sum(w * g_rate / r)
    else:
        hi = np.sum(w * g * legacy_pulse(src.profile, t_ret + fd_step)[1] / r)
        lo = np.sum(w * g * legacy_pulse(src.profile, t_ret - fd_step)[1] / r)
        current = -(k_c / c**2) * pol * (hi - lo) / (2.0 * fd_step)

    hess = legacy_hessian(src.envelope, rule.nodes)
    grad_rho = -src.amplitude * legacy_pulse(src.profile, t_ret)[0][:, None] * (hess @ pol)
    charge = -k_c * (grad_rho.T @ (w / r))
    return np.array([current, charge])


def legacy_hessian(envelope, points):
    """Hessian of a Gaussian or truncated Gaussian envelope, as a fresh
    outer product, identity and product, masked with ``np.where``."""
    sigma = envelope.sigma
    d = np.asarray(points, dtype=float) - envelope.center
    g = np.exp(-0.5 * np.sum(d * d, axis=-1) / sigma**2)
    outer = d[..., :, None] * d[..., None, :] / sigma**4
    h = (outer - np.eye(3) / sigma**2) * g[..., None, None]
    if isinstance(envelope, TruncatedGaussianEnvelope):
        return np.where(envelope._mask(points)[..., None, None], h, 0.0)
    return h


def legacy_frame(src, rule, x):
    """(nodes,) distances R and (nodes, 3) unit directions from the nodes to ``x``."""
    if not strictly_outside(src.domain, x):
        raise ValueError(f"observation point {x} is inside or touching the source domain")
    d = x - rule.nodes
    r = np.linalg.norm(d, axis=1)
    return r, d / r[:, None]


def legacy_zone_at(src, rule, x, constants):
    """Delays R/c and, for p = 3, 2, 1, the (4, nodes) zone columns."""
    weighted = rule.weights * src.current_factor(rule.nodes)
    r, theta = legacy_frame(src, rule, x)
    along = np.ascontiguousarray((theta * (theta @ src.polarization)[:, None]).T)
    columns = []
    for p in (3, 2, 1):
        scalar = weighted / r**p
        columns.append(np.concatenate([scalar[None], along * scalar]))
    return r / constants.c, columns


def legacy_jefimenko_at(src, rule, x, constants):
    """Delays R/c, the (1, nodes) current column and (3, nodes) charge columns."""
    weighted = rule.weights * src.current_factor(rule.nodes)
    charge_factor = -src.amplitude * (legacy_hessian(src.envelope, rule.nodes) @ src.polarization)
    charge_weights = rule.weights[:, None] * charge_factor
    r, _ = legacy_frame(src, rule, x)
    current = (weighted / r)[None, :]
    charge = (charge_weights / r[:, None]).T.copy()
    return r / constants.c, (current, charge)


def _legacy_gauss_legendre(legendre, order, lo, hi):
    x, w = legendre(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def legacy_build_rule(domain, order, legendre):
    """(nodes, weights) of a box or ball rule, one Legendre rule per axis,
    each ``legendre(order)``: the (nodes, weights) of the rule on [-1, 1]."""
    if isinstance(domain, Box):
        axes = [
            _legacy_gauss_legendre(legendre, order, domain.lo[a], domain.hi[a]) for a in range(3)
        ]
        xs = np.stack(
            np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        ws = (
            axes[0][1][:, None, None] * axes[1][1][None, :, None] * axes[2][1][None, None, :]
        ).reshape(-1)
        return xs, ws
    assert isinstance(domain, Ball)
    r, wr = _legacy_gauss_legendre(legendre, order, 0.0, domain.radius)
    mu, wmu = _legacy_gauss_legendre(legendre, order, -1.0, 1.0)
    nphi = 2 * order
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = np.full(nphi, 2.0 * np.pi / nphi)
    rg, mg, pg = np.meshgrid(r, mu, phi, indexing="ij")
    sin_t = np.sqrt(1.0 - mg**2)
    nodes = domain.center + np.stack(
        [rg * sin_t * np.cos(pg), rg * sin_t * np.sin(pg), rg * mg], axis=-1
    ).reshape(-1, 3)
    weights = ((wr * r**2)[:, None, None] * wmu[None, :, None] * wphi[None, None, :]).reshape(-1)
    return nodes, weights
