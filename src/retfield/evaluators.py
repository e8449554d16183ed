"""The two field representations and a closed-form point-dipole oracle.

Both evaluators integrate over the same quadrature rule and return the
electric field as a sum of named terms:

* ``zone_field`` -- three integrals with explicit 1/R^3, 1/R^2, 1/R kernels
  ("near", "intermediate", "far").  The innermost time integral of the
  current uses the source's analytic primitive, never nested quadrature.
* ``jefimenko_field`` -- retarded current and charge form ("current",
  "charge").  The outer time derivative is commuted through the spatial
  integral onto the current, which is exact because time enters only via
  the retarded time and the domain is fixed.

The two agree up to boundary terms that vanish when the current dies off
fast enough at the domain boundary; ``representation_residual`` measures
the disagreement.  ``refined_field`` is the one order-refinement ladder: it
climbs quadrature orders at one observation point until the field settles,
and raises ConvergenceError when it stalls instead; it builds each rule for
the source's envelope (``build_rule``), and reports no error below the
field's rounding floor (``NodeKernel.at``).

Both run on one time-batched engine.  A ``NodeKernel`` is built once per
sampling for one or more representations; it weights the source's node
factors (``SourceModel.current_factor``, ``charge_gradient_factor``) by the
rule's weights, and sums them per ring of the rule, each once.  At one
observation point it writes every form's kernel columns from one node frame
(``columns``), one entry per ring where the point is on the rule's axis,
else per node.  Over a grid of times it assembles each form's terms from
one call of the pulse's node sums of F, f and f' against them (``sample``;
``column_sums``, see ``sources``); at one time, from the pulse evaluated
once per entry (``at``).  A form (``ZoneKernel``, ``JefimenkoKernel``)
holds no node data: it writes its columns into its rows of the stack and
turns its sums into terms (``terms_from``).  ``zone_field`` and ``jefimenko_field``
evaluate one form at a single time, the rungs of ``refined_field``;
``analysis.sample_representations`` samples several over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from .domains import strictly_outside
from .geometry import NATURAL, PhysicalConstants, Vec3, as_vec3
from .quadrature import ConvergenceError, QuadratureRule, build_rule
from .sources import SourceModel, TimeProfile

#: Relative floor regularizing the residual when both fields vanish.
RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True, eq=False)
class ObservationPoint:
    x: Vec3
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_vec3(self.x))
        if not np.isfinite(self.t):
            raise ValueError("observation time must be finite")


@dataclass(frozen=True, eq=False)
class FieldDecomposition:
    """Electric field split into the named terms of one representation.

    ``total`` is defined as the sum of the terms in their stored order, so
    identical inputs reproduce it bit for bit.  ``rounding`` is the floor
    below which summation rounding hides the quadrature error, where the
    evaluation states it (``NodeKernel.at``).
    """

    terms: Mapping[str, np.ndarray]
    representation: str
    quadrature_error: float = float("nan")
    rounding: float = 0.0

    def __post_init__(self):
        for name, term in self.terms.items():
            if np.asarray(term).shape != (3,) or not np.all(np.isfinite(term)):
                raise ValueError(f"term {name!r} is not a finite 3-vector: {term}")

    @property
    def total(self) -> np.ndarray:
        out = np.zeros(3)
        for term in self.terms.values():
            out = out + term
        return out

    def magnitude(self) -> float:
        return float(np.linalg.norm(self.total))


def _frame(src: SourceModel, nodes: np.ndarray, x: Vec3):
    """Distances R (nodes,) and unit directions theta (3, nodes) from the
    (3, nodes) ``nodes`` to ``x``; rejects ``x`` in the domain.  One row per
    component keeps each step in place on whole rows, with no (nodes, 3)
    temporaries; R adds in the order ``np.linalg.norm(axis=1)`` does."""
    if not strictly_outside(src.domain, x):
        raise ValueError(f"observation point {x} is inside or touching the source domain")
    theta = x[:, None] - nodes
    r = np.sqrt(theta[0] * theta[0] + theta[1] * theta[1] + theta[2] * theta[2])
    theta /= r
    return r, theta


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _rings(kernel: NodeKernel, size: int, magnitudes: bool = False) -> SimpleNamespace:
    """``kernel``'s node data summed over each ring of ``size`` nodes, as a
    form's ``columns`` reads it: each ring's first node (3, rings), W = sum
    w*A*g, the charge factors (3, rings) or None and, for zones on rings of
    more than one node, with e = first node - node, the ``spread`` (E1, E2)
    = (sum w*A*g*e, sum w*A*g*e (e . p_hat)); of |data| (no spread) for ``magnitudes``."""
    nodes, w, charge = kernel.nodes, kernel.weighted, getattr(kernel, "charge_weights", None)
    if magnitudes:
        w, charge = np.abs(w), None if charge is None else np.abs(charge)
    spread = None
    if size > 1 and not magnitudes and any(f.representation == "zones" for f in kernel.forms):
        e = nodes[:, ::size, None] - nodes.reshape(3, -1, size)
        e1 = (w.reshape(-1, size) * e).sum(axis=-1)
        e *= w.reshape(-1, size) * np.einsum("i,irn->rn", kernel.src.polarization, e)
        spread = (e1, e.sum(axis=-1))
    fold = lambda a: a if a is None or size == 1 else a.reshape(*a.shape[:-1], -1, size).sum(-1)
    return SimpleNamespace(src=kernel.src, nodes=np.ascontiguousarray(nodes[:, ::size]),
                           weighted=fold(w), charge_weights=fold(charge), spread=spread)


class NodeKernel:
    """The kernel of one or more representations (``KERNELS``) on one
    sampling: one source, rule and constants.

    It holds, read-only since it serves every radius and thread, the
    (3, nodes) node coordinates, the weighted current factor w*A*g and, only
    when the Jefimenko form is among its forms, the (3, nodes) weighted
    charge gradient factor -w*A*(H . p_hat), the gradient of the charge per
    unit F(t); ``rings`` holds them summed per ring of one node or the rule's.
    Per kind (F, f, f') its forms' rows of columns are stacked in their
    given order: ``spans`` holds, per form, the slice of each kind's stack
    that is its own (None for no rows).
    """

    def __init__(self, src: SourceModel, rule: QuadratureRule, representations,
                 constants: PhysicalConstants = NATURAL):
        if unknown := sorted(set(representations) - set(KERNELS)):
            raise ValueError(
                f"unknown representations {unknown}; expected some of {sorted(KERNELS)}"
            )
        self.src, self.rule, self.constants = src, rule, constants
        self.forms = [KERNELS[representation] for representation in representations]
        self.nodes = rule.rows
        # (nodes, 3) in F-order: the envelope's sums over a node's components are row adds
        self.weighted = _read_only(rule.weights * src.current_factor(self.nodes.T))
        if "jefimenko" in representations:
            charge_factor = src.charge_gradient_factor(self.nodes.T).T
            self.charge_weights = _read_only(np.multiply(rule.weights, charge_factor, order="C"))
        self.rings = {size: _rings(self, size) for size in {1, rule.ring}}
        ends = np.cumsum([form.widths for form in self.forms], axis=0)
        self.spans = [[slice(e - w, e) if w else None for w, e in zip(form.widths, end)]
                      for form, end in zip(self.forms, ends)]
        self.height, self.splits = ends[-1].sum(), np.cumsum(ends[-1])[:-1]

    def _stack(self, rings, r, theta):
        """``columns``' stack of ``rings`` at ``r`` and ``theta`` (overwritten)."""
        blocks = np.split(np.empty((self.height, r.size)), self.splits)
        stacked = [block if len(block) else None for block in blocks]
        for form, span in zip(self.forms, self.spans):
            slots = [None if s is None else block[s] for block, s in zip(stacked, span)]
            form.columns(rings, r, theta, slots)
        return stacked

    def columns(self, x: Vec3):
        """Delays R/c at ``x`` and, per kind, every form's columns stacked in
        one (rows, rings) array, or None; a ring is one node off the axis."""
        rings = self.rings[self.rule.ring_at(x)]
        r, theta = _frame(self.src, rings.nodes, x)
        stacked = self._stack(rings, r, theta)
        return np.divide(r, self.constants.c, out=r), stacked

    def sample(self, x: Vec3, times: np.ndarray) -> list:
        """Each form's terms at ``x`` and each of ``times``, (times, terms,
        3): the forms share the node frame, and the delays' sort and pulse
        expansion of one ``column_sums`` call on their stacked columns."""
        return self.assemble(self.src.profile.column_sums(*self.columns(x), times))

    def at(self, x: Vec3, t: float):
        """Each form's terms at ``x`` and the one time ``t``, (1, terms, 3),
        and the field's rounding floor: the pulse is evaluated once per
        entry, at its retarded time, and each kind's (F, f, f') sums are its
        columns against those values.  The floor is sqrt(nodes) * eps times,
        summed over the kinds at k_c / c^kind, the largest of a kind's sums
        over every node of |column_i| * |pulse quantity at node i|, from the
        ring sums of |data| (a node is a ring of one; a ring shares its pulse
        value) at theta = 0: zones rows theta (theta . p_hat) are at most the
        scalar row.  numpy's reductions form the sums, unmoved by BLAS threads."""
        c, k_c = self.constants.c, self.constants.coulomb
        delays, stacked = self.columns(x)
        pulse = self.src.profile.evaluate(t - delays)
        sums = [None if cols is None else np.einsum("kn,n->k", cols, values)[None]
                for cols, values in zip(stacked, pulse)]
        magnitudes = _rings(self, len(self.rule) // delays.size, magnitudes=True)
        stacked = self._stack(magnitudes, delays * c, np.zeros((3, delays.size)))
        size = sum(k_c / c**kind * np.einsum("kn,n->k", b, np.abs(v)).max()
                   for kind, (b, v) in enumerate(zip(stacked, pulse)) if b is not None)
        return self.assemble(sums), float(np.sqrt(len(self.rule)) * np.finfo(float).eps * size)

    def assemble(self, sums) -> list:
        """Each form's terms, (times, terms, 3), from the ``column_sums`` of
        the stacked columns."""
        out = []
        for form, span in zip(self.forms, self.spans):
            parts = [None if s is None else kind[:, s] for kind, s in zip(sums, span)]
            out.append(form.terms_from(self, parts))
        return out


class ZoneKernel:
    """Near + intermediate + far integrals with explicit 1/R^p kernels."""

    representation = "zones"
    terms = ("near", "intermediate", "far")
    widths = (4, 4, 4)

    def columns(self, rings, r, theta, slots):
        """For p = 3, 2, 1, the (4, rings) columns [sum wAg/R^p, sum theta_i
        (theta_i . p_hat) wAg/R^p] over each ring's nodes i, into ``slots``,
        which hold theta . p_hat in rows not yet written; ``r`` and ``theta``
        (overwritten) are the first node's.  As R theta_i = R theta + e_i, the
        sum is [theta (theta . p_hat) W + (theta E1 + E1 theta) . p_hat/R + E2/R^2]/R^p."""
        pol = rings.src.polarization
        dot = np.multiply(theta[0], pol[0], out=slots[0][0])
        for row, component in zip(theta[1:], pol[1:]):
            dot += np.multiply(row, component, out=slots[0][1])
        if rings.spread is not None:
            e1, e2 = rings.spread
            spread = (theta * (pol @ e1) + e1 * dot + e2 / r) / r
        theta *= dot
        for columns, p in zip(slots, (3, 2, 1)):
            scalar = columns[0]
            np.divide(rings.weighted, np.power(r, p, out=scalar), out=scalar)
            np.multiply(theta, scalar, out=columns[1:])
            if rings.spread is not None:
                columns[1:] += spread / np.power(r, p)

    def terms_from(self, kernel: NodeKernel, sums) -> np.ndarray:
        c, k_c, pol = kernel.constants.c, kernel.constants.coulomb, kernel.src.polarization
        s3, s2, s1 = sums
        out = np.empty((s3.shape[0], 3, 3))
        # (delta - 3 theta theta^T) @ v  ==  v - 3 theta (theta . v)
        out[:, 0] = -k_c * (pol * s3[:, :1] - 3.0 * s3[:, 1:])
        out[:, 1] = -(k_c / c) * (pol * s2[:, :1] - 3.0 * s2[:, 1:])
        out[:, 2] = (k_c / c**2) * (s1[:, 1:] - pol * s1[:, :1])
        return out


class JefimenkoKernel:
    """Retarded current and charge form ("current", "charge").

    The time derivative of the current integral is taken analytically on
    the pulse, under the integral.
    """

    representation = "jefimenko"
    terms = ("current", "charge")
    widths = (3, 0, 1)

    def columns(self, rings, r, theta, slots):
        """The (1, rings) column sum wAg/R and the (3, rings) columns sum
        -wA(H . p_hat)/R per ring, written into ``slots``; ``theta`` unread."""
        charge, _, current = slots
        np.divide(rings.weighted, r, out=current[0])
        np.divide(rings.charge_weights, r, out=charge)

    def terms_from(self, kernel: NodeKernel, sums) -> np.ndarray:
        c, k_c = kernel.constants.c, kernel.constants.coulomb
        charge, _, current = sums
        out = np.empty((charge.shape[0], 2, 3))
        out[:, 0] = -(k_c / c**2) * kernel.src.polarization * current
        out[:, 1] = -k_c * charge
        return out


#: The representations' kernel forms, keyed by representation tag.
KERNELS = {form.representation: form for form in (ZoneKernel(), JefimenkoKernel())}


def _field_at(representation: str, src, obs: ObservationPoint, rule, constants):
    ((fields,), rounding) = NodeKernel(src, rule, (representation,), constants).at(obs.x, obs.t)
    return FieldDecomposition(
        terms=dict(zip(KERNELS[representation].terms, fields[0])),
        representation=representation,
        rounding=rounding,
    )


def zone_field(
    src: SourceModel,
    obs: ObservationPoint,
    rule: QuadratureRule,
    constants: PhysicalConstants = NATURAL,
) -> FieldDecomposition:
    """Field as near + intermediate + far integrals (explicit radial kernels)."""
    return _field_at("zones", src, obs, rule, constants)


def jefimenko_field(
    src: SourceModel,
    obs: ObservationPoint,
    rule: QuadratureRule,
    constants: PhysicalConstants = NATURAL,
) -> FieldDecomposition:
    """Field from retarded current and charge densities (see JefimenkoKernel)."""
    return _field_at("jefimenko", src, obs, rule, constants)


#: Evaluator registry keyed by representation tag, at one observation point.
EVALUATORS = {"zones": zone_field, "jefimenko": jefimenko_field}


@dataclass(frozen=True, eq=False)
class PointDipole:
    """Point dipole moment p(t) = moment_scale * F(t) * direction at a position.

    ``from_source`` collapses a separable source to its equivalent dipole:
    the moment scale is amplitude times the envelope's spatial integral,
    which is exactly the first moment of the reconstructed charge density.
    """

    position: Vec3
    direction: Vec3
    moment_scale: float
    profile: TimeProfile

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "direction", as_vec3(self.direction))
        norm = np.linalg.norm(self.direction)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"dipole direction must be a unit vector, |d| = {norm}")

    @classmethod
    def from_source(cls, src: SourceModel) -> "PointDipole":
        return cls(
            position=src.envelope.center,
            direction=src.polarization,
            moment_scale=src.amplitude * src.envelope.integral(),
            profile=src.profile,
        )


def dipole_oracle_field(
    dipole: PointDipole,
    obs: ObservationPoint,
    constants: PhysicalConstants = NATURAL,
) -> FieldDecomposition:
    """Closed-form field of an ideal point dipole, split by radial falloff."""
    c, k_c = constants.c, constants.coulomb
    d = obs.x - dipole.position
    r = float(np.linalg.norm(d))
    if r == 0.0:
        raise ValueError("observation point coincides with the dipole position")
    n = d / r
    # the moment p(t_ret) = moment_scale * F * direction, and its rate and acceleration
    p, p_rate, p_accel = (
        dipole.moment_scale * value * dipole.direction
        for value in dipole.profile.evaluate(obs.t - r / c)
    )

    near = k_c * (3.0 * n * (n @ p) - p) / r**3
    intermediate = k_c * (3.0 * n * (n @ p_rate) - p_rate) / (c * r**2)
    far = k_c * (n * (n @ p_accel) - p_accel) / (c**2 * r)
    return FieldDecomposition(
        terms={"near": near, "intermediate": intermediate, "far": far},
        representation="dipole-oracle",
    )


def representation_residual(
    src: SourceModel,
    obs: ObservationPoint,
    rule: QuadratureRule,
    constants: PhysicalConstants = NATURAL,
) -> float:
    """Normalized disagreement between the two representations at one point."""
    e_zone = zone_field(src, obs, rule, constants).total
    e_jef = jefimenko_field(src, obs, rule, constants).total
    return float(normalized_residual(e_zone, e_jef))


def normalized_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|, RESIDUAL_FLOOR) over the last (vector) axis.

    Zero where both fields are exactly zero (ahead of the light front).
    """
    scale = np.maximum(
        np.maximum(np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)),
        RESIDUAL_FLOOR,
    )
    return np.linalg.norm(a - b, axis=-1) / scale


def refined_field(
    representation: str,
    src: SourceModel,
    obs: ObservationPoint,
    constants: PhysicalConstants = NATURAL,
    base_order: int = 12,
    max_order: int = 24,
    tol: float = 1e-10,
    rule_cache: dict | None = None,
) -> FieldDecomposition:
    """Evaluate one representation on an order-refinement ladder.

    Climbs orders base, base+2, ... until the total changes by at most
    ``tol`` (max norm) or the ladder tops out; the achieved change, or the
    last field's rounding floor where that is larger, is attached as the
    decomposition's quadrature error.  A ladder whose change grows three
    levels in a row raises ConvergenceError.  Each rule is built for the
    source's envelope and about the axis from the domain's centre to the
    point.  Rules are looked up in and added to ``rule_cache`` when given;
    a cache passed in empty ends with the order the ladder stopped at as
    its highest key.
    """
    try:
        evaluate = EVALUATORS[representation]
    except KeyError:
        raise ValueError(
            f"unknown representation {representation!r}; expected one of {sorted(EVALUATORS)}"
        ) from None
    if max_order < base_order + 2:
        raise ValueError("base order must be at least 2 below max order (steps of 2)")

    previous = None
    err = np.inf
    strikes = 0
    history = []
    decomposition = None
    rules = {} if rule_cache is None else rule_cache
    for order in range(base_order, max_order + 1, 2):
        if order not in rules:
            rules[order] = build_rule(src.domain, order, src.envelope, obs.x - src.domain.center)
        decomposition = evaluate(src, obs, rules[order], constants)
        total = decomposition.total
        if previous is not None:
            new_err = float(np.max(np.abs(total - previous)))
            history.append(new_err)
            strikes = strikes + 1 if new_err >= err else 0
            err = new_err
            if err <= tol:
                break
            if strikes >= 3:
                raise ConvergenceError(
                    f"field refinement stalled above tol={tol}: errors {history}"
                )
        previous = total
    return FieldDecomposition(
        terms=decomposition.terms,
        representation=decomposition.representation,
        quadrature_error=max(float(err), decomposition.rounding),
        rounding=decomposition.rounding,
    )
