import math

import numpy as np
import pytest
from legacy_fields import legacy_build_rule

from retfield import quadrature
from retfield.domains import Ball, Box
from retfield.geometry import NATURAL, PhysicalConstants
from retfield.quadrature import build_rule
from retfield.sources import (
    DifferentiatedGaussianPulse,
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
    TruncatedGaussianEnvelope,
)

UNIT_BOX = Box(lo=(0, 0, 0), hi=(1, 1, 1))
SYM_BOX = Box(lo=(-1, -1, -1), hi=(1, 1, 1))


@pytest.mark.parametrize("order", [4, 11, 16])
@pytest.mark.parametrize(
    "domain",
    [Box(lo=(-0.3, -0.1, 0.2), hi=(0.4, 0.5, 0.9)), Ball(center=(0.1, -0.2, 0.3), radius=0.7)],
    ids=["box", "ball"],
)
def test_rule_keeps_the_per_axis_build_bits(domain, order):
    """One Legendre rule mapped onto every interval gives the nodes and
    weights of one Legendre rule per interval, bit for bit."""
    rule = build_rule(domain, order)
    nodes, weights = legacy_build_rule(domain, order, quadrature._legendre)
    assert rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


class TestLegendre:
    """The Gauss-Legendre rule of ``_gauss`` on the Legendre recurrence."""

    def test_matches_numpy_leggauss_to_orders_64(self):
        """Within 1e-15 on nodes and 2.5e-12 relative on weights (measured
        5.6e-16 and 1.75e-12, at the weights next to +/-1, where leggauss is
        1.8e-12 and this rule 2.8e-13 from 40-digit ones)."""
        for order in range(1, 65):
            x, w = quadrature._legendre(order)
            expected_x, expected_w = np.polynomial.legendre.leggauss(order)
            assert np.abs(x - expected_x).max() <= 1e-15
            assert np.abs(w / expected_w - 1.0).max() <= 2.5e-12

    @pytest.mark.parametrize("order", [1, 2, 7, 22, 32, 64])
    def test_exactly_symmetric_and_exact_to_degree_2n_minus_1(self, order):
        x, w = quadrature._legendre(order)
        assert x.tolist() == (-x[::-1]).tolist() and w.tolist() == w[::-1].tolist()
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        for k in range(2 * order):
            if k % 2:
                assert abs(w @ x**k) <= 1e-15
            else:
                assert w @ x**k == pytest.approx(2.0 / (k + 1), rel=2e-13, abs=0.0)


def integrate(fn, rule):
    """Weighted sum of a vector integrand mapping nodes (n, 3) to values (n, 3)."""
    return rule.weights @ fn(rule.nodes)


def ladder(fn, domain, orders):
    """Integrals at each order, and the max-norm change between neighbours."""
    values = [integrate(fn, build_rule(domain, order)) for order in orders]
    changes = [float(np.max(np.abs(b - a))) for a, b in zip(values, values[1:])]
    return values, changes


class TestBuildRule:
    def test_box_node_count_and_weight_sum(self):
        rule = build_rule(UNIT_BOX, 4)
        assert len(rule) == 64
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-12)

    def test_box_weight_sum_matches_volume(self):
        box = Box(lo=(-2, 0, 1), hi=(1, 0.5, 4))
        for order in (1, 3, 8):
            rule = build_rule(box, order)
            assert np.sum(rule.weights) == pytest.approx(box.volume(), rel=1e-12)

    def test_ball_volume(self):
        ball = Ball(center=(0.3, -0.2, 1.0), radius=2.0)
        rule = build_rule(ball, 6)
        assert np.sum(rule.weights) == pytest.approx(32 * np.pi / 3, rel=1e-8)

    def test_weights_positive(self):
        for domain in (UNIT_BOX, Ball(center=(0, 0, 0), radius=1.5)):
            for order in (2, 5, 12):
                assert np.all(build_rule(domain, order).weights > 0.0)

    def test_nodes_strictly_interior(self):
        box = Box(lo=(-1, -1, -1), hi=(2, 2, 2))
        rule = build_rule(box, 9)
        assert np.all(rule.nodes > box.lo) and np.all(rule.nodes < box.hi)
        ball = Ball(center=(1, 1, 1), radius=0.7)
        rule = build_rule(ball, 9)
        dist = np.linalg.norm(rule.nodes - ball.center, axis=1)
        assert np.all(dist < 0.7) and np.all(dist > 0.0)

    def test_rejects_bad_order_and_domain(self):
        with pytest.raises(ValueError, match="order"):
            build_rule(UNIT_BOX, 0)
        with pytest.raises(ValueError, match="degenerate"):
            Ball(center=(0, 0, 0), radius=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            Box(lo=(0, 0, 0), hi=(1, 0, 1))


class TestExactness:
    def test_monomial_x2y2z2(self):
        for order in (2, 4, 7):
            rule = build_rule(SYM_BOX, order)
            value = np.sum(rule.weights * np.prod(rule.nodes**2, axis=1))
            assert value == pytest.approx(8.0 / 27.0, rel=1e-13)

    def test_random_monomials_up_to_gauss_degree(self):
        rng = np.random.default_rng(61)
        box = Box(lo=(-1, 0.5, -2), hi=(2, 1.5, -0.5))
        for order in (2, 3, 5):
            rule = build_rule(box, order)
            for _ in range(20):
                powers = rng.integers(0, 2 * order - 1, size=3)
                value = np.sum(
                    rule.weights * np.prod(rule.nodes ** powers[None, :], axis=1)
                )
                exact = np.prod(
                    [
                        (box.hi[a] ** (powers[a] + 1) - box.lo[a] ** (powers[a] + 1))
                        / (powers[a] + 1)
                        for a in range(3)
                    ]
                )
                assert value == pytest.approx(exact, rel=1e-13)

    def test_ball_polynomial(self):
        # int over ball radius R of z^2 = 4 pi R^5 / 15
        ball = Ball(center=(0, 0, 0), radius=1.3)
        rule = build_rule(ball, 4)
        value = np.sum(rule.weights * rule.nodes[:, 2] ** 2)
        assert value == pytest.approx(4 * np.pi * 1.3**5 / 15, rel=1e-12)


class TestIntegrateVector:
    """Vector integrands integrated as ``rule.weights @ f(rule.nodes)``."""

    def test_zero_integrand(self):
        rule = build_rule(UNIT_BOX, 3)
        np.testing.assert_array_equal(integrate(np.zeros_like, rule), np.zeros(3))

    def test_constant_integrand(self):
        box = Box(lo=(0, 0, 0), hi=(2, 1, 1))
        rule = build_rule(box, 3)
        c = np.array([1.5, -2.0, 0.25])
        np.testing.assert_allclose(
            integrate(lambda p: np.broadcast_to(c, p.shape), rule),
            c * box.volume(),
            rtol=1e-13,
        )

    def test_odd_integrand_over_symmetric_box(self):
        rule = build_rule(SYM_BOX, 6)
        value = integrate(
            lambda p: np.stack([p[:, 0], p[:, 1] ** 3, p[:, 0] * p[:, 2]], axis=1), rule
        )
        np.testing.assert_allclose(value, 0.0, atol=1e-13)


class TestRefineEstimate:
    """Estimates refined along the order ladder base, base+2, ... of build_rule."""

    def test_polynomial_converges_immediately(self):
        fn = lambda p: np.stack([p[:, 0] ** 2 * p[:, 1], p[:, 2], np.ones(len(p))], axis=1)
        _, changes = ladder(fn, SYM_BOX, range(4, 11, 2))
        assert max(changes) < 1e-13

    def test_gaussian_ladder_monotone_after_first_step(self):
        fn = lambda p: np.exp(-np.sum(p**2, axis=1) / (2 * 0.3**2))[:, None] * np.array(
            [1.0, 0.5, -0.2]
        )
        _, changes = ladder(fn, SYM_BOX, range(4, 19, 2))
        assert all(b < a for a, b in zip(changes[1:], changes[2:]))

    def test_steep_kernel_converges_by_order_24(self):
        # 1/R^3-type integrand with the observation point one domain
        # diameter away from the ball
        ball = Ball(center=(0, 0, 0), radius=0.25)
        x = np.array([1.0, 0.0, 0.0])
        fn = lambda p: (x - p) / np.linalg.norm(x - p, axis=1)[:, None] ** 3
        values, changes = ladder(fn, ball, range(4, 25, 2))
        assert changes[-1] < 1e-8
        # sanity: the same integrand via a dense rule
        dense = integrate(fn, build_rule(ball, 30))
        np.testing.assert_allclose(values[-1], dense, atol=1e-8)

    def test_early_return_at_tolerance(self):
        # odd integrand: the first step of the ladder is already within tol
        fn = lambda p: np.stack([p[:, 0], np.zeros(len(p)), np.zeros(len(p))], axis=1)
        values, changes = ladder(fn, SYM_BOX, (2, 4))
        assert changes[0] <= 1e-10
        np.testing.assert_allclose(values[-1], 0.0, atol=1e-14)


def gaussian_moment(m: int, reach: float) -> float:
    """The integral of x^m exp(-x^2/2) over [0, reach], from the series of
    the lower incomplete gamma function, whose terms are all positive."""
    s, z = 0.5 * (m + 1), 0.5 * reach * reach
    term = total = 1.0 / s
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= z / (s + k)
        total += term
    return 2.0 ** (0.5 * (m - 1)) * math.exp(s * math.log(z) - z) * total


CENTRE = (0.1, -0.2, 0.3)
#: (ball, centred envelope, reach): negative_velocity.cfg's source, a
#: truncated one cut at the ball's surface (truncated_boundary.cfg's, moved
#: off the origin), and one cut inside its ball.
CENTRED = [
    (Ball(center=(0, 0, 0), radius=0.2), GaussianEnvelope(center=(0, 0, 0), sigma=0.02), 0.2),
    (
        Ball(center=CENTRE, radius=0.1),
        TruncatedGaussianEnvelope(center=CENTRE, sigma=0.1, cut_radius=0.1),
        0.1,
    ),
    (
        Ball(center=CENTRE, radius=0.3),
        TruncatedGaussianEnvelope(center=CENTRE, sigma=0.05, cut_radius=0.2),
        0.2,
    ),
]
CENTRED_IDS = ["gaussian", "truncated-at-surface", "truncated-inside"]


class TestEnvelopeRule:
    """A ball's radial factor for a Gaussian envelope centred on it: the
    Gauss rule of r^2 exp(-r^2 / 2 sigma^2) on [0, reach], its weights
    divided by the envelope."""

    @pytest.mark.parametrize("ball, envelope, reach", CENTRED, ids=CENTRED_IDS)
    def test_weights_positive_and_nodes_inside_the_reach(self, ball, envelope, reach):
        for order in (1, 4, 10, 23, 40):
            rule = build_rule(ball, order, envelope)
            assert len(rule) == 2 * order**3
            assert np.all(rule.weights > 0.0) and np.all(np.isfinite(rule.weights))
            dist = np.linalg.norm(rule.nodes - ball.center, axis=1)
            assert np.all(dist > 0.0) and np.all(dist < reach)

    @pytest.mark.parametrize("ball, envelope, reach", CENTRED, ids=CENTRED_IDS)
    def test_radial_moments_exact_to_degree_2n_minus_1(self, ball, envelope, reach):
        """With the envelope restored, the rule integrates g * rho^k over
        the ball exactly for k < 2n: 4 pi sigma^(3+k) I_(k+2)(reach/sigma)."""
        sigma = envelope.sigma
        for order in (4, 10, 16, 30):
            rule = build_rule(ball, order, envelope)
            weighted = rule.weights * envelope.value(rule.nodes)
            rho = np.linalg.norm(rule.nodes - ball.center, axis=1)
            for k in range(2 * order):
                exact = 4.0 * np.pi * sigma ** (3 + k) * gaussian_moment(k + 2, reach / sigma)
                assert weighted @ rho**k == pytest.approx(exact, rel=2e-13, abs=0.0)

    def test_repeated_builds_give_the_same_bytes(self):
        ball, envelope, _ = CENTRED[0]
        first = build_rule(ball, 10, envelope)
        quadrature._envelope_recurrence.cache_clear()
        for rule in (build_rule(ball, 10, envelope), build_rule(ball, 10, envelope)):
            assert rule.nodes.tobytes() == first.nodes.tobytes()
            assert rule.weights.tobytes() == first.weights.tobytes()

    @pytest.mark.parametrize(
        "domain, envelope",
        [
            (Ball(center=(0, 0, 0), radius=0.2), GaussianEnvelope(center=(0, 0, 1e-9), sigma=0.02)),
            (
                Ball(center=CENTRE, radius=0.1),
                TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=0.1, cut_radius=0.1),
            ),
            (SYM_BOX, GaussianEnvelope(center=(0, 0, 0), sigma=0.3)),
        ],
        ids=["off-centre", "truncated-off-centre", "box"],
    )
    def test_other_pairs_keep_the_legendre_rule(self, domain, envelope):
        for order in (4, 11):
            rule = build_rule(domain, order, envelope)
            plain = build_rule(domain, order)
            assert rule.nodes.tobytes() == plain.nodes.tobytes()
            assert rule.weights.tobytes() == plain.weights.tobytes()


TILT = (0.3, -0.5, 0.8)


class TestRuleAxis:
    """A ball rule's polar axis: each run of 2*order nodes is a ring about
    the line through the centre along it."""

    @pytest.mark.parametrize("envelope", [None, GaussianEnvelope(center=CENTRE, sigma=0.2)])
    @pytest.mark.parametrize("order", [3, 8, 13])
    def test_rings_are_equally_far_from_points_on_the_axis(self, order, envelope):
        ball = Ball(center=CENTRE, radius=0.7)
        rule = build_rule(ball, order, envelope, TILT)
        plain = build_rule(ball, order, envelope)
        axis = np.array(TILT) / np.linalg.norm(TILT)
        assert rule.ring == plain.ring == 2 * order
        assert np.abs(rule.axis - axis).max() <= 1e-16
        assert rule.weights.tobytes() == plain.weights.tobytes()
        # the z rule turned onto the axis: the same distances from the centre
        # and heights along the axis
        offsets, z_offsets = rule.nodes - ball.center, plain.nodes - ball.center
        np.testing.assert_allclose(np.linalg.norm(offsets, axis=1),
                                   np.linalg.norm(z_offsets, axis=1), rtol=0, atol=1e-15)
        np.testing.assert_allclose(offsets @ axis, z_offsets[:, 2], rtol=0, atol=1e-15)
        for s in (0.9, -1.4, 3.0):
            x = ball.center + s * axis
            assert rule.ring_at(x) == rule.ring
            distances = np.linalg.norm(x - rule.nodes, axis=1).reshape(-1, rule.ring)
            assert np.ptp(distances, axis=1).max() <= 8 * np.finfo(float).eps * abs(s)

    def test_ring_at_points_off_the_axis_is_one_node(self):
        ball = Ball(center=CENTRE, radius=0.7)
        rule = build_rule(ball, 6, axis=TILT)
        axis = rule.axis
        across = np.cross(axis, (1.0, 0.0, 0.0))
        across /= np.linalg.norm(across)
        assert rule.ring_at(ball.center + 2.0 * axis) == 12
        assert rule.ring_at(ball.center + 2.0 * axis + 1e-9 * across) == 1
        assert rule.ring_at(ball.center + 2.0 * across) == 1
        assert build_rule(ball, 6).ring_at(ball.center + 2.0 * axis) == 1

    @pytest.mark.parametrize("centre", [(0, 0, 0), CENTRE, (30.0, -20.0, 10.0)])
    def test_every_point_of_a_ray_through_the_centre_is_on_the_axis(self, centre):
        """As a run places them: ``origin + r * direction`` from the centre,
        about the axis through the first; their rounding grows with the
        centre's distance from the origin as well as with r."""
        ball = Ball(center=centre, radius=0.3)
        rng = np.random.default_rng(5)
        for direction in rng.normal(size=(50, 3)):
            direction /= np.linalg.norm(direction)
            points = ball.center + np.array([0.31, 0.5, 1.7, 4.0])[:, None] * direction
            rule = build_rule(ball, 3, axis=points[0] - ball.center)
            assert all(rule.ring_at(x) == rule.ring for x in points)

    def test_axis_of_any_length_and_z_by_default(self):
        ball = Ball(center=CENTRE, radius=0.7)
        plain = build_rule(ball, 7)
        assert plain.axis.tolist() == [0.0, 0.0, 1.0]
        for axis in ((0, 0, 2.5), TILT):
            unit = np.array(axis) / np.linalg.norm(axis)
            long = build_rule(ball, 7, axis=axis)
            assert long.nodes.tobytes() == build_rule(ball, 7, axis=unit).nodes.tobytes()
        assert build_rule(ball, 7, axis=(0, 0, 2.5)).nodes.tobytes() == plain.nodes.tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            build_rule(ball, 7, axis=(np.inf, 0, 0))

    def test_zero_axis_is_rejected(self):
        """A zero axis has no direction: no rule of NaN nodes is built."""
        with pytest.raises(ValueError, match="nonzero"):
            build_rule(Ball(center=CENTRE, radius=0.7), 7, axis=(0, 0, 0))

    def test_tilted_ball_rule_integrates_polynomials(self):
        # int over a ball of radius R of (d . a)^2 = 4 pi R^5 / 15 along any unit a
        ball = Ball(center=CENTRE, radius=1.3)
        rule = build_rule(ball, 4, axis=TILT)
        for along in (rule.axis, np.array([1.0, 0.0, 0.0])):
            value = rule.weights @ ((rule.nodes - ball.center) @ along) ** 2
            assert value == pytest.approx(4 * np.pi * 1.3**5 / 15, rel=1e-12)

    def test_box_ignores_the_axis_and_never_folds(self):
        box = Box(lo=(-0.3, -0.1, 0.2), hi=(0.4, 0.5, 0.9))
        rule = build_rule(box, 5, axis=TILT)
        plain = build_rule(box, 5)
        assert rule.nodes.tobytes() == plain.nodes.tobytes()
        assert rule.weights.tobytes() == plain.weights.tobytes()
        assert rule.ring == 1 and rule.axis is None
        assert rule.ring_at(box.center + 2.0 * np.array(TILT)) == 1


def test_records_of_arrays_compare_and_hash_by_identity():
    """Domains, envelopes, sources and rules hold arrays, so they compare
    and hash by identity, and a ball rule's repr leaves its nodes unbuilt;
    the pulses and constants keep value equality."""
    def twins():
        ball = Ball(center=(0.1, 0.0, 0.0), radius=0.4)
        envelope = GaussianEnvelope(center=(0.1, 0.0, 0.0), sigma=0.05)
        pulse = SineSquaredPulse(t_on=0.0, tau=1.0)
        return [
            ball,
            Box(lo=(0, 0, 0), hi=(1, 1, 1)),
            envelope,
            TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=0.1, cut_radius=0.2),
            SourceModel(envelope, pulse, (0.0, 0.0, 1.0), 1.0, ball),
            build_rule(ball, 22, envelope),
            pulse.expansion(np.zeros(3)),
        ]

    for one, other in zip(twins(), twins()):
        assert one == one and one != other and len({one, other}) == 2
    rule = twins()[-2]
    assert "rows" not in repr(rule) and not {"rows", "weights"} & set(vars(rule))
    for pulse in (SineSquaredPulse, DifferentiatedGaussianPulse):
        assert pulse(0.0, 2.0) == pulse(0.0, 2.0) != pulse(0.0, 3.0)
        assert hash(pulse(0.0, 2.0)) == hash(pulse(0.0, 2.0))
        assert repr(pulse(0.0, 2.0)) == f"{pulse.__name__}(t_on=0.0, tau=2.0)"
    assert SineSquaredPulse(0.0, 2.0) != DifferentiatedGaussianPulse(0.0, 2.0)
    assert PhysicalConstants(c=1.0, coulomb=1.0) == NATURAL
