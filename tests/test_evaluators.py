import numpy as np
import pytest
from legacy_fields import legacy_jefimenko_field

from retfield import evaluators
from retfield.domains import Ball, Box
from retfield.evaluators import (
    FieldDecomposition,
    ObservationPoint,
    PointDipole,
    dipole_oracle_field,
    jefimenko_field,
    refined_field,
    representation_residual,
    zone_field,
)
from retfield.geometry import NATURAL
from retfield.quadrature import ConvergenceError, build_rule
from retfield.sources import (
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
    TruncatedGaussianEnvelope,
)

SIGMA = 0.05
TAU = 20.0


def smooth_source(amplitude=1.0, sigma=SIGMA, domain_sigmas=10.0):
    return SourceModel(
        envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
        profile=SineSquaredPulse(t_on=0.0, tau=TAU),
        polarization=(0, 0, 1),
        amplitude=amplitude,
        domain=Ball(center=(0, 0, 0), radius=domain_sigmas * sigma),
    )


def truncated_source(sigma=SIGMA):
    return SourceModel(
        envelope=TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=sigma, cut_radius=sigma),
        profile=SineSquaredPulse(t_on=0.0, tau=TAU),
        polarization=(0, 0, 1),
        amplitude=1.0,
        domain=Ball(center=(0, 0, 0), radius=sigma),
    )


@pytest.fixture(scope="module")
def src():
    return smooth_source()


@pytest.fixture(scope="module")
def rule(src):
    return build_rule(src.domain, 24)


class TestZoneField:
    def test_zero_amplitude_source(self, rule):
        source = smooth_source(amplitude=0.0)
        result = zone_field(source, ObservationPoint(x=(2, 0, 0), t=10.0), rule)
        for term in result.terms.values():
            np.testing.assert_array_equal(term, np.zeros(3))

    def test_exactly_zero_ahead_of_front(self, src, rule):
        # every retarded time precedes switch-on: the integrand is exactly 0
        obs = ObservationPoint(x=(3.0, 0, 0), t=2.0)
        result = zone_field(src, obs, rule)
        np.testing.assert_array_equal(result.total, np.zeros(3))

    def test_term_names_and_total(self, src, rule):
        result = zone_field(src, ObservationPoint(x=(1.5, 0, 0), t=8.0), rule)
        assert list(result.terms) == ["near", "intermediate", "far"]
        assert result.representation == "zones"
        expected = (
            result.terms["near"] + result.terms["intermediate"] + result.terms["far"]
        )
        np.testing.assert_array_equal(result.total, expected)

    def test_observation_inside_domain_rejected(self, src, rule):
        with pytest.raises(ValueError, match="inside"):
            zone_field(src, ObservationPoint(x=(0.2, 0, 0), t=5.0), rule)

    def test_linearity_powers_of_two_exact(self, rule):
        obs = ObservationPoint(x=(1.2, 0.4, -0.3), t=9.0)
        base = zone_field(smooth_source(amplitude=1.0), obs, rule)
        doubled = zone_field(smooth_source(amplitude=2.0), obs, rule)
        for name in base.terms:
            np.testing.assert_array_equal(doubled.terms[name], 2.0 * base.terms[name])

    def test_linearity_general_factor(self, rule):
        obs = ObservationPoint(x=(1.2, 0.4, -0.3), t=9.0)
        base = zone_field(smooth_source(amplitude=1.0), obs, rule)
        tripled = zone_field(smooth_source(amplitude=3.0), obs, rule)
        np.testing.assert_allclose(tripled.total, 3.0 * base.total, rtol=1e-13)

    def test_superposition_over_domain_split(self):
        # integral additivity: the field over a box equals the sum of the
        # fields over its halves, within combined quadrature error
        sigma = 0.15
        envelope = GaussianEnvelope(center=(0, 0, 0), sigma=sigma)
        profile = SineSquaredPulse(t_on=0.0, tau=TAU)
        whole = Box(lo=(-0.6, -0.6, -0.6), hi=(0.6, 0.6, 0.6))
        left = Box(lo=(-0.6, -0.6, -0.6), hi=(0.0, 0.6, 0.6))
        right = Box(lo=(0.0, -0.6, -0.6), hi=(0.6, 0.6, 0.6))
        obs = ObservationPoint(x=(2.5, 0.3, 0.1), t=9.0)
        fields = {}
        for tag, domain in (("whole", whole), ("left", left), ("right", right)):
            source = SourceModel(
                envelope=envelope,
                profile=profile,
                polarization=(0, 0, 1),
                amplitude=1.0,
                domain=domain,
            )
            fields[tag] = zone_field(source, obs, build_rule(domain, 24), NATURAL).total
        np.testing.assert_allclose(
            fields["whole"],
            fields["left"] + fields["right"],
            rtol=0.0,
            atol=1e-9 * np.linalg.norm(fields["whole"]),
        )

    def test_static_near_term_falls_as_r_cubed(self, src, rule):
        t_static = TAU + 40.0
        mags = []
        for r in (2.0, 4.0):
            result = zone_field(src, ObservationPoint(x=(r, 0, 0), t=t_static), rule)
            mags.append(np.linalg.norm(result.terms["near"]))
            # static limit: the other terms vanish identically
            np.testing.assert_array_equal(result.terms["intermediate"], np.zeros(3))
            np.testing.assert_array_equal(result.terms["far"], np.zeros(3))
        assert mags[0] / mags[1] == pytest.approx(8.0, rel=1e-3)


class TestJefimenkoField:
    def test_zero_amplitude_source(self, rule):
        source = smooth_source(amplitude=0.0)
        result = jefimenko_field(source, ObservationPoint(x=(2, 0, 0), t=10.0), rule)
        for term in result.terms.values():
            np.testing.assert_array_equal(term, np.zeros(3))

    def test_exactly_zero_ahead_of_front(self, src, rule):
        obs = ObservationPoint(x=(3.0, 0, 0), t=2.0)
        np.testing.assert_array_equal(jefimenko_field(src, obs, rule).total, np.zeros(3))

    def test_term_names(self, src, rule):
        result = jefimenko_field(src, ObservationPoint(x=(1.5, 0, 0), t=8.0), rule)
        assert list(result.terms) == ["current", "charge"]
        assert result.representation == "jefimenko"

    def test_static_limit_is_pure_charge_term(self, src, rule):
        obs = ObservationPoint(x=(2.0, 0, 0), t=TAU + 40.0)
        result = jefimenko_field(src, obs, rule)
        np.testing.assert_array_equal(result.terms["current"], np.zeros(3))
        assert np.linalg.norm(result.terms["charge"]) > 0.0
        # and it agrees with the zone representation's static field
        zones = zone_field(src, obs, rule)
        np.testing.assert_allclose(
            result.total, zones.total, atol=1e-8 * np.linalg.norm(zones.total)
        )

    def test_commuted_derivative_matches_finite_difference(self, src, rule):
        # validates moving d/dt through the spatial integral, against central
        # differences of the assembled current integral
        for t in (6.0, 8.0, 13.0):
            obs = ObservationPoint(x=(1.5, 0, 0), t=t)
            analytic = jefimenko_field(src, obs, rule)
            fd = legacy_jefimenko_field(src, obs.x, t, rule, NATURAL, fd_step=1e-3).sum(axis=0)
            scale = np.linalg.norm(analytic.total)
            assert np.linalg.norm(analytic.total - fd) < 1e-6 * scale


class TestRepresentationAgreement:
    def test_smooth_source_agreement(self, src, rule):
        for r, t in ((1.0, 9.0), (2.0, 14.0), (6.0, 20.0), (12.0, 45.0)):
            obs = ObservationPoint(x=(r, 0, 0), t=t)
            assert representation_residual(src, obs, rule) < 1e-6

    def test_agreement_off_axis(self, src, rule):
        rng = np.random.default_rng(71)
        for _ in range(10):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            r = rng.uniform(1.0, 8.0)
            t = r + rng.uniform(0.2 * TAU, 0.9 * TAU)
            obs = ObservationPoint(x=r * direction, t=float(t))
            assert representation_residual(src, obs, rule) < 1e-6

    def test_residual_zero_ahead_of_front(self, src, rule):
        obs = ObservationPoint(x=(3.0, 0, 0), t=1.0)
        assert representation_residual(src, obs, rule) == 0.0

    def test_truncated_source_disagrees_in_near_zone(self):
        source = truncated_source()
        dense = build_rule(source.domain, 24)
        obs = ObservationPoint(x=(3 * SIGMA, 0, 0), t=10.0)
        assert representation_residual(source, obs, dense) > 1e-2

    def test_residual_tracks_quadrature_error(self, src):
        # equivalence on smooth sources is limited only by quadrature
        cache = {}
        for r, t in ((1.5, 10.0), (4.0, 16.0)):
            obs = ObservationPoint(x=(r, 0, 0), t=t)
            zones = refined_field("zones", src, obs, base_order=18, max_order=28,
                                  tol=1e-12, rule_cache=cache)
            jef = refined_field("jefimenko", src, obs, base_order=18, max_order=28,
                                tol=1e-12, rule_cache=cache)
            err = max(zones.quadrature_error, jef.quadrature_error)
            scale = max(np.linalg.norm(zones.total), np.linalg.norm(jef.total))
            residual = np.linalg.norm(zones.total - jef.total)
            assert residual < 10.0 * max(err, 1e-15 * scale) + 1e-13 * scale


class TestDipoleOracle:
    def test_static_limit_formula(self):
        profile = SineSquaredPulse(t_on=0.0, tau=TAU)
        dipole = PointDipole(
            position=(0, 0, 0), direction=(0, 0, 1), moment_scale=2.0, profile=profile
        )
        obs = ObservationPoint(x=(0.7, -0.4, 1.1), t=500.0)
        result = dipole_oracle_field(dipole, obs)
        p = np.array([0, 0, 2.0 * TAU / 2.0])
        r = np.linalg.norm(obs.x)
        n = obs.x / r
        expected = (3 * n * (n @ p) - p) / r**3
        np.testing.assert_allclose(result.total, expected, rtol=1e-13)
        np.testing.assert_array_equal(result.terms["intermediate"], np.zeros(3))
        np.testing.assert_array_equal(result.terms["far"], np.zeros(3))

    def test_far_term_vanishes_on_axis(self):
        profile = SineSquaredPulse(t_on=0.0, tau=TAU)
        dipole = PointDipole(
            position=(0, 0, 0), direction=(0, 0, 1), moment_scale=1.0, profile=profile
        )
        obs = ObservationPoint(x=(0, 0, 5.0), t=12.0)
        result = dipole_oracle_field(dipole, obs)
        np.testing.assert_allclose(result.terms["far"], np.zeros(3), atol=1e-18)

    def test_from_source_moment_scale(self, src):
        dipole = PointDipole.from_source(src)
        assert dipole.moment_scale == pytest.approx(
            src.amplitude * (2 * np.pi) ** 1.5 * SIGMA**3
        )
        np.testing.assert_array_equal(dipole.direction, src.polarization)

    def test_small_source_matches_oracle(self, src, rule):
        dipole = PointDipole.from_source(src)
        rng = np.random.default_rng(72)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            r = rng.uniform(100 * SIGMA, 200 * SIGMA)
            x = r * direction
            # pick a time where the oracle field is not near a zero crossing
            t_grid = np.linspace(r + 0.1 * TAU, r + 0.9 * TAU, 30)
            mags = [
                dipole_oracle_field(dipole, ObservationPoint(x=x, t=float(t))).magnitude()
                for t in t_grid
            ]
            t = float(t_grid[int(np.argmax(mags))])
            obs = ObservationPoint(x=x, t=t)
            numeric = zone_field(src, obs, rule).total
            exact = dipole_oracle_field(dipole, obs).total
            rel = np.linalg.norm(numeric - exact) / np.linalg.norm(exact)
            assert rel < 1e-3

    def test_near_and_intermediate_z_terms_vanish_at_the_magic_angle(self):
        """E_z's near and intermediate terms carry 3cos^2(theta) - 1, which
        is zero at theta = arccos(1/sqrt(3)); the far term does not."""
        profile = SineSquaredPulse(t_on=5.0, tau=7.0)
        dipole = PointDipole(
            position=(0, 0, 0), direction=(0, 0, 1), moment_scale=1.0, profile=profile
        )

        def z_ratios(theta):
            ratios = {"near": 0.0, "intermediate": 0.0, "far": 0.0}
            for r in (0.3, 1.0):
                x = r * np.array([np.sin(theta), 0.0, np.cos(theta)])
                # retarded times inside the burst, off the zeros of F, f and f'
                for t_ret in np.linspace(5.25, 11.75, 14):
                    obs = ObservationPoint(x=x, t=float(t_ret + r))
                    terms = dipole_oracle_field(dipole, obs).terms
                    for name, term in terms.items():
                        ratios[name] = max(ratios[name], abs(term[2]) / np.linalg.norm(term))
            return ratios

        magic = z_ratios(np.arccos(1.0 / np.sqrt(3.0)))
        assert magic["near"] < 1e-14 and magic["intermediate"] < 1e-14
        assert magic["far"] > 0.1
        oblique = z_ratios(np.pi / 3)
        assert all(ratio > 0.1 for ratio in oblique.values())

    def test_coincident_point_rejected(self):
        profile = SineSquaredPulse(t_on=0.0, tau=1.0)
        dipole = PointDipole(
            position=(1, 1, 1), direction=(0, 0, 1), moment_scale=1.0, profile=profile
        )
        with pytest.raises(ValueError, match="coincides"):
            dipole_oracle_field(dipole, ObservationPoint(x=(1, 1, 1), t=0.0))


@pytest.mark.parametrize(
    "sigma, radius, radii",
    [(0.02, 0.2, (0.3, 3.0)), (0.05, 0.5, (1.0, 2.8))],
    ids=["negative_velocity", "smooth_compare"],
)
def test_envelope_rule_gives_the_static_dipole_at_order_10(sigma, radius, radii):
    """Once a sine-squared pulse has passed every node, F = tau/2 and, by the
    shell theorem, a centred Gaussian in its ball is an exact static point
    dipole.  The shipped configs' envelope and ball, at their first and last
    radius: on the envelope-weighted radial rule order 10 gets both forms
    there; Legendre at order 16 is 4.2e-8 (zones) and 1.2e-4 to 1.2e-2
    (Jefimenko) away."""
    source = smooth_source(sigma=sigma, domain_sigmas=radius / sigma)
    rule = build_rule(source.domain, 10, source.envelope)
    dipole = PointDipole.from_source(source)
    for r in radii:
        obs = ObservationPoint(x=(r, 0, 0), t=TAU + r + radius + 1.0)
        exact = dipole_oracle_field(dipole, obs).total
        peak = np.abs(exact).max()
        assert np.abs(zone_field(source, obs, rule).total - exact).max() <= 1e-12 * peak
        assert np.abs(jefimenko_field(source, obs, rule).total - exact).max() <= 1e-10 * peak


class TestRefinedField:
    def test_reaches_tolerance_and_reports_error(self, src):
        obs = ObservationPoint(x=(2.0, 0, 0), t=12.0)
        result = refined_field("zones", src, obs, base_order=16, max_order=28, tol=1e-9)
        assert result.quadrature_error <= 1e-9
        dense = zone_field(src, obs, build_rule(src.domain, 28))
        np.testing.assert_allclose(result.total, dense.total, atol=1e-8)

    def test_unknown_representation(self, src):
        with pytest.raises(ValueError, match="representation"):
            refined_field("multipole", src, ObservationPoint(x=(2, 0, 0), t=5.0))

    def test_rule_cache_reused(self, src):
        cache = {}
        obs = ObservationPoint(x=(2.0, 0, 0), t=12.0)
        refined_field("zones", src, obs, base_order=12, max_order=18, tol=1e-30, rule_cache=cache)
        assert sorted(cache) == [12, 14, 16, 18]

    def test_builds_each_rule_for_the_envelope(self, src):
        """... and about the axis from the ball's centre to the point, on
        which its rings are summed once."""
        cache = {}
        obs = ObservationPoint(x=(2.0, 0, 0), t=12.0)
        refined_field("zones", src, obs, base_order=8, max_order=10, tol=1e-30, rule_cache=cache)
        for order, rule in cache.items():
            assert rule.weights.tobytes() == build_rule(src.domain, order, src.envelope).weights.tobytes()
            assert rule.axis.tolist() == [1.0, 0.0, 0.0]
            assert rule.ring_at(obs.x) == rule.ring == 2 * order

    @pytest.mark.parametrize("representation", ["zones", "jefimenko"])
    def test_error_is_the_last_change_or_the_rounding_floor(self, src, representation):
        """The reported error is the larger of the last order-to-order change
        and the last field's rounding floor.  Jefimenko's charge columns
        cancel: there the change is rounding noise, below the floor."""
        cache = {}
        obs = ObservationPoint(x=(1.5, 0, 0), t=10.0)
        result = refined_field(
            representation, src, obs, base_order=18, max_order=22, tol=1e-30, rule_cache=cache
        )
        evaluate = evaluators.EVALUATORS[representation]
        last, previous = (evaluate(src, obs, cache[order]) for order in (22, 20))
        change = float(np.max(np.abs(last.total - previous.total)))
        assert result.rounding == last.rounding
        assert result.quadrature_error == max(change, last.rounding)
        # at least sqrt(N) eps times the field; the largest coefficient of a
        # column sum in a field component is 4 (zones' near term)
        eps = np.finfo(float).eps
        assert last.rounding >= np.sqrt(len(cache[22])) * eps * np.abs(last.total).max() / 4
        if representation == "jefimenko":
            assert result.quadrature_error == last.rounding > change

    @pytest.mark.parametrize("representation", ["zones", "jefimenko"])
    def test_rounding_floor_sums_every_node(self, src, representation):
        """The floor is sqrt(nodes) eps times the kinds' largest sums of
        |column| * |pulse quantity| over every node, here at 3456 and
        21296 nodes; those sums are formed in another order here."""
        obs = ObservationPoint(x=(1.5, 0.4, 0.3), t=12.0)
        for order in (12, 22):
            rule = build_rule(src.domain, order, src.envelope)
            delays, stacked = evaluators.NodeKernel(src, rule, (representation,)).columns(obs.x)
            pulse = src.profile.evaluate(obs.t - delays)
            size = sum(float((np.abs(cols) @ np.abs(values)).max())
                       for cols, values in zip(stacked, pulse) if cols is not None)
            exact = np.sqrt(len(rule)) * np.finfo(float).eps * size  # c = k_c = 1
            assert exact > 0.0
            floor = evaluators.EVALUATORS[representation](src, obs, rule).rounding
            assert floor == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_rounding_floor_is_zero_ahead_of_the_front(self, src):
        for evaluate in (zone_field, jefimenko_field):
            obs = ObservationPoint(x=(3.0, 0, 0), t=1.0)
            assert evaluate(src, obs, build_rule(src.domain, 8)).rounding == 0.0

    def test_rejects_bad_order_range(self, src):
        obs = ObservationPoint(x=(2, 0, 0), t=5.0)
        with pytest.raises(ValueError, match="base order"):
            refined_field("zones", src, obs, base_order=8, max_order=8)

    def test_rejects_one_rung_ladder(self, src):
        # orders 8 and 9 would evaluate order 8 only: no error estimate
        obs = ObservationPoint(x=(2, 0, 0), t=5.0)
        with pytest.raises(ValueError, match="at least 2 below"):
            refined_field("zones", src, obs, base_order=8, max_order=9)

    def test_non_convergence_raises(self, src, monkeypatch):
        # a total that moves further with every order: the ladder stalls
        def diverging(src, obs, rule, constants=NATURAL):
            return FieldDecomposition(
                terms={"x": np.array([rule.order**2, 0.0, 0.0])}, representation="zones"
            )

        monkeypatch.setitem(evaluators.EVALUATORS, "zones", diverging)
        obs = ObservationPoint(x=(2.0, 0, 0), t=12.0)
        with pytest.raises(ConvergenceError, match="stalled"):
            refined_field("zones", src, obs, base_order=4, max_order=16, tol=1e-9)


class TestSiUnits:
    def test_zone_field_matches_oracle_in_si(self):
        # exercises the constants plumbing: metres, seconds, real c
        from retfield.geometry import SI

        sigma = 0.01  # 1 cm source
        envelope = GaussianEnvelope(center=(0, 0, 0), sigma=sigma)
        profile = SineSquaredPulse(t_on=0.0, tau=20e-9)  # 20 ns burst
        src = SourceModel(
            envelope=envelope,
            profile=profile,
            polarization=(0, 0, 1),
            amplitude=1.0,
            domain=Ball(center=(0, 0, 0), radius=10 * sigma),
        )
        dipole = PointDipole.from_source(src)
        rule = build_rule(src.domain, 24)
        r = 5.0  # 5 m, radiation zone for a ~10 cm wavelength-scale pulse
        t = r / SI.c + 10e-9
        obs = ObservationPoint(x=(0.0, r, 0.0), t=t)
        numeric = zone_field(src, obs, rule, SI).total
        exact = dipole_oracle_field(dipole, obs, SI).total
        assert np.linalg.norm(numeric - exact) < 1e-3 * np.linalg.norm(exact)
        # and both representations still agree
        assert representation_residual(src, obs, rule, SI) < 1e-6


class TestObservationPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObservationPoint(x=(np.nan, 0, 0), t=0.0)
        with pytest.raises(ValueError):
            ObservationPoint(x=(1, 0, 0), t=np.inf)


class TestFieldDecomposition:
    def test_total_is_ordered_sum(self):
        a = np.array([1e16, 1.0, 0.0])
        b = np.array([-1e16, 0.0, 0.0])
        c = np.array([1.0, 0.0, 0.0])
        decomposition = FieldDecomposition(
            terms={"near": a, "intermediate": b, "far": c}, representation="zones"
        )
        np.testing.assert_array_equal(decomposition.total, (a + b) + c)
