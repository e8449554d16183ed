import numpy as np
import pytest
from legacy_fields import legacy_hessian, legacy_pulse

from retfield.domains import Ball, Box
from retfield.quadrature import build_rule
from retfield.sources import (
    DifferentiatedGaussianPulse,
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
    TruncatedGaussianEnvelope,
    make_envelope,
    make_profile,
)


def gaussian_source(sigma=0.1, tau=4.0, amplitude=1.0, domain_sigmas=8.0):
    return SourceModel(
        envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
        profile=SineSquaredPulse(t_on=1.0, tau=tau),
        polarization=(0, 0, 1),
        amplitude=amplitude,
        domain=Ball(center=(0, 0, 0), radius=domain_sigmas * sigma),
    )


def both_envelope_sources():
    """A smooth and a truncated source, off-centre and tilted."""
    pol = np.array([0.36, -0.48, 0.8])
    envelopes = (
        GaussianEnvelope(center=(0.1, -0.2, 0.05), sigma=0.3),
        TruncatedGaussianEnvelope(center=(0.1, -0.2, 0.05), sigma=0.3, cut_radius=0.45),
    )
    pulse, domain = SineSquaredPulse(t_on=1.0, tau=4.0), Ball((0.1, -0.2, 0.05), 2.4)
    return [SourceModel(env, pulse, pol, -1.7, domain) for env in envelopes]


def inside_cut(src, seed, count=60):
    """Random points up to 0.9 cut radii (1.35 sigma if smooth) from the centre."""
    env = src.envelope
    reach = 0.9 * getattr(env, "cut_radius", 1.5 * env.sigma)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(count, 3))
    d *= reach * rng.uniform(0.0, 1.0, (count, 1)) / np.linalg.norm(d, axis=1)[:, None]
    return env.center + d


def finite_difference_gradient(fn, xp, h=1e-6):
    """Central differences of ``fn`` along x, y and z at ``xp``, on the last axis."""
    return np.stack([(fn(xp + e) - fn(xp - e)) / (2 * h) for e in h * np.eye(3)], axis=-1)


def gauss_legendre_time_integral(fn, a, b, n=200):
    """Independent high-order quadrature for time primitives."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = a + 0.5 * (b - a) * (x + 1.0)
    return 0.5 * (b - a) * np.sum(w * fn(t))


class TestSineSquaredPulse:
    def setup_method(self):
        self.p = SineSquaredPulse(t_on=1.0, tau=4.0)

    def test_exactly_zero_outside_support(self):
        for t in (-5.0, 0.0, 1.0, 5.0, 12.0):
            assert self.p.value(t) == 0.0
            assert self.p.derivative(t) == 0.0

    def test_unit_peak_at_center(self):
        assert self.p.value(3.0) == pytest.approx(1.0)
        assert self.p.derivative(3.0) == pytest.approx(0.0, abs=1e-15)

    def test_primitive_boundaries(self):
        assert self.p.primitive(1.0) == 0.0
        assert self.p.primitive(0.0) == 0.0
        # Full burst integrates to exactly tau/2.
        assert self.p.primitive(5.0) == 2.0
        assert self.p.primitive(100.0) == 2.0

    def test_primitive_nondecreasing(self):
        t = np.linspace(-1, 7, 500)
        prim = self.p.primitive(t)
        assert np.all(np.diff(prim) >= -1e-15)

    def test_primitive_derivative_matches_value(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(1.05, 4.95, 200)
        h = 1e-6
        fd = (self.p.primitive(t + h) - self.p.primitive(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, self.p.value(t), rtol=1e-8, atol=1e-10)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(32)
        t = rng.uniform(1.05, 4.95, 200)
        h = 1e-6
        fd = (self.p.value(t + h) - self.p.value(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, self.p.derivative(t), rtol=1e-7, atol=1e-9)

    def test_primitive_matches_numeric_integration(self):
        for t_end in (1.7, 2.9, 4.2, 6.0):
            # integrand vanishes beyond the support; integrate only the
            # smooth part so the oracle keeps spectral accuracy
            expected = gauss_legendre_time_integral(self.p.value, 1.0, min(t_end, 5.0))
            assert self.p.primitive(t_end) == pytest.approx(expected, rel=1e-9)


class TestDifferentiatedGaussianPulse:
    def setup_method(self):
        self.p = DifferentiatedGaussianPulse(t_on=0.0, tau=16.0)

    def test_exactly_zero_outside_support(self):
        for t in (-1.0, 0.0, 16.0, 20.0):
            assert self.p.value(t) == 0.0
            assert self.p.derivative(t) == 0.0
            assert self.p.primitive(t) == 0.0

    def test_antisymmetric_about_center(self):
        t = np.linspace(0.5, 7.5, 40)
        np.testing.assert_allclose(self.p.value(8 + t), -self.p.value(8 - t), atol=1e-15)

    def test_primitive_peaks_at_center_and_returns_to_zero(self):
        assert self.p.primitive(8.0) == pytest.approx(self.p.width, rel=1e-12)
        assert abs(self.p.primitive(15.999)) < 1e-12
        assert self.p.primitive(16.0) == 0.0

    def test_primitive_matches_numeric_integration(self):
        for t_end in (6.0, 8.0, 9.5, 14.0):
            expected = gauss_legendre_time_integral(self.p.value, 0.0, t_end, n=400)
            assert self.p.primitive(t_end) == pytest.approx(expected, rel=1e-9)

    def test_primitive_nondecreasing_where_value_nonnegative(self):
        t = np.linspace(-1.0, 18.0, 800)
        rising = (self.p.value(t[:-1]) >= 0.0) & (self.p.value(t[1:]) >= 0.0)
        assert np.all(np.diff(self.p.primitive(t))[rising] >= -1e-15)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(33)
        t = rng.uniform(1.0, 15.0, 200)
        h = 1e-6
        fd = (self.p.value(t + h) - self.p.value(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, self.p.derivative(t), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize(
    "pulse",
    [SineSquaredPulse(t_on=1.0, tau=4.0), DifferentiatedGaussianPulse(t_on=1.0, tau=4.0)],
    ids=["sine-squared", "differentiated-gaussian"],
)
class TestFusedEvaluation:
    """``evaluate`` returns (primitive, value, derivative) in one pass."""

    def grid(self, pulse):
        # the clipped Gaussian's clip edges are the support edges t_on, t_on + tau
        edges = [pulse.t_on, pulse.t_on + pulse.tau]
        beside = [np.nextafter(e, side) for e in edges for side in (-np.inf, np.inf)]
        inner = list(pulse.t_on + pulse.tau * np.array([0.1, 0.25, 0.45, 0.8]))
        return np.array(sorted([-7.0, 0.5, 5.5, 40.0, *edges, *beside, *inner]))

    def test_projections_are_the_single_methods(self, pulse):
        t = self.grid(pulse)
        fused = pulse.evaluate(t)
        singles = (pulse.primitive(t), pulse.value(t), pulse.derivative(t))
        for a, b in zip(fused, singles):
            assert a.tobytes() == b.tobytes()
        for k, tk in enumerate(t):
            assert pulse.value(tk) == fused[1][k] and isinstance(pulse.value(tk), float)
        grid = pulse.evaluate(t.reshape(2, -1))
        assert all(a.shape == (2, t.size // 2) for a in grid)
        assert all(np.array_equal(a.ravel(), b) for a, b in zip(grid, fused))

    def test_matches_unfused_formulas(self, pulse):
        t = self.grid(pulse)
        for fused, unfused in zip(pulse.evaluate(t), legacy_pulse(pulse, t)):
            np.testing.assert_array_equal(fused, unfused)

    def test_positive_zero_outside_support(self, pulse):
        t = self.grid(pulse)
        primitive, value, rate = pulse.evaluate(t)
        before, after = t <= pulse.t_on, t >= pulse.t_on + pulse.tau
        assert before.sum() >= 3 and after.sum() >= 3
        for a in (value[before | after], rate[before | after], primitive[before]):
            assert np.all(a == 0.0) and not np.any(np.signbit(a))
        settled = 0.5 * pulse.tau if isinstance(pulse, SineSquaredPulse) else 0.0
        assert np.all(primitive[after] == settled) and not np.any(np.signbit(primitive[after]))
        inside = ~(before | after)
        assert np.all(value[inside] != 0.0)


class TestEnvelopes:
    def test_gaussian_nonnegative_and_unit_peak(self):
        env = GaussianEnvelope(center=(1, 2, 3), sigma=0.5)
        rng = np.random.default_rng(41)
        pts = rng.uniform(-2, 5, size=(500, 3))
        assert np.all(env.value(pts) >= 0.0)
        assert env.value((1, 2, 3)) == 1.0

    def test_gradient_matches_finite_difference(self):
        env = GaussianEnvelope(center=(0.2, -0.1, 0.4), sigma=0.7)
        rng = np.random.default_rng(42)
        h = 1e-6
        for p in rng.uniform(-1.5, 2.0, size=(100, 3)):
            fd = np.array(
                [
                    (env.value(p + h * np.eye(3)[k]) - env.value(p - h * np.eye(3)[k]))
                    / (2 * h)
                    for k in range(3)
                ]
            )
            np.testing.assert_allclose(env.gradient(p), fd, rtol=1e-6, atol=1e-10)

    def test_hessian_matches_finite_difference_of_gradient(self):
        env = GaussianEnvelope(center=(0, 0, 0), sigma=0.6)
        rng = np.random.default_rng(43)
        h = 1e-6
        for p in rng.uniform(-1.2, 1.2, size=(100, 3)):
            fd = np.array(
                [
                    (env.gradient(p + h * np.eye(3)[k]) - env.gradient(p - h * np.eye(3)[k]))
                    / (2 * h)
                    for k in range(3)
                ]
            )
            # H . v for each axis and an oblique direction; H is symmetric
            for v in (*np.eye(3), (0.0, 0.6, 0.8)):
                np.testing.assert_allclose(env.hessian(p, v), fd @ v, rtol=1e-6, atol=1e-9)

    def test_hessian_at_center_is_isotropic(self):
        env = GaussianEnvelope(center=(0, 0, 0), sigma=0.25)
        for v in (*np.eye(3), np.array([0.0, 0.6, 0.8])):
            np.testing.assert_allclose(env.hessian((0.0, 0.0, 0.0), v), -v / 0.25**2, rtol=1e-13)

    def test_truncated_vanishes_outside_cut(self):
        env = TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=1.0, cut_radius=1.0)
        assert env.value((1.5, 0, 0)) == 0.0
        np.testing.assert_array_equal(env.gradient((0, 2.0, 0)), np.zeros(3))
        np.testing.assert_array_equal(env.hessian((0, 0, -3.0), (0.0, 0.6, 0.8)), np.zeros(3))
        # inside the cut it is the plain Gaussian
        smooth = GaussianEnvelope(center=(0, 0, 0), sigma=1.0)
        p = (0.3, 0.2, -0.4)
        assert env.value(p) == smooth.value(p)

    def test_truncated_derivatives_are_positive_zeros_outside_the_cut(self):
        """Outside the cut every gradient and H . v entry is +0.0, never
        -0.0, and inside it is the smooth one's, bit for bit; H . v is the
        frozen masked Hessian's product with v within 1e-15 of each
        component's largest |value|; for a point set and for single points."""
        env = TruncatedGaussianEnvelope(center=(0.1, -0.2, 0.05), sigma=0.3, cut_radius=0.45)
        smooth = GaussianEnvelope(center=env.center, sigma=env.sigma)
        rng = np.random.default_rng(44)
        points = env.center + rng.uniform(-1.0, 1.0, size=(400, 3))
        distance = np.linalg.norm(points - env.center, axis=1)
        points = points[np.abs(distance - env.cut_radius) > 0.01]
        outside = np.linalg.norm(points - env.center, axis=1) > env.cut_radius
        assert 0 < outside.sum() < len(points)
        direction = np.array([0.0, 0.6, 0.8])
        frozen = legacy_hessian(env, points) @ direction
        product = env.hessian(points, direction)
        assert np.all(np.abs(product - frozen) <= 1e-15 * np.abs(frozen).max(axis=0))
        for derivative, args in (("gradient", ()), ("hessian", (direction,))):
            got = getattr(env, derivative)(points, *args)
            assert not np.any(got[outside]) and not np.any(np.signbit(got[outside]))
            smooth_inside = getattr(smooth, derivative)(points[~outside], *args)
            assert got[~outside].tobytes() == smooth_inside.tobytes()
            for p, out, expected in zip(points[:20], outside[:20], got[:20]):
                one = getattr(env, derivative)(p, *args)
                assert one.tobytes() == expected.tobytes()
                assert np.any(one) != out

    @pytest.mark.parametrize(
        "center, radius", [((0.0, 0.0, 0.0), 0.1), ((3.1, -2.7, 1.9), 0.37)]
    )
    def test_truncated_cut_sphere_counts_as_inside(self, center, radius):
        # points generated on the sphere land up to a few ulps outside it
        env = TruncatedGaussianEnvelope(center=center, sigma=0.3, cut_radius=radius)
        k = np.arange(2048)  # a Fibonacci lattice on the sphere
        phi, z = np.pi * (3.0 - np.sqrt(5.0)) * k, 1.0 - (2.0 * k + 1.0) / 2048
        rho = np.sqrt(1.0 - z * z)
        lattice = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
        on_sphere = np.asarray(center, dtype=float) + radius * lattice
        smooth = GaussianEnvelope(center=center, sigma=0.3)
        np.testing.assert_array_equal(env.value(on_sphere), smooth.value(on_sphere))
        outside = env.center + (1.0 + 1e-9) * (on_sphere - env.center)
        assert not np.any(env.value(outside))
        assert not np.any(env.hessian(outside, (0.0, 0.6, 0.8)))

    def test_truncated_integral_approaches_full(self):
        full = GaussianEnvelope(center=(0, 0, 0), sigma=0.5)
        cut = TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=0.5, cut_radius=5.0)
        assert cut.integral() == pytest.approx(full.integral(), rel=1e-6)

    def test_truncated_integral_matches_quadrature(self):
        env = TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=0.5, cut_radius=0.5)
        rule = build_rule(Ball(center=(0, 0, 0), radius=0.5), 20)
        numeric = float(np.sum(rule.weights * env.value(rule.nodes)))
        assert env.integral() == pytest.approx(numeric, rel=1e-10)

    def test_reach_is_the_cut_radius_or_unbounded(self):
        assert GaussianEnvelope(center=(0, 0, 0), sigma=0.5).reach == np.inf
        cut = TruncatedGaussianEnvelope(center=(0.1, 0, 0), sigma=0.5, cut_radius=0.7)
        assert cut.reach == 0.7

    def test_make_envelope_dispatch(self):
        assert isinstance(make_envelope("gaussian", (0, 0, 0), 1.0), GaussianEnvelope)
        assert isinstance(
            make_envelope("truncated-gaussian", (0, 0, 0), 1.0, 2.0),
            TruncatedGaussianEnvelope,
        )
        with pytest.raises(ValueError):
            make_envelope("boxcar", (0, 0, 0), 1.0)
        with pytest.raises(ValueError, match="cut radius"):
            make_envelope("truncated-gaussian", (0, 0, 0), 1.0)


class TestSourceModel:
    def test_rejects_non_unit_polarization(self):
        with pytest.raises(ValueError, match="unit"):
            SourceModel(
                envelope=GaussianEnvelope(center=(0, 0, 0), sigma=1.0),
                profile=SineSquaredPulse(t_on=0.0, tau=1.0),
                polarization=(0, 0, 2),
                amplitude=1.0,
                domain=Ball(center=(0, 0, 0), radius=8.0),
            )

    def test_current_zero_before_switch_on(self):
        # J = p_hat * current_factor * f; dJ/dt and int J dt carry f' and F
        src = gaussian_source()
        factor = src.current_factor((0.05, 0, 0))
        assert factor > 0.0
        for tp in (0.0, 0.9, 1.0):
            assert all(np.all(factor * q == 0.0) for q in src.profile.evaluate(tp))

    def test_current_at_center_and_peak(self):
        src = gaussian_source(amplitude=2.5)
        # peak of the sine-squared burst reaches exactly 1
        current = src.polarization * src.current_factor((0, 0, 0)) * src.profile.value(3.0)
        np.testing.assert_allclose(current, [0, 0, 2.5])

    def test_current_decay_far_outside_envelope(self):
        src = gaussian_source(sigma=0.1)
        assert src.current_factor((1.0, 0, 0)) < np.exp(-50) * 1.001  # 10 sigma out

    def test_charge_density_zero_at_center_and_before_onset(self):
        src = gaussian_source()
        assert src.charge_density((0.0, 0.0, 0.0), 3.0) == pytest.approx(0.0, abs=1e-16)
        assert src.charge_density((0.1, 0.1, 0.1), 0.5) == 0.0

    def test_total_charge_vanishes(self):
        # Quadrature oracle: the divergence theorem forces zero net charge
        # up to boundary leakage.
        src = gaussian_source(domain_sigmas=10.0)
        rule = build_rule(src.domain, 24)
        rho = src.charge_density(rule.nodes, 3.0)
        total = float(np.sum(rule.weights * rho))
        scale = float(np.sum(rule.weights * np.abs(rho)))
        assert abs(total) < 1e-12 * scale

    def test_charge_gradient_matches_finite_difference(self):
        # grad rho = charge_gradient_factor * F, rho = charge_factor * F
        for src in both_envelope_sources():
            for xp in inside_cut(src, 54):
                fd = finite_difference_gradient(src.charge_factor, xp)
                np.testing.assert_allclose(
                    src.charge_gradient_factor(xp), fd, rtol=1e-6, atol=1e-8
                )

    def test_charge_factor_is_minus_divergence_of_current_factor(self):
        # rho = -int div J dt: ties the kernels' current columns to the
        # charge columns
        for src in both_envelope_sources():
            for xp in inside_cut(src, 57):
                fd = finite_difference_gradient(src.current_factor, xp) @ src.polarization
                assert src.charge_factor(xp) == pytest.approx(-fd, rel=1e-6, abs=1e-8)

    def test_charge_gradient_parallel_to_polarization_at_center(self):
        src = gaussian_source()
        grad = src.charge_gradient_factor((0.0, 0.0, 0.0)) * src.profile.primitive(3.0)
        assert abs(grad[0]) < 1e-16 and abs(grad[1]) < 1e-16
        assert grad[2] != 0.0

    def test_continuity_equation(self):
        src = gaussian_source()
        rng = np.random.default_rng(55)
        h = 1e-6
        scale = abs(src.amplitude)
        for _ in range(1000):
            xp = rng.uniform(-0.5, 0.5, 3)
            tp = rng.uniform(0.5, 6.5)
            drho_dt = (
                src.charge_density(xp, tp + h) - src.charge_density(xp, tp - h)
            ) / (2 * h)
            residual = drho_dt + src.current_divergence(xp, tp)
            assert abs(residual) < 1e-6 * scale

    def test_compact_temporal_support_is_exact(self):
        # before switch-on every density is a nonzero factor times an
        # exactly zero pulse quantity
        src = gaussian_source()
        rng = np.random.default_rng(56)
        xp, tp = rng.uniform(-0.5, 0.5, (200, 3)), rng.uniform(-3.0, 1.0, 200)
        primitive, value, rate = src.profile.evaluate(tp)
        assert np.all(src.current_factor(xp) > 0.0)
        assert np.all(src.current_factor(xp) * value == 0.0)
        assert np.all(src.current_factor(xp) * rate == 0.0)
        assert np.all(src.charge_factor(xp) * primitive == 0.0)
        assert np.all(src.charge_gradient_factor(xp) * primitive[:, None] == 0.0)
        assert np.all(src.charge_density(xp, tp) == 0.0)


CUBE, CENTRED_BALL = Box(lo=(-0.3,) * 3, hi=(0.3,) * 3), Ball(center=(0, 0, 0), radius=0.3)


def leakage_of(envelope, domain, amplitude=1.0):
    pulse = SineSquaredPulse(t_on=0.0, tau=2.0)
    return SourceModel(envelope, pulse, (0, 0, 1), amplitude, domain).boundary_leakage()


class TestBoundaryLeakage:
    def test_smooth_gaussian_is_tiny(self):
        src = gaussian_source(domain_sigmas=8.0)
        assert src.boundary_leakage() < 1e-13

    def test_truncated_at_one_sigma(self):
        sigma = 0.2
        src = SourceModel(
            envelope=TruncatedGaussianEnvelope(
                center=(0, 0, 0), sigma=sigma, cut_radius=sigma
            ),
            profile=SineSquaredPulse(t_on=0.0, tau=1.0),
            polarization=(0, 0, 1),
            amplitude=1.0,
            domain=Ball(center=(0, 0, 0), radius=sigma),
        )
        assert src.boundary_leakage() == pytest.approx(np.exp(-0.5), rel=1e-9)

    def test_zero_amplitude_source(self):
        src = gaussian_source(amplitude=0.0)
        assert src.boundary_leakage() == 0.0

    def test_box_domain(self):
        sigma = 0.1
        src = SourceModel(
            envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
            profile=SineSquaredPulse(t_on=0.0, tau=1.0),
            polarization=(0, 0, 1),
            amplitude=1.0,
            domain=Box(lo=(-8 * sigma,) * 3, hi=(8 * sigma,) * 3),
        )
        assert src.boundary_leakage() < 1e-13

    def test_off_centre_gaussian_in_box_is_exact(self):
        # the generated box benchmark's seed-0 source (bench/workloads.py)
        sigma, center = 0.1, np.array([-0.014465, 0.000676, -0.005704])
        leakage = leakage_of(GaussianEnvelope(center=center, sigma=sigma), CUBE)
        gap = np.min(0.3 - np.abs(center))
        assert leakage == pytest.approx(np.exp(-(gap**2) / (2 * sigma**2)), rel=1e-14, abs=0)

    def test_off_centre_gaussian_in_ball_is_exact(self):
        sigma, ball = 0.15, Ball(center=(0.1, -0.2, 0.05), radius=0.5)
        center = np.array([0.2, -0.05, 0.1])
        leakage = leakage_of(GaussianEnvelope(center=center, sigma=sigma), ball, amplitude=-2.5)
        gap = ball.radius - np.linalg.norm(center - ball.center)
        assert leakage == pytest.approx(np.exp(-(gap**2) / (2 * sigma**2)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("domain", [CUBE, CENTRED_BALL], ids=["box", "ball"])
    def test_envelope_centre_outside_the_domain_gives_one(self, domain):
        # the peak over the domain is then on its boundary
        envelope = GaussianEnvelope(center=(0.25, 0.35, 0.2), sigma=0.1)
        assert domain.exterior_distance(envelope.center) > 0.0
        assert leakage_of(envelope, domain, amplitude=0.5) == 1.0

    @pytest.mark.parametrize("domain", [CUBE, CENTRED_BALL], ids=["box", "ball"])
    def test_cut_short_of_the_boundary_gives_zero(self, domain):
        envelope = TruncatedGaussianEnvelope(center=(0.05, -0.02, 0.0), sigma=0.1, cut_radius=0.2)
        assert leakage_of(envelope, domain) == 0.0


class TestFactories:
    def test_make_profile(self):
        assert isinstance(make_profile("sine-squared", 0.0, 1.0), SineSquaredPulse)
        assert isinstance(
            make_profile("differentiated-gaussian", 0.0, 1.0), DifferentiatedGaussianPulse
        )
        with pytest.raises(ValueError, match="unknown pulse"):
            make_profile("square", 0.0, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_bad_duration(self, tau):
        with pytest.raises(ValueError):
            SineSquaredPulse(t_on=0.0, tau=tau)
