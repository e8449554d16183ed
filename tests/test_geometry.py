"""Unit systems and kernel matrices of ``geometry``, and the retarded times
and directions the engine computes per node (``retfield.geometry`` holds no
copy of those)."""

import numpy as np
import pytest

from retfield.domains import Ball
from retfield.evaluators import NodeKernel, _frame
from retfield.geometry import (
    NATURAL,
    PhysicalConstants,
    double_gradient_kernel,
    far_kernel,
)
from retfield.quadrature import QuadratureRule
from retfield.sources import GaussianEnvelope, SineSquaredPulse, SourceModel


def random_points(rng, n, spread=3.0):
    return rng.uniform(-spread, spread, size=(n, 3))


def one_node(xp):
    """A source and a one-node rule at ``xp``, for the engine's node frame."""
    xp = np.asarray(xp, dtype=float)
    domain = Ball(center=xp, radius=1e-9)
    rule = QuadratureRule(rows=xp[:, None], weights=np.ones(1), order=1, domain=domain)
    src = SourceModel(
        envelope=GaussianEnvelope(center=xp, sigma=1.0),
        profile=SineSquaredPulse(t_on=0.0, tau=1.0),
        polarization=(0, 0, 1),
        amplitude=1.0,
        domain=domain,
    )
    return src, rule


def retarded_time(x, xp, t, constants=NATURAL):
    """t - R/c from the engine's per-point delays."""
    src, rule = one_node(xp)
    delays, _ = NodeKernel(src, rule, ("zones",), constants).columns(np.asarray(x, dtype=float))
    return t - delays[0]


def unit_direction(x, xp):
    """The engine's unit vector from the node at ``xp`` toward ``x``."""
    src, rule = one_node(xp)
    return _frame(src, np.ascontiguousarray(rule.nodes.T), np.asarray(x, dtype=float))[1][:, 0]


class TestRetardedTime:
    def test_basic(self):
        assert retarded_time((3, 0, 0), (0, 0, 0), 5.0) == pytest.approx(2.0)

    def test_on_light_cone(self):
        xp = np.array([0.3, -1.2, 0.7])
        r = 2.5
        assert retarded_time(xp + (0, 0, r), xp, r) == pytest.approx(0.0, abs=1e-14)

    def test_345_triangle(self):
        assert retarded_time((1, 2, 2), (0, 0, 0), 10.0) == pytest.approx(7.0)

    def test_respects_wave_speed(self):
        fast = PhysicalConstants(c=2.0)
        assert retarded_time((4, 0, 0), (0, 0, 0), 5.0, fast) == pytest.approx(3.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="inside or touching"):
            retarded_time((1, 1, 1), (1, 1, 1), 0.0)


class TestUnitDirection:
    def test_axis_aligned(self):
        np.testing.assert_allclose(unit_direction((0, 0, 5), (0, 0, 1)), [0, 0, 1])

    def test_normalization(self):
        expected = [1 / np.sqrt(2), 1 / np.sqrt(2), 0]
        np.testing.assert_allclose(unit_direction((1, 1, 0), (0, 0, 0)), expected)

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for x, xp in zip(random_points(rng, 50), random_points(rng, 50)):
            np.testing.assert_allclose(
                unit_direction(x, xp), -unit_direction(xp, x), atol=1e-15
            )

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        for x, xp in zip(random_points(rng, 100), random_points(rng, 100)):
            assert np.linalg.norm(unit_direction(x, xp)) == pytest.approx(1.0, abs=1e-13)


class TestDoubleGradientKernel:
    def test_along_z(self):
        k = double_gradient_kernel((0, 0, 2), (0, 0, 0))
        np.testing.assert_allclose(k, np.diag([0.125, 0.125, -0.25]), atol=1e-15)

    def test_along_x_permutation(self):
        k = double_gradient_kernel((2, 0, 0), (0, 0, 0))
        np.testing.assert_allclose(k, np.diag([-0.25, 0.125, 0.125]), atol=1e-15)

    def test_symmetric_and_traceless(self):
        rng = np.random.default_rng(11)
        for x, xp in zip(random_points(rng, 200), random_points(rng, 200)):
            k = double_gradient_kernel(x, xp)
            scale = np.abs(k).max()
            np.testing.assert_allclose(k, k.T, atol=1e-14 * scale)
            assert abs(np.trace(k)) < 1e-13 * scale

    def test_scaling(self):
        rng = np.random.default_rng(12)
        for lam in (0.5, 2.0, 7.3):
            for x, xp in zip(random_points(rng, 20), random_points(rng, 20)):
                np.testing.assert_allclose(
                    double_gradient_kernel(lam * x, lam * xp),
                    double_gradient_kernel(x, xp) / lam**3,
                    rtol=1e-12,
                )

    def test_matches_finite_differences(self):
        # Independent oracle: central second differences of 1/R.
        rng = np.random.default_rng(13)
        count = 0
        while count < 100:
            x, xp = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            r = np.linalg.norm(x - xp)
            if r < 0.5:
                continue
            count += 1
            h = 1e-4 * r
            inv_r = lambda a, b: 1.0 / np.linalg.norm(a - b)
            fd = np.empty((3, 3))
            for k in range(3):
                for n in range(3):
                    ek = np.eye(3)[k] * h
                    en = np.eye(3)[n] * h
                    fd[k, n] = (
                        inv_r(x + ek, xp + en)
                        - inv_r(x + ek, xp - en)
                        - inv_r(x - ek, xp + en)
                        + inv_r(x - ek, xp - en)
                    ) / (4.0 * h * h)
            kernel = double_gradient_kernel(x, xp)
            # relative to the kernel scale: off-diagonals can be analytically 0
            scale = np.abs(kernel).max()
            np.testing.assert_allclose(kernel, fd, rtol=0.0, atol=1e-6 * scale)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            double_gradient_kernel((0.5, 0, 0), (0.5, 0, 0))


class TestFarKernel:
    def test_projector_along_x(self):
        np.testing.assert_allclose(far_kernel((1, 0, 0)), np.diag([0, -1, -1]))

    def test_annihilates_direction(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            theta = rng.normal(size=3)
            theta /= np.linalg.norm(theta)
            np.testing.assert_allclose(far_kernel(theta) @ theta, 0.0, atol=1e-14)

    def test_eigenvalues(self):
        theta = np.array([0.6, 0.0, 0.8])
        eig = np.sort(np.linalg.eigvalsh(far_kernel(theta)))
        np.testing.assert_allclose(eig, [-1.0, -1.0, 0.0], atol=1e-13)

    def test_output_transverse_to_direction(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            theta = rng.normal(size=3)
            theta /= np.linalg.norm(theta)
            v = rng.normal(size=3) * rng.uniform(0.1, 10)
            assert abs(theta @ (far_kernel(theta) @ v)) < 1e-12 * np.linalg.norm(v)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            far_kernel((0, 0, 1.0 + 1e-9))


class TestPhysicalConstants:
    def test_defaults_are_natural(self):
        assert NATURAL.c == 1.0 and NATURAL.coulomb == 1.0

    @pytest.mark.parametrize("kwargs", [{"c": 0.0}, {"c": -1.0}, {"coulomb": 0.0}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalConstants(**kwargs)
