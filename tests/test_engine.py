"""The time-batched field engine against the frozen per-cell formulas and
the kernel matrices, and its independence from block and thread layout."""

import numpy as np
import pytest
from legacy_fields import legacy_jefimenko_field, legacy_zone_field

from retfield import evaluators
from retfield.analysis import sample_waveforms
from retfield.domains import Ball
from retfield.evaluators import JefimenkoKernel, ObservationPoint, zone_field
from retfield.geometry import NATURAL, PhysicalConstants, double_gradient_kernel, far_kernel
from retfield.quadrature import build_rule
from retfield.sources import (
    DifferentiatedGaussianPulse,
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
    TruncatedGaussianEnvelope,
)

#: Largest shift from the per-cell formulas, relative to the peak |E|.
ORACLE_RTOL = 1e-11

#: Central-difference step of the per-cell current integral, and the bound
#: on its O(h^2) error relative to the peak |E| (1.3e-8 measured).
FD_STEP = 1e-4
FD_RTOL = 1e-7

ENVELOPES = {
    "gaussian": GaussianEnvelope(center=(0, 0, 0), sigma=0.05),
    "truncated": TruncatedGaussianEnvelope(center=(0, 0, 0), sigma=0.1, cut_radius=0.1),
}
PULSES = {"sine-squared": SineSquaredPulse, "differentiated-gaussian": DifferentiatedGaussianPulse}

# Off-axis ray; the front reaches r = 1 at t ~ 0.5-0.9, so t = 0 is pre-front
# at every radius and t = 1.5 at the outer ones.
RAY = dict(ray_origin=(0.0, 0.02, -0.01), ray_direction=(1.0, 0.3, 0.2))
RADII = np.array([0.6, 1.0, 1.7, 2.5])
TIMES = np.linspace(0.0, 12.0, 25)


def source(envelope="gaussian", pulse="sine-squared"):
    env = ENVELOPES[envelope]
    radius = 0.5 if envelope == "gaussian" else env.cut_radius
    return SourceModel(
        envelope=env,
        profile=PULSES[pulse](t_on=0.0, tau=8.0),
        polarization=(0.0, 0.6, 0.8),
        amplitude=-1.3,
        domain=Ball(center=(0, 0, 0), radius=radius),
    )


def _peak(fields):
    return np.linalg.norm(fields.sum(axis=-2), axis=-1).max()


@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_matches_per_cell_formulas(representation, envelope, pulse):
    src = source(envelope, pulse)
    rule = build_rule(src.domain, 14)
    series = sample_waveforms(src, representation, radii=RADII, times=TIMES, rule=rule, **RAY)
    legacy = legacy_zone_field if representation == "zones" else legacy_jefimenko_field
    expected = np.array(
        [[legacy(src, series.point(i), t, rule, NATURAL) for t in TIMES] for i in range(RADII.size)]
    )
    assert series.fields.shape == expected.shape
    peak = _peak(expected)
    assert peak > 0.0
    assert np.abs(series.fields - expected).max() <= ORACLE_RTOL * peak
    # ahead of the front both are exactly zero
    assert not np.any(series.fields[:, 0]) and not np.any(expected[:, 0])


@pytest.mark.parametrize("pulse", sorted(PULSES))
def test_finite_difference_mode_matches_per_cell_formulas(pulse):
    """The commuted current term against central differences of the
    per-cell current integral; the charge term is the same formula."""
    src = source("gaussian", pulse)
    rule = build_rule(src.domain, 14)
    kernel = JefimenkoKernel(src, rule, NATURAL)
    x = np.array([1.2, 0.3, -0.2])
    got = kernel.fields(kernel.at(x), TIMES)
    expected = np.array([legacy_jefimenko_field(src, x, t, rule, NATURAL, FD_STEP) for t in TIMES])
    peak = _peak(expected)
    assert np.abs(got[:, 0] - expected[:, 0]).max() <= FD_RTOL * peak
    assert np.abs(got[:, 1] - expected[:, 1]).max() <= ORACLE_RTOL * peak


def test_zone_terms_match_criterion_7_kernels():
    """Near and far terms against direct node sums of the kernel matrices
    that criterion 7 checks, which ties the engine's v - 3 theta (theta . v)
    form to them.  Non-unit constants exercise the c and k_c factors."""
    src = source("gaussian", "sine-squared")
    rule = build_rule(src.domain, 10)
    constants = PhysicalConstants(c=2.0, coulomb=0.5)
    weighted = rule.weights * src.amplitude * src.envelope.value(rule.nodes)
    pol = src.polarization
    got, expected = [], []
    for x in ([1.2, 0.3, -0.2], [-0.4, 0.9, 0.7], [0.1, -0.8, -1.5]):
        x = np.array(x)
        d = x - rule.nodes
        r = np.linalg.norm(d, axis=1)
        for t in (2.0, 4.5, 7.0):
            t_ret = t - r / constants.c
            near_pol = double_gradient_kernel(x, rule.nodes) @ pol
            far_pol = far_kernel(d / r[:, None]) @ pol
            near = (weighted * src.profile.primitive(t_ret)) @ near_pol
            far = (weighted * src.profile.derivative(t_ret) / r) @ far_pol
            terms = zone_field(src, ObservationPoint(x=x, t=t), rule, constants).terms
            got.append([terms["near"], terms["far"]])
            expected.append([-constants.coulomb * near, constants.coulomb / constants.c**2 * far])
    got, expected = np.array(got), np.array(expected)
    for term in range(2):
        peak = np.linalg.norm(expected[:, term], axis=-1).max()
        assert peak > 0.0
        assert np.abs(got[:, term] - expected[:, term]).max() <= 1e-12 * peak


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_block_and_thread_layout_do_not_change_fields(representation, monkeypatch):
    src = source("gaussian", "differentiated-gaussian")
    rule = build_rule(src.domain, 10)
    kwargs = dict(radii=RADII, times=TIMES, rule=rule, **RAY)
    reference = sample_waveforms(src, representation, **kwargs).fields.tobytes()
    assert evaluators.block_height(len(rule)) > 1  # the default layout really is blocked
    for block_elements in (1, 10**9):
        monkeypatch.setattr(evaluators, "BLOCK_ELEMENTS", block_elements)
        for threads in (1, 2, 4):
            fields = sample_waveforms(src, representation, threads=threads, **kwargs).fields
            assert fields.tobytes() == reference, (block_elements, threads)
