"""The time-batched field engine against the frozen per-cell formulas and
the kernel matrices, and its independence from thread layout.

Both pulses are summed by one engine over delay-sorted nodes
(``sources.moment_sums``): the sine-squared pulse from four exact basis
rows in one slab, the derivative-of-Gaussian pulse from delay moments over
slabs a width long.  Both are checked against the per-cell formulas,
against the frozen block path (``legacy_fields.block_sums``) and against
direct node sums in extended precision.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from legacy_fields import (
    block_sums,
    legacy_hessian,
    legacy_jefimenko_at,
    legacy_jefimenko_field,
    legacy_zone_at,
    legacy_zone_field,
)

from retfield import sources
from retfield.analysis import sample_representations, sample_waveforms
from retfield.domains import Ball, Box
from retfield.evaluators import EVALUATORS, NodeKernel, ObservationPoint, zone_field
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
    "box": GaussianEnvelope(center=(0.02, -0.01, 0.03), sigma=0.1),
}
DOMAINS = {
    "gaussian": Ball(center=(0, 0, 0), radius=0.5),
    "truncated": Ball(center=(0, 0, 0), radius=0.1),
    "box": Box(lo=(-0.3, -0.3, -0.3), hi=(0.3, 0.3, 0.3)),
}
PULSES = {"sine-squared": SineSquaredPulse, "differentiated-gaussian": DifferentiatedGaussianPulse}

# Off-axis ray; the front reaches r = 1 at t ~ 0.5-0.9, so t = 0 is pre-front
# at every radius and t = 1.5 at the outer ones.
RAY = dict(ray_origin=(0.0, 0.02, -0.01), ray_direction=(1.0, 0.3, 0.2))
RADII = np.array([0.6, 1.0, 1.7, 2.5])
TIMES = np.linspace(0.0, 12.0, 25)


def source(envelope="gaussian", pulse="sine-squared", t_on=0.0, tau=8.0):
    return SourceModel(
        envelope=ENVELOPES[envelope],
        profile=PULSES[pulse](t_on=t_on, tau=tau),
        polarization=(0.0, 0.6, 0.8),
        amplitude=-1.3,
        domain=DOMAINS[envelope],
    )


def legacy_fields(representation, src, x, times, rule):
    legacy = legacy_zone_field if representation == "zones" else legacy_jefimenko_field
    return np.array([legacy(src, x, t, rule, NATURAL) for t in times])


def _peak(fields):
    return np.linalg.norm(fields.sum(axis=-2), axis=-1).max()


@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_matches_per_cell_formulas(representation, envelope, pulse):
    src = source(envelope, pulse)
    rule = build_rule(src.domain, 14)
    series = sample_waveforms(src, representation, radii=RADII, times=TIMES, rule=rule, **RAY)
    expected = np.array(
        [legacy_fields(representation, src, series.point(i), TIMES, rule) for i in range(RADII.size)]
    )
    assert series.fields.shape == expected.shape
    peak = _peak(expected)
    assert peak > 0.0
    assert np.abs(series.fields - expected).max() <= ORACLE_RTOL * peak
    # ahead of the front both are exactly zero
    assert not np.any(series.fields[:, 0]) and not np.any(expected[:, 0])


BOTH = ("zones", "jefimenko")


@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
def test_kernel_weights_are_rule_weights_times_source_factors(envelope, monkeypatch):
    """The kernel takes its node factors from SourceModel, bit for bit;
    a zones-only kernel never evaluates the Hessian."""
    src = source(envelope)
    rule = build_rule(src.domain, 8)
    current = rule.weights * src.current_factor(rule.nodes)
    charge = rule.weights[:, None] * src.charge_gradient_factor(rule.nodes)
    kernel = NodeKernel(src, rule, BOTH, NATURAL)
    assert kernel.weighted.tobytes() == current.tobytes()
    assert kernel.charge_weights.tobytes() == np.ascontiguousarray(charge.T).tobytes()
    assert kernel.nodes.tobytes() == np.ascontiguousarray(rule.nodes.T).tobytes()
    for array in (kernel.nodes, kernel.weighted, kernel.charge_weights):
        assert array.flags.c_contiguous and not array.flags.writeable
    # the rule holds its nodes once: (3, n) rows, which its kernels alias
    assert kernel.nodes is rule.rows and np.shares_memory(rule.nodes, rule.rows)
    assert not rule.nodes.flags.writeable and not rule.rows.flags.writeable

    def no_hessian(self, points):
        raise AssertionError("the zones kernel evaluated the Hessian")

    monkeypatch.setattr(type(src.envelope), "hessian", no_hessian)
    zones = NodeKernel(src, rule, ("zones",), NATURAL)
    assert zones.weighted.tobytes() == current.tobytes()
    assert not hasattr(zones, "charge_weights")


@pytest.mark.parametrize("envelope", ["gaussian", "truncated"])
def test_joint_kernel_evaluates_the_envelope_once(envelope, monkeypatch):
    """A kernel of both forms, as a joint sweep builds it, takes the
    envelope's value once and its Hessian once, and every radius reads them."""
    src = source(envelope)
    rule = build_rule(src.domain, 8)
    calls = []
    for name in ("value", "hessian"):
        method = getattr(type(src.envelope), name)

        def counted(self, points, *direction, name=name, method=method):
            calls.append(name)
            return method(self, points, *direction)

        monkeypatch.setattr(type(src.envelope), name, counted)
    sample_representations(src, BOTH, radii=RADII, times=TIMES, rule=rule, **RAY)
    assert calls == ["value", "hessian"]


def _ray_points():
    origin, direction = np.asarray(RAY["ray_origin"]), np.asarray(RAY["ray_direction"])
    return origin + RADII[:, None] * (direction / np.linalg.norm(direction))


def _kernel_geometries(src, rule):
    """(engine, frozen) delays and columns of both forms at each ray point,
    the engine's from one kernel of both: per form, its rows of each kind's
    stack in kind order, so the Jefimenko form's are (charge, current)."""
    kernel = NodeKernel(src, rule, BOTH, NATURAL)
    for x in _ray_points():
        delays, stacked = kernel.columns(x)
        zones, jefimenko = (
            [c[s] for c, s in zip(stacked, span) if s is not None] for span in kernel.spans
        )
        yield "zones", (delays, zones), legacy_zone_at(src, rule, x, NATURAL)
        frozen_delays, (current, charge) = legacy_jefimenko_at(src, rule, x, NATURAL)
        yield "jefimenko", (delays, jefimenko), (frozen_delays, (charge, current))


def _close_by_column(got, expected):
    """Each column (row of a (k, nodes) array) within 1e-15 of its largest
    |value|: H . p_hat is formed as d (d . p_hat) - p_hat, not as the frozen
    3 x 3 Hessian's product with p_hat, so the charge columns move by
    rounding."""
    return all(
        np.abs(column - frozen).max() <= 1e-15 * np.abs(frozen).max()
        for column, frozen in zip(got, expected)
    )


@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
def test_node_frame_keeps_frozen_bits_for_polarization_along_z(envelope):
    """With p_hat = z, theta . p_hat is exact in any summation order, so the
    node-major frame gives the frozen bodies' delays, zone columns and
    Jefimenko current column bit for bit; H . p_hat and the charge columns
    match the frozen Hessian's to rounding."""
    src = dataclasses.replace(source(envelope), polarization=(0.0, 0.0, 1.0))
    rule = build_rule(src.domain, 10)
    frozen = legacy_hessian(src.envelope, rule.nodes) @ src.polarization
    assert _close_by_column(src.envelope.hessian(rule.nodes, src.polarization).T, frozen.T)
    for form, (delays, columns), (frozen_delays, frozen_columns) in _kernel_geometries(src, rule):
        assert delays.tobytes() == frozen_delays.tobytes()
        assert len(columns) == len(frozen_columns)
        for kind, (got, expected) in enumerate(zip(columns, frozen_columns)):
            assert got.shape == expected.shape
            if form == "jefimenko" and kind == 0:  # the charge columns
                assert _close_by_column(got, expected)
            else:
                assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
def test_node_frame_matches_frozen_bodies_for_oblique_polarization(envelope):
    """With p_hat = (0, 0.6, 0.8), theta . p_hat is added left to right
    where the frozen body used a matrix-vector product, so each zone column
    moves by rounding only, within 1e-15 of its largest |value|, as do the
    Jefimenko charge columns; the delays and the Jefimenko current column
    keep their bits."""
    src = source(envelope)
    rule = build_rule(src.domain, 10)
    for form, (delays, columns), (frozen_delays, frozen_columns) in _kernel_geometries(src, rule):
        assert delays.tobytes() == frozen_delays.tobytes()
        for kind, (got, expected) in enumerate(zip(columns, frozen_columns)):
            assert got.shape == expected.shape
            if form == "jefimenko" and kind == 1:  # the current column
                assert got.tobytes() == expected.tobytes()
            assert _close_by_column(got, expected)


#: Node-length float arrays that ``NodeKernel.columns`` of the zones form may
#: hold beyond the ones it returns, that the construction of a kernel of both
#: forms may hold at its peak (the (nodes, 3) layout held 10 and 32.4), and
#: that its rule and it keep (11.3 when a rule also kept an (n, 3) copy of
#: its nodes).
AT_SCRATCH_ARRAYS = 5
CONSTRUCTION_ARRAYS = 20
RETAINED_ARRAYS = 8.5


@pytest.mark.parametrize("envelope", ["gaussian", "truncated"])
def test_kernel_allocations_stay_within_a_few_node_arrays(envelope):
    """tracemalloc sees numpy's buffers, so the peaks are exact counts."""
    src = source(envelope)
    build_rule(src.domain, 1)  # a process's first build imports numpy.polynomial
    x = _ray_points()[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rule = build_rule(src.domain, 22)
        tracemalloc.reset_peak()
        built = tracemalloc.get_traced_memory()[0]
        both = NodeKernel(src, rule, BOTH, NATURAL)
        construction_peak = tracemalloc.get_traced_memory()[1] - built
        retained = tracemalloc.get_traced_memory()[0] - start
        del both
        kernel = NodeKernel(src, rule, ("zones",), NATURAL)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        geometry = kernel.columns(x)
        returned, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(rule) == 21296
    node_array = 8 * len(rule)
    delays, columns = geometry
    assert returned >= 8 * (delays.size + sum(c.size for c in columns))
    assert peak <= returned + AT_SCRATCH_ARRAYS * node_array
    assert construction_peak <= CONSTRUCTION_ARRAYS * node_array
    assert retained <= RETAINED_ARRAYS * node_array


@pytest.mark.parametrize("pulse", sorted(PULSES))
def test_finite_difference_mode_matches_per_cell_formulas(pulse):
    """The commuted current term against central differences of the
    per-cell current integral; the charge term is the same formula."""
    src = source("gaussian", pulse)
    rule = build_rule(src.domain, 14)
    x = np.array([1.2, 0.3, -0.2])
    (got,) = NodeKernel(src, rule, ("jefimenko",), NATURAL).sample(x, TIMES)
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
def test_thread_count_and_radius_alone_do_not_change_fields(representation):
    """Each radius gets the same bits whatever the thread count and
    whether it is sampled with the other radii or alone."""
    src = source("gaussian", "differentiated-gaussian")
    rule = build_rule(src.domain, 10)
    kwargs = dict(times=TIMES, rule=rule, **RAY)
    reference = sample_waveforms(src, representation, radii=RADII, **kwargs).fields
    for threads in (2, 4):
        series = sample_waveforms(src, representation, radii=RADII, threads=threads, **kwargs)
        assert series.fields.tobytes() == reference.tobytes(), threads
    for i, radius in enumerate(RADII):
        alone = sample_waveforms(src, representation, radii=[radius], **kwargs).fields
        assert alone[0].tobytes() == reference[i].tobytes(), radius


def _joint(src, rule, radii=RADII, threads=1):
    kwargs = dict(radii=radii, times=TIMES, rule=rule, threads=threads, **RAY)
    return {r: series.fields for r, series in sample_representations(src, BOTH, **kwargs).items()}


@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
def test_joint_sweep_matches_separate_sampling(envelope, pulse):
    """Both forms from one frame and one ``column_sums`` call against each
    sampled alone.  The sine-squared sums keep their bits; the
    derivative-of-Gaussian products round differently at 16 stacked rows
    than at 12 and 4, within 1e-15 of each radius's peak."""
    src = source(envelope, pulse)
    rule = build_rule(src.domain, 12)
    joint = _joint(src, rule)
    for representation in BOTH:
        alone = sample_waveforms(src, representation, radii=RADII, times=TIMES, rule=rule, **RAY)
        got = joint[representation]
        assert got.shape == alone.fields.shape and not got.flags.writeable
        if pulse == "sine-squared" or got.tobytes() == alone.fields.tobytes():
            assert got.tobytes() == alone.fields.tobytes()
            continue
        peaks = np.linalg.norm(alone.fields.sum(axis=-2), axis=-1).max(axis=1)
        shift = np.abs(got - alone.fields).max(axis=(1, 2, 3))
        assert np.all(shift <= 1e-15 * peaks)


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
@pytest.mark.parametrize("pulse", sorted(PULSES))
def test_one_representation_sweep_is_the_kernel_composition(pulse, representation):
    """A sweep of one representation gives, bit for bit, what the kernel of
    that form gives at each radius (``NodeKernel.sample``)."""
    src = source("gaussian", pulse)
    rule = build_rule(src.domain, 10)
    series = sample_waveforms(src, representation, radii=RADII, times=TIMES, rule=rule, **RAY)
    kernel = NodeKernel(src, rule, (representation,), NATURAL)
    for i, x in enumerate(_ray_points()):
        (expected,) = kernel.sample(x, TIMES)
        assert series.fields[i].tobytes() == expected.tobytes()


@pytest.mark.parametrize("pulse", sorted(PULSES))
def test_joint_sweep_thread_count_and_radius_alone_do_not_change_fields(pulse):
    """The joint sweep gives each radius the same bits at 1, 2 and 4
    threads, and whether it is sampled with the other radii or alone."""
    src = source("box", pulse, tau=2.0)
    rule = build_rule(src.domain, 10)
    reference = _joint(src, rule)
    for threads in (2, 4):
        threaded = _joint(src, rule, threads=threads)
        for representation in BOTH:
            assert threaded[representation].tobytes() == reference[representation].tobytes()
    for i, radius in enumerate(RADII):
        alone = _joint(src, rule, radii=[radius])
        for representation in BOTH:
            assert alone[representation][0].tobytes() == reference[representation][i].tobytes()


def _edges(pulse, delays):
    """Each delay's support edges t_on + d and t_on + tau + d, two floats
    either side of each, sorted."""
    edges = np.concatenate([pulse.t_on + delays, pulse.t_on + pulse.tau + delays])
    times = [edges]
    for direction in (-np.inf, np.inf):
        step = edges
        for _ in range(2):
            step = np.nextafter(step, direction)
            times.append(step)
    return np.unique(np.concatenate(times))


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_prefix_sums_at_support_edges(representation):
    """The shared engine (``moment_sums``) at the times the nearest,
    farthest and a middle node enter and leave the burst, and at their
    float neighbours."""
    src = source("box", t_on=0.75, tau=2.0)
    rule = build_rule(src.domain, 10)
    kernel = NodeKernel(src, rule, (representation,), NATURAL)
    x = np.array([0.7, 0.25, -0.1])
    delays, _ = kernel.columns(x)
    chosen = np.argsort(delays)[[0, delays.size // 2, -1]]
    times = _edges(src.profile, delays[chosen])
    (got,) = kernel.sample(x, times)
    expected = legacy_fields(representation, src, x, times, rule)
    assert np.abs(got - expected).max() <= ORACLE_RTOL * _peak(expected)
    # the nearest node's entry time and the floats before it are pre-front
    front = times <= src.profile.t_on + delays.min()
    assert front.sum() == 3 and not np.any(expected[front])
    assert got[front].tobytes() == expected[front].tobytes()


def test_prefix_sums_keep_support_edges_exact():
    """On dyadic delays every support edge is hit exactly.  A column that
    picks out one node then sums to that node's F, f and f' as the block
    path evaluates them.  Where the node is outside its burst (f exactly
    zero), the shared engine's sums equal those values exactly (f = f' =
    0, F = 0 or tau/2): a node at an edge of its burst is not summed as a
    run member."""
    rng = np.random.default_rng(7)
    pulse = SineSquaredPulse(t_on=0.5, tau=2.0)
    delays = 1.0 + rng.integers(0, 2**10, 48) / 2**10  # 2**-10 steps, some tied
    columns = np.eye(delays.size)
    times = _edges(pulse, delays)
    got = pulse.column_sums(delays, (columns,) * 3, times)
    expected = block_sums(pulse, delays, (columns,) * 3, times)
    outside = expected[1] == 0.0
    assert 2 * delays.size < outside.sum() < outside.size
    for name, g, e, scale in zip(("F", "f", "rate"), got, expected, (pulse.tau, 1.0, 1.0)):
        assert np.abs(g - e).max() <= 1e-14 * scale, name
        assert np.all(g[outside] == e[outside]), name


def test_prefix_sums_depend_only_on_delay_differences():
    """Far radius (d ~ 50) and late switch-on (t_on = 1e3): shifting every
    delay and time by one amount gives the same bits, because the sums are
    formed from each delay's offset to the smallest.  Dyadic inputs make
    every shift exact."""
    rng = np.random.default_rng(11)
    pulse = SineSquaredPulse(t_on=1e3, tau=0.5)
    delays = 50.0 + rng.integers(0, 2**12, 300) / 2**12
    columns = rng.standard_normal((3, delays.size))
    times = pulse.t_on + 50.0 + np.arange(-16, 3 * 64) / 64
    reference = pulse.column_sums(delays, (columns,) * 3, times)
    for shift in (-48.0, 1024.0):
        shifted = pulse.column_sums(delays + shift, (columns,) * 3, times + shift)
        for a, b in zip(reference, shifted):
            assert a.tobytes() == b.tobytes(), shift


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_far_radius_late_switch_on_matches_per_cell_formulas(representation):
    src = source("gaussian", t_on=1e3)
    rule = build_rule(src.domain, 12)
    x = 50.0 * np.array([1.0, 0.3, 0.2]) / np.linalg.norm([1.0, 0.3, 0.2])
    times = src.t_on + 50.0 + np.linspace(-1.0, 10.0, 45)
    (got,) = NodeKernel(src, rule, (representation,), NATURAL).sample(x, times)
    expected = legacy_fields(representation, src, x, times, rule)
    assert np.abs(got - expected).max() <= ORACLE_RTOL * _peak(expected)


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_thread_count_does_not_change_prefix_sums(representation):
    """The shared engine's sine-squared sums on a box, at 1, 2 and 4 threads."""
    src = source("box", tau=2.0)
    rule = build_rule(src.domain, 10)
    kwargs = dict(radii=RADII, times=TIMES, rule=rule, **RAY)
    reference = sample_waveforms(src, representation, **kwargs).fields.tobytes()
    for threads in (2, 4):
        fields = sample_waveforms(src, representation, threads=threads, **kwargs).fields
        assert fields.tobytes() == reference, threads


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_exact_zeros_match_block_path(representation, monkeypatch):
    """On a box grid that starts ahead of the light front and ends after
    the burst has left every node, each cell the block path leaves exactly
    zero -- the whole field ahead of the front, the f and f' terms after
    the burst -- has the same bits, signed zeros included, in the shared
    engine (``moment_sums``); every other cell agrees to rounding."""
    src = source("box", tau=2.0)
    rule = build_rule(src.domain, 10)
    kwargs = dict(radii=RADII, times=TIMES, rule=rule, **RAY)
    prefix = sample_waveforms(src, representation, **kwargs).fields
    monkeypatch.setattr(SineSquaredPulse, "column_sums", block_sums)
    block = sample_waveforms(src, representation, **kwargs).fields
    zero = np.all(block == 0.0, axis=-1)
    pre_front = np.all(zero, axis=-1)
    assert pre_front.sum() >= RADII.size and not pre_front.all()
    assert prefix[pre_front].tobytes() == block[pre_front].tobytes()
    # after the burst only the terms of F are left
    burst_terms = [1, 2] if representation == "zones" else [0]
    post_burst = np.all(zero[..., burst_terms], axis=-1) & ~pre_front
    assert post_burst.sum() >= RADII.size
    after = (slice(None), slice(None), burst_terms)
    assert prefix[after][post_burst].tobytes() == block[after][post_burst].tobytes()
    assert np.abs(prefix - block).max() <= ORACLE_RTOL * _peak(block)


@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_moment_sums_keep_block_path_zeros(representation, monkeypatch):
    """On a grid that starts ahead of the light front and ends after the
    derivative-of-Gaussian pulse has left every node, each cell the block
    path leaves exactly zero has the same bits in the moment path; every
    other cell agrees to rounding."""
    src = source("box", "differentiated-gaussian", tau=2.0)
    rule = build_rule(src.domain, 10)
    kwargs = dict(radii=RADII, times=TIMES, rule=rule, **RAY)
    moments = sample_waveforms(src, representation, **kwargs).fields
    monkeypatch.setattr(DifferentiatedGaussianPulse, "column_sums", block_sums)
    block = sample_waveforms(src, representation, **kwargs).fields
    zero = np.all(block == 0.0, axis=(-2, -1))
    assert zero.sum() >= 2 * RADII.size and not zero.all()
    # cells both before the front and after the pulse are among them
    assert zero[:, 0].all() and zero[:, -1].all()
    assert moments[zero].tobytes() == block[zero].tobytes()
    assert np.abs(moments - block).max() <= ORACLE_RTOL * _peak(block)


def extended_sums(pulse, delays, columns, times):
    """Direct node sums of F, f and f' in extended precision, from each
    pulse's own formulas.  The clip is applied per entry, on u as the pulse
    rounds it."""
    wide = np.longdouble
    if isinstance(pulse, SineSquaredPulse):
        u64 = ((times[:, None] - delays) - pulse.t_on) / pulse.tau
        inside, past = (u64 > 0.0) & (u64 < 1.0), u64 >= 1.0
        tau, pi = wide(pulse.tau), 4 * np.arctan(wide(1))
        u = ((times.astype(wide)[:, None] - delays.astype(wide)) - wide(pulse.t_on)) / tau
        sine = np.sin(2 * pi * u)
        values = (
            np.where(inside, tau * (u / 2 - sine / (4 * pi)), np.where(past, tau / 2, wide(0))),
            np.where(inside, np.sin(pi * u) ** 2, wide(0)),
            np.where(inside, pi / tau * sine, wide(0)),
        )
        return [None if c is None else v @ c.astype(wide).T for v, c in zip(values, columns)]
    inside = np.abs(((times[:, None] - delays) - pulse.center) / pulse.width) < 8.0
    width = wide(pulse.width)
    u = ((times.astype(wide)[:, None] - delays.astype(wide)) - wide(pulse.center)) / width
    bump = np.where(inside, np.exp(-u * u / 2), wide(0))
    values = (
        np.where(inside, width * (bump - np.exp(wide(-32))), wide(0)),
        -u * bump,
        (u * u - 1) / width * bump,
    )
    return [None if c is None else v @ c.astype(wide).T for v, c in zip(values, columns)]


def _delay_cases():
    rng = np.random.default_rng(5)
    pulse = DifferentiatedGaussianPulse(t_on=0.5, tau=8.0)  # width 0.5
    w = pulse.width

    def span(d, count=301):
        """Times from before the pulse reaches the nearest node to after it
        has left the farthest."""
        return np.linspace(d.min() - 0.5, d.max() + pulse.tau + 0.5, count)

    many = 3.0 + rng.uniform(0.0, 40 * w, 400)
    # the delays of one slab straddle the clip edge where the pulse starts
    # (u = -8) at t_lead and the one where it ends (u = 8) at t_trail
    slab = 3.0 + rng.uniform(0.0, 0.9 * w, 200)
    t_lead = pulse.t_on + np.median(slab)
    t_trail = t_lead + pulse.tau
    astride = np.linspace(-0.4, 0.4, 41) * w
    edges = np.concatenate([[t_lead - w], t_lead + astride, t_trail + astride, [t_trail + w]])
    tied = 3.0 + rng.integers(0, 12, 300) * (0.37 * w)
    one = np.array([3.25])
    # several blocks of the moment products, each cut by slab starts and
    # run ends that fall off the block ends
    blocks = 3.0 + rng.uniform(0.0, 60 * w, 3 * sources._MOMENT_BLOCK + 300)
    # two blocks on a dense grid: 1201 times cut the first into about 760
    # pieces, more than its K = 23 moments times the twelve columns
    dense = 3.0 + rng.uniform(0.0, 60 * w, 1100)
    return {
        "many-slabs": (pulse, many, span(many), "kinds"),
        "astride-clip-edges": (pulse, slab, edges, "kinds"),
        "tied": (pulse, tied, span(tied), "kinds"),
        "one-node": (pulse, one, span(one), "kinds"),
        "no-times": (pulse, many, np.array([]), "kinds"),
        "several-blocks": (pulse, blocks, span(blocks), "kinds"),
        "several-blocks-zones": (pulse, blocks, span(blocks), "zones"),
        "several-blocks-jefimenko": (pulse, blocks, span(blocks), "jefimenko"),
        "dense-times-zones": (pulse, dense, span(dense, 1201), "zones"),
    }


def layout_columns(layout, rng, n):
    """Columns of F, f and f' as ``column_sums`` gets them: a (k, n) array
    per kind, three (4, n) views of one (3, 4, n) array (the zones form), or
    (charge (3, n), None, current (1, n)) (the Jefimenko form)."""
    if layout == "zones":
        return list(rng.standard_normal((3, 4, n)))
    if layout == "jefimenko":
        return [rng.standard_normal((3, n)), None, rng.standard_normal((1, n))]
    return [rng.standard_normal((k, n)) for k in (3, 1, 2)]


def _sine_squared_cases():
    rng = np.random.default_rng(6)
    pulse = SineSquaredPulse(t_on=0.5, tau=2.0)

    def span(d, count=301):
        """Times from before the burst reaches the nearest node to after it
        has left the farthest."""
        return np.linspace(d.min() - 0.5, d.max() + pulse.tau + 0.5, count)

    spread = 3.0 + rng.uniform(0.0, 3 * pulse.tau, 400)
    # delays within a quarter burst, and times astride the instants it
    # reaches (u = 0) and leaves (u = 1) their median
    narrow = 3.0 + rng.uniform(0.0, 0.25 * pulse.tau, 200)
    t_lead = pulse.t_on + np.median(narrow)
    astride = np.linspace(-0.1, 0.1, 41) * pulse.tau
    edges = np.concatenate([[t_lead - 1.0], t_lead + astride, t_lead + pulse.tau + astride])
    edges = np.append(edges, t_lead + pulse.tau + 1.0)
    tied = 3.0 + rng.integers(0, 12, 300) * 0.37
    one = np.array([3.25])
    # 41 times leave a few pieces per block; 301 and the 801 times of
    # box_jefimenko cut each block into many, each summed by its own product
    blocks = 3.0 + rng.uniform(0.0, 3 * pulse.tau, 3 * sources._MOMENT_BLOCK + 300)
    box = 3.0 + rng.uniform(0.0, 0.5 * pulse.tau, 4 * sources._MOMENT_BLOCK)
    return {
        "sine-squared-spread": (pulse, spread, span(spread), "kinds"),
        "sine-squared-astride-edges": (pulse, narrow, edges, "kinds"),
        "sine-squared-tied": (pulse, tied, span(tied), "kinds"),
        "sine-squared-one-node": (pulse, one, span(one), "kinds"),
        "sine-squared-no-times": (pulse, spread, np.array([]), "kinds"),
        "sine-squared-several-blocks": (pulse, blocks, span(blocks, 41), "kinds"),
        "sine-squared-several-blocks-zones": (pulse, blocks, span(blocks), "zones"),
        "sine-squared-several-blocks-jefimenko": (pulse, blocks, span(blocks), "jefimenko"),
        "sine-squared-box-jefimenko": (pulse, box, span(box, 801), "jefimenko"),
    }


DELAY_CASES = {**_delay_cases(), **_sine_squared_cases()}
SINE_SQUARED_CASES = sorted(c for c in DELAY_CASES if c.startswith("sine-squared"))
GAUSSIAN_CASES = sorted(c for c in DELAY_CASES if c not in SINE_SQUARED_CASES)


@pytest.mark.parametrize("case", GAUSSIAN_CASES)
def test_moment_sums_match_extended_precision_direct_sums(case):
    """Against direct sums in extended precision: within 8 ulp of the sum
    of |c| (times w, 1, 1/w for F, f, f'), and within 1e-12 of the largest
    sum, which only an exact clip meets where every node is near a clip
    edge (sums ~1e-11).  +0.0 wherever no node is inside the clip."""
    pulse, delays, times, layout = DELAY_CASES[case]
    columns = layout_columns(layout, np.random.default_rng(9), delays.size)
    got = pulse.column_sums(delays, columns, times)
    expected = extended_sums(pulse, delays, columns, times)
    none_inside = np.all(
        np.abs(((times[:, None] - delays) - pulse.center) / pulse.width) >= 8.0, axis=1
    )
    for g, e, cols, scale in zip(got, expected, columns, (pulse.width, 1.0, 1.0 / pulse.width)):
        if cols is None:
            assert g is None
            continue
        assert g.shape == (times.size, len(cols)) and g.dtype == np.float64
        e = e.astype(float)
        bound = 8 * np.finfo(float).eps * scale * np.abs(cols).sum(axis=1)
        assert np.all(np.abs(g - e) <= bound)
        if times.size:
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()
        assert np.all(g[none_inside] == 0.0) and not np.any(np.signbit(g[none_inside]))
    if times.size:
        assert 0 < none_inside.sum() < times.size


@pytest.mark.parametrize("case", SINE_SQUARED_CASES)
def test_sine_squared_sums_match_extended_precision_direct_sums(case):
    """Against direct sums in extended precision: within 8 ulp of the sum
    of |c| times each kind's scale, and within 1e-12 of the largest sum.
    F's scale is tau plus the delay spread, the largest |s - d| its rows
    take apart; f' has the error of beta = 2 pi d/tau, up to 2 pi times the
    spread over tau.  Where no node is inside its burst, f and f' are +0.0,
    and so is F until the burst reaches a node."""
    pulse, delays, times, layout = DELAY_CASES[case]
    columns = layout_columns(layout, np.random.default_rng(9), delays.size)
    got = pulse.column_sums(delays, columns, times)
    expected = extended_sums(pulse, delays, columns, times)
    u = ((times[:, None] - delays) - pulse.t_on) / pulse.tau
    none_inside = np.all((u <= 0.0) | (u >= 1.0), axis=1)
    ahead = np.all(u <= 0.0, axis=1)
    spread = np.ptp(delays) if delays.size else 0.0
    angles = 1.0 + 2.0 * np.pi * spread / pulse.tau
    scales = (pulse.tau + spread, 1.0, np.pi / pulse.tau * angles)
    for kind, (g, e, cols, scale) in enumerate(zip(got, expected, columns, scales)):
        if cols is None:
            assert g is None
            continue
        assert g.shape == (times.size, len(cols)) and g.dtype == np.float64
        e = e.astype(float)
        bound = 8 * np.finfo(float).eps * scale * np.abs(cols).sum(axis=1)
        assert np.all(np.abs(g - e) <= bound)
        if times.size:
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()
        zero = ahead if kind == 0 else none_inside
        assert np.all(g[zero] == 0.0) and not np.any(np.signbit(g[zero]))
    if times.size:
        assert 0 < ahead.sum() < none_inside.sum() < times.size


@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("envelope", sorted(ENVELOPES))
@pytest.mark.parametrize("representation", ["zones", "jefimenko"])
def test_rounding_floor_bounds_the_error_of_one_point(representation, envelope, pulse):
    """A one-point field (``zone_field``, ``jefimenko_field``) is within its
    rounding floor of the same terms assembled from the rule's node sums
    in extended precision, at each radius and every other time (the worst
    error measured is 0.17 of the floor; 150 of the 624 cells are ahead of
    the front, where both are zero)."""
    src = source(envelope, pulse)
    rule = build_rule(src.domain, 14, src.envelope)
    kernel = NodeKernel(src, rule, (representation,), NATURAL)
    evaluate = EVALUATORS[representation]
    times = TIMES[::2]
    for x in _ray_points():
        exact = extended_sums(src.profile, *kernel.columns(x), times)
        (reference,) = kernel.assemble([None if e is None else e.astype(float) for e in exact])
        for t, expected in zip(times, reference):
            field = evaluate(src, ObservationPoint(x, t), rule, NATURAL)
            got = np.array(list(field.terms.values()))
            assert np.abs(got - expected).max() <= field.rounding


#: A tilted polar axis, and the signed distances from the ball's centre of
#: observation points on it, on both sides of the centre.
AXIS = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
AXIS_OFFSETS = (0.6, 1.0, -0.7, -2.5)

#: Largest shift of ring sums from the frozen per-node sums of the same rule,
#: relative to the radius's peak |E|.  Measured 3.7e-15 (zones) and 4.8e-13
#: (Jefimenko, whose charge columns cancel: the per-node engine is as far
#: from the frozen bodies there, and 3.9e-14 from the ring sums).
FOLD_RTOL = {"zones": 2e-14, "jefimenko": 2e-12}


def axis_source(envelope, pulse):
    """``source``, its off-centre Gaussian on a ball instead of the box."""
    if envelope == "off-centre":
        return dataclasses.replace(source("box", pulse), domain=Ball(center=(0, 0, 0), radius=0.3))
    return source(envelope, pulse)


@pytest.mark.parametrize("pulse", sorted(PULSES))
@pytest.mark.parametrize("envelope", ["gaussian", "truncated", "off-centre"])
@pytest.mark.parametrize("representation", BOTH)
def test_ring_sums_match_node_sums_on_the_axis(representation, envelope, pulse):
    """On the rule's axis, on both sides of the centre, a kernel sums each
    ring once; ``sample`` and ``at`` match the frozen per-node sums of the
    same rule (p_hat is oblique to the axis).  ``at`` is within its rounding
    floor of the same rule summed node by node, and has that one's floor
    (measured: at most 0.75 of it)."""
    src = axis_source(envelope, pulse)
    rule = build_rule(src.domain, 12, src.envelope, AXIS)
    nodewise = NodeKernel(src, dataclasses.replace(rule, ring=1), (representation,), NATURAL)
    kernel = NodeKernel(src, rule, (representation,), NATURAL)
    for offset in AXIS_OFFSETS:
        x = src.domain.center + offset * AXIS
        assert kernel.columns(x)[0].size == len(rule) // (2 * 12)
        expected = legacy_fields(representation, src, x, TIMES, rule)
        bound = FOLD_RTOL[representation] * _peak(expected)
        (got,) = kernel.sample(x, TIMES)
        assert np.abs(got - expected).max() <= bound
        for t, frozen in zip(TIMES, expected):
            ((terms,),), rounding = kernel.at(x, t)
            ((node_terms,),), node_rounding = nodewise.at(x, t)
            assert np.abs(terms - frozen).max() <= bound
            assert np.abs(terms - node_terms).max() <= rounding
            assert rounding == pytest.approx(node_rounding, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("representation", BOTH)
def test_point_just_off_the_axis_sums_every_node(representation):
    """1e-9 off the axis a ring's nodes are no longer equally far from the
    point, so the kernel sums them one by one, and matches the frozen
    per-node sums there as well."""
    src = axis_source("off-centre", "sine-squared")
    rule = build_rule(src.domain, 12, src.envelope, AXIS)
    kernel = NodeKernel(src, rule, (representation,), NATURAL)
    across = np.cross(AXIS, (1.0, 0.0, 0.0))
    x = 1.0 * AXIS + 1e-9 * across / np.linalg.norm(across)
    assert kernel.columns(1.0 * AXIS)[0].size < kernel.columns(x)[0].size == len(rule)
    expected = legacy_fields(representation, src, x, TIMES, rule)
    (got,) = kernel.sample(x, TIMES)
    assert np.abs(got - expected).max() <= FOLD_RTOL[representation] * _peak(expected)


#: Node-length float arrays one zones-shaped ``moment_sums`` call may hold
#: at its peak (13.3 measured; the one-column-at-a-time path held 10.9).
MOMENT_ARRAYS = 16


def test_moment_sums_allocations_stay_within_a_few_node_arrays():
    """One zones call as negative_velocity.cfg makes it at its nearest
    radius: 8192 nodes, twelve columns as three views of one array, 351
    times.  The products take the nodes a block at a time: a (K, nodes)
    array of powers or a sorted (columns, nodes) copy would not fit."""
    src = SourceModel(
        envelope=GaussianEnvelope(center=(0, 0, 0), sigma=0.02),
        profile=DifferentiatedGaussianPulse(t_on=0.0, tau=16.0),
        polarization=(0.0, 0.0, 1.0),
        amplitude=-1.0,
        domain=Ball(center=(0, 0, 0), radius=0.2),
    )
    rule = build_rule(src.domain, 16)
    assert len(rule) == 8192
    delays, columns = NodeKernel(src, rule, ("zones",), NATURAL).columns(np.array([0.3, 0.0, 0.0]))
    times = np.linspace(0.0, 14.0, 351)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sums = src.profile.column_sums(delays, columns, times)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [s.shape for s in sums] == [(times.size, 4)] * 3
    assert np.any(sums[0])
    assert peak <= MOMENT_ARRAYS * 8 * len(rule)


def test_sine_squared_sums_allocations_stay_within_a_few_node_arrays():
    """One zones call at smooth_compare.cfg's rule size, 21296 nodes, on a
    grid shaped like box_jefimenko's: 801 times over a burst of tau = 2, so
    that the run ends mark every block many times.  It keeps the bound of
    the derivative-of-Gaussian call (5.5 node arrays measured)."""
    src = SourceModel(
        envelope=GaussianEnvelope(center=(0, 0, 0), sigma=0.05),
        profile=SineSquaredPulse(t_on=0.0, tau=2.0),
        polarization=(0.0, 0.0, 1.0),
        amplitude=1.0,
        domain=Ball(center=(0, 0, 0), radius=0.5),
    )
    rule = build_rule(src.domain, 22)
    assert len(rule) == 21296
    delays, columns = NodeKernel(src, rule, ("zones",), NATURAL).columns(np.array([1.0, 0.0, 0.0]))
    times = np.linspace(0.0, 8.0, 801)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sums = src.profile.column_sums(delays, columns, times)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [s.shape for s in sums] == [(times.size, 4)] * 3
    assert np.any(sums[0])
    assert peak <= MOMENT_ARRAYS * 8 * len(rule)


def test_moment_sums_clip_each_node_as_the_pulse_does():
    """At the times each node's u reaches +/-8, and at their float
    neighbours (non-dyadic, so t - d rounds), a column that picks out one
    node sums to that node's F, f and f' as per-entry evaluation gives
    them: exactly zero wherever the node is outside the clip."""
    rng = np.random.default_rng(13)
    pulse = DifferentiatedGaussianPulse(t_on=0.3, tau=1.7)
    delays = 1.1 + rng.uniform(0.0, 0.4, 40)
    delays[::7] = delays[0]  # some tied
    edges = np.concatenate([pulse.t_on + delays, pulse.t_on + pulse.tau + delays])
    times = [edges]
    for direction in (-np.inf, np.inf):
        step = edges
        for _ in range(3):
            step = np.nextafter(step, direction)
            times.append(step)
    times = np.sort(np.concatenate(times))
    columns = np.eye(delays.size)
    got = pulse.column_sums(delays, (columns,) * 3, times)
    expected = block_sums(pulse, delays, (columns,) * 3, times)
    outside = expected[1] == 0.0
    assert 2 * delays.size < outside.sum() < outside.size
    for g, e, scale in zip(got, expected, (pulse.width, 1.0, 1.0 / pulse.width)):
        assert np.abs(g - e).max() <= 8 * np.finfo(float).eps * scale
        assert np.all(g[outside] == 0.0)


def test_moment_sums_clip_each_sine_squared_node_as_the_pulse_does():
    """Both pulses through the same clip: at the times each node enters and
    leaves the burst (u = 0 and 1 for the sine-squared pulse, u = -8 and 8
    widths for the derivative-of-Gaussian one), and at their float
    neighbours (non-dyadic, so t - d rounds), a column that picks out one
    node sums to that node's F, f and f' as ``evaluate`` gives them, and
    exactly where the node is outside its burst: f = f' = 0, F = 0 before it
    and after it tau/2 (sine-squared) or 0 (derivative-of-Gaussian)."""
    rng = np.random.default_rng(13)
    delays = 1.1 + rng.uniform(0.0, 0.4, 40)
    delays[::7] = delays[0]  # some tied
    spread = np.ptp(delays)
    for pulse in (SineSquaredPulse(t_on=0.3, tau=1.7), DifferentiatedGaussianPulse(t_on=0.3, tau=1.7)):
        times = _edges(pulse, delays)
        lags = times[:, None] - delays
        if isinstance(pulse, SineSquaredPulse):
            u, lo, hi, after = (lags - pulse.t_on) / pulse.tau, 0.0, 1.0, 0.5 * pulse.tau
            # the error scales of its extended-precision test
            angles = 1.0 + 2.0 * np.pi * spread / pulse.tau
            scales = (pulse.tau + spread, 1.0, np.pi / pulse.tau * angles)
        else:
            u, lo, hi, after = (lags - pulse.center) / pulse.width, -8.0, 8.0, 0.0
            scales = (pulse.width, 1.0, 1.0 / pulse.width)
        got = pulse.column_sums(delays, (np.eye(delays.size),) * 3, times)
        expected = pulse.evaluate(lags)
        outside = (u <= lo) | (u >= hi)
        assert 2 * delays.size < outside.sum() < outside.size
        assert np.any(u >= hi) and np.all(expected[0][u >= hi] == after)
        assert np.any(u <= lo) and np.all(expected[0][u <= lo] == 0.0)
        for g, e, scale in zip(got, expected, scales):
            assert np.abs(g - e).max() <= 8 * np.finfo(float).eps * scale
            assert np.all(g[outside] == e[outside])


def test_moment_count_follows_the_largest_slab_offset(monkeypatch):
    """K comes from the largest |x| of the slabs actually cut: delays that
    span 0.4 widths sit within 0.2 widths of their one slab's midpoint."""
    pulse = DifferentiatedGaussianPulse(t_on=0.0, tau=16.0)  # width 1
    delays = 2.0 + np.linspace(0.0, 0.4, 101)
    reaches = []
    count = sources.moment_count

    def record(x_max):
        reaches.append(x_max)
        return count(x_max)

    monkeypatch.setattr(sources, "moment_count", record)
    pulse.column_sums(delays, (np.ones((1, delays.size)), None, None), np.linspace(0.0, 20.0, 9))
    assert reaches == [pytest.approx(0.2, rel=1e-12)]
    assert count(0.0) == 1
    ladder = [count(x) for x in np.linspace(0.0, 0.5, 11)]
    assert ladder == sorted(ladder) and count(0.2) < ladder[-1] <= 24


def test_cramer_constant_bounds_hermite_polynomials():
    """|He_n(u)| exp(-u^2/4) <= _CRAMER sqrt(n!) for the orders the moment
    sums use, on a fine grid of u."""
    u = np.linspace(-14.0, 14.0, 20001)
    previous, current = np.zeros_like(u), np.ones_like(u)
    for n in range(40):
        bound = sources._CRAMER * np.sqrt(float(np.prod(np.arange(1, n + 1, dtype=float))))
        assert np.all(np.abs(current) * np.exp(-u * u / 4) <= bound), n
        previous, current = current, u * current - n * previous
