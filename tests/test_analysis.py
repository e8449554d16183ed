import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import retfield
from retfield.analysis import (
    FRONT_RATIO,
    FeatureNotFoundError,
    WaveformSeries,
    feature_arrival_times,
    front_times,
    light_front_check,
    local_velocity,
    sample_waveforms,
    zone_scaling_fit,
)
from retfield.domains import Ball
from retfield.evaluators import EVALUATORS, ObservationPoint
from retfield.quadrature import build_rule
from retfield.sources import (
    DifferentiatedGaussianPulse,
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
)

AXIS = np.array([0.0, 0.0, 1.0])


def synthetic_series(radii, times, signal, representation="zones"):
    """Series whose selected component equals signal(r, t), all in one term."""
    radii = np.asarray(radii, dtype=float)
    times = np.asarray(times, dtype=float)
    fields = np.zeros((radii.size, times.size, 3, 3))
    for i, r in enumerate(radii):
        for j, t in enumerate(times):
            fields[i, j, 0] = signal(r, t) * AXIS
    return WaveformSeries(
        ray_origin=np.zeros(3),
        ray_direction=np.array([1.0, 0.0, 0.0]),
        radii=radii,
        times=times,
        terms=("near", "intermediate", "far"),
        fields=fields,
        component_axis=AXIS,
        representation=representation,
    )


def small_source(amplitude=1.0):
    sigma = 0.05
    return SourceModel(
        envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
        profile=SineSquaredPulse(t_on=0.0, tau=8.0),
        polarization=(0, 0, 1),
        amplitude=amplitude,
        domain=Ball(center=(0, 0, 0), radius=10 * sigma),
    )


class TestWaveformSeries:
    def test_validation(self):
        bump = lambda r, t: np.exp(-((t - r) ** 2))
        with pytest.raises(ValueError, match="radii"):
            synthetic_series([2.0, 1.0], [0.0, 1.0], bump)
        with pytest.raises(ValueError, match="uniform"):
            synthetic_series([1.0, 2.0], [0.0, 1.0, 3.0], bump)
        with pytest.raises(ValueError, match="shape"):
            WaveformSeries(
                ray_origin=np.zeros(3),
                ray_direction=np.array([1.0, 0.0, 0.0]),
                radii=[1.0, 2.0],
                times=[0.0, 1.0],
                terms=("near", "intermediate", "far"),
                fields=np.zeros((2, 2, 2, 3)),
                component_axis=AXIS,
                representation="zones",
            )

    def test_component_projection(self):
        series = synthetic_series([1.0, 2.0], [0.0, 1.0, 2.0], lambda r, t: r + t)
        expected = np.add.outer([1.0, 2.0], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(series.component(), expected)

    def test_term_field_names_the_term(self):
        series = synthetic_series([1.0, 2.0], [0.0, 1.0], lambda r, t: r + t)
        np.testing.assert_array_equal(series.term_field("far"), 0.0)
        with pytest.raises(KeyError, match="current"):
            series.term_field("current")


class TestSampleWaveforms:
    def test_zero_source_gives_zero_series(self):
        src = small_source(amplitude=0.0)
        rule = build_rule(src.domain, 8)
        series = sample_waveforms(
            src, "zones", (0, 0, 0), (1, 0, 0), [1.0, 2.0], np.linspace(0, 10, 5), rule
        )
        np.testing.assert_array_equal(series.total_field(), 0.0)

    def test_single_cell_matches_direct_call(self):
        """A sweep sums the pulse by delay moments, a single time evaluates
        it at each node: behind the front the two agree to rounding, within
        the direct call's rounding floor (the Jefimenko charge columns
        cancel, so a term can be far below the radius's peak; at t = 7 the
        terms differ by at most 0.06 and 0.0011 of the zones and Jefimenko
        floors); ahead of it both give the same signed zeros."""
        src = small_source()
        rule = build_rule(src.domain, 12)
        # t = 0.5 is ahead of the front, where terms are signed zeros
        times = [0.5, 7.0]
        for representation, evaluate in EVALUATORS.items():
            series = sample_waveforms(
                src, representation, (0, 0, 0), (1, 0, 0), [2.0], times, rule
            )
            for j, t in enumerate(times):
                direct = evaluate(src, ObservationPoint(x=(2.0, 0, 0), t=t), rule)
                assert series.terms == tuple(direct.terms)
                if t < 1.0:
                    assert not np.any(direct.total)
                    assert series.total_field()[0, j].tobytes() == direct.total.tobytes()
                    for name, term in direct.terms.items():
                        assert series.term_field(name)[0, j].tobytes() == term.tobytes()
                for name, term in direct.terms.items():
                    assert np.abs(series.term_field(name)[0, j] - term).max() <= direct.rounding

    def test_sampled_fields_are_read_only(self):
        src = small_source()
        rule = build_rule(src.domain, 8)
        series = sample_waveforms(src, "jefimenko", (0, 0, 0), (1, 0, 0), [2.0], [7.0], rule)
        assert series.fields.shape == (1, 1, 2, 3)
        with pytest.raises(ValueError, match="read-only"):
            series.fields[0, 0, 0, 0] = 1.0

    def test_representations_agree_on_series(self):
        src = small_source()
        rule = build_rule(src.domain, 22)
        kwargs = dict(
            ray_origin=(0, 0, 0),
            ray_direction=(0, 1, 0),
            radii=np.array([1.0, 3.0]),
            times=np.linspace(2.0, 14.0, 7),
            rule=rule,
        )
        zones = sample_waveforms(src, "zones", **kwargs)
        jef = sample_waveforms(src, "jefimenko", **kwargs)
        e1, e2 = zones.total_field(), jef.total_field()
        scale = np.linalg.norm(e1, axis=-1).max()
        assert np.linalg.norm(e1 - e2, axis=-1).max() < 1e-6 * scale

    def test_thread_count_does_not_change_results(self):
        src = small_source()
        rule = build_rule(src.domain, 10)
        kwargs = dict(
            ray_origin=(0, 0, 0),
            ray_direction=(1, 0, 0),
            radii=np.array([1.0, 1.5, 2.0]),
            times=np.linspace(0.0, 12.0, 9),
            rule=rule,
        )
        serial = sample_waveforms(src, "zones", threads=1, **kwargs)
        threaded = sample_waveforms(src, "zones", threads=4, **kwargs)
        np.testing.assert_array_equal(serial.total_field(), threaded.total_field())

    def test_library_path_loads_no_cli_module(self):
        """A fresh interpreter's ``import retfield``, a one-thread sampling
        and a ``refined_field`` ladder load none of the modules that only
        the command line, the config parser or a thread pool need; importing
        ``retfield.config`` loads neither the pool's module nor logging, and
        a sampling on two threads loads the pool."""
        code = textwrap.dedent("""
            import sys
            import retfield
            from retfield import Ball, GaussianEnvelope, SineSquaredPulse, SourceModel
            def loaded(names=("argparse", "configparser", "json", "logging",
                              "concurrent.futures", "numpy.polynomial")):
                return [m for m in names if m in sys.modules]
            src = SourceModel(GaussianEnvelope((0, 0, 0), 0.05), SineSquaredPulse(0.0, 8.0),
                              (0, 0, 1), 1.0, Ball((0, 0, 0), 0.5))
            rule = retfield.build_rule(src.domain, 4)
            grid = (src, "zones", (0, 0, 0), (1, 0, 0), [1.0, 2.0], [1.0, 2.0], rule)
            retfield.sample_waveforms(*grid)
            retfield.refined_field("jefimenko", src, retfield.ObservationPoint((2.0, 0, 0), 7.0),
                                   base_order=4, max_order=8)
            print(loaded())
            import retfield.config
            print(loaded(("concurrent.futures", "logging")))
            retfield.sample_waveforms(*grid, threads=2)
            print(loaded(("concurrent.futures",)))
        """)
        path = [str(Path(retfield.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines() == ["[]", "[]", "['concurrent.futures']"]

    def test_evaluation_error_identifies_cell(self):
        src = small_source()
        rule = build_rule(src.domain, 8)
        with pytest.raises(RuntimeError, match=r"r=0.1, t=1.0"):
            sample_waveforms(
                src, "zones", (0, 0, 0), (1, 0, 0), [0.1, 2.0], [1.0, 2.0], rule
            )

    def test_unknown_representation(self):
        src = small_source()
        rule = build_rule(src.domain, 8)
        with pytest.raises(ValueError, match="representation"):
            sample_waveforms(src, "fdtd", (0, 0, 0), (1, 0, 0), [1.0], [0.0, 1.0], rule)


class TestLightFront:
    def test_compact_pulse_passes(self):
        src = small_source()
        rule = build_rule(src.domain, 14)
        series = sample_waveforms(
            src,
            "zones",
            (0, 0, 0),
            (1, 0, 0),
            np.array([1.0, 2.0, 4.0]),
            np.linspace(0.0, 16.0, 33),
            rule,
        )
        result = light_front_check(series, src)
        assert result.passed
        assert result.peak > 0.0

    def test_front_times_account_for_domain_extent(self):
        src = small_source()
        rule = build_rule(src.domain, 8)
        series = sample_waveforms(
            src, "zones", (0, 0, 0), (1, 0, 0), [2.0], [0.0, 1.0], rule
        )
        np.testing.assert_allclose(front_times(series, src), [2.0 - 0.5])

    def test_zero_series_ahead_of_front(self):
        src = small_source(amplitude=0.0)
        rule = build_rule(src.domain, 8)
        series = sample_waveforms(
            src, "zones", (0, 0, 0), (1, 0, 0), [3.0], [0.0, 1.0], rule
        )
        result = light_front_check(series, src)
        assert result.max_precursor == 0.0 and result.passed

    def test_precursor_at_the_threshold_passes_and_above_it_fails(self):
        """The front at r = 2 is t = 1.5; the precursor at t = 1 is exactly
        FRONT_RATIO times the peak, then the float above that."""
        src = small_source()
        peak = 3.0
        at_threshold = FRONT_RATIO * peak
        for precursor, passed in ((at_threshold, True), (np.nextafter(at_threshold, 1.0), False)):
            series = synthetic_series([2.0], [0.0, 1.0, 2.0, 3.0],
                                      lambda r, t: {1.0: precursor, 3.0: -peak}.get(t, 0.0))
            result = light_front_check(series, src)
            assert (result.max_precursor, result.peak) == (precursor, peak)
            assert result.passed is passed


class TestFeatureArrivalTimes:
    def test_translating_pulse_retardation(self):
        # s(t - r/c): arrival times shift by exactly (r - r0)/c
        times = np.linspace(0.0, 30.0, 601)  # dt = 0.05
        radii = np.array([5.0, 6.0, 8.0, 11.0])  # shifts are grid multiples
        bump = lambda r, t: np.exp(-((t - r - 4.0) ** 2) / 2.0)
        series = synthetic_series(radii, times, bump)
        arrivals = feature_arrival_times(series, "peak")
        np.testing.assert_allclose(
            np.diff(arrivals), np.diff(radii), rtol=0.0, atol=1e-9
        )

    def test_peak_refinement_beats_grid_resolution(self):
        times = np.linspace(0.0, 20.0, 401)  # dt = 0.05
        radii = np.array([3.0, 4.3])  # off-grid shift
        bump = lambda r, t: np.exp(-((t - r - 4.0) ** 2) / 2.0)
        series = synthetic_series(radii, times, bump)
        arrivals = feature_arrival_times(series, "peak")
        np.testing.assert_allclose(arrivals, radii + 4.0, atol=1e-3)

    def test_zero_crossing_linear_interpolation_is_exact(self):
        times = np.linspace(0.0, 10.0, 11)
        radii = np.array([1.0, 2.0])
        line = lambda r, t: t - (3.3 + r)
        series = synthetic_series(radii, times, line)
        arrivals = feature_arrival_times(series, "zero-crossing")
        np.testing.assert_allclose(arrivals, [4.3, 5.3], rtol=1e-14)

    def test_no_zero_crossing_in_static_window(self):
        times = np.linspace(0.0, 5.0, 21)
        series = synthetic_series([1.0, 2.0], times, lambda r, t: 1.0 / r**3)
        with pytest.raises(FeatureNotFoundError, match="zero crossing"):
            feature_arrival_times(series, "zero-crossing")

    def test_flat_window_has_no_peak(self):
        times = np.linspace(0.0, 5.0, 21)
        series = synthetic_series([1.0, 2.0], times, lambda r, t: 2.5)
        with pytest.raises(FeatureNotFoundError, match="flat"):
            feature_arrival_times(series, "peak")

    def test_window_restriction(self):
        times = np.linspace(0.0, 30.0, 301)
        two_bumps = lambda r, t: np.exp(-((t - 5.0) ** 2)) + 2 * np.exp(-((t - 20.0) ** 2))
        series = synthetic_series([1.0, 2.0], times, two_bumps)
        early = feature_arrival_times(series, "peak", window=(0.0, 10.0))
        late = feature_arrival_times(series, "peak")
        np.testing.assert_allclose(early, 5.0, atol=1e-6)
        np.testing.assert_allclose(late, 20.0, atol=1e-6)

    def test_unknown_feature(self):
        series = synthetic_series([1.0, 2.0], [0.0, 1.0], lambda r, t: t)
        with pytest.raises(ValueError, match="feature"):
            feature_arrival_times(series, "inflection")


class TestLocalVelocity:
    def test_pure_retardation_gives_wave_speed(self):
        radii = np.linspace(1.0, 5.0, 9)
        profile = local_velocity(radii, radii / 1.0)
        np.testing.assert_allclose(profile.velocities, 1.0, rtol=1e-12)

    def test_translated_waveform_velocity_to_interpolation_accuracy(self):
        times = np.linspace(0.0, 30.0, 601)
        radii = np.array([5.0, 6.0, 8.0, 11.0])  # grid-aligned shifts
        bump = lambda r, t: np.exp(-((t - r - 4.0) ** 2) / 2.0)
        series = synthetic_series(radii, times, bump)
        arrivals = feature_arrival_times(series, "peak")
        profile = local_velocity(radii, arrivals)
        np.testing.assert_allclose(profile.velocities, 1.0, rtol=1e-6)

    def test_decreasing_arrivals_give_negative_velocity(self):
        profile = local_velocity([1.0, 2.0, 3.0], [5.0, 4.5, 5.5])
        assert profile.velocities[0] < 0.0 and profile.velocities[1] > 0.0
        assert profile.negative_segments() == [(1.0, 2.0)]

    def test_equal_arrivals_flagged_infinite(self):
        profile = local_velocity([1.0, 2.0], [3.0, 3.0])
        assert np.isinf(profile.velocities[0])

    def test_requires_two_radii(self):
        with pytest.raises(ValueError, match="two or more"):
            local_velocity([1.0], [2.0])


class TestZoneScalingFit:
    def test_exact_power_laws(self):
        radii = np.geomspace(1.0, 20.0, 8)
        times = np.linspace(0.0, 4.0, 9)
        scale = (1.0 + 0.1 * times)[None, :] / radii[:, None]
        fields = np.stack([scale / radii[:, None] ** 2, scale / radii[:, None], scale], axis=2)
        series = WaveformSeries(
            ray_origin=np.zeros(3),
            ray_direction=np.array([1.0, 0, 0]),
            radii=radii,
            times=times,
            terms=("near", "intermediate", "far"),
            fields=fields[..., None] * AXIS,
            component_axis=AXIS,
            representation="zones",
        )
        assert zone_scaling_fit(series, "near") == pytest.approx(-3.0, abs=1e-12)
        assert zone_scaling_fit(series, "intermediate") == pytest.approx(-2.0, abs=1e-12)
        assert zone_scaling_fit(series, "far") == pytest.approx(-1.0, abs=1e-12)

    def test_requires_enough_radii_and_span(self):
        bump = lambda r, t: 1.0 / r
        series = synthetic_series(np.geomspace(1, 20, 4), [0.0, 1.0], bump)
        with pytest.raises(ValueError, match="five"):
            zone_scaling_fit(series, "near")
        series = synthetic_series(np.geomspace(1, 5, 6), [0.0, 1.0], bump)
        with pytest.raises(ValueError, match="decade"):
            zone_scaling_fit(series, "near")

    def test_zero_amplitudes_degenerate(self):
        series = synthetic_series(np.geomspace(1, 20, 6), [0.0, 1.0], lambda r, t: 1 / r)
        with pytest.raises(ValueError, match="vanishes"):
            zone_scaling_fit(series, "far")


class TestNegativeVelocityExperiment:
    def test_broadside_dipole_has_negative_segment_behind_front(self):
        # reduced version of the configured experiment
        sigma = 0.02
        src = SourceModel(
            envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
            profile=DifferentiatedGaussianPulse(t_on=0.0, tau=16.0),
            polarization=(0, 0, 1),
            amplitude=-1.0,
            domain=Ball(center=(0, 0, 0), radius=10 * sigma),
        )
        rule = build_rule(src.domain, 10)
        radii = np.geomspace(0.3, 1.8, 7)
        times = np.linspace(5.0, 12.0, 141)
        series = sample_waveforms(src, "zones", (0, 0, 0), (1, 0, 0), radii, times, rule)
        arrivals = feature_arrival_times(series, "peak", window=(6.0, 11.0))
        profile = local_velocity(radii, arrivals)
        assert profile.negative_segments()
        # arrival times are non-monotone in radius: inward drift in the
        # near zone, ordinary retardation farther out
        assert np.any(np.diff(arrivals) < 0.0) and np.any(np.diff(arrivals) > 0.0)
        # causality intact: features arrive strictly behind the front
        assert np.all(arrivals > front_times(series, src))
        assert light_front_check(series, src).passed
