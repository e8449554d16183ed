import json

import numpy as np
import pytest

from retfield.config import ConfigError, config_from_mapping, parse_config
from retfield.domains import Ball, Box
from retfield.sources import (
    ENVELOPE_KINDS,
    PULSE_KINDS,
    GaussianEnvelope,
    SineSquaredPulse,
    TruncatedGaussianEnvelope,
)

MINIMAL = """
[source]
sigma = 0.05

[run]
tasks = decompose
"""

FULL = """
[constants]
c = 2.0
coulomb = 3.0

[source]
envelope = truncated-gaussian
sigma = 0.1
cut_radius = 0.1
center = 0 0 0
polarization = 0 1 0
amplitude = -2.0
domain = ball
domain_radius = 0.1

[pulse]
kind = differentiated-gaussian
t_on = 1.0
tau = 8.0

[observation]
ray_origin = 0 0 0
ray_direction = 0 0 1
radii = list 1.0 2.0 4.0
times = uniform 0 20 41
component_axis = 0 1 0

[quadrature]
base_order = 6
max_order = 14
tol = 1e-9

[run]
tasks = compare frontcheck
representation = jefimenko
feature = zero-crossing
window = 2.0 18.0

[output]
directory = artifacts
formats = csv
"""

# The report echo of FULL and MINIMAL, key order included, as json.dumps
# writes it into report.json.
FULL_ECHO = (
    '{"constants": {"c": 2.0, "coulomb": 3.0}, "source": {"envelope": '
    '"truncated-gaussian", "sigma": 0.1, "center": [0.0, 0.0, 0.0], "cut_radius": '
    '0.1, "polarization": [0.0, 1.0, 0.0], "amplitude": -2.0, "domain": "ball", '
    '"domain_center": [0.0, 0.0, 0.0], "domain_radius": 0.1, "domain_lo": null, '
    '"domain_hi": null}, "pulse": {"kind": "differentiated-gaussian", "t_on": 1.0, '
    '"tau": 8.0}, "observation": {"ray_origin": [0.0, 0.0, 0.0], "ray_direction": '
    '[0.0, 0.0, 1.0], "radii": [1.0, 2.0, 4.0], "times": [0.0, 0.5, 1.0, 1.5, 2.0, '
    '2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, '
    '10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 16.0, '
    '16.5, 17.0, 17.5, 18.0, 18.5, 19.0, 19.5, 20.0], "component_axis": [0.0, 1.0, '
    '0.0]}, "quadrature": {"base_order": 6, "max_order": 14, "tol": 1e-09}, "run": '
    '{"tasks": ["compare", "frontcheck"], "representation": "jefimenko", '
    '"feature": "zero-crossing", "window": [2.0, 18.0]}, "output": {"directory": '
    '"artifacts", "formats": ["csv"]}}'
)

MINIMAL_ECHO = (
    '{"constants": {"c": 1.0, "coulomb": 1.0}, "source": {"envelope": "gaussian", '
    '"sigma": 0.05, "center": [0.0, 0.0, 0.0], "cut_radius": null, "polarization": '
    '[0.0, 0.0, 1.0], "amplitude": 1.0, "domain": "ball", "domain_center": [0.0, '
    '0.0, 0.0], "domain_radius": 0.4, "domain_lo": null, "domain_hi": null}, '
    '"pulse": {"kind": "sine-squared", "t_on": 0.0, "tau": 1.0}, "observation": '
    '{"ray_origin": [0.0, 0.0, 0.0], "ray_direction": [1.0, 0.0, 0.0], "radii": '
    '[0.8, 1.4226235280311383, 2.529822128134703, 4.498730601522792, 8.0], '
    '"times": [0.0, 0.15873015873015872, 0.31746031746031744, 0.47619047619047616, '
    '0.6349206349206349, 0.7936507936507936, 0.9523809523809523, '
    '1.1111111111111112, 1.2698412698412698, 1.4285714285714284, '
    '1.5873015873015872, 1.746031746031746, 1.9047619047619047, '
    '2.0634920634920633, 2.2222222222222223, 2.380952380952381, '
    '2.5396825396825395, 2.698412698412698, 2.8571428571428568, 3.015873015873016, '
    '3.1746031746031744, 3.333333333333333, 3.492063492063492, 3.6507936507936507, '
    '3.8095238095238093, 3.968253968253968, 4.1269841269841265, 4.285714285714286, '
    '4.444444444444445, 4.603174603174603, 4.761904761904762, 4.92063492063492, '
    '5.079365079365079, 5.238095238095238, 5.396825396825396, 5.555555555555555, '
    '5.7142857142857135, 5.873015873015873, 6.031746031746032, 6.19047619047619, '
    '6.349206349206349, 6.507936507936508, 6.666666666666666, 6.825396825396825, '
    '6.984126984126984, 7.142857142857142, 7.301587301587301, 7.46031746031746, '
    '7.619047619047619, 7.777777777777778, 7.936507936507936, 8.095238095238095, '
    '8.253968253968253, 8.412698412698413, 8.571428571428571, 8.73015873015873, '
    '8.88888888888889, 9.047619047619047, 9.206349206349206, 9.365079365079364, '
    '9.523809523809524, 9.682539682539682, 9.84126984126984, 10.0], '
    '"component_axis": [0.0, 0.0, 1.0]}, "quadrature": {"base_order": 12, '
    '"max_order": 24, "tol": 1e-08}, "run": {"tasks": ["decompose"], '
    '"representation": "zones", "feature": "peak", "window": null}, "output": '
    '{"directory": "out", "formats": ["csv", "json"]}}'
)

#: (section, key, line of FULL, that line with one number replaced, index of
#: that number in the echoed value or None for a scalar)
NUMBERS = [
    ("source", "sigma", "sigma = 0.1", "sigma = {}", None),
    ("source", "amplitude", "amplitude = -2.0", "amplitude = {}", None),
    ("source", "domain_radius", "domain_radius = 0.1", "domain_radius = {}", None),
    ("pulse", "tau", "tau = 8.0", "tau = {}", None),
    ("pulse", "t_on", "t_on = 1.0", "t_on = {}", None),
    ("constants", "c", "c = 2.0", "c = {}", None),
    ("quadrature", "tol", "tol = 1e-9", "tol = {}", None),
    ("observation", "ray_direction", "ray_direction = 0 0 1", "ray_direction = 0 {} 1", 1),
    ("observation", "radii", "radii = list 1.0 2.0 4.0", "radii = list 1.0 {} 4.0", 1),
    ("run", "window", "window = 2.0 18.0", "window = 2.0 {}", 1),
]


class TestDefaults:
    def test_minimal_config_materializes_documented_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.c == 1.0 and cfg.coulomb == 1.0  # natural units
        assert cfg.pulse_kind == "sine-squared"
        assert cfg.base_order == 12
        assert cfg.envelope_kind == "gaussian"
        assert cfg.polarization == (0.0, 0.0, 1.0)
        assert cfg.domain_kind == "ball"
        assert cfg.domain_radius == pytest.approx(8 * 0.05)
        assert len(cfg.radii) == 5
        assert cfg.radii[0] == pytest.approx(2 * 0.4)
        assert cfg.radii[-1] == pytest.approx(20 * 0.4)
        assert len(cfg.times) == 64
        assert cfg.representation == "zones"
        assert cfg.output_formats == ("csv", "json")

    def test_full_config_round_trips_through_mapping(self):
        cfg = parse_config(FULL)
        rebuilt = config_from_mapping(cfg.to_mapping())
        assert rebuilt == cfg

    def test_minimal_config_round_trips(self):
        cfg = parse_config(MINIMAL)
        assert config_from_mapping(cfg.to_mapping()) == cfg

    @pytest.mark.parametrize(
        "text, echo", [(FULL, FULL_ECHO), (MINIMAL, MINIMAL_ECHO)], ids=["full", "minimal"]
    )
    def test_echo_is_pinned(self, text, echo):
        assert json.dumps(parse_config(text).to_mapping()) == echo


class TestBuilders:
    def test_build_source_smooth(self):
        cfg = parse_config(MINIMAL)
        src = cfg.build_source()
        assert isinstance(src.envelope, GaussianEnvelope)
        assert isinstance(src.profile, SineSquaredPulse)
        assert isinstance(src.domain, Ball)

    def test_build_source_truncated(self):
        cfg = parse_config(FULL)
        src = cfg.build_source()
        assert isinstance(src.envelope, TruncatedGaussianEnvelope)
        assert src.envelope.cut_radius == pytest.approx(0.1)
        assert src.amplitude == -2.0

    def test_build_box_domain(self):
        text = MINIMAL.replace(
            "sigma = 0.05",
            "sigma = 0.05\ndomain = box\ndomain_lo = -1 -1 -1\ndomain_hi = 1 1 1",
        )
        cfg = parse_config(text)
        assert isinstance(cfg.build_domain(), Box)

    def test_build_constants(self):
        constants = parse_config(FULL).build_constants()
        assert constants.c == 2.0 and constants.coulomb == 3.0


class TestValidation:
    def test_non_unit_polarization_rejected(self):
        text = MINIMAL.replace("sigma = 0.05", "sigma = 0.05\npolarization = 0 0 2")
        with pytest.raises(ConfigError, match="polarization must be unit"):
            parse_config(text)

    def test_radius_inside_domain_names_radius(self):
        text = MINIMAL + "\n[observation]\nradii = list 0.2 1.0\n"
        with pytest.raises(ConfigError, match="0.2"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[sources]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL.replace("sigma = 0.05", "sigma = 0.05\nwidth = 1"))

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="unknown task"):
            parse_config(MINIMAL.replace("tasks = decompose", "tasks = render"))

    def test_default_section_rejected(self):
        # configparser would merge [DEFAULT] into every section, so its keys
        # surfaced as unknown keys of whichever section came first
        text = "[DEFAULT]\nsigma = 0.05\n" + MINIMAL.replace("sigma = 0.05\n", "")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\] is not supported"):
            parse_config(text)
        assert parse_config("[DEFAULT]\n" + MINIMAL) == parse_config(MINIMAL)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[source\nsigma = 0.05")

    def test_missing_source_section(self):
        with pytest.raises(ConfigError, match=r"\[source\]"):
            parse_config("[run]\ntasks = decompose\n")

    def test_missing_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config("[source]\nenvelope = gaussian\n[run]\ntasks =\n")

    def test_cut_radius_requirements(self):
        with pytest.raises(ConfigError, match="cut_radius"):
            parse_config(MINIMAL.replace("sigma = 0.05", "sigma = 0.05\nenvelope = truncated-gaussian"))
        with pytest.raises(ConfigError, match="cut_radius"):
            parse_config(MINIMAL.replace("sigma = 0.05", "sigma = 0.05\ncut_radius = 1"))

    def test_bad_order_range(self):
        text = MINIMAL + "\n[quadrature]\nbase_order = 14\nmax_order = 12\n"
        with pytest.raises(ConfigError, match="base_order"):
            parse_config(text)

    def test_one_rung_ladder_rejected(self):
        # the ladder steps by 2, so max_order = base_order + 1 evaluates one
        # order and has no error estimate
        text = MINIMAL + "\n[quadrature]\nbase_order = 6\nmax_order = 7\n"
        with pytest.raises(ConfigError, match=r"max_order: must be at least base_order \+ 2"):
            parse_config(text)
        assert parse_config(text.replace("max_order = 7", "max_order = 8")).max_order == 8

    @pytest.mark.parametrize("key, value", [("domain_center", "0 0 0"), ("domain_radius", "2")])
    def test_box_rejects_ball_keys(self, key, value):
        box = "sigma = 0.05\ndomain = box\ndomain_lo = -1 -1 -1\ndomain_hi = 1 1 1"
        text = MINIMAL.replace("sigma = 0.05", f"{box}\n{key} = {value}")
        with pytest.raises(ConfigError, match="given for a box domain"):
            parse_config(text)

    def test_bad_times_spec(self):
        text = MINIMAL + "\n[observation]\ntimes = uniform 5 1 10\n"
        with pytest.raises(ConfigError, match="times"):
            parse_config(text)

    def test_bad_radii_mode(self):
        text = MINIMAL + "\n[observation]\nradii = fibonacci 1 2 3\n"
        with pytest.raises(ConfigError, match="radii"):
            parse_config(text)

    def test_geometric_radii(self):
        text = MINIMAL + "\n[observation]\nradii = geometric 1.0 16.0 5\n"
        cfg = parse_config(text)
        np.testing.assert_allclose(cfg.radii, np.geomspace(1, 16, 5))

    def test_linear_radii(self):
        text = MINIMAL + "\n[observation]\nradii = linear 1.0 3.0 5\n"
        cfg = parse_config(text)
        np.testing.assert_allclose(cfg.radii, np.linspace(1, 3, 5))

    def test_window_validation(self):
        text = FULL.replace("window = 2.0 18.0", "window = 18.0 2.0")
        with pytest.raises(ConfigError, match="window"):
            parse_config(text)

    def test_empty_tasks_allowed(self):
        cfg = parse_config(MINIMAL.replace("tasks = decompose", "tasks ="))
        assert cfg.tasks == ()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, key, line, template, index", NUMBERS, ids=[n[1] for n in NUMBERS]
    )
    def test_non_finite_number_rejected(self, section, key, line, template, index, value):
        message = rf"\[{section}\] {key}: expected a finite number"
        assert line in FULL
        with pytest.raises(ConfigError, match=message):
            parse_config(FULL.replace(line, template.format(value)))
        mapping = parse_config(FULL).to_mapping()
        if index is None:
            mapping[section][key] = float(value)
        else:
            mapping[section][key][index] = float(value)
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("vector", ["0 0 2", "1 0.3 0.2", "1 1 0"])
    def test_direction_and_axis_scaled_to_unit_length_once(self, vector):
        """A component axis's length would scale every projected value;
        the echo of a scaled vector re-parses to the same bits."""
        text = MINIMAL + f"\n[observation]\nray_direction = {vector}\ncomponent_axis = {vector}\n"
        cfg = parse_config(text)
        expected = np.array(vector.split(), dtype=float)
        expected /= np.linalg.norm(expected)
        for unit in (cfg.ray_direction, cfg.component_axis):
            np.testing.assert_allclose(unit, expected, rtol=0, atol=1e-15)
        assert cfg.component_axis == cfg.ray_direction
        assert config_from_mapping(cfg.to_mapping()) == cfg

    @pytest.mark.parametrize("axis", ["0 0 0", "-0 0 0"])
    def test_zero_component_axis_rejected(self, axis):
        # a zero axis projects every field to 0: decompose would report a
        # peak component of 0.0 and velocity would find no feature
        text = MINIMAL + f"\n[observation]\ncomponent_axis = {axis}\n"
        message = r"^\[observation\] component_axis: must be nonzero$"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        mapping = parse_config(MINIMAL).to_mapping()
        mapping["observation"]["component_axis"] = [0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(mapping)

    def test_kind_names_are_the_sources_tables(self):
        for kind, cls in PULSE_KINDS.items():
            cfg = parse_config(MINIMAL + f"\n[pulse]\nkind = {kind}\n")
            assert type(cfg.build_source().profile) is cls
        for kind, cls in ENVELOPE_KINDS.items():
            extra = "\ncut_radius = 0.1" if cls is TruncatedGaussianEnvelope else ""
            text = MINIMAL.replace("sigma = 0.05", f"sigma = 0.05\nenvelope = {kind}{extra}")
            assert type(parse_config(text).build_source().envelope) is cls
        with pytest.raises(ConfigError, match=r"^\[pulse\] kind: unknown pulse kind 'square'$"):
            parse_config(MINIMAL + "\n[pulse]\nkind = square\n")
        message = r"^\[source\] envelope: unknown envelope 'boxcar'$"
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL.replace("sigma = 0.05", "sigma = 0.05\nenvelope = boxcar"))

    def test_ray_direction_normalized(self):
        text = MINIMAL + "\n[observation]\nray_direction = 0 0 5\nradii = list 1.0\n"
        cfg = parse_config(text)
        assert cfg.ray_direction == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("vector", ["1e200 0 0", "1e-200 0 0", "1e-320 0 0", "1e308 0 0"])
    def test_huge_and_tiny_vectors_scaled_without_overflow(self, vector):
        """Squares of 1e200 overflow and of 1e-200 underflow; the norm is
        taken after an exact power-of-two scaling, so both give the axis."""
        text = MINIMAL + f"\n[observation]\nray_direction = {vector}\ncomponent_axis = {vector}\n"
        cfg = parse_config(text)
        assert cfg.ray_direction == cfg.component_axis == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("vector", ["0.83 0.45 0.33", "3 -4 12", "1e-3 2e-3 0", "0.6 0.8 0"])
    def test_scaling_keeps_the_bits_of_the_plain_norm(self, vector):
        cfg = parse_config(MINIMAL + f"\n[observation]\nray_direction = {vector}\n")
        raw = np.array(vector.split(), dtype=float)
        assert cfg.ray_direction == tuple(float(v) for v in raw / np.linalg.norm(raw))


class TestWarnings:
    def test_coarse_velocity_grid_warns(self):
        text = """
[source]
sigma = 0.05

[pulse]
tau = 1.0

[observation]
times = uniform 0 40 21

[run]
tasks = velocity
"""
        cfg = parse_config(text)
        assert any("time step" in w for w in cfg.warnings)

    def test_fine_velocity_grid_is_silent(self):
        text = """
[source]
sigma = 0.05

[pulse]
tau = 10.0

[observation]
times = uniform 0 40 401

[run]
tasks = velocity
"""
        assert parse_config(text).warnings == ()
