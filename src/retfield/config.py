"""Declarative run configuration.

Configs are INI documents (``configparser`` syntax): one section per block,
whitespace-separated numbers for vectors and grids.  INI text
(``parse_config``) and the mapping echoed in a run report
(``config_from_mapping``) take one path to a ``RunConfig``: it materializes
every default and validates the result, so the echo always re-parses to an
equivalent configuration.  ``_KEYS`` names each section, key and field once;
it drives both the schema check and the echo.  Every number must be finite.

Sections and keys (defaults in parentheses):

  [constants]    c (1.0), coulomb (1.0)
  [source]       envelope (gaussian), sigma (required), center (0 0 0),
                 cut_radius (required for truncated-gaussian),
                 polarization (0 0 1), amplitude (1.0),
                 domain (ball), domain_center/domain_radius (ball only;
                 = center, 8 sigma), domain_lo/domain_hi (box only)
  [pulse]        kind (sine-squared), t_on (0.0), tau (1.0)
  [observation]  ray_origin (= domain center), ray_direction (1 0 0),
                 radii ("geometric START STOP COUNT" | "linear ..." |
                 "list R1 R2 ..."; default geometric over 2..20 domain
                 radii, 5 points), times ("uniform START STOP COUNT";
                 default covers switch-on to past the last arrival),
                 component_axis (= polarization)
  [quadrature]   base_order (12), max_order (24), tol (1e-8)
  [run]          tasks (required; subset of decompose compare frontcheck
                 velocity scaling), representation (zones), feature (peak),
                 window (full time range)
  [output]       directory (out), formats (csv json)
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .domains import Ball, Box, Domain, strictly_outside
from .evaluators import KERNELS
from .geometry import PhysicalConstants
from .sources import ENVELOPE_KINDS, PULSE_KINDS, SourceModel, make_envelope, make_profile

TASKS = ("decompose", "compare", "frontcheck", "velocity", "scaling")

#: Time-grid resolution rule for velocity runs: dt <= tau / this.
VELOCITY_RESOLUTION_FACTOR = 50.0

#: Section -> key -> RunConfig field, in the order of the report echo.
_KEYS = {
    "constants": {"c": "c", "coulomb": "coulomb"},
    "source": {
        "envelope": "envelope_kind",
        "sigma": "sigma",
        "center": "center",
        "cut_radius": "cut_radius",
        "polarization": "polarization",
        "amplitude": "amplitude",
        "domain": "domain_kind",
        "domain_center": "domain_center",
        "domain_radius": "domain_radius",
        "domain_lo": "domain_lo",
        "domain_hi": "domain_hi",
    },
    "pulse": {"kind": "pulse_kind", "t_on": "t_on", "tau": "tau"},
    "observation": {
        key: key
        for key in ("ray_origin", "ray_direction", "radii", "times", "component_axis")
    },
    "quadrature": {key: key for key in ("base_order", "max_order", "tol")},
    "run": {key: key for key in ("tasks", "representation", "feature", "window")},
    "output": {"directory": "output_directory", "formats": "output_formats"},
}


class ConfigError(ValueError):
    """A malformed or semantically invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully materialized run configuration (every default resolved)."""

    c: float
    coulomb: float
    envelope_kind: str
    sigma: float
    center: tuple[float, float, float]
    cut_radius: float | None
    polarization: tuple[float, float, float]
    amplitude: float
    domain_kind: str
    domain_center: tuple[float, float, float] | None
    domain_radius: float | None
    domain_lo: tuple[float, float, float] | None
    domain_hi: tuple[float, float, float] | None
    pulse_kind: str
    t_on: float
    tau: float
    ray_origin: tuple[float, float, float]
    ray_direction: tuple[float, float, float]
    radii: tuple[float, ...]
    times: tuple[float, ...]
    component_axis: tuple[float, float, float]
    base_order: int
    max_order: int
    tol: float
    tasks: tuple[str, ...]
    representation: str
    feature: str
    window: tuple[float, float] | None
    output_directory: str
    output_formats: tuple[str, ...]
    warnings: tuple[str, ...] = field(default=())

    def build_constants(self) -> PhysicalConstants:
        return PhysicalConstants(c=self.c, coulomb=self.coulomb)

    def build_domain(self) -> Domain:
        return _build_domain(
            self.domain_kind, self.domain_center, self.domain_radius,
            self.domain_lo, self.domain_hi,
        )

    def build_source(self) -> SourceModel:
        return SourceModel(
            envelope=make_envelope(
                self.envelope_kind, self.center, self.sigma, self.cut_radius
            ),
            profile=make_profile(self.pulse_kind, self.t_on, self.tau),
            polarization=np.asarray(self.polarization),
            amplitude=self.amplitude,
            domain=self.build_domain(),
        )

    def to_mapping(self) -> dict[str, Any]:
        """Nested-section echo of the config; JSON-serializable."""
        return {
            section: {key: _echo(getattr(self, name)) for key, name in keys.items()}
            for section, keys in _KEYS.items()
        }


def _echo(value):
    return list(value) if isinstance(value, tuple) else value


def _build_domain(kind, center, radius, lo, hi) -> Domain:
    return Ball(center=center, radius=radius) if kind == "ball" else Box(lo=lo, hi=hi)


def _fail(section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}")


def _parse_float(section, key, raw) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise _fail(section, key, f"expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise _fail(section, key, f"expected a finite number, got {raw!r}")
    return value


def _parse_int(section, key, raw) -> int:
    try:
        value = int(str(raw))
    except (TypeError, ValueError):
        raise _fail(section, key, f"expected an integer, got {raw!r}") from None
    return value


def _parse_vec(section, key, raw) -> tuple[float, float, float]:
    if isinstance(raw, (list, tuple)):
        parts = list(raw)
    else:
        parts = str(raw).replace(",", " ").split()
    if len(parts) != 3:
        raise _fail(section, key, f"expected three components, got {raw!r}")
    return tuple(_parse_float(section, key, p) for p in parts)


def _parse_words(raw) -> list[str]:
    if isinstance(raw, (list, tuple)):
        return [str(w) for w in raw]
    return str(raw).replace(",", " ").split()


def _parse_radii(section, key, raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_float(section, key, v) for v in raw)
    words = str(raw).split()
    if not words:
        raise _fail(section, key, "empty radii specification")
    mode = words[0]
    if mode == "list":
        if len(words) < 2:
            raise _fail(section, key, "list needs at least one radius")
        return tuple(_parse_float(section, key, w) for w in words[1:])
    if mode in ("geometric", "linear"):
        if len(words) != 4:
            raise _fail(section, key, f"{mode} needs START STOP COUNT")
        start = _parse_float(section, key, words[1])
        stop = _parse_float(section, key, words[2])
        count = _parse_int(section, key, words[3])
        if count < 1:
            raise _fail(section, key, "COUNT must be >= 1")
        if mode == "geometric":
            if start <= 0.0 or stop <= start:
                raise _fail(section, key, "geometric needs 0 < START < STOP")
            return tuple(float(v) for v in np.geomspace(start, stop, count))
        if stop <= start:
            raise _fail(section, key, "linear needs START < STOP")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    raise _fail(section, key, f"unknown radii mode {mode!r} (list|geometric|linear)")


def _parse_times(section, key, raw) -> tuple[float, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(_parse_float(section, key, v) for v in raw)
    words = str(raw).split()
    if len(words) != 4 or words[0] != "uniform":
        raise _fail(section, key, "expected 'uniform START STOP COUNT'")
    start = _parse_float(section, key, words[1])
    stop = _parse_float(section, key, words[2])
    count = _parse_int(section, key, words[3])
    if count < 2 or stop <= start:
        raise _fail(section, key, "need START < STOP and COUNT >= 2")
    return tuple(float(v) for v in np.linspace(start, stop, count))


def parse_config(text: str) -> RunConfig:
    """Parse and validate an INI run configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    # configparser would copy these keys into every section
    if parser.defaults():
        raise ConfigError("[DEFAULT] is not supported: put each key in its own section")
    return config_from_mapping(
        {section: dict(parser.items(section)) for section in parser.sections()}
    )


def config_from_mapping(mapping: dict[str, Any]) -> RunConfig:
    """Build a config from INI sections or an echoed report mapping."""
    raw: dict[str, dict[str, Any]] = {}
    for section, entries in mapping.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        raw[section] = {}
        for key, value in entries.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            if value is not None:
                raw[section][key] = value
    return _finalize(raw)


def _finalize(raw: dict[str, dict[str, Any]]) -> RunConfig:
    constants = raw.get("constants", {})
    c = _parse_float("constants", "c", constants.get("c", 1.0))
    coulomb = _parse_float("constants", "coulomb", constants.get("coulomb", 1.0))
    if c <= 0.0 or coulomb <= 0.0:
        raise ConfigError("[constants] c and coulomb must be positive")

    if "source" not in raw:
        raise ConfigError("missing required section [source]")
    source = raw["source"]
    envelope_kind = str(source.get("envelope", "gaussian"))
    if envelope_kind not in ENVELOPE_KINDS:
        raise _fail("source", "envelope", f"unknown envelope {envelope_kind!r}")
    if "sigma" not in source:
        raise _fail("source", "sigma", "required")
    sigma = _parse_float("source", "sigma", source["sigma"])
    if sigma <= 0.0:
        raise _fail("source", "sigma", "must be positive")
    center = _parse_vec("source", "center", source.get("center", (0.0, 0.0, 0.0)))
    cut_radius = None
    if envelope_kind == "truncated-gaussian":
        if "cut_radius" not in source:
            raise _fail("source", "cut_radius", "required for truncated-gaussian")
        cut_radius = _parse_float("source", "cut_radius", source["cut_radius"])
        if cut_radius <= 0.0:
            raise _fail("source", "cut_radius", "must be positive")
    elif "cut_radius" in source:
        raise _fail("source", "cut_radius", "only valid for truncated-gaussian")
    polarization = _parse_vec(
        "source", "polarization", source.get("polarization", (0.0, 0.0, 1.0))
    )
    if abs(np.linalg.norm(polarization) - 1.0) > 1e-12:
        raise _fail("source", "polarization", "polarization must be unit")
    amplitude = _parse_float("source", "amplitude", source.get("amplitude", 1.0))

    domain_kind = str(source.get("domain", "ball"))
    domain_center = domain_radius = domain_lo = domain_hi = None
    if domain_kind == "ball":
        domain_center = _parse_vec(
            "source", "domain_center", source.get("domain_center", center)
        )
        domain_radius = _parse_float(
            "source", "domain_radius", source.get("domain_radius", 8.0 * sigma)
        )
        if domain_radius <= 0.0:
            raise _fail("source", "domain_radius", "must be positive")
        if "domain_lo" in source or "domain_hi" in source:
            raise _fail("source", "domain_lo", "box bounds given for a ball domain")
    elif domain_kind == "box":
        if "domain_center" in source or "domain_radius" in source:
            raise _fail("source", "domain_center", "ball center/radius given for a box domain")
        if "domain_lo" not in source or "domain_hi" not in source:
            raise _fail("source", "domain_lo", "box domain needs domain_lo and domain_hi")
        domain_lo = _parse_vec("source", "domain_lo", source["domain_lo"])
        domain_hi = _parse_vec("source", "domain_hi", source["domain_hi"])
        if not all(h > l for l, h in zip(domain_lo, domain_hi)):
            raise _fail("source", "domain_hi", "box must have positive extent")
    else:
        raise _fail("source", "domain", f"unknown domain kind {domain_kind!r}")
    domain = _build_domain(domain_kind, domain_center, domain_radius, domain_lo, domain_hi)

    pulse = raw.get("pulse", {})
    pulse_kind = str(pulse.get("kind", "sine-squared"))
    if pulse_kind not in PULSE_KINDS:
        raise _fail("pulse", "kind", f"unknown pulse kind {pulse_kind!r}")
    t_on = _parse_float("pulse", "t_on", pulse.get("t_on", 0.0))
    tau = _parse_float("pulse", "tau", pulse.get("tau", 1.0))
    if tau <= 0.0:
        raise _fail("pulse", "tau", "must be positive")

    config = RunConfig(
        c=c,
        coulomb=coulomb,
        envelope_kind=envelope_kind,
        sigma=sigma,
        center=center,
        cut_radius=cut_radius,
        polarization=polarization,
        amplitude=amplitude,
        domain_kind=domain_kind,
        domain_center=domain_center,
        domain_radius=domain_radius,
        domain_lo=domain_lo,
        domain_hi=domain_hi,
        pulse_kind=pulse_kind,
        t_on=t_on,
        tau=tau,
        **_finalize_observation(raw, domain, polarization, c, t_on, tau),
        **_finalize_quadrature(raw),
        **_finalize_run(raw),
        **_finalize_output(raw),
    )
    return replace(config, warnings=_validate_semantics(config, domain))


def _finalize_observation(raw, domain: Domain, polarization, c, t_on, tau) -> dict[str, Any]:
    obs = raw.get("observation", {})
    ray_origin = _parse_vec(
        "observation", "ray_origin", obs.get("ray_origin", tuple(domain.center))
    )
    ray_direction = _parse_vec(
        "observation", "ray_direction", obs.get("ray_direction", (1.0, 0.0, 0.0))
    )
    norm = float(np.linalg.norm(ray_direction))
    if norm == 0.0:
        raise _fail("observation", "ray_direction", "must be nonzero")
    ray_direction = tuple(float(v / norm) for v in ray_direction)

    if "radii" in obs:
        radii = _parse_radii("observation", "radii", obs["radii"])
    else:
        extent = domain.diameter() / 2
        radii = tuple(float(v) for v in np.geomspace(2.0 * extent, 20.0 * extent, 5))
    if any(r <= 0.0 for r in radii) or any(
        b <= a for a, b in zip(radii[:-1], radii[1:])
    ):
        raise _fail("observation", "radii", "must be positive and strictly increasing")

    if "times" in obs:
        times = _parse_times("observation", "times", obs["times"])
    else:
        t_end = t_on + tau + max(radii) / c + tau
        times = tuple(float(v) for v in np.linspace(t_on, t_end, 64))
    steps = np.diff(times)
    if len(times) < 2 or np.any(steps <= 0.0) or not np.allclose(
        steps, steps[0], rtol=1e-9, atol=0.0
    ):
        raise _fail("observation", "times", "must be a uniformly increasing grid")

    component_axis = _parse_vec(
        "observation", "component_axis", obs.get("component_axis", polarization)
    )
    if not any(component_axis):
        raise _fail("observation", "component_axis", "must be nonzero")
    return {
        "ray_origin": ray_origin,
        "ray_direction": ray_direction,
        "radii": radii,
        "times": times,
        "component_axis": component_axis,
    }


def _finalize_quadrature(raw) -> dict[str, Any]:
    quad = raw.get("quadrature", {})
    base_order = _parse_int("quadrature", "base_order", quad.get("base_order", 12))
    max_order = _parse_int("quadrature", "max_order", quad.get("max_order", 24))
    tol = _parse_float("quadrature", "tol", quad.get("tol", 1e-8))
    if base_order < 1:
        raise _fail("quadrature", "base_order", "must be >= 1")
    if max_order < base_order + 2:
        raise _fail("quadrature", "max_order", "must be at least base_order + 2 (steps of 2)")
    if tol <= 0.0:
        raise _fail("quadrature", "tol", "must be positive")
    return {"base_order": base_order, "max_order": max_order, "tol": tol}


def _finalize_run(raw) -> dict[str, Any]:
    run = raw.get("run", {})
    if "tasks" not in run:
        raise _fail("run", "tasks", "required (may be an empty list)")
    tasks = tuple(_parse_words(run["tasks"]))
    for task in tasks:
        if task not in TASKS:
            raise _fail("run", "tasks", f"unknown task {task!r} (choose from {TASKS})")
    representation = str(run.get("representation", "zones"))
    if representation not in KERNELS:
        raise _fail(
            "run", "representation", f"unknown representation {representation!r}"
        )
    feature = str(run.get("feature", "peak"))
    if feature not in ("peak", "zero-crossing"):
        raise _fail("run", "feature", f"unknown feature {feature!r}")
    window = None
    if "window" in run:
        parts = _parse_words(run["window"])
        if len(parts) != 2:
            raise _fail("run", "window", "expected LO HI")
        window = tuple(_parse_float("run", "window", p) for p in parts)
        if window[1] <= window[0]:
            raise _fail("run", "window", "needs LO < HI")
    return {
        "tasks": tasks,
        "representation": representation,
        "feature": feature,
        "window": window,
    }


def _finalize_output(raw) -> dict[str, Any]:
    out = raw.get("output", {})
    directory = str(out.get("directory", "out"))
    formats = tuple(_parse_words(out.get("formats", "csv json")))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise _fail("output", "formats", f"unknown format {fmt!r}")
    return {"output_directory": directory, "output_formats": formats}


def _validate_semantics(config: RunConfig, domain: Domain) -> tuple[str, ...]:
    """Cross-key checks; returns the config's warnings."""
    origin = np.asarray(config.ray_origin)
    direction = np.asarray(config.ray_direction)
    for r in config.radii:
        if not strictly_outside(domain, origin + r * direction):
            raise _fail(
                "observation",
                "radii",
                f"radius {r} places the observation point inside the source domain",
            )
    if config.window is not None:
        lo, hi = config.window
        inside = [t for t in config.times if lo <= t <= hi]
        if len(inside) < 2:
            raise _fail("run", "window", "window covers fewer than two time samples")
    if "velocity" in config.tasks:
        dt = config.times[1] - config.times[0]
        limit = config.tau / VELOCITY_RESOLUTION_FACTOR
        if dt > limit:
            return (
                f"velocity task: time step {dt:.6g} exceeds tau/"
                f"{VELOCITY_RESOLUTION_FACTOR:g} = {limit:.6g}; "
                "arrival-time interpolation may be coarse",
            )
    return ()
