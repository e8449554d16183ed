"""Field samples along an observation ray, and their post-processing.

``sample_representations`` samples one or more representations on a
(radius, time) grid in one sweep (``sample_waveforms`` samples one).  The
rest turns the samples into the physics checks this package exists for:
exact vanishing ahead of the light front, power-law falloff of the
individual field terms, and the arrival-time/velocity profile of a tracked
waveform feature.  A feature whose arrival time *decreases* with radius
yields a negative local velocity; that happens strictly behind the front
and does not conflict with causality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluators import NodeKernel
from .geometry import NATURAL, PhysicalConstants, Vec3, as_vec3
from .quadrature import QuadratureRule
from .sources import SourceModel

#: Arrival-time differences below this are reported as infinite velocity.
VELOCITY_TIME_FLOOR = 1e-14

#: Precursor-to-peak ratio above which the causality check fails.
FRONT_RATIO = 1e-10


class FeatureNotFoundError(RuntimeError):
    """No trackable feature in the requested window at some radius."""


@dataclass(eq=False)
class WaveformSeries:
    """Field terms sampled on a (radius, time) grid along a ray.

    ``fields[i, j, k]`` is the term named ``terms[k]`` at ``ray_origin +
    radii[i] * ray_direction`` and ``times[j]``.  The scalar waveform used
    for feature tracking is the projection of the field onto
    ``component_axis``.
    """

    ray_origin: Vec3
    ray_direction: Vec3
    radii: np.ndarray
    times: np.ndarray
    terms: tuple[str, ...]
    fields: np.ndarray  # (n_radii, n_times, n_terms, 3)
    component_axis: Vec3
    representation: str

    def __post_init__(self):
        self.ray_origin = as_vec3(self.ray_origin)
        self.ray_direction = as_vec3(self.ray_direction)
        self.component_axis = as_vec3(self.component_axis)
        self.radii = np.asarray(self.radii, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.terms = tuple(self.terms)
        self.fields = np.asarray(self.fields, dtype=float)
        if self.radii.ndim != 1 or np.any(np.diff(self.radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        steps = np.diff(self.times)
        if self.times.ndim != 1 or np.any(steps <= 0.0):
            raise ValueError("times must be strictly increasing")
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("times must be uniformly spaced")
        shape = (self.radii.size, self.times.size, len(self.terms), 3)
        if self.fields.shape != shape:
            raise ValueError(f"fields have shape {self.fields.shape}, expected {shape}")

    def point(self, i: int) -> Vec3:
        return self.ray_origin + self.radii[i] * self.ray_direction

    def total_field(self) -> np.ndarray:
        """Total field as an (n_radii, n_times, 3) array, terms summed in order."""
        return self.fields.sum(axis=2)

    def term_field(self, name: str) -> np.ndarray:
        if name not in self.terms:
            raise KeyError(f"no term {name!r} in this series; it has {self.terms}")
        return self.fields[:, :, self.terms.index(name)]

    def component(self) -> np.ndarray:
        """Selected scalar waveform, shape (n_radii, n_times)."""
        return self.total_field() @ self.component_axis


def sample_waveforms(
    src: SourceModel, representation: str,
    ray_origin, ray_direction, radii, times, rule: QuadratureRule,
    constants: PhysicalConstants = NATURAL, component_axis=None, threads: int = 1,
) -> WaveformSeries:
    """Evaluate one representation on the full (radius, time) grid: the
    one-representation case of ``sample_representations``."""
    grid = (ray_origin, ray_direction, radii, times, rule, constants, component_axis, threads)
    return sample_representations(src, (representation,), *grid)[representation]


def sample_representations(
    src: SourceModel, representations,
    ray_origin, ray_direction, radii, times, rule: QuadratureRule,
    constants: PhysicalConstants = NATURAL, component_axis=None, threads: int = 1,
) -> dict[str, WaveformSeries]:
    """Evaluate several representations on the full (radius, time) grid in
    one sweep, and return one series per representation, keyed by it.

    Threads split the work by radius; each radius is evaluated at all
    times for every representation at once, on one node frame and one call
    of the pulse's sums (``evaluators.NodeKernel.sample``).  Every radius comes
    out the same whatever the thread layout, so the output is deterministic
    for a given build and list of representations.  The arrays are
    read-only, so one series can be shared by several consumers.
    """
    origin = as_vec3(ray_origin)
    direction = as_vec3(ray_direction)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("ray direction must be nonzero")
    direction = direction / norm
    radii = np.asarray(radii, dtype=float)
    times = np.asarray(times, dtype=float)
    axis = src.polarization if component_axis is None else as_vec3(component_axis)

    kernel = NodeKernel(src, rule, representations, constants)
    fields = [np.empty((radii.size, times.size, len(form.terms), 3)) for form in kernel.forms]

    def run(i):
        try:
            terms = kernel.sample(origin + radii[i] * direction, times)
        except Exception as exc:
            span = f"{times[0]}..{times[-1]}" if times.size else "none"
            raise RuntimeError(f"field evaluation failed at r={radii[i]}, t={span}: {exc}") from exc
        for out, value in zip(fields, terms):
            out[i] = value

    if threads <= 1:
        list(map(run, range(radii.size)))
    else:  # imported here: one thread loads neither the pool's module nor logging
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            # list() drains the map so a worker's exception is raised here
            list(pool.map(run, range(radii.size)))
    series = {}
    for form, out in zip(kernel.forms, fields):
        out.flags.writeable = False
        series[form.representation] = WaveformSeries(
            origin, direction, radii, times, form.terms, out, axis, form.representation
        )
    return series


def front_times(
    series: WaveformSeries, src: SourceModel, constants: PhysicalConstants = NATURAL
) -> np.ndarray:
    """Earliest possible arrival time at each sampled radius."""
    return np.array(
        [
            src.t_on + src.domain.exterior_distance(series.point(i)) / constants.c
            for i in range(series.radii.size)
        ]
    )


@dataclass(frozen=True)
class FrontCheckResult:
    max_precursor: float
    peak: float
    passed: bool


def light_front_check(
    series: WaveformSeries,
    src: SourceModel,
    constants: PhysicalConstants = NATURAL,
    ratio: float = FRONT_RATIO,
) -> FrontCheckResult:
    """Verify the field magnitude vanishes ahead of the light front.

    The precursor is the largest |E| over all samples strictly ahead of
    the front; it must not exceed ``ratio`` times the global peak |E|.
    Meaningful for compact-support pulses; clipped pulses report honestly.
    """
    fronts = front_times(series, src, constants)
    magnitudes = np.linalg.norm(series.total_field(), axis=-1)
    ahead = series.times[None, :] < fronts[:, None]
    peak = float(magnitudes.max()) if magnitudes.size else 0.0
    max_precursor = float(magnitudes[ahead].max()) if np.any(ahead) else 0.0
    return FrontCheckResult(
        max_precursor=max_precursor,
        peak=peak,
        passed=max_precursor <= ratio * peak,
    )


def _parabolic_peak(times: np.ndarray, values: np.ndarray, idx: int) -> float:
    if idx == 0 or idx == values.size - 1:
        return float(times[idx])
    s_lo, s_mid, s_hi = values[idx - 1], values[idx], values[idx + 1]
    denom = s_lo - 2.0 * s_mid + s_hi
    if denom >= 0.0:
        return float(times[idx])
    step = times[1] - times[0]
    return float(times[idx] + 0.5 * step * (s_lo - s_hi) / denom)


def feature_arrival_times(
    series: WaveformSeries,
    feature: str = "peak",
    window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Arrival time of a waveform feature at every radius.

    ``peak`` finds the maximum of the selected component inside the window
    and refines it with a three-point parabola; ``zero-crossing`` finds the
    first strict sign change and refines it linearly.
    """
    if feature not in ("peak", "zero-crossing"):
        raise ValueError(f"unknown feature {feature!r}")
    lo, hi = window if window is not None else (series.times[0], series.times[-1])
    mask = (series.times >= lo) & (series.times <= hi)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"window ({lo}, {hi}) covers fewer than two time samples")
    t_win = series.times[mask]
    component = series.component()[:, mask]

    arrivals = np.empty(series.radii.size)
    for i, signal in enumerate(component):
        if feature == "peak":
            if np.all(signal == signal[0]):
                raise FeatureNotFoundError(
                    f"flat window, no peak at radius {series.radii[i]}"
                )
            arrivals[i] = _parabolic_peak(t_win, signal, int(np.argmax(signal)))
        else:
            products = signal[:-1] * signal[1:]
            crossing = np.nonzero(products < 0.0)[0]
            if crossing.size == 0:
                raise FeatureNotFoundError(
                    f"no zero crossing in window at radius {series.radii[i]}"
                )
            j = int(crossing[0])
            frac = signal[j] / (signal[j] - signal[j + 1])
            arrivals[i] = t_win[j] + frac * (t_win[j + 1] - t_win[j])
    return arrivals


@dataclass(eq=False)
class VelocityProfile:
    """Finite-difference feature velocities between adjacent radii."""

    radii: np.ndarray
    arrival_times: np.ndarray
    velocities: np.ndarray  # one entry per adjacent radius pair
    feature: str

    def negative_segments(self) -> list[tuple[float, float]]:
        """Radius intervals where the tracked feature moves inward in time."""
        return [
            (float(self.radii[i]), float(self.radii[i + 1]))
            for i in range(self.velocities.size)
            if self.velocities[i] < 0.0
        ]


def local_velocity(radii, arrival_times, feature: str = "peak") -> VelocityProfile:
    """Velocity estimates dr/dt* between adjacent tracked radii.

    Negative entries mean the feature arrives *earlier* farther out; pairs
    with arrival times equal to within the floor are flagged infinite.
    """
    radii = np.asarray(radii, dtype=float)
    arrival_times = np.asarray(arrival_times, dtype=float)
    if radii.size != arrival_times.size or radii.size < 2:
        raise ValueError("need arrival times at two or more radii")
    dr = np.diff(radii)
    dt = np.diff(arrival_times)
    with np.errstate(divide="ignore"):
        velocities = np.where(np.abs(dt) < VELOCITY_TIME_FLOOR, np.inf, dr / dt)
    return VelocityProfile(
        radii=radii, arrival_times=arrival_times, velocities=velocities, feature=feature
    )


def zone_scaling_fit(
    series: WaveformSeries,
    term: str,
    window: tuple[float, float] | None = None,
) -> float:
    """Least-squares log-log slope of a term's peak magnitude versus radius.

    The amplitude at each radius is the maximum |term| over the window, so
    the fit tracks the feature at fixed retarded phase.
    """
    if series.radii.size < 5:
        raise ValueError("scaling fit needs at least five radii")
    span = series.radii[-1] / series.radii[0]
    if span < 10.0:
        raise ValueError(f"radii span only a factor {span:.3g}; need a decade")
    lo, hi = window if window is not None else (series.times[0], series.times[-1])
    mask = (series.times >= lo) & (series.times <= hi)
    if not np.any(mask):
        raise ValueError(f"window ({lo}, {hi}) contains no time samples")
    magnitudes = np.linalg.norm(series.term_field(term)[:, mask, :], axis=-1)
    amplitudes = magnitudes.max(axis=1)
    if np.any(amplitudes == 0.0):
        raise ValueError(f"term {term!r} vanishes in the window at some radius")
    slope, _ = np.polyfit(np.log(series.radii), np.log(amplitudes), 1)
    return float(slope)
