"""Task execution and artifact emission for configured runs.

A run first calibrates one quadrature rule on ``refined_field``'s ladder.
A task (one ``_TASKS`` entry) takes series from a per-run memo, writes
artifacts through ``emit`` and returns its details; the runner owns its
report entry, so an artifact written before a failure is still listed.
The memo samples every representation the tasks read in one sweep, at
most once; a thread pool may split it by radius, and artifacts are
byte-identical regardless of the worker count.  A failed physics check
(e.g. a front check on a leaky pulse) is recorded but is not an execution
error; only exceptions mark a task failed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    WaveformSeries,
    feature_arrival_times,
    light_front_check,
    local_velocity,
    sample_representations,
    zone_scaling_fit,
)
from .config import RunConfig
from .evaluators import KERNELS, RESIDUAL_FLOOR, ObservationPoint, normalized_residual, refined_field

logger = logging.getLogger(__name__)

_CSV_HEADER = (
    "r,t,Ex,Ey,Ez,term1x,term1y,term1z,term2x,term2y,term2z,"
    "term3x,term3y,term3z,representation"
)


#: Rows compared and formatted together by ``write_csv``: enough to spread
#: numpy's per-call cost, few enough that a block's text stays small.
CSV_BLOCK_ROWS = 256


def write_csv(path: Path | str, header: str, rows, suffix: str = "") -> Path:
    """Write ``header``, then one line per row of floats plus ``suffix``.

    Floats carry 17 significant digits (``%.17g``) so values round-trip
    exactly.  Within a block of ``CSV_BLOCK_ROWS`` rows, a value whose bits
    equal the value above it in its column reuses that value's text, so
    only fresh values are formatted; the block is then written as one
    string.  Comparing bits keeps ``0.0`` and ``-0.0`` apart.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"CSV rows must form a 2-D table, got shape {rows.shape}")
    path = Path(path)
    line = ",".join(["%s"] * rows.shape[1]) + suffix + "\n"
    with path.open("w") as f:
        f.write(header + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            bits = block.view(np.int64)
            fresh = np.ones(block.shape, dtype=bool)
            np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
            # Each entry's text is the pool entry of the last fresh value at
            # or above it in its column; pool ranks grow down every column.
            rank = np.cumsum(fresh).reshape(block.shape) - 1
            source = np.maximum.accumulate(np.where(fresh, rank, 0), axis=0)
            pool = np.array(["%.17g" % v for v in block[fresh].tolist()], dtype=object)
            f.write((line * len(block)) % tuple(pool[source].ravel().tolist()))
    return path


@dataclass
class TaskReport:
    name: str
    status: str = "ok"
    seconds: float = 0.0
    artifacts: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)


@dataclass
class RunReport:
    config: dict[str, Any]
    output_directory: str = ""
    tasks: list[TaskReport] = field(default_factory=list)
    #: Per sampled representation: cells, nodes, the most moments (basis
    #: rows) the pulse's sums keep at any radius, the representations its
    #: sweep covered (``sweep``) and the most entries a radius summed
    #: (``rings``); that sweep's seconds and node_evals_per_s (cells * nodes
    #: / seconds) are shared by all of them.
    profile: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Per written artifact: the seconds its writer took and its bytes.
    emission: dict[str, dict[str, Any]] = field(default_factory=dict)

    def any_errors(self) -> bool:
        return any(task.status == "error" for task in self.tasks)

    def to_mapping(self) -> dict[str, Any]:
        return {"tool": {"name": "retfield", "version": __version__}, **asdict(self)}


def emit_waveform_csv(series: WaveformSeries, path: Path | str) -> Path:
    """Write a series in the fixed column schema, rows sorted by (r, t).

    Two-term decompositions leave the term3 columns zero-filled.
    """
    if series.radii.size == 0 or series.times.size == 0:
        raise ValueError("refusing to write an empty waveform series")
    n_r, n_t = series.fields.shape[:2]
    rows = np.zeros((n_r, n_t, 14))
    rows[:, :, 0] = series.radii[:, None]
    rows[:, :, 1] = series.times
    rows[:, :, 2:5] = series.total_field()
    rows[:, :, 5 : 5 + 3 * len(series.terms)] = series.fields.reshape(n_r, n_t, -1)
    return write_csv(path, _CSV_HEADER, rows.reshape(-1, 14), f",{series.representation}")


def emit_velocity_csv(profile, path: Path | str) -> Path:
    """Write per-segment velocities: r_mid, t_star_lo, t_star_hi, v."""
    radii, arrivals = profile.radii, profile.arrival_times
    rows = np.column_stack(
        [0.5 * (radii[:-1] + radii[1:]), arrivals[:-1], arrivals[1:], profile.velocities]
    )
    return write_csv(path, "r_mid,t_star_lo,t_star_hi,v", rows)


def _calibrate(src, config: RunConfig, constants):
    """Pick the working quadrature rule on the refinement ladder.

    The probe sits at the closest radius (most demanding kernel) at a time
    when the pulse is in full swing there.  Returns the rule of the order
    the ladder stopped at and the report's quadrature details; a missed
    tolerance is logged, a stalled ladder raises ConvergenceError.
    """
    point = np.asarray(config.ray_origin) + min(config.radii) * np.asarray(config.ray_direction)
    t_probe = (
        config.t_on
        + src.domain.exterior_distance(point) / constants.c
        + 0.5 * config.tau
    )
    rules = {}
    error = refined_field(
        config.representation,
        src,
        ObservationPoint(x=point, t=t_probe),
        constants,
        config.base_order,
        config.max_order,
        config.tol,
        rule_cache=rules,
    ).quadrature_error
    rule = rules[max(rules)]
    met = error <= config.tol
    if not met:
        logger.warning(
            "quadrature order %d misses tol %g at the calibration probe: error estimate %.3g",
            rule.order,
            config.tol,
            error,
        )
    return rule, {"order": rule.order, "error_estimate": error, "tol": config.tol, "met": met}


def _task_decompose(src, config, constants, sample, emit) -> dict[str, Any]:
    series = sample(config.representation)
    emit(f"waveform_{config.representation}.csv", emit_waveform_csv, series)
    peak = float(np.abs(series.component()).max())
    return {"representation": config.representation, "peak_component": peak}


def _task_compare(src, config, constants, sample, emit) -> dict[str, Any]:
    e_zone = sample("zones").total_field()
    e_jef = sample("jefimenko").total_field()
    for representation in ("zones", "jefimenko"):
        emit(f"waveform_{representation}.csv", emit_waveform_csv, sample(representation))
    residuals = normalized_residual(e_zone, e_jef)
    # a cell's own magnitude is noise-sized once the pulse has passed, so
    # residual_max reads order one however well the forms agree; this one
    # scales each radius's gaps by its peak field
    gaps = np.linalg.norm(e_zone - e_jef, axis=-1)
    peaks = np.maximum(np.linalg.norm(e_zone, axis=-1), np.linalg.norm(e_jef, axis=-1))
    peaks = np.maximum(peaks.max(axis=1, keepdims=True), RESIDUAL_FLOOR)
    return {
        "residual_max": float(residuals.max()),
        "residual_mean": float(residuals.mean()),
        "residual_max_of_peak": float((gaps / peaks).max()),
        # a lower bound on the larger form's error where boundary_leakage is negligible
        "half_gap_max": 0.5 * float(np.abs(e_zone - e_jef).max()),
        "points": int(residuals.size),
        "boundary_leakage": src.boundary_leakage(),
    }


def _task_frontcheck(src, config, constants, sample, emit) -> dict[str, Any]:
    details = {}
    for representation in ("zones", "jefimenko"):
        result = light_front_check(sample(representation), src, constants)
        details[representation] = {
            "max_precursor": result.max_precursor,
            "peak": result.peak,
            "passed": result.passed,
        }
    details["passed"] = all(details[r]["passed"] for r in ("zones", "jefimenko"))
    return details


def _task_velocity(src, config, constants, sample, emit) -> dict[str, Any]:
    series = sample(config.representation)
    arrivals = feature_arrival_times(series, config.feature, config.window)
    profile = local_velocity(series.radii, arrivals, config.feature)
    emit("velocity.csv", emit_velocity_csv, profile)
    front = light_front_check(series, src, constants)
    finite = profile.velocities[np.isfinite(profile.velocities)]
    return {
        "feature": config.feature,
        "representation": config.representation,
        "min_velocity": float(finite.min()) if finite.size else None,
        "negative_segments": [list(seg) for seg in profile.negative_segments()],
        "front_check_passed": front.passed,
    }


def _task_scaling(src, config, constants, sample, emit) -> dict[str, Any]:
    """Fit falloff exponents: near in the static tail, the others at the pulse."""
    series = sample("zones")
    r_far = max(config.radii)
    passage_end = config.t_on + config.tau + (r_far + src.domain.diameter()) / constants.c
    static_window = (passage_end, config.times[-1])
    if static_window[1] <= static_window[0]:
        raise ValueError(
            "time grid ends before the field settles; extend [observation] times "
            f"past {passage_end:.6g} for the static near-term fit"
        )
    moving_window = (config.times[0], passage_end)
    exponents = {
        "near": zone_scaling_fit(series, "near", static_window),
        "intermediate": zone_scaling_fit(series, "intermediate", moving_window),
        "far": zone_scaling_fit(series, "far", moving_window),
    }
    amplitudes = [
        np.linalg.norm(series.term_field(term), axis=-1).max(axis=1)
        for term in ("near", "intermediate", "far")
    ]
    rows = np.column_stack([series.radii, *amplitudes])
    emit("scaling.csv", lambda path: write_csv(path, "r,near,intermediate,far", rows))
    return {
        "exponents": exponents,
        "static_window": list(static_window),
        "moving_window": list(moving_window),
    }


#: Task name -> (function, the representations it samples; None is the configured one).
_TASKS = {
    "decompose": (_task_decompose, (None,)),
    "compare": (_task_compare, ("zones", "jefimenko")),
    "frontcheck": (_task_frontcheck, ("zones", "jefimenko")),
    "velocity": (_task_velocity, (None,)),
    "scaling": (_task_scaling, ("zones",)),
}


def run_tasks(
    config: RunConfig,
    output_dir: Path | str | None = None,
    threads: int = 1,
) -> RunReport:
    """Execute the configured tasks in order and write all artifacts.

    Returns the report; it is also written as report.json when the json
    format is enabled.  Task exceptions are captured per task (status
    "error") rather than aborting the remaining tasks; a calibration that
    stalls raises ConvergenceError before any task runs.
    """
    outdir = Path(output_dir) if output_dir is not None else Path(config.output_directory)
    outdir.mkdir(parents=True, exist_ok=True)
    constants = config.build_constants()
    src = config.build_source()
    report = RunReport(config=config.to_mapping(), output_directory=str(outdir))
    fmts = config.output_formats

    rule = quadrature = None
    if config.tasks:
        rule, quadrature = _calibrate(src, config, constants)

    # A run has one rule and one grid, so the representation alone keys a
    # series, shared by every task.  The first request samples all the tasks
    # read in one sweep; if that fails, each is sampled alone from then on,
    # so that only the tasks that read a failing one fail.
    series: dict[str, WaveformSeries] = {}
    reads = {config.representation if r is None else r for n in config.tasks for r in _TASKS[n][1]}
    joint = [r for r in KERNELS if r in reads]
    grid = (config.ray_origin, config.ray_direction, config.radii, config.times, rule, constants,
            np.asarray(config.component_axis))

    def sample(representation: str) -> WaveformSeries:
        if representation in series:
            return series[representation]
        sweep = joint if representation in joint else [representation]
        start = time.perf_counter()
        try:
            series.update(sample_representations(src, sweep, *grid, threads))
        except Exception:
            if len(sweep) == 1:
                raise
            joint.clear()
            return sample(representation)
        seconds = time.perf_counter() - start
        cells = len(config.radii) * len(config.times)
        point = series[sweep[0]].point
        rings = max(len(rule) // rule.ring_at(point(i)) for i in range(len(config.radii)))
        for r in sweep:
            report.profile[r] = {
                "seconds": seconds,
                "cells": cells,
                "nodes": len(rule),
                "node_evals_per_s": cells * len(rule) / seconds,
                "moments": src.profile.most_moments(src.domain.diameter() / constants.c),
                "sweep": list(sweep),
                "rings": rings,
            }
        return series[representation]

    def emit(artifacts: list[str], name: str, writer, *args) -> None:
        """Write CSV artifact ``name`` as ``writer(*args, path)`` once per run and list it, if CSVs are on."""
        if "csv" not in fmts:
            return
        if name not in report.emission:
            start = time.perf_counter()
            path = writer(*args, outdir / name)
            seconds = time.perf_counter() - start
            report.emission[name] = {"seconds": seconds, "bytes": path.stat().st_size}
        artifacts.append(name)

    for name in config.tasks:
        task_report = TaskReport(name=name)
        start = time.perf_counter()
        try:
            task = _TASKS[name][0]
            task_report.details = task(src, config, constants, sample, partial(emit, task_report.artifacts))
        except Exception as exc:
            task_report.status = "error"
            task_report.details = {"error": f"{type(exc).__name__}: {exc}"}
        task_report.seconds = time.perf_counter() - start
        task_report.details.setdefault("quadrature", dict(quadrature))
        report.tasks.append(task_report)

    if "json" in fmts:
        (outdir / "report.json").write_text(json.dumps(report.to_mapping(), indent=2) + "\n")
    return report
