"""Correctness checks on the artifacts of one benchmark run.

Each function returns a list of problems; an empty list means the run is
correct.  CSVs of the shipped configs are compared with reference outputs
recorded from the seed commit (``reference/``, written by
``record_reference.py``); the generated box workload, whose inputs change
with the seed, is compared with an independent quadrature of the
retarded charge/current form computed here.  The paper's verdicts are
asserted from each ``report.json``.

Tolerances, measured on the seed commit:

* Waveform CSVs: at each radius, the largest error over every field and
  term column, relative to that radius's peak field component, must stay
  within ``WAVEFORM_RTOL``.  Re-running ``smooth_compare`` at quadrature
  orders 24-28 instead of the calibrated 22 moves this by at most 2.2e-8;
  dropping to order 20, whose probe error exceeds ``tol``, moves it 1.5e-6.
  A dropped term or a wrong retarded time moves it by far more than 1e-3.
* ``velocity.csv``: arrival times within ``ARRIVAL_ATOL`` and slownesses
  1/v within ``SLOWNESS_ATOL``; orders 18-24 move them by under 3e-10.
  The velocity itself is not compared: near v = -204 it amplifies
  arrival-time rounding by 1e3.
* Front-check peaks within ``PEAK_RTOL``: wide enough for the known
  Jefimenko calibration miss on ``negative_velocity`` (1.2e-4 relative,
  see ``runner.tol_met``) to be fixed without failing the check.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

WAVEFORM_RTOL = 1e-6
ARRIVAL_ATOL = 1e-6
SLOWNESS_ATOL = 1e-4
PEAK_RTOL = 1e-3
GRID_RTOL = 1e-12

WAVEFORM_HEADER = (
    "r,t,Ex,Ey,Ez,term1x,term1y,term1z,term2x,term2y,term2z,"
    "term3x,term3y,term3z,representation"
)

#: Box oracle: converged Gauss-Legendre points per axis, and every how many
#: times it samples.
ORACLE_ORDER = 24
ORACLE_TIME_STRIDE = 16


def read_waveform(path: Path):
    """(r, t) grid as (n, 2), the 12 value columns as (n, 12), representations."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != WAVEFORM_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    body = rows[1:]
    numbers = np.array([[float(v) for v in row[:-1]] for row in body])
    return numbers[:, :2], numbers[:, 2:], {row[-1] for row in body}


def waveform_error(values: np.ndarray, reference: np.ndarray, n_radii: int) -> float:
    """Largest per-radius error relative to that radius's peak field component."""
    got = values.reshape(n_radii, -1, 12)
    ref = reference.reshape(n_radii, -1, 12)
    scale = np.abs(ref[..., :3]).max(axis=(1, 2))
    return float((np.abs(got - ref).max(axis=(1, 2)) / scale).max())


def _compare_waveform(path: Path, ref_path: Path, representation: str) -> list[str]:
    grid, values, reps = read_waveform(path)
    ref_grid, ref_values, _ = read_waveform(ref_path)
    if grid.shape != ref_grid.shape or not np.allclose(grid, ref_grid, rtol=GRID_RTOL, atol=0):
        return [f"{path.name}: (r, t) grid differs from the reference"]
    problems = []
    if reps != {representation}:
        problems.append(f"{path.name}: representation column {sorted(reps)}")
    err = waveform_error(values, ref_values, np.unique(grid[:, 0]).size)
    if not err <= WAVEFORM_RTOL:
        problems.append(f"{path.name}: error {err:.3e} > {WAVEFORM_RTOL:g} against the reference")
    return problems


def _compare_velocity(path: Path, ref_path: Path) -> list[str]:
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ref = np.loadtxt(ref_path, delimiter=",", skiprows=1, ndmin=2)
    if got.shape != ref.shape or not np.allclose(got[:, 0], ref[:, 0], rtol=GRID_RTOL, atol=0):
        return [f"{path.name}: radius grid differs from the reference"]
    problems = []
    arrival = float(np.abs(got[:, 1:3] - ref[:, 1:3]).max())
    if not arrival <= ARRIVAL_ATOL:
        problems.append(f"{path.name}: arrival times off by {arrival:.3e}")
    slowness = float(np.abs(1.0 / got[:, 3] - 1.0 / ref[:, 3]).max())
    if not slowness <= SLOWNESS_ATOL:
        problems.append(f"{path.name}: slowness off by {slowness:.3e}")
    return problems


def _tasks(outdir: Path) -> dict:
    report = json.loads((outdir / "report.json").read_text())
    return {task["name"]: task for task in report["tasks"]}


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _check_shipped(label: str, outdir: Path, tasks: dict) -> list[str]:
    ref_dir = REFERENCE / label
    problems: list[str] = []
    if label in ("smooth_compare", "truncated_boundary"):
        for rep in ("zones", "jefimenko"):
            name = f"waveform_{rep}.csv"
            problems += _compare_waveform(outdir / name, ref_dir / name, rep)
        residual = tasks["compare"]["details"]["residual_max"]
        if label == "smooth_compare":
            _expect(problems, residual < 1e-6, f"residual_max {residual:.3e} not < 1e-6")
            _expect(problems, tasks["frontcheck"]["details"]["passed"], "front check failed")
        else:
            _expect(problems, residual >= 0.1, f"residual_max {residual:.3e} is not order one")
    elif label == "negative_velocity":
        problems += _compare_velocity(outdir / "velocity.csv", ref_dir / "velocity.csv")
        velocity = tasks["velocity"]["details"]
        _expect(problems, len(velocity["negative_segments"]) > 0, "no negative-velocity segment")
        _expect(problems, velocity["front_check_passed"], "velocity front check failed")
        front = tasks["frontcheck"]["details"]
        _expect(problems, front["passed"], "front check failed")
        peaks = json.loads((ref_dir / "frontcheck_peaks.json").read_text())
        for rep, ref in peaks.items():
            err = abs(front[rep]["peak"] - ref) / abs(ref)
            _expect(problems, err <= PEAK_RTOL, f"{rep} front-check peak off by {err:.3e}")
    return problems


def _sine_squared(t_on: float, tau: float, t: np.ndarray):
    """Derivative and running integral of the sine-squared pulse."""
    u = (t - t_on) / tau
    inside = (u > 0.0) & (u < 1.0)
    rate = np.where(inside, np.pi / tau * np.sin(2.0 * np.pi * u), 0.0)
    ramp = tau * (0.5 * u - np.sin(2.0 * np.pi * u) / (4.0 * np.pi))
    integral = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 0.5 * tau, ramp))
    return rate, integral


def jefimenko_oracle(p: dict, radii: np.ndarray, times: np.ndarray, order: int) -> np.ndarray:
    """Current and charge terms of the box source, shape (radii, times, 2, 3).

    E = -(k/c^2) p int g f'(t_r)/R - k int grad rho(t_r)/R with
    grad rho = -A F(t_r) H p, on a tensor Gauss-Legendre rule of ``order``
    points per axis; c = k = 1, the config defaults.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    h = p["half_width"]
    axis, axis_w = h * x, h * w
    nodes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.einsum("i,j,k->ijk", axis_w, axis_w, axis_w).reshape(-1)

    sigma, pol, amp = p["sigma"], np.asarray(p["polarization"]), p["amplitude"]
    offset = nodes - np.asarray(p["center"])
    g = np.exp(-0.5 * np.sum(offset**2, axis=1) / sigma**2)
    hess_pol = (offset * (offset @ pol)[:, None] / sigma**4 - pol / sigma**2) * g[:, None]

    direction = np.asarray(p["ray_direction"])
    direction = direction / np.linalg.norm(direction)
    out = np.empty((radii.size, times.size, 2, 3))
    for i, r in enumerate(radii):
        dist = np.linalg.norm(np.asarray(p["ray_origin"]) + r * direction - nodes, axis=1)
        rate, integral = _sine_squared(0.0, p["tau"], times[:, None] - dist[None, :])
        out[i, :, 0] = -np.outer(rate @ (weights * amp * g / dist), pol)
        out[i, :, 1] = amp * integral @ ((weights / dist)[:, None] * hess_pol)
    return out


def _as_columns(terms: np.ndarray) -> np.ndarray:
    """Oracle terms as the CSV's 12 value columns: total, current, charge, zeros."""
    zeros = np.zeros(terms.shape[:2] + (3,))
    return np.concatenate([terms.sum(axis=2), terms.reshape(*terms.shape[:2], 6), zeros], axis=-1)


def box_errors(outdir: Path, params: dict, order: int) -> tuple[float, float]:
    """Error of the CSV, and of a tensor rule of the program's ``order``, against
    the converged oracle, at every ``ORACLE_TIME_STRIDE``-th time."""
    grid, values, _ = read_waveform(outdir / "waveform_jefimenko.csv")
    radii = np.geomspace(*params["radii"][:2], params["radii"][2])
    times = np.linspace(*params["times"][:2], params["times"][2])[::ORACLE_TIME_STRIDE]
    converged = _as_columns(jefimenko_oracle(params, radii, times, ORACLE_ORDER))
    same_rule = _as_columns(jefimenko_oracle(params, radii, times, order))
    got = values.reshape(radii.size, -1, 12)[:, ::ORACLE_TIME_STRIDE]
    return (
        waveform_error(got, converged, radii.size),
        waveform_error(same_rule, converged, radii.size),
    )


def _check_box(outdir: Path, params: dict, order: int) -> list[str]:
    """The sine-squared pulse's kinks make the grid error at the calibrated
    order far larger than the probe error (2.3e-5 relative at order 16 on the
    seed commit against an order-24 oracle), so the CSV may be as far from the converged oracle as a
    tensor rule of the program's own order is, twice over, or
    ``WAVEFORM_RTOL``, whichever is larger."""
    path = outdir / "waveform_jefimenko.csv"
    grid, _, reps = read_waveform(path)
    radii = np.geomspace(*params["radii"][:2], params["radii"][2])
    times = np.linspace(*params["times"][:2], params["times"][2])
    expected = np.stack(np.meshgrid(radii, times, indexing="ij"), axis=-1).reshape(-1, 2)
    if grid.shape != expected.shape or not np.allclose(grid, expected, rtol=GRID_RTOL, atol=0):
        return [f"{path.name}: (r, t) grid differs from the config"]
    problems: list[str] = []
    _expect(problems, reps == {"jefimenko"}, f"{path.name}: representation column {sorted(reps)}")
    err, rule_err = box_errors(outdir, params, order)
    limit = max(WAVEFORM_RTOL, 2.0 * rule_err)
    _expect(problems, err <= limit, f"{path.name}: error {err:.3e} > {limit:.3e} against the oracle")
    return problems


def check_config(label: str, outdir: Path, box_params: dict | None = None) -> list[str]:
    """Problems with one config's artifacts; empty when they are correct."""
    try:
        tasks = _tasks(outdir)
        problems = [
            f"task {name}: {task['details'].get('error', task['status'])}"
            for name, task in tasks.items()
            if task["status"] != "ok"
        ]
        for task in tasks.values():
            problems += [f"missing artifact {a}" for a in task["artifacts"] if not (outdir / a).is_file()]
        if problems:
            return problems
        if box_params is not None:
            order = tasks["decompose"]["details"]["quadrature"]["order"]
            return _check_box(outdir, box_params, order)
        return _check_shipped(label, outdir, tasks)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{label}: unreadable artifacts: {type(exc).__name__}: {exc}"]
