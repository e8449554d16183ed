"""Offline benchmark of retfield: wall time to a checked field, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; retfield is imported from its ``src``.
Every measured process is a fresh interpreter running one workload on one
thread (BLAS included), one at a time.

``--trace 0`` times ``run_tasks`` on the workload's configs again and
again until ``--seconds`` have passed (at least once), checks every run's
artifacts (check.py), and times at least five fresh set-ups spread over
the run.  ``--trace 1`` makes one untraced and one traced run (tracer.py)
and reports the per-layer counters, the traced run's overhead, and the
calibration each config's report records.  Both print the environment
and every metric with its unit, and as the last line the JSON result:
end-to-end metrics for ``--trace 0``, per-layer metrics for ``--trace 1``,
as BENCHMARK.json lists them.  Per-run details are kept in ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import box_errors, check_config
from workloads import WORKLOADS, box_parameters, config_paths

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: Fewest fresh set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 5
#: A child that runs longer than this is stopped and its run counted failed.
CHILD_TIMEOUT_S = 150.0
#: One measured process uses one core: a multi-threaded BLAS would also use
#: the second core, whose load from other processes made runs bimodal
#: (compare_pair 2.05-2.73 s threaded against 2.60-2.93 s with one thread)
#: and peak memory vary by 40%.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def _child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[dict | None, float, str]:
    """Run child.py; returns its JSON result (None on failure), seconds, stderr."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return None, time.perf_counter() - start, f"timed out after {exc.timeout:.0f} s"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return None, elapsed, proc.stderr.strip()[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, proc.stderr


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; git is not run."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


class Run:
    """One benchmark invocation: a workload, its configs and its checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.work = ROOT / ".bench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.configs = config_paths(self.workload, seed, ROOT, self.work)
        self.box = box_parameters(seed) if "box_jefimenko" in self.configs else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, dict] = {}  # of the last run that passed its checks

    def setup_once(self) -> float:
        """Seconds for a fresh interpreter to import, parse and build."""
        result, elapsed, err = _child(["setup", *map(str, self.configs.values())])
        if result is None:
            raise BenchmarkError(f"set-up failed: {err}")
        return elapsed

    def run_once(self, trace: bool) -> dict | None:
        """One run of every config, checked; None if the process itself failed.

        A run whose artifacts fail a check still returns its timings, and is
        counted failed.
        """
        args = ["run", "1" if trace else "0"]
        outdirs = {}
        for label, path in self.configs.items():
            outdirs[label] = self.work / "run" / label
            shutil.rmtree(outdirs[label], ignore_errors=True)
            args += [str(path), str(outdirs[label])]
        self.attempted += 1
        result, _, err = _child(args)
        if result is None:
            problems = [f"run failed: {err}"]
        else:
            problems = []
            for label, outdir in outdirs.items():
                box = self.box if label == "box_jefimenko" else None
                problems += [f"{label}: {p}" for p in check_config(label, outdir, box)]
            if trace and not result["trace_restored"]:
                problems.append("tracer left retfield attributes replaced")
            if not problems:
                self.reports = {label: _report_summary(d) for label, d in outdirs.items()}
        if problems:
            self.failed += 1
            self.problems += problems
        return result


def _report_summary(outdir: Path) -> dict:
    report = json.loads((outdir / "report.json").read_text())
    quad = report["tasks"][0]["details"]["quadrature"]
    return {
        "tol": report["config"]["quadrature"]["tol"],
        "order": quad["order"],
        "error_estimate": quad["error_estimate"],
        "tasks_s": {t["name"]: t["seconds"] for t in report["tasks"]},
        "csv_bytes": sum(
            (outdir / a).stat().st_size for t in report["tasks"] for a in t["artifacts"] if a.endswith(".csv")
        ),
    }


def _calibration(reports: dict) -> dict:
    """Per-workload calibration: highest order, and 1 only if every config met tol."""
    met = [r["error_estimate"] is not None and r["error_estimate"] <= r["tol"] for r in reports.values()]
    return {
        "runner.quad_order": max(r["order"] for r in reports.values()),
        "runner.tol_met": float(all(met)),
        "runner.tasks_s": sum(sum(r["tasks_s"].values()) for r in reports.values()),
        "runner.csv_bytes": sum(r["csv_bytes"] for r in reports.values()),
    }


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """End-to-end metrics, per-layer metrics (empty unless tracing) and samples."""
    # Set-ups are spread over the run, half of the minimum before the first
    # run and one after each, so that they sample the same machine load.
    setup = [run.setup_once() for _ in range(SETUP_REPEATS // 2)]
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        result = run.run_once(trace=False)
        if result is not None:
            walls.append(sum(result["seconds"]))
            rss.append(result["peak_rss_mb"])
        elif not walls and run.attempted < 3:
            continue
        setup.append(run.setup_once())
        # Start another run only if it should end before the deadline.
        if trace or 2 * time.perf_counter() - began > deadline:
            break
    setup += [run.setup_once() for _ in range(SETUP_REPEATS - len(setup))]
    if not walls:
        raise BenchmarkError("no run completed: " + "; ".join(run.problems[:3]))
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    per_layer = {}
    if trace:
        result = run.run_once(trace=True)
        if result is not None and run.reports:
            per_layer = dict(result["trace"])
            per_layer.update(_calibration(run.reports))
            per_layer["trace.overhead"] = sum(result["seconds"]) / end_to_end["wall_s"]
    return end_to_end, per_layer, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for required in (ROOT / "src" / "retfield" / "__init__.py", ROOT / "configs"):
            if not required.exists():
                raise BenchmarkError(f"{required.relative_to(ROOT)} is missing; run from a checkout")
        env = environment(args.workload, args.seed, args.trace)
        run = Run(args.workload, args.seed)
        _child(["setup", *map(str, run.configs.values())])  # fills bytecode caches, untimed
        end_to_end, per_layer, samples = measure(run, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    measured = {**end_to_end, **per_layer}
    missing = [name for name in wanted if name not in measured]

    w = run.workload
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {w.name}: {w.cells} cells x {w.nodes} nodes, configs {', '.join(run.configs)}")
    for label, rep in run.reports.items():
        met = rep["error_estimate"] is not None and rep["error_estimate"] <= rep["tol"]
        print(
            f"calibration {label}: order {rep['order']}, probe error {rep['error_estimate']:.3g}, "
            f"tol {rep['tol']:g}, met {int(met)}; task seconds "
            + ", ".join(f"{k} {v:.3f}" for k, v in rep["tasks_s"].items())
        )
        if label == "box_jefimenko" and not run.failed:
            grid_error = box_errors(run.work / "run" / label, run.box, rep["order"])[0]
            print(f"grid error {label}: {grid_error:.3g} of the peak field, against a converged "
                  "independent quadrature; the probe error above does not see it")
    for name, values in samples.items():
        print(f"{name} {end_to_end[name]:.6g} {units[name]} (median of {len(values)}: "
              + " ".join(f"{v:.4g}" for v in values) + ")")
    print(f"fail_frac {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} runs failed)")
    for name in sorted(per_layer):
        print(f"{name} {per_layer[name]:.6g} {units.get(name, '')}")
    for problem in run.problems:
        print(f"problem: {problem}")

    if missing:
        print("bench: not measured: " + ", ".join(missing), file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in wanted},
    }
    record = {"env": env, "samples": samples, "reports": run.reports, "problems": run.problems,
              "result": result, "per_layer": per_layer}
    (run.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
