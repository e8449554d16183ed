"""Self-tests of the benchmark itself (about 40 s).

    python3 bench/selftest.py

* The correctness check passes real artifacts and counts perturbed ones as
  failed: Ez at one radius off by 1e-3, a dropped term, a field shifted by one time
  step (a wrong retarded time), and a moved arrival time.
* The tracer replaces attributes while installed and restores every one of
  them when uninstalled, and its counts repeat exactly.
* The benchmark's CSV artifacts, traced or not, are byte-identical to those
  of ``retfield run`` on the same config.
"""

from __future__ import annotations

import csv
import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from check import REFERENCE, _compare_velocity, check_config
from run import ROOT, Run

WORK = ROOT / ".bench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

TINY_CONFIG = """\
[source]
envelope = truncated-gaussian
sigma = 0.05
cut_radius = 0.1
domain_radius = 0.1
[pulse]
kind = differentiated-gaussian
tau = 4.0
[observation]
radii = list 0.5 0.8
times = uniform 0.0 6.0 7
[quadrature]
base_order = 4
max_order = 8
[run]
tasks = compare frontcheck decompose
"""

failures: list[str] = []


def expect(ok: bool, name: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def edit_csv(src: Path, dst: Path, edit) -> None:
    """Copy a waveform CSV, letting ``edit`` change its (rows, 12) value array."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(v) for v in row[2:-1]] for row in rows[1:]])
    edit(values)
    for row, new in zip(rows[1:], values):
        row[2:-1] = [f"{v:.17g}" for v in new]
    dst.write_text("\n".join(",".join(row) for row in rows) + "\n")


def perturbed(outdir: Path, name: str, edit) -> Path:
    """A copy of ``outdir`` whose CSV ``name`` was edited."""
    copy = outdir.with_name(outdir.name + "-perturbed")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(outdir, copy)
    edit_csv(outdir / name, copy / name, edit)
    return copy


def test_check(run: Run, label: str, name: str) -> None:
    outdir = run.work / "run" / label
    box = run.box if label == "box_jefimenko" else None
    expect(check_config(label, outdir, box) == [], f"{label}: real artifacts pass")

    def scale_radius(v):
        n_r = np.unique(np.loadtxt(outdir / name, delimiter=",", skiprows=1, usecols=0)).size
        v.reshape(n_r, -1, 12)[n_r // 2, :, 2] *= 1.0 + 1e-3

    def round_off(v):
        v *= 1.0 + 1e-12

    def drop_term(v):
        v[:, 0:3] -= v[:, 3:6]
        v[:, 3:6] = 0.0

    def shift_time(v):
        n_t = np.unique(np.loadtxt(outdir / name, delimiter=",", skiprows=1, usecols=1)).size
        v.reshape(-1, n_t, 12)[:, 1:] = v.reshape(-1, n_t, 12)[:, :-1].copy()

    for edit, should_fail in ((scale_radius, True), (round_off, False), (drop_term, True), (shift_time, True)):
        copy = perturbed(outdir, name, edit)
        problems = check_config(label, copy, box)
        verdict = "fails" if should_fail else "passes"
        expect(bool(problems) == should_fail, f"{label}: {name} with {edit.__name__} {verdict}")


def test_velocity_check() -> None:
    ref = REFERENCE / "negative_velocity" / "velocity.csv"
    data = np.loadtxt(ref, delimiter=",", skiprows=1)
    moved = WORK / "velocity.csv"
    data[3, 2] += 1e-4
    data[4, 1] += 1e-4
    header = ref.read_text().splitlines()[0]
    np.savetxt(moved, data, delimiter=",", fmt="%.17g", header=header, comments="")
    expect(_compare_velocity(ref, ref) == [], "velocity.csv: reference passes")
    expect(_compare_velocity(moved, ref) != [], "velocity.csv: arrival moved by 1e-4 fails")


def test_tracer() -> None:
    from retfield import config, runner
    from retfield.evaluators import EVALUATORS, zone_field
    from retfield.sources import GaussianEnvelope

    from tracer import Tracer, snapshot

    cfg = config.parse_config(TINY_CONFIG)
    before = snapshot()
    counts = []
    for k in range(2):
        with Tracer() as tracer:
            expect(snapshot() != before, f"tracer {k}: installed wrappers replace attributes")
            runner.run_tasks(cfg, output_dir=WORK / f"tiny{k}", threads=1)
        expect(snapshot() == before, f"tracer {k}: every attribute restored")
        counts.append({n: v for n, v in tracer.metrics().items() if not n.endswith("_s")})
    expect(EVALUATORS["zones"] is zone_field, "tracer: EVALUATORS entries restored")
    expect(
        GaussianEnvelope.value.__qualname__ == "GaussianEnvelope.value"
        and not hasattr(GaussianEnvelope.value, "__wrapped__"),
        "tracer: envelope methods restored",
    )
    frozen = dict(tracer.counts)
    runner.run_tasks(cfg, output_dir=WORK / "tiny-after", threads=1)
    expect(tracer.counts == frozen, "tracer: no counting after uninstall")
    expect(counts[0] == counts[1] and counts[0]["evaluators.zones_calls"] > 0,
           "tracer: counts repeat exactly")


def test_bytes_match_cli(run: Run) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for path in run.configs.values():
        subprocess.run(
            [sys.executable, "-m", "retfield.cli", "run", str(path),
             "--output-dir", str(WORK / "cli" / path.stem)],
            env=env, cwd=ROOT, check=True, capture_output=True,
        )
    for trace in (False, True):
        run.run_once(trace)
        for label, path in run.configs.items():
            cli_out, outdir = WORK / "cli" / path.stem, run.work / "run" / label
            names = sorted(p.name for p in cli_out.glob("*.csv"))
            same = names and all(filecmp.cmp(cli_out / n, outdir / n, shallow=False) for n in names)
            expect(bool(same), f"{label}: CSVs byte-identical to retfield run (traced={trace})")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    test_velocity_check()
    test_tracer()
    for workload, csv_names in (
        ("compare_pair", {"smooth_compare": "waveform_jefimenko.csv", "truncated_boundary": "waveform_zones.csv"}),
        ("box_jefimenko", {"box_jefimenko": "waveform_jefimenko.csv"}),
    ):
        run = Run(workload, seed=0)
        test_bytes_match_cli(run)
        expect(run.failed == 0, f"{workload}: benchmark runs pass their checks")
        for label, name in csv_names.items():
            test_check(run, label, name)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
