import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retfield
from retfield import evaluators, runner
from retfield.cli import main
from retfield.config import TASKS, config_from_mapping, parse_config
from retfield.evaluators import FieldDecomposition
from retfield.quadrature import ConvergenceError, build_rule
from retfield.runner import emit_waveform_csv, run_tasks, write_csv
from retfield.analysis import sample_waveforms
from retfield.domains import Ball
from retfield.sources import GaussianEnvelope, SineSquaredPulse, SourceModel, moment_count

QUICK = """
[source]
sigma = 0.05

[pulse]
tau = 8.0

[observation]
radii = list 1.0 1.5 2.0
times = uniform 0 16 9

[quadrature]
base_order = 8
max_order = 16
tol = 1e-8

[run]
tasks = decompose

[output]
directory = out
"""

CSV_HEADER = (
    "r,t,Ex,Ey,Ez,term1x,term1y,term1z,term2x,term2y,term2z,"
    "term3x,term3y,term3z,representation"
)


#: Oblique polarization on an off-axis ray with the derivative-of-Gaussian
#: pulse; CI runs the same config.  At t = 10 the pulse has passed r = 1.6,
#: where |E| is 2.6e-21 against that radius's peak 7.4e-3.
OBLIQUE = """
[source]
envelope = gaussian
sigma = 0.08
center = 0.01 -0.02 0.03
polarization = 0 0.6 0.8
amplitude = 1.0
domain = ball
domain_radius = 0.5

[pulse]
kind = differentiated-gaussian
t_on = 0.0
tau = 8.0

[observation]
ray_origin = 0 0.02 -0.01
ray_direction = 1 0.3 0.2
radii = list 1.0 1.6 2.5
times = uniform 0.0 12.0 25

[quadrature]
base_order = 12
max_order = 20
tol = 1e-9

[run]
tasks = compare
"""


#: A grid every task can run on; tasks and representation are replaced.
ALL_TASKS = """
[source]
sigma = 0.05

[pulse]
tau = 6.0

[observation]
radii = geometric 0.9 11.0 6
times = uniform 0 28 113

[quadrature]
base_order = 8
max_order = 12
tol = 1e-2

[run]
tasks = all
representation = zones
"""


def quick_config(tasks="decompose", extra=""):
    return parse_config(QUICK.replace("tasks = decompose", f"tasks = {tasks}") + extra)


def diverging_zones(src, obs, rule, constants):
    """Stand-in zones evaluator whose field moves more at every order."""
    return FieldDecomposition(
        terms={"near": np.array([rule.order**2, 0.0, 0.0])}, representation="zones"
    )


class TestRunTasks:
    def test_empty_task_list(self, tmp_path):
        report = run_tasks(quick_config(tasks=""), output_dir=tmp_path)
        assert report.tasks == []
        assert not report.any_errors()
        assert (tmp_path / "report.json").exists()

    def test_decompose_writes_schema_csv(self, tmp_path):
        config = quick_config()
        report = run_tasks(config, output_dir=tmp_path)
        assert [t.status for t in report.tasks] == ["ok"]
        lines = (tmp_path / "waveform_zones.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 9
        first = lines[1].split(",")
        assert len(first) == 15
        assert first[-1] == "zones"
        # rows sorted by (r, t)
        keys = [(float(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_jefimenko_run_zero_fills_term3(self, tmp_path):
        config = parse_config(
            QUICK.replace("tasks = decompose", "tasks = decompose\nrepresentation = jefimenko")
        )
        run_tasks(config, output_dir=tmp_path)
        lines = (tmp_path / "waveform_jefimenko.csv").read_text().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[11] == "0" and cells[12] == "0" and cells[13] == "0"
            assert cells[-1] == "jefimenko"

    def test_float_serialization_round_trips(self, tmp_path):
        run_tasks(quick_config(), output_dir=tmp_path)
        lines = (tmp_path / "waveform_zones.csv").read_text().splitlines()
        for line in lines[1:3]:
            cells = line.split(",")[:-1]
            for cell in cells:
                value = float(cell)
                assert f"{value:.17g}" == cell

    def test_rerun_is_byte_identical(self, tmp_path):
        run_tasks(quick_config(), output_dir=tmp_path / "a")
        run_tasks(quick_config(), output_dir=tmp_path / "b")
        assert (tmp_path / "a/waveform_zones.csv").read_bytes() == (
            tmp_path / "b/waveform_zones.csv"
        ).read_bytes()

    def test_thread_count_is_byte_identical(self, tmp_path):
        for threads in (1, 2, 4):
            run_tasks(quick_config(tasks="compare"), output_dir=tmp_path / str(threads), threads=threads)
        for name in ("waveform_zones.csv", "waveform_jefimenko.csv"):
            serial = (tmp_path / "1" / name).read_bytes()
            assert (tmp_path / "2" / name).read_bytes() == serial
            assert (tmp_path / "4" / name).read_bytes() == serial

    def test_report_profiles_each_sampling(self, tmp_path):
        # the sine-squared pulse keeps four exact basis rows; the Gaussian's
        # moments grow with the slab width: a ball 0.8 across and a width of
        # 0.5, so a slab can span a width
        for kind, moments in [("sine-squared", 4), ("differentiated-gaussian", moment_count(0.5))]:
            text = QUICK.replace("tasks = decompose", "tasks = compare")
            config = parse_config(text.replace("tau = 8.0", f"kind = {kind}\ntau = 8.0"))
            run_tasks(config, output_dir=tmp_path / kind)
            report = json.loads((tmp_path / kind / "report.json").read_text())
            order = report["tasks"][0]["details"]["quadrature"]["order"]
            src = config.build_source()
            nodes = len(build_rule(src.domain, order))
            profile = report["profile"]
            assert sorted(profile) == ["jefimenko", "zones"]
            for entry in profile.values():
                assert list(entry) == [
                    "seconds", "cells", "nodes", "node_evals_per_s", "moments", "sweep", "rings"
                ]
                assert entry["cells"] == 3 * 9
                assert entry["nodes"] == nodes
                assert entry["cells"] * entry["nodes"] / entry["seconds"] == pytest.approx(
                    entry["node_evals_per_s"]
                )
                assert entry["moments"] == moments
                # the ray runs through the ball's centre, along the rule's axis
                assert entry["rings"] == nodes // (2 * order)

    def test_off_axis_ray_sums_every_node(self, tmp_path):
        """OBLIQUE's ray misses the ball's centre, so no radius lies on the
        axis of the rule calibrated at its first radius."""
        report = run_tasks(parse_config(OBLIQUE), output_dir=tmp_path)
        order = report.tasks[0].details["quadrature"]["order"]
        for entry in report.profile.values():
            assert entry["rings"] == entry["nodes"] == 2 * order**3

    @pytest.mark.parametrize(
        "tasks", ["compare frontcheck", "velocity frontcheck"], ids=["compare", "velocity"]
    )
    def test_each_representation_sampled_once(self, tmp_path, monkeypatch, tasks):
        # both task pairs use zones and jefimenko; each is sampled once per
        # run, both in one sweep
        calls = []
        sample = runner.sample_representations

        def counting(src, representations, *args, **kwargs):
            calls.append(tuple(representations))
            return sample(src, representations, *args, **kwargs)

        monkeypatch.setattr(runner, "sample_representations", counting)
        report = run_tasks(quick_config(tasks=tasks), output_dir=tmp_path)
        assert [t.status for t in report.tasks] == ["ok", "ok"]
        assert calls == [("zones", "jefimenko")]
        for entry in report.profile.values():
            assert entry["sweep"] == ["zones", "jefimenko"]
        assert report.profile["zones"]["seconds"] == report.profile["jefimenko"]["seconds"]

    @pytest.mark.parametrize("representation", ["zones", "jefimenko"])
    @pytest.mark.parametrize("name", TASKS)
    def test_task_reads_what_its_table_entry_declares(
        self, tmp_path, monkeypatch, name, representation
    ):
        """Run alone, each task the config schema names samples exactly
        the representations that its ``_TASKS`` entry declares, and the
        run's one sweep covers exactly those."""
        assert set(runner._TASKS) == set(TASKS)
        read = set()
        task, reads = runner._TASKS[name]

        def recording(src, config, constants, sample, emit):
            return task(src, config, constants, lambda r: (read.add(r), sample(r))[1], emit)

        monkeypatch.setitem(runner._TASKS, name, (recording, reads))
        text = ALL_TASKS.replace("tasks = all", f"tasks = {name}")
        config = parse_config(text.replace("= zones", f"= {representation}"))
        report = run_tasks(config, output_dir=tmp_path)
        assert [t.status for t in report.tasks] == ["ok"]
        declared = {representation if r is None else r for r in reads}
        assert read == declared
        assert set(report.profile) == declared
        for entry in report.profile.values():
            assert entry["sweep"] == [r for r in ("zones", "jefimenko") if r in declared]

    @pytest.mark.parametrize("tasks", ["decompose compare", "compare decompose"])
    def test_failed_sampling_fails_only_the_tasks_that_read_it(self, tmp_path, monkeypatch, tasks):
        """The Jefimenko kernel fails, so the joint sweep does; decompose,
        which reads zones only, still gets its series and is ok."""

        def failing(self, kernel, r, theta, slots):
            raise FloatingPointError("charge columns")

        monkeypatch.setattr(evaluators.JefimenkoKernel, "columns", failing)
        report = run_tasks(quick_config(tasks=tasks), output_dir=tmp_path)
        statuses = {t.name: t.status for t in report.tasks}
        assert statuses == {"decompose": "ok", "compare": "error"}
        compare = next(t for t in report.tasks if t.name == "compare")
        assert "charge columns" in compare.details["error"]
        assert report.profile["zones"]["sweep"] == ["zones"]
        assert "jefimenko" not in report.profile
        alone = run_tasks(quick_config(tasks="decompose"), output_dir=tmp_path / "alone")
        assert alone.tasks[0].status == "ok"
        name = "waveform_zones.csv"
        assert (tmp_path / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_compare_reports_residuals(self, tmp_path):
        # coarse grid: this exercises the task plumbing, not physics precision
        report = run_tasks(quick_config(tasks="compare"), output_dir=tmp_path)
        details = report.tasks[0].details
        assert details["residual_max"] < 1e-2
        assert details["residual_mean"] <= details["residual_max"]
        assert details["boundary_leakage"] < 1e-13
        assert details["points"] == 27

    def test_compare_on_shipped_smooth_config(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "configs" / "smooth_compare.cfg"
        text = path.read_text().replace("tasks = compare frontcheck", "tasks = compare")
        report = run_tasks(parse_config(text), output_dir=tmp_path)
        details = report.tasks[0].details
        assert details["residual_max"] < 1e-6
        zones, jef = (
            np.loadtxt(tmp_path / f"waveform_{name}.csv", delimiter=",", skiprows=1, usecols=(2, 3, 4))
            for name in ("zones", "jefimenko")
        )
        # half the forms' gap, max norm: 5.7e-14 on the envelope-weighted
        # radial rule (1.0e-11 on Legendre's), above the probe's estimate
        assert details["half_gap_max"] == 0.5 * np.abs(zones - jef).max()
        assert 3e-14 < details["half_gap_max"] < 1.2e-13
        assert details["half_gap_max"] > details["quadrature"]["error_estimate"]

    def test_residual_of_peak_ignores_cells_the_pulse_has_left(self, tmp_path):
        """Where the field is noise-sized, a cell's own magnitude makes
        residual_max order one; gaps relative to each radius's peak show
        the forms agree to quadrature accuracy (1.0e-5 at order 14)."""
        details = run_tasks(parse_config(OBLIQUE), output_dir=tmp_path).tasks[0].details
        assert details["residual_max"] > 0.1
        assert 1e-7 < details["residual_max_of_peak"] < 1e-4
        zones, jef = (
            np.loadtxt(tmp_path / f"waveform_{name}.csv", delimiter=",", skiprows=1, usecols=(2, 3, 4))
            for name in ("zones", "jefimenko")
        )
        gaps = np.linalg.norm(zones - jef, axis=1).reshape(3, 25)
        peaks = np.maximum(np.linalg.norm(zones, axis=1), np.linalg.norm(jef, axis=1)).reshape(3, 25)
        expected = (gaps / peaks.max(axis=1, keepdims=True)).max()
        assert details["residual_max_of_peak"] == pytest.approx(expected, rel=1e-12)

    def test_frontcheck_passes_for_compact_pulse(self, tmp_path):
        report = run_tasks(quick_config(tasks="frontcheck"), output_dir=tmp_path)
        details = report.tasks[0].details
        assert details["passed"]
        assert details["zones"]["max_precursor"] == 0.0
        assert details["jefimenko"]["max_precursor"] == 0.0

    def test_velocity_task_artifacts(self, tmp_path):
        text = """
[source]
sigma = 0.05

[pulse]
tau = 8.0

[observation]
radii = list 4.0 5.0 6.0
times = uniform 0 24 241

[quadrature]
base_order = 8
max_order = 16
tol = 1e-8

[run]
tasks = velocity
window = 2 24
"""
        report = run_tasks(parse_config(text), output_dir=tmp_path)
        assert report.tasks[0].status == "ok"
        lines = (tmp_path / "velocity.csv").read_text().splitlines()
        assert lines[0] == "r_mid,t_star_lo,t_star_hi,v"
        assert len(lines) == 3  # header + 2 segments
        details = report.tasks[0].details
        # far-zone translating waveform: velocity near c
        assert details["min_velocity"] == pytest.approx(1.0, rel=0.05)
        assert details["front_check_passed"]

    def test_scaling_task(self, tmp_path):
        text = """
[source]
sigma = 0.05

[pulse]
tau = 6.0

[observation]
radii = geometric 0.9 11.0 6
times = uniform 0 28 113

[quadrature]
base_order = 10
max_order = 18
tol = 1e-8

[run]
tasks = scaling
"""
        report = run_tasks(parse_config(text), output_dir=tmp_path)
        assert report.tasks[0].status == "ok"
        exponents = report.tasks[0].details["exponents"]
        assert exponents["near"] == pytest.approx(-3.0, abs=0.15)
        assert exponents["intermediate"] == pytest.approx(-2.0, abs=0.15)
        assert exponents["far"] == pytest.approx(-1.0, abs=0.05)
        assert (tmp_path / "scaling.csv").exists()

    def test_calibration_reports_tolerance(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="retfield.runner"):
            report = run_tasks(quick_config(), output_dir=tmp_path)
        quadrature = report.tasks[0].details["quadrature"]
        assert quadrature["tol"] == 1e-8
        assert quadrature["met"] is True
        assert quadrature["error_estimate"] <= 1e-8
        assert caplog.records == []

    def test_missed_tolerance_is_reported_and_logged(self, tmp_path, caplog):
        # no step of the short ladder 8 -> 10 -> 12 gets below 1e-30
        text = QUICK.replace("max_order = 16", "max_order = 12")
        text = text.replace("tol = 1e-8", "tol = 1e-30")
        with caplog.at_level(logging.WARNING, logger="retfield.runner"):
            report = run_tasks(parse_config(text), output_dir=tmp_path)
        quadrature = report.tasks[0].details["quadrature"]
        assert quadrature["order"] == 12
        assert quadrature["met"] is False
        assert quadrature["tol"] == 1e-30
        assert quadrature["error_estimate"] > 1e-30
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "misses tol 1e-30" in caplog.text
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["tasks"][0]["details"]["quadrature"]["met"] is False

    def test_info_log_tells_the_run(self, tmp_path, caplog):
        """At INFO the runner logs the calibrated order and estimate, each
        sweep and each artifact it writes, in that order."""
        with caplog.at_level(logging.INFO, logger="retfield.runner"):
            report = run_tasks(quick_config("decompose compare"), output_dir=tmp_path)
        quadrature = report.tasks[0].details["quadrature"]
        written = [f"wrote {tmp_path / name}: {entry['bytes']} bytes in {entry['seconds']:.3f} s"
                   for name, entry in report.emission.items()]
        assert list(report.emission) == ["waveform_zones.csv", "waveform_jefimenko.csv"]
        assert {r.levelno for r in caplog.records} == {logging.INFO}
        assert [r.getMessage() for r in caplog.records] == [
            f"calibrated order {quadrature['order']}: "
            f"error estimate {quadrature['error_estimate']:.3g}, tol 1e-08",
            f"sampled zones and jefimenko: 27 cells in {report.profile['zones']['seconds']:.3f} s",
            *written,
            f"wrote {tmp_path / 'report.json'}",
        ]

    def test_stalled_calibration_raises(self, tmp_path, monkeypatch):
        monkeypatch.setitem(evaluators.EVALUATORS, "zones", diverging_zones)
        with pytest.raises(ConvergenceError, match="stalled"):
            run_tasks(quick_config(), output_dir=tmp_path)

    def test_task_error_is_captured_not_raised(self, tmp_path):
        # scaling cannot run: the time grid ends before the field settles
        text = """
[source]
sigma = 0.05

[observation]
radii = geometric 0.9 11.0 6
times = uniform 0 5 11

[run]
tasks = scaling decompose
"""
        report = run_tasks(parse_config(text), output_dir=tmp_path)
        statuses = {t.name: t.status for t in report.tasks}
        assert statuses == {"scaling": "error", "decompose": "ok"}
        assert report.any_errors()

    def test_failed_task_lists_the_artifacts_it_wrote(self, tmp_path, monkeypatch):
        """compare writes both waveforms before its residual step; when
        that step raises, the task is failed and still lists them."""

        def failing(a, b):
            raise FloatingPointError("residual")

        monkeypatch.setattr(runner, "normalized_residual", failing)
        report = run_tasks(quick_config(tasks="compare"), output_dir=tmp_path)
        (compare,) = report.tasks
        assert compare.status == "error"
        assert "residual" in compare.details["error"]
        assert compare.artifacts == ["waveform_zones.csv", "waveform_jefimenko.csv"]
        assert sorted(report.emission) == sorted(compare.artifacts)
        for name in compare.artifacts:
            assert (tmp_path / name).stat().st_size == report.emission[name]["bytes"]
        mapping = json.loads((tmp_path / "report.json").read_text())
        assert mapping["tasks"][0]["artifacts"] == compare.artifacts

    def test_component_axis_length_does_not_scale_results(self, tmp_path):
        peaks = []
        for axis in ("0 0 1", "0 0 2"):
            config = parse_config(QUICK.replace("[quadrature]", f"component_axis = {axis}\n[quadrature]"))
            report = run_tasks(config, output_dir=tmp_path / axis.replace(" ", ""))
            peaks.append(report.tasks[0].details["peak_component"])
            assert report.config["observation"]["component_axis"] == [0.0, 0.0, 1.0]
        assert peaks[0] == peaks[1] > 0.0

    def test_report_config_round_trips(self, tmp_path):
        config = quick_config(tasks="decompose")
        run_tasks(config, output_dir=tmp_path)
        mapping = json.loads((tmp_path / "report.json").read_text())
        assert config_from_mapping(mapping["config"]) == config

    def test_artifacts_referenced_in_report(self, tmp_path):
        run_tasks(quick_config(tasks="compare"), output_dir=tmp_path)
        mapping = json.loads((tmp_path / "report.json").read_text())
        for task in mapping["tasks"]:
            for artifact in task["artifacts"]:
                assert (tmp_path / artifact).exists()

    def test_report_records_each_artifacts_emission(self, tmp_path):
        report = run_tasks(quick_config(tasks="compare"), output_dir=tmp_path)
        mapping = json.loads((tmp_path / "report.json").read_text())
        assert mapping["emission"] == report.emission
        assert set(report.emission) == {"waveform_zones.csv", "waveform_jefimenko.csv"}
        for name, entry in report.emission.items():
            assert entry["bytes"] == (tmp_path / name).stat().st_size
            assert entry["seconds"] > 0.0

    def test_artifact_asked_for_twice_is_written_once(self, tmp_path, monkeypatch):
        """decompose and compare both list waveform_zones.csv; the run
        writes it once, with the bytes a compare-only run writes."""
        written = []

        def counting_writer(series, path):
            written.append(Path(path).name)
            return emit_waveform_csv(series, path)

        monkeypatch.setattr(runner, "emit_waveform_csv", counting_writer)
        report = run_tasks(quick_config(tasks="decompose compare"), output_dir=tmp_path / "both")
        assert sorted(written) == ["waveform_jefimenko.csv", "waveform_zones.csv"]
        assert [task.artifacts for task in report.tasks] == [
            ["waveform_zones.csv"],
            ["waveform_zones.csv", "waveform_jefimenko.csv"],
        ]
        run_tasks(quick_config(tasks="compare"), output_dir=tmp_path / "alone")
        assert set(report.emission) == set(written)
        for name, entry in report.emission.items():
            both = (tmp_path / "both" / name).read_bytes()
            assert both == (tmp_path / "alone" / name).read_bytes()
            assert entry["bytes"] == len(both)

    def test_json_only_format_writes_no_csv(self, tmp_path):
        config = parse_config(
            QUICK.replace("directory = out", "directory = out\nformats = json")
        )
        report = run_tasks(config, output_dir=tmp_path)
        assert report.emission == {} and report.tasks[0].artifacts == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_csv_only_format_skips_report(self, tmp_path):
        config = parse_config(
            QUICK.replace("directory = out", "directory = out\nformats = csv")
        )
        run_tasks(config, output_dir=tmp_path)
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "waveform_zones.csv").exists()


class TestEmitWaveformCsv:
    def test_refuses_empty_series(self, tmp_path):
        from retfield.analysis import WaveformSeries

        grid = dict(
            ray_origin=np.zeros(3),
            ray_direction=np.array([1.0, 0, 0]),
            component_axis=np.array([0.0, 0, 1.0]),
            representation="zones",
            terms=("near", "intermediate", "far"),
        )
        with pytest.raises(ValueError, match="shape"):
            WaveformSeries(
                radii=np.array([1.0]), times=np.array([0.0, 1.0]), fields=[[]], **grid
            )
        empty = WaveformSeries(
            radii=np.array([]), times=np.array([]), fields=np.zeros((0, 0, 3, 3)), **grid
        )
        with pytest.raises(ValueError, match="empty"):
            emit_waveform_csv(empty, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


def frozen_csv(header, rows, suffix=""):
    """The per-value f-string formatting the CSV writers used to apply."""
    lines = [header] + [",".join(f"{v:.17g}" for v in row) + suffix for row in rows]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4806, 14)) * 10.0 ** rng.integers(-300, 300, (4806, 14))
        rows[:40] = 0.0  # ahead of the light front
        rows[40:80] = -0.0
        rows[80, :6] = [1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.1]
        rows[:, 1] = np.linspace(0.0, 3.0, 4806)
        for suffix in ("", ",zones"):
            path = write_csv(tmp_path / "x.csv", "a,b", rows, suffix)
            assert path.read_text() == frozen_csv("a,b", rows, suffix)

    def test_header_only_for_no_rows(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", "a,b", np.zeros((0, 2)))
        assert path.read_text() == "a,b\n"

    def test_runs_crossing_row_blocks(self, tmp_path):
        block = runner.CSV_BLOCK_ROWS
        rows = np.zeros((3 * block + 5, 4))
        rows[:, 0] = np.repeat([1.0, 2.5], [block - 3, 2 * block + 8])  # r
        rows[:, 1] = np.arange(len(rows)) / 7.0  # no repeats
        rows[block - 1 : 2 * block + 2, 2] = 0.1  # a run over two block ends
        rows[block:, 3] = np.pi  # changes exactly at the first block start
        path = write_csv(tmp_path / "x.csv", "a,b,c,d", rows, ",zones")
        assert path.read_text() == frozen_csv("a,b,c,d", rows, ",zones")

    def test_signed_zeros_alternate(self, tmp_path):
        rows = np.zeros((2 * runner.CSV_BLOCK_ROWS + 1, 2))
        rows[1::2, 0] = -0.0
        rows[: runner.CSV_BLOCK_ROWS + 1, 1] = -0.0
        path = write_csv(tmp_path / "x.csv", "a,b", rows)
        assert path.read_text() == frozen_csv("a,b", rows)
        assert "-0,-0\n0,-0\n" in path.read_text()

    def test_non_finite_and_subnormal_runs(self, tmp_path):
        specials = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308]
        nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        column = np.repeat(specials + [nan_payload, 0.0], 40)
        rows = np.column_stack([column, column[::-1], np.roll(column, 7)])
        path = write_csv(tmp_path / "x.csv", "a,b,c", rows)
        assert path.read_text() == frozen_csv("a,b,c", rows)

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_row_counts_around_one_block(self, tmp_path, offset):
        n = 1 if offset is None else runner.CSV_BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        rows = np.round(rng.standard_normal((n, 3)), 1)  # some equal neighbours
        path = write_csv(tmp_path / "x.csv", "a,b,c", rows, ",jefimenko")
        assert path.read_text() == frozen_csv("a,b,c", rows, ",jefimenko")

    def test_one_column_table(self, tmp_path):
        rows = np.repeat([0.0, 1.0 / 3.0, -0.0, 1.0 / 3.0], 200)[:, None]
        path = write_csv(tmp_path / "x.csv", "v", rows)
        assert path.read_text() == frozen_csv("v", rows)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), ()])
    def test_rows_not_a_table_are_refused_before_writing(self, tmp_path, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            write_csv(tmp_path / "x.csv", "a,b", np.zeros(shape))
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("representation", ["zones", "jefimenko"])
    def test_sampled_series_matches_per_value_formatting(self, tmp_path, representation):
        sigma = 0.05
        src = SourceModel(
            envelope=GaussianEnvelope(center=(0, 0, 0), sigma=sigma),
            profile=SineSquaredPulse(t_on=0.0, tau=8.0),
            polarization=(0, 0, 1),
            amplitude=1.0,
            domain=Ball(center=(0, 0, 0), radius=10 * sigma),
        )
        radii, times = np.array([1.0, 2.0]), np.linspace(0.0, 20.0, 301)
        series = sample_waveforms(
            src, representation, (0, 0, 0), (1, 0, 0), radii, times, build_rule(src.domain, 10)
        )
        n_terms = len(series.terms)
        rows = [
            [r, t, *series.total_field()[i, j], *series.fields[i, j].ravel()]
            + [0.0] * 3 * (3 - n_terms)
            for i, r in enumerate(radii)
            for j, t in enumerate(times)
        ]
        # The static tail repeats: past the burst most field values equal
        # the value above them, so the writer's reuse is exercised.
        tail = np.asarray(rows)[-100:, 2:]
        assert (tail[1:] == tail[:-1]).mean() > 0.5
        path = emit_waveform_csv(series, tmp_path / "x.csv")
        assert path.read_text() == frozen_csv(CSV_HEADER, rows, f",{representation}")


class TestCli:
    def write(self, tmp_path, text=QUICK):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_run_exits_zero(self, tmp_path, capsys, caplog):
        """The CLI's handler stays at WARNING: a logger open to INFO adds
        nothing to what a run prints."""
        path = self.write(tmp_path)
        with caplog.at_level(logging.INFO, logger="retfield"):
            code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert any(r.levelno == logging.INFO for r in caplog.records)
        out, err = capsys.readouterr()
        assert out.startswith("decompose: ok (") and out.count("\n") == 1
        assert err == ""

    def test_validate_only(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code = main(["run", str(path), "--validate-only"])
        assert code == 0
        assert "config ok" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        path = self.write(tmp_path, QUICK.replace("sigma = 0.05", "sigma = -1"))
        code = main(["run", str(path)])
        assert code == 1
        assert "invalid config" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])  # missing config path
        assert excinfo.value.code == 1

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["render"])
        assert excinfo.value.code == 1

    def test_task_error_exits_two(self, tmp_path, capsys):
        text = """
[source]
sigma = 0.05

[observation]
radii = geometric 0.9 11.0 6
times = uniform 0 5 11

[run]
tasks = scaling
"""
        path = self.write(tmp_path, text)
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 2

    def test_stalled_calibration_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(evaluators.EVALUATORS, "zones", diverging_zones)
        path = self.write(tmp_path)
        code = main(["run", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "ConvergenceError: field refinement stalled" in capsys.readouterr().err

    def test_bad_thread_count(self, tmp_path, capsys):
        path = self.write(tmp_path)
        assert main(["run", str(path), "--threads", "0"]) == 1

    @pytest.mark.parametrize(
        "old, new",
        [
            ("sigma = 0.05", "sigma = 0.05\ndomain_radius = nan"),
            ("sigma = 0.05", "sigma = 0.05\namplitude = nan"),
            ("tau = 8.0", "tau = inf"),
        ],
        ids=["domain_radius", "amplitude", "tau"],
    )
    def test_non_finite_number_is_invalid_config(self, tmp_path, capsys, old, new):
        path = self.write(tmp_path, QUICK.replace(old, new))
        assert main(["run", str(path), "--validate-only"]) == 1
        captured = capsys.readouterr()
        assert "invalid config" in captured.err and "finite" in captured.err
        assert "config ok" not in captured.out

    def test_default_section_is_invalid_config(self, tmp_path, capsys):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "smooth_compare.cfg"
        text = "[DEFAULT]\nsigma = 0.05\n" + shipped.read_text().replace("sigma = 0.05\n", "")
        path = self.write(tmp_path, text)
        assert main(["run", str(path), "--validate-only"]) == 1
        captured = capsys.readouterr()
        assert "invalid config" in captured.err and "[DEFAULT]" in captured.err
        assert "config ok" not in captured.out

    def test_warnings_share_one_format(self, tmp_path, capsys):
        # a coarse velocity grid (config warning) and a missed tolerance
        # (logged by the runner): both print once per call, in one format
        text = QUICK.replace("tasks = decompose", "tasks = velocity")
        text = text.replace("max_order = 16", "max_order = 12").replace("tol = 1e-8", "tol = 1e-30")
        path = self.write(tmp_path, text)
        for _ in range(2):
            main(["run", str(path), "--output-dir", str(tmp_path / "out")])
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 2
            assert lines[0].startswith("retfield: warning: velocity task: time step")
            assert lines[1].startswith("retfield: warning: quadrature order 12 misses tol 1e-30")
        assert logging.getLogger("retfield").handlers == []

    def test_shipped_configs_never_load_numpy_polynomial(self, tmp_path):
        """Every Gauss-Legendre rule is the package's own: a fresh
        interpreter that runs each shipped config leaves numpy.polynomial
        unloaded."""
        configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
        code = (
            "import sys\n"
            "from retfield.cli import main\n"
            "for i, path in enumerate(sys.argv[2:]):\n"
            "    assert main(['run', path, '--output-dir', f'{sys.argv[1]}/{i}']) == 0\n"
            "print('numpy.polynomial' in sys.modules, 'numpy' in sys.modules)\n"
        )
        path = [str(Path(retfield.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *map(str, configs)],
                             env=env, capture_output=True, text=True, check=True)
        assert len(configs) == 3
        assert out.stdout.splitlines()[-1] == "False True"

    def test_velocity_warning_printed(self, tmp_path, capsys):
        text = QUICK.replace("tasks = decompose", "tasks = velocity")
        path = self.write(tmp_path, text)
        main(["run", str(path), "--validate-only"])
        assert "warning" in capsys.readouterr().err
