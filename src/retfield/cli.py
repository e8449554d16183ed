"""Command line front-end: ``retfield run CONFIG [options]``.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
task could not be executed (numeric or I/O failure) or the quadrature
calibration stalled.  A physics check that merely reports "failed" in the
run report does not change the exit code.

While ``main`` runs, config warnings and the ``retfield`` logger's warnings
print to stderr as ``retfield: warning: ...``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .runner import run_tasks

# Named explicitly: under ``python -m retfield.cli`` this module is __main__.
_log = logging.getLogger("retfield")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # runtime failures and reports usage problems as 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="retfield",
        description="Evaluate retarded electric fields of configured sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute the tasks in a run configuration")
    run.add_argument("config", type=Path, help="path to an INI run configuration")
    run.add_argument(
        "--validate-only",
        action="store_true",
        help="parse and validate the config, then exit without running tasks",
    )
    run.add_argument(
        "--threads", type=int, default=1, help="worker threads for grid evaluation"
    )
    run.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="override the [output] directory from the config",
    )
    return parser


def main(argv=None) -> int:
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("retfield: warning: %(message)s"))
    _log.addHandler(handler)
    try:
        return _main(argv)
    finally:
        _log.removeHandler(handler)


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)

    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"retfield: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"retfield: invalid config: {exc}", file=sys.stderr)
        return 1

    for warning in config.warnings:
        _log.warning("%s", warning)
    if args.threads < 1:
        print("retfield: --threads must be >= 1", file=sys.stderr)
        return 1
    if args.validate_only:
        print(f"config ok: tasks={list(config.tasks)}")
        return 0

    try:
        report = run_tasks(config, output_dir=args.output_dir, threads=args.threads)
    except Exception as exc:
        print(f"retfield: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for task in report.tasks:
        line = f"{task.name}: {task.status} ({task.seconds:.2f}s)"
        if task.status == "error":
            line += f" -- {task.details.get('error', '')}"
        print(line)
    return 2 if report.any_errors() else 0


if __name__ == "__main__":
    sys.exit(main())
