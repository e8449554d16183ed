"""Record the reference outputs that check.py compares shipped configs with.

    python3 bench/record_reference.py

Runs each shipped config through ``retfield run`` from the checkout's
``src`` and copies its CSV artifacts, plus the front-check peaks of
``negative_velocity``, into ``bench/reference/``.  The committed files were
recorded on the seed commit; re-record only when a change is meant to move
the field values, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from check import REFERENCE
from workloads import SHIPPED

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    scratch = ROOT / ".bench_out" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for label in SHIPPED:
        outdir = scratch / label
        subprocess.run(
            [sys.executable, "-m", "retfield.cli", "run", str(ROOT / "configs" / f"{label}.cfg"),
             "--output-dir", str(outdir)],
            env=env, cwd=ROOT, check=True,
        )
        target = REFERENCE / label
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for csv_path in sorted(outdir.glob("*.csv")):
            shutil.copyfile(csv_path, target / csv_path.name)
        if label == "negative_velocity":
            report = json.loads((outdir / "report.json").read_text())
            front = next(t for t in report["tasks"] if t["name"] == "frontcheck")["details"]
            peaks = {rep: front[rep]["peak"] for rep in ("zones", "jefimenko")}
            (target / "frontcheck_peaks.json").write_text(json.dumps(peaks, indent=2) + "\n")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
