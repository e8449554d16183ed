"""One measured process of the benchmark; started by run.py.

    python3 bench/child.py setup CONFIG...
    python3 bench/child.py run TRACE CONFIG OUTDIR [CONFIG OUTDIR ...]

``setup`` imports retfield, parses and validates each config and builds its
source and constants, then exits; the parent times the whole process.
``run`` does the same untimed, then times ``run_tasks`` (one thread) per
config and prints one JSON line: run seconds, peak resident memory and,
when TRACE is 1, the tracer's counters.  retfield is imported from the
checkout's ``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import retfield  # noqa: E402
from retfield import config as rf_config  # noqa: E402


def _load(path: str):
    cfg = rf_config.parse_config(Path(path).read_text())
    cfg.build_source()
    cfg.build_constants()
    return cfg


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since exec.

    ``ru_maxrss`` would also count the parent's memory at fork time, which
    exec does not reset on Linux; ``VmHWM`` belongs to this image alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(paths: list[str]) -> dict:
    for path in paths:
        _load(path)
    return {}


def run(trace: bool, pairs: list[tuple[str, str]]) -> dict:
    from retfield import runner as rf_runner

    tracer = None
    if trace:
        from tracer import Tracer, snapshot

        before = snapshot()
        tracer = Tracer()
        tracer.install()
    try:
        seconds = []
        for path, outdir in pairs:
            cfg = _load(path)
            start = time.perf_counter()
            rf_runner.run_tasks(cfg, output_dir=outdir, threads=1)
            seconds.append(time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"seconds": seconds, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_restored"] = snapshot() == before
    return result


def main(argv: list[str]) -> int:
    if not Path(retfield.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"retfield imported from {retfield.__file__}, not the checkout", file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        result = setup(rest)
    elif mode == "run":
        trace, rest = rest[0] == "1", rest[1:]
        result = run(trace, list(zip(rest[0::2], rest[1::2])))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
