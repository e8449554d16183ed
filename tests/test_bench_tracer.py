"""The benchmark's tracer (``bench/tracer.py``) against the package it wraps.

The tracer replaces retfield's functions and methods by name, so a traced
entry that is renamed, or that a class stops defining itself, must fail
here as well as in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

from retfield import evaluators, sources
from retfield.config import parse_config
from retfield.runner import run_tasks

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

# a truncated envelope, so that its own value, gradient and Hessian are traced
TINY = """\
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
tasks = compare
"""


def test_tracer_counts_while_installed_and_restores_every_attribute(tmp_path):
    before = tracer.snapshot()
    zone_field = evaluators.EVALUATORS["zones"]
    value = vars(sources.TruncatedGaussianEnvelope)["value"]
    with tracer.Tracer() as traced:
        assert tracer.snapshot() != before
        assert evaluators.EVALUATORS["zones"] is not zone_field
        assert vars(sources.TruncatedGaussianEnvelope)["value"] is not value
        report = run_tasks(parse_config(TINY), output_dir=tmp_path, threads=1)
    assert not report.any_errors()
    assert tracer.snapshot() == before
    assert evaluators.EVALUATORS["zones"] is zone_field
    assert vars(sources.TruncatedGaussianEnvelope)["value"] is value
    counts = traced.metrics()
    for name in ("quadrature.build_rule_calls", "evaluators.zones_calls",
                 "sources.envelope_calls", "sources.hessian_calls"):
        assert counts[name] > 0, name
