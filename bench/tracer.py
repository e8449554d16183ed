"""Per-layer tracing of retfield from outside the package.

``Tracer`` replaces the public entry points of each retfield module with
counting wrappers: functions wherever a retfield module holds them, the
``EVALUATORS`` entries, and the methods of the pulse, envelope and
``WaveformSeries`` classes.  ``uninstall`` puts every original object
back, so nothing traced leaks into an untraced run in the same process.

Each wrapper belongs to a group.  A call made while its group is already
active (a truncated envelope delegating to the smooth one, a post-processing
helper calling another) is passed through unrecorded, so counts are of
outermost calls.  A finished call adds its duration to the enclosing traced
call, which gives self times: sampling minus evaluators, evaluators minus
sources.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

_PULSE_METHODS = ("value", "derivative", "primitive")
_ENVELOPE_METHODS = ("value", "gradient", "hessian")
_SERIES_METHODS = ("total_field", "term_field", "component")
_POST_FUNCTIONS = (
    "light_front_check",
    "front_times",
    "feature_arrival_times",
    "local_velocity",
    "zone_scaling_fit",
)
_EMIT_FUNCTIONS = ("emit_waveform_csv", "emit_velocity_csv")

#: Every counter a tracer reports; one a workload never touches reads 0.
COUNTERS = (
    "config.parse_s",
    "quadrature.build_rule_calls",
    "quadrature.nodes_built",
    "quadrature.build_rule_s",
    "runner.calibrate_evals",
    "runner.calibrate_s",
    "runner.emit_csv_s",
    "analysis.samplings",
    "analysis.cells",
    "analysis.sample_s",
    "analysis.sample_self_s",
    "analysis.post_s",
    "evaluators.zones_calls",
    "evaluators.jefimenko_calls",
    "evaluators.node_evals",
    "evaluators.total_s",
    "evaluators.self_s",
    "sources.pulse_calls",
    "sources.pulse_points",
    "sources.pulse_s",
    "sources.envelope_calls",
    "sources.hessian_calls",
    "sources.envelope_s",
)


def _retfield_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "retfield"]


def snapshot() -> dict:
    """Identity of every attribute a tracer may replace, for leak checks."""
    from retfield import analysis, evaluators, sources

    state = {}
    for module in _retfield_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = id(value)
    for cls in (
        sources.SineSquaredPulse,
        sources.DifferentiatedGaussianPulse,
        sources.GaussianEnvelope,
        sources.TruncatedGaussianEnvelope,
        analysis.WaveformSeries,
    ):
        for name, value in vars(cls).items():
            state[(cls.__qualname__, name)] = id(value)
    for key, value in evaluators.EVALUATORS.items():
        state[("EVALUATORS", key)] = id(value)
    return state


class Tracer:
    """Counting wrappers around retfield's layers; a context manager."""

    def __init__(self):
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self._restore: list = []  # (setter, original), undone in reverse
        self._active: Counter = Counter()
        self._stack: list[list[float]] = []  # child seconds of open calls
        self._samplings: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from retfield import analysis, config, evaluators, quadrature, runner, sources

        self._patch_function(config.parse_config, "config", self._on_parse)
        self._patch_function(quadrature.build_rule, "quadrature", self._on_build_rule)
        self._patch_function(analysis.sample_waveforms, "analysis.sample", self._on_sample)
        for name in _POST_FUNCTIONS:
            self._patch_function(getattr(analysis, name), "analysis.post", self._on_post)
        for name in _SERIES_METHODS:
            self._patch_method(analysis.WaveformSeries, name, "analysis.post", self._on_post)
        for name in _EMIT_FUNCTIONS:
            self._patch_function(getattr(runner, name), "runner.emit", self._on_emit)
        for key in sorted(evaluators.EVALUATORS):
            on_call = functools.partial(self._on_eval, key)
            wrapper = self._patch_function(evaluators.EVALUATORS[key], "evaluators", on_call)
            self._set(evaluators.EVALUATORS, key, wrapper, dict_entry=True)
        for cls in (sources.SineSquaredPulse, sources.DifferentiatedGaussianPulse):
            for name in _PULSE_METHODS:
                self._patch_method(cls, name, "sources.pulse", self._on_pulse)
        for cls in (sources.GaussianEnvelope, sources.TruncatedGaussianEnvelope):
            for name in _ENVELOPE_METHODS:
                on_call = functools.partial(self._on_envelope, name)
                self._patch_method(cls, name, "sources.envelope", on_call)

    def uninstall(self) -> None:
        while self._restore:
            setter, original = self._restore.pop()
            setter(original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, owner, name, value, dict_entry=False):
        if dict_entry:
            original = owner[name]
            setter = functools.partial(owner.__setitem__, name)
        else:
            original = vars(owner)[name]
            setter = functools.partial(setattr, owner, name)
        self._restore.append((setter, original))
        setter(value)

    def _patch_function(self, original, group, on_call):
        """Replace ``original`` in every retfield module that holds it."""
        wrapper = self._wrap(original, group, on_call)
        for module in _retfield_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
        return wrapper

    def _patch_method(self, cls, name, group, on_call):
        self._set(cls, name, self._wrap(vars(cls)[name], group, on_call))

    def _wrap(self, fn, group, on_call):
        active, stack = self._active, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[group]:
                return fn(*args, **kwargs)
            active[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active[group] -= 1
            if stack:
                stack[-1][0] += elapsed
            on_call(elapsed, frame[0], args, kwargs, result)
            return result

        return wrapper

    # -- per-layer accounting ---------------------------------------------

    def _on_parse(self, elapsed, child, args, kwargs, result):
        self.counts["config.parse_s"] += elapsed

    def _on_build_rule(self, elapsed, child, args, kwargs, result):
        c = self.counts
        c["quadrature.build_rule_calls"] += 1
        c["quadrature.nodes_built"] += len(result)
        c["quadrature.build_rule_s"] += elapsed

    def _on_sample(self, elapsed, child, args, kwargs, result):
        c = self.counts
        c["analysis.samplings"] += 1
        c["analysis.cells"] += result.radii.size * result.times.size
        c["analysis.sample_s"] += elapsed
        c["analysis.sample_self_s"] += elapsed - child
        rule = args[6] if len(args) > 6 else kwargs["rule"]
        self._samplings.append(
            (
                repr(args[0]),
                result.representation,
                result.ray_origin.tobytes(),
                result.ray_direction.tobytes(),
                result.radii.tobytes(),
                result.times.tobytes(),
                rule.order,
            )
        )

    def _on_post(self, elapsed, child, args, kwargs, result):
        self.counts["analysis.post_s"] += elapsed

    def _on_emit(self, elapsed, child, args, kwargs, result):
        self.counts["runner.emit_csv_s"] += elapsed

    def _on_eval(self, representation, elapsed, child, args, kwargs, result):
        c = self.counts
        rule = args[2] if len(args) > 2 else kwargs["rule"]
        c[f"evaluators.{representation}_calls"] += 1
        c["evaluators.node_evals"] += len(rule)
        c["evaluators.total_s"] += elapsed
        c["evaluators.self_s"] += elapsed - child
        if not self._active["analysis.sample"]:
            c["runner.calibrate_evals"] += 1
            c["runner.calibrate_s"] += elapsed

    def _on_pulse(self, elapsed, child, args, kwargs, result):
        c = self.counts
        t = args[1] if len(args) > 1 else kwargs["t"]
        c["sources.pulse_calls"] += 1
        c["sources.pulse_points"] += np.size(t)
        c["sources.pulse_s"] += elapsed

    def _on_envelope(self, method, elapsed, child, args, kwargs, result):
        c = self.counts
        if method == "value":
            c["sources.envelope_calls"] += 1
        elif method == "hessian":
            c["sources.hessian_calls"] += 1
        c["sources.envelope_s"] += elapsed

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counters gathered so far, with the derived ratios."""
        out = {name: float(value) for name, value in self.counts.items()}
        total = len(self._samplings)
        out["analysis.sampling_reuse"] = len(set(self._samplings)) / total if total else 1.0
        seconds = out["evaluators.total_s"]
        out["evaluators.node_evals_per_s"] = out["evaluators.node_evals"] / seconds if seconds else 0.0
        return out
