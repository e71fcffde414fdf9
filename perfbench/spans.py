"""Spans and counters recorded around genfisher's layer boundaries.

``Tracer.install`` replaces selected public functions of the imported
package with wrappers that record one span per call: layer, function,
start, end, the enclosing span, and counters read from the call's arguments
or result.  Nothing under ``src/`` changes; ``uninstall`` puts the original
functions back, so untraced and traced passes can alternate in one process.

A span is ``[id, parent_id, layer, function, start_s, end_s, attrs]``;
``parent_id`` is -1 for a pass's root (``cli``) span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

def _arguments(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _quadrature_counters(fn, args, kwargs, result):
    return {"evals": result.evaluations, "converged": bool(result.converged)}


def _sample_counters(fn, args, kwargs, result):
    return {"draws": int(_arguments(fn, args, kwargs)["n"])}


def _trials_counters(fn, args, kwargs, result):
    plan = _arguments(fn, args, kwargs)["plan"]
    return {"trials": int(plan.trials), "resamples": int(plan.bootstrap_resamples)}


# (module, attribute, layer, counter reader) for every wrapped callable.
# ``log_gamma``, ``ProbeDistribution.log_pdf`` and the probe constructors are
# not wrapped: they run per integrand evaluation or cost about a microsecond,
# so a wrapper would cost as much as the work it measures.  Their time is
# part of the self time of whichever layer calls them.
WRAPPED = (
    ("genfisher.numerics", "integrate_real_line", "numerics", _quadrature_counters),
    ("genfisher.numerics", "integrate_half_line", "numerics", _quadrature_counters),
    ("genfisher.measures", "hellinger_distance", "measures.distance", None),
    ("genfisher.measures", "hellinger_linearized", "measures.distance", None),
    ("genfisher.measures", "triangle_probe", "measures.distance", None),
    ("genfisher.measures", "fisher_quadrature", "measures.fisher", None),
    ("genfisher.measures", "sensitivity_quadrature", "measures.fisher", None),
    ("genfisher.measures", "posterior_width_quadrature", "measures.width", None),
    ("genfisher.measures", "mean_error_quadrature", "measures.mean_error", None),
    ("genfisher.measures", "fisher_closed", "measures.closed", None),
    ("genfisher.measures", "sensitivity_closed", "measures.closed", None),
    ("genfisher.measures", "posterior_width_closed", "measures.closed", None),
    ("genfisher.measures", "mean_error_closed", "measures.closed", None),
    ("genfisher.measures", "fisher_gamma_argument", "measures.closed", None),
    ("genfisher.probe", "ProbeDistribution.sample", "probe.sample", _sample_counters),
    ("genfisher.estimation", "run_trials", "estimation", _trials_counters),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []

    def call(self, layer, name, fn, args, kwargs, counters=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        record = [len(self.spans), self._stack[-1] if self._stack else -1, layer, name, 0.0, 0.0, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            record[4] = time.perf_counter()
            result = fn(*args, **kwargs)
            record[5] = time.perf_counter()
        except Exception as exc:
            record[5] = time.perf_counter()
            # An exception passes through every enclosing span; only the
            # innermost one that saw it is its origin.
            record[6]["error"] = type(exc).__name__
            record[6]["origin"] = exc is not self._last_error
            self._last_error = exc
            raise
        finally:
            self._stack.pop()
        if counters is not None:
            record[6].update(counters(fn, args, kwargs, result))
        return result

    def end_pass(self):
        self._last_error = None

    def install(self):
        """Wrap every callable in ``WRAPPED`` wherever genfisher binds it."""
        modules = [m for n, m in sys.modules.items() if n == "genfisher" or n.startswith("genfisher.")]
        for module_name, attr, layer, counters in WRAPPED:
            owner = sys.modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapper = self._wrapper(layer, name, original, counters)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            # ``from .numerics import integrate_real_line`` binds the same
            # function in other modules; replace every such binding.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrapper(self, layer, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, counters)

        return wrapper


def layer_totals(spans) -> dict[str, float]:
    """Per-layer sums over the spans of one pass.

    A layer's self time is its spans' duration minus the time their direct
    child spans cover, so the self times of all layers add up to the
    duration of the root spans.  A layer's ``calls`` counts spans whose
    parent belongs to another layer (``sensitivity_quadrature`` calling
    ``fisher_quadrature`` is one Fisher call).
    """
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_s[s[1]] += s[5] - s[4]
    t: dict[str, float] = defaultdict(float)
    t["numerics.max_call_evals"] = 0.0
    for s in spans:
        sid, parent, layer, _, start, end, attrs = s
        duration = end - start
        t[f"{layer}.self_s"] += duration - child_s[sid]
        parent_layer = by_id[parent][2] if parent in by_id else None
        if parent_layer != layer:
            t[f"{layer}.calls"] += 1
            t[f"{layer}.outer_s"] += duration
        t["numerics.evals"] += attrs.get("evals", 0)
        t["numerics.converged"] += attrs.get("converged", False)
        if "evals" in attrs:
            t["numerics.max_call_evals"] = max(t["numerics.max_call_evals"], attrs["evals"])
        t["probe.draws"] += attrs.get("draws", 0)
        t["estimation.resamples"] += attrs.get("resamples", 0)
        t["estimation.trials"] += attrs.get("trials", 0)
        if attrs.get("origin") and layer.startswith("measures."):
            if attrs["error"] == "ConvergenceError":
                t["measures.convergence_errors"] += 1
            elif attrs["error"] == "DomainError":
                t["measures.domain_errors"] += 1
    return dict(t)
