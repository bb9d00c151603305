"""Spans and counters around ``fracheat``'s cross-module entry points.

The traced run replaces module attributes by wrappers, so calls that look
the name up in that module at call time (every call between fracheat's
modules does) pass through the wrapper.  Nothing in ``src/`` changes, and
:meth:`Tracer.uninstall` puts every original object back.

A *span* wrapper records ``[layer, start, end, parent]`` and counts the
call; a *count* wrapper only counts, for functions called so often (or so
deep inside another layer) that a span would distort the timing or the
layer's self time; a *cached* wrapper is a span that also splits the
calls of a memoized factory into builds and cache hits.  A layer's self
time is its spans' durations minus the time covered by their direct
children.  A probe whose attribute does not exist is skipped and its
metrics read 0.

Which end-to-end figure each layer's metrics should move, and where
(``solve_p50_s`` is in the run record, beside the metrics):

* time law -- ``specfun.wright_mp``, ``specfun.spec_neg_mp``,
  ``specfun.wright``, ``specfun.spec_neg``, ``timechange.density``,
  ``solver.time_profile``: ``points_per_ref_s``, ``solve_p50_s`` and
  ``solved_frac`` on cold_sweep, ``setup_s`` on warm_field; not fourier.
* Mittag-Leffler and Fourier -- ``specfun.ml``, ``specfun.ml_taylor_mp``,
  ``specfun.ml_asymptotic``, ``solver.fourier_head``,
  ``solver.fourier_tail``: ``points_per_ref_s``, ``solve_p50_s`` and
  ``in_bound_frac`` on fourier; not the two subordination workloads.
* kernel and quadrature -- ``kernel.density_grid``, ``kernel.contour``,
  ``quadrature.*``: ``points_per_ref_s`` on warm_field, a small share of
  cold_sweep.
* ``specfun.stable_one_sided``, ``specfun.zolotarev``, ``solver.survival``:
  the clamped-tail mass of every subordination solve.  ``specfun.mp_share``
  is the arbitrary-precision tiers' self time over the traced wall; the
  aim is 0.

``montecarlo`` is imported by no other module and has no probe.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPAN, COUNT, CACHED = "span", "count", "cached"

#: root span the harness opens around every solve
ROOT = "solver.solve"


def _points(index: int) -> Callable:
    def measure(args, result) -> dict:
        return {"points": float(np.size(args[index]))}
    return measure


def _one_point(args, result) -> dict:
    return {"points": 1.0}


def _quad_evals(args, result) -> dict:
    return {"evaluations": float(getattr(result, "evaluations", 0))}


def _contour_evals(args, result) -> dict:
    return {"evaluations": float(result[2])}


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``fracheat.<module>.<attr>`` as ``layer``."""

    module: str
    attr: str
    layer: str
    kind: str = SPAN
    measure: Callable | None = None


PROBES = (
    Probe("solver", "_time_profile", "solver.time_profile", CACHED),
    Probe("solver", "time_density_grid", "timechange.density",
          measure=_points(1)),
    Probe("timechange", "wright_w_grid", "specfun.wright", measure=_points(0)),
    Probe("timechange", "wright_w_extended", "specfun.wright",
          measure=_one_point),
    Probe("timechange", "stable_spec_neg_density_grid", "specfun.spec_neg",
          measure=_points(0)),
    Probe("specfun", "_wright_mp", "specfun.wright_mp"),
    Probe("specfun", "_spec_neg_mp", "specfun.spec_neg_mp"),
    Probe("solver", "_survival_probability", "solver.survival"),
    Probe("solver", "stable_one_sided_density_grid",
          "specfun.stable_one_sided", measure=_points(0)),
    Probe("specfun", "_zolotarev_values", "specfun.zolotarev", COUNT),
    Probe("solver", "kernel_density_grid", "kernel.density_grid",
          measure=_points(1)),
    Probe("kernel", "kernel_contour_values", "kernel.contour", COUNT,
          _contour_evals),
    Probe("solver", "integrate_adaptive", "quadrature.adaptive",
          measure=_quad_evals),
    Probe("solver", "integrate_jacobi_singular", "quadrature.jacobi",
          measure=_quad_evals),
    Probe("solver", "euler_tail_sum", "quadrature.euler_tail"),
    Probe("solver", "_fourier_head", "solver.fourier_head"),
    Probe("solver", "_fourier_algebraic_tail", "solver.fourier_tail"),
    Probe("solver", "mittag_leffler_grid", "specfun.ml", measure=_points(0)),
    Probe("specfun", "_ml_taylor_mp", "specfun.ml_taylor_mp"),
    Probe("specfun", "_ml_asymptotic", "specfun.ml_asymptotic", COUNT),
)

#: layer groups named by the acceptance shares
TIMELAW = ("solver.time_profile", "timechange.density", "specfun.wright",
           "specfun.spec_neg", "specfun.wright_mp", "specfun.spec_neg_mp")
KERNEL_QUADRATURE = ("kernel.density_grid", "quadrature.adaptive",
                     "quadrature.jacobi", "quadrature.euler_tail")
ML = ("specfun.ml", "specfun.ml_taylor_mp")
MP_TIER = ("specfun.wright_mp", "specfun.spec_neg_mp", "specfun.ml_taylor_mp")

_PER_SOLVE = "count/solve"
#: (metric, unit) reported by a traced run, in output order.  Counts are per
#: attempted solve and times are shares of the traced wall time, so a run
#: that completes more solves in its window stays comparable.
PER_LAYER = (
    ("specfun.wright_mp.calls", _PER_SOLVE),
    ("specfun.wright_mp.share", "share"),
    ("specfun.spec_neg_mp.calls", _PER_SOLVE),
    ("specfun.spec_neg_mp.share", "share"),
    ("specfun.wright.points", _PER_SOLVE),
    ("specfun.wright.self_share", "share"),
    ("specfun.spec_neg.points", _PER_SOLVE),
    ("specfun.spec_neg.self_share", "share"),
    ("timechange.density.calls", _PER_SOLVE),
    ("timechange.density.points", _PER_SOLVE),
    ("timechange.density.self_share", "share"),
    ("solver.time_profile.builds", _PER_SOLVE),
    ("solver.time_profile.hits", _PER_SOLVE),
    ("solver.time_profile.build_share", "share"),
    ("specfun.ml.calls", _PER_SOLVE),
    ("specfun.ml.points", _PER_SOLVE),
    ("specfun.ml.self_share", "share"),
    ("specfun.ml_taylor_mp.calls", _PER_SOLVE),
    ("specfun.ml_taylor_mp.share", "share"),
    ("specfun.ml_asymptotic.calls", _PER_SOLVE),
    ("solver.fourier_head.share", "share"),
    ("solver.fourier_tail.share", "share"),
    ("kernel.density_grid.calls", _PER_SOLVE),
    ("kernel.density_grid.points", _PER_SOLVE),
    ("kernel.density_grid.self_share", "share"),
    ("kernel.contour.evaluations", _PER_SOLVE),
    ("quadrature.adaptive.calls", _PER_SOLVE),
    ("quadrature.adaptive.evaluations", _PER_SOLVE),
    ("quadrature.adaptive.self_share", "share"),
    ("quadrature.jacobi.calls", _PER_SOLVE),
    ("quadrature.jacobi.evaluations", _PER_SOLVE),
    ("quadrature.euler_tail.calls", _PER_SOLVE),
    ("quadrature.evals_per_point", "count/point"),
    ("specfun.stable_one_sided.points", _PER_SOLVE),
    ("specfun.stable_one_sided.self_share", "share"),
    ("specfun.zolotarev.calls", _PER_SOLVE),
    ("solver.survival.calls", _PER_SOLVE),
    ("solver.survival.share", "share"),
    ("solver.solve.self_share", "share"),
    ("specfun.mp_share", "share"),
    ("layer.timelaw_share", "share"),
    ("layer.kernel_quadrature_share", "share"),
    ("layer.ml_share", "share"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.wrapped_calls", _PER_SOLVE),
)


def _tally(counts: Counter, layer: str, measure: Callable | None, args,
           result) -> None:
    counts[layer + ".calls"] += 1
    if measure is not None:
        for key, value in measure(args, result).items():
            counts[f"{layer}.{key}"] += value


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans = []          # [layer, start, end, parent index]
        self.counts = Counter()  # "<layer>.<counter>" -> total
        self.absent = []         # probes whose attribute does not exist
        self._stack = []
        self._installed = []     # (module, attr, original)

    def span(self, layer: str, fn: Callable,
             measure: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        spans, stack, clock, counts = (self.spans, self._stack, self.clock,
                                       self.counts)

        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            _tally(counts, layer, measure, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, layer: str, fn: Callable,
              measure: Callable | None = None) -> Callable:
        """``fn`` wrapped in a call counter of ``layer``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _tally(counts, layer, measure, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cached(self, layer: str, fn: Callable) -> Callable:
        """Span wrapper for a memoized factory: splits calls into builds
        (cache misses, with their time) and hits."""
        info = getattr(fn, "cache_info", None)
        inner = self.span(layer, fn)
        counts, clock = self.counts, self.clock

        def wrapper(*args, **kwargs):
            misses = info().misses if info else None
            start = clock()
            result = inner(*args, **kwargs)
            if info is None or info().misses > misses:
                counts[layer + ".builds"] += 1
                counts[layer + ".build_s"] += clock() - start
            else:
                counts[layer + ".hits"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict, probes=PROBES) -> None:
        """Wrap every probe whose ``modules[probe.module].<attr>`` exists."""
        for probe in probes:
            module = modules.get(probe.module)
            original = getattr(module, probe.attr, None)
            if original is None:
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            if probe.kind == CACHED:
                wrapped = self._cached(probe.layer, original)
            elif probe.kind == COUNT:
                wrapped = self.count(probe.layer, original, probe.measure)
            else:
                wrapped = self.span(probe.layer, original, probe.measure)
            self._installed.append((module, probe.attr, original))
            setattr(module, probe.attr, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, last installed first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def times(self) -> tuple[dict, dict]:
        """``(self_seconds, inclusive_seconds)`` per layer."""
        child = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        total = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            own[layer] += (end - start) - child[i]
            total[layer] += end - start
        return dict(own), dict(total)


def per_layer_metrics(tracer: Tracer, wall: float, solves: int, points: int,
                      overhead_s: float, untraced_s: float) -> dict:
    """The :data:`PER_LAYER` metrics of one traced window.

    ``wall`` is the traced window's wall time, ``solves`` the attempted
    solves in it and ``points`` the points they returned; ``overhead_s`` is
    traced minus untraced wall time over the replayed requests and
    ``untraced_s`` the untraced part.
    """
    own, total = tracer.times()
    c = tracer.counts

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    values = {}
    for name, unit in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if unit == _PER_SOLVE:
            values[name] = c[name] / max(solves, 1)
        elif key == "self_share":
            values[name] = share(own.get(layer, 0.0))
        elif key == "share" and layer in total:
            values[name] = share(total[layer])
    values["solver.time_profile.build_share"] = share(
        c["solver.time_profile.build_s"])
    quad = c["quadrature.adaptive.evaluations"] + \
        c["quadrature.jacobi.evaluations"]
    values["quadrature.evals_per_point"] = quad / max(points, 1)
    values["specfun.mp_share"] = share(sum(own.get(k, 0.0) for k in MP_TIER))
    values["layer.timelaw_share"] = share(
        sum(own.get(k, 0.0) for k in TIMELAW))
    values["layer.kernel_quadrature_share"] = share(
        sum(own.get(k, 0.0) for k in KERNEL_QUADRATURE))
    values["layer.ml_share"] = share(sum(own.get(k, 0.0) for k in ML))
    values["trace.wrapped_calls"] = sum(
        v for k, v in c.items() if k.endswith(".calls")) / max(solves, 1)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = (overhead_s / untraced_s
                                      if untraced_s > 0 else 0.0)
    for name, _ in PER_LAYER:
        values.setdefault(name, 0.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
