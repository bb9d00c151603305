"""Closed-loop harness: set-up, the timed loop, deadlines and the metrics.

One caller, one request at a time: the next request is sent when the
previous one returns, fails or runs out of time.  The loop runs whole
rounds (see :mod:`workloads`) until ``seconds`` have passed, so every run
holds the same mix of strata.

The shared machine's speed drifts by a quarter and more within seconds, so
times are scaled to a reference speed.  While a :class:`SpeedSampler` is
active, a fixed probe (:func:`probe_work`, which shares no code with
fracheat) is timed every ``SAMPLE_EVERY_S`` of CPU time, inside solves as
well as between them.  A stretch of ``w`` seconds of work is charged
``w * mean(REF_PROBE_S / probe)`` over the probes taken in it and the one
before it: its time on a machine where the probe takes ``REF_PROBE_S``.
Probe time is taken out of every wall time; the raw figures stay in the
run record.
"""
from __future__ import annotations

import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from workloads import WARM_ALPHAS, Request

#: per-solve deadline in seconds.  cold_sweep's ordinary solves take
#: 1.5-3.5 s on a 2-vCPU x86 VM whose speed swings by up to 2x, and a
#: profile build at alpha = 0.97 already runs past 20 s there, so 10 s
#: keeps ordinary solves clear of it and the alpha ~ 0.99 probe far beyond
#: it; the other workloads only guard against hangs.
DEADLINES = {"cold_sweep": 10.0, "warm_field": 30.0, "fourier": 30.0}
#: deadline for one reference solve of the correctness check
REFERENCE_DEADLINE = 60.0
#: set-up runs twice, a third time while that keeps the total under
#: SETUP_LONG_S, and on until SETUP_MIN_S have passed; setup_s is the
#: median, so a set-up of a millisecond is timed as steadily as one of
#: seconds without repeating a long one more than needed
SETUP_LONG_S = 5.0
SETUP_MIN_S = 0.5
#: the probe's time on the reference machine, near its time on a 2-vCPU
#: x86 VM, so reference seconds read close to seconds there
REF_PROBE_S = 0.010
#: CPU time between two probes, about 15 probe times
SAMPLE_EVERY_S = 0.15
#: solves beyond the tail percentile
TAIL_SOLVES = 10

#: (metric, unit) of an untraced run, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_ref_s", "1/s"),
    ("solved_frac", "share"),
    ("in_bound_frac", "share"),
    ("err_est_max", "abs"),
    ("peak_rss_mb", "MB"),
)


class DeadlineExceeded(BaseException):
    """A solve ran past its deadline.

    Derived from BaseException so no ``except Exception`` inside the solver
    can swallow it.
    """


@contextmanager
def deadline(seconds: float):
    """Raise :class:`DeadlineExceeded` in this thread after ``seconds``.

    The timer and the previous SIGALRM handler are restored on every exit,
    so the process keeps serving after a hit.
    """
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """What one request returned."""

    request: Request
    status: str          # "ok", "error" or "deadline"
    wall: float
    values: np.ndarray | None = None
    errors: np.ndarray | None = None
    message: str = ""
    #: what the request is charged, in reference seconds; a deadline hit,
    #: and any request served without a sampler, is charged its wall time
    ref_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def make_solver(fh) -> Callable:
    """``solve(route, n, sign, alpha, t, xs) -> (values, errors)``."""
    def solve(route, n, sign, alpha, t, xs):
        request = fh.SolutionRequest(
            spec=fh.make_equation_spec(n, sign), alpha=alpha, t=t,
            x_grid=tuple(xs), route=route)
        field = fh.solve(request)
        return field.grid_values(), field.grid_errors()
    return solve


def serve(req: Request, solve: Callable, deadline_s: float,
          error_types: tuple, clock: Callable[[], float] = time.perf_counter
          ) -> Outcome:
    """Send one request; a typed error or a deadline hit is a failure."""
    start = clock()
    try:
        with deadline(deadline_s):
            values, errors = solve(req.route, req.n, req.sign, req.alpha,
                                   req.t, req.xs)
    except DeadlineExceeded as exc:
        return Outcome(req, "deadline", clock() - start, message=str(exc))
    except error_types as exc:
        return Outcome(req, "error", clock() - start,
                       message=f"{type(exc).__name__}: {exc}")
    return Outcome(req, "ok", clock() - start, np.asarray(values),
                   np.asarray(errors))


def probe_work() -> None:
    """Fixed work of the solver's two kinds: an mpmath series at a fixed
    precision, then numpy passes over a fixed array."""
    with mp.workdps(40):
        total = mp.mpf(0)
        z = mp.mpf(-2.5)
        for k in range(1, 200):
            total += z ** k * mp.rgamma(mp.mpf(k) / 3 + mp.mpf("0.3"))
    a = np.linspace(0.0, 1.0, 20000)
    for _ in range(5):
        a = np.sin(a) * 1.0001 + np.exp(-a)


class SpeedSampler:
    """Times ``work`` once on entry and then every ``every_s`` seconds of
    the process's CPU time (a SIGPROF timer), until exit."""

    def __init__(self, every_s: float = SAMPLE_EVERY_S,
                 work: Callable[[], None] = probe_work,
                 clock: Callable[[], float] = time.perf_counter):
        self.every_s = every_s
        self.work = work
        self.clock = clock
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = self.clock()
        self.work()
        self.samples.append(self.clock() - start)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def charge(self, wall: float, first: int) -> tuple[float, float]:
        """``(reference_s, probe_s)`` of a stretch of ``wall`` seconds that
        began when ``first`` samples had been taken: the stretch's own
        work at the reference speed, and the probing inside it."""
        probing = sum(self.samples[first:])
        speed = self.samples[max(first - 1, 0):]
        scale = statistics.fmean(REF_PROBE_S / c for c in speed)
        return (wall - probing) * scale, probing


def closed_loop(round_iter, seconds: float, solve: Callable,
                deadline_s: float, error_types: tuple,
                clock: Callable[[], float] = time.perf_counter,
                sampler: SpeedSampler | None = None):
    """Serve whole rounds until ``seconds`` have passed.

    With an active ``sampler``, each request's wall time excludes the
    probing inside it and each request is charged its time at the
    reference speed.  Returns ``(outcomes, wall_seconds, rounds_served)``.
    """
    outcomes = []
    served = 0
    start = clock()
    for rnd in round_iter:
        for req in rnd:
            first = 0 if sampler is None else len(sampler.samples)
            out = serve(req, solve, deadline_s, error_types, clock)
            out.ref_s = out.wall
            if sampler is not None:
                ref_s, probing = sampler.charge(out.wall, first)
                out.wall -= probing
                out.ref_s = out.wall if out.status == "deadline" else ref_s
            outcomes.append(out)
        served += 1
        if clock() - start >= seconds:
            break
    return outcomes, clock() - start, served


def clear_profile_cache(fh) -> None:
    """Forget memoized time-law profiles, where the solver keeps any."""
    clear = getattr(getattr(fh.solver, "_time_profile", None),
                    "cache_clear", None)
    if clear is not None:
        clear()


def setup(fh, workload: str, solve: Callable) -> None:
    """Bring the process to the state the workload's loop starts from.

    cold_sweep and fourier: one small solve on their route, so first-call
    costs leave the timed loop, then an empty profile cache.  warm_field:
    the time-law profiles of its fixed alphas, built by one small request
    each.
    """
    clear_profile_cache(fh)
    if workload == "warm_field":
        for alpha in WARM_ALPHAS:
            solve("subordination", 2, 1, alpha, 1.0, (0.5,))
    elif workload == "cold_sweep":
        # alpha = 1/2 has a closed-form time law: no series work here
        solve("subordination", 3, 1, 0.5, 1.0, (-1.0, 0.0, 1.0))
        clear_profile_cache(fh)
    else:
        solve("fourier_ml", 2, 1, 0.5, 1.0, (0.0, 1.0))


def timed_setup(fh, workload: str, solve: Callable,
                clock: Callable[[], float] = time.perf_counter,
                sampler: SpeedSampler | None = None) -> tuple[float, float]:
    """``(reference_s, wall_s)``: medians of repeated set-ups, timed at the
    reference speed with an active ``sampler`` and on the wall clock
    (both read the wall clock without one)."""
    refs, walls = [], []
    while (len(walls) < 2 or sum(walls) < SETUP_MIN_S
           or (len(walls) < 3 and 1.5 * sum(walls) < SETUP_LONG_S)):
        first = 0 if sampler is None else len(sampler.samples)
        start = clock()
        setup(fh, workload, solve)
        wall = clock() - start
        ref_s = wall
        if sampler is not None:
            ref_s, probing = sampler.charge(wall, first)
            wall -= probing
        refs.append(ref_s)
        walls.append(wall)
    return statistics.median(refs), statistics.median(walls)


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least TAIL_SOLVES solves beyond it,
    or None when the sample is too small to have a tail above its median."""
    if count < 4 * TAIL_SOLVES:
        return None
    return math.floor(100.0 * (1.0 - TAIL_SOLVES / count))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, setup_s: float, rss_mb: float, report) -> tuple[dict, dict]:
    """``(metrics, extras)``: the END_TO_END metrics of one run, and the
    figures kept in the run record instead -- those that can be 0 or
    undefined, and the per-solve medians, which spread too much from run
    to run on a shared machine to carry a bound."""
    good = [o for o in outcomes if o.ok]
    lat = sorted(o.wall for o in good) or sorted(o.wall for o in outcomes)
    errs = np.concatenate([o.errors for o in good]) if good else np.zeros(1)
    points = sum(len(o.values) for o in good)
    charged = sum(o.wall if o.ref_s is None else o.ref_s for o in outcomes)
    failed = len(outcomes) - len(good)
    checked = max(report.checked, 1)
    values = {
        "setup_s": setup_s,
        "points_per_ref_s": points / charged,
        "solved_frac": len(good) / len(outcomes),
        "in_bound_frac": 1.0 - report.violations / checked,
        "err_est_max": float(np.max(errs)),
        "peak_rss_mb": rss_mb,
    }
    pct = tail_percentile(len(lat))
    extras = {
        "failed_frac": failed / len(outcomes),
        "solve_p50_s": statistics.median(lat),
        "err_est_p50": float(np.median(errs)),
        "bound_violation_frac": report.violations / checked,
        "solve_tail": None if pct is None else {
            "percentile": pct, "solves": len(lat),
            "value_s": float(np.percentile(lat, pct))},
        "points": points,
        "points_per_s": points / sum(o.wall for o in outcomes),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, extras
