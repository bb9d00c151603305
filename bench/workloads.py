"""Seeded request generators for the benchmark workloads.

Every workload is a pure function of ``(name, seed)``: an endless sequence
of *rounds*, each round a list of :class:`Request`.  A round holds each
stratum of its workload once (cold_sweep's alpha probe rides in the first
round only), so a run made of whole rounds has the same mix of strata
whatever the seed; the seed only moves the draws inside each stratum.
Only these plain requests reach ``fracheat``.

Grids are drawn in the similarity variable ``y = x t^(-alpha/n)`` and mapped
back to ``x``: the solution is self-similar, so this keeps every request on
the same part of its profile while ``t`` spans several decades, and keeps
the cross-route reference away from the far field except where a workload
asks for it on purpose.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

#: cold_sweep: one (n, odd sign) per alpha stratum, in ascending alpha.
#: Nine strata cover n = 2..7 with both odd signs once each; the seed
#: moves alpha inside a narrow band around each centre, so the profile
#: build, which dominates a cold solve, costs about the same in every run.
#: The strata stop at 0.65 so every ordinary solve ends well inside the
#: deadline; the probe near 0.99 is where the time-law series blow up.
COLD_CONFIGS = ((2, 1), (3, 1), (5, -1), (4, 1), (7, 1), (3, -1), (6, 1),
                (5, 1), (7, -1))
COLD_CENTRES = tuple(round(0.05 + (i + 0.5) * 0.6 / len(COLD_CONFIGS), 4)
                     for i in range(len(COLD_CONFIGS)))
COLD_JITTER = 0.015
COLD_PROBE_BAND = (0.985, 0.995)

#: warm_field: the fixed (n, odd sign, alpha) configurations.  Two alphas
#: only, one per time-law route (Wright series below 1/2, spectrally
#: negative series above), so set-up builds two profiles.  Odd orders take
#: the low alpha, where their Fourier reference is cheap.
WARM_CONFIGS = ((2, 1, 0.6), (3, 1, 0.3), (3, -1, 0.3), (4, 1, 0.6),
                (5, 1, 0.3), (6, 1, 0.6), (7, -1, 0.3))
#: decades of t; configuration i takes decade (i + round) mod 4
WARM_T_DECADES = ((1e-2, 1e-1), (1e-1, 1.0), (1.0, 1e1), (1e1, 1e2))
WARM_ALPHAS = tuple(sorted({alpha for _, _, alpha in WARM_CONFIGS}))

#: fourier: one low and one high mid-band alpha per run, in narrow bands
#: because the Mittag-Leffler mid-band cost climbs steeply with alpha, and
#: t in a narrow band around 1, so the seed barely moves a run's cost.
#: Each round solves every n = 2..7 at both.
FOURIER_LO_BAND = (0.37, 0.39)
FOURIER_HI_BAND = (0.64, 0.66)
FOURIER_T_BAND = (0.5, 2.0)
#: far-field request, one per round: n = 2 at a mid-band alpha with |x|
#: where the tail recursion's error is far above its reported bound
FAR_ALPHA_BAND = (0.59, 0.61)
FAR_X_BAND = (42.0, 44.0)

@dataclass(frozen=True)
class Request:
    """One solve: route, spatial order and sign, alpha, t and x grid.

    ``stratum`` names the stratum the request was drawn from; it is for
    accounting only and never reaches the solver.
    """

    route: str
    n: int
    sign: int
    alpha: float
    t: float
    xs: tuple
    stratum: str


def _grid(rng: random.Random, n: int, alpha: float, t: float, size: int,
          half_width: float, with_zero: bool) -> tuple:
    """Sorted x points, one drawn in each of ``size`` equal cells of the
    similarity variable on ``[-half_width, half_width]``; with
    ``with_zero`` the point nearest 0 is replaced by 0."""
    cell = 2.0 * half_width / size
    ys = [-half_width + cell * (j + rng.random()) for j in range(size)]
    if with_zero:
        ys[min(range(size), key=lambda j: abs(ys[j]))] = 0.0
    scale = t ** (alpha / n)
    return tuple(sorted(y * scale for y in ys))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cold_rounds(rng: random.Random) -> Iterator[list]:
    for r in itertools.count():
        rnd = []
        for centre, (n, sign) in zip(COLD_CENTRES, COLD_CONFIGS):
            alpha = rng.uniform(centre - COLD_JITTER, centre + COLD_JITTER)
            t = _log_uniform(rng, 0.1, 10.0)
            rnd.append(Request("subordination", n, sign, alpha, t,
                               _grid(rng, n, alpha, t, 7, 5.0, False),
                               f"alpha~{centre}"))
        if r == 0:
            # one probe per run; it fails in the time law, before n matters
            alpha = rng.uniform(*COLD_PROBE_BAND)
            t = _log_uniform(rng, 0.1, 10.0)
            rnd.append(Request("subordination", 3, 1, alpha, t,
                               _grid(rng, 3, alpha, t, 7, 5.0, False),
                               "alpha_probe"))
        yield rnd


def _warm_rounds(rng: random.Random) -> Iterator[list]:
    for r in itertools.count():
        rnd = []
        for i, (n, sign, alpha) in enumerate(WARM_CONFIGS):
            lo, hi = WARM_T_DECADES[(i + r) % len(WARM_T_DECADES)]
            t = _log_uniform(rng, lo, hi)
            # every other request carries x = 0, the Gauss-Jacobi path
            xs = _grid(rng, n, alpha, t, 5, 6.0, (i + r) % 2 == 0)
            rnd.append(Request("subordination", n, sign, alpha, t, xs,
                               f"n{n}{'+' if sign > 0 else '-'}"))
        yield rnd


def _fourier_rounds(rng: random.Random) -> Iterator[list]:
    alphas = (rng.uniform(*FOURIER_LO_BAND), rng.uniform(*FOURIER_HI_BAND))
    for r in itertools.count():
        # the far-field request opens every round, so a run's mix does not
        # depend on how many rounds fit in its window
        xf = rng.uniform(*FAR_X_BAND)
        near = sorted(rng.uniform(0.5, 4.0) for _ in range(2))
        rnd = [Request("fourier_ml", 2, 1, rng.uniform(*FAR_ALPHA_BAND), 1.0,
                       (-xf, -near[1], -near[0], 0.0, near[0], near[1], xf),
                       "far_field")]
        for n in range(2, 8):
            for which, label in enumerate(("lo", "hi")):
                alpha = alphas[which]
                # odd orders meet both signs, swapped from round to round
                sign = 1 if n % 2 == 0 or (which + r) % 2 == 0 else -1
                t = _log_uniform(rng, *FOURIER_T_BAND)
                xs = _grid(rng, n, alpha, t, 7, 4.0, n % 2 == 0)
                rnd.append(Request("fourier_ml", n, sign, alpha, t, xs,
                                   f"n{n}-{label}"))
        yield rnd


_GENERATORS = {"cold_sweep": _cold_rounds, "warm_field": _warm_rounds,
               "fourier": _fourier_rounds}
WORKLOADS = tuple(_GENERATORS)


def rounds(workload: str, seed: int) -> Iterator[list]:
    """Endless rounds of requests for ``workload``, fixed by ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
