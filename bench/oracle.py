"""Reference values for checking the benchmark's solves.

* ``n = 2``: the closed form
  ``u(x, t) = 1/2 t^(-alpha/2) W(-|x| t^(-alpha/2); -alpha/2, 1 - alpha/2)``
  with the Wright series summed here in mpmath, independently of
  ``fracheat.specfun``.  Its error bar is the change between two working
  precisions.
* ``n >= 3``: the other ``fracheat`` route (Fourier inversion for a
  subordination request and the reverse) with that route's own error bar.
  The solution is self-similar, ``u(x, t) = t^(-alpha/n) U(x t^(-alpha/n))``,
  and for odd ``n`` the two signs are mirror images, so all requests
  sharing ``(n, alpha)`` are checked by one reference solve at ``t = 1``.

A returned point violates its bound when
``|v - ref| > err_v + err_ref + ROUNDING_FLOOR``; that is the honesty test
behind ``in_bound_frac``.  A point is *wrong* when ``|v - ref|`` exceeds
``CHECK_TOL`` or when the value or its error bar is not finite; any wrong
point makes the run incorrect.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

#: absolute rounding floor added to the sum of the two error bars
ROUNDING_FLOOR = 1e-12
#: absolute disagreement with the reference beyond which a value is wrong
CHECK_TOL = 1e-3
#: digits carried beyond the predicted cancellation of the Wright series
_GUARD_DIGITS = 30
_EXTRA_DIGITS = 20


def _wright_mp(z: mp.mpf, eta: mp.mpf, beta: mp.mpf, k_peak: float) -> mp.mpf:
    """``sum_k z^k / (k! Gamma(eta k + beta))`` at the current precision."""
    tiny = mp.mpf(10) ** (-mp.mp.dps - 5)
    total = mp.mpf(0)
    power = mp.mpf(1)
    k = 0
    quiet = 0
    # single terms vanish at Gamma poles, so stop only after a run of
    # negligible terms past the peak
    while quiet < 8 or k <= k_peak:
        term = power * mp.rgamma(eta * k + beta)
        total += term
        power = power * z / (k + 1)
        k += 1
        quiet = quiet + 1 if abs(term) <= tiny * abs(total) else 0
    return total


def closed_form_n2(x: float, alpha: float, t: float) -> tuple[float, float]:
    """``(u, error)`` of the n = 2 solution at one point."""
    a = mp.mpf(alpha) / 2
    z = abs(x) * t ** (-alpha / 2.0)
    k_peak = (z * float(a) ** float(a)) ** (1.0 / (1.0 - float(a)))
    lost = 2.0 * (1.0 - float(a)) * k_peak / math.log(10.0)
    dps = _GUARD_DIGITS + int(1.2 * lost)
    values = []
    for digits in (dps, dps + _EXTRA_DIGITS):
        with mp.workdps(digits):
            w = _wright_mp(-mp.mpf(z), -mp.mpf(alpha) / 2,
                           1 - mp.mpf(alpha) / 2, k_peak)
            values.append(w * mp.mpf(t) ** (-mp.mpf(alpha) / 2) / 2)
    value = float(values[1])
    return value, float(abs(values[1] - values[0])) + 1e-17 * abs(value)


def self_test() -> list:
    """Failures of the closed form against two exact special cases."""
    failures = []
    want = 1.0 / (2.0 * float(mp.gamma(0.75)))
    got, _ = closed_form_n2(0.0, 0.5, 1.0)
    if abs(got - want) > 1e-14 * want:
        failures.append(f"x=0, alpha=1/2: {got!r} != 1/(2 Gamma(3/4)) = "
                        f"{want!r}")
    for x, t in ((0.0, 1.0), (0.7, 0.5), (-2.5, 2.0), (4.0, 1.3)):
        gauss = math.exp(-x * x / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
        got, _ = closed_form_n2(x, 1.0, t)
        if abs(got - gauss) > 1e-14 * gauss:
            failures.append(f"alpha=1, x={x}, t={t}: {got!r} != Gaussian "
                            f"{gauss!r}")
    return failures


class ReferenceUnavailable(Exception):
    """The reference route could not produce values for a group."""


@dataclass
class CheckReport:
    """Outcome of checking every point the run returned."""

    checked: int = 0
    unchecked: int = 0
    violations: int = 0
    wrong: int = 0
    examples: list = field(default_factory=list)

    def add(self, req, x: float, value: float, err: float, ref: float,
            ref_err: float) -> None:
        self.checked += 1
        diff = abs(value - ref)
        finite = math.isfinite(value) and math.isfinite(err) and err >= 0.0
        bad = not finite or not diff <= CHECK_TOL
        violated = bad or diff > err + ref_err + ROUNDING_FLOOR
        self.wrong += bad
        self.violations += violated
        if violated and len(self.examples) < 8:
            self.examples.append({
                "stratum": req.stratum, "route": req.route, "n": req.n,
                "sign": req.sign, "alpha": req.alpha, "t": req.t, "x": x,
                "value": value, "err": err, "ref": ref, "ref_err": ref_err})


def check(outcomes, reference_solve) -> CheckReport:
    """Check every point of every successful outcome.

    ``reference_solve(route, n, sign, alpha, t, xs)`` returns
    ``(values, errors)`` from ``fracheat`` or raises
    :class:`ReferenceUnavailable`, which leaves that group's points
    unchecked.
    """
    report = CheckReport()
    groups = defaultdict(list)
    for out in outcomes:
        if not out.ok:
            continue
        req = out.request
        if req.n == 2:
            for x, v, e in zip(req.xs, out.values, out.errors):
                ref, ref_err = closed_form_n2(x, req.alpha, req.t)
                report.add(req, x, float(v), float(e), ref, ref_err)
        else:
            groups[(req.route, req.n, req.alpha)].append(out)
    for (route, n, alpha), outs in groups.items():
        # odd orders of opposite sign are mirror images, so one reference
        # at sign +1 covers both: u_-(x, t) = u_+(-x, t)
        ys_of = [np.asarray(out.request.xs) * out.request.sign
                 * out.request.t ** (-alpha / n) for out in outs]
        ys = np.unique(np.concatenate(ys_of))
        other = "fourier_ml" if route == "subordination" else "subordination"
        try:
            ref_u, ref_e = reference_solve(other, n, 1, alpha, 1.0, tuple(ys))
        except ReferenceUnavailable:
            report.unchecked += sum(len(out.request.xs) for out in outs)
            continue
        for out, y in zip(outs, ys_of):
            req = out.request
            scale = req.t ** (-alpha / n)
            idx = np.searchsorted(ys, y)
            for x, v, e, i in zip(req.xs, out.values, out.errors, idx):
                report.add(req, x, float(v), float(e), scale * float(ref_u[i]),
                           scale * float(ref_e[i]))
    return report
