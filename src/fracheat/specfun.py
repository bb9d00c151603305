"""Special functions shared by every analytic route.

Covers the Wright function W(x; eta, beta), the Mittag-Leffler function
E_alpha(z), the one-sided (totally skewed) stable density with Laplace
transform e^{-s^alpha u}, and the spectrally negative stable density
restricted to the positive half-line.  Every Gamma factor of a series term
is taken as scipy's reciprocal ``rgamma``, which is entire and exactly 0 at
the non-positive integers: terms that cross a Gamma pole (the Wright
series has them) vanish instead of raising.

The alternating series here (Wright, the spectrally negative series) lose
digits catastrophically as the argument grows.  Each one is summed with
compensated accumulation in float64 while tracking the largest term; when
the largest term exceeds 1e4 times the sum the evaluation is redone in
extended precision, and past 1e12 times the sum (the declared guard) a
:class:`SeriesRangeError` is raised instead of returning noise.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln, rgamma, wofz

from ._errors import (
    ConvergenceError,
    DomainError,
    SeriesRangeError,
    require_alpha,
)
from .quadrature import _chunks, _gl_panels

#: Condition number (max |term| / |sum|) up to which a float64 compensated
#: sum keeps ~12 significant digits.
_COND_FLOAT = 1.0e4

#: Condition number beyond which evaluation is refused (the series guard).
_COND_GUARD = 1.0e12

#: Terms an extended-precision series may sum before it is declared
#: unconverged; a partial sum is never returned as a value.  The complex
#: Mittag-Leffler Taylor loop (the tests' reference) stops at half the cap.
_MP_TERM_CAP = 200000


def _mp_cap_exceeded(name: str, x, cap: int) -> ConvergenceError:
    return ConvergenceError(
        f"{name} series at {x} did not converge within {cap} terms")


# ---------------------------------------------------------------------------
# Parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WrightParams:
    """Wright function parameters; eta is restricted to (-1, 0), the range
    in which the series is entire and the time-change densities live."""

    eta: float
    beta: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.eta < 0.0):
            raise DomainError(f"eta must lie in (-1, 0), got {self.eta}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class MLParams:
    """Mittag-Leffler order alpha in (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        require_alpha(self.alpha)


@dataclass(frozen=True)
class StableOneSided:
    """Totally skewed stable law with Laplace transform e^{-s^alpha u}."""

    alpha: float
    u: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.u > 0.0:
            raise DomainError(f"scale u must be positive, got {self.u}")


@dataclass(frozen=True)
class StableSpectrallyNegative:
    """Stable law of index 1/alpha with no positive jumps, at time t; its
    restriction to u > 0 carries mass alpha."""

    alpha: float
    t: float

    def __post_init__(self) -> None:
        if not (0.5 <= self.alpha < 1.0):
            raise DomainError(
                f"alpha must lie in [1/2, 1), got {self.alpha}")
        if not self.t > 0.0:
            raise DomainError(f"t must be positive, got {self.t}")


# ---------------------------------------------------------------------------
# Closed forms past the float range of their factors
# ---------------------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def closed_form(sign: float, log_abs: float, direct, what: str) -> float:
    """A closed-form value ``sign * exp(log_abs)``, with ``log_abs`` taken
    from ``gammaln``, so that a factor such as ``r!`` (past ``r = 170``)
    may leave the float range while the value stays inside it.

    ``direct()`` is the plain product of the factors.  Where it agrees with
    the log form to 1e-12 it is returned instead, because it is exact on
    the small integer cases (a ratio of factorials); where a factor
    overflows or underflows it does not agree.  A value beyond the float
    range raises :class:`DomainError`.
    """
    if log_abs > _LOG_FLOAT_MAX:
        raise DomainError(
            f"{what} is about 10^{log_abs / math.log(10.0):.0f}, beyond the "
            "float range")
    value = sign * math.exp(log_abs)
    try:
        plain = float(direct())
    except OverflowError:
        return value
    return plain if abs(plain - value) <= 1e-12 * abs(value) else value


# ---------------------------------------------------------------------------
# Compensated summation
# ---------------------------------------------------------------------------

def _neumaier_step(s: np.ndarray, c: np.ndarray, term: np.ndarray):
    """One compensated-accumulation step: returns updated (sum, carry)."""
    t = s + term
    big = np.where(np.abs(s) >= np.abs(term), s, term)
    small = np.where(np.abs(s) >= np.abs(term), term, s)
    c = c + ((big - t) + small)
    return t, c


def _series_condition(total: np.ndarray, max_term: np.ndarray,
                      live_term: np.ndarray) -> np.ndarray:
    """``max|term| / |sum|`` of a summed series, inf where its closing
    terms (``live_term``, the largest over a closing window) have not
    decayed to 1e-14 of the sum or the sum is not finite."""
    with np.errstate(over="ignore"):  # an overflow reads inf, as it should
        cond = max_term / np.maximum(np.abs(total), 1e-300)
    stalled = live_term > 1e-14 * (np.abs(total) + 1e-300)
    cond = np.where(stalled & np.isfinite(cond), np.inf, cond)
    return np.where(np.isfinite(total), cond, np.inf)


def _tiered_series(x: np.ndarray, pred: np.ndarray, series_f64, series_mp,
                   refusal) -> np.ndarray:
    """A cancelling series at every ``x``, routed by the digits ``pred``
    it is predicted to lose: compensated float64 up to 3.5 (an entry whose
    measured condition exceeds ``_COND_FLOAT`` escalates too, since the
    prediction is asymptotic), extended precision up to 12, and beyond
    that a :class:`SeriesRangeError` with message ``refusal(x, digits)``
    instead of noise."""
    if pred.size and np.max(pred) > 12.0:
        i = int(np.argmax(pred))
        raise SeriesRangeError(refusal(x[i], pred[i]))
    values = np.empty_like(x)
    f64 = pred <= 3.5
    need_mp = ~f64
    if np.any(f64):
        values[f64], cond = series_f64(x[f64])
        need_mp[f64] = cond > _COND_FLOAT
    for i in np.flatnonzero(need_mp):
        values[i] = series_mp(float(x[i]), max(float(pred[i]), 4.0))
    return values


# ---------------------------------------------------------------------------
# Wright function
# ---------------------------------------------------------------------------

def _wright_peak_index(x_abs, a: float):
    """Index near which |x|^k / (k! |Gamma(eta k + beta)|) peaks, a = -eta."""
    return (x_abs * a ** a) ** (1.0 / (1.0 - a))


def wright_guard(eta: float, beta: float) -> float:
    """Largest |x| for which wright_w_grid will attempt an evaluation.

    Chosen where the predicted largest series term reaches ~1e12 times the
    predicted sum; beyond it the caller must rescale or switch routes.
    """
    a = -eta
    return float((0.5 * _COND_GUARD_LOG / (1.0 - a)) ** (1.0 - a) / a ** a)


_COND_GUARD_LOG = math.log(_COND_GUARD)


def _wright_series_f64(x: np.ndarray, eta: float, beta: float):
    """Compensated float64 Wright series on an array of arguments.

    Returns (values, condition) where condition = max|term| / |sum|, or
    inf where the term budget ran out before the terms became negligible.
    Individual terms legitimately vanish at Gamma poles, so the stopping
    rule demands several consecutive negligible terms, never just one, and
    convergence is judged over the closing window of terms.
    """
    x = np.asarray(x, dtype=float)
    a = -eta
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    k_peak = _wright_peak_index(xmax, a)
    n_terms = min(int(3.0 * k_peak) + 120, 20000)

    ks = np.arange(n_terms, dtype=float)
    with np.errstate(over="ignore"):
        rg = rgamma(eta * ks + beta)

    s = np.zeros_like(x)
    c = np.zeros_like(x)
    power = np.ones_like(x)  # x^k / k!
    max_term = np.zeros_like(x)
    window = np.zeros((8,) + x.shape)  # |term| of the last eight terms
    quiet = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_terms):
            term = power * rg[k]
            s, c = _neumaier_step(s, c, term)
            np.maximum(max_term, np.abs(term), out=max_term)
            window[k % 8] = np.abs(term)
            power = power * x / (k + 1.0)
            if np.all(np.abs(term) <= 1e-18 * (np.abs(s) + 1e-300)):
                quiet += 1
                if quiet >= 8 and k > k_peak:
                    break
            else:
                quiet = 0
    total = s + c
    return total, _series_condition(total, max_term, window.max(axis=0))


def _wright_mp(x: float, eta: float, beta: float, digits_lost: float) -> float:
    """Extended-precision Wright series for one argument."""
    a = -eta
    k_peak = _wright_peak_index(abs(x), a)
    with mp.workdps(int(30 + 1.2 * digits_lost)):
        xm = mp.mpf(x)
        # The rgamma argument must be formed in working precision: a float
        # eta*k carries an O(k eps) wobble that the big cancelling terms
        # amplify into the leading digits of the sum.
        em = mp.mpf(eta)
        bm = mp.mpf(beta)
        s = mp.mpf(0)
        power = mp.mpf(1)
        quiet = 0
        k = 0
        while True:
            term = power * mp.rgamma(em * k + bm)
            s += term
            power = power * xm / (k + 1)
            k += 1
            if abs(term) <= mp.mpf(10) ** (-mp.mp.dps - 2) * (abs(s) + mp.mpf("1e-999")):
                quiet += 1
                if quiet >= 8 and k > k_peak:
                    break
            else:
                quiet = 0
            if k > _MP_TERM_CAP:
                raise _mp_cap_exceeded("Wright", x, _MP_TERM_CAP)
        return float(s)


def wright_w_extended(x: float, params: WrightParams) -> float:
    """W(x; eta, beta) beyond the standard guard, at whatever precision
    the predicted cancellation demands.

    The standard entry points refuse arguments that would cancel more
    than twelve digits; density tails legitimately need values further
    out, where the result is superexponentially small but its *relative*
    accuracy still matters.  This sums the same series with the working
    precision scaled to the prediction.  Refuses beyond ~200 cancelled
    digits, far outside any tail a caller can justify integrating.
    """
    x = float(x)
    digits = float(_wright_predicted_digits(abs(x), params.eta)) + 6.0
    if digits > 200.0:
        raise SeriesRangeError(
            f"Wright series at x={x:g} would cancel ~{digits:.0f} digits; "
            "clamp the tail instead of evaluating it")
    return _wright_mp(x, params.eta, params.beta, max(digits, 4.0))


def _wright_predicted_digits(x_abs: np.ndarray, eta: float) -> np.ndarray:
    """Predicted decimal digits cancelled by the alternating Wright series.

    The peak term has log-magnitude ~ +(1-a) k_peak while the sum decays
    like -(1-a) k_peak, so ~ 2 (1-a) k_peak / ln 10 digits are lost.  The
    prediction stays finite where a naive measured condition would first
    overflow, which is what makes it usable as the tier router.
    """
    k_pk = _wright_peak_index(np.asarray(x_abs, dtype=float), -eta)
    return 2.0 * (1.0 + eta) * k_pk / math.log(10.0)


def wright_w_grid(x: np.ndarray, params: WrightParams) -> np.ndarray:
    """W(x; eta, beta) = sum_k x^k / (k! Gamma(eta k + beta)) over an array,
    sharing one term recurrence.

    Relative accuracy ~1e-10 inside the guard.  Arguments are routed by
    the predicted cancellation: <= ~3.5 digits lost runs in compensated
    float64, <= 12 digits in extended precision, and beyond that
    (|x| > wright_guard(eta, beta)) a :class:`SeriesRangeError` is raised
    instead of returning noise.
    """
    x = np.asarray(x, dtype=float)
    eta, beta = params.eta, params.beta
    return _tiered_series(
        x, _wright_predicted_digits(np.abs(x), eta),
        lambda xs: _wright_series_f64(xs, eta, beta),
        lambda xv, digits: _wright_mp(xv, eta, beta, digits),
        lambda xv, digits: (
            f"Wright series at x={xv:g} would cancel ~{digits:.0f} digits; "
            f"|x| exceeds the declared guard ~{wright_guard(eta, beta):.3g} "
            "-- rescale or use the stable route"))


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

#: |z|^{1/alpha} below which float64 Taylor keeps >= 13 digits even with
#: full cancellation (0.434 * 6.9 ~ 3 digits lost).
_ML_F64_EXPONENT = 6.9

#: log of the term size past the peak at which the float64 Taylor sum stops
_ML_LOG_TERM_FLOOR = math.log(1e-18)


def _ml_taylor_f64(z: np.ndarray,
                   alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Float64 Taylor sum of E_alpha on a (small-|z|) array, and a bound on
    its rounding error.

    The term count runs past the peak until ``|z|^k / Gamma(alpha k + 1)``
    is below 1e-18.  For small alpha the Gamma factor grows so slowly that
    this takes many times the peak index.  All points sum all terms as one
    (terms x points) array, in the blocks of :func:`_chunks`; reducing
    down the terms adds each point's terms in order.  The rounding bound
    is ``8 eps`` times the sum of the terms' moduli: against the
    extended-precision sum the error stays below ``3.4 eps`` times it for
    alpha from 0.01 to 0.99 up to the tier edge.
    """
    z = np.asarray(z, dtype=complex)
    zmax = float(np.max(np.abs(z))) if z.size else 0.0
    k_peak = zmax ** (1.0 / alpha) / alpha if zmax > 0 else 0.0
    n_terms = int(2.5 * k_peak) + 40
    if zmax > 0:
        log_z = math.log(zmax)
        while (n_terms * log_z - float(gammaln(alpha * n_terms + 1.0))
               > _ML_LOG_TERM_FLOOR):
            n_terms *= 2
    rg = rgamma(alpha * np.arange(n_terms, dtype=float) + 1.0)
    s = np.empty_like(z)
    abs_sum = np.empty(z.shape)
    for idx in _chunks(z.size, n_terms):
        terms = np.repeat(z[None, idx], n_terms, axis=0)
        terms[0] = 1.0
        terms = np.cumprod(terms, axis=0)
        terms *= rg[:, None]
        s[idx] = terms.sum(axis=0)
        abs_sum[idx] = np.abs(terms).sum(axis=0)
    return s, 8.0 * np.finfo(float).eps * abs_sum


def _ml_taylor_mp(z: complex, alpha: float, digits_lost: float) -> complex:
    """Extended-precision Taylor sum of E_alpha at one point, with
    ``digits_lost`` extra digits for the cancellation.  No solve calls it:
    it is the reference the tests hold the float64 tiers to."""
    k_peak = abs(z) ** (1.0 / alpha) / alpha if z != 0 else 0.0
    with mp.workdps(int(25 + 1.2 * digits_lost)):
        zm = mp.mpc(z)
        # Form the rgamma argument in working precision (see _wright_mp).
        am = mp.mpf(alpha)
        s = mp.mpc(0)
        power = mp.mpc(1)
        k = 0
        quiet = 0
        while True:
            term = power * mp.rgamma(am * k + 1)
            s += term
            power *= zm
            k += 1
            if abs(term) <= mp.mpf(10) ** (-mp.mp.dps - 2) * (abs(s) + mp.mpf("1e-999")):
                quiet += 1
                if quiet >= 8 and k > k_peak:
                    break
            else:
                quiet = 0
            if k > _MP_TERM_CAP // 2:
                raise _mp_cap_exceeded("Mittag-Leffler Taylor", z,
                                       _MP_TERM_CAP // 2)
        return complex(s)


def _ml_asymptotic(z: complex, alpha: float) -> tuple[complex, float]:
    """Algebraic asymptotic expansion of E_alpha, plus the exponential term
    ``e^w / alpha`` (``w = z^{1/alpha}``) inside the sector
    ``|arg z| < alpha*pi``.  Returns ``(value, error_estimate)``.

    No solve calls it, and its estimate does not bound its error (it reads
    0 wherever ``alpha N`` is an integer): :func:`_ml_contour` serves every
    ``|z|^(1/alpha) > 6.9``.  It stays only because ``bench/tracer.py``
    probes it by name."""
    az = abs(z)
    # from the logarithm: for small alpha the power overflows a float
    root = math.exp(min(math.log(az) / alpha, 709.0))
    n_terms = max(2, int(min(0.8 * root / alpha, 160.0)))
    inv = 1.0 / z
    s = 0.0 + 0.0j
    power = inv
    last = 0.0
    for k in range(1, n_terms + 1):
        term = power * float(rgamma(1.0 - alpha * k))
        s -= term
        last = abs(term)
        power *= inv
    err = last + az ** -(n_terms + 1)

    theta = abs(cmath.phase(z))
    near_stokes = abs(theta - alpha * math.pi) < 0.2
    if theta < alpha * math.pi:
        w = root * cmath.exp(1j * cmath.phase(z) / alpha)
        if w.real < 700.0:
            expterm = cmath.exp(w) / alpha
            s += expterm
            if near_stokes:
                err += abs(expterm)
    elif near_stokes:
        # Omitted exponential is e^{-|z|^{1/alpha}}-small here; widen anyway.
        err += math.exp(max(-700.0, root * math.cos(theta / alpha))) / alpha
    return s, err


#: Absolute accuracy for which the contour's parameters are chosen
#: (Garrappa's epsilon).
_ML_CONTOUR_TOL = 1e-15
_LOG_EPS = math.log(np.finfo(float).eps)


def _ml_parabola(sq_bar, log_tol: float) -> tuple[np.ndarray, ...]:
    """Garrappa's ``(sqrt(mu), h, N)`` at t = 1 for the parabola
    ``s = mu (1 + iu)^2`` of the unbounded region, whose nearest
    singularity on its left sits at ``phibar = sq_bar^2`` on the
    parabola scale ``phi(s) = (Re s + |s|) / 2``."""
    phibar = sq_bar ** 2
    lep = log_tol / phibar
    n = np.ceil(phibar / math.pi * (1.0 - 1.5 * lep
                                    + np.sqrt(1.0 - 2.0 * lep)))
    a = math.pi * n / phibar
    sq_mu = sq_bar * np.abs(4.0 - a) / np.abs(7.0 - np.sqrt(1.0 + 12.0 * a))
    h = (-3.0 * a - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    return sq_mu, h, n


def _ml_pinned(sq_mu, h, n, phibar,
               log_tol: float) -> tuple[np.ndarray, ...]:
    """``(mu, h, N)`` from :func:`_ml_parabola`'s, with ``mu`` held at
    ``log(tol / eps)``: past it the rounding of ``e^mu`` swamps the
    target, so ``N`` comes from the rounding-limited model for a
    singularity at ``phibar``.  ``N`` is inf where that singularity leaves
    the pinned parabola no room."""
    mu = sq_mu ** 2
    gap = log_tol - _LOG_EPS
    w = math.sqrt(_LOG_EPS / -gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_pin = np.ceil(w * log_tol / (2.0 * math.pi)
                        / (np.sqrt(-phibar / _LOG_EPS) * w - 1.0))
    n_pin = np.where(phibar < gap, n_pin, np.inf)
    over = mu > gap
    return (np.where(over, gap, mu), np.where(over, w / n_pin, h),
            np.where(over, n_pin, n))


#: ``(mu, h, N)`` for a point with no pole, where only the branch point at
#: 0 bounds the parabola (Garrappa's unbounded region with p = 0, which
#: stands ``phibar = 0.01`` in for the singularity at 0).
_ML_BRANCH_ONLY = tuple(float(v) for v in _ml_pinned(
    *_ml_parabola(0.1, math.log(_ML_CONTOUR_TOL)), 0.0,
    math.log(_ML_CONTOUR_TOL)))


def _ml_region_past(phi1: np.ndarray,
                    log_tol: float) -> tuple[np.ndarray, ...]:
    """``(mu, h, N)`` of the parabola that passes right of a pole on the
    parabola ``phi1``, with no singularity further right (Garrappa's
    unbounded region with p = 1, at t = 1).  ``N`` is inf where rounding,
    which grows like ``e^mu``, rules the region out."""
    sq_phi = np.sqrt(phi1)
    sq_bar = np.sqrt(1.01 * phi1)
    for _ in range(50):
        sq_mu, h, n = _ml_parabola(sq_bar, log_tol)
        # widen the gap to the pole until its amplification of the
        # discretisation error, fbar, lies in (1, 10)
        fbar = sq_mu / (sq_bar - sq_phi)
        done = (fbar > 1.0) & (fbar < 10.0)
        if np.all(done):
            break
        sq_bar = np.where(done, sq_bar, 0.2 * sq_mu + sq_phi)
    else:
        n = np.where(done, n, np.inf)
    return _ml_pinned(sq_mu, h, n, (0.2 * sq_mu + sq_phi) ** 2, log_tol)


def _ml_region_between(phi1: np.ndarray,
                       log_tol: float) -> tuple[np.ndarray, ...]:
    """``(mu, h, N)`` of the parabola between the branch point at 0 and a
    pole on the parabola ``phi1`` (Garrappa's bounded region with
    ``p = 0``, ``q = 1``, at t = 1).  The pole is left on its right."""
    gap = log_tol - _LOG_EPS
    sq_j1 = np.minimum(np.sqrt(phi1), 2.0 * math.sqrt(gap))
    f_max = math.exp(gap)
    fbar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    sq_bar = 2.0 * sq_j1 / (2.0 + 1.0 / fbar)
    log_tol -= math.log(fbar)
    w = -sq_bar ** 2 / log_tol
    mu = (sq_bar / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol
    return mu, np.full(mu.shape, h), np.ceil(np.sqrt(1.0 - log_tol / mu) / h)


def _ml_contour(z: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """E_alpha(z) for alpha in (0, 1) as ``(values, errors)``, by the
    trapezoidal rule on Garrappa's optimal parabolic contour (SIAM J.
    Numer. Anal. 53 (2015) 1350-1369) applied to

        E_alpha(z) = (1 / 2 pi i) int_C e^s s^(alpha-1) / (s^alpha - z) ds.

    Each point takes its own ``(mu, h, N)`` from its singularities: the
    branch point at 0 and, when ``|arg z| < alpha pi``, the one pole
    ``s* = |z|^(1/alpha) e^{i arg z / alpha}``.  Where the cheaper contour
    passes between the two, the pole's residue ``e^{s*} / alpha`` is
    added.  The pole and its residue are formed only where they are used,
    so a point far out on a ray with no pole cannot overflow, and a
    residue beyond the float range raises :class:`DomainError`.  The error
    is the target the parameters are chosen for, ``_ML_CONTOUR_TOL``, plus
    a rounding term: ``4 eps`` times the moduli of the trapezoidal terms,
    and ``4 eps |s*| / alpha`` times the residue: the rounding of ``z``
    moves ``s* = z^(1/alpha)`` by ``|s*| / alpha`` times as much,
    relatively, and ``e^{s*}`` with it.
    """
    log_tol = math.log(_ML_CONTOUR_TOL)
    theta = np.angle(z)
    sector = np.abs(theta) < alpha * math.pi
    pole = np.zeros(z.shape, dtype=complex)
    with np.errstate(over="ignore"):  # past 1e300 it only picks the region
        pole[sector] = (np.minimum(np.abs(z[sector]) ** (1.0 / alpha), 1e300)
                        * np.exp(1j * theta[sector] / alpha))
    phi1 = 0.5 * (pole.real + np.abs(pole))
    idx = np.nonzero(sector & (phi1 > 1e-15))[0]

    mu, h, n = (np.full(z.shape, v) for v in _ML_BRANCH_ONLY)
    mu_b, h_b, n_b = _ml_region_between(phi1[idx], log_tol)
    mu_u, h_u, n_u = _ml_region_past(phi1[idx], log_tol)
    between = n_b <= n_u
    mu[idx] = np.where(between, mu_b, mu_u)
    h[idx] = np.where(between, h_b, h_u)
    n[idx] = np.where(between, n_b, n_u)
    idx = idx[between]
    if np.any(pole.real[idx] - math.log(alpha) > _LOG_FLOAT_MAX):
        raise DomainError(f"E_alpha(z) at alpha = {alpha} has a residue "
                          "beyond the float range")
    residue = np.zeros(z.shape, dtype=complex)
    residue[idx] = np.exp(pole[idx]) / alpha

    values = np.empty(z.shape, dtype=complex)
    sum_abs = np.empty(z.shape)
    # blocks of similar N waste few masked nodes
    for idx in _chunks(z.size, 2.0 * n + 1.0):
        n_max = int(n[idx[0]])
        k = np.arange(-n_max, n_max + 1)
        u = h[idx, None] * k
        s = mu[idx, None] * (1.0 + 1j * u) ** 2
        sa = s ** alpha
        terms = np.exp(s)
        terms *= sa
        terms /= s
        sa -= z[idx, None]
        terms /= sa
        terms *= (2.0 * mu[idx, None]) * (1j - u)
        terms[np.abs(k) > n[idx, None]] = 0.0
        values[idx] = h[idx] * terms.sum(axis=1) / (2j * math.pi)
        sum_abs[idx] = h[idx] * np.abs(terms).sum(axis=1) / (2.0 * math.pi)
    values += residue
    # a real argument has a real value; the symmetric sum leaves only
    # rounding in the imaginary part
    values = np.where(z.imag == 0.0, values.real, values)
    eps = np.finfo(float).eps
    errors = (_ML_CONTOUR_TOL + 4.0 * eps * sum_abs
              + 4.0 * eps * np.abs(pole) / alpha * np.abs(residue))
    return values, errors


def mittag_leffler_grid(z: np.ndarray,
                        params: MLParams) -> tuple[np.ndarray, np.ndarray]:
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) over an array of complex
    arguments, as ``(values, error_estimates)``.

    Branches: exp for alpha = 1, the Faddeeva closed form for alpha = 1/2,
    float64 Taylor while cancellation loses < 3 digits
    (``|z|^(1/alpha) <= 6.9``), and the optimal parabolic contour
    (:func:`_ml_contour`, absolute error about 1e-15 plus rounding)
    everywhere beyond.  Every branch is float64.
    """
    alpha = params.alpha
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    values = np.empty_like(z)
    errors = np.zeros(z.shape, dtype=float)

    if alpha == 1.0:
        values[:] = np.exp(z)
        errors[:] = np.abs(values) * 1e-15
        return values, errors
    if alpha == 0.5:
        # E_{1/2}(z) = e^{z^2} erfc(-z), the scaled Faddeeva function, where
        # e^{z^2} amplifies the rounding of z by 2|z|^2: a bar of 8 eps |z|^2
        values[:] = wofz(-1j * z)
        errors[:] = np.abs(values) * (1e-13 + 1.8e-15 * np.abs(z) ** 2)
        return values, errors

    with np.errstate(over="ignore"):  # inf sends the point to the contour
        taylor_ok = np.abs(z) ** (1.0 / alpha) <= _ML_F64_EXPONENT

    idx_taylor = np.nonzero(taylor_ok)[0]
    if idx_taylor.size:
        values[idx_taylor], rounding = _ml_taylor_f64(z[idx_taylor], alpha)
        errors[idx_taylor] = (np.abs(values[idx_taylor]) * 1e-12 + 1e-15
                              + rounding)

    idx_contour = np.nonzero(~taylor_ok)[0]
    if idx_contour.size:
        values[idx_contour], errors[idx_contour] = _ml_contour(
            z[idx_contour], alpha)
    return values, errors


# ---------------------------------------------------------------------------
# One-sided stable density
# ---------------------------------------------------------------------------

def _stable_series_f64(w: np.ndarray, alpha: float, log_u: np.ndarray):
    """Large-argument series of the one-sided stable density, each point
    at its own scale ``u = e^{log_u}``:

    (1/pi) sum_{k>=1} (-1)^{k+1} Gamma(alpha k + 1)/k! sin(pi k alpha)
                      u^k w^{-alpha k - 1}
    Returns (values, condition); condition is inf where a point's 4000-term
    cap was hit before its terms started decaying.  Each point sums its own
    term count, so a batch returns what each point would alone.
    """
    log_w = np.log(w)
    log_ratio = np.maximum(log_u - alpha * log_w, math.log(1e-9))
    k_peak = np.exp(log_ratio / (1.0 - alpha))
    n_terms = 2.6 * k_peak + 60.0
    # below the peak the terms shrink only by ~(k / (e k_peak))^-(1-alpha)
    # each, which for alpha near 1 takes far more than 60 terms
    small = k_peak < 0.1
    n_terms[small] += 40.0 / (-log_ratio[small] - (1.0 - alpha))
    n_terms = np.minimum(n_terms, 4000.0).astype(int)

    ks = np.arange(1.0, n_terms.max() + 1.0)
    # Gamma(alpha k + 1)/k! staying in log space for range safety.
    log_coef = gammaln(alpha * ks + 1.0) - gammaln(ks + 1.0)
    signed_sin = np.where(ks % 2 == 1, 1.0, -1.0) * np.sin(np.pi * alpha * ks)
    total, cond = np.empty(w.size), np.empty(w.size)
    for idx in _chunks(w.size, n_terms):
        k = ks[:n_terms[idx[0]]]
        # One dense (argument, term) block: numpy's pairwise summation keeps
        # the rounding at ~log2(n) eps per max term; the caller trusts the
        # sum only up to _STABLE_SERIES_COND.
        terms = signed_sin[:k.size] * np.exp(
            log_coef[:k.size] + k * log_u[idx, None]
            + (-alpha * k - 1.0) * log_w[idx, None])
        terms[k > n_terms[idx, None]] = 0.0
        total[idx] = terms.sum(axis=1)
        abs_terms = np.abs(terms)
        # sin(pi k alpha) vanishes at rational alpha, so judge convergence
        # by the largest magnitude over each point's closing window, not
        # its literal last term.
        live = np.where(k > n_terms[idx, None] - 8, abs_terms, 0.0)
        cond[idx] = _series_condition(total[idx], abs_terms.max(axis=1),
                                      live.max(axis=1))
    return total / math.pi, cond


_ZOLOTAREV_NODE_LADDER = (240, 480, 960, 1920)

#: Condition up to which the one-sided stable series is trusted.  Its
#: log-space terms carry ~1e-13 relative rounding each, so past a few units
#: of cancellation the positive Zolotarev integral is the more accurate.
_STABLE_SERIES_COND = 3.0


def _zolotarev_values(w: np.ndarray, alpha: float,
                      log_scale=0.0) -> np.ndarray:
    """Small-argument one-sided stable density at scale ``u``, given as
    ``log_scale = -log(u) / alpha`` (one for all points or one per point):
    ``f(w; u) = e^{log_scale} f(x; 1)`` with ``x = w e^{log_scale}``, and

    f(x; 1) = (alpha / ((1-alpha) pi)) x^{-1/(1-alpha)}
              * int_0^pi A(theta) exp(-x^{-alpha/(1-alpha)} A(theta)) dtheta
    with A(theta) = sin(alpha theta)^{alpha/(1-alpha)}
                    * sin((1-alpha) theta) / sin(theta)^{1/(1-alpha)}.
    The integrand is positive, so no cancellation occurs, which is exactly
    why this route covers the region where the series loses digits.  Each
    point climbs the node ladder alone, until two rungs agree to 1e-10.
    """
    frac = alpha / (1.0 - alpha)
    # the scale, the prefactor and the multiplier inside the exponential
    # stay in log form: near alpha = 0 the scale underflows and near
    # alpha = 1 the powers of x overflow, even where the density itself is
    # representable
    log_x = np.log(np.asarray(w, dtype=float)) + log_scale
    log_pref = (math.log(frac / math.pi) + log_scale
                - log_x / (1.0 - alpha))
    log_cs = -frac * log_x

    def eval_rule(n_nodes: int, idx: np.ndarray) -> np.ndarray:
        theta, wts = _gl_panels(np.array([0.0, math.pi]), n_nodes)
        log_a = (frac * np.log(np.sin(alpha * theta))
                 + np.log(np.sin((1.0 - alpha) * theta))
                 - np.log(np.sin(theta)) / (1.0 - alpha))[:, None]
        out = np.empty(idx.size)
        for at in _chunks(idx.size, n_nodes):
            # integrand rows: one theta; columns: one x
            with np.errstate(over="ignore"):
                expo = (log_pref[idx[at]] + log_a
                        - np.exp(log_cs[idx[at]] + log_a))
            out[at] = wts @ np.where(expo > -745.0, np.exp(expo), 0.0)
        return out

    idx = np.arange(log_x.size)
    values = eval_rule(_ZOLOTAREV_NODE_LADDER[0], idx)
    for n_nodes in _ZOLOTAREV_NODE_LADDER[1:]:
        cur = eval_rule(n_nodes, idx)
        change = np.abs(cur - values[idx]) / np.maximum(np.abs(cur), 1e-300)
        values[idx] = cur
        idx = idx[~(change < 1e-10)]
        if idx.size == 0:
            return values
    raise ConvergenceError(
        f"Zolotarev integral at alpha={alpha} still moves by "
        f"{np.max(change):.2g} between its last rungs "
        f"({_ZOLOTAREV_NODE_LADDER[-1]} nodes)")


def _stable_one_sided(w: np.ndarray, alpha: float,
                      log_u: np.ndarray) -> np.ndarray:
    """Density at ``w > 0`` of the stable law with Laplace transform
    ``e^{-s^alpha u}``, each point at its own scale ``u = e^{log_u}``: the
    large-argument series where it is well conditioned, the positive
    integral of the scaling reduction w -> w u^{-1/alpha} below that (the
    two regimes overlap).  A point whose series peak index is already
    large goes straight to the integral, without a doomed term loop."""
    with np.errstate(over="ignore"):
        k_pk = np.exp((log_u - alpha * np.log(w)) / (1.0 - alpha))
    try_series = k_pk <= 300.0
    values = np.empty_like(w)
    use_integral = ~try_series
    if np.any(try_series):
        values[try_series], cond = _stable_series_f64(
            w[try_series], alpha, log_u[try_series])
        use_integral[try_series] = cond > _STABLE_SERIES_COND
    if np.any(use_integral):
        values[use_integral] = _zolotarev_values(
            w[use_integral], alpha, -log_u[use_integral] / alpha)
    return values


def stable_one_sided_density_grid(w: np.ndarray, s: StableOneSided) -> np.ndarray:
    """Density of the stable law with Laplace transform e^{-s^alpha u}
    over an array of w > 0: :func:`_stable_one_sided` at the scale s.u."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0):
        raise DomainError("stable density needs w > 0")
    return _stable_one_sided(w, s.alpha, np.full(w.shape, math.log(s.u)))


# ---------------------------------------------------------------------------
# Spectrally negative stable density (positive branch)
# ---------------------------------------------------------------------------

def _spec_neg_series_f64(x: np.ndarray, alpha: float):
    """(1/pi) sum_{n>=1} ((-1)^{n-1}/n!) sin(pi n alpha) Gamma(1+n alpha) x^{n-1}."""
    x = np.asarray(x, dtype=float)
    xmax = float(np.max(np.abs(x))) if x.size else 0.0
    # terms peak at n* = (alpha^alpha x)^{1/(1-alpha)}
    n_peak = (alpha ** alpha * max(xmax, 1e-9)) ** (1.0 / (1.0 - alpha))
    n_terms = min(int(3.0 * n_peak) + 120, 20000)
    ns = np.arange(1, n_terms + 1, dtype=float)
    log_coef = gammaln(1.0 + ns * alpha) - gammaln(ns + 1.0)
    sin_n = np.sin(np.pi * alpha * ns)
    sign_n = np.where(ns % 2 == 1, 1.0, -1.0)

    # Dense (term, argument) matrix; see the one-sided series for why the
    # pairwise sum is accurate enough under the 1e4 condition cap.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = x[None, :] ** (ns[:, None] - 1.0)
        terms = (sign_n * sin_n * np.exp(log_coef))[:, None] * powers
        abs_terms = np.abs(terms)
        total = terms.sum(axis=0)
        # sin(pi n alpha) has zeros at rational alpha; judge the tail by a
        # closing window of terms rather than the literal last one.
        cond = _series_condition(total, abs_terms.max(axis=0),
                                 abs_terms[-8:, :].max(axis=0))
    return total / math.pi, cond


def _spec_neg_mp(x: float, alpha: float, digits_lost: float) -> float:
    with mp.workdps(int(30 + 1.2 * digits_lost)):
        xm = mp.mpf(x)
        # Keep the gamma/sin arguments in working precision throughout.
        am = mp.mpf(alpha)
        s = mp.mpf(0)
        n = 1
        quiet = 0
        while True:
            term = ((-1) ** (n - 1) / mp.factorial(n) * mp.sinpi(am * n)
                    * mp.gamma(1 + n * am) * xm ** (n - 1))
            s += term
            n += 1
            if abs(term) <= mp.mpf(10) ** (-mp.mp.dps - 2) * (abs(s) + mp.mpf("1e-999")):
                quiet += 1
                if quiet >= 8:
                    break
            else:
                quiet = 0
            if n > _MP_TERM_CAP:
                raise _mp_cap_exceeded("spectrally negative", x, _MP_TERM_CAP)
        return float(s / mp.pi)


def stable_spec_neg_density_grid(u: np.ndarray,
                                 s: StableSpectrallyNegative) -> np.ndarray:
    """Density over an array of u >= 0 of the spectrally negative stable
    law of index 1/alpha at time t (positive branch; total mass alpha on
    u > 0).

    Entries are routed by :func:`_tiered_series` on the predicted series
    cancellation, the Wright series' with ``eta = -alpha``: the peak term
    has log-magnitude ~ (1-alpha) n* with n* = (alpha^alpha x)^{1/(1-alpha)},
    while the sum decays at the same rate.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise DomainError("spectrally negative branch needs u >= 0")
    talpha = s.t ** s.alpha
    x = u / talpha
    values = _tiered_series(
        x, _wright_predicted_digits(x, -s.alpha),
        lambda xs: _spec_neg_series_f64(xs, s.alpha),
        lambda xv, digits: _spec_neg_mp(xv, s.alpha, digits),
        lambda xv, digits: (
            f"spectrally negative series at u/t^alpha={xv:g} would cancel "
            f"~{digits:.0f} digits; beyond the declared guard"))
    return values / talpha
