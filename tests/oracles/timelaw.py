"""Four series representations of the random-time density, as oracles.

:mod:`fracheat.timechange` computes the density by the first-passage
duality with the one-sided stable law.  The routes here share no code
with it beyond :mod:`fracheat.specfun` and :mod:`fracheat.quadrature`,
and each must agree with the others wherever more than one applies:

* :func:`wright_density`: the closed form ``t^{-alpha} W(-u t^{-alpha};
  -alpha, 1 - alpha)`` built on the Wright series (all ``alpha`` in
  (0, 1));
* :func:`frac_integral_density`: the Riemann-Liouville integral of order
  ``1 - alpha`` (in ``t``) of the one-sided stable density in ``u``;
* :func:`stable_density`: ``(1/alpha)`` times the positive branch of the
  spectrally negative stable density of index ``1/alpha`` (``alpha`` in
  [1/2, 1));
* :func:`product_density`: when ``alpha = 1/m``, the density of a product
  of ``m - 1`` independent Gamma-power factors, staged by logarithmic
  Mellin convolution.

Each takes an array of ``u`` and returns the density there: 0 for
``u < 0`` and the limit ``t^{-alpha} / Gamma(1 - alpha)`` at ``u = 0``.
:func:`zolotarev_survival` gives the tail mass ``P(T > u0)`` at ``t = 1``
in extended precision, far past where the density underflows.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from fracheat._errors import DomainError
from fracheat.quadrature import JacobiWeight, integrate_jacobi_singular
from fracheat.specfun import (
    StableOneSided,
    StableSpectrallyNegative,
    WrightParams,
    stable_one_sided_density_grid,
    stable_spec_neg_density_grid,
    wright_guard,
    wright_w_extended,
    wright_w_grid,
)

#: ln of the density tail below which the Wright route clamps to zero
#: instead of summing the series (e^-140 ~ 1e-61).
_CLAMP_LOG = -140.0

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _on_half_line(alpha: float, u, t: float, positive) -> np.ndarray:
    """``positive`` on the entries ``u > 0``, 0 on ``u < 0`` and
    ``t^{-alpha} / Gamma(1 - alpha)`` at ``u = 0``."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    out[u == 0.0] = t ** -alpha / math.gamma(1.0 - alpha)
    pos = u > 0.0
    if np.any(pos):
        out[pos] = positive(u[pos])
    return out


# ---------------------------------------------------------------------------
# Wright route
# ---------------------------------------------------------------------------

def wright_log_decay(x_abs: float, eta: float) -> float:
    """Leading-order log-magnitude of W(-x; eta, beta) for x >= 0.

    ln |W| ~ -(1-a) (a^a x)^{1/(1-a)} with a = -eta; used to clamp
    provably negligible tails before the series guard triggers.  The power
    is formed from its logarithm: near a = 1 it leaves the float range
    already at moderate x, and the tail there is -inf for every purpose.
    """
    a = -eta
    if x_abs <= 0.0:
        return 0.0
    log_mag = math.log(1.0 - a) + math.log(a ** a * x_abs) / (1.0 - a)
    if log_mag > _LOG_FLOAT_MAX:
        return -math.inf
    return -math.exp(log_mag)


def wright_density(alpha: float, u, t: float) -> np.ndarray:
    """``t^{-alpha} W(-u t^{-alpha}; -alpha, 1-alpha)`` with the far tail
    clamped to zero and the mid tail (beyond the standard series guard but
    not yet provably negligible) summed at explicitly raised precision."""

    def positive(up: np.ndarray) -> np.ndarray:
        params = WrightParams(eta=-alpha, beta=1.0 - alpha)
        x = up * t ** -alpha
        guard = 0.999 * wright_guard(-alpha, 1.0 - alpha)
        out = np.zeros_like(x)
        inside = x <= guard
        if np.any(inside):
            out[inside] = t ** -alpha * wright_w_grid(-x[inside], params)
        for i in np.nonzero(~inside)[0]:
            if wright_log_decay(float(x[i]), -alpha) > _CLAMP_LOG:
                out[i] = t ** -alpha * wright_w_extended(float(-x[i]),
                                                         params)
        return out

    return _on_half_line(alpha, u, t, positive)


# ---------------------------------------------------------------------------
# Fractional-integral and spectrally negative routes
# ---------------------------------------------------------------------------

def frac_integral_density(alpha: float, u, t: float) -> np.ndarray:
    """Riemann-Liouville route: ``(1/Gamma(1-alpha)) int_0^t (t-w)^{-alpha}
    q(w; u) dw`` with ``q`` the one-sided stable density whose Laplace
    exponent is ``u s^alpha``, one integral to 1e-9 per point."""

    def one(v: float) -> float:
        stable = StableOneSided(alpha=alpha, u=v)

        def f(ws: np.ndarray) -> np.ndarray:
            return stable_one_sided_density_grid(ws, stable)

        res = integrate_jacobi_singular(
            f, 0.0, t, JacobiWeight(exponent=-alpha, endpoint="right"), 1e-9)
        return res.value / math.gamma(1.0 - alpha)

    return _on_half_line(alpha, u, t,
                         lambda up: np.array([one(float(v)) for v in up]))


def stable_density(alpha: float, u, t: float) -> np.ndarray:
    """Spectrally negative route, ``alpha`` in [1/2, 1): ``1/alpha`` times
    the positive branch of the index-``1/alpha`` stable density."""

    def positive(up: np.ndarray) -> np.ndarray:
        s = StableSpectrallyNegative(alpha=alpha, t=t)
        return stable_spec_neg_density_grid(up, s) / alpha

    return _on_half_line(alpha, u, t, positive)


# ---------------------------------------------------------------------------
# Product-of-factors route (alpha = 1/m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GjLaw:
    """One Gamma-power factor of the product route: index ``j`` of ``m - 1``
    independent factors at horizon ``t``."""

    m: int
    j: int
    t: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise DomainError(f"m must be an integer >= 2, got {self.m}")
        if not 1 <= self.j <= self.m - 1:
            raise DomainError(
                f"j must lie in 1..{self.m - 1}, got {self.j}")
        if not self.t > 0.0:
            raise DomainError(f"t must be positive, got {self.t}")


def gj_density(law: GjLaw, w) -> float | np.ndarray:
    """Density of the ``j``-th Gamma-power factor at ``w > 0``:
    ``c w^{j-1} exp(-w^m / (m^m t)^{1/(m-1)})`` with the normalizing
    constant ``c = m^{1-j/(m-1)} t^{-j/(m(m-1))} / Gamma(j/m)``."""
    m, j, t = law.m, law.j, law.t
    scalar = np.ndim(w) == 0
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w <= 0.0):
        raise DomainError("the factor density needs w > 0")
    # Log-space evaluation: convolution stages probe ratios across many
    # orders of magnitude, where w^{j-1} overflows while the exponential
    # underflows; the log form turns that into a clean zero.
    log_coef = ((1.0 - j / (m - 1.0)) * math.log(m)
                - j / (m * (m - 1.0)) * math.log(t)
                - math.lgamma(j / m))
    lw = np.log(w)
    with np.errstate(over="ignore"):
        decay = np.exp(m * lw - math.log(m ** m * t) / (m - 1.0))
        vals = np.exp(log_coef + (j - 1.0) * lw - decay)
    return float(vals[0]) if scalar else vals


def _product_density_values(m: int, u: np.ndarray, t: float,
                            nodes: int = 512) -> tuple[np.ndarray, float]:
    """Density of the product of the ``m - 1`` factors at the points ``u``.

    Each Mellin convolution stage is a trapezoid rule on a logarithmic
    grid; the integrands are analytic and die superexponentially at both
    ends, so the rule converges spectrally.  The result is recomputed on
    a doubled grid and the difference reported as the error estimate.
    """

    def pipeline(n_nodes: int) -> np.ndarray:
        if m == 2:
            return gj_density(GjLaw(m=2, j=1, t=t), u)
        scale_log = math.log(m ** m * t) / (m * (m - 1.0))
        f_vals = None
        y_prev = None
        for j in range(1, m - 1):
            center = j * scale_log
            y = np.linspace(center - 18.0, center + 8.0, n_nodes)
            if j == 1:
                f_vals = gj_density(GjLaw(m=m, j=1, t=t), np.exp(y))
            else:
                g = GjLaw(m=m, j=j, t=t)
                ratio = np.exp(y[:, None] - y_prev[None, :])
                kernel = gj_density(g, ratio)
                f_vals = kernel @ f_vals * (y_prev[1] - y_prev[0])
            y_prev = y
        g_last = GjLaw(m=m, j=m - 1, t=t)
        ratio = u[:, None] * np.exp(-y_prev[None, :])
        kernel = gj_density(g_last, ratio)
        return kernel @ f_vals * (y_prev[1] - y_prev[0])

    coarse = pipeline(nodes)
    fine = pipeline(2 * nodes)
    err = float(np.max(np.abs(fine - coarse))) if np.size(fine) else 0.0
    return fine, err


def product_order(alpha: float) -> int:
    """The integer ``m >= 2`` with ``alpha = 1/m`` that the product route
    needs."""
    m = round(1.0 / alpha)
    if m < 2 or abs(alpha * m - 1.0) > 1e-12:
        raise DomainError(
            f"the product route needs alpha = 1/m with integer m >= 2, "
            f"got alpha={alpha}")
    return int(m)


def product_density(m: int, u, t: float) -> np.ndarray:
    """Product route for ``alpha = 1/m``: the density of the product of the
    ``m - 1`` independent factors."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    return _on_half_line(
        1.0 / m, u, t,
        lambda up: _product_density_values(int(m), up, t)[0])


# ---------------------------------------------------------------------------
# Tail mass by Zolotarev's integral
# ---------------------------------------------------------------------------

def zolotarev_survival(alpha: float, u0: float, dps: int = 40) -> float:
    """``P(T > u0)`` for the random time ``T = S^-alpha`` at ``t = 1``,
    ``S`` one-sided stable with Laplace transform ``e^{-s^alpha}``: the
    CDF of ``S`` at ``u0^(-1/alpha)`` by Zolotarev's integral,

        (1/pi) int_0^pi exp(-A(theta) u0^(1/(1-alpha))) dtheta,
        A(theta) = sin(alpha theta)^(alpha/(1-alpha)) sin((1-alpha) theta)
                   / sin(theta)^(1/(1-alpha)),

    summed in mpmath at ``dps`` digits.  ``A`` grows like
    ``A(0) (1 + alpha theta^2 / 2)`` near 0, so the mass sits in
    ``theta < 1``; the integral is split there."""
    with mp.workdps(dps):
        a, u = mp.mpf(alpha), mp.mpf(u0)
        rate = u ** (1 / (1 - a))

        def integrand(theta):
            big_a = (mp.sin(a * theta) ** (a / (1 - a))
                     * mp.sin((1 - a) * theta)
                     / mp.sin(theta) ** (1 / (1 - a)))
            return mp.exp(-big_a * rate)

        return float(mp.quad(integrand, [0, 0.25, 1, mp.pi]) / mp.pi)
