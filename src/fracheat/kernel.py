"""The signed fundamental solution of ``du/dt = k_n d^n u / dx^n``.

For ``n = 2`` this is the Gaussian heat kernel; for ``n > 2`` the kernel
``p_n(x, t) = (1/2 pi) int exp(i x z + k_n t (i z)^n) dz`` is a genuinely
signed object (it still integrates to one).  The module owns the sign
coefficient ``k_n``, the root system driving the spatial Laplace transform,
the kernel's contour integral, the closed-form moments, and a numeric
moment route used to cross-validate them.

The kernel is self-similar, ``p_n(x, t) = t^(-1/n) p_n(x t^(-1/n), 1)``,
so the contour runs at ``t = 1`` only: :func:`kernel_density_grid` and
:func:`kernel_moment_numeric` map every other ``t`` onto it.  Each point
has its own path and a fixed rule, so its cost does not grow with
``|x|`` (numerical steepest descent: Huybrechs & Vandewalle, SIAM J.
Numer. Anal. 44 (2006) 1026-1048).  The path is a ray from 0 into a
valley of ``k (i z)^n``, summed by two Gauss-Legendre rules; on the
oscillatory side of odd ``n`` past ``|x| = 2n`` it is the ray into the
valley across the real axis, then the steepest-descent path through the
real saddle, summed by the trapezoidal rule and its midpoint rule.

Well-posedness forces ``k_n = (-1)^{q+1}`` for even ``n = 2q``; for odd
``n`` both signs give well-defined kernels that are mirror images of each
other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from ._errors import ConvergenceError, DomainError, require_positive
from .quadrature import (
    DEFAULT_TOL,
    QuadResult,
    _chunks,
    _integrate_points,
    euler_tail_sum,
    gauss_legendre,
)
from .specfun import closed_form

__all__ = [
    "EquationSpec",
    "RootSystem",
    "make_equation_spec",
    "root_system",
    "kernel_density_grid",
    "kernel_moment",
    "kernel_moment_numeric",
    "kernel_laplace",
]


@dataclass(frozen=True)
class EquationSpec:
    """Order and sign data of one spatial operator ``k_n d^n/dx^n``.

    ``odd_sign`` selects the sign for odd ``n`` (both are admissible and
    give mirror-image kernels); it is recorded but ignored for even ``n``,
    where well-posedness forces the sign.
    """

    n: int
    odd_sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainError(f"spatial order must be an integer >= 2, got {self.n}")
        if self.odd_sign not in (-1, 1):
            raise DomainError(f"odd_sign must be +-1, got {self.odd_sign}")

    @property
    def k(self) -> int:
        """The sign coefficient: ``(-1)^{q+1}`` for ``n = 2q``, else ``odd_sign``."""
        if self.n % 2 == 0:
            return -1 if (self.n // 2) % 2 == 0 else 1
        return self.odd_sign

    @property
    def osc_dir(self) -> int:
        """Sign of ``x`` on the side where the kernel oscillates with an
        algebraic envelope: ``-k (-1)^((n-1)/2)`` for odd ``n`` (it decays
        superexponentially on the other side), 0 for even ``n``."""
        if self.n % 2 == 0:
            return 0
        return -self.k * (-1) ** ((self.n - 1) // 2)


def make_equation_spec(n: int, odd_sign: int = 1) -> EquationSpec:
    """Validated constructor for :class:`EquationSpec`."""
    try:
        n_int, sign_int = int(n), int(odd_sign)
    except (ValueError, OverflowError):
        raise DomainError(
            f"spatial order and sign must be finite integers, got n={n!r}, "
            f"odd_sign={odd_sign!r}") from None
    return EquationSpec(n=n_int, odd_sign=sign_int)


@dataclass(frozen=True)
class RootSystem:
    """The n-th roots of the sign coefficient and their residue weights.

    ``roots[k]`` is ``e^{2 k pi i / n}`` (for ``k_n = 1``) or
    ``e^{(2k+1) pi i / n}`` (for ``k_n = -1``), ``k = 0..n-1``.  ``incoming``
    / ``outgoing`` index the roots with negative / positive real part (none
    is ever purely imaginary).
    """

    roots: np.ndarray
    incoming: tuple
    outgoing: tuple


def root_system(spec: EquationSpec) -> RootSystem:
    """The roots ``theta_k`` of ``theta^n = k_n``, split by the sign of
    their real part."""
    n = spec.n
    ks = np.arange(n)
    if spec.k == 1:
        angles = 2.0 * np.pi * ks / n
    else:
        angles = (2.0 * ks + 1.0) * np.pi / n
    roots = np.exp(1j * angles)
    incoming = tuple(int(i) for i in np.nonzero(roots.real < -1e-12)[0])
    outgoing = tuple(int(i) for i in np.nonzero(roots.real > 1e-12)[0])
    return RootSystem(roots=roots, incoming=incoming, outgoing=outgoing)


# ---------------------------------------------------------------------------
# The kernel at t = 1: a fixed path per point
# ---------------------------------------------------------------------------

#: a ray ends where the bound ``exp(Re h)`` on its integrand is e^-_RAY_LOG
_RAY_LOG = 38.0

#: the steepest-descent leg: trapezoidal step in ``s`` (where
#: ``h(z) = h(z0) - s^2``), its cutoff ``|s| <= _SADDLE_S`` (``e^-s^2`` is
#: below 1e-16 past it) and Newton steps per node; it serves the
#: oscillatory side of odd ``n`` past ``|y| = _SADDLE_SWITCH n``
_SADDLE_STEP = 0.3
_SADDLE_S = 6.1
_SADDLE_NEWTON = 2
_SADDLE_SWITCH = 2.0

#: nodes of one leg: both rules, at s = j _SADDLE_STEP / 2, |s| <= _SADDLE_S
_SADDLE_NODES = 2 * math.ceil(2.0 * _SADDLE_S / _SADDLE_STEP) + 1

_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=32)
def _ray_rules(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Both Gauss-Legendre rules of a ray of order ``n`` on ``[0, 1]``, one
    after the other: nodes ``x``, weights, ``x^n``, and the size of the
    first.  Far out a ray carries about ``_RAY_LOG cot(theta)`` radians of
    phase, whatever ``|y|``, so an even ray (``theta = pi/(4n)``) needs
    more nodes than an odd one (``pi/(2n)``); at these sizes both rules
    have converged to rounding over every point the kernel profile
    reads.  Both are :func:`gauss_legendre`'s, whose end weights, where a
    ray's integrand is largest, are exact to 1e-13."""
    m = (12 if n % 2 == 0 else 8) * n + 24
    x, w = np.concatenate([gauss_legendre(size) for size in (m, m + 16)],
                          axis=1)
    x = 0.5 * (x + 1.0)
    return x, 0.5 * w, x ** n, m


def _ray(n: int, y: np.ndarray, theta: np.ndarray, cn: complex,
         deriv: int) -> tuple[np.ndarray, np.ndarray]:
    """``Re int (i z)^deriv exp(i y z + c z^n) dz`` from 0 along the ray
    ``z = r e^{i theta}`` of every point, on ``[0, R]`` by both rules of
    :func:`_ray_rules`; ``cn = c e^{i n theta}`` is the same on every
    ray, with ``Re cn < 0``.

    On a ray ``Re h = -a r + Re(cn) r^n`` with ``a = y sin(theta)``, which
    is concave, so ``R`` is where it last falls to ``-_RAY_LOG``.  Returns
    the finer rule's sums and each point's bar: the two rules' difference,
    the rounding, ``eps (8 + |Re h| + |Im h|)`` times each term's modulus
    (an exponent is rounded relative to its own size), and the tail past
    ``R``, bounded from the slope of the log-modulus there.
    """
    rho = -cn.real
    a = y * np.sin(theta)
    # where a > 0, the first of a r and rho r^n to reach _RAY_LOG
    radius = _RAY_LOG / np.maximum(a, _RAY_LOG ** (1.0 - 1.0 / n)
                                   * rho ** (1.0 / n))
    if a.min() < 0.0:
        # from below to the root past the hump, contracting by 1/n or more
        grow = a < 0.0
        a_g, r = a[grow], radius[grow]
        for _ in range(20):
            r = ((_RAY_LOG - a_g * r) / rho) ** (1.0 / n)
        radius[grow] = r
    pw = radius ** n
    edge, slope = a * radius + rho * pw, a + n * rho * pw / radius
    if deriv:
        edge, slope = edge - deriv * np.log(radius), slope - deriv / radius
    tail = np.exp(-edge) / slope

    x, w, xn, m = _ray_rules(n)
    lin_re, lin_im = -a * radius, y * np.cos(theta) * radius
    phase = theta + deriv * (theta + 0.5 * math.pi)
    sums, rounding = np.empty((2, y.size)), np.empty(y.size)
    for idx in _chunks(y.size, x.size):
        re = lin_re[idx, None] * x + (cn.real * pw[idx, None]) * xn
        im = (lin_im[idx, None] * x + (cn.imag * pw[idx, None]) * xn
              + phase[idx, None])
        mod = np.exp(re) * (radius[idx, None] * w)
        if deriv:
            mod *= (radius[idx, None] * x) ** deriv
        terms = mod * np.cos(im)
        sums[0, idx] = terms[:, :m].sum(axis=1)
        sums[1, idx] = terms[:, m:].sum(axis=1)
        rounding[idx] = (mod * (8.0 - re + np.abs(im)))[:, m:].sum(axis=1)
    return sums[1], np.abs(sums[1] - sums[0]) + _EPS * rounding + tail


@lru_cache(maxsize=32)
def _saddle_poly(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, lowest first, of ``P(u) = ((1+u)^n - 1 - n u) / u^2``
    and of ``Q = 2 P + u P'``: ``(1+u)^n - n (1+u) + n - 1 = u^2 P(u)``
    holds with no cancellation near ``u = 0``."""
    ks = range(2, n + 1)
    return (np.array([math.comb(n, k) for k in ks], dtype=float),
            np.array([k * math.comb(n, k) for k in ks], dtype=float))


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = coef[-1]
    for c in coef[-2::-1]:
        out = out * u + c
    return out


#: 2 pi as a float, and the float nearest what it leaves over
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``v`` into two floats of 26 bits each."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _two_prod(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``a b = p + e`` exactly (Dekker's product)."""
    p = a * b
    (a1, a2), (b1, b2) = _halves(a), _halves(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _saddle_phase(n: int, ya: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """``Im h(z0) = z0^n - ya z0`` in double-double arithmetic, reduced to
    about ``[-pi, pi]``.  Near 250 at the far end of the kernel profile,
    it would carry 3e-14 of float64 rounding into every value there."""
    hi, lo = z0, 0.0
    for _ in range(n - 1):
        hi, err = _two_prod(hi, z0)
        lo = lo * z0 + err
    q, f = _two_prod(ya, z0)
    s = hi - q
    back = s - hi
    lo = lo + ((hi - (s - back)) - (q + back)) - f
    k = np.rint(s / _TWO_PI[0])
    p, e = _two_prod(k, _TWO_PI[0])
    return ((s - p) - e) + (lo - k * _TWO_PI[1])


def _saddle_leg(n: int, ya: np.ndarray, deriv: int):
    """``int (i z)^deriv e^{h(z)} dz`` with ``h(z) = -i ya z + i z^n`` on the
    steepest-descent path through the real saddle ``z0 = (ya/n)^(1/(n-1))``,
    from the valley at angle ``-3 pi/(2n)`` to the one at ``pi/(2n)``.

    With ``z = z0 (1 + u)`` and ``lam = z0^n`` the path is
    ``h(z) = h(z0) - s^2``, that is ``i u^2 P(u) + sigma^2 = 0`` with
    ``sigma = s / sqrt(lam)``, and ``h(z0) = -i (n-1) lam``.  Every point
    continues ``u`` outward along both branches at once: a cubic Hermite
    predictor from the last two nodes, then Newton steps.  The nodes
    ``s = j h / 2`` carry the trapezoidal rule of step ``h`` (even ``j``)
    and its midpoint rule (odd ``j``): two converged rules on disjoint
    nodes.  Returns the real part of the mean of the two rules, turned by
    the phase of :func:`_saddle_phase`, and each point's bar: the rules'
    difference, plus the terms' moduli times ``8 eps``, times how far
    each node may sit off the path, and times the exponent
    ``n (n-1) lam eps |u|`` that the rounding of ``z0`` leaves at each
    node (``h'`` vanishes at the exact saddle only).
    """
    z0 = (ya / n) ** (1.0 / (n - 1.0))
    lam = z0 ** n
    poly, dpoly = _saddle_poly(n)
    half = 0.5 * _SADDLE_STEP
    # u = a sigma + b sigma^2 + ... at the saddle
    a = (1.0 + 1.0j) * math.sqrt(1.0 / (n * (n - 1.0)))
    b = -1.0j * (n - 2.0) / (3.0 * n * (n - 1.0))
    dsig = np.outer(half / np.sqrt(lam), (1.0, -1.0))
    zi = 1.0j * z0[:, None]

    rules = [_SADDLE_STEP * a * zi[:, 0] ** deriv,
             np.zeros(ya.size, complex)]
    moduli, (newton, reach) = np.abs(rules[0]), np.zeros((2, ya.size))
    u = u_prev = np.zeros(dsig.shape, complex)
    du = du_prev = np.full(dsig.shape, a)
    for j in range(1, _SADDLE_NODES // 2 + 1):
        sig = j * dsig
        if j == 1:
            u, u_prev = a * dsig + b * dsig * dsig, u
        else:
            u, u_prev = (5.0 * u_prev - 4.0 * u
                         + dsig * (4.0 * du + 2.0 * du_prev)), u
        # the first node starts from a two-term series, so it takes more
        for _ in range(_SADDLE_NEWTON * (1 + (j == 1))):
            u = u - ((u * u * _horner(poly, u) - 1.0j * sig * sig)
                     / (u * _horner(dpoly, u)))
        # F'(u) = i u Q(u); the residual F(u) / F'(u) is the distance to
        # the path, and moves du by about (n - 1) times that relative to u
        uq = u * _horner(dpoly, u)
        miss = np.abs(u * u * _horner(poly, u) - 1.0j * sig * sig) / np.abs(uq)
        du, du_prev = 2.0j * sig / uq, du
        term = (_SADDLE_STEP * math.exp(-(j * half) ** 2)) * du
        if deriv:
            term *= (zi * (1.0 + u)) ** deriv
        size = np.abs(term)
        rules[j % 2] += term.sum(axis=1)
        moduli += size.sum(axis=1)
        newton += (size * miss / np.abs(u)).sum(axis=1)
        reach += (size * np.abs(u)).sum(axis=1)
    scale = z0 / np.sqrt(lam)
    total = 0.5 * scale * (rules[0] + rules[1])
    phase = _saddle_phase(n, ya, z0)
    values = np.cos(phase) * total.real - np.sin(phase) * total.imag
    return values, scale * (np.abs(rules[0] - rules[1])
                            + 8.0 * _EPS * moduli + (n - 1.0) * newton
                            + 2.0 * _EPS * n * (n - 1.0) * lam * reach)


def _path_values(spec: EquationSpec, y: np.ndarray, deriv: int = 0):
    """``phi^(deriv)(y) = (1/pi) Re int_0^inf (i z)^deriv g(z) dz`` with
    ``g(z) = exp(i y z + k (i z)^n)``, each point on its own path.

    Even ``n``: ``phi`` is even, and ``|y|`` takes the ray at
    ``pi/(4n)``, half way to the edge of the valley of ``-z^n``, where
    both terms of ``Re h`` decay.  Odd ``n``, mapped to ``gamma = 1`` by
    ``y -> gamma y`` (``k i^n = i gamma``): the ray along the valley
    centre ``pi/(2n)``; past ``|y| = _SADDLE_SWITCH n`` on the oscillatory
    side, where that ray would sum a hump of ``exp(c |y|^(n/(n-1)))``,
    the ray into the valley at ``-3 pi/(2n)`` and
    :func:`_saddle_leg` from there.  Returns values, each point's bar (two
    converged rules apart, plus rounding and the ray tails) and the
    evaluations.
    """
    n = spec.n
    if n % 2 == 0:
        sign, yr = np.sign(y), np.abs(y)
        theta = np.full(y.size, math.pi / (4.0 * n))
        cn = -complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))
        leg = None
    else:
        sign = float(spec.k * (-1) ** ((n - 1) // 2))
        yr = sign * y
        leg = yr < -_SADDLE_SWITCH * n
        theta = np.where(leg, -3.0, 1.0) * (math.pi / (2.0 * n))
        cn = -1.0 + 0.0j
    values, bars = _ray(n, yr, theta, cn, deriv)
    evals = _ray_rules(n)[0].size * y.size
    if leg is not None and leg.any():
        leg_values, leg_bars = _saddle_leg(n, -yr[leg], deriv)
        values[leg] += leg_values
        bars[leg] += leg_bars
        evals += _SADDLE_NODES * int(np.count_nonzero(leg))
    if deriv:
        values *= sign ** deriv
    return values / math.pi, bars / math.pi, evals


def kernel_contour_values(spec: EquationSpec, x, tol: float = DEFAULT_TOL):
    """The kernel ``p_n(x, 1)`` on an array of space points, unchecked:
    :func:`kernel_density_grid` checks the arguments.

    Each point has its own path (see :func:`_path_values`) and a fixed
    rule, and all points go through one (points x nodes) array in the
    blocks of :func:`~fracheat.quadrature._chunks`, so a value does not
    depend on the other points of the request.  Returns ``(values,
    error_estimate, evaluations)``: the largest bar and the nodes of all
    paths.  A point whose bar misses ``tol`` raises
    :class:`ConvergenceError`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        return np.empty(0), 0.0, 0
    values, bars, evals = _path_values(spec, x)
    worst = int(np.argmax(bars))
    if not bars[worst] <= tol:
        raise ConvergenceError(
            f"kernel of n={spec.n}, k={spec.k} at x={x[worst]:g}: bar "
            f"{bars[worst]:.2g} misses tol {tol:.2g}")
    return values, float(bars[worst]), evals


def kernel_density_grid(spec: EquationSpec, x, t: float,
                        tol: float = DEFAULT_TOL):
    """The signed kernel ``p_n(x, t)`` on an array of space points.

    By self-similarity it is ``s p_n(x s, 1)`` with ``s = t^(-1/n)``:
    :func:`kernel_contour_values` runs at ``t = 1`` on the mapped points
    to the tolerance ``tol / s``.  Returns ``(values, error_estimate,
    evaluations)``; one absolute error estimate covers every value.
    Values are not clamped; ``solve`` sets the noise-level negatives of
    ``n = 2`` to zero.
    """
    require_positive(t, "time")
    require_positive(tol, "tol")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x_arr)):
        raise DomainError("space points must be finite")
    s = t ** (-1.0 / spec.n)
    values, err, evals = kernel_contour_values(spec, s * x_arr, tol / s)
    return s * values, s * err, evals


def kernel_moment(spec: EquationSpec, r: int, t: float) -> float:
    """``int x^r p_n(x, t) dx`` in closed form.

    Nonzero only when ``n`` divides ``r``, in which case it equals
    ``(-1)^r (k_n t)^{r/n} r! / Gamma(r/n + 1)``.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    require_positive(t, "time")
    if r % spec.n != 0:
        return 0.0
    j = r // spec.n
    return closed_form(
        (-1.0) ** r * spec.k ** j,
        float(gammaln(r + 1.0) - gammaln(j + 1.0)) + j * math.log(t),
        lambda: ((-1.0) ** r * (spec.k * t) ** j
                 * math.gamma(r + 1.0) / math.gamma(j + 1.0)),
        f"moment {r} of the kernel")


# ---------------------------------------------------------------------------
# Spatial Laplace transform
# ---------------------------------------------------------------------------

def kernel_laplace(spec: EquationSpec, x: float, s: float) -> float:
    """``Phi_n(x, s) = int_0^inf e^{-s t} p_n(x, t) dt`` in closed form.

    Sums the decaying exponentials over the roots with negative real part
    for ``x > 0`` and over those with positive real part for ``x <= 0``;
    the chosen exponents all have nonpositive real part, so no overflow is
    possible.  The tiny residual imaginary part of the symmetric sum is
    discarded.
    """
    require_positive(s, "Laplace parameter")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    rs = root_system(spec)
    n = spec.n
    root_s = s ** (1.0 / n)
    if x > 0.0:
        idx = list(rs.incoming)
        prefactor = -1.0
    else:
        idx = list(rs.outgoing)
        prefactor = 1.0
    theta = rs.roots[idx]
    total = np.sum(theta * np.exp(theta * (root_s * x)))
    value = prefactor / n * s ** (1.0 / n - 1.0) * total
    if abs(value.imag) > 1e-10 * max(abs(value.real), 1.0):
        raise DomainError(
            f"root-sum imaginary residue {value.imag:g} is not negligible; "
            "the root system is inconsistent")
    return float(value.real)


# ---------------------------------------------------------------------------
# Numeric moments (cross-validation route)
# ---------------------------------------------------------------------------

def _decay_rate(n: int) -> tuple[float, float]:
    """Coefficient and exponent of the saddle bound ``ln|p| <= -c |x|^nu``
    at ``t = 1``, with ``nu = n/(n-1)``, valid on a superexponentially
    decaying side.

    The sine factor is exact for even ``n`` (both sides) and conservative
    for the decaying side of odd ``n``.
    """
    nu = n / (n - 1.0)
    c = (math.sin(math.pi / (2.0 * (n - 1))) * ((n - 1.0) / n)
         / n ** (1.0 / (n - 1.0)))
    return c, nu


def _superexp_cutoff(n: int, r: int, tail_tol: float) -> float:
    """Smallest |x| with ``int_X^inf x^r exp(-c x^nu) dx`` below ``tail_tol``.

    Fixed point on the logarithm of the Laplace-method tail estimate
    ``X^(r+1-nu) exp(-c X^nu) / (c nu)``, held to ``tail_tol / 5``.  A
    minimal cutoff matters: the weight ``x^r`` amplifies the kernel
    evaluation noise, so integrating further than the tolerance requires
    only degrades the moment.  The cutoff is kept at or past ``x_min``,
    where ``phi = c x^nu - r ln x`` has ``phi' >= c nu x^(nu-1) / 2``;
    since ``phi`` is convex, the tail there is at most twice the estimate.
    Without that floor a large ``r`` settles on the lower fixed point,
    before the integrand's peak.
    """
    c, nu = _decay_rate(n)
    x_min = (2.0 * r / (c * nu)) ** (1.0 / nu)
    x = max((30.0 / c) ** (1.0 / nu), x_min)
    for _ in range(60):
        rhs = ((r + 1.0 - nu) * math.log(x)
               + math.log(5.0 / (tail_tol * c * nu)))
        x_new = max((max(rhs, 2.0) / c) ** (1.0 / nu), x_min)
        if abs(x_new - x) < 1e-9 * x:
            return x_new
        x = x_new
    return x


def _phase_point(n: int, phase):
    """|x| at which the stationary-phase angle of the oscillatory side at
    ``t = 1`` reaches ``phase`` (a float or an array):
    phi(x) = (1-1/n) x^{n/(n-1)} n^{-1/(n-1)}."""
    return (phase * n / (n - 1.0)) ** ((n - 1.0) / n) * n ** (1.0 / n)


#: stationary-phase lobes summed on the oscillatory side of odd n
_MOMENT_BLOCKS = 48

#: absolute float64 noise of the kernel values, which ``x^r`` amplifies
_KERNEL_NOISE = 1e-16


def kernel_moment_numeric(spec: EquationSpec, r: int, t: float,
                          tol: float = 1e-9) -> QuadResult:
    """``int x^r p_n(x, t) dx`` by quadrature, cross-validating
    :func:`kernel_moment`.

    By self-similarity the moment is ``t^(r/n)`` times the one at
    ``t = 1``, so the quadrature runs at ``t = 1`` and its value and
    error estimate are scaled by ``t^(r/n)``.  ``tol`` is relative to the
    natural magnitude ``r! / Gamma(r/n+1)`` of the moment at ``t = 1``
    and is floored at the noise level that the weight ``x^r`` induces.
    Even ``n``: the truncated interval is one point of
    :func:`_integrate_points`.  Odd ``n``: the head and the
    stationary-phase lobe blocks on the algebraically decaying oscillatory
    side are the points of one :func:`_integrate_points` call, the blocks
    summed with :func:`euler_tail_sum` (the lobe integrals may grow
    polynomially for large ``r``; the averaging handles that).

    The error estimate adds to the quadrature's own the tails cut off
    (``0.3 tol`` of the magnitude each) and the kernel values' error
    estimate times ``int |x|^r dx`` over the integrated range.  Where that
    weight lifts the kernel's float64 noise to the moment's magnitude, no
    digit would be left, and :class:`DomainError` is raised.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    require_positive(t, "time")
    require_positive(tol, "tol")
    n = spec.n
    log_mag = float(gammaln(r + 1.0) - gammaln(r / n + 1.0))
    mag = closed_form(
        1.0, log_mag,
        lambda: math.gamma(r + 1.0) / math.gamma(r / n + 1.0),
        f"the scale of moment {r} of the kernel")
    grow = closed_form(1.0, r / n * math.log(t), lambda: t ** (r / n),
                       f"the growth of moment {r} of the kernel to t = {t}")
    abs_tol = tol * max(1.0, mag)
    tail_tol = 0.3 * abs_tol
    inner_tol = 1e-12
    kernel_err = 0.0

    def f(xs: np.ndarray) -> np.ndarray:
        nonlocal kernel_err
        vals, err, _ = kernel_contour_values(spec, xs, inner_tol)
        kernel_err = max(kernel_err, err)
        if r == 0:
            return vals
        return xs ** r * vals

    cut = _superexp_cutoff(n, r, tail_tol)
    if n % 2 == 0:
        reach, tails, bounds = cut, 2, np.zeros(1)
    else:
        phase0 = 6.0 * math.pi
        bounds = _phase_point(
            n, phase0 + math.pi * np.arange(_MOMENT_BLOCKS + 1.0))
        reach, tails = float(bounds[-1]), 1
    log_noise = math.log(_KERNEL_NOISE)

    def log_power(a: float) -> float:
        """log of int_0^a x^r dx"""
        return (r + 1) * math.log(a) - math.log(r + 1.0)

    # int |x|^r dx from -cut to reach (mirrored for odd n as needed); past
    # this check every noise level below is finite
    log_weight = float(np.logaddexp(log_power(cut), log_power(reach)))
    if log_noise + log_weight >= log_mag:
        raise DomainError(
            f"x^{r} lifts the kernel's float64 noise to the magnitude of "
            f"moment {r} (about 10^{log_mag / math.log(10.0):.0f}); no "
            "digit of it would be left")

    # the last point is the head (for even n the whole interval), the
    # points before it the lobe blocks, each of which starts as two panels
    if n % 2 == 0:
        lo, hi, head_tol = -cut, cut, abs_tol
    elif spec.osc_dir > 0:
        lo, hi, head_tol = -cut, float(bounds[0]), 0.5 * abs_tol
    else:
        lo, hi, head_tol = -float(bounds[0]), cut, 0.5 * abs_tol
    head = np.linspace(lo, hi, max(16, int(hi - lo)) + 1)
    lo_b, hi_b = np.sort(spec.osc_dir * np.stack((bounds[:-1], bounds[1:])),
                         axis=0)
    blocks = np.linspace(lo_b, hi_b, 3, axis=1)
    # below these levels the adaptive error estimates cannot settle
    head_floor = math.exp(log_noise + log_power(max(cut, float(bounds[0]))))
    floors = _KERNEL_NOISE * bounds[1:] ** r * np.diff(bounds)
    values, errs, evals = _integrate_points(
        lambda xs, _: f(xs),
        np.concatenate((blocks[:, :-1].ravel(), head[:-1])),
        np.concatenate((blocks[:, 1:].ravel(), head[1:])),
        np.concatenate((np.repeat(np.arange(floors.size), 2),
                        np.full(head.size - 1, floors.size))),
        np.append(np.maximum(0.5 * abs_tol / _MOMENT_BLOCKS, floors),
                  max(head_tol, head_floor)))
    tail_sum, tail_err = (euler_tail_sum(values[:-1]) if n % 2
                          else (0.0, 0.0))
    quad_err = float(errs[-1]) + float(np.sum(errs[:-1])) + tail_err
    noise = kernel_err * math.exp(log_weight)
    return QuadResult(
        value=grow * (float(values[-1]) + tail_sum),
        error_estimate=grow * (quad_err + tails * tail_tol + noise),
        evaluations=evals)
