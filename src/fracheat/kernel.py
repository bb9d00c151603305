"""The signed fundamental solution of ``du/dt = k_n d^n u / dx^n``.

For ``n = 2`` this is the Gaussian heat kernel; for ``n > 2`` the kernel
``p_n(x, t) = (1/2 pi) int exp(i x z + k_n t (i z)^n) dz`` is a genuinely
signed object (it still integrates to one).  The module owns the sign
coefficient ``k_n``, the root system driving the spatial Laplace transform,
the kernel's contour integral, the closed-form moments, and a numeric
moment route used to cross-validate them.

The kernel is self-similar, ``p_n(x, t) = t^(-1/n) p_n(x t^(-1/n), 1)``,
so the contour runs at ``t = 1`` only: :func:`kernel_density_grid` and
:func:`kernel_moment_numeric` map every other ``t`` onto it.  For even
``n`` the contour is the real axis; for odd ``n`` it is a head on the
real axis up to a radius ``R`` past every stationary point, then the ray
from ``R`` on which the ``z^n`` term decays.

Well-posedness forces ``k_n = (-1)^{q+1}`` for even ``n = 2q``; for odd
``n`` both signs give well-defined kernels that are mirror images of each
other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.special import gammaln

from ._errors import DomainError, require_positive
from .quadrature import (
    DEFAULT_TOL,
    EVAL_BUDGET,
    QuadResult,
    euler_tail_sum,
    integrate_adaptive,
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
# The kernel at t = 1: contour integral
# ---------------------------------------------------------------------------

#: points per contour, taken in order of |x|: each contour is sized for
#: the largest |x| it serves
_CONTOUR_CHUNK = 256


def _even_kernel_values(n: int, x: np.ndarray, tol: float):
    """``(1/pi) int_0^inf exp(-z^n) cos(x z) dz`` for even ``n``, where
    ``k (i z)^n = -z^n`` on the real axis; one shared adaptive pass
    integrates every component of ``x``."""
    def f(z):
        return np.exp(-z[:, None] ** n) * np.cos(np.outer(z, x))

    res = integrate_adaptive(f, 0.0, 45.0 ** (1.0 / n), tol * math.pi)
    return res.value / math.pi, res.error_estimate / math.pi, res.evaluations


def _odd_kernel_values(n: int, k: int, x: np.ndarray, tol: float,
                       radius_scale: float):
    """``(1/pi) Re int_0^inf g(z) dz`` with ``g(z) = exp(i x z + k (i z)^n)``
    for odd ``n``: the real axis up to a radius ``R`` past every
    stationary point, then the ray ``z = R + r e^{i phi}`` whose direction
    ``phi = gamma pi / (2n)`` makes the ``z^n`` term decay.  Every term of
    the binomial expansion of ``Re[k (i z)^n]`` on that ray is at most 0,
    the ``r^n`` one exactly ``-r^n``, so ``|g| <= exp(|x| r |sin phi| - r^n)``
    and the integrand decays from ``r = 0`` on."""
    gamma = k * (-1.0) ** ((n - 1) // 2)  # exp(i gamma pi/2) = k * i^n
    phi = gamma * math.pi / (2.0 * n)
    xmax = float(np.max(np.abs(x)))
    radius = max(1.0, 1.25 * (xmax / n) ** (1.0 / (n - 1.0))) * radius_scale

    def g(z):
        # z: contour points (real on the head); shape (len(z), len(x))
        return np.exp(1j * np.outer(z, x) + k * (1j * z[:, None]) ** n)

    part_tol = 0.5 * tol * math.pi
    # seed the head with roughly one panel per oscillation cycle, so that
    # the first error estimate is honest
    cycles = (xmax * radius + radius ** n) / (2.0 * math.pi)
    panels = min(512, max(4, int(cycles) + 1))
    head = integrate_adaptive(g, 0.0, radius, part_tol,
                              initial_intervals=panels)

    # a cutoff where the bound on |g| is below e^-45 for the worst x
    sin_abs_phi = abs(math.sin(phi))
    r_far = radius
    for _ in range(200):
        if xmax * r_far * sin_abs_phi - r_far ** n < -45.0:
            break
        r_far *= 1.5

    eiphi = complex(math.cos(phi), math.sin(phi))
    ray = integrate_adaptive(lambda r: g(radius + r * eiphi) * eiphi,
                             0.0, r_far, part_tol,
                             budget=EVAL_BUDGET - head.evaluations,
                             initial_intervals=8)
    return (np.real(head.value + ray.value) / math.pi,
            (head.error_estimate + ray.error_estimate) / math.pi,
            head.evaluations + ray.evaluations)


def kernel_contour_values(spec: EquationSpec, x, tol: float = DEFAULT_TOL, *,
                          radius_scale: float = 1.0):
    """The kernel ``p_n(x, 1)`` on an array of space points, unchecked:
    :func:`kernel_density_grid` checks the arguments.

    The points go in chunks of ``_CONTOUR_CHUNK`` in order of ``|x|``,
    one contour per chunk, since each contour is sized for its largest
    ``|x|``.  Returns ``(values, error_estimate, evaluations)``: the
    largest chunk's error estimate and the evaluations of all chunks.
    Each contour shares its panels across its chunk, within a budget of
    ``EVAL_BUDGET`` evaluations.  ``radius_scale`` moves the split radius
    of the odd-``n`` contour; the values must not depend on it, and the
    tests check that.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    values = np.empty_like(x)
    err, evals = 0.0, 0
    order = np.argsort(np.abs(x))
    for chunk in np.array_split(order, -(-x.size // _CONTOUR_CHUNK)):
        if spec.n % 2 == 0:
            part = _even_kernel_values(spec.n, x[chunk], tol)
        else:
            part = _odd_kernel_values(spec.n, spec.k, x[chunk], tol,
                                      radius_scale)
        values[chunk] = part[0]
        err, evals = max(err, part[1]), evals + part[2]
    return values, err, evals


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
    Even ``n``: one adaptive pass over the truncated interval.  Odd ``n``:
    adaptive head plus stationary-phase lobe blocks on the algebraically
    decaying oscillatory side, summed with :func:`euler_tail_sum` (the
    lobe integrals may grow polynomially for large ``r``; the averaging
    handles that).

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
        reach, tails = cut, 2
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

    def result(value: float, quad_err: float, evals: int) -> QuadResult:
        noise = kernel_err * math.exp(log_weight)
        return QuadResult(
            value=grow * value,
            error_estimate=grow * (quad_err + tails * tail_tol + noise),
            evaluations=evals)

    if n % 2 == 0:
        # Below this level the adaptive error estimate cannot settle.
        noise_floor = math.exp(log_noise + log_power(cut))
        init = max(16, int(2.0 * cut))
        res = integrate_adaptive(f, -cut, cut, max(abs_tol, noise_floor),
                                 initial_intervals=init)
        return result(res.value, res.error_estimate, res.evaluations)

    x_head = float(bounds[0])
    if spec.osc_dir > 0:
        lo, hi = -cut, x_head
    else:
        lo, hi = -x_head, cut
    init = max(16, int(hi - lo))
    head_floor = math.exp(log_noise + log_power(max(cut, x_head)))
    head = integrate_adaptive(f, lo, hi, max(0.5 * abs_tol, head_floor),
                              initial_intervals=init)

    base_tol = 0.5 * abs_tol / _MOMENT_BLOCKS
    block_vals = np.empty(_MOMENT_BLOCKS)
    evals = head.evaluations
    err_blocks = 0.0
    for j in range(_MOMENT_BLOCKS):
        a, b = spec.osc_dir * bounds[j], spec.osc_dir * bounds[j + 1]
        if a > b:
            a, b = b, a
        floor_j = (_KERNEL_NOISE * bounds[j + 1] ** r
                   * (bounds[j + 1] - bounds[j]))
        res = integrate_adaptive(f, a, b, max(base_tol, floor_j),
                                 initial_intervals=2)
        block_vals[j] = res.value
        err_blocks += res.error_estimate
        evals += res.evaluations
    tail_sum, tail_err = euler_tail_sum(block_vals)
    return result(head.value + tail_sum,
                  head.error_estimate + err_blocks + tail_err, evals)
