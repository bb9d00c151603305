"""The signed fundamental solution of ``du/dt = k_n d^n u / dx^n``.

For ``n = 2`` this is the Gaussian heat kernel; for ``n > 2`` the kernel
``p_n(x, t) = (1/2 pi) int exp(i x z + k_n t (i z)^n) dz`` is a genuinely
signed object (it still integrates to one).  The module owns the sign
coefficient ``k_n``, the root system driving the spatial Laplace transform,
pointwise and grid kernel evaluation, the closed-form moments, and a
numeric moment route used to cross-validate them.

Well-posedness forces ``k_n = (-1)^{q+1}`` for even ``n = 2q``; for odd
``n`` both signs give well-defined kernels that are mirror images of each
other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import DomainError
from .quadrature import (
    DEFAULT_TOL,
    EVAL_BUDGET,
    QuadResult,
    euler_tail_sum,
    integrate_adaptive,
    kernel_contour_values,
)

__all__ = [
    "EquationSpec",
    "RootSystem",
    "SignedDensitySample",
    "make_equation_spec",
    "root_system",
    "kernel_density",
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


def make_equation_spec(n: int, odd_sign: int = 1) -> EquationSpec:
    """Validated constructor for :class:`EquationSpec`."""
    return EquationSpec(n=int(n), odd_sign=int(odd_sign))


@dataclass(frozen=True)
class RootSystem:
    """The n-th roots of the sign coefficient and their residue weights.

    ``roots[k]`` is ``e^{2 k pi i / n}`` (for ``k_n = 1``) or
    ``e^{(2k+1) pi i / n}`` (for ``k_n = -1``), ``k = 0..n-1``.  ``incoming``
    / ``outgoing`` index the roots with negative / positive real part (none
    is ever purely imaginary).  ``z[k] = -roots[k]/n`` is the s-independent
    factor of the constants solving the interface Vandermonde system.
    """

    roots: np.ndarray
    incoming: tuple
    outgoing: tuple
    z: np.ndarray


def root_system(spec: EquationSpec) -> RootSystem:
    """Roots ``theta_k`` with ``theta_k^n = k_n`` and weights ``z_k``."""
    n = spec.n
    ks = np.arange(n)
    if spec.k == 1:
        angles = 2.0 * np.pi * ks / n
    else:
        angles = (2.0 * ks + 1.0) * np.pi / n
    roots = np.exp(1j * angles)
    incoming = tuple(int(i) for i in np.nonzero(roots.real < -1e-12)[0])
    outgoing = tuple(int(i) for i in np.nonzero(roots.real > 1e-12)[0])
    return RootSystem(roots=roots, incoming=incoming, outgoing=outgoing,
                      z=-roots / n)


@dataclass(frozen=True)
class SignedDensitySample:
    """One kernel value: possibly negative for ``n > 2``."""

    x: float
    value: float
    error_estimate: float

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0.0:
            raise DomainError("error estimate must be nonnegative")


def kernel_density_grid(spec: EquationSpec, x, t: float,
                        tol: float = DEFAULT_TOL, *,
                        budget: int = EVAL_BUDGET):
    """Kernel values on an array of space points at one time.

    Returns ``(values, error_estimate, evaluations)``; the contour panels
    are shared across the whole grid, so this is much cheaper than a loop
    over :func:`kernel_density`.
    """
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    return kernel_contour_values(spec.n, spec.k, x_arr, t, tol, budget=budget)


def kernel_density(spec: EquationSpec, x: float, t: float,
                   tol: float = DEFAULT_TOL) -> SignedDensitySample:
    """The signed kernel ``p_n(x, t)`` at one point.

    For ``n = 2`` the kernel is a true probability density, so a value
    driven negative by quadrature noise (within the error estimate) is
    clamped to zero.
    """
    vals, err, _ = kernel_density_grid(spec, np.array([float(x)]), t, tol)
    value = float(vals[0])
    err = float(err)
    if spec.n == 2 and value < 0.0 and -value <= 10.0 * err + 1e-300:
        value = 0.0
    return SignedDensitySample(x=float(x), value=value, error_estimate=err)


def kernel_moment(spec: EquationSpec, r: int, t: float) -> float:
    """``int x^r p_n(x, t) dx`` in closed form.

    Nonzero only when ``n`` divides ``r``, in which case it equals
    ``(-1)^r (k_n t)^{r/n} r! / Gamma(r/n + 1)``.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    if r % spec.n != 0:
        return 0.0
    j = r // spec.n
    return ((-1.0) ** r * (spec.k * t) ** j
            * math.gamma(r + 1.0) / math.gamma(j + 1.0))


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
    if not s > 0.0:
        raise DomainError(f"Laplace parameter must be positive, got {s}")
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

def _decay_rate(n: int, t: float) -> tuple[float, float]:
    """Coefficient and exponent of the saddle bound ``ln|p| <= -c |x|^nu``
    with ``nu = n/(n-1)``, valid on a superexponentially decaying side.

    The sine factor is exact for even ``n`` (both sides) and conservative
    for the decaying side of odd ``n``.
    """
    nu = n / (n - 1.0)
    c = (math.sin(math.pi / (2.0 * (n - 1))) * ((n - 1.0) / n)
         / (n * t) ** (1.0 / (n - 1.0)))
    return c, nu


def _superexp_cutoff(n: int, t: float, r: int, tail_tol: float) -> float:
    """Smallest |x| with ``int_X^inf x^r exp(-c x^nu) dx`` below ``tail_tol``.

    Fixed point on the logarithm of the Laplace-method tail estimate.  A
    minimal cutoff matters: the weight ``x^r`` amplifies the kernel
    evaluation noise, so integrating further than the tolerance requires
    only degrades the moment.
    """
    c, nu = _decay_rate(n, t)
    x = (30.0 / c) ** (1.0 / nu)
    for _ in range(60):
        rhs = ((r + 1.0 - nu) * math.log(x)
               + math.log(5.0 / (tail_tol * c * nu)))
        x_new = (max(rhs, 2.0) / c) ** (1.0 / nu)
        if abs(x_new - x) < 1e-9 * x:
            return x_new
        x = x_new
    return x


def _phase_point(n: int, t: float, phase: float) -> float:
    """|x| at which the stationary-phase angle of the oscillatory side
    reaches ``phase``: phi(x) = (1-1/n) x^{n/(n-1)} (nt)^{-1/(n-1)}."""
    return (phase * n / (n - 1.0)) ** ((n - 1.0) / n) * (n * t) ** (1.0 / n)


def kernel_moment_numeric(spec: EquationSpec, r: int, t: float,
                          tol: float = 1e-9, *,
                          blocks: int = 48) -> QuadResult:
    """``int x^r p_n(x, t) dx`` by quadrature, cross-validating
    :func:`kernel_moment`.

    ``tol`` is relative to the natural moment magnitude
    ``t^{r/n} r! / Gamma(r/n+1)`` and is floored at the noise level that
    the weight ``x^r`` induces (the reported error estimate stays honest
    either way).  Even ``n``: one adaptive pass over the truncated
    interval.  Odd ``n``: adaptive head plus stationary-phase lobe blocks
    on the algebraically decaying oscillatory side, summed with
    :func:`euler_tail_sum` (the lobe integrals may grow polynomially for
    large ``r``; the averaging handles that).
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    n = spec.n
    mag = t ** (r / n) * math.gamma(r + 1.0) / math.gamma(r / n + 1.0)
    abs_tol = tol * max(1.0, mag)
    inner_tol = 1e-10

    def f(xs: np.ndarray) -> np.ndarray:
        vals, _, _ = kernel_contour_values(n, spec.k, xs, t, inner_tol)
        if r == 0:
            return vals
        return xs ** r * vals

    scale = t ** (1.0 / n)
    cut = _superexp_cutoff(n, t, r, 0.3 * abs_tol)
    if n % 2 == 0:
        # Kernel values carry ~1e-17 absolute noise; x^r amplifies it, and
        # below this level the adaptive error estimate cannot settle.
        noise_floor = 1e-16 * cut ** (r + 1) / (r + 1.0)
        init = max(16, int(2.0 * cut / scale))
        res = integrate_adaptive(f, -cut, cut, max(abs_tol, noise_floor),
                                 initial_intervals=init)
        return res

    # Odd n: gamma = k (-1)^{(n-1)/2} fixes the rotation; the kernel decays
    # superexponentially for gamma * x > 0 and oscillates with an algebraic
    # envelope on the other side.
    gamma = spec.k * (-1) ** ((n - 1) // 2)
    osc_dir = -float(gamma)         # sign of x on the oscillatory side
    phase0 = 6.0 * math.pi
    x_head = _phase_point(n, t, phase0)
    if osc_dir > 0:
        lo, hi = -cut, x_head
    else:
        lo, hi = -x_head, cut
    init = max(16, int((hi - lo) / scale))
    head_floor = 1e-16 * max(cut, x_head) ** (r + 1) / (r + 1.0)
    head = integrate_adaptive(f, lo, hi, max(0.5 * abs_tol, head_floor),
                              initial_intervals=init)

    bounds = np.array([
        _phase_point(n, t, phase0 + j * math.pi) for j in range(blocks + 1)
    ])
    base_tol = 0.5 * abs_tol / blocks
    block_vals = np.empty(blocks)
    evals = head.evaluations
    err_blocks = 0.0
    for j in range(blocks):
        a, b = osc_dir * bounds[j], osc_dir * bounds[j + 1]
        if a > b:
            a, b = b, a
        floor_j = 1e-16 * bounds[j + 1] ** r * (bounds[j + 1] - bounds[j])
        res = integrate_adaptive(f, a, b, max(base_tol, floor_j),
                                 initial_intervals=2)
        block_vals[j] = res.value
        err_blocks += res.error_estimate
        evals += res.evaluations
    tail_sum, tail_err = euler_tail_sum(block_vals)
    return QuadResult(
        value=head.value + tail_sum,
        error_estimate=head.error_estimate + err_blocks + tail_err,
        evaluations=evals,
    )
