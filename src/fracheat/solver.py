"""Solution of the fractional-in-time equation by two independent routes.

``solve_subordination`` integrates the signed space kernel against the
random-time density over the operational time axis; ``solve_fourier_ml``
inverts the characteristic function, a Mittag-Leffler function of the
spatial symbol.  The two representations share no code below the top
level, so their agreement is a genuine cross-check of both.

The module also carries the analytic side data used for validation:
moments of the solution, its characteristic function, the closed-form
Laplace transform identity, and a finite-difference residual that feeds
the solution back into the equation it is supposed to satisfy.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct
from scipy.special import gamma as gamma_fn, rgamma

from ._errors import ConvergenceError, DomainError, StencilUnderflowError
from .kernel import (
    EquationSpec,
    SignedDensitySample,
    _decay_rate,
    _phase_point,
    kernel_density_grid,
    kernel_laplace,
)
from .quadrature import (
    JacobiWeight,
    euler_tail_sum,
    integrate_adaptive,
    integrate_jacobi_singular,
)
from .specfun import (
    MLParams,
    StableOneSided,
    mittag_leffler,
    mittag_leffler_grid,
    stable_one_sided_density_grid,
)

__all__ = [
    "SolutionRequest",
    "SolutionField",
    "solve",
    "solve_subordination",
    "solve_fourier_ml",
    "solution_char_fn",
    "solution_moment",
    "laplace_relation_check",
    "caputo_residual",
]

_SOLVE_ROUTES = ("subordination", "fourier_ml", "auto")

#: tolerance for the shared t = 1 kernel profile evaluations, and for the
#: time-law profile fit
_KERNEL_TOL = 1e-11

#: time-law profile: starting Chebyshev nodes and their cap under doubling
_PROFILE_NODES = 97
_PROFILE_MAX_NODES = 769

#: the oscillatory-side head starts at this stationary-phase angle
_OSC_PHASE0 = 6.0 * math.pi
_OSC_BLOCKS = 72
_OSC_NODES = 10

#: zero the kernel profile on decaying sides once the saddle bound
#: guarantees |phi| <= e^-70
_DECAY_CLIP_LOG = 70.0

#: negative-power terms kept in the analytic Fourier tail
_FOURIER_TAIL_TERMS = 6


# ---------------------------------------------------------------------------
# Request / result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionRequest:
    """One solve: spatial operator, time order, horizon, space grid.

    ``route`` picks the representation; ``"auto"`` resolves to Fourier
    inversion for even ``n`` and subordination for odd ``n``, matching
    where each is best conditioned.
    """

    spec: EquationSpec
    alpha: float
    t: float
    x_grid: tuple
    route: str = "auto"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.t > 0.0:
            raise DomainError(f"t must be positive, got {self.t}")
        if self.route not in _SOLVE_ROUTES:
            raise DomainError(f"unknown route {self.route!r}")
        xs = np.atleast_1d(np.asarray(self.x_grid, dtype=float))
        if xs.size == 0:
            raise DomainError("x_grid must not be empty")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("x_grid must be strictly increasing")
        object.__setattr__(self, "x_grid", tuple(float(v) for v in xs))


@dataclass(frozen=True)
class SolutionField:
    """Solution values on the request grid with per-point error estimates.

    ``route_used`` records, per grid point, which representation produced
    the value (a bare string given at construction is broadcast over the
    grid).  ``degraded`` records that some Mittag-Leffler evaluation fell
    in the sector where its asymptotic accuracy is limited; the error
    estimates already account for it.
    """

    request: SolutionRequest
    values: tuple
    route_used: tuple
    degraded: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.route_used, str):
            object.__setattr__(
                self, "route_used", (self.route_used,) * len(self.values))

    def grid_values(self) -> np.ndarray:
        return np.array([s.value for s in self.values])

    def grid_errors(self) -> np.ndarray:
        return np.array([s.error_estimate for s in self.values])


def _make_sample(spec: EquationSpec, x: float, value: float,
                 err: float) -> SignedDensitySample:
    # same clamp policy as the kernel: for n = 2 the solution is a true
    # density, so noise-level negatives are set to zero
    if spec.n == 2 and value < 0.0 and -value <= 10.0 * err + 1e-300:
        value = 0.0
    return SignedDensitySample(x=x, value=value, error_estimate=err)


# ---------------------------------------------------------------------------
# Shared evaluators for the subordination integral
# ---------------------------------------------------------------------------

class _SimilarityKernel:
    """Kernel evaluations through the t = 1 self-similar profile.

    ``p_n(x, u) = u^{-1/n} phi(x u^{-1/n})`` with ``phi = p_n(., 1)``, so
    a whole array of u-nodes at fixed x costs one batched contour call.
    Profile arguments on a superexponentially decaying side beyond the
    saddle bound are zeroed without evaluation.
    """

    def __init__(self, spec: EquationSpec, tol: float = _KERNEL_TOL) -> None:
        self.spec = spec
        self.tol = tol
        c, nu = _decay_rate(spec.n, 1.0)
        self.clip_abs = (_DECAY_CLIP_LOG / c) ** (1.0 / nu)
        if spec.n % 2:
            self.osc_dir = -spec.k * (-1) ** ((spec.n - 1) // 2)
        else:
            self.osc_dir = 0
        self.profile_sup = 0.0

    def profile(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros_like(y)
        decaying = np.abs(y) > self.clip_abs
        if self.osc_dir:
            decaying &= np.sign(y) != self.osc_dir
        keep = ~decaying
        if np.any(keep):
            vals, _, _ = kernel_density_grid(self.spec, y[keep], 1.0, self.tol)
            out[keep] = vals
            self.profile_sup = max(self.profile_sup,
                                   float(np.max(np.abs(vals))))
        return out

    def at(self, x: float, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        scale = u ** (-1.0 / self.spec.n)
        return scale * self.profile(x * scale)


def time_density_grid(alpha: float, u) -> np.ndarray:
    """Density of the random time at ``t = 1`` over ``u >= 0``, by duality.

    The first-passage duality with the one-sided stable law gives
    ``F(u) = (1/alpha) u^{-1-1/alpha} g_alpha(u^{-1/alpha})`` (Meerschaert
    & Scheffler 2004), float64 throughout.  Each point takes the stable
    law at its own scale, ``F(u) = g(1; scale u) / (alpha u)``, so the
    density's argument stays 1 instead of ``u^{-1/alpha}``, which
    overflows near ``u = 0`` for small ``alpha``.
    """
    one = np.ones(1)
    return np.array([
        float(stable_one_sided_density_grid(
            one, StableOneSided(alpha=alpha, u=float(x)))[0]) / (alpha * x)
        if x > 0.0 else float(rgamma(1.0 - alpha))
        for x in np.atleast_1d(np.asarray(u, dtype=float))])


class _TimeProfile:
    """Chebyshev fit of the random-time density's similarity profile.

    The density scales as ``vbar(u, t) = t^-alpha F(u t^-alpha)`` with
    ``F = vbar(., 1)`` from :func:`time_density_grid`, and ``F`` is entire,
    so an interpolant built once replaces per-node work for every later
    quadrature evaluation.  One fit covers ``[0, x_clip]``, where
    ``F(x_clip)`` is ~e^-46; beyond it the profile is clamped to zero and
    the clamped mass is bounded separately through the survival
    probability.  ``fit_err`` is measured against direct evaluations
    midway (in angle) between every pair of nodes; the node count doubles
    until it meets the kernel tolerance, and a fit that cannot is refused.
    Doubling nests: the new rung's nodes are the old nodes and the old
    midway probes, so each rung evaluates only its own new probes.
    """

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.x_clip = (46.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
        npts = _PROFILE_NODES

        def density_at(angles):
            return time_density_grid(
                alpha, 0.5 * self.x_clip * (1.0 - np.cos(angles)))

        vals = density_at(np.pi * np.arange(npts) / (npts - 1))
        while True:
            # the nodes are the Chebyshev-Lobatto points in reverse order,
            # so a type-1 DCT gives the interpolant's coefficients
            self._coef = dct(vals[::-1], type=1) / (npts - 1)
            self._coef[[0, -1]] *= 0.5
            angles = np.pi * (np.arange(npts - 1) + 0.5) / (npts - 1)
            probes = density_at(angles)
            fitted = np.polynomial.chebyshev.chebval(-np.cos(angles),
                                                     self._coef)
            self.fit_err = float(np.max(np.abs(fitted - probes)))
            if self.fit_err <= _KERNEL_TOL:
                return
            if npts >= _PROFILE_MAX_NODES:
                raise ConvergenceError(
                    f"time-law profile at alpha={alpha} misses the tolerance "
                    f"{_KERNEL_TOL:g} with {npts} nodes "
                    f"(fit error {self.fit_err:.2g})")
            npts = 2 * npts - 1
            merged = np.empty(npts)
            merged[0::2], merged[1::2] = vals, probes
            vals = merged

    def profile(self, xstar) -> np.ndarray:
        xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
        out = np.zeros_like(xstar)
        ok = (xstar >= 0.0) & (xstar <= self.x_clip)
        if np.any(ok):
            out[ok] = np.polynomial.chebyshev.chebval(
                2.0 * xstar[ok] / self.x_clip - 1.0, self._coef)
        return out

    def density(self, u, t: float) -> np.ndarray:
        return t ** -self.alpha * self.profile(
            np.asarray(u, dtype=float) * t ** -self.alpha)

    def u_clip(self, t: float) -> float:
        return self.x_clip * t ** self.alpha


@lru_cache(maxsize=32)
def _time_profile(alpha: float) -> _TimeProfile:
    """Memoized profile: immutable once built, reused across solves."""
    return _TimeProfile(alpha)


def _survival_probability(alpha: float, u0: float, t: float) -> float:
    """P(inverse time > u0) as one-sided stable mass on [0, t].

    The inverse law and the one-sided stable law are first-passage duals,
    so the survival function needs no density values beyond the guard.
    """
    if alpha == 1.0:
        return 0.0 if u0 >= t else 1.0
    law = StableOneSided(alpha=alpha, u=u0)

    def f(ws):
        return stable_one_sided_density_grid(np.asarray(ws, dtype=float), law)

    return float(integrate_adaptive(f, 0.0, t, 1e-10).value)


class _OscillatoryTail:
    """Shared phase-pi blocks for the oscillatory-side head of odd n.

    In the similarity variable ``y = |x| u^{-1/n}`` the head
    ``int_0^{u0} p_n(x, u) w(u) du`` becomes
    ``n |x|^{n-1} int_{y0}^inf y^{-n} phi(s y) w((|x|/y)^n) dy`` with
    ``s`` the oscillatory side sign.  Block edges sit at stationary-phase
    angles ``6 pi, 7 pi, ...``; the profile values on the block nodes are
    cached once per solve and the alternating block sums are accelerated
    by iterated averaging.
    """

    def __init__(self, shape: _SimilarityKernel) -> None:
        self.shape = shape
        n = shape.spec.n
        phases = _OSC_PHASE0 + math.pi * np.arange(_OSC_BLOCKS + 1)
        self.edges = np.array([_phase_point(n, 1.0, p) for p in phases])
        half, ref = leggauss(_OSC_NODES)
        mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        rad = 0.5 * (self.edges[1:] - self.edges[:-1])
        self.nodes = (mid[:, None] + rad[:, None] * half[None, :]).ravel()
        self.node_weights = (rad[:, None] * ref[None, :]).ravel()
        self._profile_vals = None

    @property
    def profile_vals(self) -> np.ndarray:
        if self._profile_vals is None:
            self._profile_vals = self.shape.profile(
                float(self.shape.osc_dir) * self.nodes)
        return self._profile_vals

    def head(self, x: float, weight, y_start: float) -> tuple[float, float]:
        """Integral of ``p_n(x, u) weight(u)`` over ``(0, (|x|/y_start)^n]``."""
        n = self.shape.spec.n
        ax = abs(x)
        pref = n * ax ** (n - 1)

        def strip(ys):
            ys = np.asarray(ys, dtype=float)
            pv = self.shape.profile(float(self.shape.osc_dir) * ys)
            wv = weight((ax / ys) ** n)
            return pref * ys ** (-n) * pv * wv

        wv = weight((ax / self.nodes) ** n)
        contrib = (pref * self.node_weights * self.nodes ** float(-n)
                   * self.profile_vals * wv)
        blocks = contrib.reshape(_OSC_BLOCKS, _OSC_NODES).sum(axis=1)
        if y_start >= self.edges[-6]:
            # already deep in the tail: integrate the remaining strip and
            # bound the remainder by the final computed lobe (the lobes
            # keep shrinking, so the first omitted one bounds the rest)
            bound = abs(float(blocks[-1]))
            if y_start >= float(self.edges[-1]):
                return 0.0, bound
            res = integrate_adaptive(strip, y_start, float(self.edges[-1]),
                                     1e-11)
            return res.value, res.error_estimate + bound
        if y_start <= self.edges[0] * (1.0 + 1e-12):
            j0 = 0
            part_val = part_err = 0.0
        else:
            j0 = int(np.searchsorted(self.edges, y_start, side="left"))
            res = integrate_adaptive(strip, y_start, float(self.edges[j0]),
                                     1e-11)
            part_val, part_err = res.value, res.error_estimate
        tail_val, tail_err = euler_tail_sum(blocks[j0:])
        return part_val + tail_val, part_err + tail_err


def _integrate_against_kernel(shape: _SimilarityKernel,
                              osc: _OscillatoryTail | None,
                              x: float, weight, u_hi: float,
                              tol: float) -> tuple[float, float]:
    """``int_0^{u_hi} p_n(x, u) weight(u) du`` with endpoint care.

    At ``x = 0`` the kernel is exactly ``phi(0) u^{-1/n}`` and the
    singular factor goes into a Gauss-Jacobi rule; on the oscillatory
    side of odd ``n`` the ``u -> 0`` endpoint is folded into phase
    blocks; on decaying sides the integrand vanishes there and plain
    adaptive quadrature suffices.
    """
    n = shape.spec.n
    if x == 0.0:
        # p_n(0, u) is exactly phi(0) u^{-1/n}; the singular factor is the
        # Gauss-Jacobi weight and the remaining integrand is smooth
        phi0 = float(shape.profile(np.zeros(1))[0])
        res = integrate_jacobi_singular(
            lambda u: phi0 * weight(u), 0.0, u_hi,
            JacobiWeight(exponent=-1.0 / n, endpoint="left"), tol)
        return res.value, res.error_estimate
    if shape.osc_dir and math.copysign(1.0, x) == shape.osc_dir:
        y0 = float(osc.edges[0])
        u_osc = (abs(x) / y0) ** n
        value = err = 0.0
        if u_osc < u_hi:
            body = integrate_adaptive(
                lambda u: shape.at(x, u) * weight(u), u_osc, u_hi, 0.5 * tol)
            value += body.value
            err += body.error_estimate
            y_start = y0
        else:
            y_start = abs(x) * u_hi ** (-1.0 / n)
        hv, he = osc.head(x, weight, y_start)
        return value + hv, err + he
    res = integrate_adaptive(
        lambda u: shape.at(x, u) * weight(u), 0.0, u_hi, tol)
    return res.value, res.error_estimate


# ---------------------------------------------------------------------------
# Route 1: subordination
# ---------------------------------------------------------------------------

def solve_subordination(request: SolutionRequest, *,
                        tol: float = 1e-8) -> SolutionField:
    """Solution values as the kernel integrated against the random-time
    density: ``u(x, t) = int_0^inf p_n(x, u) vbar(u, t) du``.

    At ``alpha = 1`` the time law is a point mass at ``t`` and the
    integral collapses to the kernel itself.
    """
    spec, alpha, t = request.spec, request.alpha, request.t
    xs = np.asarray(request.x_grid, dtype=float)
    if alpha == 1.0:
        vals, kerr, _ = kernel_density_grid(spec, xs, t, min(tol, 1e-10))
        samples = tuple(_make_sample(spec, float(x), float(v), float(kerr))
                        for x, v in zip(xs, vals))
        return SolutionField(request=request, values=samples,
                             route_used="subordination")
    prof = _time_profile(alpha)
    u_clip = prof.u_clip(t)
    shape = _SimilarityKernel(spec)
    osc = _OscillatoryTail(shape) if shape.osc_dir else None
    tail_mass = _survival_probability(alpha, u_clip, t)

    def weight(u):
        return prof.density(u, t)

    n = spec.n
    samples = []
    for x in xs:
        value, err = _integrate_against_kernel(shape, osc, float(x), weight,
                                               u_clip, 0.5 * tol)
        amp = 2.0 * max(shape.profile_sup, 0.5)
        # mass clamped beyond the guard, times a kernel amplitude bound,
        # plus the measured interpolation error against the kernel's
        # absolute u-integral
        err += tail_mass * amp * u_clip ** (-1.0 / n)
        err += (prof.fit_err * t ** -alpha
                * amp * u_clip ** (1.0 - 1.0 / n) * n / (n - 1.0))
        samples.append(_make_sample(spec, float(x), float(value), float(err)))
    return SolutionField(request=request, values=tuple(samples),
                         route_used="subordination")


# ---------------------------------------------------------------------------
# Route 2: Fourier inversion through the Mittag-Leffler function
# ---------------------------------------------------------------------------

def _fourier_cutoff(alpha: float, n: int, a_abs: float) -> float:
    """Head/tail split point B for the transform integral.

    Chosen so that on the tail (i) the Mittag-Leffler argument is deep in
    its negative-power regime and (ii) for odd ``n`` with ``alpha > 1/2``
    the exponential component of the expansion is below ``e^-21``.
    """
    z_min = 40.0
    if n % 2 and 0.5 < alpha < 1.0:
        cosfac = abs(math.cos(math.pi / (2.0 * alpha)))
        z_min = max(z_min, (21.0 / cosfac) ** alpha)
    return (z_min / a_abs) ** (1.0 / n)


def _tail_inverse_power_transforms(xs: np.ndarray, B: float,
                                   r_max: int) -> np.ndarray:
    """``C_r(x) = int_B^inf e^{-i x b} b^-r db`` for r = 1..r_max.

    ``C_1`` comes from the sine/cosine integrals; higher r follow from
    integration by parts.  The recursion is forward stable here because
    the division by ``r - 1`` outgrows the multiplication by ``|x|``.
    """
    from scipy.special import sici

    xs = np.asarray(xs, dtype=float)
    ax = np.abs(xs)
    out = np.empty((r_max + 1, xs.size), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        si, ci = sici(ax * B)
    c1 = -ci + 1j * (si - 0.5 * math.pi)
    c1 = np.where(xs > 0.0, c1, np.conj(c1))
    c1 = np.where(ax > 0.0, c1, 0.0)  # x = 0 only ever needs r >= 2
    out[0] = np.nan
    out[1] = c1
    phase = np.exp(-1j * xs * B)
    for r in range(2, r_max + 1):
        out[r] = (B ** (1 - r) * phase - 1j * xs * out[r - 1]) / (r - 1)
    return out


def _fourier_algebraic_tail(xs: np.ndarray, A: complex, alpha: float,
                            n: int, B: float) -> tuple[np.ndarray, float]:
    """Tail ``int_B^inf Re[e^{-i x b} E_alpha(A b^n)] db`` from the
    negative-power expansion of the Mittag-Leffler function, plus an
    error bound covering the omitted terms."""
    terms = _FOURIER_TAIL_TERMS
    C = _tail_inverse_power_transforms(xs, B, n * terms)
    out = np.zeros(xs.size)
    for m in range(1, terms + 1):
        coef = -A ** (-m) * float(rgamma(1.0 - alpha * m))
        out += (coef * C[n * m]).real
    mm = terms + 1
    rem = (abs(A) ** -mm * abs(float(rgamma(1.0 - alpha * mm)))
           * B ** (1 - n * mm) / (n * mm - 1))
    if n % 2 and 0.5 < alpha < 1.0:
        # exponential component of the expansion, kept below e^-21 by the
        # cutoff choice; bound its tail integral by its value at B over
        # the local decay rate
        rem += math.exp(-21.0) / alpha * B / (21.0 * n / alpha)
    return out, 4.0 * rem


def _fourier_head(xs: np.ndarray, A: complex, alpha: float, n: int,
                  B: float, params: MLParams,
                  state: dict) -> tuple[np.ndarray, np.ndarray]:
    """Head ``int_0^B Re[e^{-i x b} E_alpha(A b^n)] db`` on composite
    Gauss-Legendre panels whose edges equidistribute the integrand's
    accumulated phase, with the error taken from a half-resolution
    comparison.

    A fixed node set (rather than adaptive bisection) keeps the number of
    Mittag-Leffler evaluations predictable: the arbitrary-precision
    mid-band of that function is the expensive part of this route.  The
    phase model charges ``|x| b`` everywhere, plus the phase of the
    exponential component of the Mittag-Leffler expansion where that
    component exists (odd ``n``, ``alpha > 1/2``) and is still above its
    ``e^-21`` floor.
    """
    xmax = float(np.max(np.abs(xs)))
    betas = np.linspace(0.0, B, 4097)
    phase = xmax * betas
    if n % 2 and 0.5 < alpha < 1.0:
        cosfac = abs(math.cos(math.pi / (2.0 * alpha)))
        sinfac = abs(math.sin(math.pi / (2.0 * alpha)))
        b_osc = min(((21.0 / cosfac) ** alpha / abs(A)) ** (1.0 / n), B)
        capped = np.minimum(betas, b_osc)
        phase = phase + sinfac * (abs(A) * capped ** n) ** (1.0 / alpha)
    # tiny ramp keeps the phase strictly increasing for the inversion
    phase = phase + (1e-9 / B) * betas
    npanels = int(min(4096, math.ceil(phase[-1] / math.pi) + 8))
    npanels += npanels % 2  # even, so every other edge is a valid coarsening
    edges = np.interp(np.linspace(0.0, phase[-1], npanels + 1), phase, betas)
    edges[0], edges[-1] = 0.0, B

    def transform(es: np.ndarray) -> np.ndarray:
        half, ref = leggauss(16)
        mid = 0.5 * (es[1:] + es[:-1])
        rad = 0.5 * (es[1:] - es[:-1])
        bs = (mid[:, None] + rad[:, None] * half[None, :]).ravel()
        ws = (rad[:, None] * ref[None, :]).ravel()
        z = A * bs.astype(complex) ** n
        vals, errs, degs = mittag_leffler_grid(z, params)
        state["err"] = max(state["err"], float(np.max(errs)))
        state["degraded"] |= bool(np.any(degs))
        phases = np.exp(-1j * np.outer(bs, xs))
        return (ws[:, None] * (phases * vals[:, None]).real).sum(axis=0)

    v_fine = transform(edges)
    v_coarse = transform(edges[::2])
    return v_fine, np.abs(v_fine - v_coarse)


def solve_fourier_ml(request: SolutionRequest, *,
                     tol: float = 1e-8) -> SolutionField:
    """Solution values by inverting the characteristic function:
    ``u(x, t) = (1/pi) int_0^inf Re[e^{-i x b} E_alpha(k_n (-i b)^n t^alpha)] db``.

    The integral is split at a cutoff beyond which the Mittag-Leffler
    factor is replaced by its negative-power expansion, integrated in
    closed form against the oscillation.  For odd ``n`` at ``alpha = 1``
    the characteristic function is a pure phase and the inversion is
    exactly the kernel's own contour integral, which is used directly.
    """
    spec, alpha, t = request.spec, request.alpha, request.t
    n = spec.n
    xs = np.asarray(request.x_grid, dtype=float)
    if alpha == 1.0 and n % 2:
        vals, kerr, _ = kernel_density_grid(spec, xs, t, min(tol, 1e-10))
        samples = tuple(_make_sample(spec, float(x), float(v), float(kerr))
                        for x, v in zip(xs, vals))
        return SolutionField(request=request, values=samples,
                             route_used="fourier_ml")
    A = complex(spec.k) * (-1j) ** n * t ** alpha
    B = _fourier_cutoff(alpha, n, abs(A))
    params = MLParams(alpha=alpha)
    state = {"err": 0.0, "degraded": False}
    head_vals, head_errs = _fourier_head(xs, A, alpha, n, B, params, state)
    tail_vals, tail_err = _fourier_algebraic_tail(xs, A, alpha, n, B)
    values = (head_vals + tail_vals) / math.pi
    errs = (head_errs + tail_err + state["err"] * B) / math.pi + 0.1 * tol
    samples = tuple(_make_sample(spec, float(x), float(v), float(e))
                    for x, v, e in zip(xs, values, errs))
    return SolutionField(request=request, values=samples,
                         route_used="fourier_ml",
                         degraded=state["degraded"])


def solve(request: SolutionRequest, *, tol: float = 1e-8) -> SolutionField:
    """Dispatch on ``request.route``; ``"auto"`` sends even orders to
    Fourier inversion and odd orders to subordination."""
    route = request.route
    if route == "auto":
        route = "fourier_ml" if request.spec.n % 2 == 0 else "subordination"
    if route == "fourier_ml":
        return solve_fourier_ml(request, tol=tol)
    return solve_subordination(request, tol=tol)


# ---------------------------------------------------------------------------
# Analytic side data
# ---------------------------------------------------------------------------

def solution_char_fn(spec: EquationSpec, alpha: float, beta: float,
                     t: float) -> complex:
    """Characteristic function ``E_alpha(k_n (-i beta)^n t^alpha)`` of the
    solution in the space variable."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    z = complex(spec.k) * (-1j * beta) ** spec.n * t ** alpha
    if alpha == 1.0:
        return cmath.exp(z)
    return mittag_leffler(z, MLParams(alpha=alpha))


def solution_moment(spec: EquationSpec, alpha: float, r: int,
                    t: float) -> float:
    """Integer space moment of the solution at time t.

    Nonzero only at multiples of ``n``:
    ``mu_{nj} = (-1)^{nj} k_n^j (nj)! t^{alpha j} / Gamma(alpha j + 1)``.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    if r % spec.n:
        return 0.0
    j = r // spec.n
    return ((-1.0) ** r * float(spec.k) ** j * t ** (alpha * j)
            * math.factorial(r) / float(gamma_fn(alpha * j + 1.0)))


# ---------------------------------------------------------------------------
# Laplace-transform identity
# ---------------------------------------------------------------------------

def laplace_relation_check(spec: EquationSpec, alpha: float, x: float,
                           s: float, *, tol: float = 1e-7) -> float:
    """``|numeric - closed|`` for the transformed solution at one (x, s).

    Closed side: ``s^{alpha-1} Phi_n(x, s^alpha)`` with ``Phi_n`` the
    kernel's exact transform.  Numeric side: the time integral of the
    subordination representation, evaluated with the u-integral outermost
    (the double integral converges absolutely, so the swap is exact); the
    inner time integral of the density is quadrature, not a formula, so
    the comparison stays independent of the closed side.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not s > 0.0:
        raise DomainError(f"Laplace parameter must be positive, got {s}")
    closed = s ** (alpha - 1.0) * kernel_laplace(spec, x, s ** alpha)
    t_cut = 45.0 / s
    shape = _SimilarityKernel(spec)
    n = spec.n
    if alpha == 1.0:
        if x == 0.0:
            phi0 = float(shape.profile(np.zeros(1))[0])
            res = integrate_jacobi_singular(
                lambda ts: phi0 * np.exp(-s * np.asarray(ts, dtype=float)),
                0.0, t_cut, JacobiWeight(exponent=-1.0 / n, endpoint="left"),
                0.1 * tol)
            return abs(res.value - closed)

        def f(ts):
            ts = np.asarray(ts, dtype=float)
            sc = ts ** (-1.0 / n)
            return np.exp(-s * ts) * sc * shape.profile(x * sc)

        res = integrate_adaptive(f, 0.0, t_cut, 0.1 * tol)
        return abs(res.value - closed)
    prof = _time_profile(alpha)

    def time_integral(u: float) -> float:
        # int_0^{t_cut} e^{-st} vbar(u, t) dt; below t_floor the density
        # argument leaves the fitted trust region and the integrand is
        # superexponentially small (dropped, covered by the tolerance)
        if u <= 0.0:
            return 0.0
        t_floor = (u / prof.x_clip) ** (1.0 / alpha)
        lo = min(t_floor, t_cut)
        if lo >= t_cut:
            return 0.0

        def g(ts):
            ts = np.asarray(ts, dtype=float)
            sc = ts ** -alpha
            return np.exp(-s * ts) * sc * prof.profile(u * sc)

        return float(integrate_adaptive(g, lo, t_cut, 1e-10).value)

    def weight(us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        return np.array([time_integral(float(u)) for u in us])

    osc = _OscillatoryTail(shape) if shape.osc_dir else None
    u_hi = 35.0 / s ** alpha
    value, _ = _integrate_against_kernel(shape, osc, x, weight, u_hi,
                                         0.2 * tol)
    return abs(value - closed)


# ---------------------------------------------------------------------------
# Finite-difference residual of the equation itself
# ---------------------------------------------------------------------------

def _derivative_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0 on the
    given distinct offsets (classic Vandermonde construction)."""
    p = offsets.size
    if order >= p:
        raise DomainError(
            f"{p} stencil points cannot resolve derivative order {order}")
    vand = np.vander(offsets, p, increasing=True).T
    rhs = np.zeros(p)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(vand, rhs)


class _GridField:
    """Default field evaluator for the residual check.

    One kernel matrix on a shared log-spaced u-grid (built once per
    stencil), then one time-density vector per requested time; for odd
    orders the oscillatory-side head below the first phase block is
    truncated, so supply an explicit field when that side matters.
    """

    def __init__(self, spec: EquationSpec, alpha: float, t_max: float) -> None:
        self.spec = spec
        self.alpha = alpha
        self.shape = _SimilarityKernel(spec, tol=1e-13)
        if alpha < 1.0:
            self.prof = _time_profile(alpha)
            self.u_hi = self.prof.u_clip(t_max)
        self._key = None

    def _build(self, x_nodes: np.ndarray) -> None:
        n = self.spec.n
        ax_min = float(np.min(np.abs(x_nodes)))
        if ax_min <= 0.0:
            raise DomainError("the default field needs stencil nodes away "
                              "from the origin")
        if self.shape.osc_dir:
            y_floor = float(_phase_point(n, 1.0, _OSC_PHASE0))
        else:
            y_floor = self.shape.clip_abs
        u_lo = min((ax_min / y_floor) ** n, 1e-3 * self.u_hi)
        half, ref = leggauss(16)
        edges = np.geomspace(u_lo, self.u_hi, 25)
        lmid = 0.5 * (np.log(edges[1:]) + np.log(edges[:-1]))
        lrad = 0.5 * (np.log(edges[1:]) - np.log(edges[:-1]))
        lnodes = (lmid[:, None] + lrad[:, None] * half[None, :]).ravel()
        self.u_nodes = np.exp(lnodes)
        w_log = (lrad[:, None] * ref[None, :]).ravel()
        scale = self.u_nodes ** (-1.0 / n)
        args = x_nodes[:, None] * scale[None, :]
        profile = self.shape.profile(args.ravel()).reshape(args.shape)
        kernel_mat = scale[None, :] * profile
        # fold the log-map jacobian and the weights into the matrix
        self.k_w = kernel_mat * (w_log * self.u_nodes)[None, :]
        self._key = tuple(float(v) for v in x_nodes)

    def __call__(self, x_nodes, t: float) -> np.ndarray:
        x_nodes = np.atleast_1d(np.asarray(x_nodes, dtype=float))
        if self.alpha == 1.0:
            vals, _, _ = kernel_density_grid(self.spec, x_nodes, t, 1e-13)
            return vals
        key = tuple(float(v) for v in x_nodes)
        if key != self._key:
            self._build(x_nodes)
        return self.k_w @ self.prof.density(self.u_nodes, t)


def caputo_residual(spec: EquationSpec, alpha: float, x: float,
                    t_grid, h_x: float, field=None) -> float:
    """Max interior defect of the discretized equation along ``t_grid``.

    The fractional time derivative is the classical one-sided product
    scheme on a uniform grid from 0 (backward differences weighted by
    ``(k+1)^{1-alpha} - k^{1-alpha}``, which at ``alpha = 1`` degenerates
    to backward Euler); the space derivative is an (n+2)-point centered
    stencil of spacing ``h_x``.  ``field(x_nodes, t) -> values`` defaults
    to a shared-grid subordination evaluator; pass an explicit callable
    to test a closed form instead.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 64:
        raise DomainError("t_grid must be a 1-d grid with at least 64 nodes")
    if t_grid[0] != 0.0:
        raise DomainError("t_grid must start at 0, where the field vanishes "
                          "away from the origin")
    dt = t_grid[1] - t_grid[0]
    if dt <= 0.0 or np.max(np.abs(np.diff(t_grid) - dt)) > 1e-10 * dt:
        raise DomainError("t_grid must be uniform and increasing")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not h_x > 0.0:
        raise DomainError(f"stencil spacing must be positive, got {h_x}")
    n = spec.n
    offsets = np.arange(n + 2) - 0.5 * (n + 1)
    x_nodes = x + offsets * h_x
    if np.min(np.abs(x_nodes)) < 1e-9:
        raise DomainError("stencil touches the origin, where the initial "
                          "point mass lives; move x or shrink h_x")
    w = _derivative_weights(offsets, n) / h_x ** n
    if field is None:
        field = _GridField(spec, alpha, float(t_grid[-1]))
    rows = [np.zeros(x_nodes.size + 1)]
    x_all = np.append(x_nodes, x)
    for tv in t_grid[1:]:
        rows.append(np.asarray(field(x_all, float(tv)), dtype=float))
    u_mat = np.array(rows)
    space_term = u_mat[:, :-1] @ w
    floor = 8.0 * 1e-15 * np.max(np.abs(u_mat[:, :-1])) * np.sum(np.abs(w))
    if not np.max(np.abs(space_term[1:])) > floor:
        raise StencilUnderflowError(
            "the space stencil output is below rounding noise "
            f"(|D^n u| <= {floor:.2e}); enlarge h_x or move x inward")
    du = np.diff(u_mat[:, -1])
    if alpha == 1.0:
        caputo = du / dt
    else:
        kk = np.arange(t_grid.size)
        b = (kk + 1.0) ** (1.0 - alpha) - kk ** (1.0 - alpha)
        caputo = (np.convolve(du, b)[:du.size]
                  * dt ** -alpha / float(gamma_fn(2.0 - alpha)))
    residual = caputo - spec.k * space_term[1:]
    return float(np.max(np.abs(residual)))
