"""Solution of the fractional-in-time equation by two independent routes.

:func:`solve` serves both.  Subordination integrates the signed space
kernel against the random-time density over the operational time axis;
Fourier inversion inverts the characteristic function, a Mittag-Leffler
function of the spatial symbol.  The two representations share no code
below the top level, so their agreement is a genuine cross-check of both.
Either runs once at ``t = 1``: the solution is self-similar, so ``solve``
maps every other ``t`` onto that one solve.

The module also carries the analytic side data used for validation:
moments of the solution, its characteristic function, the closed-form
Laplace transform identity, and a finite-difference residual that feeds
the solution back into the equation it is supposed to satisfy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct
from scipy.special import gamma as gamma_fn, gammaln, rgamma, sici

from ._errors import ConvergenceError, DomainError, StencilUnderflowError
from .kernel import (
    EquationSpec,
    _decay_rate,
    _phase_point,
    kernel_density_grid,
    kernel_laplace,
    make_equation_spec,
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
    closed_form,
    mittag_leffler_grid,
    stable_one_sided_density_grid,
)
from .timechange import TimeChangeLaw, time_density_grid

__all__ = [
    "SolutionRequest",
    "SolutionField",
    "solve",
    "solution_char_fn",
    "solution_moment",
    "laplace_relation_check",
    "caputo_residual",
]

_SOLVE_ROUTES = ("subordination", "fourier_ml", "auto")

#: tolerance of the time-law profile fit and of the kernel contour
_KERNEL_TOL = 1e-11

#: time-law profile: starting Chebyshev nodes and their cap under doubling
_PROFILE_NODES = 97
_PROFILE_MAX_NODES = 769

#: kernel profile: caps on a panel's width and stationary-phase increment,
#: starting Chebyshev nodes per panel and their cap under doubling, points
#: per contour call while building, and the fit tolerance (the contour's
#: own rounding sits near 1e-14)
_KERNEL_PANEL = 4.0
_KERNEL_PHASE = 6.0
_KERNEL_NODES = 20
_KERNEL_MAX_NODES = 153
_KERNEL_CHUNK = 256
_KERNEL_FIT_TOL = 1e-13

#: the oscillatory-side head starts at this stationary-phase angle
_OSC_PHASE0 = 6.0 * math.pi
_OSC_BLOCKS = 72
_OSC_NODES = 10

#: subordination in v = u^(1/n): Gauss-Legendre nodes per half panel,
#: geometric panel ratio, uniform panels across [0, v_hi], panel cap per
#: point, and nodes per evaluation chunk (about 2 MB of work arrays)
_V_NODES = 8
_V_RATIO = 2.0
_V_UNIFORM = 4
_V_MAX_PANELS = 2048
_V_CHUNK = 1 << 14

#: Gauss-Legendre rules, built once
_GL_OSC = leggauss(_OSC_NODES)
_GL_V = leggauss(_V_NODES)
_GL16 = leggauss(16)

#: zero the kernel profile on decaying sides once the saddle bound
#: guarantees |phi| <= e^-70
_DECAY_CLIP_LOG = 70.0

#: negative-power terms kept in the analytic Fourier tail
_FOURIER_TAIL_TERMS = 6

#: Fourier head: panel cap per request, and elements of one (nodes x
#: points) phase chunk (1 MB)
_HEAD_MAX_PANELS = 4096
_HEAD_CHUNK = 1 << 16

#: |x| B up to which the tail transforms recur upward from r = 1; beyond
#: it they come from the continued fraction
_TAIL_UPWARD_MAX = 7.0


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
        if not 0.0 < self.t < math.inf:
            raise DomainError(f"t must be positive and finite, got {self.t}")
        if self.route not in _SOLVE_ROUTES:
            raise DomainError(f"unknown route {self.route!r}")
        xs = np.atleast_1d(np.asarray(self.x_grid, dtype=float))
        if xs.size == 0:
            raise DomainError("x_grid must not be empty")
        if not np.all(np.isfinite(xs)):
            raise DomainError("x_grid must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("x_grid must be strictly increasing")
        object.__setattr__(self, "x_grid", tuple(float(v) for v in xs))


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Solution values on the request grid with per-point error estimates.

    ``values`` and ``errors`` are read-only arrays over ``request.x_grid``;
    ``route_used`` names the representation that produced them (``"auto"``
    resolved).  For ``n = 2`` the solution is a probability density, and
    ``solve`` has set the values that are negative only by noise (within
    ten error bars) to zero.
    """

    request: SolutionRequest
    values: np.ndarray
    errors: np.ndarray
    route_used: str

    def grid_values(self) -> np.ndarray:
        return self.values

    def grid_errors(self) -> np.ndarray:
        return self.errors


# ---------------------------------------------------------------------------
# Shared evaluators for the subordination integral
# ---------------------------------------------------------------------------

class _Chebyshev:
    """Piecewise Chebyshev interpolant of ``f`` on the panels between
    consecutive ``edges``, zero outside ``[edges[0], edges[-1]]``.

    Every panel starts at ``npts`` Chebyshev-Lobatto nodes.  ``fit_err`` is
    measured against direct evaluations midway (in angle) between every
    pair of nodes; a panel that misses ``tol`` doubles its nodes, and one
    that still misses it at ``max_npts`` refuses the fit.
    Doubling nests: the new rung's nodes are the old nodes and the old
    midway probes, so each rung evaluates only its own new probes.  ``f``
    sees one call for the first rung's nodes and one per rung for the
    probes of every panel still refining.  ``sup`` is the largest
    ``|f|`` over the final nodes.
    """

    def __init__(self, f, edges, npts: int, max_npts: int, tol: float,
                 what: str) -> None:
        self.edges = np.asarray(edges, dtype=float)
        self._lo = lo = self.edges[:-1]
        self._rad = rad = 0.5 * (self.edges[1:] - self.edges[:-1])

        def f_at(panels, angles):
            xs = lo[panels, None] + rad[panels, None] * (1.0 - np.cos(angles))
            return np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)

        coefs = [None] * lo.size
        self.fit_err = self.sup = 0.0
        active = np.arange(lo.size)
        vals = f_at(active, np.pi * np.arange(npts) / (npts - 1))
        while True:
            # the nodes are the Chebyshev-Lobatto points in reverse order,
            # so a type-1 DCT gives the interpolant's coefficients
            coef = dct(vals[:, ::-1], type=1, axis=-1) / (npts - 1)
            coef[:, [0, -1]] *= 0.5
            angles = np.pi * (np.arange(npts - 1) + 0.5) / (npts - 1)
            probes = f_at(active, angles)
            errs = np.max(np.abs(chebval(-np.cos(angles), coef.T) - probes),
                          axis=1)
            done = errs <= tol
            for j, c in zip(active[done], coef[done]):
                coefs[j] = c
            if np.any(done):
                self.fit_err = max(self.fit_err, float(np.max(errs[done])))
                self.sup = max(self.sup, float(np.max(np.abs(vals[done]))))
            if np.all(done):
                break
            if npts >= max_npts:
                raise ConvergenceError(
                    f"{what} misses the tolerance {tol:g} with "
                    f"{npts} nodes (fit error {float(np.max(errs)):.2g})")
            active, vals, probes = active[~done], vals[~done], probes[~done]
            npts = 2 * npts - 1
            merged = np.empty((active.size, npts))
            merged[:, 0::2], merged[:, 1::2] = vals, probes
            vals = merged
        # one row per degree, one column per panel
        self._coef = np.zeros((max(c.size for c in coefs), lo.size))
        for j, c in enumerate(coefs):
            self._coef[:c.size, j] = c

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        ok = (x >= self.edges[0]) & (x <= self.edges[-1])
        if np.any(ok):
            xs = x[ok]
            j = np.minimum(np.searchsorted(self.edges, xs, side="right") - 1,
                           self._lo.size - 1)
            u = (xs - self._lo[j]) / self._rad[j] - 1.0
            if self._lo.size == 1:
                out[ok] = chebval(u, self._coef[:, 0])
                return out
            # Clenshaw, gathering each degree's coefficients per point
            coef = self._coef
            b1 = b2 = 0.0
            for c in coef[:0:-1]:
                b1, b2 = c[j] + 2.0 * u * b1 - b2, b1
            out[ok] = coef[0][j] + u * b1 - b2
        return out


class _KernelProfile(_Chebyshev):
    """The t = 1 kernel ``phi = p_n(., 1)`` as a piecewise Chebyshev fit.

    Self-similarity gives ``p_n(x, u) = u^{-1/n} phi(x u^{-1/n})``, so one
    fit per ``(n, k)`` serves every subordination quadrature node.  It
    covers every argument the subordination integral evaluates: a decaying
    side out to ``clip_abs``, where the saddle bound puts it below
    ``e^-70``, and the oscillatory side of odd ``n`` (sign ``osc_dir``, 0
    for even ``n``) out to the last phase-block edge of its
    :class:`_OscillatoryTail`; beyond those points it is zero.  The
    contour runs in chunks sorted by ``|y|``, because each call sizes its
    contour for its largest point.
    """

    def __init__(self, n: int, k: int) -> None:
        self.spec = make_equation_spec(n, k)
        c, nu = _decay_rate(n, 1.0)
        self.clip_abs = (_DECAY_CLIP_LOG / c) ** (1.0 / nu)
        self.osc_dir = (n % 2) * -self.spec.k * (-1) ** ((n - 1) // 2)
        lo, hi = -self.clip_abs, self.clip_abs
        if self.osc_dir:
            phases = _OSC_PHASE0 + math.pi * np.arange(_OSC_BLOCKS + 1)
            osc_edges = np.array([_phase_point(n, 1.0, p) for p in phases])
            if self.osc_dir > 0:
                hi = float(osc_edges[-1])
            else:
                lo = -float(osc_edges[-1])

        def side(end):
            # a panel ends where either its width or its stationary-phase
            # increment reaches its cap, whichever comes first
            cuts = [0.0]
            while cuts[-1] < end:
                m = len(cuts)
                cuts.append(min(m * _KERNEL_PANEL,
                                _phase_point(n, 1.0, m * _KERNEL_PHASE)))
            return np.append(cuts[1:-1], end)

        edges = np.concatenate((-side(-lo)[::-1], [0.0], side(hi)))
        super().__init__(self._contour, edges, _KERNEL_NODES,
                         _KERNEL_MAX_NODES, _KERNEL_FIT_TOL,
                         f"kernel profile of n={n}, k={k}")
        self.osc = (_OscillatoryTail(self, osc_edges) if self.osc_dir
                    else None)

    def _contour(self, ys: np.ndarray) -> np.ndarray:
        out = np.empty_like(ys)
        order = np.argsort(np.abs(ys))
        for chunk in np.array_split(order, -(-ys.size // _KERNEL_CHUNK)):
            out[chunk], _, _ = kernel_density_grid(self.spec, ys[chunk], 1.0,
                                                   _KERNEL_TOL)
        return out


@lru_cache(maxsize=32)
def _kernel_profile(n: int, k: int) -> _KernelProfile:
    """Memoized kernel profile: immutable once built, reused across solves."""
    return _KernelProfile(n, k)


class _TimeProfile:
    """Chebyshev fit of the random-time density at ``t = 1``.

    ``F``, the duality density of :func:`time_density_grid` at ``t = 1``,
    is entire, so an interpolant built once replaces per-node work for
    every later quadrature evaluation (other times follow from
    ``vbar(u, t) = t^-alpha F(u t^-alpha)``).  One :class:`_Chebyshev`
    panel covers ``[0, x_clip]``, where ``F(x_clip)`` is ~e^-46; beyond it
    the profile is clamped to zero, and ``tail_mass`` is the clamped mass.
    """

    def __init__(self, alpha: float) -> None:
        self.x_clip = (46.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
        law = TimeChangeLaw(alpha, 1.0)
        self.profile = _Chebyshev(lambda u: time_density_grid(law, u),
                                  (0.0, self.x_clip), _PROFILE_NODES,
                                  _PROFILE_MAX_NODES, _KERNEL_TOL,
                                  f"time-law profile at alpha={alpha}")
        self.fit_err = self.profile.fit_err
        self.tail_mass = _survival_probability(alpha, self.x_clip)


@lru_cache(maxsize=32)
def _time_profile(alpha: float) -> _TimeProfile:
    """Memoized profile: immutable once built, reused across solves."""
    return _TimeProfile(alpha)


def _survival_probability(alpha: float, u0: float) -> float:
    """P(random time at t = 1 exceeds u0) as one-sided stable mass on [0, 1].

    The inverse law and the one-sided stable law are first-passage duals,
    so the survival function needs no density values beyond the guard.
    """
    law = StableOneSided(alpha=alpha, u=u0)

    def f(ws):
        return stable_one_sided_density_grid(np.asarray(ws, dtype=float), law)

    return float(integrate_adaptive(f, 0.0, 1.0, 1e-10).value)


class _OscillatoryTail:
    """Shared phase-pi blocks for the oscillatory-side head of odd n.

    In the similarity variable ``y = |x| u^{-1/n}`` the head
    ``int_0^{u0} p_n(x, u) w(u) du`` becomes
    ``n |x|^{n-1} int_{y0}^inf y^{-n} phi(s y) w((|x|/y)^n) dy`` with
    ``s`` the oscillatory side sign.  Block edges sit at stationary-phase
    angles ``6 pi, 7 pi, ...``; the profile values on the block nodes are
    taken once per kernel profile and the alternating block sums are
    accelerated by iterated averaging.
    """

    def __init__(self, kernel: _KernelProfile, edges: np.ndarray) -> None:
        self.kernel = kernel
        self.edges = edges
        half, ref = _GL_OSC
        mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        rad = 0.5 * (self.edges[1:] - self.edges[:-1])
        self.nodes = (mid[:, None] + rad[:, None] * half[None, :]).ravel()
        self.node_weights = (rad[:, None] * ref[None, :]).ravel()
        self.profile_vals = kernel(float(kernel.osc_dir) * self.nodes)

    def head(self, x: float, weight, j0: int) -> tuple[float, float]:
        """Integral of ``p_n(x, u) weight(u)`` over
        ``(0, (|x| / edges[j0])^n]``: the phase blocks from ``j0`` on.
        Past the last edge it is only bounded, by the last block (the lobes
        keep shrinking, so the first omitted one bounds the rest)."""
        n = self.kernel.spec.n
        ax = abs(x)
        wv = weight((ax / self.nodes) ** n)
        contrib = (n * ax ** (n - 1) * self.node_weights
                   * self.nodes ** float(-n) * self.profile_vals * wv)
        blocks = contrib.reshape(_OSC_BLOCKS, _OSC_NODES).sum(axis=1)
        if j0 == _OSC_BLOCKS:
            return 0.0, abs(float(blocks[-1]))
        return euler_tail_sum(blocks[j0:])


def _v_integral(kernel: _KernelProfile, ys: np.ndarray, v_lo: np.ndarray,
                v_hi: float, weight, budget: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``int_{v_lo}^{v_hi} n v^(n-2) phi(y / v) weight(v^n) dv`` at every
    ``y``: the u-integral of ``p_n(y, u) weight(u)`` in ``v = u^(1/n)``,
    which absorbs the ``u^(-1/n)`` endpoint factor into a smooth integrand.

    Each point gets composite Gauss-Legendre panels, geometric from its
    ``v_lo`` and uniform beyond; a panel's error is its rule on the two
    halves against its rule on the whole.  At every point over its
    ``budget`` the panels above their mean share are halved, all points in
    one array, until each point meets its budget or refuses at
    ``_V_MAX_PANELS`` panels.  The values are the half-panel sums, and the
    errors add a rounding floor to the summed differences.
    """
    n = kernel.spec.n
    node, ref = _GL_V
    rows = _V_CHUNK // _V_NODES

    def rule(a, b, pt):
        out = np.empty(a.size)
        for c in range(0, a.size, rows):
            sl = slice(c, c + rows)
            rad = 0.5 * (b[sl] - a[sl])
            v = ((a[sl] + rad)[:, None] + rad[:, None] * node).ravel()
            f = n * v ** (n - 2) * kernel(np.repeat(ys[pt[sl]], _V_NODES) / v)
            out[sl] = rad * ((f * weight(v ** n)).reshape(-1, _V_NODES) @ ref)
        return out

    def halves(a, b, pt):
        mid = 0.5 * (a + b)
        return rule(np.append(a, mid), np.append(mid, b),
                    np.append(pt, pt)).reshape(2, -1).T

    # geometric edges v_lo q^j while a step is shorter than the uniform
    # width h, then uniform panels up to v_hi; _V_UNIFORM > q / (q - 1)
    # keeps the geometric part below v_hi.  Past 64 doublings phi(y / v)
    # is phi(0) to rounding, so that caps the geometric part.
    q, h = _V_RATIO, v_hi / _V_UNIFORM
    v_lo = np.maximum(v_lo, np.finfo(float).tiny)
    n_geo = np.minimum(np.ceil(np.log(np.maximum(
        h / ((q - 1.0) * v_lo), 1.0)) / math.log(q)), 64.0)
    g = v_lo * q ** n_geo
    n_uni = np.ceil((v_hi - g) / h)
    count = (n_geo + n_uni).astype(int)
    pt = np.repeat(np.arange(ys.size), count)
    j = np.arange(pt.size) - np.repeat(np.cumsum(count) - count, count)
    k, w = n_geo[pt], ((v_hi - g) / n_uni)[pt]

    def edge(m):
        return np.where(m <= k, v_lo[pt] * q ** np.minimum(m, k),
                        g[pt] + (m - k) * w)

    a, b = edge(j), edge(j + 1)
    whole, half = rule(a, b, pt), halves(a, b, pt)
    while True:
        est = np.abs(half.sum(axis=1) - whole)
        err = np.bincount(pt, est, ys.size)
        over = err > budget
        if not np.any(over):
            break
        count = np.bincount(pt, minlength=ys.size)
        if np.max(count[over]) >= _V_MAX_PANELS:
            i = int(np.argmax(np.where(over, count, -1)))
            raise ConvergenceError(
                f"subordination at y={ys[i]:g} misses its budget "
                f"{budget[i]:.2g} with {count[i]} panels "
                f"(estimate {err[i]:.2g})")
        split = over[pt] & (est * count[pt] > budget[pt])
        mid = 0.5 * (a[split] + b[split])
        a = np.concatenate((a[~split], a[split], mid))
        b = np.concatenate((b[~split], mid, b[split]))
        pt = np.concatenate((pt[~split], pt[split], pt[split]))
        # a child's whole-panel rule is its parent's half
        whole = np.concatenate((whole[~split], half[split, 0], half[split, 1]))
        new = slice(a.size - 2 * mid.size, None)
        half = np.concatenate((half[~split], halves(a[new], b[new], pt[new])))
    floor = np.bincount(pt, np.abs(half).sum(axis=1), ys.size)
    return (np.bincount(pt, half.sum(axis=1), ys.size),
            err + 64.0 * np.finfo(float).eps * floor)


def _integrate_against_kernel(kernel: _KernelProfile, ys: np.ndarray,
                              weight, u_hi: float, tol: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """``int_0^{u_hi} p_n(y, u) weight(u) du`` at every ``y`` of ``ys``,
    each within ``tol``.

    At ``y = 0`` the kernel is exactly ``phi(0) u^{-1/n}`` and the
    singular factor goes into a Gauss-Jacobi rule.  Every other point is
    one row of :func:`_v_integral`, from where ``phi(y / v)`` starts: the
    saddle bound ``clip_abs`` on a decaying side; on the oscillatory side
    of odd ``n`` a phase-block edge, below which the ``u -> 0`` end is
    folded into the blocks of :meth:`_OscillatoryTail.head`.
    """
    n = kernel.spec.n
    values, errors = np.zeros(ys.size), np.zeros(ys.size)
    for i in np.flatnonzero(ys == 0.0):
        # the singular factor is the Gauss-Jacobi weight and the remaining
        # integrand is smooth; phi(0) comes from the contour itself
        phi0, _, _ = kernel_density_grid(kernel.spec, np.zeros(1), 1.0,
                                         _KERNEL_TOL)
        res = integrate_jacobi_singular(
            lambda u: float(phi0[0]) * weight(u), 0.0, u_hi,
            JacobiWeight(exponent=-1.0 / n, endpoint="left"), tol)
        values[i], errors[i] = res.value, res.error_estimate
    v_hi = u_hi ** (1.0 / n)
    v_lo = np.abs(ys) / kernel.clip_abs
    osc = (ys != 0.0) & (np.sign(ys) == kernel.osc_dir)
    if np.any(osc):
        # the phase blocks take over at the first edge past |y| / v_hi, or
        # at the last edge where fewer than five blocks would remain
        j0 = np.searchsorted(kernel.osc.edges, np.abs(ys) / v_hi)
        j0[j0 > _OSC_BLOCKS - 5] = _OSC_BLOCKS
        v_lo[osc] = np.abs(ys[osc]) / kernel.osc.edges[j0[osc]]
    body = (ys != 0.0) & (v_lo < v_hi)
    if np.any(body):
        values[body], errors[body] = _v_integral(
            kernel, ys[body], v_lo[body], v_hi, weight,
            np.where(osc, 0.5, 1.0)[body] * tol)
    for i in np.flatnonzero(osc):
        hv, he = kernel.osc.head(float(ys[i]), weight, int(j0[i]))
        values[i] += hv
        errors[i] += he
    return values, errors


# ---------------------------------------------------------------------------
# Route 1: subordination
# ---------------------------------------------------------------------------

def _subordinate(spec: EquationSpec, alpha: float, ys: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Solution at ``t = 1`` as the kernel integrated against the
    random-time density: ``U(y) = int_0^inf p_n(y, u) F(u) du``."""
    kernel = _kernel_profile(spec.n, spec.k)
    prof = _time_profile(alpha)
    n = spec.n
    # mass clamped beyond the guard, times a kernel amplitude bound, plus
    # the measured interpolation error against the kernel's absolute
    # u-integral; and the kernel fit error against
    # int u^(-1/n) F(u) du = E[T^(-1/n)] = Gamma(1 - 1/n) / Gamma(1 - alpha/n)
    clip_err = (prof.tail_mass * prof.x_clip ** (-1.0 / n)
                + prof.fit_err * prof.x_clip ** (1.0 - 1.0 / n) * n / (n - 1.0))
    fixed_err = (2.0 * max(kernel.sup, 0.5) * clip_err
                 + kernel.fit_err * float(gamma_fn(1.0 - 1.0 / n)
                                          / gamma_fn(1.0 - alpha / n)))
    values, errors = _integrate_against_kernel(kernel, ys, prof.profile,
                                               prof.x_clip, 0.5 * tol)
    return values, errors + fixed_err


# ---------------------------------------------------------------------------
# Route 2: Fourier inversion through the Mittag-Leffler function
# ---------------------------------------------------------------------------

def _fourier_cutoff(alpha: float, n: int) -> float:
    """Head/tail split point B for the transform integral at ``t = 1``.

    Chosen so that on the tail (i) the Mittag-Leffler argument is deep in
    its negative-power regime and (ii) for odd ``n`` with ``alpha > 1/2``
    the exponential component of the expansion is below ``e^-21``.
    """
    z_min = 40.0
    if n % 2 and 0.5 < alpha < 1.0:
        cosfac = abs(math.cos(math.pi / (2.0 * alpha)))
        z_min = max(z_min, (21.0 / cosfac) ** alpha)
    return z_min ** (1.0 / n)


def _expint_cf(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``E_r(z)`` by the modified Lentz continued fraction (|z| > 1),
    broadcast over ``r`` and ``z``."""
    b = z + r
    c = np.full(b.shape, 1e300, dtype=complex)
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (r - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = h * delta
        if np.max(np.abs(delta - 1.0)) < 1e-15:
            return h * np.exp(-z)
    raise ConvergenceError("continued fraction of E_r did not converge")


def _tail_inverse_power_transforms(xs: np.ndarray, B: float,
                                   r_max: int) -> np.ndarray:
    """``C_r(x) = int_B^inf e^{-i x b} b^-r db = B^{1-r} E_r(i x B)`` for
    r = 1..r_max.

    For ``|x| B <= _TAIL_UPWARD_MAX``, ``E_1`` comes from the sine and
    cosine integrals and higher r from ``(r - 1) E_r = e^{-z} - z E_{r-1}``,
    which scales an error by ``|z| / (r - 1)`` per step: at most
    ``e^|z| / sqrt(2 pi |z|)`` in all, a few hundred ulps.  Beyond that
    every ``E_r`` comes from its continued fraction.
    """
    xs = np.asarray(xs, dtype=float)
    z = 1j * np.abs(xs) * B
    far = z.imag > _TAIL_UPWARD_MAX
    zn = z[~far]
    up = np.empty((r_max + 1, zn.size), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        si, ci = sici(zn.imag)
    # x = 0 only ever needs r >= 2
    up[1] = np.where(zn != 0.0, -ci + 1j * (si - 0.5 * math.pi), 0.0)
    phase = np.exp(-zn)
    for r in range(2, r_max + 1):
        up[r] = (phase - zn * up[r - 1]) / (r - 1)
    e = np.empty((r_max + 1, xs.size), dtype=complex)
    e[0] = np.nan
    e[1:, ~far] = up[1:]
    if np.any(far):
        e[1:, far] = _expint_cf(np.arange(1.0, r_max + 1)[:, None], z[far])
    out = B ** (1.0 - np.arange(r_max + 1))[:, None] * e
    return np.where(xs > 0.0, out, np.conj(out))


def _fourier_algebraic_tail(xs: np.ndarray, A: complex, alpha: float,
                            n: int, B: float) -> tuple[np.ndarray, float]:
    """Tail ``int_B^inf Re[e^{-i x b} E_alpha(A b^n)] db`` for the unit
    ``A = k_n (-i)^n`` from the negative-power expansion of the
    Mittag-Leffler function, plus an error bound covering the omitted
    terms."""
    terms = _FOURIER_TAIL_TERMS
    C = _tail_inverse_power_transforms(xs, B, n * terms)
    out = np.zeros(xs.size)
    for m in range(1, terms + 1):
        coef = -A ** (-m) * float(rgamma(1.0 - alpha * m))
        out += (coef * C[n * m]).real
    mm = terms + 1
    rem = (abs(float(rgamma(1.0 - alpha * mm)))
           * B ** (1 - n * mm) / (n * mm - 1))
    if n % 2 and 0.5 < alpha < 1.0:
        # exponential component of the expansion, kept below e^-21 by the
        # cutoff choice; bound its tail integral by its value at B over
        # the local decay rate
        rem += math.exp(-21.0) / alpha * B / (21.0 * n / alpha)
    return out, 4.0 * rem


def _fourier_head(xs: np.ndarray, A: complex, alpha: float, n: int,
                  B: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Head ``int_0^B Re[e^{-i x b} E_alpha(A b^n)] db`` for the unit
    ``A = k_n (-i)^n`` on composite Gauss-Legendre panels whose edges
    equidistribute the integrand's accumulated phase, with the error taken
    from a half-resolution comparison.  Returns the values, those errors
    and the largest Mittag-Leffler error estimate over the nodes.

    A fixed node set (rather than adaptive bisection) keeps the number of
    Mittag-Leffler evaluations predictable, and hands all of them to one
    vectorised call: every node's argument lies on the ray of ``A``.  The
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
        b_osc = min((21.0 / cosfac) ** (alpha / n), B)
        capped = np.minimum(betas, b_osc)
        phase = phase + sinfac * capped ** (n / alpha)
    # tiny ramp keeps the phase strictly increasing for the inversion
    phase = phase + (1e-9 / B) * betas
    npanels = math.ceil(phase[-1] / math.pi) + 8
    if npanels > _HEAD_MAX_PANELS:
        raise ConvergenceError(
            f"Fourier head needs {npanels} panels for |x| up to {xmax:.4g}, "
            f"more than the cap of {_HEAD_MAX_PANELS}")
    npanels += npanels % 2  # even, so every other edge is a valid coarsening
    edges = np.interp(np.linspace(0.0, phase[-1], npanels + 1), phase, betas)
    edges[0], edges[-1] = 0.0, B

    def transform(es: np.ndarray) -> tuple[np.ndarray, float]:
        half, ref = _GL16
        mid = 0.5 * (es[1:] + es[:-1])
        rad = 0.5 * (es[1:] - es[:-1])
        bs = (mid[:, None] + rad[:, None] * half[None, :]).ravel()
        ws = (rad[:, None] * ref[None, :]).ravel()
        z = A * bs.astype(complex) ** n
        vals, errs = mittag_leffler_grid(z, MLParams(alpha=alpha))
        weighted, minus_ib = ws * vals, -1j * bs
        out = np.empty(xs.size)
        cols = max(1, _HEAD_CHUNK // bs.size)
        for i in range(0, xs.size, cols):
            phases = np.outer(minus_ib, xs[i:i + cols])
            np.exp(phases, out=phases)
            out[i:i + cols] = (weighted @ phases).real
        return out, float(np.max(errs))

    v_fine, ml_fine = transform(edges)
    v_coarse, ml_coarse = transform(edges[::2])
    return v_fine, np.abs(v_fine - v_coarse), max(ml_fine, ml_coarse)


def _fourier_invert(spec: EquationSpec, alpha: float, ys: np.ndarray,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Solution at ``t = 1`` by inverting the characteristic function:
    ``U(y) = (1/pi) int_0^inf Re[e^{-i y b} E_alpha(k_n (-i b)^n)] db``.

    The integral is split at a cutoff beyond which the Mittag-Leffler
    factor is replaced by its negative-power expansion, integrated in
    closed form against the oscillation.  Returns the values and their
    errors.
    """
    n = spec.n
    A = complex(spec.k) * (-1j) ** n
    B = _fourier_cutoff(alpha, n)
    head_vals, head_errs, ml_err = _fourier_head(ys, A, alpha, n, B)
    tail_vals, tail_err = _fourier_algebraic_tail(ys, A, alpha, n, B)
    values = (head_vals + tail_vals) / math.pi
    errors = (head_errs + tail_err + ml_err * B) / math.pi + 0.1 * tol
    return values, errors


def solve(request: SolutionRequest, *, tol: float = 1e-8) -> SolutionField:
    """Solution values and error estimates on the request grid.

    ``request.route`` picks the representation; ``"auto"`` sends even
    orders to Fourier inversion and odd orders to subordination.  The
    random time at ``t`` has the law of ``t^alpha`` times the one at
    ``t = 1``, so ``u(x, t) = s U(x s)`` with ``s = t^(-alpha/n)`` and
    ``U = u(., 1)``: the chosen route runs once at ``t = 1`` on the
    mapped grid, with every absolute tolerance divided by ``s``.  At
    ``alpha = 1`` the time law is a point mass, and for odd ``n`` the
    characteristic function a pure phase, so there the solution is the
    kernel itself.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    spec, alpha, n = request.spec, request.alpha, request.spec.n
    route = request.route
    if route == "auto":
        route = "fourier_ml" if n % 2 == 0 else "subordination"
    s = request.t ** (-alpha / n)
    ys = s * np.asarray(request.x_grid, dtype=float)
    if alpha == 1.0 and (route == "subordination" or n % 2):
        values, kerr, _ = kernel_density_grid(spec, ys, 1.0,
                                              min(tol, 1e-10) / s)
        errors = np.full(ys.size, float(kerr))
    elif route == "fourier_ml":
        values, errors = _fourier_invert(spec, alpha, ys, tol / s)
    else:
        values, errors = _subordinate(spec, alpha, ys, tol / s)
    values, errors = s * values, s * errors
    if n == 2:
        # same clamp policy as the kernel: for n = 2 the solution is a true
        # density, so noise-level negatives are set to zero
        values[(values < 0.0) & (-values <= 10.0 * errors + 1e-300)] = 0.0
    values.flags.writeable = errors.flags.writeable = False
    return SolutionField(request=request, values=values, errors=errors,
                         route_used=route)


# ---------------------------------------------------------------------------
# Analytic side data
# ---------------------------------------------------------------------------

def solution_char_fn(spec: EquationSpec, alpha: float, beta: float,
                     t: float) -> complex:
    """Characteristic function ``E_alpha(k_n (-i beta)^n t^alpha)`` of the
    solution in the space variable."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    z = complex(spec.k) * (-1j * beta) ** spec.n * t ** alpha
    values, _ = mittag_leffler_grid(np.array([z]), MLParams(alpha=alpha))
    return complex(values[0])


def solution_moment(spec: EquationSpec, alpha: float, r: int,
                    t: float) -> float:
    """Integer space moment of the solution at time t.

    Nonzero only at multiples of ``n``:
    ``mu_{nj} = (-1)^{nj} k_n^j (nj)! t^{alpha j} / Gamma(alpha j + 1)``.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be an integer >= 0, got {r}")
    if r % spec.n:
        return 0.0
    j = r // spec.n
    return closed_form(
        (-1.0) ** r * float(spec.k) ** j,
        float(gammaln(r + 1.0) - gammaln(alpha * j + 1.0))
        + alpha * j * math.log(t),
        lambda: ((-1.0) ** r * float(spec.k) ** j * t ** (alpha * j)
                 * math.factorial(r) / float(gamma_fn(alpha * j + 1.0))),
        f"moment {r} of the solution")


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
    if not 0.0 < s < math.inf:
        raise DomainError(
            f"Laplace parameter must be positive and finite, got {s}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    closed = s ** (alpha - 1.0) * kernel_laplace(spec, x, s ** alpha)
    t_cut, u_hi = 45.0 / s, 35.0 / s ** alpha
    kernel = _kernel_profile(spec.n, spec.k)
    if alpha == 1.0:
        # the random time is t itself, so the weight is e^{-st}
        weight, u_hi = (lambda ts: np.exp(-s * ts)), t_cut
    else:
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

    value, _ = _integrate_against_kernel(kernel, np.array([x]), weight, u_hi,
                                         0.2 * tol)
    return abs(float(value[0]) - closed)


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


def caputo_residual(spec: EquationSpec, alpha: float, x: float,
                    t_grid, h_x: float, field=None) -> float:
    """Max interior defect of the discretized equation along ``t_grid``.

    The fractional time derivative is the classical one-sided product
    scheme on a uniform grid from 0 (backward differences weighted by
    ``(k+1)^{1-alpha} - k^{1-alpha}``, which at ``alpha = 1`` degenerates
    to backward Euler); the space derivative is an (n+2)-point centered
    stencil of spacing ``h_x``.  ``field(x_nodes, t) -> values`` defaults
    to the subordination solution: by self-similarity one :func:`solve` at
    ``t = 1`` on every mapped point ``x t^(-alpha/n)`` serves the whole
    grid.  Pass an explicit callable to test a closed form instead.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 64:
        raise DomainError("t_grid must be a 1-d grid with at least 64 nodes")
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("t_grid must be finite")
    if t_grid[0] != 0.0:
        raise DomainError("t_grid must start at 0, where the field vanishes "
                          "away from the origin")
    dt = t_grid[1] - t_grid[0]
    if dt <= 0.0 or np.max(np.abs(np.diff(t_grid) - dt)) > 1e-10 * dt:
        raise DomainError("t_grid must be uniform and increasing")
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < h_x < math.inf:
        raise DomainError(
            f"stencil spacing must be positive and finite, got {h_x}")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    n = spec.n
    offsets = np.arange(n + 2) - 0.5 * (n + 1)
    x_nodes = x + offsets * h_x
    if np.min(np.abs(x_nodes)) < 1e-9:
        raise DomainError("stencil touches the origin, where the initial "
                          "point mass lives; move x or shrink h_x")
    w = _derivative_weights(offsets, n) / h_x ** n
    x_all = np.append(x_nodes, x)
    if field is None:
        scale = t_grid[1:, None] ** (-alpha / n)
        ys, where = np.unique(scale * x_all, return_inverse=True)
        one = solve(SolutionRequest(spec, alpha, 1.0, tuple(ys),
                                    route="subordination"))
        rows = scale * one.values[where.reshape(scale.size, x_all.size)]
    else:
        rows = [np.asarray(field(x_all, float(tv)), dtype=float)
                for tv in t_grid[1:]]
    u_mat = np.vstack((np.zeros(x_all.size), rows))
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
