"""Adaptive quadrature engines used by the analytic routes.

Three entry points:

* :func:`integrate_adaptive` -- globally adaptive Gauss pair on a finite
  interval, for scalar, complex, or vector-valued integrands.
* :func:`integrate_jacobi_singular` -- Gauss-Jacobi rules for integrands with
  an algebraic endpoint singularity, with node doubling and a hybrid split
  fallback.
* :func:`kernel_contour_values` -- the signed heat-kernel integral
  ``(1/pi) Re int_0^inf exp(i x z + k t (i z)^n) dz`` on an array of ``x``,
  by cosine reduction for even ``n`` and by rotating the tail onto a
  decaying ray for odd ``n``.

plus :func:`euler_tail_sum`, an iterated-averaging summer for the slowly
decaying (or polynomially growing) alternating block sums that oscillatory
tails produce.

The two integrators report a :class:`QuadResult` carrying the value, an
error estimate, and the number of integrand evaluations spent;
:func:`kernel_contour_values` returns the same three as a tuple.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from ._errors import (
    ContourError,
    ConvergenceError,
    DomainError,
    require_positive,
)

DEFAULT_TOL = 1e-9

#: Hard cap on integrand evaluations for one adaptive call.
EVAL_BUDGET = 1 << 20

# Nested Gauss-Legendre pair: the low rule gives the error estimate, the
# high rule gives the value.  Both sets of nodes are evaluated in a single
# vectorized call per panel.
_N_LO, _N_HI = 10, 21
_NODES_LO, _WEIGHTS_LO = leggauss(_N_LO)
_NODES_HI, _WEIGHTS_HI = leggauss(_N_HI)
_PANEL_EVALS = _N_LO + _N_HI


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one quadrature call.

    ``value`` is a float for the public scalar entry points; internal callers
    may receive a complex number or an ndarray when the integrand is
    vector-valued.  ``error_estimate`` is an absolute estimate (max-norm for
    vector integrands).
    """

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class JacobiWeight:
    """Endpoint weight ``(x - a)**exponent`` or ``(b - x)**exponent``.

    ``endpoint`` is ``"left"`` for a singularity at the lower interval end
    and ``"right"`` for the upper one.  The exponent must be > -1 for the
    integral to exist.
    """

    exponent: float
    endpoint: str = "right"

    def __post_init__(self) -> None:
        if self.exponent <= -1.0:
            raise DomainError(f"endpoint exponent {self.exponent} must be > -1")
        if self.endpoint not in ("left", "right"):
            raise DomainError(
                f"endpoint must be 'left' or 'right', got {self.endpoint!r}")


def _panel(f, a: float, b: float):
    """Evaluate the Gauss pair on ``[a, b]``.

    Returns ``(value_hi, error, evals)`` where ``value_hi`` may be scalar,
    complex, or an array matching the integrand's output shape.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = np.concatenate((mid + half * _NODES_LO, mid + half * _NODES_HI))
    ys = np.asarray(f(xs))
    if ys.shape[0] != _PANEL_EVALS:
        raise DomainError(
            "integrand must return one value per node along axis 0; "
            f"got shape {ys.shape} for {_PANEL_EVALS} nodes"
        )
    lo = half * np.tensordot(_WEIGHTS_LO, ys[:_N_LO], axes=(0, 0))
    hi = half * np.tensordot(_WEIGHTS_HI, ys[_N_LO:], axes=(0, 0))
    err = float(np.max(np.abs(hi - lo)))
    return hi, err, _PANEL_EVALS


def _adaptive(f, a: float, b: float, tol: float, budget: int,
              initial_intervals: int = 1):
    """Globally adaptive bisection on ``[a, b]``.

    Keeps a worst-first heap of panels and refines until the summed panel
    errors meet ``tol`` or the evaluation budget runs out.  Returns
    ``(value, error, evaluations)`` with ``value`` in whatever shape the
    integrand produces.
    """
    if not (b > a):
        if b == a:
            return 0.0, 0.0, 0
        raise DomainError(f"empty integration interval [{a}, {b}]")
    if initial_intervals < 1:
        raise DomainError("initial_intervals must be >= 1")

    edges = np.linspace(a, b, initial_intervals + 1)
    heap = []
    total = None
    total_err = 0.0
    evals = 0
    serial = 0
    for lo_edge, hi_edge in zip(edges[:-1], edges[1:]):
        val, err, used = _panel(f, lo_edge, hi_edge)
        evals += used
        total = val if total is None else total + val
        total_err += err
        heapq.heappush(heap, (-err, serial, lo_edge, hi_edge, val, err))
        serial += 1

    while total_err > tol and heap:
        if evals + 2 * _PANEL_EVALS > budget:
            raise ConvergenceError(
                f"adaptive quadrature on [{a}, {b}] used {evals} evaluations "
                f"without reaching tol={tol:g} (error ~ {total_err:.3g})"
            )
        _, _, lo_edge, hi_edge, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo_edge + hi_edge)
        if mid <= lo_edge or mid >= hi_edge:
            # Panel has collapsed to machine resolution; accept its estimate.
            heapq.heappush(heap, (0.0, serial, lo_edge, hi_edge, val, err))
            serial += 1
            break
        left_val, left_err, used_l = _panel(f, lo_edge, mid)
        right_val, right_err, used_r = _panel(f, mid, hi_edge)
        if not math.isfinite(left_err):
            left_err = math.inf
        if not math.isfinite(right_err):
            right_err = math.inf
        evals += used_l + used_r
        total = total - val + left_val + right_val
        total_err = total_err - err + left_err + right_err
        heapq.heappush(heap, (-left_err, serial, lo_edge, mid, left_val, left_err))
        heapq.heappush(heap, (-right_err, serial + 1, mid, hi_edge, right_val, right_err))
        serial += 2

    if not np.all(np.isfinite(np.asarray(total))):
        raise ConvergenceError(
            f"integrand produced non-finite values on [{a}, {b}]; "
            "the singularity is not integrable by panel refinement"
        )
    return total, total_err, evals


def integrate_adaptive(f, a: float, b: float, tol: float = DEFAULT_TOL, *,
                       budget: int = EVAL_BUDGET,
                       initial_intervals: int = 1) -> QuadResult:
    """Integrate ``f`` over the finite interval ``[a, b]``.

    ``f`` must accept an ndarray of abscissae and return the integrand values
    along axis 0; scalar-real, complex, and vector-valued integrands are all
    accepted (vector errors are controlled in max-norm).  Raises
    :class:`ConvergenceError` when the evaluation budget is exhausted before
    the absolute tolerance is met.
    """
    value, err, evals = _adaptive(f, a, b, tol, budget,
                                  initial_intervals=initial_intervals)
    return QuadResult(value=value, error_estimate=err, evaluations=evals)


def euler_tail_sum(blocks):
    """Sum sequences of signed block integrals (along the last axis) whose
    signs eventually alternate, by iterated averaging of the partial sums.

    This converges for oscillatory tails whose lobes decay slowly or even
    grow polynomially (the averaging triangle annihilates polynomial
    growth order by order, then contracts geometrically on the smooth
    remainder).  Returns ``(sum, error_estimate)``, each shaped like
    ``blocks`` without its last axis.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim == 0 or blocks.shape[-1] < 4:
        raise DomainError("tail summation needs at least 4 blocks")
    row = np.cumsum(blocks, axis=-1)
    diagonal = [row[..., -1]]
    while row.shape[-1] > 1:
        row = 0.5 * (row[..., :-1] + row[..., 1:])
        diagonal.append(row[..., -1])
    tail = np.stack(diagonal[-4:], axis=-1)
    return diagonal[-1], np.max(np.abs(np.diff(tail, axis=-1)), axis=-1)


@lru_cache(maxsize=64)
def _jacobi_reference(n: int, exponent: float, endpoint: str):
    """Gauss-Jacobi nodes and weights on [-1, 1], built once per rule."""
    if endpoint == "right":
        return roots_jacobi(n, exponent, 0.0)
    return roots_jacobi(n, 0.0, exponent)


def _jacobi_rule(n: int, exponent: float, endpoint: str, a: float, b: float):
    """Nodes and weights integrating ``f(x) * weight(x)`` exactly for
    polynomial ``f`` up to degree ``2n - 1``, weight as in JacobiWeight."""
    nodes, weights = _jacobi_reference(n, exponent, endpoint)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    ws = weights * half ** (1.0 + exponent)
    return xs, ws


def integrate_jacobi_singular(f, a: float, b: float, weight: JacobiWeight,
                              tol: float = DEFAULT_TOL, *,
                              budget: int = EVAL_BUDGET,
                              _depth: int = 0) -> QuadResult:
    """Integrate ``f(x) * (x-a)**e`` (or ``(b-x)**e``) over ``[a, b]``.

    ``f`` itself must be smooth; the singular endpoint factor is carried by
    the Gauss-Jacobi weight.  The rule size doubles until two successive
    sizes agree within ``tol``.  If doubling stalls (the smooth factor varies
    on a scale the global rule cannot resolve), the interval is split: the
    half away from the singular endpoint is integrated adaptively with the
    weight folded into the integrand, and the singular half recurses.
    """
    if not b > a:
        raise DomainError(f"empty interval [{a}, {b}]")
    evals = 0
    prev = None
    n = 8
    while n <= 1024:
        xs, ws = _jacobi_rule(n, weight.exponent, weight.endpoint, a, b)
        vals = np.asarray(f(xs), dtype=float)
        evals += n
        cur = float(ws @ vals)
        if prev is not None:
            err = abs(cur - prev)
            if err <= tol:
                return QuadResult(value=cur, error_estimate=err, evaluations=evals)
        prev = cur
        n *= 2

    if _depth >= 48:
        raise ConvergenceError(
            f"Gauss-Jacobi rule failed to converge on [{a}, {b}] "
            f"after {_depth} splits"
        )

    mid = 0.5 * (a + b)
    left = weight.endpoint == "left"
    end = a if left else b
    smooth = (mid, b) if left else (a, mid)
    singular = (a, mid) if left else (mid, b)

    def plain(x):
        x = np.asarray(x)
        return np.asarray(f(x)) * np.abs(x - end) ** weight.exponent

    smooth_val, smooth_err, smooth_evals = _adaptive(
        plain, *smooth, 0.5 * tol, budget - evals)
    sing = integrate_jacobi_singular(
        f, *singular, weight,
        0.5 * tol, budget=budget - evals - smooth_evals, _depth=_depth + 1)
    # The recursive singular piece carries the weight relative to its own
    # endpoint, which coincides with the original singular endpoint, so the
    # weight factor is unchanged.
    return QuadResult(
        value=smooth_val + sing.value,
        error_estimate=smooth_err + sing.error_estimate,
        evaluations=evals + smooth_evals + sing.evaluations,
    )


# ---------------------------------------------------------------------------
# Signed heat-type kernel contour integral
# ---------------------------------------------------------------------------

def _even_kernel_values(n: int, x, t: float, tol: float):
    """Vectorized ``(1/pi) int_0^inf exp(-t z^n) cos(x z) dz`` for even n.

    For even ``n`` and the sign convention that makes the semigroup
    well-posed, ``k (i z)^n = -z^n`` on the real axis, so no contour work is
    needed.  ``x`` may be an array; one shared adaptive pass integrates all
    components at once.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z_cut = (45.0 / t) ** (1.0 / n)

    def f(z):
        return np.exp(-t * z[:, None] ** n) * np.cos(np.outer(z, x))

    value, err, evals = _adaptive(f, 0.0, z_cut, tol * math.pi, EVAL_BUDGET)
    return value / math.pi, err / math.pi, evals


def _odd_kernel_values(n: int, k: int, x, t: float, tol: float,
                       radius_scale: float = 1.0):
    """Vectorized signed kernel for odd n via tail rotation.

    Writes ``p = (1/pi) Re int_0^inf g(z) dz`` with
    ``g(z) = exp(i x z + k t (i z)^n)`` and splits at a radius R beyond any
    stationary point:  the head stays on the real axis, the tail is rotated
    onto the ray ``z = r exp(i phi)`` where the ``z^n`` term decays, and the
    connecting arc at radius R is kept (it is not negligible for moderate R).
    ``x`` may be an array sharing one contour; R is chosen for the worst
    component.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gamma = k * (-1.0) ** ((n - 1) // 2)  # exp(i gamma pi/2) = k * i^n
    phi = gamma * math.pi / (2.0 * n)
    # Check the ray really decays: Re[k (i z)^n] on the ray has the factor
    # cos(gamma pi/2 + n phi) = cos(gamma pi) = -1 for odd n.
    if math.cos(gamma * math.pi / 2.0 + n * phi) > -0.5:
        raise ContourError(f"tail rotation invalid for n={n}, sign={k}")

    xmax = float(np.max(np.abs(x)))
    z_star = (xmax / (n * t)) ** (1.0 / (n - 1.0)) if xmax > 0 else 0.0
    radius = max((1.0 / t) ** (1.0 / n), 1.25 * z_star, 1e-3) * radius_scale

    def g(z):
        # z: complex array of contour points; returns shape (len(z), len(x))
        zc = np.asarray(z, dtype=complex)
        return np.exp(1j * np.outer(zc, x) + k * t * (1j * zc[:, None]) ** n)

    part_tol = tol * math.pi / 3.0
    # Head: real axis from 0 to R; seed the panel heap with roughly one
    # panel per oscillation cycle so the first error estimate is honest.
    cycles = (xmax * radius + t * radius ** n) / (2.0 * math.pi)
    head_panels = min(512, max(4, int(cycles) + 1))
    head, head_err, head_evals = _adaptive(
        g, 0.0, radius, part_tol, EVAL_BUDGET, initial_intervals=head_panels)

    # Arc: z = R e^{i psi}, psi from 0 to phi; dz = i R e^{i psi} d psi.
    def arc_integrand(psi):
        zpts = radius * np.exp(1j * np.asarray(psi))
        return g(zpts) * (1j * zpts)[:, None]

    lo_psi, hi_psi = (0.0, phi) if phi > 0 else (phi, 0.0)
    arc, arc_err, arc_evals = _adaptive(
        arc_integrand, lo_psi, hi_psi, part_tol, EVAL_BUDGET - head_evals)
    if phi < 0:
        arc = -arc

    # Ray: z = r e^{i phi}, r from R outward.  On the ray
    # |g| = exp(-x r sin(phi) + t r^n cos(gamma pi/2 + n phi)) and the cosine
    # equals -1 by construction; find a cutoff where the exponent is below
    # -45 for the worst x.
    sin_abs_phi = abs(math.sin(phi))
    cos_decay = -math.cos(gamma * math.pi / 2.0 + n * phi)
    r_far = radius
    for _ in range(200):
        expo = xmax * r_far * sin_abs_phi - t * r_far ** n * cos_decay
        if expo < -45.0:
            break
        r_far *= 1.5

    eiphi = complex(math.cos(phi), math.sin(phi))

    def ray_integrand(r):
        zpts = np.asarray(r) * eiphi
        return g(zpts) * eiphi

    ray, ray_err, ray_evals = _adaptive(
        ray_integrand, radius, r_far, part_tol,
        EVAL_BUDGET - head_evals - arc_evals, initial_intervals=8)

    total = (head + arc + ray) / math.pi
    err = (head_err + arc_err + ray_err) / math.pi
    return np.real(total), err, head_evals + arc_evals + ray_evals


def kernel_contour_values(n: int, sign: int, x, t: float,
                          tol: float = DEFAULT_TOL, *,
                          radius_scale: float = 1.0):
    """Shared-contour kernel values for an array of space points.

    Returns ``(values, error_estimate, evaluations)`` with ``values`` shaped
    like ``x``; panel refinement is shared across the whole array, within
    a budget of ``EVAL_BUDGET`` evaluations.  For even ``n`` the integrand
    reduces to ``exp(-t z^n) cos(x z)`` on the real axis.  For odd ``n``
    the oscillatory tail is rotated onto the decaying ray at angle
    ``sign(gamma) * pi / (2 n)`` together with the finite connecting arc; :class:`ContourError` is raised if that ray
    does not decay.  ``radius_scale`` perturbs the head/ray split radius
    for odd ``n`` (the result must not depend on it; exposed so tests can
    verify that).
    """
    require_positive(t, "time")
    if n < 2:
        raise DomainError(f"spatial order {n} must be >= 2")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if n % 2 == 0:
        vals, err, evals = _even_kernel_values(n, x_arr, t, tol)
    else:
        if sign not in (-1, 1):
            raise DomainError(f"odd-order sign must be +-1, got {sign}")
        vals, err, evals = _odd_kernel_values(n, sign, x_arr, t, tol,
                                              radius_scale=radius_scale)
    return vals, err, evals

