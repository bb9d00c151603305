"""Adaptive quadrature engines used by the analytic routes.

* :func:`integrate_adaptive` -- globally adaptive Gauss pair on a finite
  interval, for scalar, complex, or vector-valued integrands.
* :func:`integrate_jacobi_singular` -- Gauss-Jacobi rules for integrands with
  an algebraic endpoint singularity, with node doubling and a hybrid split
  fallback.
* :func:`euler_tail_sum` -- an iterated-averaging summer for the slowly
  decaying (or polynomially growing) alternating block sums that
  oscillatory tails produce.

The two integrators report a :class:`QuadResult` carrying the value, an
error estimate, and the number of integrand evaluations spent.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from ._errors import ConvergenceError, DomainError

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
