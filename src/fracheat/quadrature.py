"""Quadrature engines and the numerics every vectorised evaluator shares.

* :func:`gauss_legendre` (and :func:`_gl_panels`) and :func:`_chunks` --
  the one source of Gauss-Legendre rules and the one block rule.
* :func:`_integrate_points` -- the one adaptive engine: composite
  Gauss-Legendre panels for many integrals at once, each a "point" with
  its own panels and error budget, refined by panel halving in one array.
* :func:`integrate_adaptive` -- one real integrand on a finite interval,
  a one-point call of that engine.
* :func:`integrate_jacobi_singular` -- Gauss-Jacobi rules for integrands with
  an algebraic endpoint singularity, with node doubling and, where that
  stalls, one two-point call of the engine.
* :func:`euler_tail_sum` -- an iterated-averaging summer for the slowly
  decaying (or polynomially growing) alternating block sums that
  oscillatory tails produce.

The two public integrators report a :class:`QuadResult` carrying the value,
an error estimate, and the number of integrand evaluations spent.  The
engine's cap of ``_MAX_PANELS`` panels per point is the only rule by which
they refuse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from ._errors import ConvergenceError, DomainError

DEFAULT_TOL = 1e-9

#: elements of one block of a (rows x width) work array (128 kB of float64)
_CHUNK = 1 << 14

#: adaptive engine: nodes per half panel, and panel cap per point
_NODES = 8
_MAX_PANELS = 2048


@lru_cache(maxsize=64)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m``-node Gauss-Legendre rule on ``[-1, 1]`` (ascending nodes,
    weights; read-only).  Tricomi's asymptotic nodes seed Newton steps on
    the three-term recurrence, in O(m) memory, until a step is below
    1e-15; the weights come from ``P_m'``, moved to the root by the last
    step (``d log w / dx = -2x / (1 - x^2)`` there, so the rounding of an
    end node would cost 1e-11 of its weight at ``m = 960``).  The end
    weights are within 1e-12 relative of exact up to ``m = 1920``."""
    k = np.arange(m, 0, -1)
    x = (1.0 - (1.0 - 1.0 / m) / (8.0 * m * m)) * np.cos(
        np.pi * (4 * k - 1) / (4 * m + 2))
    for _ in range(8):
        p0, p1 = np.ones(m), x
        for j in range(2, m + 1):
            t = x * p1
            p0, p1 = p1, t + (j - 1.0) / j * (t - p0)
        s = (1.0 - x) * (1.0 + x)
        dp = m * (p0 - x * p1) / s
        step = p1 / dp
        if np.max(np.abs(step)) < 1e-15:
            break
        x = x - step
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * step / s)
    x = x - step
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_panels(edges: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``m``-node Gauss-Legendre rule on every
    panel between consecutive ``edges``, panel by panel."""
    half, ref = gauss_legendre(m)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + rad[:, None] * half).ravel(),
            (rad[:, None] * ref).ravel())


def _chunks(count: int, width):
    """Blocks over the ``count`` rows of a (rows x width) work array, each
    of at most ``_CHUNK`` elements or of one row.  For one ``width`` the
    blocks are slices in order; for one width per row they are index
    arrays, widest row first, each block as wide as its first row."""
    if np.ndim(width) == 0:
        rows = max(1, _CHUNK // int(width))
        yield from (slice(c, c + rows) for c in range(0, count, rows))
        return
    order = np.argsort(-width)
    start = 0
    while start < count:
        rows = max(1, _CHUNK // int(width[order[start]]))
        yield order[start:start + rows]
        start += rows


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one quadrature call on a real integrand.

    ``value`` is a float; ``error_estimate`` is an absolute estimate that
    includes the rounding floor of the summed rules.
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


def _integrate_points(f, a: np.ndarray, b: np.ndarray, pt: np.ndarray,
                      budget: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """``int f`` over the starting panels ``[a, b]`` of every point, summed
    per point ``pt`` (an index into ``budget``), each within its budget.

    ``f(x, p)`` takes flat nodes ``x`` and the point ``p`` of each and
    returns one real value per node.  A panel's error is the
    ``_NODES``-node Gauss-Legendre rule on its two halves against the rule
    on the whole.  At every point over ``max(budget, floor)``, where the
    rounding floor is ``64 eps`` times the summed magnitudes of its
    half-panel rules, the panels above their mean share of the budget are
    halved, all points in one array, until each point stops or refuses at
    ``_MAX_PANELS`` panels.  A non-finite integrand refuses too.  A
    point's value and bar do not depend on the other points.  Returns the
    half-panel sums, the summed differences plus the floor, and the
    number of evaluations.
    """
    node, ref = gauss_legendre(_NODES)
    evals = 0

    def rule(a, b, pt):
        nonlocal evals
        out = np.empty(a.size)
        for idx in _chunks(a.size, _NODES):
            rad = 0.5 * (b[idx] - a[idx])
            x = ((a[idx] + rad)[:, None] + rad[:, None] * node).ravel()
            y = np.asarray(f(x, np.repeat(pt[idx], _NODES)))
            if y.shape != x.shape:
                raise DomainError(
                    "integrand must return one real value per node; "
                    f"got shape {y.shape} for {x.size} nodes")
            # not a BLAS product, which rounds a row by where it sits
            out[idx] = rad * (y.reshape(-1, _NODES) * ref).sum(axis=1)
        evals += a.size * _NODES
        return out

    def halves(a, b, pt):
        mid = 0.5 * (a + b)
        return rule(np.append(a, mid), np.append(mid, b),
                    np.append(pt, pt)).reshape(2, -1).T

    mid = 0.5 * (a + b)  # one call takes the first pass's whole and halves
    first = rule(np.concatenate((a, a, mid)), np.concatenate((b, mid, b)),
                 np.tile(pt, 3)).reshape(3, -1)
    whole, half = first[0], first[1:].T
    while True:
        est = np.abs(half.sum(axis=1) - whole)
        err = np.bincount(pt, est, budget.size)
        floor = 64.0 * np.finfo(float).eps * np.bincount(
            pt, np.abs(half).sum(axis=1), budget.size)
        if not np.all(np.isfinite(err)):
            i = int(np.argmin(np.isfinite(err)))
            raise ConvergenceError(
                f"adaptive quadrature of point {i} met a non-finite "
                "integrand")
        over = err > np.maximum(budget, floor)
        if not np.any(over):
            break
        count = np.bincount(pt, minlength=budget.size)
        if np.max(count[over]) >= _MAX_PANELS:
            i = int(np.argmax(np.where(over, count, -1)))
            raise ConvergenceError(
                f"adaptive quadrature of point {i} misses its budget "
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
    return np.bincount(pt, half.sum(axis=1), budget.size), err + floor, evals


def integrate_adaptive(f, a: float, b: float, tol: float = DEFAULT_TOL, *,
                       initial_intervals: int = 1) -> QuadResult:
    """Integrate the real integrand ``f`` over the finite interval
    ``[a, b]`` within the absolute tolerance ``tol``.

    ``f`` takes an ndarray of abscissae and returns one value per
    abscissa.  This is one point of :func:`_integrate_points`, starting
    from ``initial_intervals`` equal panels.  Raises
    :class:`ConvergenceError` when it still misses ``tol`` at the
    engine's panel cap or the integrand is not finite.
    """
    if not (b > a):
        if b == a:
            return QuadResult(value=0.0, error_estimate=0.0, evaluations=0)
        raise DomainError(f"empty integration interval [{a}, {b}]")
    if initial_intervals < 1:
        raise DomainError("initial_intervals must be >= 1")
    edges = np.linspace(a, b, initial_intervals + 1)
    value, err, evals = _integrate_points(
        lambda x, _: f(x), edges[:-1], edges[1:],
        np.zeros(initial_intervals, int), np.array([float(tol)]))
    return QuadResult(value=float(value[0]), error_estimate=float(err[0]),
                      evaluations=evals)


@lru_cache(maxsize=128)
def _euler_weights(m: int) -> np.ndarray:
    """Weights on the ``m`` partial sums of the last entries of the last
    four averaging levels: after ``j`` averagings the last entry is
    ``sum_i C(j, i) S[m-1-j+i] / 2^j``.  One row per level, ``(4, m)``."""
    rows = [np.ones(1)]
    while len(rows) < m:
        row = rows[-1]
        rows.append(0.5 * (np.append(row, 0.0) + np.append(0.0, row)))
    return np.stack([np.pad(row, (m - row.size, 0)) for row in rows[-4:]])


def euler_tail_sum(blocks):
    """Sum sequences of signed block integrals (along the last axis) whose
    signs eventually alternate, by iterated averaging of the partial sums.

    This converges for oscillatory tails whose lobes decay slowly or even
    grow polynomially (the averaging triangle annihilates polynomial
    growth order by order, then contracts geometrically on the smooth
    remainder).  The averaging is linear in the partial sums, so the last
    entries of its last four levels are one weighted sum each
    (:func:`_euler_weights`), taken elementwise so that every row of a
    2-D call sums as it would alone.  Returns ``(sum, error_estimate)``,
    each shaped like ``blocks`` without its last axis.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim == 0 or blocks.shape[-1] < 4:
        raise DomainError("tail summation needs at least 4 blocks")
    tail = (np.cumsum(blocks, axis=-1)[..., None, :]
            * _euler_weights(blocks.shape[-1])).sum(axis=-1)
    return tail[..., -1], np.max(np.abs(np.diff(tail, axis=-1)), axis=-1)


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
                              tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate ``f(x) * (x-a)**e`` (or ``(b-x)**e``) over ``[a, b]``.

    The singular endpoint factor is carried by the Gauss-Jacobi weight.
    The rule size doubles from 8 to 1024 nodes until two successive sizes
    agree within ``tol``.  If doubling stalls (the smooth factor varies on
    a scale the global rule cannot resolve), the halves of ``[a, b]``
    become the two points of one :func:`_integrate_points` call, each
    within ``tol / 2``: the half away from the singular endpoint with the
    weight folded into the integrand, the singular half under
    ``x - end = +-h w**p``, ``p = 1 / (1 + e)``, ``w`` in ``[0, 1]``,
    where the weight times the Jacobian is the constant ``p h**(1 + e)``.
    That fallback's error estimate is the engine's, which assumes a smooth
    integrand on each panel.
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

    e, h, mid = weight.exponent, 0.5 * (b - a), 0.5 * (a + b)
    p = 1.0 / (1.0 + e)
    left = weight.endpoint == "left"
    end, toward = (a, 1.0) if left else (b, -1.0)

    def halves(x, pt):
        # point 0 is the half away from the singular end, in x; point 1
        # the singular half, in w
        sing = pt == 1
        x = x.copy()
        x[sing] = end + toward * h * x[sing] ** p
        factor = np.abs(x - end) ** e
        factor[sing] = p * h ** (1.0 + e)
        return np.asarray(f(x)) * factor

    value, err, more = _integrate_points(
        halves, np.array([mid if left else a, 0.0]),
        np.array([b if left else mid, 1.0]), np.arange(2),
        np.full(2, 0.5 * tol))
    return QuadResult(value=float(value.sum()),
                      error_estimate=float(err.sum()),
                      evaluations=evals + more)
