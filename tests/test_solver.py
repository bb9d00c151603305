"""Cross-checks of the time-fractional solution field.

Two representations that share no code beyond elementary quadrature are
compared pointwise: subordination (spatial kernel integrated against the
random-time density) and Fourier inversion (characteristic function
through the Mittag-Leffler function).  For ``n = 2`` both are also pinned
to the closed Wright form ``u(x, t) = t^{-alpha/2} W(-|x| t^{-alpha/2}) / 2``
and, at ``alpha = 1``, to the Gaussian heat kernel.  Conservation laws
(mass, integer moments, characteristic values), the Laplace-transform
identity, and the discretized-equation residual close the loop from the
opposite direction: they test the field against the equation itself, not
against another evaluation of the same formulas.
"""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import simpson
from scipy.special import gamma as gamma_fn

from fracheat import (
    ConvergenceError,
    DomainError,
    EquationSpec,
    FracheatError,
    SolutionRequest,
    TimeChangeLaw,
    caputo_residual,
    kernel_density_grid,
    kernel_laplace,
    kernel_moment,
    laplace_relation_check,
    solution_char_fn,
    solution_moment,
    solve,
    time_density_grid,
    time_moment,
)
from fracheat import quadrature, solver, specfun
from fracheat._errors import StencilUnderflowError
from fracheat.kernel import kernel_moment_numeric
from fracheat.specfun import (
    MLParams,
    WrightParams,
    mittag_leffler_grid,
    wright_guard,
    wright_w_grid,
)
from oracles import timelaw

# value of the solution at the origin for n = 2, alpha = 1/2, t = 1:
# u(0, 1) = W(0) / 2 = 1 / (2 * Gamma(3/4))
HALF_ORIGIN = 0.4080244695491314
# classical heat kernel at the origin for t = 1: 1 / sqrt(4 pi)
HEAT_ORIGIN = 0.2820947917738781


def wright_closed_form(xs: np.ndarray, alpha: float, t: float) -> np.ndarray:
    """n = 2 solution through the Wright function, the closed benchmark."""
    wp = WrightParams(eta=-alpha / 2.0, beta=1.0 - alpha / 2.0)
    scale = t ** (-alpha / 2.0)
    return 0.5 * scale * wright_w_grid(-np.abs(xs) * scale, wp)


def gaussian(xs: np.ndarray, t: float) -> np.ndarray:
    return np.exp(-xs * xs / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def solve_by(route: str, req: SolutionRequest, **kwargs):
    return solve(replace(req, route=route), **kwargs)


ROUTES = ("subordination", "fourier_ml")


# ---------------------------------------------------------------------------
# degenerate order: alpha = 1 must reproduce the plain kernel
# ---------------------------------------------------------------------------

def test_degenerate_order_heat_kernel():
    xs = np.linspace(-5.0, 5.0, 21)
    req = SolutionRequest(EquationSpec(2), 1.0, 1.4, tuple(xs))
    assert_allclose(solve(req).grid_values(), gaussian(xs, 1.4),
                    rtol=0.0, atol=1e-12)


def test_degenerate_order_signed_kernel():
    xs = np.linspace(-4.0, 4.0, 9)
    req = SolutionRequest(EquationSpec(3), 1.0, 0.8, tuple(xs))
    field = solve_by("subordination", req)
    kern, _, _ = kernel_density_grid(EquationSpec(3), xs, 0.8, 1e-10)
    assert_allclose(field.grid_values(), kern, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# pinned origin values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", ROUTES)
def test_origin_value_half_order(route):
    req = SolutionRequest(EquationSpec(2), 0.5, 1.0, (0.0,), route=route)
    field = solve(req)
    assert_allclose(field.values[0], HALF_ORIGIN, rtol=0.0, atol=1e-9)


def test_origin_value_classical_order():
    req = SolutionRequest(EquationSpec(2), 1.0, 1.0, (0.0,), route="fourier_ml")
    field = solve(req)
    assert_allclose(field.values[0], HEAT_ORIGIN, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# n = 2: both routes against the closed Wright form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.4, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.05, 0.7, 1.3, 20.0])
def test_wright_closed_form_both_routes(alpha, t):
    xs = np.linspace(-3.0, 3.0, 13)
    closed = wright_closed_form(xs, alpha, t)
    req = SolutionRequest(EquationSpec(2), alpha, t, tuple(xs))
    for route in ROUTES:
        assert_allclose(solve_by(route, req).grid_values(), closed,
                        rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("n, alpha", [(3, 0.7), (4, 0.8), (3, 0.8),
                                      (3, 0.9), (5, 0.8), (5, 0.9)])
def test_routes_cross_validate(n, alpha):
    """Odd n at alpha >= 0.7, with both signs, puts the Mittag-Leffler
    pole at angle pi / (2 alpha) near the Fourier head's contours."""
    xs = np.linspace(-4.0, 4.0, 9)
    for sign in (1, -1) if n % 2 else (1,):
        req = SolutionRequest(EquationSpec(n, sign), alpha, 1.0, tuple(xs))
        sub = solve_by("subordination", req).grid_values()
        fou = solve_by("fourier_ml", req).grid_values()
        assert_allclose(sub, fou, rtol=0.0, atol=1e-7)


def test_error_estimates_dominate_truth():
    """Reported per-point estimates must bound the actual error."""
    xs = np.linspace(-4.0, 4.0, 9)
    closed = wright_closed_form(xs, 0.5, 1.0)
    req = SolutionRequest(EquationSpec(2), 0.5, 1.0, tuple(xs))
    for route in ROUTES:
        field = solve_by(route, req)
        diff = np.abs(field.grid_values() - closed)
        assert np.all(diff <= field.grid_errors() + 1e-12)


@pytest.mark.parametrize("alpha, t, x", [(0.4, 1.3, 1.0), (0.5, 20.0, 2.5)])
def test_subordination_bars_hold_at_order_two(alpha, t, x):
    """Points where the u-variable quadrature once misjudged the
    ``u^(-1/n)`` endpoint and reported bars below its error."""
    xs = np.array([-x, x])
    req = SolutionRequest(EquationSpec(2), alpha, t, tuple(xs),
                          route="subordination")
    field = solve(req)
    diff = np.abs(field.values - wright_closed_form(xs, alpha, t))
    assert np.all(diff <= field.errors + 1e-12)


@pytest.mark.parametrize("n, sign", [(n, s) for n in range(3, 8)
                                     for s in ((1, -1) if n % 2 else (1,))])
def test_route_bars_cover_their_difference(n, sign):
    """Both routes' bars together bound the difference of their values on
    the decaying side, the origin and the oscillatory side, out to where
    the oscillatory side's phase blocks meet the peak of the time law
    near alpha = 1."""
    xs = (-30.0, -20.0, -3.0, -1.0, -0.2, 0.0, 0.7, 1.9, 3.5, 20.0, 30.0)
    for alpha in (0.25, 0.45, 0.62, 0.85, 0.95, 0.99):
        req = SolutionRequest(EquationSpec(n, sign), alpha, 1.0, xs)
        sub = solve_by("subordination", req)
        fou = solve_by("fourier_ml", req)
        diff = np.abs(sub.values - fou.values)
        assert np.all(diff <= sub.errors + fou.errors + 1e-12), alpha


def test_oscillatory_side_within_fourier_bars():
    """On the oscillatory side of odd n, out to |x| = 40 and up to
    alpha = 0.998, subordination at tol 1e-8 and 1e-12 answers within the
    summed bars of the Fourier route at 1e-12, or refuses.  Each phase
    block under the time law's peak is an adaptive integral with its own
    bar; a fixed rule per block once missed by up to 5e7 bars here."""
    ax = np.array([0.5, 2.5, 6.0, 10.0, 13.5, 16.0, 18.0, 20.0, 23.085,
                   27.0, 33.0, 40.0])
    for n, sign in itertools.product((3, 5, 7), (1, -1)):
        spec = EquationSpec(n, sign)
        xs = tuple(np.sort(spec.osc_dir * ax))
        for alpha in (0.7, 0.85, 0.95, 0.99, 0.998):
            req = SolutionRequest(spec, alpha, 1.0, xs)
            fou = solve_by("fourier_ml", req, tol=1e-12)
            for tol in (1e-8, 1e-12):
                try:
                    sub = solve_by("subordination", req, tol=tol)
                except FracheatError:
                    continue
                diff = np.abs(sub.values - fou.values)
                assert np.all(diff <= sub.errors + fou.errors), (
                    n, sign, alpha, tol)


def test_oscillatory_point_near_alpha_one_within_its_bar():
    """n = 3, alpha = 0.97, x = 23.085 at tol 1e-12: a fixed 10-node rule
    per phase block was off by 2.2e-6 here under a bar of 8.4e-13."""
    req = SolutionRequest(EquationSpec(3), 0.97, 1.0, (23.085,))
    sub = solve_by("subordination", req, tol=1e-12)
    fou = solve_by("fourier_ml", req, tol=1e-12)
    assert abs(sub.values[0] - fou.values[0]) <= sub.errors[0] + fou.errors[0]
    assert sub.errors[0] < 1e-11


@pytest.mark.parametrize("n", [2, 3])
def test_subordination_next_to_the_origin(n):
    """Points within a subnormal of 0 take the origin's value, within
    their bars, on both sides."""
    req = SolutionRequest(EquationSpec(n), 0.5, 1.0, (-1e-310, 0.0, 5e-324),
                          route="subordination")
    field = solve(req)
    diff = np.abs(field.values - field.values[1])
    assert np.all(diff <= field.errors + field.errors[1])


def test_warm_subordination_memory_stays_small():
    """The vectorised quadrature evaluates its nodes in bounded chunks."""
    req = SolutionRequest(EquationSpec(3), 0.989, 1.0,
                          tuple(np.linspace(-4.6, 4.4, 7)),
                          route="subordination")
    solve(req)
    tracemalloc.start()
    try:
        solve(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# the random-time law inside subordination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.001, 0.003, 0.01, 0.1, 0.3, 0.5, 0.6,
                                   0.9, 0.95, 0.97, 0.99, 0.995, 0.998])
def test_time_profile_matches_series_routes(alpha):
    """The stable-duality profile against the series routes inside their
    guards: spectrally negative for 1/2 <= alpha <= 0.9, Wright elsewhere
    (near alpha = 1 that route sums in extended precision)."""
    prof = solver._time_profile(alpha)
    assert prof.fit_err <= solver._KERNEL_TOL
    # a narrow peak is fitted by halving panels, never by raising the degree
    assert prof._coef.shape[0] == solver._PROFILE_NODES
    guard = 0.989 * wright_guard(-alpha, 1.0 - alpha)
    xs = np.linspace(0.0, min(guard, prof.x_clip), 13)
    if 0.5 <= alpha <= 0.9:
        want = timelaw.stable_density(alpha, xs, 1.0)
    else:
        want = timelaw.wright_density(alpha, xs, 1.0)
    assert_allclose(prof(xs), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_time_profile_fit_is_short(monkeypatch, alpha):
    """Mid-band profiles fit on the first pass over short panels: each
    evaluation is a Clenshaw pass of at most 17 coefficients, and a build
    asks the time law for about 200 values and runs no quadrature (the
    clamped tail's bound is closed-form)."""
    points = []
    density = solver.time_density_grid

    def counted(law, u):
        points.append(np.size(u))
        return density(law, u)

    def forbidden(*args, **kwargs):
        raise AssertionError("a profile build ran a quadrature")

    monkeypatch.setattr(solver, "time_density_grid", counted)
    for name in ("integrate_adaptive", "_integrate_points",
                 "stable_one_sided_density_grid"):
        monkeypatch.setattr(solver, name, forbidden)
    prof = solver._TimeProfile(alpha)
    assert prof._coef.shape[0] <= 17
    assert sum(points) <= 200


@pytest.mark.parametrize("alpha", [0.3, 0.99])
def test_time_profile_refuses_a_density_short_of_mass(monkeypatch, alpha):
    """A density that fits cleanly but holds mass 0.999 is refused before
    any quadrature: the fit alone cannot tell it from the time law."""
    density = solver.time_density_grid
    monkeypatch.setattr(solver, "time_density_grid",
                        lambda law, u: 0.999 * density(law, u))
    with pytest.raises(ConvergenceError, match="mass"):
        solver._TimeProfile(alpha)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.1, 0.38, 0.5, 0.65, 0.9,
                                   0.99, 0.998])
def test_survival_bound_covers_the_clamped_mass(alpha):
    """The mass the profile drops past ``x_clip`` is charged as Kanter's
    bound on Zolotarev's integral: ``e^-46`` there, never below the
    integral itself."""
    prof = solver._time_profile(alpha)
    bound = solver._survival_probability(alpha, prof.x_clip)
    assert prof.tail_mass == bound
    assert bound >= timelaw.zolotarev_survival(alpha, prof.x_clip)
    assert bound == pytest.approx(math.exp(-solver._CLIP_LOG), rel=1e-12)


def test_survival_bound_underflows_to_zero():
    """Past the float range the bound reads 0.0, where ``u0^(1/(1-alpha))``
    itself would overflow (1e4^100 at alpha = 0.99)."""
    assert solver._survival_probability(0.99, 1e4) == 0.0


@pytest.mark.parametrize("npts", [17, 20, 33, 40, 64, 65, 100, 769])
def test_chebyshev_refusal_stays_within_the_cap(npts):
    """A fit that cannot converge refuses once the panel holding the kink
    has been halved ``_FIT_MAX_SPLITS`` times, never past that, whatever
    the degree: its last pass evaluates the two halves of width
    ``2^-_FIT_MAX_SPLITS`` around the kink."""
    calls = []

    def kink(x):
        calls.append(x)
        return np.abs(x - 0.3)

    with pytest.raises(ConvergenceError) as err:
        solver._Chebyshev(kink, (0.0, 1.0), npts, 1e-15, "kink")
    assert f"after {solver._FIT_MAX_SPLITS} halvings" in str(err.value)
    assert len(calls) == solver._FIT_MAX_SPLITS + 1
    last = calls[-1]
    assert np.ptp(last) == 2.0 ** (1 - solver._FIT_MAX_SPLITS)
    assert last.min() < 0.3 < last.max()


def test_chebyshev_halves_panels_at_a_narrow_peak():
    """From one panel, halving clusters the narrowest panels at the peak
    of a bump and leaves the fit within its tolerance everywhere."""
    def bump(x):
        return np.exp(-((x - 0.3) / 1e-2) ** 2)

    fit = solver._Chebyshev(bump, (0.0, 1.0), 17, 1e-12, "bump")
    width = np.diff(fit.edges)
    assert 10 <= width.size <= 14
    assert fit._coef.shape == (17, width.size)
    mid = 0.5 * (fit.edges[1:] + fit.edges[:-1])
    assert np.all(np.abs(mid[width == width.min()] - 0.3) < 0.01)
    assert width.max() >= 32 * width.min()
    xs = np.random.default_rng(3).uniform(0.0, 1.0, 20000)
    assert fit.fit_err <= 1e-12
    assert np.max(np.abs(fit(xs) - bump(xs))) <= 1e-12


@pytest.mark.parametrize("alpha", [0.99, 0.995, 0.998])
def test_subordination_near_alpha_one(alpha):
    xs = np.linspace(-4.0, 4.0, 9)
    req = SolutionRequest(EquationSpec(2), alpha, 1.0, tuple(xs),
                          route="subordination")
    field = solve(req)
    closed = wright_closed_form(xs, alpha, 1.0)
    # the closed form is good to ~1e-10 relative inside its guard
    bound = field.grid_errors() + 1e-10 * np.abs(closed)
    assert np.all(np.abs(field.grid_values() - closed) <= bound)
    assert np.max(field.grid_errors()) < 1e-8


def test_time_profile_refusal_comes_before_quadrature(monkeypatch):
    """Where the fit cannot meet the tolerance the solve refuses, fast
    and before any quadrature runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature ran before the refusal")

    for name in ("integrate_adaptive", "integrate_jacobi_singular",
                 "_v_integral", "_integrate_points"):
        monkeypatch.setattr(solver, name, forbidden)
    req = SolutionRequest(EquationSpec(3), 0.999, 1.0, (0.0, 1.0),
                          route="subordination")
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        solve(req)
    assert time.perf_counter() - start < 10.0


def test_subordination_stays_in_float64(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("extended-precision series called")

    for name in ("_wright_mp", "_spec_neg_mp", "_ml_taylor_mp"):
        monkeypatch.setattr(specfun, name, forbidden)
    # an alpha no other test builds, so the profile is built here
    req = SolutionRequest(EquationSpec(3), 0.57, 1.3, (-1.0, 0.0, 2.0),
                          route="subordination")
    field = solve(req)
    assert np.all(np.isfinite(field.grid_values()))


def test_fourier_stays_in_float64(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("extended-precision series called")

    for name in ("_wright_mp", "_spec_neg_mp", "_ml_taylor_mp"):
        monkeypatch.setattr(specfun, name, forbidden)
    xs = (-3.1, -0.4, 0.0, 0.9, 2.5)
    reqs = [SolutionRequest(EquationSpec(n, sign), alpha, 1.3, xs,
                            route="fourier_ml")
            for alpha in (0.38, 0.65, 0.9) for n in range(2, 8)
            for sign in ((1, -1) if n % 2 else (1,))]
    # the benchmark's far-field request: n = 2 out to |x| ~ 43
    reqs.append(SolutionRequest(EquationSpec(2), 0.6, 1.0,
                                (-43.2, -3.0, -0.7, 0.0, 0.7, 3.0, 43.2),
                                route="fourier_ml"))
    for req in reqs:
        field = solve(req)
        assert np.all(np.isfinite(field.values))
        assert np.all(np.isfinite(field.errors))


def test_subordination_panel_cap_refuses(monkeypatch):
    """A point that needs more panels than the cap refuses with a typed
    error instead of returning a value its bar does not cover."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    req = SolutionRequest(EquationSpec(3), 0.5, 1.0, (-1.0, 1.0),
                          route="subordination")
    with pytest.raises(ConvergenceError, match="panels"):
        solve(req, tol=1e-12)


# ---------------------------------------------------------------------------
# the t = 1 kernel profile inside subordination
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_kernel_profiles():
    """Profiles built under a monkeypatch stay out of the shared cache."""
    solver._kernel_profile.cache_clear()
    yield
    solver._kernel_profile.cache_clear()


@pytest.mark.parametrize("n, sign", [(3, 1), (3, -1), (5, 1), (5, -1)])
def test_oscillatory_head_batch_matches_single_points(n, sign):
    """The phase blocks of every oscillatory-side point of a request are
    points of one engine call; points that start at different phase
    blocks, down to the last start that leaves ``_OSC_MIN_BLOCKS`` blocks,
    keep their single-point values and bars."""
    kernel = solver._kernel_profile(n, sign)
    weight = solver._time_profile(0.5)
    v_hi = weight.x_clip ** (1.0 / n)
    last = solver._OSC_BLOCKS - solver._OSC_MIN_BLOCKS
    j0 = np.array([0, 36, last, 0, 36, last])
    # |y| / v_hi between edges j0 - 1 and j0 starts the blocks at j0
    edges = np.append(0.0, kernel.osc_edges)
    ys = kernel.osc_dir * v_hi * (edges[j0] + np.repeat([0.3, 0.7], 3)
                                  * (edges[j0 + 1] - edges[j0]))
    assert_array_equal(
        np.searchsorted(kernel.osc_edges, np.abs(ys) / v_hi), j0)
    values, errors = solver._integrate_against_kernel(
        kernel, ys, weight, weight.x_clip, 1e-10)
    for i in range(ys.size):
        one_val, one_err = solver._integrate_against_kernel(
            kernel, ys[i:i + 1], weight, weight.x_clip, 1e-10)
        assert values[i] == pytest.approx(one_val[0], rel=1e-14, abs=1e-300)
        assert errors[i] == pytest.approx(one_err[0], rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("n, sign", [(n, s) for n in range(2, 9)
                                     for s in ((1, -1) if n % 2 else (1,))])
def test_kernel_profile_matches_contour(n, sign):
    spec = EquationSpec(n, sign)
    kernel = solver._kernel_profile(n, spec.k)
    assert kernel.fit_err <= solver._KERNEL_FIT_TOL
    assert kernel._coef.shape[0] == solver._KERNEL_NODES
    assert kernel.contour_err < solver._KERNEL_TOL
    # so the fit's relative floor never lifts its tolerance
    assert kernel.sup < 1.0
    assert solver._FIT_REL_TOL * kernel.sup < solver._KERNEL_FIT_TOL
    lo, hi = kernel.edges[0], kernel.edges[-1]
    ys = np.sort(np.random.default_rng(10 * n + sign).uniform(lo, hi, 500))
    want, _, _ = kernel_density_grid(spec, ys, 1.0, 1e-13)
    assert_allclose(kernel(ys), want, rtol=0.0, atol=solver._KERNEL_TOL)
    assert not np.any(kernel(np.array([lo - 1.0, hi + 1.0])))


@pytest.mark.parametrize("n, sign", [(2, 1), (3, -1), (4, 1)])
def test_contour_error_enters_every_bar(monkeypatch, fresh_kernel_profiles,
                                        n, sign):
    """The kernel contour's own error estimate, for the fitted profile and
    for ``phi(0)``, widens every bar by at least its share
    ``E[T^(-1/n)] = Gamma(1 - 1/n) / Gamma(1 - alpha/n)``."""
    contour = solver.kernel_density_grid
    alphas = (0.3, 0.9)
    bars = {}
    for reported in (0.0, 1e-9):
        def patched(*args, reported=reported, **kwargs):
            values, _, evals = contour(*args, **kwargs)
            return values, reported, evals

        monkeypatch.setattr(solver, "kernel_density_grid", patched)
        solver._kernel_profile.cache_clear()
        for alpha in alphas:
            req = SolutionRequest(EquationSpec(n, sign), alpha, 1.0,
                                  (-2.0, -0.5, 0.0, 0.7, 3.0),
                                  route="subordination")
            bars[reported, alpha] = solve(req).errors
    for alpha in alphas:
        share = gamma_fn(1.0 - 1.0 / n) / gamma_fn(1.0 - alpha / n)
        # up to the rounding of bars near 1e-9
        assert np.all(bars[1e-9, alpha] - bars[0.0, alpha]
                      >= 1e-9 * share * (1.0 - 1e-9))


def test_kernel_profile_reproduces_the_contour(monkeypatch,
                                               fresh_kernel_profiles):
    """Solves through the fitted profile against the same solves with
    every kernel value taken from the contour."""
    reqs = [SolutionRequest(EquationSpec(3, sign), 0.6, 1.3, xs,
                            route="subordination")
            for sign, xs in ((1, (-4.0, 0.0, 0.8, 12.0)), (-1, (-40.0, 0.5)))]
    reqs.append(SolutionRequest(EquationSpec(4), 0.3, 0.2, (-2.0, 0.0, 1.5),
                                route="subordination"))
    fitted = [solve(req) for req in reqs]

    def contour(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros_like(y)
        keep = (y >= self.edges[0]) & (y <= self.edges[-1])
        if np.any(keep):
            out[keep], _, _ = kernel_density_grid(self.spec, y[keep], 1.0,
                                                  solver._KERNEL_TOL)
        return out

    solver._kernel_profile.cache_clear()
    monkeypatch.setattr(solver._KernelProfile, "__call__", contour)
    for req, fit in zip(reqs, fitted):
        direct = solve(req)
        assert_allclose(fit.values, direct.values, rtol=0.0, atol=1e-12)
        assert_allclose(fit.errors, direct.errors, rtol=0.01)


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_profile_refuses_a_kernel_short_of_mass(monkeypatch, n):
    """A kernel that fits cleanly but holds mass 0.999 is refused: for
    odd n once the oscillatory tail past the last edge is added."""
    contour = solver.kernel_density_grid

    def scaled(*args, **kwargs):
        values, err, evals = contour(*args, **kwargs)
        return 0.999 * values, err, evals

    monkeypatch.setattr(solver, "kernel_density_grid", scaled)
    with pytest.raises(ConvergenceError, match="mass"):
        solver._KernelProfile(n, 1)


def test_v_integral_refuses_a_non_finite_integrand():
    """A NaN in the integrand is refused, not returned with a NaN bar."""
    kernel = solver._kernel_profile(3, 1)
    ys = np.array([-1.0, 2.0])
    with pytest.raises(ConvergenceError, match="non-finite"):
        solver._v_integral(kernel, ys, np.abs(ys) / kernel.clip_abs, 2.0,
                           lambda u: np.full(u.shape, np.nan),
                           np.full(ys.size, 1e-8))


def test_second_solve_reuses_the_kernel_profile(monkeypatch):
    spec = EquationSpec(5, -1)
    solve(SolutionRequest(spec, 0.4, 2.0, (-1.0, 0.0, 3.0),
                          route="subordination"))
    points = []
    contour = solver.kernel_density_grid

    def counted(spec, x, *args, **kwargs):
        points.append(np.size(x))
        return contour(spec, x, *args, **kwargs)

    monkeypatch.setattr(solver, "kernel_density_grid", counted)
    solve(SolutionRequest(spec, 0.7, 0.05, (-2.0, 0.0, 0.5, 40.0),
                          route="subordination"))
    # phi(0) for the Gauss-Jacobi branch at x = 0, and nothing else
    assert points == [1]


def test_kernel_profile_refusal_comes_before_quadrature(
        monkeypatch, fresh_kernel_profiles):
    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature ran before the refusal")

    for name in ("integrate_adaptive", "integrate_jacobi_singular",
                 "_v_integral", "_integrate_points"):
        monkeypatch.setattr(solver, name, forbidden)
    monkeypatch.setattr(solver, "_KERNEL_NODES", 5)
    monkeypatch.setattr(solver, "_FIT_MAX_SPLITS", 0)
    req = SolutionRequest(EquationSpec(3), 0.5, 1.0, (0.0, 1.0),
                          route="subordination")
    with pytest.raises(ConvergenceError, match="kernel profile"):
        solve(req)


# ---------------------------------------------------------------------------
# route dispatch and request validation
# ---------------------------------------------------------------------------

def test_route_dispatch():
    xs = (-1.0, 0.0, 2.0)
    even = solve(SolutionRequest(EquationSpec(2), 0.6, 1.0, xs))
    assert even.route_used == "fourier_ml"
    odd = solve(SolutionRequest(EquationSpec(3), 0.6, 1.0, xs))
    assert odd.route_used == "subordination"
    assert odd.values.shape == odd.errors.shape == (3,)
    assert not odd.values.flags.writeable
    pinned = solve(SolutionRequest(EquationSpec(2), 0.6, 1.0, xs,
                                   route="subordination"))
    assert pinned.route_used == "subordination"


def test_route_used_names_the_kernel_at_alpha_one():
    """At alpha = 1 an odd-n Fourier request is served by the kernel
    contour, and says so; even n still inverts the transform."""
    xs = (-1.0, 0.0, 2.0)
    odd = solve(SolutionRequest(EquationSpec(3), 1.0, 1.0, xs,
                                route="fourier_ml"))
    assert odd.route_used == "subordination"
    assert_array_equal(odd.values, solve_by("subordination",
                                            odd.request).values)
    even = solve(SolutionRequest(EquationSpec(2), 1.0, 1.0, xs,
                                 route="fourier_ml"))
    assert even.route_used == "fourier_ml"


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0},
    {"alpha": 1.2},
    {"t": 0.0},
    {"t": -1.0},
    {"route": "spectral"},
    {"x_grid": ()},
    {"x_grid": (0.0, 0.0, 1.0)},
    {"x_grid": (1.0, 0.0)},
])
def test_request_validation(kwargs):
    base = {"spec": EquationSpec(2), "alpha": 0.5, "t": 1.0,
            "x_grid": (0.0, 1.0)}
    base.update(kwargs)
    with pytest.raises(DomainError):
        SolutionRequest(**base)


@pytest.mark.parametrize("kwargs", [
    {"x_grid": (0.0, math.nan)},
    {"x_grid": (0.0, math.inf)},
    {"x_grid": (-math.inf, 0.0)},
    {"t": math.inf},
])
def test_request_rejects_non_finite_input(kwargs):
    """Refused up front, not by an IndexError, OverflowError or
    ZeroDivisionError (or a NaN bar) deep inside either route."""
    base = {"spec": EquationSpec(3), "alpha": 0.5, "t": 1.0,
            "x_grid": (0.0, 1.0)}
    base.update(kwargs)
    with pytest.raises(DomainError):
        SolutionRequest(**base)


#: every entry point that takes a tolerance, as a function of it
TOL_TAKERS = {
    "fourier": lambda tol: solve(
        SolutionRequest(EquationSpec(2), 0.5, 1.0, (0.0, 1.0),
                        route="fourier_ml"), tol=tol),
    "subordination": lambda tol: solve(
        SolutionRequest(EquationSpec(3), 0.5, 1.0, (0.0, 1.0),
                        route="subordination"), tol=tol),
    "laplace": lambda tol: laplace_relation_check(
        EquationSpec(3), 0.5, 0.7, 1.0, tol=tol),
    "kernel": lambda tol: kernel_density_grid(EquationSpec(3), (0.0, 1.0),
                                              1.0, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("taker", list(TOL_TAKERS))
def test_tol_must_be_positive_and_finite(taker, tol):
    """Refused up front: a NaN or negative tolerance gave NaN or negative
    bars, or spent the whole evaluation budget before failing."""
    with pytest.raises(DomainError):
        TOL_TAKERS[taker](tol)


# ---------------------------------------------------------------------------
# characteristic function and integer moments
# ---------------------------------------------------------------------------

def test_char_fn_at_zero_is_one():
    for n in (2, 3, 4):
        assert solution_char_fn(EquationSpec(n), 0.6, 0.0, 1.3) == 1.0 + 0.0j


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta", [0.7, 1.3])
def test_char_fn_degenerate_order(n, beta):
    spec = EquationSpec(n)
    got = solution_char_fn(spec, 1.0, beta, 0.9)
    want = np.exp(complex(spec.k) * (-1j * beta) ** n * 0.9)
    assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_char_fn_even_is_real_mittag_leffler():
    got = solution_char_fn(EquationSpec(2), 0.6, 1.5, 1.0)
    assert abs(got.imag) < 1e-15
    want = mittag_leffler_grid([-(1.5 ** 2)], MLParams(alpha=0.6))[0][0]
    assert_allclose(got.real, want.real, rtol=1e-13, atol=0.0)


def test_moment_closed_forms():
    # n = 2: mu_2 = 2 t^alpha / Gamma(alpha + 1)
    got = solution_moment(EquationSpec(2), 0.5, 2, 1.0)
    assert_allclose(got, 2.0 / gamma_fn(1.5), rtol=1e-14)
    # n = 4, k = -1: mu_4 = -24 t^alpha / Gamma(alpha + 1)
    got = solution_moment(EquationSpec(4), 0.5, 4, 1.0)
    assert_allclose(got, -24.0 / gamma_fn(1.5), rtol=1e-14)
    # n = 3, k = +1: mu_3 = -6 t^alpha / Gamma(alpha + 1), and time scaling
    got = solution_moment(EquationSpec(3), 0.8, 3, 2.0)
    assert_allclose(got, -6.0 * 2.0 ** 0.8 / gamma_fn(1.8), rtol=1e-14)
    # mass and off-multiples
    assert solution_moment(EquationSpec(3), 0.6, 0, 1.0) == 1.0
    assert solution_moment(EquationSpec(3), 0.6, 5, 1.0) == 0.0
    assert solution_moment(EquationSpec(2), 0.6, 3, 1.0) == 0.0


def test_moment_validation():
    with pytest.raises(DomainError):
        solution_moment(EquationSpec(2), 0.5, -2, 1.0)
    with pytest.raises(DomainError):
        solution_moment(EquationSpec(2), 0.5, 2.5, 1.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        solution_moment(EquationSpec(2), 1.3, 2, 1.0)
    with pytest.raises(DomainError):
        solution_moment(EquationSpec(2), 0.5, 2, 0.0)


#: moments whose factorial factor overflows a float while the moment does
#: not, with their values from mpmath
MOMENTS_PAST_FACTOR_OVERFLOW = {
    "time": (lambda: time_moment(0.5, 200, 1.0),
             lambda: mpmath.gamma(201) / mpmath.gamma(101)),
    "kernel": (lambda: kernel_moment(EquationSpec(2), 180, 1.0),
               lambda: mpmath.factorial(180) / mpmath.factorial(90)),
    "solution": (lambda: solution_moment(EquationSpec(2), 0.5, 180, 1.0),
                 lambda: mpmath.factorial(180) / mpmath.gamma(46)),
    "solution_signed": (
        lambda: solution_moment(EquationSpec(3), 0.5, 177, 1.7),
        lambda: (-mpmath.factorial(177) * mpmath.mpf(1.7) ** 29.5
                 / mpmath.gamma(30.5))),
}


@pytest.mark.parametrize("case", list(MOMENTS_PAST_FACTOR_OVERFLOW))
def test_moments_past_factor_overflow(case):
    """r! overflows a float from r = 171; the moment need not.  These
    raised an untyped OverflowError."""
    got, want = MOMENTS_PAST_FACTOR_OVERFLOW[case]
    with mpmath.workdps(40):
        ref = want()
    assert abs(got() - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("evaluate, ref", [
    (lambda: solution_moment(EquationSpec(2), 0.5, 200, 1.0),
     lambda: mpmath.factorial(200) / mpmath.gamma(51)),
    (lambda: kernel_moment(EquationSpec(2), 400, 1.0),
     lambda: mpmath.factorial(400) / mpmath.factorial(200)),
], ids=["solution", "kernel"])
def test_moment_beyond_float_range_refuses(evaluate, ref):
    with mpmath.workdps(40):
        assert ref() > np.finfo(float).max
    with pytest.raises(DomainError):
        evaluate()


_T_GRID = np.linspace(0.0, 1.0, 65)

#: one non-finite argument per public function that takes a number
NON_FINITE = {
    "time_density_grid_u": lambda: time_density_grid(
        TimeChangeLaw(0.5, 1.0), [math.nan]),
    "time_law_t": lambda: TimeChangeLaw(0.5, math.inf),
    "time_moment_delta": lambda: time_moment(0.5, math.inf, 1.0),
    "time_moment_t": lambda: time_moment(0.5, 1.0, math.inf),
    "char_fn_t": lambda: solution_char_fn(EquationSpec(3), 0.5, 1.0,
                                          math.inf),
    "char_fn_beta": lambda: solution_char_fn(EquationSpec(3), 0.5, math.nan,
                                             1.0),
    "kernel_x": lambda: kernel_density_grid(EquationSpec(3), [math.nan], 1.0),
    "kernel_t": lambda: kernel_density_grid(EquationSpec(3), [0.0], math.inf),
    "kernel_moment_t": lambda: kernel_moment(EquationSpec(2), 2, math.inf),
    "kernel_moment_numeric_tol": lambda: kernel_moment_numeric(
        EquationSpec(2), 2, 1.0, math.nan),
    "solution_moment_t": lambda: solution_moment(EquationSpec(2), 0.5, 2,
                                                 math.inf),
    "kernel_laplace_x": lambda: kernel_laplace(EquationSpec(3), math.nan, 1.0),
    "kernel_laplace_s": lambda: kernel_laplace(EquationSpec(3), 1.0, math.inf),
    "laplace_check_x": lambda: laplace_relation_check(
        EquationSpec(3), 0.5, math.nan, 1.0),
    "caputo_x": lambda: caputo_residual(EquationSpec(2), 0.5, math.nan,
                                        _T_GRID, 0.1),
    "caputo_h_x": lambda: caputo_residual(EquationSpec(2), 0.5, 3.0,
                                          _T_GRID, math.inf),
    "caputo_t_grid": lambda: caputo_residual(
        EquationSpec(2), 0.5, 3.0, np.append(_T_GRID[:-1], math.nan), 0.1),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_argument_raises_domain_error(case):
    """Refused up front, as SolutionRequest refuses a non-finite grid;
    these gave NaN, a silent 0, a misleading StencilUnderflowError or an
    untyped ValueError."""
    with pytest.raises(DomainError):
        NON_FINITE[case]()


# ---------------------------------------------------------------------------
# grid-level conservation laws
# ---------------------------------------------------------------------------

def test_even_grid_invariants():
    """Mass, second and fourth moments, characteristic values on a dense
    grid for n = 2, alpha = 0.6 (true probability density)."""
    spec = EquationSpec(2)
    h = 0.125
    xs = np.arange(-16.0, 16.0 + h, h)
    req = SolutionRequest(spec, 0.6, 1.0, tuple(xs))
    u = solve_by("fourier_ml", req).grid_values()
    assert abs(simpson(u, x=xs) - 1.0) < 1e-5
    for r in (2, 4):
        want = solution_moment(spec, 0.6, r, 1.0)
        got = simpson(xs ** r * u, x=xs)
        assert abs(got / want - 1.0) < 1e-4
    for beta in (0.5, 1.0, 2.0):
        want = solution_char_fn(spec, 0.6, beta, 1.0)
        got = simpson(u * np.exp(1j * beta * xs), x=xs)
        assert abs(got - want) < 1e-4


def test_signed_grid_invariants():
    """Same laws for n = 3, alpha = 0.5: the field is signed with an
    algebraic oscillatory tail on one side, so the window is lopsided."""
    spec = EquationSpec(3)
    h = 0.2
    xs = np.arange(-16.0, 72.0 + h, h)
    req = SolutionRequest(spec, 0.5, 1.0, tuple(xs))
    u = solve_by("subordination", req, tol=1e-9).grid_values()
    assert abs(simpson(u, x=xs) - 1.0) < 1e-6
    for r in (3, 6):
        want = solution_moment(spec, 0.5, r, 1.0)
        got = simpson(xs ** r * u, x=xs)
        assert abs(got / want - 1.0) < 1e-3
    # r = 2 is not a multiple of n: the signed moment must vanish
    assert abs(simpson(xs ** 2 * u, x=xs)) < 1e-4


def test_order_two_never_negative_in_far_tail():
    """At alpha = 1 the solution is the Gaussian kernel itself, and far out
    its contour values are noise around zero: solve clamps those for
    n = 2, a probability density."""
    req = SolutionRequest(EquationSpec(2), 1.0, 0.5, (8.0, 12.0, 20.0),
                          route="subordination")
    assert np.all(solve(req).values >= 0.0)


def test_gaussian_family_nonnegative():
    for alpha in (0.4, 0.7, 1.0):
        xs = np.linspace(-6.0, 6.0, 17)
        req = SolutionRequest(EquationSpec(2), alpha, 1.0, tuple(xs))
        u = solve_by("fourier_ml", req).grid_values()
        assert np.min(u) >= -1e-12


# ---------------------------------------------------------------------------
# far field: small values must come with small, honest estimates
# ---------------------------------------------------------------------------

def test_far_field_cross_route():
    req = SolutionRequest(EquationSpec(3), 0.5, 1.0, (-30.0, 30.0))
    sub = solve_by("subordination", req).grid_values()
    fou = solve_by("fourier_ml", req).grid_values()
    assert_allclose(sub, fou, rtol=0.0, atol=1e-6)
    # the oscillatory side carries visible signal at x = 30
    assert abs(sub[1]) > 1e-7


def test_deep_tail_honest_zero():
    """Deep in the oscillatory tail, where fewer than ``_OSC_MIN_BLOCKS``
    phase blocks remain, subordination refuses rather than guess: at
    x = 98.4 its tail sum read 0 +- 1.3e-13, where the Fourier route reads
    -4.9e-11 +- 6.9e-11.  The Fourier route answers zero within a bar
    under 1e-10."""
    for sign in (1, -1):
        for x in (95.0, 98.4):
            req = SolutionRequest(EquationSpec(3, sign), 0.9, 1.0,
                                  (sign * x,))
            with pytest.raises(ConvergenceError, match="phase blocks"):
                solve_by("subordination", req)
    req = SolutionRequest(EquationSpec(3), 0.9, 1.0, (95.0,))
    field = solve_by("fourier_ml", req, tol=1e-12)
    assert abs(field.values[0]) <= field.errors[0] + 1e-12
    assert field.errors[0] < 1e-10


def test_far_field_fourier_honest_zero():
    """n = 2 decays like exp(-c |x|^(2/(2-alpha))): far out the Fourier
    route must return zero within a small bar, on both sides."""
    xs = (-200.0, -100.0, -43.0, 43.0, 100.0, 200.0)
    req = SolutionRequest(EquationSpec(2), 0.6, 1.0, xs, route="fourier_ml")
    field = solve(req)
    assert np.all(np.abs(field.values) <= field.errors)
    assert np.all(field.errors < 1e-8)


@pytest.mark.parametrize("x", [3000.0, 8000.0])
def test_fourier_head_panel_cap_refuses(x):
    """A head that needs more panels than the cap refuses with a typed
    error, before any Mittag-Leffler evaluation, instead of returning a
    value from an under-resolved head."""
    req = SolutionRequest(EquationSpec(2), 0.6, 1.0, (-x, x),
                          route="fourier_ml")
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="panels"):
        solve(req)
    assert time.perf_counter() - start < 0.2


def test_fourier_head_memory_stays_small():
    """The head's (nodes x points) phases are formed in bounded chunks:
    400 points out to |x| = 200 take some 6600 nodes each."""
    req = SolutionRequest(EquationSpec(2), 0.6, 1.0,
                          tuple(np.linspace(-200.0, 200.0, 400)),
                          route="fourier_ml")
    tracemalloc.start()
    try:
        field = solve(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert np.all(np.isfinite(field.values))


@pytest.mark.parametrize("xb",[0.1, 1.0, 6.9, 7.1, 12.5, 47.3, 272.0,
                                2000.0])
def test_tail_transforms_match_expint(xb):
    """C_r(x) = B^{1-r} E_r(i x B) for every r the tail uses, on both
    sides of the pivot between upward and downward recurrence."""
    B = 1.7
    x = xb / B
    got = solver._tail_inverse_power_transforms(np.array([-x, x]), B, 48)
    for r in range(1, 49):
        want = complex(mpmath.expint(r, 1j * xb) * mpmath.mpf(B) ** (1 - r))
        assert_allclose(got[r, 1], want, rtol=1e-12, atol=0.0)
        assert_allclose(got[r, 0], want.conjugate(), rtol=1e-12, atol=0.0)


def test_fourier_small_alpha_within_bars_or_refuses():
    """At alpha = 0.005 |z|^(1/alpha) overflows a float; the route must
    answer within its bars or refuse with a typed error."""
    xs = np.linspace(-3.0, 3.0, 7)
    req = SolutionRequest(EquationSpec(2), 0.005, 1.0, tuple(xs),
                          route="fourier_ml")
    try:
        field = solve(req)
    except FracheatError:
        return
    closed = wright_closed_form(xs, 0.005, 1.0)
    assert np.all(np.abs(field.values - closed) <= field.errors)


# ---------------------------------------------------------------------------
# Laplace-transform identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, alpha, x, s, tol", [
    (2, 1.0, 1.0, 1.0, 1e-7),
    (3, 1.0, 2.0, 1.0, 1e-7),
    (3, 1.0, -2.0, 1.0, 1e-7),
])
def test_laplace_identity(n, alpha, x, s, tol):
    assert laplace_relation_check(EquationSpec(n), alpha, x, s) < tol


#: n = 2..7 with both odd signs, two orders, x = 0 (the Gauss-Jacobi
#: branch) and one point on each side of the origin, s alternating
LAPLACE_SWEEP = [
    (n, sign, alpha, x, (0.5, 2.0)[i % 2])
    for i, ((n, sign), alpha, x) in enumerate(itertools.product(
        [(n, sign) for n in range(2, 8)
         for sign in ((1,) if n % 2 == 0 else (1, -1))],
        (0.3, 0.8), (-1.5, 0.0, 2.5)))
]


@pytest.mark.parametrize("n, sign, alpha, x, s", LAPLACE_SWEEP)
def test_laplace_identity_sweep(n, sign, alpha, x, s):
    """The subordinated solution's time transform meets
    ``s^(alpha-1) Phi_n(x, s^alpha)`` below alpha = 1 across the domain."""
    assert laplace_relation_check(EquationSpec(n, sign), alpha, x, s) < 1e-9


def test_laplace_weight_is_one_time_integral_per_call(monkeypatch):
    """The time weight takes all of a call's u-nodes, each its own point,
    in one call of the adaptive engine; one integral per node made 1104
    calls for these two checks."""
    calls = 0
    engine = solver._integrate_points

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return engine(*args, **kwargs)

    monkeypatch.setattr(solver, "_integrate_points", counted)
    diffs = [laplace_relation_check(EquationSpec(3), 0.5, x, 0.5)
             for x in (-1.0, 1.0)]
    # the two v-integrals and at least one time weight each
    assert 4 <= calls < 20
    assert max(diffs) < 1e-9


def test_laplace_validation():
    with pytest.raises(DomainError):
        laplace_relation_check(EquationSpec(2), 1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        laplace_relation_check(EquationSpec(2), 0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# discretized-equation residual
# ---------------------------------------------------------------------------

def test_caputo_residual_converges_on_closed_form():
    """Refining the time grid must shrink the defect of the discretized
    equation evaluated on the closed n = 2 field (first-order scheme)."""
    spec = EquationSpec(2)

    def field(xs, t):
        return wright_closed_form(np.asarray(xs, dtype=float), 0.5, t)

    res = [caputo_residual(spec, 0.5, 3.0, np.linspace(0.0, 1.0, m + 1),
                           5e-3, field)
           for m in (64, 128, 256)]
    assert res[0] / res[1] > 2.0
    assert res[1] / res[2] > 2.0
    assert res[2] < 1.2e-4


def test_caputo_residual_degenerate_order():
    res = caputo_residual(EquationSpec(2), 1.0, 3.0,
                          np.linspace(0.0, 1.0, 129), 1e-2)
    assert res < 1e-3


@pytest.mark.parametrize("n, x", [(3, 2.0), (3, -2.0), (2, 2.0)])
def test_caputo_default_field_is_the_solution(n, x):
    """The default field against one built from the Fourier route, on the
    oscillatory and the decaying side of odd n."""
    spec = EquationSpec(n)

    def fourier_field(xs, t):
        grid, where = np.unique(xs, return_inverse=True)
        req = SolutionRequest(spec, 0.5, t, tuple(grid), route="fourier_ml")
        return solve(req).values[where]

    t_grid = np.linspace(0.0, 1.0, 129)
    assert_allclose(caputo_residual(spec, 0.5, x, t_grid, 0.05),
                    caputo_residual(spec, 0.5, x, t_grid, 0.05,
                                    fourier_field), rtol=1e-6)


def test_caputo_validation():
    spec = EquationSpec(2)
    good_t = np.linspace(0.0, 1.0, 65)
    with pytest.raises(DomainError):
        caputo_residual(spec, 0.5, 3.0, np.linspace(0.0, 1.0, 33), 0.1)
    with pytest.raises(DomainError):
        caputo_residual(spec, 0.5, 3.0, np.linspace(0.1, 1.0, 65), 0.1)
    bad = np.append(0.0, np.geomspace(1e-3, 1.0, 64))
    with pytest.raises(DomainError):
        caputo_residual(spec, 0.5, 3.0, bad, 0.1)
    with pytest.raises(DomainError):
        caputo_residual(spec, 0.5, 3.0, good_t, 0.0)
    with pytest.raises(DomainError):
        caputo_residual(spec, 1.5, 3.0, good_t, 0.1)
    with pytest.raises(DomainError):
        # 5-point stencil centered at 0 puts a node on the origin
        caputo_residual(EquationSpec(3), 0.5, 0.0, good_t, 0.1)
    with pytest.raises(StencilUnderflowError):
        caputo_residual(spec, 0.5, 3.0, good_t, 1e-4,
                        lambda xs, t: np.full(np.asarray(xs).size, 1e-20))
