"""Cross-validation of the random-time density.

The package computes the density by the first-passage duality with the
one-sided stable law.  Four independent constructions serve as oracles
(``tests/oracles/timelaw.py``: Wright series, fractional integral of a
one-sided stable density, rescaled spectrally negative stable density,
staged product convolution).  Every test here either pins one route
against a closed form, plays two routes against each other, or checks a
global invariant (normalization, moments) by quadrature against the
closed-form moment formula.
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy.special import gamma as gamma_fn

from fracheat._errors import DomainError
from fracheat.quadrature import (
    JacobiWeight,
    integrate_adaptive,
    integrate_jacobi_singular,
)
from fracheat.specfun import (
    SeriesRangeError,
    StableOneSided,
    stable_one_sided_density_grid,
    wright_guard,
)
from fracheat.timechange import (
    TimeChangeLaw,
    time_density_grid,
    time_moment,
)
from oracles import timelaw
from oracles.timelaw import GjLaw, gj_density


def half_alpha_density(u: float, t: float) -> float:
    """Closed form of the density at alpha = 1/2: a half-Gaussian in u."""
    return math.exp(-u * u / (4.0 * t)) / math.sqrt(math.pi * t)


def tail_cutoff(alpha: float, depth: float) -> float:
    """Similarity coordinate beyond which the density is below exp(-depth)."""
    return ((depth / (1.0 - alpha)) ** (1.0 - alpha)) / alpha**alpha


def time_tail_probability(alpha: float, u0: float, t: float,
                          tol: float = 1e-12) -> float:
    """Survival probability P(T > u0) of the random time.

    The event that the inverse process is still above u0 at time t is the
    event that the increasing process it inverts has not yet crossed level
    t after a run of length u0, so the survival probability is the mass of
    the one-sided stable law on [0, t].
    """
    law = StableOneSided(alpha, u0)

    def f(ws: np.ndarray) -> np.ndarray:
        return stable_one_sided_density_grid(ws, law)

    return integrate_adaptive(f, 0.0, t, tol).value


def weighted_route_integral(alpha: float, t: float, delta: float = 0.0, *,
                            nodes: int = 20, panels: int = 2,
                            depth: float = 50.0) -> float:
    """Quadrature of u^delta times the Wright-route density over
    (0, infinity).

    Splits into an adaptive bulk below the series guard (vectorized float
    evaluations) and fixed Gauss-Legendre panels across the
    superexponentially decaying mid tail; the remainder beyond the cutoff
    is below exp(-depth) and is dropped.
    """
    scale = t**alpha
    x_bulk = 0.98 * 0.999 * wright_guard(-alpha, 1.0 - alpha)
    x_cut = tail_cutoff(alpha, depth)

    def f(us: np.ndarray) -> np.ndarray:
        return timelaw.wright_density(alpha, us, t)

    if delta == int(delta):
        def fw(us: np.ndarray) -> np.ndarray:
            return us**delta * f(us)

        bulk = integrate_adaptive(fw, 0.0, x_bulk * scale, 1e-12).value
    else:
        weight = JacobiWeight(exponent=delta, endpoint="left")
        bulk = integrate_jacobi_singular(f, 0.0, x_bulk * scale, weight,
                                         1e-12).value
    zn, zw = leggauss(nodes)
    edges = np.geomspace(x_bulk, x_cut, panels + 1)
    mid = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (hi - lo) * zn + 0.5 * (hi + lo)
        um = xm * scale
        mid += float(np.sum(0.5 * (hi - lo) * zw * um**delta * f(um))) * scale
    return bulk + mid


class TestTimeChangeLaw:
    """The law's two fields, and the domains of the oracle routes that
    replaced its route knob."""

    def test_law_has_two_fields(self):
        names = [f.name for f in dataclasses.fields(TimeChangeLaw)]
        assert names == ["alpha", "t"]

    def test_product_route_derives_m(self):
        assert timelaw.product_order(0.25) == 4

    def test_product_route_accepts_explicit_m(self):
        us = np.array([0.7, 1.3])
        assert_allclose(timelaw.product_density(np.int64(3), us, 2.0),
                        timelaw.product_density(3, us, 2.0), rtol=0, atol=0)
        for m in (1, 2.5):
            with pytest.raises(DomainError):
                timelaw.product_density(m, us, 2.0)

    @pytest.mark.parametrize("alpha", [0.4, 0.37, 0.9])
    def test_product_route_needs_reciprocal_integer(self, alpha):
        with pytest.raises(DomainError):
            timelaw.product_order(alpha)

    @pytest.mark.parametrize("alpha", [0.3, 0.49])
    def test_stable_route_needs_alpha_at_least_half(self, alpha):
        with pytest.raises(DomainError):
            timelaw.stable_density(alpha, np.array([1.0]), 1.0)

    def test_stable_route_rejects_alpha_one(self):
        with pytest.raises(DomainError):
            timelaw.stable_density(1.0, np.array([1.0]), 1.0)

    def test_degenerate_law_is_valid_at_alpha_one(self):
        law = TimeChangeLaw(alpha=1.0, t=2.0)
        assert law.alpha == 1.0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            TimeChangeLaw(alpha=alpha, t=1.0)

    def test_t_must_be_positive(self):
        with pytest.raises(DomainError):
            TimeChangeLaw(alpha=0.5, t=0.0)


#: every construction of the density at alpha = 1/2, as a function of (u, t)
HALF_ALPHA_ROUTES = {
    "wright": lambda u, t: timelaw.wright_density(0.5, u, t),
    "frac_integral": lambda u, t: timelaw.frac_integral_density(0.5, u, t),
    "stable": lambda u, t: timelaw.stable_density(0.5, u, t),
    "product": lambda u, t: timelaw.product_density(2, u, t),
    "duality": lambda u, t: time_density_grid(TimeChangeLaw(0.5, t), u),
}


class TestHalfAlphaCollapse:
    """At alpha = 1/2 every route must reproduce the half-Gaussian."""

    ROUTES = list(HALF_ALPHA_ROUTES)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("u", [0.3, 1.0, 2.0, 4.0])
    def test_matches_closed_form(self, route, u):
        got = HALF_ALPHA_ROUTES[route](np.array([u]), 1.0)[0]
        assert_allclose(got, half_alpha_density(u, 1.0), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("route", ROUTES)
    def test_origin_value(self, route):
        got = HALF_ALPHA_ROUTES[route](np.array([0.0]), 1.0)[0]
        assert_allclose(got, 1.0 / math.sqrt(math.pi), rtol=1e-13)

    @pytest.mark.parametrize("route", ROUTES)
    def test_negative_u_gives_zero(self, route):
        vals = HALF_ALPHA_ROUTES[route](np.array([-2.0, -0.1]), 1.0)
        assert_allclose(vals, 0.0, atol=0.0)

    def test_other_time_scale(self):
        got = timelaw.wright_density(0.5, np.array([1.3]), 2.5)[0]
        assert_allclose(got, half_alpha_density(1.3, 2.5), rtol=1e-12)


class TestCrossRouteAnchors:
    def test_frac_integral_matches_wright(self):
        want = timelaw.wright_density(0.6, np.array([0.8]), 1.0)
        got = timelaw.frac_integral_density(0.6, np.array([0.8]), 1.0)
        assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_stable_matches_wright(self):
        want = timelaw.wright_density(0.75, np.array([0.5]), 1.0)
        got = timelaw.stable_density(0.75, np.array([0.5]), 1.0)
        assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_product_matches_wright(self):
        want = timelaw.wright_density(1.0 / 3.0, np.array([0.7]), 1.0)
        got = timelaw.product_density(3, np.array([0.7]), 1.0)
        assert_allclose(got, want, rtol=0, atol=1e-5)


def _available_routes(alpha: float, t: float) -> dict:
    """Every construction of the density at ``(alpha, t)`` other than the
    Wright route, as a function of an array of u."""
    routes = {
        "frac_integral": lambda us: timelaw.frac_integral_density(alpha, us,
                                                                  t),
        "duality": lambda us: time_density_grid(TimeChangeLaw(alpha, t), us),
    }
    if 0.5 <= alpha < 1.0:
        routes["stable"] = lambda us: timelaw.stable_density(alpha, us, t)
    m = 1.0 / alpha
    if abs(m - round(m)) < 1e-12:
        routes["product"] = lambda us: timelaw.product_density(round(m), us,
                                                               t)
    return routes


class TestRouteAgreement:
    """All available routes agree pointwise within 1e-5 absolute."""

    U_GRID = [0.1, 0.5, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 1.0 / 3.0, 0.25])
    def test_pointwise_agreement(self, alpha, t):
        baseline = timelaw.wright_density(alpha, np.array(self.U_GRID), t)
        for route, density in _available_routes(alpha, t).items():
            for u, want in zip(self.U_GRID, baseline):
                try:
                    got = density(np.array([u]))[0]
                except SeriesRangeError:
                    # The stable series refuses points beyond its guard
                    # rather than returning cancelled digits; the other
                    # routes still cover the point.
                    assert route == "stable"
                    continue
                assert got == pytest.approx(want, rel=0, abs=1e-5), (
                    f"route {route} at u={u}, t={t}")


class TestNormalization:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_wright_mass_is_one(self, alpha):
        mass = weighted_route_integral(alpha, 1.0)
        assert_allclose(mass, 1.0, rtol=0, atol=1e-8)

    def test_frac_integral_mass_is_one(self):
        alpha, t = 0.4, 1.0
        edges = [1e-9, 1.0, 2.5, 5.0, 9.0, tail_cutoff(alpha, 30.0)]
        zn, zw = leggauss(16)
        mass = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            um = 0.5 * (hi - lo) * zn + 0.5 * (hi + lo)
            vals = timelaw.frac_integral_density(alpha, um, t)
            mass += float(np.sum(0.5 * (hi - lo) * zw * vals))
        assert_allclose(mass, 1.0, rtol=0, atol=1e-7)

    def test_stable_mass_is_one(self):
        # The stable series guard sits where the density is ~1e-6, so the
        # quadrature stops just below it and the remaining tail mass comes
        # from the survival probability of the random time.
        alpha, t = 0.75, 1.0
        u_bulk = 3.36

        def f(us: np.ndarray) -> np.ndarray:
            return timelaw.stable_density(alpha, us, t)

        bulk = integrate_adaptive(f, 0.0, u_bulk, 1e-12).value
        tail = time_tail_probability(alpha, u_bulk, t)
        assert tail > 1e-7
        assert_allclose(bulk + tail, 1.0, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_product_mass_is_one(self, m):
        alpha = 1.0 / m
        hi = tail_cutoff(alpha, 35.0)

        def f(us: np.ndarray) -> np.ndarray:
            return timelaw.product_density(m, us, 1.0)

        mass = integrate_adaptive(f, 0.0, hi, 1e-10).value
        assert_allclose(mass, 1.0, rtol=0, atol=1e-8)


class TestMoments:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 3.0])
    def test_wright_moments(self, delta):
        alpha, t = 0.5, 1.0
        got = weighted_route_integral(alpha, t, delta)
        assert_allclose(got, time_moment(alpha, delta, t), rtol=1e-8)

    def test_wright_third_moment_heavier_tail(self):
        # delta = 3 at larger t weights the mid tail most strongly (it
        # carries a few parts in 1e5 of the moment), so this pins the
        # extended-precision tail evaluations.
        alpha, t, delta = 0.75, 2.0, 3.0
        got = weighted_route_integral(alpha, t, delta)
        assert_allclose(got, time_moment(alpha, delta, t), rtol=1e-8)

    def test_stable_first_moment(self):
        alpha, t = 0.9, 2.0
        u_bulk = 3.34

        def f(us: np.ndarray) -> np.ndarray:
            return us * timelaw.stable_density(alpha, us, t)

        bulk = integrate_adaptive(f, 0.0, u_bulk, 1e-12).value
        # Integration by parts turns the tail of the first moment into
        # u_bulk * P(T > u_bulk) plus the integral of the survival
        # probability across the mid tail.
        tail = u_bulk * time_tail_probability(alpha, u_bulk, t)
        u_cut = tail_cutoff(alpha, 40.0) * t**alpha
        zn, zw = leggauss(24)
        um = 0.5 * (u_cut - u_bulk) * zn + 0.5 * (u_cut + u_bulk)
        surv = np.array([time_tail_probability(alpha, float(u), t, 1e-13)
                         for u in um])
        tail += float(np.sum(0.5 * (u_cut - u_bulk) * zw * surv))
        want = time_moment(alpha, 1.0, t)
        assert_allclose(bulk + tail, want, rtol=1e-6)


class TestZolotarevOracle:
    """The extended-precision tail mass against the closed form at
    alpha = 1/2 (``T`` is half-normal, ``P(T > u) = erfc(u / 2)``) and
    against the stable mass on [0, 1] where that is well above rounding."""

    @pytest.mark.parametrize("u0", [0.5, 2.0, 8.0, 15.0])
    def test_half_order_is_erfc(self, u0):
        assert timelaw.zolotarev_survival(0.5, u0) == pytest.approx(
            math.erfc(0.5 * u0), rel=1e-13)

    @pytest.mark.parametrize("alpha, u0", [(0.2, 1.0), (0.35, 2.5),
                                           (0.7, 1.5), (0.9, 1.1)])
    def test_matches_stable_mass(self, alpha, u0):
        want = time_tail_probability(alpha, u0, 1.0)
        assert want > 1e-6
        assert timelaw.zolotarev_survival(alpha, u0) == pytest.approx(
            want, rel=1e-8)


class TestTimeMoment:
    def test_delta_zero_is_one(self):
        assert time_moment(0.7, 0.0, 3.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_alpha_first_moment(self):
        assert_allclose(time_moment(0.5, 1.0, 1.0), 2.0 / math.sqrt(math.pi),
                        rtol=1e-14)

    def test_half_alpha_second_moment(self):
        assert_allclose(time_moment(0.5, 2.0, 1.0), 2.0, rtol=1e-14)

    def test_alpha_one_gives_plain_power(self):
        assert_allclose(time_moment(1.0, 2.5, 3.0), 3.0**2.5, rtol=1e-14)

    @given(alpha=st.floats(min_value=0.1, max_value=0.95),
           delta=st.floats(min_value=0.0, max_value=4.0),
           t=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_time_scaling(self, alpha, delta, t):
        lhs = time_moment(alpha, delta, t)
        rhs = t**(alpha * delta) * time_moment(alpha, delta, 1.0)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            time_moment(0.5, -1.0, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            time_moment(1.2, 1.0, 1.0)


class TestGammaRatioIdentity:
    """Gamma(1+d)/Gamma(1+a d) equals Gamma(d)/(a Gamma(a d)) for d > 0."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.75, 0.99])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 2.0, 3.7, 5.0])
    def test_on_grid(self, alpha, delta):
        lhs = gamma_fn(1.0 + delta) / gamma_fn(1.0 + alpha * delta)
        rhs = gamma_fn(delta) / (alpha * gamma_fn(alpha * delta))
        assert_allclose(lhs, rhs, rtol=1e-12)

    @given(alpha=st.floats(min_value=0.05, max_value=0.99),
           delta=st.floats(min_value=0.05, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_random_points(self, alpha, delta):
        lhs = gamma_fn(1.0 + delta) / gamma_fn(1.0 + alpha * delta)
        rhs = gamma_fn(delta) / (alpha * gamma_fn(alpha * delta))
        assert_allclose(lhs, rhs, rtol=1e-11)


class TestGjDensity:
    def test_m2_anchor(self):
        law = GjLaw(m=2, j=1, t=1.0)
        assert_allclose(gj_density(law, 1.0), half_alpha_density(1.0, 1.0),
                        rtol=1e-13)

    @pytest.mark.parametrize("m,j", [(3, 1), (3, 2)])
    def test_mass_is_one(self, m, j):
        law = GjLaw(m=m, j=j, t=1.0)
        scale = (m**m * law.t) ** (1.0 / (m - 1))
        hi = (50.0 * scale) ** (1.0 / m)

        def f(ws: np.ndarray) -> np.ndarray:
            return gj_density(law, ws)

        mass = integrate_adaptive(f, 1e-12, hi, 1e-12).value
        assert_allclose(mass, 1.0, rtol=0, atol=1e-10)

    def test_joint_form_factorizes(self):
        # Product of the two factor densities at (1, 1) collapses, through
        # the Gamma multiplication formula, to
        # (m / 2 pi)^{(m-1)/2} t^{-1/2} exp(-sum w_j^m / (m^m t)^{1/(m-1)}).
        t = 1.0
        got = (gj_density(GjLaw(m=3, j=1, t=t), 1.0)
               * gj_density(GjLaw(m=3, j=2, t=t), 1.0))
        want = (3.0 / (2.0 * math.pi)) * math.exp(-2.0 / math.sqrt(27.0))
        assert_allclose(got, want, rtol=1e-13)

    def test_rejects_nonpositive_w(self):
        law = GjLaw(m=3, j=1, t=1.0)
        with pytest.raises(DomainError):
            gj_density(law, 0.0)
        with pytest.raises(DomainError):
            gj_density(law, np.array([0.5, -1.0]))

    def test_law_validation(self):
        with pytest.raises(DomainError):
            GjLaw(m=1, j=1, t=1.0)
        with pytest.raises(DomainError):
            GjLaw(m=3, j=3, t=1.0)
        with pytest.raises(DomainError):
            GjLaw(m=3, j=0, t=1.0)
        with pytest.raises(DomainError):
            GjLaw(m=3, j=1, t=-1.0)


class TestDegenerateRoute:
    def test_density_refuses_point_mass(self):
        law = TimeChangeLaw(alpha=1.0, t=1.0)
        with pytest.raises(DomainError):
            time_density_grid(law, [1.0])

    def test_moment_is_plain_power(self):
        for delta in [0.5, 1.0, 2.0]:
            assert_allclose(time_moment(1.0, delta, 1.7), 1.7**delta,
                            rtol=1e-14)


class TestSelfSimilarity:
    @given(alpha=st.floats(min_value=0.2, max_value=0.8),
           u=st.floats(min_value=0.01, max_value=2.0),
           t=st.floats(min_value=0.4, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_wright_route_rescales(self, alpha, u, t):
        lhs = timelaw.wright_density(alpha, np.array([u]), t)
        rhs = t**-alpha * timelaw.wright_density(
            alpha, np.array([u * t**-alpha]), 1.0)
        assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-300)


class TestDualityDensity:
    """The package's density against the Wright oracle inside its guard,
    and on its own near alpha = 1, where every series route gives up."""

    @pytest.mark.parametrize("t", [0.05, 20.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_wright_inside_guard(self, alpha, t):
        # the float64 tier of the Wright series is good to ~1e-12 relative
        # near its edge; the duality is good to ~3e-14 there
        xs = np.linspace(0.0, 0.989 * wright_guard(-alpha, 1.0 - alpha), 13)
        us = xs * t**alpha
        got = time_density_grid(TimeChangeLaw(alpha, t), us)
        want = timelaw.wright_density(alpha, us, t)
        assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.999, 0.9995])
    def test_mass_and_mean_near_alpha_one(self, alpha):
        # the density piles up just right of u = 1 (its peak sits near
        # 1.005) and vanishes within ~0.01 beyond it; panels shrink
        # geometrically towards 1 from the left and are uniform across it
        edges = np.concatenate((1.0 - np.geomspace(1.0, 0.01, 8),
                                np.linspace(0.99, 1.02, 16)[1:]))
        zn, zw = leggauss(20)
        half = 0.5 * np.diff(edges)
        us = ((edges[:-1] + half)[:, None] + half[:, None] * zn).ravel()
        ws = (half[:, None] * zw).ravel()
        f = time_density_grid(TimeChangeLaw(alpha, 1.0), us)
        assert abs(ws @ f - 1.0) <= 1e-12
        assert abs(ws @ (us * f) - time_moment(alpha, 1.0, 1.0)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.999, 0.9995])
    def test_far_tail_near_alpha_one_is_finite(self, alpha):
        vals = time_density_grid(TimeChangeLaw(alpha, 1.0),
                                 np.array([2.0, 5.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def profile_nodes(alpha: float) -> np.ndarray:
    """The 769 Chebyshev-Lobatto nodes of the solver's largest time-law
    fit, on ``[0, x_clip]``."""
    x_clip = (46.0 / (1.0 - alpha)) ** (1.0 - alpha) / alpha ** alpha
    return 0.5 * x_clip * (1.0 - np.cos(np.pi * np.arange(769) / 768))


class TestOneCallPerRequest:
    """The density of a whole request comes from one array call; every
    point keeps the value it has alone."""

    @pytest.mark.parametrize("alpha", [0.005, 0.3, 0.97, 0.995, 0.998])
    def test_batch_matches_single_points(self, alpha):
        nodes = profile_nodes(alpha)
        us = np.concatenate((nodes, [-0.5, -1e-300, 1.5 * nodes[-1]]))
        law = TimeChangeLaw(alpha, 1.0)
        batch = time_density_grid(law, us)
        single = np.array([time_density_grid(law, [u])[0] for u in us])
        assert_allclose(batch, single, rtol=1e-14, atol=0.0)
        assert batch[0] == pytest.approx(1.0 / gamma_fn(1.0 - alpha),
                                         rel=1e-15)
        assert np.all(batch[-3:-1] == 0.0) and np.all(batch[1:-3] >= 0.0)

    def test_memory_of_a_full_fit_stays_small(self):
        # the stable density's (points x terms) and (nodes x points)
        # blocks come in chunks of at most 16384 elements
        law, nodes = TimeChangeLaw(0.995, 1.0), profile_nodes(0.995)
        time_density_grid(law, nodes)
        tracemalloc.start()
        try:
            time_density_grid(law, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestWrightOracleTail:
    """Near alpha = 1 the leading-order tail exponent leaves the float
    range at moderate x; the Wright oracle must clamp there, not raise."""

    @pytest.mark.parametrize("alpha, x", [(0.999, 5.0), (0.9995, 2.0),
                                          (0.9999, 1.1)])
    def test_log_decay_clamps_past_float_range(self, alpha, x):
        assert timelaw.wright_log_decay(x, -alpha) == -math.inf
        got = timelaw.wright_density(alpha, np.array([x]), 1.0)
        assert got[0] == 0.0