"""Tests for the special-function layer.

Reference values were frozen from extended-precision series evaluations
(mpmath, 120+ digits, argument arithmetic kept in working precision) and,
where marked, cross-checked against an independent integral representation
or a classical closed form.
"""
from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from fracheat import ConvergenceError, DomainError, SeriesRangeError
from fracheat import specfun
from fracheat.quadrature import integrate_adaptive
from fracheat.specfun import (
    MLParams,
    StableOneSided,
    StableSpectrallyNegative,
    WrightParams,
    mittag_leffler_grid,
    stable_one_sided_density_grid,
    stable_spec_neg_density_grid,
    wright_guard,
    wright_w_grid,
)
from oracles.mittag_leffler import ml_integral
from oracles.timelaw import wright_log_decay

SQRT_PI = math.sqrt(math.pi)

#: |z|^(1/alpha) of the contour tests: past the float64 Taylor disc out to
#: 250
_CONTOUR_BAND = np.geomspace(specfun._ML_F64_EXPONENT, 250.0, 6)[1:]


def _one(grid_fn, x: float, params) -> float:
    """The grid form of a special function at one point."""
    return float(grid_fn(np.array([float(x)]), params)[0])


def _ml_reference_mp(z: complex, alpha: float) -> complex:
    """E_alpha(z) by the extended-precision Taylor sum, with a digit for
    each decade the terms cancel."""
    return specfun._ml_taylor_mp(complex(z), alpha,
                                 0.434 * abs(z) ** (1.0 / alpha))


def _ml_one(z: complex, alpha: float) -> complex:
    """The grid Mittag-Leffler function at one point."""
    values, _ = mittag_leffler_grid(np.array([complex(z)]),
                                    MLParams(alpha=alpha))
    return complex(values[0])


class TestReciprocalGamma:
    """The series take every Gamma factor as the reciprocal ``rgamma`` that
    ``specfun`` imports, and rely on it being exactly 0 at the poles."""

    def test_positive_integers(self):
        ks = np.arange(1, 8, dtype=float)
        expected = 1.0 / np.array([math.gamma(k) for k in ks])
        assert_allclose(specfun.rgamma(ks), expected, rtol=1e-14)

    def test_vanishes_at_poles(self):
        assert specfun.rgamma(np.array([0.0, -1.0, -2.0, -5.0])).tolist() == [
            0.0, 0.0, 0.0, 0.0]

    def test_negative_noninteger(self):
        # 1/Gamma(-0.5) = -1/(2 sqrt(pi))
        assert specfun.rgamma(-0.5) == pytest.approx(-0.5 / SQRT_PI,
                                                     rel=1e-14)


class TestWrightParams:
    @pytest.mark.parametrize("eta", [-1.0, 0.0, 0.3, -1.5])
    def test_eta_outside_open_interval_rejected(self, eta):
        with pytest.raises(DomainError):
            WrightParams(eta=eta, beta=0.5)

    def test_nonfinite_beta_rejected(self):
        with pytest.raises(DomainError):
            WrightParams(eta=-0.5, beta=math.inf)


class TestWrightSeries:
    def test_value_at_origin(self):
        # W(0; eta, beta) = 1/Gamma(beta) regardless of eta.
        p = WrightParams(eta=-0.5, beta=0.5)
        assert _one(wright_w_grid, 0.0, p) == pytest.approx(1.0 / SQRT_PI,
                                                            rel=1e-14)

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 3.0, 6.0, 7.0])
    def test_gaussian_closed_form(self, y):
        # W(-y; -1/2, 1/2) = exp(-y^2/4)/sqrt(pi), covering both the
        # float64 tier (small y) and the extended tier (y >= 6).
        p = WrightParams(eta=-0.5, beta=0.5)
        expected = math.exp(-y * y / 4.0) / SQRT_PI
        assert _one(wright_w_grid, -y, p) == pytest.approx(expected,
                                                           rel=5e-10)

    @pytest.mark.parametrize(
        "x, eta, beta, expected",
        [
            # float64 tier
            (-2.0, -0.7, 0.3, 0.2491288580651962),
            (0.8, -0.3, 1.0, 1.765780395352533),
            (2.0, -0.4, 0.6, 0.5133803168869702),
            (-1.5, -0.9, 0.1, 0.455752510645285),
            # extended tier (several digits cancelled)
            (-5.5, -0.5, 1.0, 1.006219221196368e-4),
            (-1.7, -0.9, 0.1, 0.002817174203696691),
        ],
    )
    def test_frozen_references(self, x, eta, beta, expected):
        got = _one(wright_w_grid, x, WrightParams(eta=eta, beta=beta))
        assert got == pytest.approx(expected, rel=5e-10)

    def test_grid_matches_scalar(self):
        # a batch sizes its term count by its largest |x|, a single point
        # by its own
        p = WrightParams(eta=-0.6, beta=0.4)
        xs = np.linspace(-3.0, 1.0, 17)
        grid = wright_w_grid(xs, p)
        singles = np.array([_one(wright_w_grid, x, p) for x in xs])
        assert_allclose(grid, singles, rtol=1e-12)

    @pytest.mark.parametrize("x", [-30.0, -9.0, 9.0])
    def test_guard_raises_beyond_declared_range(self, x):
        with pytest.raises(SeriesRangeError):
            _one(wright_w_grid, x, WrightParams(eta=-0.5, beta=0.5))

    def test_guard_radius_value(self):
        # Guard solves 2 (1-a) (a^a X)^{1/(1-a)} = ln(1e12), i.e. 12 digits.
        a = 0.5
        x_guard = wright_guard(-0.5, 0.5)
        assert (1 - a) * (a ** a * x_guard) ** (1 / (1 - a)) == pytest.approx(
            0.5 * math.log(1e12), rel=1e-12)

    def test_log_decay_predicts_magnitude(self):
        # ln W(-y; -1/2, 1/2) = -y^2/4 - ln sqrt(pi); leading term is -y^2/4.
        assert wright_log_decay(6.0, -0.5) == pytest.approx(-9.0, rel=1e-12)
        assert wright_log_decay(0.0, -0.5) == 0.0

    @pytest.mark.parametrize("alpha, expected", [
        # 60+ digit mpmath sums of W(-1.03; -alpha, 1 - alpha)
        (0.95, 1.8302398921447955),
        (0.97, 2.8912406130913033),
        (0.985, 6.3366705666121295),
        (0.99, 11.5538807614192),
    ])
    def test_near_one_escalates_when_terms_run_out(self, alpha, expected):
        # Near alpha = 1 the float64 term budget ends before the terms are
        # negligible; those entries must escalate, not return a partial sum.
        got = _one(wright_w_grid, -1.03,
                   WrightParams(eta=-alpha, beta=1.0 - alpha))
        assert got == pytest.approx(expected, rel=1e-10)

    @given(y=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_density_branch_nonnegative(self, y):
        # W(-y; -a, 1-a) is a probability density in y for a in (0,1).
        p = WrightParams(eta=-0.6, beta=0.4)
        assert _one(wright_w_grid, -y, p) >= 0.0


class TestMittagLefflerParams:
    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.2])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError):
            MLParams(alpha=alpha)


class TestMittagLeffler:
    def test_exponential_branch(self):
        for z in [0.3, -2.0, 1.5j, -0.2 + 0.7j]:
            assert _ml_one(z, 1.0) == pytest.approx(complex(np.exp(z)),
                                                    rel=1e-13)

    @pytest.mark.parametrize("x", [-4.0, -1.0, 2.0])
    def test_half_order_closed_form(self, x):
        # E_{1/2}(x) = exp(x^2) erfc(-x)
        expected = math.exp(x * x) * math.erfc(-x)
        assert _ml_one(x, 0.5).real == pytest.approx(expected, rel=1e-12)

    def test_half_order_bars_hold(self):
        """The Faddeeva branch against ``e^{z^2} erfc(-z)`` at 40 digits:
        the Taylor disc, the band ``Re z^2 < 600`` out to ``|z| = 400``
        (the diagonals included, where ``e^{z^2}`` amplifies the rounding
        of ``z`` most), and the rays -1 and +-i."""
        angles = np.linspace(-math.pi, math.pi, 48, endpoint=False)
        disc = np.outer(np.sqrt(np.linspace(0.0, specfun._ML_F64_EXPONENT, 8)),
                        np.exp(1j * angles[::4])).ravel()
        band = np.outer(np.geomspace(math.sqrt(specfun._ML_F64_EXPONENT),
                                     400.0, 30), np.exp(1j * angles)).ravel()
        band = band[(band * band).real < 600.0]
        rays = np.outer([-1.0, 1j, -1j], np.geomspace(0.1, 400.0, 40)).ravel()
        zs = np.concatenate((disc, band, rays))
        vals, errs = mittag_leffler_grid(zs, MLParams(alpha=0.5))
        with mpmath.workdps(40):
            for z, v, e in zip(zs, vals, errs):
                w = mpmath.mpc(z.real, z.imag)
                assert abs(v - complex(mpmath.exp(w * w)
                                       * mpmath.erfc(-w))) <= e

    @pytest.mark.parametrize(
        "alpha, z, expected",
        [
            # Taylor tier, cross-checked against the spectral integral
            (0.4, -2.0, 0.273535299960679535),
            # contour tier, at |z|^(1/alpha) = 23, 44 and 91
            (0.7, -9.0, 0.0405311972673506832),
            (0.9, -30.0, 0.00371370769845985211),
            (0.6, -15.0, 0.0307594912564634804),
        ],
    )
    def test_negative_axis_references(self, alpha, z, expected):
        got = _ml_one(z, alpha)
        assert got.real == pytest.approx(expected, rel=2e-9)
        assert abs(got.imag) <= 1e-12 * abs(got.real)

    @pytest.mark.parametrize(
        "alpha, z, expected",
        [
            (0.7, 6j, -0.00801107184315307799 + 0.0548135463624781568j),
            (0.9, -40j, -0.000138343329124546988 - 0.00263224882386545294j),
        ],
    )
    def test_imaginary_axis_references(self, alpha, z, expected):
        got = _ml_one(z, alpha)
        assert got == pytest.approx(expected, rel=5e-9)

    def test_grid_matches_pointwise(self):
        p = MLParams(alpha=0.8)
        # the Taylor disc |z|^(1/alpha) <= 6.9 and the contour beyond
        zs = np.array([-0.5, -8.0, -40.0, 3j, -2 + 1j, 0.0, 0.9, -3.2,
                       2.5, 0.25j, -1.7 + 0.4j, 1.1 - 2.6j], dtype=complex)
        grid_vals, grid_errs = mittag_leffler_grid(zs, p)
        for i, z in enumerate(zs):
            v = _ml_one(z, 0.8)
            assert grid_vals[i] == pytest.approx(v, rel=1e-12, abs=1e-300)
        assert np.all(grid_errs >= 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.62, 0.9])
    def test_bars_hold_near_sector_boundary(self, alpha):
        """Across ``arg z = +-alpha pi`` the pole ``z^(1/alpha)`` enters
        or leaves the principal sheet next to the branch cut, where the
        contour passes close to it.  Within 0.05 rad of that direction, on
        both sides of it, the bars bound the distance to the
        extended-precision sum."""
        p = MLParams(alpha=alpha)
        for sign in (1.0, -1.0):
            for offset in (-0.05, -0.002, 0.002, 0.05):
                theta = sign * (alpha * math.pi + offset)
                zs = np.array([12.0, 40.0]) ** alpha * np.exp(1j * theta)
                vals, errs = mittag_leffler_grid(zs, p)
                for z, v, e in zip(zs, vals, errs):
                    assert abs(v - _ml_reference_mp(z, alpha)) <= e

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.75,
                                       0.8, 0.9, 0.99])
    def test_bars_hold_where_asymptotics_failed(self, alpha):
        """The rays -1 and +i at ``|z|^(1/alpha)`` from 25.5 to 40: the
        asymptotic expansion that once served this range reported bars
        that missed its error by up to 6e34, and bars of exactly 0 where
        ``alpha N`` is an integer (0.55, 0.8)."""
        p = MLParams(alpha=alpha)
        radii = np.array([25.5, 28.0, 32.0, 40.0]) ** alpha
        for ray in (-1.0, 1j):
            zs = ray * radii
            vals, errs = mittag_leffler_grid(zs, p)
            for z, v, e in zip(zs, vals, errs):
                assert abs(v - _ml_reference_mp(z, alpha)) <= e

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.8])
    def test_completely_monotone_on_negative_axis(self, alpha):
        # E_alpha(-x) decreases from 1 and stays positive.
        p = MLParams(alpha=alpha)
        xs = np.linspace(0.0, 60.0, 121)
        vals = mittag_leffler_grid(-xs.astype(complex), p)[0].real
        assert vals[0] == pytest.approx(1.0, rel=1e-13)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.083, 0.15, 0.25, 0.38])
    def test_float64_taylor_tier_within_its_bars(self, alpha):
        """Small alpha: the float64 Taylor tier sums far past its peak
        term, and its reported error bounds the distance to the
        extended-precision sum on the rays -1 and +-i up to the tier edge."""
        p = MLParams(alpha=alpha)
        radii = np.linspace(0.05, 1.0, 8) * specfun._ML_F64_EXPONENT ** alpha
        for ray in (-1.0, 1j, -1j):
            zs = ray * radii
            vals, errs = mittag_leffler_grid(zs, p)
            for z, v, e in zip(zs, vals, errs):
                assert abs(v - _ml_reference_mp(z, alpha)) <= e

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.38, 0.52, 0.55, 0.62,
                                       0.65, 0.7, 0.8, 0.9, 0.95])
    def test_contour_tier_within_its_bars(self, alpha):
        """Past the float64 Taylor disc the value comes from the optimal
        parabolic contour.  On the solver's rays -1 and +-i, out to
        ``|z|^(1/alpha) = 250``, its reported error bounds the distance to
        the integral representation.  For +-i and alpha > 1/2 the pole at
        angle pi / (2 alpha) lies on the principal sheet: at 0.52 the
        contour passes right of it out to ``|z|^(1/alpha) = 60`` and
        between it and the branch point beyond, adding its residue; from
        0.55 on it passes between them all along the band."""
        p = MLParams(alpha=alpha)
        for ray in (-1.0, 1j, -1j):
            zs = ray * _CONTOUR_BAND ** alpha
            vals, errs = mittag_leffler_grid(zs, p)
            for z, v, e in zip(zs, vals, errs):
                assert abs(v - ml_integral(z, alpha)) <= e
                # absolute, as the Fourier route charges it: ml_err * B
                assert e <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_contour_tier_within_its_bars_off_the_rays(self, seed):
        """Random directions, and ``arg z`` just inside ``alpha pi``,
        where the pole nears the branch cut.  Where ``Re s* > 0`` the
        residue grows like ``e^{|z|^(1/alpha)}`` and the bar with it."""
        rng = np.random.default_rng(seed)
        for alpha in rng.uniform(0.05, 0.98, 6):
            root = rng.uniform(specfun._ML_F64_EXPONENT, _CONTOUR_BAND[-1], 4)
            theta = np.concatenate([rng.uniform(-math.pi, math.pi, 3),
                                    [alpha * math.pi * (1.0 - 1e-3)]])
            zs = root ** alpha * np.exp(1j * theta)
            vals, errs = mittag_leffler_grid(zs, MLParams(alpha=alpha))
            for z, v, e in zip(zs, vals, errs):
                assert abs(v - ml_integral(z, alpha)) <= e

    def test_contour_grid_matches_pointwise(self):
        """Points of different node counts share the chunks of one grid
        call; each is summed over its own nodes only."""
        rng = np.random.default_rng(7)
        alpha = 0.8
        root = rng.uniform(specfun._ML_F64_EXPONENT, _CONTOUR_BAND[-1], 300)
        zs = root ** alpha * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
        p = MLParams(alpha=alpha)
        grid_vals, grid_errs = mittag_leffler_grid(zs, p)
        for z, v, e in zip(zs, grid_vals, grid_errs):
            one_v, one_e = mittag_leffler_grid(np.array([z]), p)
            assert v == pytest.approx(one_v[0], rel=1e-13, abs=1e-15)
            assert e == pytest.approx(one_e[0], rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.005, 0.05, 0.3, 0.55, 0.99])
    def test_contour_far_out_without_overflow(self, alpha):
        """Out to ``|z|^(1/alpha) = 1e4`` (at alpha = 0.005 that power
        overflows a float) the contour forms no pole where there is none
        and no residue it does not add, so no floating-point warning is
        raised, and the bars still hold at the far end."""
        p = MLParams(alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ray in (-1.0, 1j, -1j):
                zs = ray * np.geomspace(10.0, 1e4, 7) ** alpha
                vals, errs = mittag_leffler_grid(zs, p)
                assert np.all(np.isfinite(vals))
                assert np.all(np.isfinite(errs))
                assert abs(vals[-1] - ml_integral(zs[-1], alpha)) <= errs[-1]

    def test_residue_beyond_float_range_refuses(self):
        """Where the residue ``e^{z^(1/alpha)} / alpha`` leaves the float
        range the value does too: a typed refusal, not inf or nan."""
        with pytest.raises(DomainError, match="float range"):
            mittag_leffler_grid(np.array([800.0 ** 0.7, -1.0]),
                                MLParams(alpha=0.7))

    def test_integral_oracle_matches_taylor_sum(self):
        """The integral representation the contour tests use agrees with
        the extended-precision Taylor sum, on both sides of the sector
        edge and close to it."""
        for alpha in (0.2, 0.65, 0.93):
            for theta in (0.0, 0.5 * math.pi, math.pi,
                          alpha * math.pi * (1.0 - 1e-3),
                          alpha * math.pi * (1.0 + 1e-3)):
                z = 20.0 ** alpha * np.exp(1j * theta)
                ref = _ml_reference_mp(z, alpha)
                assert abs(ml_integral(z, alpha) - ref) <= 1e-17 * max(
                    1.0, abs(ref))


class TestStableOneSided:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.3])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError):
            StableOneSided(alpha=alpha, u=1.0)

    def test_u_positive(self):
        with pytest.raises(DomainError):
            StableOneSided(alpha=0.5, u=0.0)

    def test_w_positive(self):
        with pytest.raises(DomainError):
            _one(stable_one_sided_density_grid, 0.0,
                 StableOneSided(alpha=0.5, u=1.0))

    @pytest.mark.parametrize("w", [0.005, 0.05, 0.2, 1.0, 10.0, 200.0])
    def test_half_order_closed_form(self, w):
        # alpha = 1/2 with Laplace exponent s^{1/2} u is the one-sided law
        # u/(2 sqrt(pi)) w^{-3/2} exp(-u^2/(4w)); spans both internal routes.
        u = 1.0
        expected = u / (2.0 * SQRT_PI) * w ** -1.5 * math.exp(-u * u / (4.0 * w))
        got = _one(stable_one_sided_density_grid, w,
                   StableOneSided(alpha=0.5, u=u))
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "alpha, u, w, expected",
        [
            (0.7, 1.0, 2.0, 0.1076883448743371),
            (0.7, 1.0, 0.3, 0.633115180649307),
            (0.3, 1.0, 0.5, 0.2406457830254287),
            (0.9, 2.0, 1.2, 0.004025316917192017),
            (0.4, 0.5, 3.0, 0.02551384776783641),
        ],
    )
    def test_frozen_references(self, alpha, u, w, expected):
        got = _one(stable_one_sided_density_grid, w,
                   StableOneSided(alpha=alpha, u=u))
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("alpha, u", [(0.4, 1.0), (0.6, 0.7), (0.85, 2.0)])
    def test_normalization(self, alpha, u):
        # The law is heavy-tailed: f(w) ~ c w^{-1-alpha}, so the far part
        # goes to QUADPACK's transformed infinite-range rule.
        spec = StableOneSided(alpha=alpha, u=u)

        def f(w):
            return _one(stable_one_sided_density_grid, w, spec)

        head, _ = quad(f, 1e-12, 1.0, epsabs=1e-11, limit=200)
        tail, _ = quad(f, 1.0, np.inf, epsabs=1e-11, limit=200)
        assert head + tail == pytest.approx(1.0, abs=5e-7)

    @pytest.mark.parametrize("alpha, s, u", [(0.5, 1.0, 1.0), (0.7, 2.0, 0.6),
                                             (0.3, 0.5, 1.5)])
    def test_laplace_transform_identity(self, alpha, s, u):
        # int_0^inf e^{-s w} f(w) dw = exp(-s^alpha u)
        spec = StableOneSided(alpha=alpha, u=u)

        def f(w):
            return math.exp(-s * w) * _one(stable_one_sided_density_grid, w,
                                           spec)

        value, _ = quad(f, 1e-12, np.inf, epsabs=1e-12, epsrel=1e-11,
                        limit=200)
        assert value == pytest.approx(math.exp(-s ** alpha * u), rel=1e-8)

    @pytest.mark.parametrize("alpha, w, expected", [
        # alpha x^{1+1/alpha} W(-x; -alpha, 1-alpha) at x = w^-alpha, summed
        # in mpmath: where the series cancels a few digits
        (0.9, 0.5698813110925782, 0.03664101133427505),
        (0.9, 0.5931984659873031, 0.1876352359141509),
        (0.95, 0.7731997618154967, 1.3227192546936175),
    ])
    def test_crossover_accuracy(self, alpha, w, expected):
        got = stable_one_sided_density_grid(
            np.array([w]), StableOneSided(alpha=alpha, u=1.0))
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_finite_near_alpha_one(self):
        # the integral form's powers of w overflow near alpha = 1; the
        # density there is superexponentially small, not undefined
        got = stable_one_sided_density_grid(
            np.array([0.01, 0.5, 1.0]), StableOneSided(alpha=0.995, u=1.0))
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert got[2] > 0.1

    def test_unresolved_integral_refuses(self):
        # near alpha = 1 the integrand's peak by theta = pi is too narrow
        # for every rung at moderate w; the last rung is 3e-7 off there
        with pytest.raises(ConvergenceError):
            specfun._zolotarev_values(np.array([1.65]), 0.99)

    def test_scaling_reduction(self):
        # f(w; u) = u^{-1/alpha} f(w u^{-1/alpha}; 1)
        alpha, u = 0.6, 3.0
        scale = u ** (-1.0 / alpha)
        w = np.array([0.5, 1.0, 4.0])
        direct = stable_one_sided_density_grid(w, StableOneSided(alpha=alpha, u=u))
        reduced = scale * stable_one_sided_density_grid(
            w * scale, StableOneSided(alpha=alpha, u=1.0))
        assert_allclose(direct, reduced, rtol=1e-8)

    def test_grid_matches_scalar(self):
        # every point of a batch sums its own term count and climbs the
        # Zolotarev ladder alone, as it would on its own
        spec = StableOneSided(alpha=0.7, u=1.2)
        ws = np.array([0.05, 0.3, 1.0, 5.0])
        grid = stable_one_sided_density_grid(ws, spec)
        singles = [_one(stable_one_sided_density_grid, w, spec) for w in ws]
        assert_allclose(grid, singles, rtol=1e-12)

    def test_mixed_rungs_keep_single_point_values(self):
        # at alpha = 0.99 these points settle on the rungs of 480, 960 and
        # 1920 nodes; judged together, the first ones would take the last
        # rung's values, about 1.5e-13 away
        w = np.array([0.9, 1.0, 1.05, 1.1, 1.2])
        log_scale = np.zeros(w.size)
        batch = specfun._zolotarev_values(w, 0.99, log_scale)
        single = [specfun._zolotarev_values(w[i:i + 1], 0.99, 0.0)[0]
                  for i in range(w.size)]
        assert_allclose(batch, single, rtol=1e-14, atol=0.0)

    def test_mixed_term_counts_keep_single_point_values(self):
        # near alpha = 1 a peak index just under 0.1 (u = 0.97) needs
        # thousands of terms and one past it (u = 1.02) needs 79: sized by
        # the larger peak index, u = 0.97 would stall
        log_u = np.log([1e-5, 0.5, 0.9, 0.97, 1.02])
        w = np.ones(log_u.size)
        batch, cond = specfun._stable_series_f64(w, 0.99, log_u)
        for i in range(w.size):
            one, one_cond = specfun._stable_series_f64(w[i:i + 1], 0.99,
                                                       log_u[i:i + 1])
            assert batch[i] == pytest.approx(one[0], rel=1e-14)
            assert (cond[i] <= 3.0) == (one_cond[0] <= 3.0)
        assert np.all(cond[:4] <= 3.0)


class TestStableSpectrallyNegative:
    @pytest.mark.parametrize("alpha", [0.4, 1.0, 1.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError):
            StableSpectrallyNegative(alpha=alpha, t=1.0)

    def test_u_nonnegative(self):
        with pytest.raises(DomainError):
            _one(stable_spec_neg_density_grid, -0.1,
                 StableSpectrallyNegative(alpha=0.5, t=1.0))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0, 3.0, 5.0])
    def test_half_order_gaussian(self, u, t):
        # At alpha = 1/2 the positive branch equals the N(0, 2t) density.
        expected = math.exp(-u * u / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        got = _one(stable_spec_neg_density_grid, u,
                   StableSpectrallyNegative(alpha=0.5, t=t))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "u, t, expected",
        [
            (0.3, 1.0, 0.292383339223652),
            (1.0, 0.5, 0.482559559234681),
            (2.0, 2.0, 0.232717536592797),
        ],
    )
    def test_frozen_references_07(self, u, t, expected):
        got = _one(stable_spec_neg_density_grid, u,
                   StableSpectrallyNegative(alpha=0.7, t=t))
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha, t", [(0.55, 1.0), (0.7, 0.8), (0.8, 2.0)])
    def test_positive_branch_mass(self, alpha, t):
        # The positive branch carries total mass alpha.  Integrate up to
        # just inside the series guard; the density there is ~1e-6 and
        # falls off superexponentially, so the cut truncates ~1e-5 mass.
        spec = StableSpectrallyNegative(alpha=alpha, t=t)
        x_guard = ((0.5 * math.log(1e12) / (1.0 - alpha))
                   ** (1.0 - alpha) / alpha ** alpha)
        u_hi = 0.97 * x_guard * t ** alpha

        def f(u):
            return stable_spec_neg_density_grid(u, spec)

        res = integrate_adaptive(f, 0.0, u_hi, tol=1e-9)
        assert res.value == pytest.approx(alpha, abs=5e-5)

    def test_grid_matches_scalar(self):
        spec = StableSpectrallyNegative(alpha=0.8, t=1.3)
        us = np.array([0.0, 0.4, 1.1, 2.7])
        grid = stable_spec_neg_density_grid(us, spec)
        singles = [_one(stable_spec_neg_density_grid, u, spec) for u in us]
        assert_allclose(grid, singles, rtol=1e-12)


class TestExtendedPrecisionCap:
    """Every extended-precision loop stops at a cap set by one constant and
    raises."""

    @pytest.mark.parametrize("evaluate", [
        lambda: _one(wright_w_grid, -5.5, WrightParams(eta=-0.5, beta=1.0)),
        lambda: _one(stable_spec_neg_density_grid, 3.5,
                     StableSpectrallyNegative(alpha=0.7, t=1.0)),
        lambda: specfun._ml_taylor_mp(-5.0 + 0.0j, 0.7, 4.3),
    ], ids=["wright", "spec_neg", "mittag_leffler"])
    def test_cap_raises_instead_of_partial_sum(self, monkeypatch, evaluate):
        evaluate()  # converges under the real cap
        monkeypatch.setattr(specfun, "_MP_TERM_CAP", 5)
        with pytest.raises(ConvergenceError):
            evaluate()
