"""Tests for the quadrature engines.

Reference values marked "frozen" were produced by independent brute-force
oracles (graded-mesh midpoint refinement, finite-cutoff oscillatory sums
with Richardson extrapolation, extended-precision contour integration) and
pinned here as literals.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from fracheat import kernel, quadrature
from fracheat._errors import ConvergenceError, DomainError
from fracheat.kernel import (
    EquationSpec,
    kernel_contour_values,
    kernel_density_grid,
    make_equation_spec,
)
from fracheat.quadrature import (
    JacobiWeight,
    euler_tail_sum,
    integrate_adaptive,
    integrate_jacobi_singular,
)

SQRT_PI = math.sqrt(math.pi)


def folded_normal(u, t=1.0):
    """Density of |N(0, 2t)|: e^{-u^2/4t} / sqrt(pi t)."""
    u = np.asarray(u)
    return np.exp(-(u ** 2) / (4.0 * t)) / math.sqrt(math.pi * t)


class TestAdaptive:
    def test_linear(self):
        res = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-12)
        assert_allclose(res.value, 0.5, atol=1e-12)
        assert res.evaluations > 0
        assert res.error_estimate >= 0.0

    def test_gaussian_mass(self):
        res = integrate_adaptive(
            lambda x: np.exp(-x ** 2 / 4.0) / math.sqrt(4.0 * math.pi),
            -40.0, 40.0, 1e-13)
        assert_allclose(res.value, 1.0, atol=1e-12)

    def test_first_moment_of_folded_normal(self):
        # int_0^inf u * |N(0,2)| density du = 2/sqrt(pi)
        res = integrate_adaptive(lambda u: u * folded_normal(u), 0.0, 60.0,
                                 1e-10)
        assert_allclose(res.value, 2.0 / SQRT_PI, atol=1e-9)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # Hundreds of cycles cannot be resolved on 16 panels.
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        with pytest.raises(ConvergenceError, match="panels"):
            integrate_adaptive(lambda x: np.sin(1000.0 * x), 0.0, 1.0,
                               1e-14)

    def test_vector_integrand_rejected(self):
        with pytest.raises(DomainError, match="one real value per node"):
            integrate_adaptive(lambda x: np.stack((x, x * x), axis=1),
                               0.0, 1.0)

    def test_non_finite_integrand_refused(self):
        with pytest.raises(ConvergenceError, match="non-finite"):
            integrate_adaptive(lambda x: np.where(x > 0.5, np.nan, x),
                               0.0, 1.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0)

    def test_doubled_node_recomputation(self):
        tol = 1e-9
        f = lambda x: np.sin(3.0 * x) * np.exp(-x)
        base = integrate_adaptive(f, 0.0, 5.0, tol)
        doubled = integrate_adaptive(f, 0.0, 5.0, tol, initial_intervals=2)
        assert base.error_estimate <= tol
        assert abs(base.value - doubled.value) <= 2.0 * tol

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_exactness_property(self, c, span):
        res = integrate_adaptive(lambda x: 2.0 * x + c, 0.0, span, 1e-12)
        assert_allclose(res.value, span ** 2 + c * span,
                        rtol=1e-10, atol=1e-10)

    def test_point_is_batch_invariant(self):
        """A point's value and bar are bit for bit the same alone and
        behind 999 other points of one engine call."""
        shift = np.linspace(-0.9, 0.9, 1000)

        def runge(x, p):
            return 1.0 / (1.0 + 25.0 * (x - shift[p]) ** 2)

        ones = np.ones(1000)
        values, errors, _ = quadrature._integrate_points(
            runge, -ones, ones, np.arange(1000), np.full(1000, 1e-10))
        for i in (0, 517, 999):
            one_val, one_err, _ = quadrature._integrate_points(
                lambda x, p: runge(x, p + i), -ones[:1], ones[:1],
                np.zeros(1, int), np.full(1, 1e-10))
            assert values[i] == one_val[0]
            assert errors[i] == one_err[0]


class TestGaussLegendre:
    @pytest.mark.parametrize("m", [8, 16, 136, 240, 960])
    def test_end_weights_match_extended_precision(self, m):
        """The weights sum to 2, and the weights next to the ends, where
        rounding of the nodes would move them most, are within 1e-11
        relative of the rule at the exact roots."""
        x, w = quadrature.gauss_legendre(m)
        assert x.size == w.size == m and np.all(np.diff(x) > 0.0)
        assert w.sum() == pytest.approx(2.0, rel=1e-14)
        assert_array_equal(x, -x[::-1])
        for i in (0, m - 1):
            with mpmath.workdps(40):
                r = mpmath.mpf(x[i])
                for _ in range(5):
                    p, q = mpmath.legendre(m, r), mpmath.legendre(m - 1, r)
                    r -= p * (1 - r * r) / (m * (q - r * p))
                exact = 2 * (1 - r * r) / (m * mpmath.legendre(m - 1, r)) ** 2
                assert abs(w[i] / exact - 1) <= 1e-11


class TestJacobiSingular:
    def test_constant_right_singularity(self):
        res = integrate_jacobi_singular(lambda w: np.ones_like(w), 0.0, 1.0,
                                        JacobiWeight(-0.5, "right"), 1e-12)
        assert_allclose(res.value, 2.0, atol=1e-12)

    def test_beta_half_half(self):
        # f(w) = w^{-1/2} against the (1-w)^{-1/2} endpoint weight.
        res = integrate_jacobi_singular(lambda w: w ** -0.5, 0.0, 1.0,
                                        JacobiWeight(-0.5, "right"), 1e-9)
        assert_allclose(res.value, math.pi, atol=2e-8)

    def test_levy_smoothing_identity(self):
        # (1/Gamma(1/2)) int_0^1 (1-w)^{-1/2} e^{-1/4w}/(2 sqrt(pi w^3)) dw
        #   = e^{-1/4}/sqrt(pi)
        def levy(w):
            w = np.asarray(w)
            return np.exp(-1.0 / (4.0 * w)) / (2.0 * np.sqrt(np.pi * w ** 3))

        res = integrate_jacobi_singular(levy, 0.0, 1.0,
                                        JacobiWeight(-0.5, "right"), 1e-11)
        assert_allclose(res.value / math.gamma(0.5),
                        math.exp(-0.25) / SQRT_PI, atol=1e-10)

    def test_power_times_power_weight(self):
        # frozen from a both-ends graded product-midpoint oracle
        # (N = 10000/20000 cells, Richardson-extrapolated)
        oracle = 3.004811841867767
        res = integrate_jacobi_singular(lambda w: w ** 0.3, 0.0, 1.0,
                                        JacobiWeight(-0.7, "right"), 1e-10)
        assert_allclose(res.value, oracle, atol=1e-8)

    @pytest.mark.parametrize("f, exponent, tol", [
        (lambda w: w ** -0.5, -0.5, 1e-9),
        (lambda w: w ** 0.3, -0.7, 1e-10),
    ], ids=["beta_half_half", "power_times_power"])
    def test_stalled_rule_finishes_in_one_engine_call(self, monkeypatch, f,
                                                      exponent, tol):
        """Where doubling the rule stalls, both halves of the interval go
        through one engine call, without recursion."""
        calls = {"engine": 0, "jacobi": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(quadrature, "_integrate_points",
                            counted("engine", quadrature._integrate_points))
        monkeypatch.setattr(
            quadrature, "integrate_jacobi_singular",
            counted("jacobi", quadrature.integrate_jacobi_singular))
        res = quadrature.integrate_jacobi_singular(
            f, 0.0, 1.0, JacobiWeight(exponent, "right"), tol)
        assert calls == {"engine": 1, "jacobi": 1}
        assert res.evaluations > 2040  # the doubling ran to 1024 nodes

    @pytest.mark.parametrize("exponent",
                             [-0.1, -0.2, -0.3, -0.4, -0.5,
                              -0.6, -0.7, -0.8, -0.9])
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_constant_closed_form(self, exponent, endpoint):
        res = integrate_jacobi_singular(lambda w: np.ones_like(w), 0.0, 1.0,
                                        JacobiWeight(exponent, endpoint),
                                        1e-13)
        assert_allclose(res.value, 1.0 / (1.0 + exponent), atol=1e-12)

    def test_invalid_weight_rejected(self):
        with pytest.raises(DomainError):
            JacobiWeight(-1.0, "right")
        with pytest.raises(DomainError):
            JacobiWeight(-0.5, "middle")


class TestOscillatoryRay:
    """The kernel contour, ``kernel.kernel_contour_values`` at ``t = 1``,
    and through ``kernel_density_grid`` at other times."""

    @pytest.mark.parametrize("t", [1.0 / 3.0, 1.0, 7.0])
    @pytest.mark.parametrize("n, sign", [
        (n, s) for n in range(2, 9) for s in ((1, -1) if n % 2 else (1,))])
    def test_origin_closed_form(self, n, sign, t):
        # p_n(0, t) = t^(-1/n) Gamma(1 + 1/n) c_n / pi, with c_n = 1 for
        # even n and cos(pi / (2n)) for odd n; the frozen oracle values at
        # the origin (n = 2..5) agree with it to 2e-16
        c_n = 1.0 if n % 2 == 0 else math.cos(math.pi / (2.0 * n))
        vals, _, _ = kernel_density_grid(EquationSpec(n, sign), 0.0, t,
                                         1e-10)
        assert_allclose(vals[0], t ** (-1.0 / n) * math.gamma(1.0 + 1.0 / n)
                        * c_n / math.pi, rtol=0.0, atol=1e-10)

    def test_gaussian_offcenter(self):
        vals, _, _ = kernel_contour_values(EquationSpec(2), 2.0, 1e-10)
        assert_allclose(vals[0], math.exp(-1.0) / math.sqrt(4.0 * math.pi),
                        atol=1e-10)

    @pytest.mark.parametrize("x, t, expected", [
        # frozen from extended-precision rotated-contour integration
        (0.0, 1.0, 0.2779578582602068),
        (1.5, 1.0, 0.1274996408081853),
        (-1.5, 1.0, 0.3040158738216629),
    ])
    def test_fifth_order_values(self, x, t, expected):
        vals, _, _ = kernel_density_grid(EquationSpec(5, 1), x, t, 1e-10)
        assert_allclose(vals[0], expected, atol=1e-9)

    def test_fifth_order_mirror_symmetry(self):
        plus, _, _ = kernel_contour_values(EquationSpec(5, 1), -1.5, 1e-10)
        minus, _, _ = kernel_contour_values(EquationSpec(5, -1), 1.5, 1e-10)
        assert_allclose(plus[0], minus[0], atol=1e-10)

    @pytest.mark.parametrize("x, t, expected", [
        # frozen from extended-precision cosine-transform integration
        (0.0, 1.0, 0.2885168693082348),
        (1.0, 1.0, 0.2426650945641037),
        (2.5, 0.5, 0.04059788834746792),
        (4.0, 1.0, -0.02258719805410781),
    ])
    def test_fourth_order_values(self, x, t, expected):
        # k_4 = -1 is the well-posed sign; EquationSpec derives it
        vals, _, _ = kernel_density_grid(EquationSpec(4), x, t, 1e-11)
        assert_allclose(vals[0], expected, atol=1e-10)

    def test_even_matches_independent_cosine_path(self):
        # Two code paths: the contour engine versus QUADPACK's semi-infinite
        # integral of e^{-t z^n} cos(x z) / pi.
        for x in (0.0, 0.7, 2.2):
            ray, _, _ = kernel_contour_values(EquationSpec(4), x, 1e-11)
            direct, _ = quad(
                lambda z: math.exp(-z ** 4) * math.cos(x * z) / math.pi,
                0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
            assert_allclose(ray[0], direct, atol=1e-10)

    @pytest.mark.parametrize("x", [-3.0, -0.5, 0.0, 1.0, 4.0])
    def test_split_radius_invariance(self, x):
        """The two paths of the oscillatory side of odd n agree around the
        switch at |y| = 2n: the ray along the valley centre alone, and the
        ray across the real axis plus the steepest-descent leg.  Both run
        in the frame k i^n = i that every odd spec maps to, at
        |y| = (2 + x/8) n, that is from 1.625 n to 2.5 n.  Below the switch
        the leg's two rules part by up to 1.3e-12, which its bar shows."""
        for n in (3, 5, 7):
            ya = (2.0 + x / 8.0) * n * np.linspace(0.98, 1.02, 9)
            ray, ray_bar = kernel._ray(
                n, -ya, np.full(ya.size, math.pi / (2 * n)), -1.0 + 0.0j, 0)
            split, split_bar = kernel._ray(
                n, -ya, np.full(ya.size, -3.0 * math.pi / (2 * n)),
                -1.0 + 0.0j, 0)
            leg, leg_bar = kernel._saddle_leg(n, ya, 0)
            assert np.max(np.abs(ray - split - leg)) <= 1e-13 * math.pi
            # each path's own bar holds where it serves, and past it
            assert np.max(ray_bar) <= 1e-13 * math.pi
            if x >= 0.0:
                assert np.max(split_bar + leg_bar) <= 1e-13 * math.pi

    def test_batch_matches_pointwise(self):
        """Every point has its own path and rule, so a value is the same
        bit for bit alone and inside a batch, whatever the batch holds."""
        ys = np.random.default_rng(3).uniform(-30.0, 30.0, 600)
        for n, sign in ((2, 1), (3, 1), (3, -1), (6, 1), (7, -1)):
            spec = EquationSpec(n, sign)
            vals, err, _ = kernel_contour_values(spec, ys, 1e-10)
            for i in range(0, ys.size, 23):
                single, single_err, _ = kernel_contour_values(spec, ys[i],
                                                              1e-10)
                assert_array_equal(single, vals[i:i + 1])
                assert single_err <= err

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            kernel_density_grid(EquationSpec(3), 0.0, -1.0)
        with pytest.raises(DomainError):
            make_equation_spec(1, 1)
        with pytest.raises(DomainError):
            make_equation_spec(3, 2)


class TestEulerTailSum:
    def test_geometric_alternating(self):
        blocks = [(-0.5) ** j for j in range(20)]
        value, err = euler_tail_sum(blocks)
        assert_allclose(value, 2.0 / 3.0, atol=1e-12)
        assert err < 1e-10

    def test_abel_sum_of_growing_series(self):
        # 1 - 2 + 3 - 4 + ... has Abel/Euler sum 1/4; the averaging
        # triangle must tame linear lobe growth.
        blocks = [(-1.0) ** j * (j + 1) for j in range(24)]
        value, err = euler_tail_sum(blocks)
        assert_allclose(value, 0.25, atol=1e-9)
        assert err < 1e-7

    def test_sine_integral_lobes(self):
        # int_0^inf sin(x) dx has lobe integrals (-1)^j * 2 over
        # [j pi, (j+1) pi]; the Abel-regularized total is 1.
        def lobe(j):
            xs = np.linspace(j * math.pi, (j + 1) * math.pi, 2001)
            return np.trapezoid(np.sin(xs), xs)

        blocks = [lobe(j) for j in range(16)]
        value, err = euler_tail_sum(blocks)
        assert_allclose(value, 1.0, atol=1e-6)

    def test_decaying_algebraic_lobes(self):
        # sum (-1)^j / sqrt(j+1) = eta(1/2) converges slowly; Euler
        # acceleration reaches ~1e-10 from 24 terms.  Frozen via
        # mpmath.altzeta(0.5).
        blocks = [(-1.0) ** j / math.sqrt(j + 1.0) for j in range(24)]
        value, err = euler_tail_sum(blocks)
        assert_allclose(value, 0.6048986434216304, atol=1e-8)

    def test_superpolynomial_growth(self):
        # sum (-1)^j (j+1)^{5/2} Abel-sums to eta(-5/2); frozen via
        # mpmath.altzeta(-2.5).
        blocks = [(-1.0) ** j * (j + 1) ** 2.5 for j in range(32)]
        value, err = euler_tail_sum(blocks)
        assert_allclose(value, -0.08784112072136284, atol=1e-10)
        assert err >= 0.0

    def test_rows_sum_like_single_sequences(self):
        # a 2-D array sums along its last axis, each row as it would alone
        rng = np.random.default_rng(7)
        j = np.arange(30)
        blocks = ((-1.0) ** j * (j + 1.0) ** rng.uniform(-1.5, 2.0, (6, 1))
                  * rng.uniform(0.5, 2.0, (6, 30)))
        values, errs = euler_tail_sum(blocks)
        assert values.shape == errs.shape == (6,)
        for row, value, err in zip(blocks, values, errs):
            assert (value, err) == euler_tail_sum(row)

    @pytest.mark.parametrize("shape", [(), (5,)], ids=["row", "block"])
    def test_matches_the_averaging_triangle(self, shape):
        """The weighted sums equal averaging the partial sums over and
        over, row by row, up to the rounding of the partial sums."""
        rng = np.random.default_rng(11)
        for m in range(4, 145):
            j = np.arange(m)
            blocks = ((-1.0) ** j * (j + 1.0) ** rng.uniform(-1.5, 2.0)
                      * rng.uniform(0.5, 2.0, shape + (m,)))
            row = np.cumsum(blocks, axis=-1)
            scale = 64.0 * np.finfo(float).eps * np.max(np.abs(row), axis=-1)
            last = [row[..., -1]]
            while row.shape[-1] > 1:
                row = 0.5 * (row[..., :-1] + row[..., 1:])
                last.append(row[..., -1])
            tail = np.stack(last[-4:], axis=-1)
            value, err = euler_tail_sum(blocks)
            assert np.all(np.abs(value - last[-1]) <= scale)
            assert np.all(np.abs(
                err - np.max(np.abs(np.diff(tail, axis=-1)), axis=-1))
                <= 2.0 * scale)

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            euler_tail_sum([1.0, -0.5, 0.25])
        with pytest.raises(DomainError):
            euler_tail_sum(np.ones((5, 3)))
