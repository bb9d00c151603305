"""Tests for the signed higher-order heat kernel module.

Closed-form oracles: the Gaussian for order 2, the Airy function for
order 3, and ``exp(-sqrt(s) |x|) / (2 sqrt(s))`` for the order-2 spatial
Laplace transform.  Order 4 and 5 kernel values are frozen from the
independent brute-force contour oracles used in the quadrature tests.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import airy

from fracheat import kernel, solver
from fracheat._errors import ConvergenceError, DomainError
from fracheat.kernel import (
    EquationSpec,
    _decay_rate,
    _superexp_cutoff,
    kernel_contour_values,
    kernel_density_grid,
    kernel_laplace,
    kernel_moment,
    kernel_moment_numeric,
    make_equation_spec,
    root_system,
)
from fracheat.quadrature import integrate_adaptive


def gaussian_kernel(x, t):
    """Order-2 kernel: N(0, 2t) density."""
    return math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def kernel_at(spec, x, t, tol=1e-9):
    """The grid form of the kernel at one point."""
    vals, _, _ = kernel_density_grid(spec, [x], t, tol)
    return float(vals[0])


def airy_kernel(x, t):
    """Order-3 kernel for the +1 sign: (3t)^{-1/3} Ai(-x (3t)^{-1/3})."""
    scale = (3.0 * t) ** (1.0 / 3.0)
    return airy(-x / scale)[0] / scale


class TestEquationSpec:
    @pytest.mark.parametrize("n,expected", [(2, 1), (4, -1), (6, 1), (8, -1)])
    def test_even_sign_rule(self, n, expected):
        assert make_equation_spec(n).k == expected
        # The recorded odd_sign must not influence even orders.
        assert make_equation_spec(n, -1).k == expected

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_sign_choice(self, n, sign):
        assert make_equation_spec(n, sign).k == sign

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            make_equation_spec(1)
        with pytest.raises(DomainError):
            make_equation_spec(0)
        with pytest.raises(DomainError):
            EquationSpec(n=3, odd_sign=2)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_rejects_non_finite_order(self, n):
        with pytest.raises(DomainError):
            make_equation_spec(n)

    def test_spec_is_immutable(self):
        spec = make_equation_spec(4)
        with pytest.raises(AttributeError):
            spec.n = 6


class TestRootSystem:
    def test_order_two_roots(self):
        rs = root_system(make_equation_spec(2))
        assert_allclose(rs.roots, [1.0, -1.0], atol=1e-15)
        assert rs.incoming == (1,)
        assert rs.outgoing == (0,)

    def test_order_three_enumeration(self):
        rs = root_system(make_equation_spec(3, 1))
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert_allclose(rs.roots, expected, atol=1e-15)
        assert set(rs.incoming) == {1, 2}
        assert set(rs.outgoing) == {0}

    def test_order_four_enumeration(self):
        rs = root_system(make_equation_spec(4))
        expected = np.exp(1j * (2 * np.arange(4) + 1) * np.pi / 4)
        assert_allclose(rs.roots, expected, atol=1e-15)
        assert len(rs.incoming) == 2 and len(rs.outgoing) == 2

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_root_and_weight_identities(self, n, sign):
        if n % 2 == 0 and sign == -1:
            pytest.skip("even order ignores the sign switch")
        spec = make_equation_spec(n, sign)
        rs = root_system(spec)
        assert_allclose(np.abs(rs.roots), 1.0, atol=1e-12)
        assert_allclose(rs.roots ** n, spec.k, atol=1e-12)
        assert len(rs.incoming) + len(rs.outgoing) == n
        # Rows of the interface Vandermonde system, whose weights are
        # -theta_k / n: sum theta_k^(j+1) vanishes for j = 0..n-2 and
        # equals n k for j = n-1.
        weights = -rs.roots / n
        for j in range(n - 1):
            assert abs(np.sum(weights * rs.roots ** j)) < 1e-12
        assert abs(np.sum(weights * rs.roots ** (n - 1)) + spec.k) < 1e-12


class TestKernelDensity:
    @pytest.mark.parametrize("x,t", [(0.0, 1.0), (0.5, 1.0), (2.0, 0.5),
                                     (-3.0, 2.0), (6.0, 1.5)])
    def test_order_two_gaussian(self, x, t):
        vals, err, _ = kernel_density_grid(make_equation_spec(2), [x], t)
        assert_allclose(vals[0], gaussian_kernel(x, t), rtol=1e-8,
                        atol=1e-12)
        assert vals[0] >= 0.0
        assert err >= 0.0

    @pytest.mark.parametrize("x", [-2.2, -1.3, 0.0, 0.7, 1.0, 3.1])
    def test_order_three_airy(self, x):
        t = 1.0 / 3.0
        plus = kernel_at(make_equation_spec(3, 1), x, t)
        assert_allclose(plus, airy_kernel(x, t), atol=1e-9)
        # The two admissible sign choices give mirror-image kernels.
        minus = kernel_at(make_equation_spec(3, -1), -x, t)
        assert_allclose(minus, plus, atol=1e-9)

    def test_order_four_frozen(self):
        spec = make_equation_spec(4)
        frozen = {(0.0, 1.0): 0.2885168693082348,
                  (1.0, 1.0): 0.2426650945641037,
                  (2.5, 0.5): 0.04059788834746792,
                  (4.0, 1.0): -0.02258719805410781}
        for (x, t), ref in frozen.items():
            assert_allclose(kernel_at(spec, x, t), ref,
                            atol=1e-9)

    def test_order_five_frozen(self):
        spec = make_equation_spec(5, 1)
        frozen = {(0.0, 1.0): 0.2779578582602068,
                  (1.5, 1.0): 0.1274996408081853,
                  (-1.5, 1.0): 0.3040158738216629}
        for (x, t), ref in frozen.items():
            assert_allclose(kernel_at(spec, x, t), ref,
                            atol=1e-9)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_order_four_symmetry(self, x):
        spec = make_equation_spec(4)
        left = kernel_at(spec, -x, 1.0)
        right = kernel_at(spec, x, 1.0)
        assert_allclose(left, right, atol=1e-10)

    def test_sign_changes_appear_above_order_two(self):
        # The order-4 kernel is genuinely signed.
        spec = make_equation_spec(4)
        vals, _, _ = kernel_density_grid(spec, np.linspace(0.0, 6.0, 25),
                                         1.0)
        assert vals.min() < -1e-4 and vals.max() > 0.1

    @pytest.mark.parametrize("n,sign", [(2, 1), (3, 1), (3, -1), (4, 1),
                                        (5, 1)])
    def test_self_similar_scaling(self, n, sign):
        spec = make_equation_spec(n, sign)
        for x in (-1.3, 0.0, 0.8, 2.1):
            for t in (0.5, 2.0):
                direct = kernel_at(spec, x, t, 1e-11)
                rescaled = t ** (-1.0 / n) * kernel_at(
                    spec, x * t ** (-1.0 / n), 1.0, 1e-11)
                assert_allclose(direct, rescaled, atol=1e-9)

    def test_grid_matches_pointwise(self):
        spec = make_equation_spec(3, 1)
        xs = np.linspace(-3.0, 3.0, 13)
        vals, err, _ = kernel_density_grid(spec, xs, 0.7)
        assert err >= 0.0
        for i in (0, 4, 9, 12):
            assert_allclose(vals[i], kernel_at(spec, float(xs[i]), 0.7),
                            atol=1e-9)

    def test_rejects_nonpositive_time(self):
        spec = make_equation_spec(2)
        with pytest.raises(DomainError):
            kernel_density_grid(spec, [0.0], 0.0)
        with pytest.raises(DomainError):
            kernel_density_grid(spec, [0.0], -1.0)


def profile_range(n, sign):
    """The span of ``y`` that the kernel profile of ``(n, sign)`` reads."""
    profile = solver._kernel_profile(n, make_equation_spec(n, sign).k)
    return float(profile.edges[0]), float(profile.edges[-1])


ORDERS = [(n, s) for n in range(2, 9) for s in ((1, -1) if n % 2 else (1,))]


class TestFixedPaths:
    """The kernel at t = 1 on its per-point paths, over the whole span the
    kernel profile reads: every bar covers the error against a closed
    form or an identity, and a bar that misses its tolerance refuses."""

    def test_empty_request(self):
        for n in (2, 3):
            vals, err, evals = kernel_density_grid(make_equation_spec(n),
                                                   [], 0.5)
            assert vals.shape == (0,) and err == 0.0 and evals == 0

    def test_bars_cover_the_gaussian(self):
        ys = np.linspace(*profile_range(2, 1), 4001)
        vals, bars, _ = kernel._path_values(make_equation_spec(2), ys)
        exact = np.exp(-ys ** 2 / 4.0) / math.sqrt(4.0 * math.pi)
        assert np.all(np.abs(vals - exact) <= bars)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bars_cover_airy(self, sign):
        # mpmath's Ai rather than scipy's: past y = 15 scipy's is off by up
        # to 7e-15, more than these bars
        ys = np.linspace(*profile_range(3, sign), 801)
        vals, bars, _ = kernel._path_values(make_equation_spec(3, sign), ys)
        with mpmath.workdps(30):
            c = mpmath.cbrt(3)
            exact = [float(mpmath.airyai(-sign * mpmath.mpf(y) / c) / c)
                     for y in ys]
        assert np.all(np.abs(vals - exact) <= bars)

    @pytest.mark.parametrize("n, sign", ORDERS[1:])
    def test_bars_cover_the_kernel_ode(self, n, sign):
        """``k phi^(n-1)(y) = -(y/n) phi(y)``, with ``phi^(n-1)`` taken
        under the integral: a factor ``(i z)^(n-1)`` on the same nodes."""
        spec = make_equation_spec(n, sign)
        ys = np.linspace(*profile_range(n, sign), 2001)
        phi, bar, _ = kernel._path_values(spec, ys)
        dphi, dbar, _ = kernel._path_values(spec, ys, n - 1)
        assert np.all(np.abs(spec.k * dphi + ys / n * phi)
                      <= dbar + np.abs(ys) / n * bar)

    @pytest.mark.parametrize("n, sign", ORDERS)
    def test_evaluations_per_point_are_capped(self, n, sign):
        """A point costs the same fixed rules near the origin and at the
        far end of the oscillatory side (the decaying end for even n)."""
        spec = make_equation_spec(n, sign)
        lo, hi = profile_range(n, sign)
        for y in (0.5, lo if spec.osc_dir < 0 else hi):
            _, _, evals = kernel_contour_values(spec, [y], 1e-11)
            assert evals <= 320

    def test_a_bar_over_tol_refuses(self):
        spec = make_equation_spec(3)
        _, err, _ = kernel_contour_values(spec, [0.5, 40.0], 1e-13)
        assert err < 1e-13
        with pytest.raises(ConvergenceError, match="misses tol"):
            kernel_contour_values(spec, [0.5, 40.0], 0.5 * err)
        with pytest.raises(ConvergenceError):
            kernel_density_grid(spec, [0.5], 1e-6, 1e-16)


class TestKernelMoment:
    def test_reference_values(self):
        assert kernel_moment(make_equation_spec(3, 1), 3, 1.0) == -6.0
        assert kernel_moment(make_equation_spec(2), 2, 1.7) == 2 * 1.7
        assert kernel_moment(make_equation_spec(3, 1), 2, 1.0) == 0.0
        assert kernel_moment(make_equation_spec(4), 4, 1.0) == -24.0
        assert kernel_moment(make_equation_spec(2), 0, 5.0) == 1.0

    def test_indivisible_orders_vanish(self):
        spec = make_equation_spec(4)
        for r in (1, 2, 3, 5, 6, 7, 9):
            assert kernel_moment(spec, r, 2.0) == 0.0

    def test_sign_switch_flips_odd_blocks(self):
        plus = make_equation_spec(3, 1)
        minus = make_equation_spec(3, -1)
        for r in (3, 9):
            assert kernel_moment(plus, r, 1.5) == -kernel_moment(minus, r, 1.5)
        # Even multiples of n are sign-independent.
        assert kernel_moment(plus, 6, 1.5) == kernel_moment(minus, 6, 1.5)

    @given(st.integers(min_value=0, max_value=4),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_time_homogeneity(self, j, t):
        # The r-th moment scales like t^{r/n}.
        spec = make_equation_spec(3, 1)
        r = 3 * j
        base = kernel_moment(spec, r, 1.0)
        assert_allclose(kernel_moment(spec, r, t), base * t ** j,
                        rtol=1e-12)

    def test_rejects_bad_arguments(self):
        spec = make_equation_spec(2)
        with pytest.raises(DomainError):
            kernel_moment(spec, -1, 1.0)
        with pytest.raises(DomainError):
            kernel_moment(spec, 1.5, 1.0)
        with pytest.raises(DomainError):
            kernel_moment(spec, 2, 0.0)


class TestKernelMomentNumeric:
    @pytest.mark.parametrize("n,t", [(2, 0.5), (2, 1.0), (2, 2.0),
                                     (3, 0.5), (3, 1.0), (3, 2.0),
                                     (4, 0.5), (4, 1.0), (4, 2.0),
                                     (5, 0.5), (5, 1.0), (5, 2.0)])
    def test_total_mass_is_one(self, n, t):
        spec = make_equation_spec(n, 1)
        res = kernel_moment_numeric(spec, 0, t, 1e-8)
        assert_allclose(res.value, 1.0, atol=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_moments_match_closed_form(self, n):
        spec = make_equation_spec(n, 1)
        t = 1.0
        for r in range(2 * n + 1):
            res = kernel_moment_numeric(spec, r, t, 1e-6)
            ref = kernel_moment(spec, r, t)
            scale = max(abs(ref), t ** (r / n) * math.gamma(r + 1.0)
                        / math.gamma(r / n + 1.0))
            assert abs(res.value - ref) <= 1e-4 * scale, (r, res.value, ref)

    @pytest.mark.parametrize("r,t", [(0, 0.5), (3, 2.0), (6, 0.5)])
    def test_mirrored_sign_moments(self, r, t):
        res = kernel_moment_numeric(make_equation_spec(3, -1), r, t, 1e-6)
        ref = kernel_moment(make_equation_spec(3, -1), r, t)
        scale = max(abs(ref), t ** (r / 3) * math.gamma(r + 1.0)
                    / math.gamma(r / 3 + 1.0))
        assert abs(res.value - ref) <= 1e-4 * scale

    def test_lobe_blocks_stop_at_their_rounding_floor(self):
        """The 48 lobe blocks are one adaptive call whose points stop at
        the rounding of ``x^r phi(x)``; without that stop their tight
        budgets went on halving panels (51880 evaluations)."""
        res = kernel_moment_numeric(make_equation_spec(3), 6, 1.0)
        assert res.evaluations <= 5425

    def test_rejects_bad_arguments(self):
        spec = make_equation_spec(2)
        with pytest.raises(DomainError):
            kernel_moment_numeric(spec, -2, 1.0)
        with pytest.raises(DomainError):
            kernel_moment_numeric(spec, 0, -0.5)

    @pytest.mark.parametrize("n,sign,r", [
        (2, 1, 0), (2, 1, 20), (2, 1, 30), (3, 1, 2), (3, -1, 7),
        (3, 1, 13), (4, 1, 4), (4, 1, 9), (4, 1, 13), (5, 1, 5),
        (5, -1, 10)])
    def test_error_estimate_bounds_the_error(self, n, sign, r):
        """Up to the highest orders it answers, the reported estimate
        bounds the distance to the closed form, with the kernel's own
        error weighted by ``|x|^r`` and the tails cut off counted in."""
        spec = make_equation_spec(n, sign)
        res = kernel_moment_numeric(spec, r, 1.0)
        ref = kernel_moment(spec, r, 1.0)
        assert abs(res.value - ref) <= res.error_estimate, (
            res.value, ref, res.error_estimate)

    @pytest.mark.parametrize("n,r", [(2, 50), (2, 172), (4, 132), (5, 120)])
    def test_refuses_orders_the_noise_swamps(self, n, r):
        """Where ``x^r`` lifts the kernel's float64 noise to the moment's
        magnitude, no digit is left: a typed refusal, not a value (r = 172
        once returned 5.9e74 for a moment of 8.8e180, and from r = 132
        ``n = 4`` raised an untyped OverflowError)."""
        with pytest.raises(DomainError, match="no digit"):
            kernel_moment_numeric(make_equation_spec(n), r, 1.0)

    def test_refuses_a_magnitude_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="beyond the float range"):
            kernel_moment_numeric(make_equation_spec(2), 400, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [10, 50, 172])
    def test_cutoff_lies_past_the_weighted_peak(self, n, r):
        """The tail estimate holds only past the peak of
        ``x^r exp(-c x^nu)``; a large tolerance once let the fixed point
        settle before it (n = 2, r = 172: 2.8 against a peak at 18.5)."""
        c, nu = _decay_rate(n)
        mag = math.exp(math.lgamma(r + 1.0) - math.lgamma(r / n + 1.0))
        cut = _superexp_cutoff(n, r, 0.3e-9 * mag)
        assert cut >= (r / (c * nu)) ** (1.0 / nu)


class TestKernelLaplace:
    @pytest.mark.parametrize("x,s", [(1.0, 1.0), (0.5, 0.7), (1.5, 1.0),
                                     (-2.0, 2.5), (0.0, 3.0)])
    def test_order_two_closed_form(self, x, s):
        value = kernel_laplace(make_equation_spec(2), x, s)
        ref = math.exp(-math.sqrt(s) * abs(x)) / (2.0 * math.sqrt(s))
        assert_allclose(value, ref, rtol=1e-13)

    @pytest.mark.parametrize("n,sign", [(2, 1), (3, 1), (3, -1), (4, 1),
                                        (5, 1), (5, -1)])
    def test_continuous_at_origin(self, n, sign):
        spec = make_equation_spec(n, sign)
        for s in (0.5, 2.0):
            above = kernel_laplace(spec, 1e-12, s)
            below = kernel_laplace(spec, -1e-12, s)
            assert_allclose(above, below, rtol=1e-9)

    def test_positive_transform_decays_in_x(self):
        spec = make_equation_spec(4)
        vals = [kernel_laplace(spec, x, 1.0) for x in (0.0, 1.0, 3.0, 8.0)]
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n,sign,x,s", [
        (2, 1, 0.5, 0.7), (2, 1, 1.5, 1.0), (2, 1, 2.0, 2.5),
        (3, 1, -0.6, 1.0), (3, 1, -1.3, 2.0),
        (3, -1, 0.6, 1.0), (3, -1, 1.3, 2.0),
        (4, 1, 0.7, 2.0), (4, 1, 0.0, 1.0), (4, 1, 1.5, 0.8),
        (5, 1, 1.0, 1.5), (5, -1, -1.0, 1.5),
    ])
    def test_matches_numeric_time_transform(self, n, sign, x, s):
        # Independent oracle: integrate e^{-s t} p_n(x, t) over t after
        # the self-similar substitution t = tau^n, which turns every
        # evaluation into a reuse of the t = 1 kernel.
        spec = make_equation_spec(n, sign)

        def g(taus):
            vals, _, _ = kernel_contour_values(spec, x / taus, 1e-11)
            return np.exp(-s * taus ** n) * vals * n * taus ** (n - 2.0)

        tau_hi = (45.0 / s) ** (1.0 / n)
        # |x|/tau beyond this cutoff leaves the t=1 kernel below ~4e-18
        # on its decaying side (all chosen odd-order pairs sit there).
        cutoff = {2: 13.0, 3: 28.0, 4: 47.0, 5: 68.0}[n]
        tau_lo = abs(x) / cutoff
        numeric = integrate_adaptive(g, tau_lo, tau_hi, 1e-8,
                                     initial_intervals=32)
        assert_allclose(kernel_laplace(spec, x, s), numeric.value,
                        atol=1e-6)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(DomainError):
            kernel_laplace(make_equation_spec(2), 1.0, 0.0)
