"""Tests for delay/bias formulas, noise-error variances, bands, and sweeps."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdiff.analysis import (
    affine_delay,
    bias_bounds,
    chebyshev_band,
    discrete_covariance,
    discrete_moments,
    poisson_mean,
    sweep_surface,
    theoretical_delay,
    variance_continuous,
)
from algdiff.kernel import (
    EstimatorConfig,
    WeightedPoly,
    _series_derivative,
    affine_kernel,
    discretize,
    minimal_kernel,
)
from algdiff.specfun import (
    JacobiIndex,
    _jacobi_coeffs,
    _moment_rational_sum,
    beta_fn,
    smallest_root,
)
from algdiff.stochastic import Poisson, PolyMean, WhiteGaussian, Wiener
from oracles import wpoly_derivative


def make_kernel(cfg: EstimatorConfig):
    p = affine_kernel(cfg) if cfg.q else minimal_kernel(cfg)
    return discretize(p, cfg)


def vec_eval(p: WeightedPoly, t: np.ndarray) -> np.ndarray:
    """The weighted polynomial on a grid, without its divisor."""
    poly = np.polynomial.polynomial.polyval(t, [float(c) for c in p.coeffs])
    return (1.0 - t) ** float(p.mu_exp) * t ** float(p.kappa_exp) * poly


# the removed public signatures, kept as test shorthands over the one route
def variance_minimal(n, kappa, mu, T, eta):
    return variance_continuous(EstimatorConfig(n=n, mu=mu, kappa=kappa, T=T), eta)


def variance_affine_n1(kappa, mu, xi, T, eta):
    return variance_continuous(EstimatorConfig(n=1, q=1, mu=mu, kappa=kappa, T=T, xi=xi), eta)


# -- reference routes: the closed forms `variance_continuous` replaced --------


def i_integral_expansion(mu: float, kappa: float, n: int) -> float:
    """Integral of (1-t)^(2mu+1) t^(2kappa+2) P_n^{mu,kappa} P_{n-1}^{mu+1,kappa+1}.

    Exact polynomial product, then termwise Beta expansion with the rational
    part carried exactly.
    """
    mu_f, kappa_f = Fraction(mu), Fraction(kappa)
    p1 = _jacobi_coeffs(n, mu_f, kappa_f)
    p2 = _jacobi_coeffs(n - 1, mu_f + 1, kappa_f + 1)
    product = [Fraction(0)] * (2 * n)
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            product[i + j] += a * b
    base_first = 2 * kappa_f + 3
    base_second = 2 * mu_f + 2
    rational = _moment_rational_sum(tuple(product), base_first, base_second)
    return float(rational) * beta_fn(float(base_first), float(base_second))


def i_integral_closed(mu: float, kappa: float, n: int) -> float:
    """The same integral, hand-expanded into Beta values for n <= 2."""
    if n == 1:
        return (mu + 1) * beta_fn(2 * mu + 2, 2 * kappa + 3) / (2 * mu + 2 * kappa + 5)
    k, m = kappa, mu
    total = (
        -((k + 2) ** 2) * (k + 1) * beta_fn(2 * m + 5, 2 * k + 3)
        + (k + 2) * (m + 2) * (3 * k + 5) * beta_fn(2 * m + 4, 2 * k + 4)
        - (k + 2) * (m + 2) * (3 * m + 5) * beta_fn(2 * m + 3, 2 * k + 5)
        + (m + 2) ** 2 * (m + 1) * beta_fn(2 * m + 2, 2 * k + 6)
    )
    return 0.5 * total


def i_scale(n: int, kappa: float, mu: float, T: float, eta: float) -> float:
    """Single-term variance over the integral: 2 eta n! (n-1)! / (T^(2n-1) B^2)."""
    norm = beta_fn(kappa + n + 1, mu + n + 1)
    return 2.0 * eta * math.factorial(n) * math.factorial(n - 1) / (T ** (2 * n - 1) * norm**2)


def i_integral(mu: float, kappa: float, n: int) -> float:
    """The integral read back from `variance_continuous` at q = 0."""
    return variance_minimal(n, kappa, mu, 1.0, 1.0) / i_scale(n, kappa, mu, 1.0, 1.0)


def variance_affine_n1_oracle(kappa: float, mu: float, xi: float, T: float, eta: float) -> float:
    """Two-term first-derivative variance at xi, expanded by hand.

    The kernel is lambda1 * (mu+1-kernel) + lambda0 * (kappa+1-kernel) with
    lambda1 = (kappa+3) - (mu+kappa+5)*xi and lambda0 = 1 - lambda1; the three
    quadratic-form terms each reduce to Beta-function ratios.
    """
    lam1 = (kappa + 3) - (mu + kappa + 5) * xi
    lam0 = 1.0 - lam1
    common = 2.0 * eta / T
    term1 = (
        lam1**2 * common * (mu + 2) / (2 * mu + 2 * kappa + 7)
        * beta_fn(2 * mu + 4, 2 * kappa + 3) / beta_fn(kappa + 2, mu + 3) ** 2
    )
    term0 = (
        lam0**2 * common * (mu + 1) / (2 * mu + 2 * kappa + 7)
        * beta_fn(2 * mu + 2, 2 * kappa + 5) / beta_fn(kappa + 3, mu + 2) ** 2
    )
    cross = (
        lam0 * lam1 * common * beta_fn(2 * mu + 4, 2 * kappa + 4)
        / (beta_fn(kappa + 2, mu + 3) * beta_fn(kappa + 3, mu + 2))
    )
    return term1 + term0 + cross


class TestTheoreticalDelay:
    @pytest.mark.parametrize(
        "n,kappa,mu,T,expect",
        [
            (1, 0.0, 0.0, 18 / 200, 0.045),
            (1, -0.79, 0.0, 30 / 200, 0.0565),
            (1, 0.0, 0.0, 25 * math.pi / 100, 0.3927),
            (1, -0.75, 0.0, 25 * math.pi / 100, 0.3021),
        ],
    )
    def test_reference_values(self, n, kappa, mu, T, expect):
        assert theoretical_delay(n, kappa, mu, T) == pytest.approx(expect, abs=5e-5)

    @pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.7, 2.0])
    def test_equal_exponents_give_half_window(self, kappa):
        assert theoretical_delay(1, kappa, kappa, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert theoretical_delay(3, kappa, kappa, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form(self):
        n, kappa, mu, T = 2, 0.4, -0.3, 1.7
        expect = T * (kappa + n + 1) / (mu + kappa + 2 * n + 2)
        assert theoretical_delay(n, kappa, mu, T) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, kappa=0.0, mu=0.0, T=1.0),
            dict(n=1, kappa=-1.0, mu=0.0, T=1.0),
            dict(n=1, kappa=0.0, mu=-1.5, T=1.0),
            dict(n=1, kappa=0.0, mu=0.0, T=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            theoretical_delay(**kwargs)


class TestAffineDelay:
    @pytest.mark.parametrize(
        "T,xi,expect",
        [
            (38 * math.pi / 100, 0.276, 0.3295),
            (32 * math.pi / 100, 0.234, 0.2352),
            (46 / 200, 0.218, 0.0501),
            (30 / 200, 0.276, 0.0414),
        ],
    )
    def test_reference_values(self, T, xi, expect):
        assert affine_delay(1, 0.0, 0.0, T, xi) == pytest.approx(expect, abs=5e-5)

    def test_zero_abscissa(self):
        assert affine_delay(1, 0.3, -0.4, 2.0, 0.0) == 0.0

    def test_rejects_abscissa_outside_unit_interval(self):
        with pytest.raises(ValueError):
            affine_delay(1, 0.0, 0.0, 1.0, 1.2)


class TestBiasBounds:
    def test_degenerate_extrema(self):
        # constant (n+1)-th derivative: both bounds collapse onto the delay bias
        b = bias_bounds(1, 0.0, 0.0, 0.2, 1, 2.0, 2.0)
        assert b.lower == pytest.approx(b.upper, rel=1e-14)
        assert b.lower == pytest.approx(b.c_factor * 2.0, rel=1e-14)

    def test_first_order_window(self):
        b = bias_bounds(1, 0.0, 0.0, 0.2, 1, 1.9, 2.1)
        assert b.c_factor == pytest.approx(0.1, rel=1e-14)
        assert b.lower == pytest.approx(0.19, rel=1e-12)
        assert b.upper == pytest.approx(0.21, rel=1e-12)

    def test_causal_window_flips_interval(self):
        b = bias_bounds(1, 0.0, 0.0, 0.2, -1, 1.9, 2.1)
        assert b.c_factor == pytest.approx(-0.1, rel=1e-14)
        assert b.lower == pytest.approx(-0.21, rel=1e-12)
        assert b.upper == pytest.approx(-0.19, rel=1e-12)

    def test_ordering_invariant(self):
        for beta in (-1, 1):
            for lo, hi in [(-3.0, -1.0), (-1.0, 2.0), (0.5, 0.5)]:
                b = bias_bounds(2, 0.3, 0.6, 1.5, beta, lo, hi)
                assert b.lower <= b.upper

    def test_rejects_inverted_extrema(self):
        with pytest.raises(ValueError):
            bias_bounds(1, 0.0, 0.0, 1.0, 1, 2.0, 1.0)


class TestIIntegral:
    """The single-term variance integral, read back from `variance_continuous`
    and checked against the closed forms and the Beta expansion."""

    def test_flat_weight_first_order(self):
        assert i_integral(0.0, 0.0, 1) == pytest.approx(1 / 60, rel=1e-12)
        assert i_integral_closed(0.0, 0.0, 1) == pytest.approx(1 / 60, rel=1e-12)

    def test_flat_weight_second_order(self):
        expect = 0.5 * (
            -4.0 * beta_fn(5, 3) + 20.0 * beta_fn(4, 4) - 20.0 * beta_fn(3, 5) + 4.0 * beta_fn(2, 6)
        )
        assert expect == pytest.approx(1 / 210, rel=1e-12)
        assert i_integral(0.0, 0.0, 2) == pytest.approx(expect, rel=1e-12)
        assert i_integral_closed(0.0, 0.0, 2) == pytest.approx(expect, rel=1e-12)

    def test_fractional_first_order(self):
        assert i_integral(0.5, -0.25, 1) == pytest.approx(16 / 1155, rel=1e-12)

    def test_fractional_second_order(self):
        assert i_integral(0.5, -0.25, 2) == pytest.approx(2 / 495, rel=1e-12)

    def test_negative_exponent_second_order(self):
        assert i_integral(-0.6, -0.78, 2) == pytest.approx(0.03292487550636328, rel=1e-10)
        assert i_integral_closed(-0.6, -0.78, 2) == pytest.approx(0.03292487550636328, rel=1e-10)

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (0.5, -0.25), (-0.6, -0.78), (1.0, 2.0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_expansion_agrees_with_closed_form(self, mu, kappa, n):
        closed = i_integral_closed(mu, kappa, n)
        assert i_integral_expansion(mu, kappa, n) == pytest.approx(closed, rel=1e-12)
        assert i_integral(mu, kappa, n) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (0.5, -0.25)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_direct_quadrature(self, mu, kappa, n):
        # the defining double integral, with the inner part integrated
        # analytically (the order-(n-1) derivative vanishes at both ends)
        w = WeightedPoly.of(Fraction(mu) + n, Fraction(kappa) + n, [1])
        lower = w
        for _ in range(n - 1):
            lower = wpoly_derivative(lower)
        full = wpoly_derivative(lower)

        trap = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        grid = np.linspace(0.0, 1.0, 100_001)
        vals = np.zeros_like(grid)
        interior = grid[1:-1]
        vals[1:-1] = -vec_eval(full, interior) * interior * vec_eval(lower, interior)
        got = trap(vals, grid)
        want = math.factorial(n) * math.factorial(n - 1) * i_integral(mu, kappa, n)
        assert got == pytest.approx(want, rel=1e-6)


class TestVarianceMinimal:
    def test_flat_weight_first_order(self):
        assert variance_minimal(1, 0.0, 0.0, 1.0, 1.0) == pytest.approx(1.2, rel=1e-12)

    def test_fractional_first_order(self):
        assert variance_minimal(1, -0.25, 0.5, 1.0, 1.0) == pytest.approx(
            1.2740880092904687, rel=1e-10
        )

    def test_flat_weight_second_order(self):
        assert variance_minimal(2, 0.0, 0.0, 1.0, 1.0) == pytest.approx(120 / 7, rel=1e-11)

    def test_fractional_second_order(self):
        assert variance_minimal(2, -0.25, 0.5, 1.0, 1.0) == pytest.approx(
            19.331100320959482, rel=1e-10
        )

    def test_flat_weight_third_order(self):
        assert variance_minimal(3, 0.0, 0.0, 1.0, 1.0) == pytest.approx(1120.0, rel=1e-10)

    def test_fractional_third_order(self):
        assert variance_minimal(3, -0.25, 0.5, 1.0, 1.0) == pytest.approx(
            1302.2355100227917, rel=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("T", [0.1, 0.5, 2.0])
    def test_window_scaling(self, n, T):
        base = variance_minimal(n, 0.3, -0.2, 1.0, 1.0)
        assert variance_minimal(n, 0.3, -0.2, T, 1.0) == pytest.approx(
            base / T ** (2 * n - 1), rel=1e-10
        )

    def test_linear_in_eta(self):
        one = variance_minimal(2, 0.1, 0.4, 1.5, 1.0)
        assert variance_minimal(2, 0.1, 0.4, 1.5, 3.5) == pytest.approx(3.5 * one, rel=1e-12)
        assert variance_minimal(2, 0.1, 0.4, 1.5, 0.0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, kappa=0.0, mu=0.0, T=1.0, eta=1.0),
            dict(n=1, kappa=0.0, mu=0.0, T=0.0, eta=1.0),
            dict(n=1, kappa=0.0, mu=0.0, T=1.0, eta=-0.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            variance_minimal(**kwargs)


class TestVarianceContinuous:
    """`variance_continuous` against the reference routes it replaced."""

    exponents = st.floats(min_value=-1.0, max_value=2.0, exclude_min=True, exclude_max=True)

    @given(st.integers(1, 4), exponents, exponents, st.floats(0.3, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_single_term_matches_closed_forms_and_expansion(self, n, mu, kappa, T, eta):
        got = variance_minimal(n, kappa, mu, T, eta)
        scale = i_scale(n, kappa, mu, T, eta)
        assert got == pytest.approx(scale * i_integral_expansion(mu, kappa, n), rel=2e-13)
        if n <= 2:
            # the n = 2 closed form loses digits to cancellation
            bound = 2e-13 if n == 1 else 5e-12
            assert got == pytest.approx(scale * i_integral_closed(mu, kappa, n), rel=bound)

    @given(exponents, exponents, st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_first_order_two_terms_matches_hand_expansion(self, mu, kappa, xi, T, eta):
        want = variance_affine_n1_oracle(kappa, mu, xi, T, eta)
        assert variance_affine_n1(kappa, mu, xi, T, eta) == pytest.approx(want, rel=2e-13)

    @given(
        st.builds(
            EstimatorConfig,
            n=st.integers(1, 4),
            q=st.integers(0, 3),
            mu=exponents,
            kappa=exponents,
            beta=st.sampled_from((-1, 1)),
            T=st.floats(0.3, 3.0),
            xi=st.floats(0.0, 1.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature_of_the_kernel_antiderivative(self, cfg):
        # G is exactly minus an antiderivative of the kernel that vanishes at
        # both ends; the variance is then eta * T * integral of G^2
        g = _series_derivative(cfg, cfg.n - 1)
        k = affine_kernel(cfg)
        dg = wpoly_derivative(g)
        assert (dg.mu_exp, dg.kappa_exp, dg.beta_divisor) == (k.mu_exp, k.kappa_exp, k.beta_divisor)
        assert dg.coeffs == tuple(-c for c in k.coeffs)

        # t = (1 - cos(pi s))/2 flattens the t^(2kappa+2), (1-t)^(2mu+2) ends
        s = np.linspace(0.0, 1.0, 20_001)
        t = 0.5 * (1.0 - np.cos(np.pi * s))
        values = (vec_eval(g, t) / g.scale_divisor()) ** 2 * 0.5 * np.pi * np.sin(np.pi * s)
        trap = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        want = 1.7 * cfg.T * trap(values, s)
        assert variance_continuous(cfg, 1.7) == pytest.approx(want, rel=1e-6)

    def test_second_order_two_terms_reference(self):
        # 2168/35 at xi = 3/10; the binary value of 0.3 moves it by ~1e-15
        cfg = EstimatorConfig(n=2, q=1, xi=0.3)
        assert variance_continuous(cfg, 1.0) == pytest.approx(2168 / 35, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_continuous(EstimatorConfig(n=1), -0.5)
        with pytest.raises(ValueError):
            variance_continuous(EstimatorConfig(n=1), math.nan)

    @given(
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 2),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_discrete_wiener_variance_converges_as_inverse_m_squared(self, n, q, mu, kappa, xi):
        # integer exponents leave no endpoint singularity, so the relative
        # error stays below K/m^2; the largest m^2 * error measured over
        # n <= 3, q <= 2, mu, kappa in {0, 1, 2} and 21 abscissas was 74
        base = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, xi=xi, m=100)
        want = variance_continuous(base, 1.0)
        for m in (100, 1000):
            k = discretize(affine_kernel(base), replace(base, m=m))
            error = abs(discrete_moments(k, Wiener(1.0), 2.0).variance - want) / want
            assert m**2 * error <= 150.0


class TestVarianceAffine:
    def test_flat_weight_at_exact_root(self):
        got = variance_affine_n1(0.0, 0.0, 0.2763932022500211, 1.0, 1.0)
        assert got == pytest.approx(2.0571428571428571, rel=1e-12)

    def test_flat_weight_at_printed_root(self):
        assert variance_affine_n1(0.0, 0.0, 0.276, 1.0, 1.0) == pytest.approx(
            2.06016, rel=1e-12
        )

    def test_flat_weight_off_root(self):
        assert variance_affine_n1(0.0, 0.0, 0.1, 1.0, 1.0) == pytest.approx(
            3.9428571428571377, rel=1e-10
        )

    def test_negative_exponents(self):
        assert variance_affine_n1(-0.78, -0.6, 0.218, 1.0, 1.0) == pytest.approx(
            2.0089208024234626, rel=1e-10
        )

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (0.4, -0.3), (1.0, 0.5)])
    def test_reduces_to_raised_minimal_when_one_weight_vanishes(self, mu, kappa):
        xi = (kappa + 2.0) / (mu + kappa + 5.0)
        got = variance_affine_n1(kappa, mu, xi, 1.0, 1.0)
        assert got == pytest.approx(variance_minimal(1, kappa, mu + 1.0, 1.0, 1.0), rel=1e-10)

    def test_window_and_eta_scaling(self):
        base = variance_affine_n1(0.2, -0.3, 0.4, 1.0, 1.0)
        assert variance_affine_n1(0.2, -0.3, 0.4, 2.5, 1.0) == pytest.approx(
            base / 2.5, rel=1e-12
        )
        assert variance_affine_n1(0.2, -0.3, 0.4, 1.0, 2.0) == pytest.approx(
            2.0 * base, rel=1e-12
        )


class TestPoissonMean:
    def test_first_order_equals_rate(self):
        assert poisson_mean(1, 0.3) == 0.3

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_higher_orders_vanish(self, n):
        assert poisson_mean(n, 0.3) == 0.0

    def test_zero_rate(self):
        assert poisson_mean(1, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_mean(0, 0.3)
        with pytest.raises(ValueError):
            poisson_mean(1, -0.1)


class TestDiscreteMoments:
    def test_white_noise_exact_moments(self):
        cfg = EstimatorConfig(n=1, mu=0.5, kappa=0.25, beta=-1, T=1.0, m=50)
        k = make_kernel(cfg)
        rep = discrete_moments(k, WhiteGaussian(0.7), 3.0)
        assert rep.mean == 0.0
        assert rep.variance == pytest.approx(0.7 * float(np.sum(k.taps**2)), rel=1e-14)
        assert rep.regime == "discrete"

    def test_wiener_variance_approaches_continuous_value(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        k = make_kernel(cfg)
        rep = discrete_moments(k, Wiener(1.0), 2.0)
        assert rep.mean == pytest.approx(0.0, abs=1e-10)
        assert rep.variance == pytest.approx(1.2000187501875004, rel=1e-12)
        assert abs(rep.variance - 1.2) <= 0.01 * 1.2

    def test_poisson_mean_approaches_rate(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        k = make_kernel(cfg)
        rep = discrete_moments(k, Poisson(1.5), 2.0)
        assert rep.mean == pytest.approx(1.5, rel=0.01)
        # the Poisson variance matches the closed form with eta = rate
        assert rep.variance == pytest.approx(
            variance_minimal(1, 0.0, 0.0, 1.0, 1.5), rel=0.01
        )

    def test_polynomial_mean_annihilated_first_order(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=200)
        k = make_kernel(cfg)
        rep = discrete_moments(k, PolyMean((2.5,), WhiteGaussian(0.3)), 2.0)
        assert abs(rep.mean) <= 1e-12

    def test_polynomial_mean_residue_decays_second_order(self):
        residues = {}
        for m in (100, 400):
            cfg = EstimatorConfig(n=2, beta=-1, T=1.0, m=m)
            k = make_kernel(cfg)
            rep = discrete_moments(k, PolyMean((2.5, -1.75), WhiteGaussian(0.3)), 2.0)
            residues[m] = abs(rep.mean)
        assert residues[400] <= residues[100] / 4.0

    def test_band_attached(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=100)
        k = make_kernel(cfg)
        rep = discrete_moments(k, Wiener(2.0), 1.5, gamma=3.0)
        assert rep.gamma == 3.0
        assert rep.cheb_low == pytest.approx(rep.mean - 3.0 * math.sqrt(rep.variance))
        assert rep.cheb_high == pytest.approx(rep.mean + 3.0 * math.sqrt(rep.variance))

    def test_time_restricted_process_needs_valid_window(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=50)
        k = make_kernel(cfg)
        with pytest.raises(ValueError):
            discrete_moments(k, Wiener(1.0), 0.5)  # window dips below time 0
        # white Gaussian carries no time restriction
        rep = discrete_moments(k, WhiteGaussian(1.0), 0.5)
        assert rep.variance > 0

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (-0.25, -0.25)])
    def test_white_variance_halves_when_taps_double(self, mu, kappa):
        # 1/m scaling of the white-noise discrete variance
        values = {}
        for m in (100, 200, 400):
            cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=-1, T=1.0, m=m)
            k = make_kernel(cfg)
            values[m] = discrete_moments(k, WhiteGaussian(1.0), 2.0).variance
        assert 0.4 <= values[200] / values[100] <= 0.6
        assert 0.4 <= values[400] / values[200] <= 0.6


def noise_models():
    base = st.one_of(
        st.builds(WhiteGaussian, st.floats(0.0, 5.0)),
        st.builds(Wiener, st.floats(0.0, 5.0)),
        st.builds(Poisson, st.floats(0.0, 5.0)),
    )
    coeffs = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3)
    return st.one_of(base, st.builds(PolyMean, coeffs.map(tuple), base))


class TestDiscreteCovariance:
    exponents = st.floats(min_value=-1.0, max_value=2.0, exclude_min=True, exclude_max=True)

    @given(
        st.builds(
            EstimatorConfig,
            n=st.integers(1, 3),
            q=st.integers(0, 2),
            mu=exponents,
            kappa=exponents,
            beta=st.sampled_from((-1, 1)),
            T=st.floats(0.1, 3.0),
            xi=st.floats(0.0, 1.0),
            m=st.integers(6, 200),
        ),
        noise_models(),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_self_covariance_is_variance(self, cfg, model, start):
        # the variance is the quadratic form of the taps against the
        # covariance matrix, or sigma^2 * sum taps^2 for white noise
        k = make_kernel(cfg)
        t0 = start + (cfg.T if cfg.beta == -1 else 0.0)
        times = t0 + cfg.beta * cfg.T * np.arange(cfg.m + 1) / cfg.m
        white = model.white_part()
        if white is not None:
            want = white * float(np.dot(k.taps, k.taps))
        else:
            want = float(k.taps @ model.cov_matrix(times, times) @ k.taps)
        assert discrete_moments(k, model, t0).variance == max(want, 0.0)
        assert discrete_covariance(k, k, model, t0) == want

    def test_white_disjoint_windows_uncorrelated(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=40)
        k = make_kernel(cfg)
        assert discrete_covariance(k, k, WhiteGaussian(1.0), (2.0, 5.0)) == 0.0

    def test_white_fractional_shift_uncorrelated(self):
        # samples of the two windows interleave without coinciding
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=40)
        k = make_kernel(cfg)
        shift = 0.5 / 40
        assert discrete_covariance(k, k, WhiteGaussian(1.0), (2.0, 2.0 + shift)) == 0.0

    def test_white_overlapping_windows_manual_sum(self):
        sigma2 = 0.8
        short = make_kernel(EstimatorConfig(n=1, beta=-1, T=1.0, m=40))
        # same per-tap step 1/40 over a window twice as long
        long = make_kernel(EstimatorConfig(n=2, q=1, kappa=0.5, beta=-1, T=2.0, xi=0.3, m=80))
        for k1, k2 in ((short, short), (short, long), (long, short)):
            m1, m2 = k1.config.m, k2.config.m
            # the second window anchored r samples later in time (r > 0), or earlier
            for r in (-95, -80, -33, -1, 0, 1, 10, 40, 41, 120):
                expect = 0.0
                for i in range(m1 + 1):
                    j = i - r  # k1 tap i and k2 tap j sample the same instant
                    if 0 <= j <= m2:
                        expect += k1.taps[i] * k2.taps[j]
                got = discrete_covariance(k1, k2, WhiteGaussian(sigma2), (2.0, 2.0 - r / 40))
                assert got == pytest.approx(sigma2 * expect, rel=1e-12), (m1, m2, r)

    def test_wiener_two_anchors_match_explicit_double_sum(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=10)
        k = make_kernel(cfg)
        t1, t2 = 2.0, 2.4
        times1 = t1 - np.arange(11) / 10
        times2 = t2 - np.arange(11) / 10
        sigma2 = 1.1
        cross = sigma2 * np.minimum.outer(times1, times2)
        expect = float(k.taps @ cross @ k.taps)
        got = discrete_covariance(k, k, Wiener(sigma2), (t1, t2))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_misaligned_kernels_rejected(self):
        cfg1 = EstimatorConfig(n=1, beta=-1, T=1.0, m=40)
        cfg2 = EstimatorConfig(n=1, beta=1, T=1.0, m=40)
        cfg3 = EstimatorConfig(n=1, beta=-1, T=1.0, m=80)
        k1, k2, k3 = make_kernel(cfg1), make_kernel(cfg2), make_kernel(cfg3)
        with pytest.raises(ValueError):
            discrete_covariance(k1, k2, WhiteGaussian(1.0), 2.0)
        with pytest.raises(ValueError):
            discrete_covariance(k1, k3, WhiteGaussian(1.0), 2.0)


class TestChebyshevBand:
    def test_reference_value(self):
        lo, hi = chebyshev_band(0.0, 1.2, 2.0)
        assert lo == pytest.approx(-2.1908902300206643, rel=1e-14)
        assert hi == pytest.approx(2.1908902300206643, rel=1e-14)

    def test_degenerate_variance(self):
        assert chebyshev_band(0.7, 0.0, 2.0) == (0.7, 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_band(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            chebyshev_band(0.0, -1.0, 2.0)


class TestSweepSurface:
    KGRID = np.linspace(-0.95, 1.0, 14)
    MGRID = np.linspace(-0.95, 1.0, 14)

    def test_delay_surface_reference_cell(self):
        out = sweep_surface("delay", np.array([0.0]), np.array([0.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_delay_surface_monotone(self):
        out = sweep_surface("delay", self.KGRID, self.MGRID)
        assert out.shape == (14, 14)
        assert np.all(np.diff(out, axis=0) > 0)  # increasing in kappa
        assert np.all(np.diff(out, axis=1) < 0)  # decreasing in mu

    def test_abscissa_surface_reference_cell(self):
        out = sweep_surface("xi", np.array([0.0]), np.array([0.0]))
        assert out[0, 0] == pytest.approx(0.2763932022500211, abs=1e-10)

    def test_variance_minimal_reference_cell(self):
        out = sweep_surface("variance_minimal", np.array([0.0]), np.array([0.0]))
        assert out[0, 0] == pytest.approx(1.2, rel=1e-10)

    def test_variance_affine_reference_cell(self):
        # per-cell abscissa is the exact root, so the (0,0) cell carries the
        # root-abscissa variance value
        out = sweep_surface("variance_affine", np.array([0.0]), np.array([0.0]))
        assert out[0, 0] == pytest.approx(2.0571428571428571, rel=1e-9)

    @pytest.mark.parametrize("quantity", ["variance_minimal", "variance_affine"])
    def test_variance_surfaces_shrink_toward_negative_exponents(self, quantity):
        diag = [(1.0, 1.0), (0.0, 0.0), (-0.5, -0.5)]
        vals = [
            sweep_surface(quantity, np.array([kappa]), np.array([mu]))[0, 0]
            for kappa, mu in diag
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    @pytest.mark.parametrize("quantity", ["variance_minimal", "variance_affine"])
    def test_variance_surfaces_bounded_with_interior_minimum(self, quantity):
        out = sweep_surface(quantity, self.KGRID, self.MGRID)
        assert np.all(np.isfinite(out))
        assert np.all(out > 0)
        ik, im = np.unravel_index(np.argmin(out), out.shape)
        assert self.KGRID[ik] < 0
        assert self.MGRID[im] < 0

    @pytest.mark.parametrize("n,q", [(2, 1), (1, 2), (3, 3)])
    def test_variance_affine_any_order_evaluates_at_each_cell_root(self, n, q):
        kappas, mus = np.array([-0.5, 0.25]), np.array([0.0, 1.5])
        out = sweep_surface("variance_affine", kappas, mus, n=n, q=q, T=2.0, eta=0.5)
        for i, kappa in enumerate(kappas):
            for j, mu in enumerate(mus):
                xi = smallest_root(JacobiIndex(q + 1, mu + n, kappa + n))
                cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=2.0, xi=xi)
                assert out[i, j] == variance_continuous(cfg, 0.5)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            sweep_surface("bias", np.array([0.0]), np.array([0.0]))
