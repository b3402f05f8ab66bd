"""Tests for delay/bias formulas, noise-error variances, bands, and sweeps."""

from __future__ import annotations

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdiff.analysis import (
    NoiseMomentReport,
    bias_bounds,
    chebyshev_band,
    continuous_moments,
    delay,
    discrete_covariance,
    discrete_moments,
    sweep_surface,
    variance_continuous,
)
from algdiff.kernel import (
    EstimatorConfig,
    WeightedPoly,
    affine_kernel,
    discretize,
    kernel_taps,
    minimal_kernel,
)
from algdiff.specfun import _least_zero
from algdiff.stochastic import (
    Poisson,
    RngSeed,
    WhiteGaussian,
    Wiener,
    _window_draws,
    mc_noise_samples,
)
from oracles import (
    beta_fn,
    covariance_by_fresh_tap_sums,
    dense_increment_covariance,
    exact_discrete_moments,
    exact_increment_covariance,
    exact_tap_times,
    exact_variance_continuous,
    fraction_series_derivative,
    jacobi_coefficients,
    moment_rational_sum,
    moments_by_window_draws,
    trial_by_hand,
    wpoly,
    wpoly_derivative,
)

EPS = np.finfo(float).eps
# the sampled variance against `oracles.exact_discrete_moments`: measured at
# most 7.2e-16 relative on 600 random configs up to 2**60 steps from t = 0;
# a subnormal intensity adds the underflow of its products, below TINY
VARIANCE_RTOL = 1e-13
TINY = np.finfo(float).tiny
# the sampled mean: within MEAN_EPS_M * eps * m * (|nu*t_s*sum taps| +
# nu*step*sum_j |w_j|), w_j the tail sums; measured at most 0.14 on the same
MEAN_EPS_M = 1.0
ANCHOR_MODELS = [WhiteGaussian(1.0), Wiener(1.0), Poisson(1.0)]
ANCHOR_MODEL_IDS = ["white", "wiener", "poisson"]


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


def single_term_delay(n, kappa, mu, T):
    return delay(EstimatorConfig(n=n, mu=mu, kappa=kappa, T=T))


def poisson_mean(n, nu):
    return continuous_moments(EstimatorConfig(n=n), Poisson(nu)).mean


# -- reference routes: the closed forms `variance_continuous` replaced --------


def i_integral_expansion(mu: float, kappa: float, n: int) -> float:
    """Integral of (1-t)^(2mu+1) t^(2kappa+2) P_n^{mu,kappa} P_{n-1}^{mu+1,kappa+1}.

    Exact polynomial product, then termwise Beta expansion with the rational
    part carried exactly.
    """
    mu_f, kappa_f = Fraction(mu), Fraction(kappa)
    p1 = jacobi_coefficients(n, mu_f, kappa_f)
    p2 = jacobi_coefficients(n - 1, mu_f + 1, kappa_f + 1)
    product = [Fraction(0)] * (2 * n)
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            product[i + j] += a * b
    base_first = 2 * kappa_f + 3
    base_second = 2 * mu_f + 2
    rational = moment_rational_sum(tuple(product), base_first, base_second)
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
        assert single_term_delay(n, kappa, mu, T) == pytest.approx(expect, abs=5e-5)

    @pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.7, 2.0])
    def test_equal_exponents_give_half_window(self, kappa):
        assert single_term_delay(1, kappa, kappa, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert single_term_delay(3, kappa, kappa, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form(self):
        n, kappa, mu, T = 2, 0.4, -0.3, 1.7
        expect = T * (kappa + n + 1) / (mu + kappa + 2 * n + 2)
        assert single_term_delay(n, kappa, mu, T) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize(
        "kappa,mu,expect",
        [(1e308, 1e308, 0.5), (1e308, 0.0, 1.0), (0.0, 1e308, 2 / 1e308), (1.7e308, 1.7e308, 0.5)],
    )
    def test_extreme_exponents_stay_in_range(self, kappa, mu, expect):
        # the sum mu + kappa overflows; the delay itself does not
        assert single_term_delay(1, kappa, mu, 1.0) == pytest.approx(expect, rel=1e-15)

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
        # the config refuses these, so no delay can be asked for
        with pytest.raises(ValueError):
            single_term_delay(**kwargs)


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
        assert delay(EstimatorConfig(n=1, q=1, T=T, xi=xi)) == pytest.approx(expect, abs=5e-5)

    def test_zero_abscissa(self):
        assert delay(EstimatorConfig(n=1, q=1, mu=-0.4, kappa=0.3, T=2.0, xi=0.0)) == 0.0

    def test_rejects_abscissa_outside_unit_interval(self):
        with pytest.raises(ValueError):
            delay(EstimatorConfig(n=1, q=1, T=1.0, xi=1.2))

    @given(
        n=st.integers(1, 4),
        q=st.integers(1, 3),
        mu=st.floats(-0.99, 5.0),
        kappa=st.floats(-0.99, 5.0),
        T=st.floats(1e-3, 1e3),
        xi=st.floats(0.0, 1.0),
    )
    def test_series_delay_is_window_times_abscissa(self, n, q, mu, kappa, T, xi):
        cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=T, xi=xi)
        assert delay(cfg) == cfg.T * cfg.xi


class TestBiasBounds:
    def test_degenerate_extrema(self):
        # constant (n+1)-th derivative: both bounds collapse onto the delay bias
        b = bias_bounds(EstimatorConfig(n=1, beta=1, T=0.2), 2.0, 2.0)
        assert b.lower == pytest.approx(b.upper, rel=1e-14)
        assert b.lower == pytest.approx(b.c_factor * 2.0, rel=1e-14)

    def test_first_order_window(self):
        b = bias_bounds(EstimatorConfig(n=1, beta=1, T=0.2), 1.9, 2.1)
        assert b.c_factor == pytest.approx(0.1, rel=1e-14)
        assert b.lower == pytest.approx(0.19, rel=1e-12)
        assert b.upper == pytest.approx(0.21, rel=1e-12)

    def test_causal_window_flips_interval(self):
        b = bias_bounds(EstimatorConfig(n=1, beta=-1, T=0.2), 1.9, 2.1)
        assert b.c_factor == pytest.approx(-0.1, rel=1e-14)
        assert b.lower == pytest.approx(-0.21, rel=1e-12)
        assert b.upper == pytest.approx(-0.19, rel=1e-12)

    def test_ordering_invariant(self):
        for beta in (-1, 1):
            cfg = EstimatorConfig(n=2, mu=0.6, kappa=0.3, beta=beta, T=1.5)
            for lo, hi in [(-3.0, -1.0), (-1.0, 2.0), (0.5, 0.5)]:
                b = bias_bounds(cfg, lo, hi)
                assert b.lower <= b.upper

    def test_rejects_inverted_extrema(self):
        with pytest.raises(ValueError):
            bias_bounds(EstimatorConfig(n=1, beta=1), 2.0, 1.0)

    @pytest.mark.parametrize("inf_d,sup_d,name", [
        (math.nan, 1.0, "inf_d"), (1.0, math.nan, "sup_d"), (-math.inf, math.nan, "sup_d"),
        (math.nan, math.nan, "inf_d"),
    ])
    def test_rejects_nan_extrema(self, inf_d, sup_d, name):
        # a nan extremum used to give a nan bound with no error
        with pytest.raises(ValueError, match=f"{name} must be a number, got nan"):
            bias_bounds(EstimatorConfig(n=1, beta=1), inf_d, sup_d)

    @pytest.mark.parametrize("beta", [-1, 1])
    def test_unbounded_derivative_gives_unbounded_range(self, beta):
        # an unbounded derivative gives an unbounded bias range, not a refusal
        cfg = EstimatorConfig(n=1, beta=beta, T=0.2)
        b = bias_bounds(cfg, -math.inf, math.inf)
        assert (b.lower, b.upper) == (-math.inf, math.inf)
        b = bias_bounds(cfg, 0.0, math.inf)
        assert (b.lower, b.upper) == ((0.0, math.inf) if beta == 1 else (-math.inf, 0.0))

    @pytest.mark.parametrize("q", [1, 2])
    def test_rejects_series_estimator(self, q):
        # the series kernel is not a positive average of x^(n), so no bound holds
        with pytest.raises(ValueError, match=f"q = {q}"):
            bias_bounds(EstimatorConfig(n=1, q=q, xi=0.3), 1.9, 2.1)


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
        w = wpoly(Fraction(mu) + n, Fraction(kappa) + n, [1])
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
        ),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_route(self, cfg, eta):
        # the float Gauss-Jacobi rule against the exact square and Beta
        # expansion; the largest relative gap measured over 4 000 random
        # configs, exponents down to -1 + 1e-9, was 2.9e-14
        want = exact_variance_continuous(cfg, eta)
        assert variance_continuous(cfg, eta) == pytest.approx(want, rel=2e-13)

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
        g = fraction_series_derivative(cfg, cfg.n - 1)
        k = affine_kernel(cfg)
        dg = wpoly_derivative(g)
        assert (dg.mu_exp, dg.kappa_exp, dg.shift) == (k.mu_exp, k.kappa_exp, k.shift)
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
        with pytest.raises(ValueError, match="eta must be finite and nonnegative, got inf"):
            variance_continuous(EstimatorConfig(n=2, q=1, xi=0.3), math.inf)

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
        # refused by the config and by the noise model
        with pytest.raises(ValueError):
            poisson_mean(0, 0.3)
        with pytest.raises(ValueError):
            poisson_mean(1, -0.1)


class TestContinuousMoments:
    @pytest.mark.parametrize("n,q,xi", [(1, 0, 0.0), (2, 1, 0.3)])
    def test_wiener_and_poisson_variance_is_the_closed_form(self, n, q, xi):
        cfg = EstimatorConfig(n=n, q=q, mu=0.2, kappa=-0.4, T=1.5, xi=xi)
        wiener = continuous_moments(cfg, Wiener(0.7))
        assert wiener == NoiseMomentReport(0.0, variance_continuous(cfg, 0.7))
        poisson = continuous_moments(cfg, Poisson(2.5))
        assert poisson.variance == variance_continuous(cfg, 2.5)

    @pytest.mark.parametrize("noise", [WhiteGaussian(1.0)], ids=["white"])
    def test_no_continuous_limit_for_other_models(self, noise):
        assert continuous_moments(EstimatorConfig(n=1), noise) is None

    @pytest.mark.parametrize("noise,name", [(Wiener(1e308), "sigma2 = 1e+308"),
                                            (Poisson(1e308), "nu = 1e+308")],
                             ids=["wiener", "poisson"])
    def test_variance_beyond_the_float_range_names_the_intensity(self, noise, name):
        # eta * T overflowed silently, and the report held an infinite variance
        with pytest.raises(ValueError, match=re.escape(f"{name} gives a noise-error")):
            continuous_moments(EstimatorConfig(n=1, T=10.0), noise)

    def test_overflow_at_unit_intensity_is_not_blamed_on_it(self):
        # the exponents are at fault, and at T = 1 there is no T to blame
        with pytest.raises(ValueError, match=r"^mu = 1e\+300 and kappa = 0.0 are out of the float range"):
            continuous_moments(EstimatorConfig(n=1, mu=1e300), Wiener(1.0))

    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_overflow_that_T_alone_causes_names_T(self, T):
        # T**(2n) overflows, or 1/T**(2n-1) does; at T = 1 the variance is in range
        with pytest.raises(ValueError, match=r" at n = 1$") as exc:
            continuous_moments(EstimatorConfig(n=1, T=T), Wiener(1.0))
        assert str(exc.value).startswith(f"T = {T!r} is out of the float range")


class TestDiscreteMoments:
    @pytest.mark.parametrize("beta,first", [(-1, 1.0), (1, 0.0)])
    def test_variance_past_the_float_range_far_from_zero_names_t0(self, beta, first):
        # sum(taps) != 0, so the variance grows with t0 by sigma2*t_s*sum(taps)**2
        k = make_kernel(EstimatorConfig(n=1, kappa=-0.7, beta=beta, T=1.0, m=40))
        assert math.isfinite(discrete_moments(k, Wiener(1e300), first).variance)
        with pytest.raises(ValueError, match=re.escape(
                f"sigma2 = 1e+300 at t0 = 10000000000.0 (in range at t0 = {first!r}) gives")):
            discrete_moments(k, Wiener(1e300), 1e10)
        # where no t0 keeps it in range, the intensity alone is named
        short = make_kernel(EstimatorConfig(n=1, kappa=-0.7, beta=beta, T=0.01, m=40))
        with pytest.raises(ValueError, match=re.escape("sigma2 = 1e+308 gives")):
            discrete_moments(short, Wiener(1e308), 1e10)

    def test_tail_weights_squared_past_the_float_range_stay_in_range(self):
        # at T = 1e-76 the m = 2000 tail weights square to more than the float
        # range in sum, yet each variance term, times T/m, is far inside it
        k = make_kernel(EstimatorConfig(n=2, T=1e-76, m=2000))
        tail = np.cumsum(k.taps)[::-1][1:]
        with np.errstate(over="ignore"):
            assert tail @ tail == math.inf
        _, exact = exact_discrete_moments(k, Wiener(1.0), 2.0)
        assert abs(discrete_moments(k, Wiener(1.0), 2.0).variance - exact) <= VARIANCE_RTOL * exact

    @given(
        st.builds(
            EstimatorConfig,
            n=st.integers(1, 3),
            q=st.integers(0, 2),
            mu=st.floats(-0.9, 2.0, exclude_min=True, exclude_max=True),
            kappa=st.floats(-0.9, 2.0, exclude_min=True, exclude_max=True),
            beta=st.sampled_from((-1, 1)),
            T=st.floats(0.1, 3.0),
            xi=st.floats(0.0, 1.0),
            m=st.integers(6, 200),
        ),
        st.one_of(
            st.builds(WhiteGaussian, st.floats(0.01, 5.0)),
            st.builds(Wiener, st.floats(0.01, 5.0)),
            st.builds(Poisson, st.floats(0.01, 5.0)),
        ),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_exact_rational_oracle_at_any_t0(self, cfg, model, far):
        # t0 from T to 2**60 steps from t = 0, log-uniformly: the variance
        # within VARIANCE_RTOL, the mean within its MEAN_EPS_M bound
        step = cfg.T / cfg.m
        t0 = step * 2.0 ** (math.log2(cfg.m) + far * (60 - math.log2(cfg.m)))
        k = make_kernel(cfg)
        got = discrete_moments(k, model, t0)
        mean, variance = (float(v) for v in exact_discrete_moments(k, model, t0))
        assert abs(got.variance - variance) <= VARIANCE_RTOL * variance
        nu = float(model.mean_at(1.0))
        tails = np.cumsum(k.taps[:: -cfg.beta])[::-1]
        t_s = t0 - cfg.T if cfg.beta == -1 else t0
        scale = abs(nu * t_s * math.fsum(k.taps)) + nu * step * float(np.sum(np.abs(tails[1:])))
        assert abs(got.mean - mean) <= MEAN_EPS_M * EPS * cfg.m * scale

    def test_white_variance_past_the_float_range_names_the_intensity_alone(self):
        # white noise has no path before the window, so its first term is a
        # tap's, which no t0 moves: here that term alone leaves the float range
        k = make_kernel(EstimatorConfig(n=1, kappa=-0.7, beta=1, F=1e-6, T=1.0, m=40))
        assert 1e303 * float(np.sum(k.taps[1:] ** 2)) < math.inf
        with pytest.raises(ValueError, match=re.escape("sigma2 = 1e+303 gives")):
            discrete_moments(k, WhiteGaussian(1e303), 1e10)

    def test_white_noise_exact_moments(self):
        cfg = EstimatorConfig(n=1, mu=0.5, kappa=0.25, beta=-1, T=1.0, m=50)
        k = make_kernel(cfg)
        rep = discrete_moments(k, WhiteGaussian(0.7), 3.0)
        assert rep.mean == 0.0
        assert rep.variance == pytest.approx(0.7 * float(np.sum(k.taps**2)), rel=1e-14)

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
        # moving the anchor adds the constant nu * 3 to the Poisson mean nu * t
        # under every tap; a first-order kernel annihilates it
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=200)
        k = make_kernel(cfg)
        means = [discrete_moments(k, Poisson(2.5), t0).mean for t0 in (2.0, 5.0)]
        assert abs(means[1] - means[0]) <= 1e-12

    def test_polynomial_mean_residue_decays_second_order(self):
        # a second-order kernel annihilates the linear Poisson mean up to the
        # quadrature defect of its first two moments
        residues = {}
        for m in (100, 400):
            cfg = EstimatorConfig(n=2, beta=-1, T=1.0, m=m)
            k = make_kernel(cfg)
            residues[m] = abs(discrete_moments(k, Poisson(2.5), 2.0).mean)
        assert residues[400] <= residues[100] / 4.0

    def test_band_attached(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=100)
        k = make_kernel(cfg)
        rep = discrete_moments(k, Wiener(2.0), 1.5)
        # the report holds the moments alone; `chebyshev_band` is the one route to a band
        assert list(vars(rep)) == ["mean", "variance"]
        low, high = chebyshev_band(rep.mean, rep.variance, 3.0)
        assert low == pytest.approx(rep.mean - 3.0 * math.sqrt(rep.variance))
        assert high == pytest.approx(rep.mean + 3.0 * math.sqrt(rep.variance))

    def test_time_restricted_process_needs_valid_window(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=50)
        k = make_kernel(cfg)
        with pytest.raises(ValueError):
            discrete_moments(k, Wiener(1.0), 0.5)  # window dips below time 0
        # white Gaussian carries no time restriction
        rep = discrete_moments(k, WhiteGaussian(1.0), 0.5)
        assert rep.variance > 0

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("model", ANCHOR_MODELS, ids=ANCHOR_MODEL_IDS)
    def test_non_finite_anchor_is_named(self, model, t0):
        # a nan anchor gave variance nan, since no bound on the window start
        # refuses nan
        k = make_kernel(EstimatorConfig(n=1, T=1.0, m=40))
        with pytest.raises(ValueError, match=re.escape(f"t0 must be finite, got {t0!r}")):
            discrete_moments(k, model, t0)

    def test_zero_mean_models_report_positive_zero(self):
        # sum(taps) = -0.57 here, so w @ l < 0 for white and Wiener noise at
        # t0 = 10; the mean is mean_at(w @ l), +0.0 for a zero-mean model, and
        # a report prints 0.0, never the -0.0 of 0.0 * (w @ l)
        k = make_kernel(EstimatorConfig(n=1, kappa=-0.7, beta=-1, T=1.0, m=40))
        assert math.fsum(k.taps) < -0.5
        for model in (WhiteGaussian(1.0), Wiener(1.0)):
            assert math.copysign(1.0, discrete_moments(k, model, 10.0).mean) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_poisson_mean_far_from_zero_at_a_huge_rate_is_finite(self):
        # nu * t_s = 1e310 overflowed (a RuntimeWarning, mean inf) before the
        # tap sum scaled it down; the mean is in range, within the MEAN_EPS_M bound
        cfg = EstimatorConfig(n=1, T=1.0, m=40)
        k = make_kernel(cfg)
        got = discrete_moments(k, Poisson(1e300), 1e10)
        mean, _ = exact_discrete_moments(k, Poisson(1e300), 1e10)
        tails = np.cumsum(k.taps[::-1])[::-1]
        t_s, step = 1e10 - cfg.T, cfg.T / cfg.m
        scale = 1e300 * (abs(t_s * math.fsum(k.taps)) + step * float(np.sum(np.abs(tails[1:]))))
        assert abs(got.mean - float(mean)) <= MEAN_EPS_M * EPS * cfg.m * scale

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
    return st.one_of(
        st.builds(WhiteGaussian, st.floats(0.0, 5.0)),
        st.builds(Wiener, st.floats(0.0, 5.0)),
        st.builds(Poisson, st.floats(0.0, 5.0)),
    )


def assert_matches_dense(got: float, eta: float, kernel1, kernel2) -> None:
    """``got`` against eta * a @ min(s, t) @ b, each kernel given with its anchor.

    Both routes add m1 + m2 + 2 rounded terms in different orders, so they
    may differ by that many eps of the same form on |a| and |b|; 4 is headroom.
    """
    (k1, t01), (k2, t02) = kernel1, kernel2
    cfg1, cfg2 = k1.config, k2.config
    s = t01 + cfg1.beta * cfg1.T * np.arange(cfg1.m + 1) / cfg1.m
    t = t02 + cfg2.beta * cfg2.T * np.arange(cfg2.m + 1) / cfg2.m
    want = dense_increment_covariance(eta, k1.taps, s, k2.taps, t)
    scale = dense_increment_covariance(eta, np.abs(k1.taps), s, np.abs(k2.taps), t)
    assert abs(got - want) <= 4 * (cfg1.m + cfg2.m + 2) * EPS * scale, (got, want)


def bits(*values) -> list[str]:
    """Each float's exact bits, the sign of a zero included."""
    return [float(v).hex() for v in values]


@st.composite
def summary_cases(draw):
    """A config (n <= 3, q <= 2, mu, kappa in (-1, 2), m <= 400), a model of
    each kind, and an anchor on the sample grid or off it, at or after the
    earliest one that increment noise allows."""
    n, q = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    exponent = st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True)
    cfg = EstimatorConfig(
        n=n, q=q, mu=draw(exponent), kappa=draw(exponent), beta=draw(st.sampled_from((-1, 1))),
        T=draw(st.floats(0.1, 3.0)), xi=draw(st.floats(0.0, 1.0)), m=draw(st.integers(n + q + 1, 400)),
    )
    intensity = st.floats(0.01, 5.0)
    model = draw(st.one_of(st.builds(WhiteGaussian, intensity), st.builds(Wiener, intensity),
                           st.builds(Poisson, intensity)))
    steps = draw(st.integers(0, 1000) | st.floats(0.0, 1000.0))
    return cfg, model, cfg.T + steps * cfg.T / cfg.m


class TestMomentSummary:
    """The tap sums kept with a kernel against the route that sums them afresh."""

    @given(summary_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_moment_reads_the_fresh_route_bit_for_bit(self, case):
        cfg, model, t0 = case
        try:
            k = make_kernel(cfg)
        except ValueError:  # taps out of the float range at an exponent near -1
            assume(False)
        # a shorter kernel of the same step and direction, for the covariance
        other = make_kernel(EstimatorConfig(n=1, beta=cfg.beta, T=cfg.T / cfg.m * 3, m=3))
        want = bits(*vars(moments_by_window_draws(k, model, t0)).values())
        anchors = (t0, t0 + 2 * cfg.T / cfg.m)
        if model.white_part() is None:
            cov = bits(covariance_by_fresh_tap_sums(k, other, model, anchors))
        else:
            cov = bits(discrete_covariance(make_kernel(cfg), other, model, anchors))
        for _ in range(2):  # a fresh kernel, then the same kernel with its sums kept
            assert bits(*vars(discrete_moments(k, model, t0)).values()) == want
            assert bits(discrete_covariance(k, other, model, anchors)) == cov
        kernel_taps.cache_clear()
        for _ in range(2):
            got = mc_noise_samples(cfg, model, t0, 3, RngSeed(5))
            assert got.tolist() == [trial_by_hand(cfg, model, t0, RngSeed(5, s)) for s in range(3)]

    @pytest.mark.parametrize("model", ANCHOR_MODELS, ids=ANCHOR_MODEL_IDS)
    def test_the_kept_arrays_are_read_only(self, model):
        k = make_kernel(EstimatorConfig(n=2, q=1, xi=0.3, kappa=-0.5, m=40))
        discrete_moments(k, model, 2.0)
        w, _ = _window_draws(k, model, 2.0)
        for array in (k.taps, k.tail_sums, w):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("model", ANCHOR_MODELS, ids=ANCHOR_MODEL_IDS)
    def test_refusals_on_a_kernel_with_its_sums_kept(self, model):
        k = make_kernel(EstimatorConfig(n=1, kappa=-0.7, T=1.0, m=40))
        discrete_moments(k, model, 2.0)
        for t0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(f"t0 must be finite, got {t0!r}")):
                discrete_moments(k, model, t0)
        if model.increment_part() is None:
            assert discrete_moments(k, model, 0.5).variance > 0
            return
        with pytest.raises(ValueError, match=re.escape(
                "t0 = 0.5 puts the window before t = 0, where the noise process starts; need t0 >= T = 1.0")):
            discrete_moments(k, model, 0.5)
        big = type(model)(1e300)
        discrete_moments(k, big, 1.0)
        name = "sigma2" if isinstance(model, Wiener) else "nu"
        with pytest.raises(ValueError, match=re.escape(
                f"{name} = 1e+300 at t0 = 10000000000.0 (in range at t0 = 1.0) gives a noise-error "
                "variance beyond the float range")):
            discrete_moments(k, big, 1e10)


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
        # `discrete_moments` is within VARIANCE_RTOL of the exact variance; the
        # sort route with the kernel twice is sigma^2 * sum taps^2 for white
        # noise, exactly, or the quadratic form of the taps against
        # eta * min(s, t), to within the summation-order bound of
        # `assert_matches_dense`
        k = make_kernel(cfg)
        t0 = start + (cfg.T if cfg.beta == -1 else 0.0)
        got = discrete_covariance(k, k, model, t0)
        exact = float(exact_discrete_moments(k, model, t0)[1])
        assert abs(discrete_moments(k, model, t0).variance - exact) <= VARIANCE_RTOL * exact + TINY
        white = model.white_part()
        if white is not None:
            assert got == white * float(np.dot(k.taps, k.taps))
        else:
            assert_matches_dense(got, model.increment_part(), (k, t0), (k, t0))

    @given(
        st.tuples(st.integers(1, 3), st.integers(0, 2), exponents, exponents, st.integers(6, 120)),
        st.tuples(st.integers(1, 3), st.integers(0, 2), exponents, exponents, st.integers(6, 120)),
        st.sampled_from((-1, 1)),
        st.floats(0.005, 0.05),
        st.one_of(
            st.builds(Wiener, st.floats(0.0, 5.0)),
            st.builds(Poisson, st.floats(0.0, 5.0)),
        ),
        st.floats(0.0, 2.0),
        st.integers(0, 150),
        st.one_of(st.just(0.0), st.floats(0.01, 0.99)),
    )
    @settings(max_examples=100, deadline=None)
    def test_cross_covariance_matches_dense_form(
        self, shape1, shape2, beta, step, model, start, shift, off_grid
    ):
        # two different kernels on one tap step; the second anchor lies
        # `shift` taps later, on the grid or a fraction `off_grid` of a step off
        cfg1, cfg2 = (
            EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, beta=beta, T=m * step, xi=0.3, m=m)
            for n, q, mu, kappa, m in (shape1, shape2)
        )
        assume(cfg1 != cfg2)
        t01 = start + (max(cfg1.T, cfg2.T) if beta == -1 else 0.0)
        t02 = t01 + (shift + off_grid) * step
        k1, k2 = make_kernel(cfg1), make_kernel(cfg2)
        got = discrete_covariance(k1, k2, model, (t01, t02))
        assert_matches_dense(got, model.increment_part(), (k1, t01), (k2, t02))

    @pytest.mark.parametrize("beta", [-1, 1])
    @pytest.mark.parametrize("t0", [1e6, 1e9, 1e12])
    def test_far_anchors_match_the_exact_oracle(self, t0, beta):
        # the tap times are taken from the earlier window start and the tap
        # sums summed exactly, so neither rounds at ulp(t0): within 1e-13
        # relative (measured at most 9e-16), where times from t = 0 were off
        # by 4e-10 at t0 = 1e6 and 6e-4 at 1e12
        k1 = make_kernel(EstimatorConfig(n=1, beta=beta, T=1.0, m=40))
        k2 = make_kernel(EstimatorConfig(n=2, q=1, xi=0.3, kappa=-0.7, beta=beta, T=2.0, m=80))
        for shift in (0, 7, 100):
            t02 = t0 + shift / 40
            got = discrete_covariance(k1, k2, Wiener(1.0), (t0, t02))
            want = float(exact_increment_covariance(
                1.0, k1.taps, exact_tap_times(k1, t0), k2.taps, exact_tap_times(k2, t02)))
            assert abs(got - want) <= 1e-13 * abs(want), (shift, got, want)

    @pytest.mark.parametrize("m1,m2,shift", [(2, 4, 0), (4, 9, 3), (12, 7, -5)])
    def test_exact_oracle_is_the_dense_double_sum(self, m1, m2, shift):
        # the oracle's merged tail sums equal sum_ij a_i b_j min(s_i, t_j) exactly
        k1 = make_kernel(EstimatorConfig(n=1, kappa=-0.5, T=m1 / 8, m=m1))
        k2 = make_kernel(EstimatorConfig(n=2, q=1, xi=0.3, T=m2 / 8, m=m2))
        s, t = exact_tap_times(k1, 3.0), exact_tap_times(k2, 3.0 + shift / 8)
        dense = sum(Fraction(float(a)) * Fraction(float(b)) * min(si, tj)
                    for a, si in zip(k1.taps, s) for b, tj in zip(k2.taps, t))
        assert exact_increment_covariance(0.5, k1.taps, s, k2.taps, t) == Fraction(0.5) * dense

    def test_memory_is_linear_in_taps(self):
        # the dense form would build a 100 001 x 100 001 matrix, 80 GB
        cfg = EstimatorConfig(n=1, m=100_000, T=1.0)
        variance = discrete_moments(kernel_taps(cfg), Wiener(1.0), 2.0).variance
        assert variance == pytest.approx(variance_continuous(cfg, 1.0), rel=1e-6)

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

    @pytest.mark.parametrize("anchors", [(-1e308, 1e308), (1e308, -1e308)],
                             ids=["low-then-high", "high-then-low"])
    def test_white_windows_a_float_range_apart_uncorrelated(self, anchors):
        # the shift in taps is inf, which round() refused with an OverflowError
        k = kernel_taps(EstimatorConfig(n=1, m=40))
        assert discrete_covariance(k, k, WhiteGaussian(1.0), anchors) == 0.0

    @pytest.mark.parametrize("anchors", [(0.0, 1e300), (1e300, 0.0)], ids=["later", "earlier"])
    def test_white_shift_past_the_float_range_over_a_tiny_step_uncorrelated(self, anchors):
        # 1e300 over a per-tap step of 2.5e-12 is past the float range
        k = kernel_taps(EstimatorConfig(n=1, m=40, T=1e-10))
        assert discrete_covariance(k, k, WhiteGaussian(1.0), anchors) == 0.0

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

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("model", ANCHOR_MODELS, ids=ANCHOR_MODEL_IDS)
    def test_non_finite_anchor_is_named(self, model, t0):
        # white noise raised an unnamed "cannot convert float NaN to integer"
        # and increment noise returned nan
        k = make_kernel(EstimatorConfig(n=1, T=1.0, m=40))
        for anchors in (t0, (2.0, t0), (t0, 2.0)):
            with pytest.raises(ValueError, match=re.escape(f"t0 must be finite, got {t0!r}")):
                discrete_covariance(k, k, model, anchors)

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

    @pytest.mark.parametrize(
        "mean,variance,gamma,fragment",
        [
            (0.0, 0.0, math.inf, "gamma must be finite and positive, got inf"),
            (0.0, 1.0, math.nan, "gamma must be finite and positive, got nan"),
            (0.0, math.nan, 2.0, "variance must be finite and nonnegative, got nan"),
            (0.0, math.inf, 2.0, "variance must be finite and nonnegative, got inf"),
            (math.nan, 1.0, 2.0, "band nan -/+ gamma*sqrt(variance) that is not finite"),
            (-math.inf, 1.0, 2.0, "band -inf -/+ gamma*sqrt(variance) that is not finite"),
            (0.0, 100.0, 1e308, "gamma = 1e+308 and variance = 100.0 give a band"),
            (1e308, 1e308, 1e154, "gamma = 1e+154 and variance = 1e+308 give a band"),
        ],
        ids=["gamma-inf", "gamma-nan", "variance-nan", "variance-inf", "mean-nan",
             "mean-inf", "half-width-overflows", "end-overflows"],
    )
    def test_refuses_a_band_beyond_the_float_range(self, mean, variance, gamma, fragment):
        with pytest.raises(ValueError) as exc:
            chebyshev_band(mean, variance, gamma)
        assert fragment in str(exc.value)


SWEEP_EXPONENTS = st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True)


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
                xi = float(_least_zero(q + 1, mu + n, kappa + n))
                cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=2.0, xi=xi)
                assert out[i, j] == variance_continuous(cfg, 0.5)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            sweep_surface("bias", np.array([0.0]), np.array([0.0]))

    @pytest.mark.parametrize("quantity", ["delay", "xi", "variance_minimal", "variance_affine"])
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(eta=-1.0), "eta must be finite and nonnegative, got -1.0"),
            (dict(eta=math.nan), "eta"),
            (dict(eta=math.inf), "eta must be finite and nonnegative, got inf"),
            (dict(kappa_grid=[0.0, math.nan]), "kappa_grid values must be finite and exceed -1, got nan"),
            (dict(kappa_grid=[0.5, -1.0]), "kappa_grid values must be finite and exceed -1, got -1.0"),
            (dict(mu_grid=[math.inf]), "mu_grid values must be finite and exceed -1, got inf"),
            (dict(mu_grid=np.zeros((2, 2))), "mu_grid must be one-dimensional"),
        ],
        ids=["eta-negative", "eta-nan", "eta-inf", "kappa-nan", "kappa-minus-one", "mu-inf",
             "mu-2d"],
    )
    def test_checks_every_input_up_front(self, quantity, kwargs, fragment):
        args = {"kappa_grid": [0.0, 0.5], "mu_grid": [0.0], **kwargs}
        with pytest.raises(ValueError) as exc:
            sweep_surface(quantity, args.pop("kappa_grid"), args.pop("mu_grid"), **args)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("quantity", ["delay", "xi", "variance_minimal", "variance_affine"])
    @given(
        st.lists(SWEEP_EXPONENTS, min_size=1, max_size=6),
        st.lists(SWEEP_EXPONENTS, min_size=1, max_size=6),
        st.integers(1, 5),
        st.integers(0, 4),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_cells_equal_scalar_calls(self, quantity, kappas, mus, n, q, T, eta):
        # the batched sweep, over every grid shape (1 x M and K x 1 included),
        # and the scalar functions share one route, bit for bit
        out = sweep_surface(quantity, np.array(kappas), np.array(mus), n=n, q=q, T=T, eta=eta)
        assert out.shape == (len(kappas), len(mus))
        for i, kappa in enumerate(kappas):
            for j, mu in enumerate(mus):
                xi = float(_least_zero(q + 1, mu + n, kappa + n))
                want = {
                    "delay": lambda: single_term_delay(n, kappa, mu, T),
                    "xi": lambda: xi,
                    "variance_minimal": lambda: variance_minimal(n, kappa, mu, T, eta),
                    "variance_affine": lambda: variance_continuous(
                        EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=T, xi=xi), eta
                    ),
                }[quantity]()
                assert out[i, j] == want
