"""Special functions: Beta, shifted Jacobi polynomials, least zeros."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdiff.kernel import wpoly_moment
from algdiff.specfun import _jacobi_matrix, _jacobi_numerators, _least_zero
from oracles import (
    beta_fn,
    jacobi_coefficients,
    jacobi_eval,
    jacobi_matrix,
    jacobi_norm_sq,
    scan_root,
    wpoly,
)

GRID = np.linspace(0.0, 1.0, 21)
EXPONENT_PAIRS = [(0.0, 0.0), (0.5, -0.25), (-0.78, -0.6), (1.0, 2.0)]


def jacobi_weighted_moment(degree: int, mu: float, kappa: float, j: int) -> float:
    """``integral of w(t) P(t) t**j over [0, 1]``: a one-term weighted polynomial
    at shift 0, times its divisor B(kappa+1, mu+1)."""
    p = wpoly(mu, kappa, jacobi_coefficients(degree, mu, kappa))
    return wpoly_moment(p, j) * p.scale_divisor()


class TestBeta:
    def test_frozen_value(self):
        # independent oracle: exp(lgamma(1.21)+lgamma(2)-lgamma(3.21))
        assert beta_fn(1.21, 2.0) == pytest.approx(0.37395759320893011, rel=1e-13)

    def test_unit_square(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_large_arguments_stay_finite(self):
        value = beta_fn(300.0, 300.0)
        assert 0.0 < value < 1.0
        assert math.isfinite(value)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)

    @given(
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-12)


def _binomial(x: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) with rational x."""
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


def binomial_expansion_coeffs(degree: int, mu: Fraction, kappa: Fraction) -> tuple:
    """P_deg(t) = sum_s C(deg+mu, s) C(deg+kappa, deg-s) (t-1)^(deg-s) t^s,
    expanded to ascending powers of t: the O(degree^2) reference route."""
    coeffs = [Fraction(0)] * (degree + 1)
    for s in range(degree + 1):
        factor = _binomial(mu + degree, s) * _binomial(kappa + degree, degree - s)
        r = degree - s
        for j in range(r + 1):
            coeffs[s + j] += factor * math.comb(r, j) * (-1) ** (r - j)
    return tuple(coeffs)


def numerator_coeffs(degree: int, mu: Fraction, kappa: Fraction) -> tuple:
    """`_jacobi_numerators` over their common denominator, as fractions."""
    den = math.lcm(mu.denominator, kappa.denominator)
    nums = _jacobi_numerators(degree, int(mu * den), int(kappa * den), den)
    return tuple(Fraction(c, den**degree * math.factorial(degree)) for c in nums)


class TestCoefficientRecurrence:
    @given(
        st.integers(0, 10),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_binomial_expansion_exactly(self, degree, mu, kappa):
        mu_f, kappa_f = Fraction(mu), Fraction(kappa)
        assert numerator_coeffs(degree, mu_f, kappa_f) == binomial_expansion_coeffs(
            degree, mu_f, kappa_f
        )

    @pytest.mark.parametrize("degree", [0, 1, 4, 9])
    def test_rational_exponents_exactly(self, degree):
        mu, kappa = Fraction(-2, 3), Fraction(5, 7)
        assert numerator_coeffs(degree, mu, kappa) == binomial_expansion_coeffs(degree, mu, kappa)


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        for mu, kappa in EXPONENT_PAIRS:
            np.testing.assert_allclose([jacobi_eval(0, mu, kappa, t) for t in GRID], 1.0)

    def test_degree_one_closed_form(self):
        # (mu+kappa+2) t - (kappa+1)
        for mu, kappa in EXPONENT_PAIRS:
            expected = (mu + kappa + 2) * GRID - (kappa + 1)
            got = [jacobi_eval(1, mu, kappa, t) for t in GRID]
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_legendre_point(self):
        assert jacobi_eval(1, 0.0, 0.0, 0.25) == pytest.approx(-0.5)

    def test_value_at_one_is_binomial(self):
        # P_n(1) = C(n+mu, n)
        assert jacobi_eval(2, 1.0, 1.0, 1.0) == pytest.approx(3.0)
        mu = 0.5
        for n in range(1, 5):
            expected = math.prod((mu + n - i) / (n - i) for i in range(n))
            got = jacobi_eval(n, mu, -0.25, 1.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_reflection_symmetry(self):
        # P_n^{mu,kappa}(t) = (-1)^n P_n^{kappa,mu}(1-t)
        mu, kappa = 0.3, -0.4
        for n in range(6):
            a = (n, mu, kappa)
            b = (n, kappa, mu)
            left = np.array([jacobi_eval(*a, t) for t in GRID])
            right = (-1.0) ** n * np.array([jacobi_eval(*b, 1.0 - t) for t in GRID])
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestContiguousRecurrences:
    """Raising one exponent relates neighbouring degrees."""

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_mu_raising(self, mu, kappa, n):
        c = 2 * n + 2 + mu + kappa
        for t in GRID:
            left = c * (1 - t) * jacobi_eval(n, mu + 1, kappa, t)
            right = (n + mu + 1) * jacobi_eval(n, mu, kappa, t) - (n + 1) * jacobi_eval(
                n + 1, mu, kappa, t
            )
            assert left == pytest.approx(right, abs=1e-10)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_kappa_raising(self, mu, kappa, n):
        c = 2 * n + 2 + mu + kappa
        for t in GRID:
            left = c * t * jacobi_eval(n, mu, kappa + 1, t)
            right = (n + kappa + 1) * jacobi_eval(n, mu, kappa, t) + (n + 1) * jacobi_eval(
                n + 1, mu, kappa, t
            )
            assert left == pytest.approx(right, abs=1e-10)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_three_term_combination(self, mu, kappa, n):
        for t in GRID:
            combined = (mu - kappa) / (2 * (n + 1)) * jacobi_eval(n, mu, kappa, t) + (
                2 * n + 2 + kappa + mu
            ) / (2 * (n + 1)) * (
                t * jacobi_eval(n, mu, kappa + 1, t) - (1 - t) * jacobi_eval(n, mu + 1, kappa, t)
            )
            assert combined == pytest.approx(jacobi_eval(n + 1, mu, kappa, t), abs=1e-10)


class TestNormSq:
    def test_degree_zero_is_beta(self):
        assert jacobi_norm_sq(0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)
        assert jacobi_norm_sq(0, 0.5, 0.5) == pytest.approx(beta_fn(1.5, 1.5), rel=1e-13)

    def test_legendre_degree_one(self):
        assert jacobi_norm_sq(1, 0.0, 0.0) == pytest.approx(1 / 3, rel=1e-13)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dual_route_via_leading_moment(self, mu, kappa, n):
        # ||P||^2 = lead(P) * integral(w P t^n): lower powers die by orthogonality
        idx = (n, mu, kappa)
        lead = float(jacobi_coefficients(*idx)[-1])
        expected = lead * jacobi_weighted_moment(*idx, n)
        assert jacobi_norm_sq(*idx) == pytest.approx(expected, rel=1e-12)


class TestWeightedMoments:
    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonality_moments_vanish_exactly(self, mu, kappa, n):
        idx = (n, mu, kappa)
        for j in range(n):
            assert jacobi_weighted_moment(*idx, j) == 0.0

    def test_legendre_degree_one_moment(self):
        # integral of t(2t-1) on [0,1] = 1/6
        assert jacobi_weighted_moment(1, 0.0, 0.0, 1) == pytest.approx(1 / 6, rel=1e-14)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_n_moment_closed_form(self, mu, kappa, n):
        # integral of t^n w P_n = B(kappa+n+1, mu+n+1)
        got = jacobi_weighted_moment(n, mu, kappa, n)
        assert got == pytest.approx(beta_fn(kappa + n + 1, mu + n + 1), rel=1e-12)

    def test_higher_moment_nonzero(self):
        assert jacobi_weighted_moment(2, 0.0, 0.0, 1) == 0.0
        assert jacobi_weighted_moment(2, 0.0, 0.0, 3) != 0.0


class TestSmallestRoot:
    def test_legendre_pair_root_exact_form(self):
        # smallest root of the degree-2 polynomial with both exponents 1
        expected = (1.0 - 1.0 / math.sqrt(5.0)) / 2.0
        assert _least_zero(2, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_extended_pair_root(self):
        # raised exponents for the (kappa=-0.78, mu=-0.6) first-order design
        got = _least_zero(2, 0.4, 0.22)
        assert got == pytest.approx(0.217924846506584, abs=1e-10)

    def test_degree_one_analytic(self):
        mu, kappa = 0.5, -0.25
        got = _least_zero(1, mu, kappa)
        assert got == pytest.approx((kappa + 1) / (mu + kappa + 2), abs=1e-12)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_small(self, mu, kappa, n):
        idx = (n, mu, kappa)
        root = _least_zero(*idx)
        assert 0.0 < root < 1.0
        assert abs(jacobi_eval(*idx, root)) <= 1e-9

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_chebyshev_closed_form(self, degree):
        # mu = kappa = -1/2 is the Chebyshev weight, where the textbook forms
        # of the first recurrence coefficients are 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _least_zero(degree, -0.5, -0.5)
        expected = (1.0 - math.cos(math.pi / (2 * degree))) / 2.0
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-16)

    @given(
        st.integers(1, 8),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle_where_it_brackets(self, degree, mu, kappa):
        # exponents near -1 can leave the scan without a bracket; elsewhere
        # the eigenvalue and the bisection agree to the bisection's width
        idx = (degree, mu, kappa)
        try:
            want = scan_root(*idx)
        except ValueError:
            return
        assert _least_zero(*idx) == pytest.approx(want, rel=0, abs=2e-13)


# exponents near -1, in the unit range, and near the edge of the float range,
# where the entries overflow
EXPONENTS = (
    st.floats(min_value=-1.0, max_value=-0.999, exclude_min=True)
    | st.floats(min_value=-1.0, max_value=3.0, exclude_min=True)
    | st.floats(min_value=1e100, max_value=1.7976931348623157e308)
)


@st.composite
def exponent_arrays(draw):
    """(mu, kappa) as scalars, as a (1, M) row against a (K, 1) column, or as
    two (K, M) grids."""
    shape = draw(st.sampled_from(("scalar", "row-column", "grid")))
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = {"scalar": ((), ()), "row-column": ((1, m), (k, 1)), "grid": ((k, m), (k, m))}[shape]
    return tuple(
        np.array(draw(st.lists(EXPONENTS, min_size=math.prod(s), max_size=math.prod(s)))).reshape(s)
        for s in shapes
    )


class TestJacobiMatrix:
    @given(st.integers(1, 8), exponent_arrays())
    @settings(max_examples=300, deadline=None)
    def test_in_place_fill_equals_the_concatenated_reference(self, size, exponents):
        # the same entries bit for bit, and the same overflow, named alike
        def built(route):
            try:
                return route(size, *exponents)
            except FloatingPointError as exc:
                return str(exc)

        got, want = built(_jacobi_matrix), built(jacobi_matrix)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
