"""Special functions: Beta, shifted Jacobi polynomials, roots."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdiff.kernel import WeightedPoly, wpoly_moment
from algdiff.specfun import (
    _JACOBI_CACHE_SIZE,
    JacobiIndex,
    _jacobi_coeffs,
    beta_fn,
    jacobi_coefficients,
    smallest_root,
)
from oracles import jacobi_eval, jacobi_norm_sq

GRID = np.linspace(0.0, 1.0, 21)
EXPONENT_PAIRS = [(0.0, 0.0), (0.5, -0.25), (-0.78, -0.6), (1.0, 2.0)]


def jacobi_weighted_moment(idx: JacobiIndex, j: int) -> float:
    """``integral of w(t) P(t) t**j over [0, 1]``: a one-term weighted polynomial."""
    return wpoly_moment(WeightedPoly.of(idx.mu, idx.kappa, jacobi_coefficients(idx)), j)


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


class TestJacobiIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            JacobiIndex(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            JacobiIndex(1, -1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiIndex(1, 0.0, -1.5)


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


class TestCoefficientRecurrence:
    @given(
        st.integers(0, 10),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_binomial_expansion_exactly(self, degree, mu, kappa):
        mu_f, kappa_f = Fraction(mu), Fraction(kappa)
        got = _jacobi_coeffs.__wrapped__(degree, mu_f, kappa_f)
        assert got == binomial_expansion_coeffs(degree, mu_f, kappa_f)

    @pytest.mark.parametrize("degree", [0, 1, 4, 9])
    def test_rational_exponents_exactly(self, degree):
        mu, kappa = Fraction(-2, 3), Fraction(5, 7)
        assert _jacobi_coeffs(degree, mu, kappa) == binomial_expansion_coeffs(degree, mu, kappa)


class TestJacobiEval:
    def test_degree_zero_is_one(self):
        for mu, kappa in EXPONENT_PAIRS:
            idx = JacobiIndex(0, mu, kappa)
            np.testing.assert_allclose([jacobi_eval(idx, t) for t in GRID], 1.0)

    def test_degree_one_closed_form(self):
        # (mu+kappa+2) t - (kappa+1)
        for mu, kappa in EXPONENT_PAIRS:
            idx = JacobiIndex(1, mu, kappa)
            expected = (mu + kappa + 2) * GRID - (kappa + 1)
            got = [jacobi_eval(idx, t) for t in GRID]
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_legendre_point(self):
        assert jacobi_eval(JacobiIndex(1, 0.0, 0.0), 0.25) == pytest.approx(-0.5)

    def test_value_at_one_is_binomial(self):
        # P_n(1) = C(n+mu, n)
        assert jacobi_eval(JacobiIndex(2, 1.0, 1.0), 1.0) == pytest.approx(3.0)
        mu = 0.5
        for n in range(1, 5):
            expected = math.prod((mu + n - i) / (n - i) for i in range(n))
            got = jacobi_eval(JacobiIndex(n, mu, -0.25), 1.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_reflection_symmetry(self):
        # P_n^{mu,kappa}(t) = (-1)^n P_n^{kappa,mu}(1-t)
        mu, kappa = 0.3, -0.4
        for n in range(6):
            a = JacobiIndex(n, mu, kappa)
            b = JacobiIndex(n, kappa, mu)
            left = np.array([jacobi_eval(a, t) for t in GRID])
            right = (-1.0) ** n * np.array([jacobi_eval(b, 1.0 - t) for t in GRID])
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestContiguousRecurrences:
    """Raising one exponent relates neighbouring degrees."""

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_mu_raising(self, mu, kappa, n):
        c = 2 * n + 2 + mu + kappa
        for t in GRID:
            left = c * (1 - t) * jacobi_eval(JacobiIndex(n, mu + 1, kappa), t)
            right = (n + mu + 1) * jacobi_eval(JacobiIndex(n, mu, kappa), t) - (
                n + 1
            ) * jacobi_eval(JacobiIndex(n + 1, mu, kappa), t)
            assert left == pytest.approx(right, abs=1e-10)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_kappa_raising(self, mu, kappa, n):
        c = 2 * n + 2 + mu + kappa
        for t in GRID:
            left = c * t * jacobi_eval(JacobiIndex(n, mu, kappa + 1), t)
            right = (n + kappa + 1) * jacobi_eval(JacobiIndex(n, mu, kappa), t) + (
                n + 1
            ) * jacobi_eval(JacobiIndex(n + 1, mu, kappa), t)
            assert left == pytest.approx(right, abs=1e-10)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS[:3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_three_term_combination(self, mu, kappa, n):
        for t in GRID:
            combined = (mu - kappa) / (2 * (n + 1)) * jacobi_eval(
                JacobiIndex(n, mu, kappa), t
            ) + (2 * n + 2 + kappa + mu) / (2 * (n + 1)) * (
                t * jacobi_eval(JacobiIndex(n, mu, kappa + 1), t)
                - (1 - t) * jacobi_eval(JacobiIndex(n, mu + 1, kappa), t)
            )
            assert combined == pytest.approx(
                jacobi_eval(JacobiIndex(n + 1, mu, kappa), t), abs=1e-10
            )


class TestNormSq:
    def test_degree_zero_is_beta(self):
        assert jacobi_norm_sq(JacobiIndex(0, 0.0, 0.0)) == pytest.approx(1.0, rel=1e-13)
        assert jacobi_norm_sq(JacobiIndex(0, 0.5, 0.5)) == pytest.approx(
            beta_fn(1.5, 1.5), rel=1e-13
        )

    def test_legendre_degree_one(self):
        assert jacobi_norm_sq(JacobiIndex(1, 0.0, 0.0)) == pytest.approx(1 / 3, rel=1e-13)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dual_route_via_leading_moment(self, mu, kappa, n):
        # ||P||^2 = lead(P) * integral(w P t^n): lower powers die by orthogonality
        idx = JacobiIndex(n, mu, kappa)
        lead = float(jacobi_coefficients(idx)[-1])
        expected = lead * jacobi_weighted_moment(idx, n)
        assert jacobi_norm_sq(idx) == pytest.approx(expected, rel=1e-12)


class TestWeightedMoments:
    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonality_moments_vanish_exactly(self, mu, kappa, n):
        idx = JacobiIndex(n, mu, kappa)
        for j in range(n):
            assert jacobi_weighted_moment(idx, j) == 0.0

    def test_legendre_degree_one_moment(self):
        # integral of t(2t-1) on [0,1] = 1/6
        assert jacobi_weighted_moment(JacobiIndex(1, 0.0, 0.0), 1) == pytest.approx(
            1 / 6, rel=1e-14
        )

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_n_moment_closed_form(self, mu, kappa, n):
        # integral of t^n w P_n = B(kappa+n+1, mu+n+1)
        got = jacobi_weighted_moment(JacobiIndex(n, mu, kappa), n)
        assert got == pytest.approx(beta_fn(kappa + n + 1, mu + n + 1), rel=1e-12)

    def test_higher_moment_nonzero(self):
        assert jacobi_weighted_moment(JacobiIndex(2, 0.0, 0.0), 1) == 0.0
        assert jacobi_weighted_moment(JacobiIndex(2, 0.0, 0.0), 3) != 0.0


class TestSmallestRoot:
    def test_legendre_pair_root_exact_form(self):
        # smallest root of the degree-2 polynomial with both exponents 1
        expected = (1.0 - 1.0 / math.sqrt(5.0)) / 2.0
        assert smallest_root(JacobiIndex(2, 1.0, 1.0)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_extended_pair_root(self):
        # raised exponents for the (kappa=-0.78, mu=-0.6) first-order design
        got = smallest_root(JacobiIndex(2, 0.4, 0.22))
        assert got == pytest.approx(0.217924846506584, abs=1e-10)

    def test_degree_one_analytic(self):
        mu, kappa = 0.5, -0.25
        got = smallest_root(JacobiIndex(1, mu, kappa))
        assert got == pytest.approx((kappa + 1) / (mu + kappa + 2), abs=1e-12)

    @pytest.mark.parametrize("mu,kappa", EXPONENT_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_small(self, mu, kappa, n):
        idx = JacobiIndex(n, mu, kappa)
        root = smallest_root(idx)
        assert 0.0 < root < 1.0
        assert abs(jacobi_eval(idx, root)) <= 1e-9

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            smallest_root(JacobiIndex(0, 0.0, 0.0))

    @given(
        st.integers(1, 8),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
        st.floats(min_value=-1.0, max_value=3.0, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_scan_bit_for_bit(self, degree, mu, kappa):
        # exponents near -1 can push the root past the last grid point; then
        # both must report the same missing bracket
        def outcome(find_root):
            try:
                return find_root(JacobiIndex(degree, mu, kappa))
            except ValueError as exc:
                return str(exc)

        assert outcome(smallest_root) == outcome(scalar_scan_root)


def scalar_scan_root(idx: JacobiIndex) -> float:
    """Reference for `smallest_root`: one Horner evaluation per grid point."""
    coeffs = [float(c) for c in jacobi_coefficients(idx)]

    def poly(t: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    prev_t, prev_v = 0.0, poly(0.0)
    for i in range(1, 1025):
        t = i / 1024
        v = poly(t)
        if prev_v == 0.0:
            return prev_t
        if prev_v * v < 0.0:
            lo, hi, flo = prev_t, t, prev_v
            break
        prev_t, prev_v = t, v
    else:
        raise ValueError(f"no sign change found in (0, 1) for {idx!r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        vm = poly(mid)
        if vm == 0.0:
            return mid
        if flo * vm < 0.0:
            hi = mid
        else:
            lo, flo = mid, vm
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)


def test_coefficient_cache_is_bounded():
    for k in range(_JACOBI_CACHE_SIZE + 100):
        _jacobi_coeffs(1, Fraction(k, 10007), Fraction(1, 10009))  # fresh exponent pairs
    info = _jacobi_coeffs.cache_info()
    assert info.maxsize == _JACOBI_CACHE_SIZE
    assert info.currsize <= _JACOBI_CACHE_SIZE
