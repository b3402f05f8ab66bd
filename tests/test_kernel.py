"""Tests for the continuous kernels, their exact moments, and discretization."""

from __future__ import annotations

import inspect
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algdiff
from algdiff.kernel import (
    _TAPS_CACHE_SIZE,
    EstimatorConfig,
    WeightedPoly,
    affine_kernel,
    discretize,
    kernel_taps,
    minimal_kernel,
    wpoly_eval,
    wpoly_moment,
)
from algdiff.specfun import JacobiIndex, beta_fn, jacobi_coefficients
from oracles import jacobi_eval, wpoly_derivative

INTERIOR = np.linspace(0.05, 0.95, 19)


# -- reference constructions: the two routes `affine_kernel` replaced -------


def _rising(x: Fraction, count: int) -> Fraction:
    out = Fraction(1)
    for i in range(count):
        out *= x + i
    return out


def derivative_loop_kernel(cfg: EstimatorConfig) -> WeightedPoly:
    """Affine kernel as the n-fold `wpoly_derivative` of each raised-weight term.

    Term i is d^n/dt^n [w^{a,b} P_i^{(a,b)}] with (a, b) = (mu+n, kappa+n),
    scaled by (-1)**n P_i^{(a,b)}(xi) / (beta*T)**n over the norm of P_i
    relative to the shared divisor B(b+1, a+1):
    i! (a+b+2)_{2i} / ((a+b+i+1)_i (a+1)_i (b+1)_i).
    """
    n, q = cfg.n, cfg.q
    mu, kappa = Fraction(cfg.mu), Fraction(cfg.kappa)
    a, b = mu + n, kappa + n
    xi = Fraction(cfg.xi)
    window = (Fraction(cfg.beta) * Fraction(cfg.T)) ** n
    total = [Fraction(0)] * (n + q + 1)
    for i in range(q + 1):
        raised = jacobi_coefficients(JacobiIndex(i, a, b))
        term = WeightedPoly(a, b, raised)
        for _ in range(n):
            term = wpoly_derivative(term)
        at_xi = sum(c * xi**k for k, c in enumerate(raised))
        inv_norm = (
            math.factorial(i) * _rising(a + b + 2, 2 * i)
            / (_rising(a + b + i + 1, i) * _rising(a + 1, i) * _rising(b + 1, i))
        )
        weight = (-1) ** n * at_xi * inv_norm / window
        for k, c in enumerate(term.coeffs):
            total[k] += weight * c
    return WeightedPoly.of(mu, kappa, total, (kappa + n + 1, mu + n + 1))


def minimal_oracle(cfg: EstimatorConfig) -> WeightedPoly:
    """n!/(beta*T)**n times the degree-n Jacobi polynomial under the weight."""
    n = cfg.n
    mu, kappa = Fraction(cfg.mu), Fraction(cfg.kappa)
    scale = Fraction(math.factorial(n)) / (Fraction(cfg.beta) * Fraction(cfg.T)) ** n
    coeffs = [scale * c for c in jacobi_coefficients(JacobiIndex(n, cfg.mu, cfg.kappa))]
    return WeightedPoly.of(mu, kappa, coeffs, (kappa + n + 1, mu + n + 1))


def configs(q=st.integers(0, 4)):
    exponents = st.floats(min_value=-1.0, max_value=2.0, exclude_min=True, exclude_max=True)
    return st.builds(
        EstimatorConfig,
        n=st.integers(1, 5),
        q=q,
        mu=exponents,
        kappa=exponents,
        beta=st.sampled_from((-1, 1)),
        T=st.floats(min_value=1e-3, max_value=1e3),
        xi=st.floats(min_value=0.0, max_value=1.0),
    )


class TestConstructionOracles:
    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_affine_equals_derivative_loop(self, cfg):
        assert affine_kernel(cfg) == derivative_loop_kernel(cfg)

    @given(configs(q=st.just(0)))
    @settings(max_examples=40, deadline=None)
    def test_q0_equals_minimal_oracle(self, cfg):
        assert minimal_kernel(cfg) == affine_kernel(cfg) == minimal_oracle(cfg)


class TestWeightedPoly:
    def test_of_trims_trailing_zeros(self):
        p = WeightedPoly.of(0, 0, [1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_of_keeps_single_zero(self):
        p = WeightedPoly.of(0, 0, [0, 0])
        assert p.coeffs == (Fraction(0),)

    def test_of_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedPoly.of(0, 0, [])

    def test_exponents_coerced_to_fractions(self):
        p = WeightedPoly.of(0.5, Fraction(1, 4), [1])
        assert p.mu_exp == Fraction(1, 2)
        assert p.kappa_exp == Fraction(1, 4)
        assert isinstance(p.coeffs[0], Fraction)

    def test_poly_at_horner(self):
        p = WeightedPoly.of(0, 0, [1, 2, 3])
        assert p.poly_at(0.5) == pytest.approx(1 + 1 + 0.75, rel=1e-15)

    def test_scale_divisor(self):
        assert WeightedPoly.of(0, 0, [1]).scale_divisor() == 1.0
        p = WeightedPoly.of(0, 0, [1], beta_divisor=(2, 2))
        assert p.scale_divisor() == pytest.approx(beta_fn(2.0, 2.0), rel=1e-15)


class TestWpolyEval:
    def test_negative_exponent_interior_value(self):
        # t**(-1/2) at 1/4 is 2
        p = WeightedPoly.of(0, Fraction(-1, 2), [1])
        assert wpoly_eval(p, 0.25) == pytest.approx(2.0, rel=1e-14)

    def test_plain_weight_value(self):
        p = WeightedPoly.of(1, 1, [2])
        assert wpoly_eval(p, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_divisor_is_applied(self):
        p = WeightedPoly.of(0, 0, [1], beta_divisor=(2, 2))
        assert wpoly_eval(p, 0.3) == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("t", [-0.1, 1.0001, 2.0])
    def test_outside_unit_interval_rejected(self, t):
        p = WeightedPoly.of(0, 0, [1])
        with pytest.raises(ValueError):
            wpoly_eval(p, t)

    def test_singular_endpoints_rejected(self):
        p = WeightedPoly.of(Fraction(-1, 2), Fraction(-1, 2), [1])
        with pytest.raises(ValueError):
            wpoly_eval(p, 0.0)
        with pytest.raises(ValueError):
            wpoly_eval(p, 1.0)

    def test_zero_exponent_endpoints_fine(self):
        # 0**0 is taken as 1, so the flat weight is evaluable at both ends.
        p = WeightedPoly.of(0, 0, [3, 1])
        assert wpoly_eval(p, 0.0) == pytest.approx(3.0)
        assert wpoly_eval(p, 1.0) == pytest.approx(4.0)


class TestWpolyDerivative:
    def test_symmetric_weight_derivative(self):
        # d/dt [(1-t) t] = 1 - 2t, exponents drop to zero
        p = WeightedPoly.of(1, 1, [1])
        d = wpoly_derivative(p)
        assert d.mu_exp == Fraction(0)
        assert d.kappa_exp == Fraction(0)
        assert d.coeffs == (Fraction(1), Fraction(-2))

    def test_divisor_carried_through(self):
        p = WeightedPoly.of(2, 2, [1], beta_divisor=(3, 3))
        assert wpoly_derivative(p).beta_divisor == (Fraction(3), Fraction(3))

    def test_matches_finite_differences(self):
        p = WeightedPoly.of(Fraction(3, 2), Fraction(1, 2), [1, -2, 1])
        d = wpoly_derivative(p)
        h = 1e-6
        for t in np.linspace(0.2, 0.8, 7):
            numeric = (wpoly_eval(p, t + h) - wpoly_eval(p, t - h)) / (2 * h)
            assert wpoly_eval(d, t) == pytest.approx(numeric, rel=1e-8, abs=1e-8)


class TestWeightDerivativeIdentity:
    """n-fold derivative of the raised weight collapses onto the degree-n polynomial."""

    PAIRS = [(-0.5, -0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-0.5, 1.0)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mu,kappa", PAIRS)
    def test_exact_coefficients(self, n, mu, kappa):
        p = WeightedPoly.of(Fraction(mu) + n, Fraction(kappa) + n, [1])
        for _ in range(n):
            p = wpoly_derivative(p)
        assert p.mu_exp == Fraction(mu)
        assert p.kappa_exp == Fraction(kappa)
        expect = tuple(
            Fraction((-1) ** n * math.factorial(n)) * c
            for c in jacobi_coefficients(JacobiIndex(n, mu, kappa))
        )
        assert p.coeffs == expect

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mu,kappa", PAIRS)
    def test_pointwise(self, n, mu, kappa):
        p = WeightedPoly.of(Fraction(mu) + n, Fraction(kappa) + n, [1])
        for _ in range(n):
            p = wpoly_derivative(p)
        idx = JacobiIndex(n, mu, kappa)
        sign = (-1) ** n * math.factorial(n)
        for t in INTERIOR:
            target = sign * (1 - t) ** mu * t**kappa * jacobi_eval(idx, t)
            assert abs(wpoly_eval(p, t) - target) <= 1e-9


class TestMinimalKernel:
    def test_first_order_flat_weight(self):
        p = minimal_kernel(EstimatorConfig(n=1, beta=1, T=1.0))
        assert p.coeffs == (Fraction(-1), Fraction(2))
        assert p.beta_divisor == (Fraction(2), Fraction(2))
        # effective values -6 + 12 t
        assert wpoly_eval(p, 0.0) == pytest.approx(-6.0, rel=1e-13)
        assert wpoly_eval(p, 0.5) == pytest.approx(0.0, abs=1e-13)
        assert wpoly_eval(p, 1.0) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (0.5, -0.25), (-0.78, -0.6)])
    def test_first_order_general_form(self, mu, kappa):
        p = minimal_kernel(EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=1, T=1.0))
        norm = beta_fn(kappa + 2.0, mu + 2.0)
        for t in INTERIOR:
            target = (1 - t) ** mu * t**kappa * ((mu + kappa + 2) * t - (kappa + 1)) / norm
            assert wpoly_eval(p, t) == pytest.approx(target, rel=1e-12)

    def test_second_order_flat_weight(self):
        p = minimal_kernel(EstimatorConfig(n=2, beta=1, T=1.0))
        assert p.coeffs == (Fraction(2), Fraction(-12), Fraction(12))
        assert p.beta_divisor == (Fraction(3), Fraction(3))

    def test_window_and_direction_scaling(self):
        base = minimal_kernel(EstimatorConfig(n=1, beta=1, T=1.0))
        scaled = minimal_kernel(EstimatorConfig(n=1, beta=-1, T=0.5))
        for t in INTERIOR:
            assert wpoly_eval(scaled, t) == pytest.approx(-2.0 * wpoly_eval(base, t), rel=1e-13)

    def test_rejects_extra_terms(self):
        with pytest.raises(ValueError):
            minimal_kernel(EstimatorConfig(n=1, q=1, xi=0.3))


class TestAffineKernel:
    GRID = [
        (1, 0.0, 0.0, 1.0, 1),
        (1, 0.5, -0.25, 0.1, -1),
        (2, -0.78, -0.6, 1.0, -1),
        (3, 1.0, 1.0, 2.0, 1),
    ]

    @pytest.mark.parametrize("n,mu,kappa,T,beta", GRID)
    def test_zero_extra_terms_reduces_to_minimal(self, n, mu, kappa, T, beta):
        cfg = EstimatorConfig(n=n, q=0, mu=mu, kappa=kappa, T=T, beta=beta)
        assert affine_kernel(cfg) == minimal_oracle(cfg)

    @pytest.mark.parametrize(
        "mu,kappa,xi",
        [(0.0, 0.0, 0.276), (-0.6, -0.78, 0.218), (0.3, 0.1, 0.5)],
    )
    def test_two_term_affine_combination(self, mu, kappa, xi):
        # the q=1 kernel is an affine mix of the two exponent-raised minimal
        # kernels, with weights fixed by the evaluation abscissa
        cfg = EstimatorConfig(n=1, q=1, mu=mu, kappa=kappa, xi=xi, beta=1, T=1.0)
        p = affine_kernel(cfg)
        lam1 = (kappa + 3.0) - (mu + kappa + 5.0) * xi
        lam0 = 1.0 - lam1
        up_mu = minimal_kernel(EstimatorConfig(n=1, mu=mu + 1, kappa=kappa, beta=1, T=1.0))
        up_ka = minimal_kernel(EstimatorConfig(n=1, mu=mu, kappa=kappa + 1, beta=1, T=1.0))
        for t in INTERIOR:
            target = lam1 * wpoly_eval(up_mu, t) + lam0 * wpoly_eval(up_ka, t)
            assert wpoly_eval(p, t) == pytest.approx(target, rel=1e-10, abs=1e-10)

    def test_degenerate_abscissa_recovers_raised_minimal(self):
        # at the root of the degree-1 raised polynomial one affine weight
        # vanishes, so the two-term kernel collapses to a raised minimal one
        mu, kappa = 0.25, -0.5
        xi = (kappa + 2.0) / (mu + kappa + 5.0)
        p = affine_kernel(EstimatorConfig(n=1, q=1, mu=mu, kappa=kappa, xi=xi, beta=1, T=1.0))
        up_mu = minimal_kernel(EstimatorConfig(n=1, mu=mu + 1, kappa=kappa, beta=1, T=1.0))
        for t in INTERIOR:
            assert wpoly_eval(p, t) == pytest.approx(wpoly_eval(up_mu, t), rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_polynomial_degree(self, n, q):
        cfg = EstimatorConfig(n=n, q=q, mu=0.25, kappa=0.5, xi=0.3)
        assert affine_kernel(cfg).degree == n + q


class TestMomentIdentities:
    """Annihilation and normalization moments, exact through the Beta expansion."""

    PAIRS = [(-0.5, -0.5), (-0.5, 1.0), (0.0, 0.0), (1.0, -0.5), (1.0, 1.0)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("mu,kappa", PAIRS)
    @pytest.mark.parametrize("T,beta", [(1.0, 1), (0.1, -1)])
    def test_annihilation_and_normalization(self, n, q, mu, kappa, T, beta):
        xi = 0.0 if q == 0 else 0.3
        cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=T, beta=beta, xi=xi)
        p = affine_kernel(cfg)
        for low in range(n):
            assert wpoly_moment(p, low) == 0.0  # exact, not approximate
        target = math.factorial(n) / (beta * T) ** n
        assert abs(wpoly_moment(p, n) - target) <= 1e-10

    def test_first_order_normalization_value(self):
        p = minimal_kernel(EstimatorConfig(n=1, beta=-1, T=1.0))
        assert wpoly_moment(p, 1) == pytest.approx(-1.0, abs=1e-12)
        assert wpoly_moment(p, 0) == 0.0

    def test_higher_moment_is_not_annihilated(self):
        p = minimal_kernel(EstimatorConfig(n=1, beta=1, T=1.0))
        assert abs(wpoly_moment(p, 2)) > 0.1


class TestDiscretize:
    def test_three_tap_kernel(self):
        cfg = EstimatorConfig(n=1, beta=1, T=1.0, m=2)
        k = discretize(minimal_kernel(cfg), cfg)
        np.testing.assert_allclose(k.taps, [-1.5, 0.0, 1.5], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(k.abscissas, [0.0, 0.5, 1.0])

    def test_interior_taps_are_trapezoid_samples(self):
        cfg = EstimatorConfig(n=1, mu=0.5, kappa=0.25, beta=1, T=1.0, m=50)
        p = minimal_kernel(cfg)
        k = discretize(p, cfg)
        for i in (1, 10, 49):
            assert k.taps[i] == pytest.approx(wpoly_eval(p, i / 50) / 50, rel=1e-13)

    def test_endpoint_regularization_value(self):
        cfg = EstimatorConfig(n=1, mu=0.0, kappa=-0.79, beta=1, T=1.0, F=0.1, m=30)
        p = minimal_kernel(cfg)
        k = discretize(p, cfg)
        expect = 0.5 / 30 * (0.1 / 30) ** (-0.79) * p.poly_at(0.0) / p.scale_divisor()
        assert k.taps[0] == pytest.approx(expect, rel=1e-13)
        assert np.all(np.isfinite(k.taps))

    def test_endpoint_regularization_both_ends(self):
        cfg = EstimatorConfig(n=1, mu=-0.66, kappa=-0.7, beta=1, T=1.0, F=0.5, m=32)
        p = minimal_kernel(cfg)
        k = discretize(p, cfg)
        lead = 0.5 / 32 * (0.5 / 32) ** (-0.7) * p.poly_at(0.0) / p.scale_divisor()
        tail = 0.5 / 32 * (0.5 / 32) ** (-0.66) * p.poly_at(1.0) / p.scale_divisor()
        assert k.taps[0] == pytest.approx(lead, rel=1e-13)
        assert k.taps[-1] == pytest.approx(tail, rel=1e-13)

    def test_endpoint_suppression(self):
        cfg = EstimatorConfig(
            n=1, mu=-0.66, kappa=-0.7, beta=1, T=1.0, m=32, endpoint="suppress"
        )
        k = discretize(minimal_kernel(cfg), cfg)
        assert k.taps[0] == 0.0
        assert k.taps[-1] == 0.0

    def test_nonnegative_exponent_endpoints_need_no_rule(self):
        cfg = EstimatorConfig(n=1, mu=1.0, kappa=0.5, beta=1, T=1.0, m=20)
        k = discretize(minimal_kernel(cfg), cfg)
        assert k.taps[0] == 0.0  # weight vanishes at t=0 for kappa > 0
        assert k.taps[-1] == 0.0

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (1.0, 2.0)])
    def test_second_order_moment_convergence(self, mu, kappa):
        # composite-trapezoid error halves twice per m doubling when the
        # integrand is smooth with a nonvanishing curvature correction
        errs = []
        for m in (100, 200, 400):
            cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=1, T=1.0, m=m)
            p = minimal_kernel(cfg)
            k = discretize(p, cfg)
            disc = float(k.taps @ k.abscissas)
            errs.append(abs(disc - wpoly_moment(p, 1)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    @pytest.mark.parametrize("mu,kappa", [(0.5, 0.5), (2.0, 1.0)])
    def test_moment_convergence_monotone_for_other_exponents(self, mu, kappa):
        # fractional exponents lose the clean 1/m**2 rate at the endpoints
        # (and very smooth cases can beat it), but refinement still helps
        errs = []
        for m in (100, 200, 400):
            cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=1, T=1.0, m=m)
            p = minimal_kernel(cfg)
            k = discretize(p, cfg)
            errs.append(abs(float(k.taps @ k.abscissas) - wpoly_moment(p, 1)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[1] <= errs[0] / 2

    def test_taps_are_read_only(self):
        cfg = EstimatorConfig(n=1, m=10)
        k = discretize(minimal_kernel(cfg), cfg)
        assert not k.taps.flags.writeable
        with pytest.raises(ValueError):
            k.taps[0] = 1.0

    def test_tap_count(self):
        cfg = EstimatorConfig(n=2, q=1, xi=0.5, m=57)
        k = discretize(affine_kernel(cfg), cfg)
        assert k.taps.shape == (58,)


class TestKernelTaps:
    """`kernel_taps` is the one cached route from a config to its taps."""

    def test_equal_configs_share_one_object(self):
        a = kernel_taps(EstimatorConfig(n=2, q=1, mu=0.25, kappa=-0.5, xi=0.3, m=40))
        b = kernel_taps(EstimatorConfig(n=2, q=1, mu=0.25, kappa=-0.5, xi=0.3, m=40))
        assert a is b
        assert not a.taps.flags.writeable

    def test_cache_is_bounded(self):
        for k in range(_TAPS_CACHE_SIZE + 10):
            kernel_taps(EstimatorConfig(n=1, m=3 + k))  # distinct configs
        info = kernel_taps.cache_info()
        assert info.maxsize == _TAPS_CACHE_SIZE
        assert info.currsize <= _TAPS_CACHE_SIZE

    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig(n=1, m=10),
            EstimatorConfig(n=1, kappa=-0.79, F=0.1, m=30),
            EstimatorConfig(n=2, q=1, mu=-0.4, kappa=0.35, beta=1, xi=0.3, m=400),
            EstimatorConfig(n=1, mu=-0.6, kappa=-0.7, endpoint="suppress", m=25),
        ],
    )
    def test_matches_discretize_exactly(self, cfg):
        k = kernel_taps(cfg)
        assert k.config == cfg
        np.testing.assert_array_equal(k.taps, discretize(affine_kernel(cfg), cfg).taps)

    def test_only_construction_site_in_src(self):
        route = "discretize(affine_kernel(cfg), cfg)"
        src = Path(algdiff.__file__).parent
        hits = [p.name for p in sorted(src.glob("*.py")) for line in p.read_text().splitlines()
                if route in line]
        assert hits == ["kernel.py"]
        assert route in inspect.getsource(kernel_taps.__wrapped__)


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(n=1, q=-1),
            dict(n=1, mu=-1.0),
            dict(n=1, kappa=-1.5),
            dict(n=1, beta=0),
            dict(n=1, T=0.0),
            dict(n=1, T=-2.0),
            dict(n=1, q=1, xi=-0.1),
            dict(n=1, q=1, xi=1.5),
            dict(n=1, F=0.0),
            dict(n=1, F=1.1),
            dict(n=2, q=1, m=3),
            dict(n=1, endpoint="clip"),
            dict(n=1, mu=math.inf),
            dict(n=1, kappa=math.nan),
            dict(n=1, T=math.inf),
            dict(n=1, xi=math.nan),
            dict(n=1, F=math.nan),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    def test_abscissa_forced_to_zero_without_extra_terms(self):
        cfg = EstimatorConfig(n=1, q=0, xi=0.7)
        assert cfg.xi == 0.0

    def test_minimal_viable_tap_count(self):
        assert EstimatorConfig(n=2, q=1, m=4, xi=0.5).m == 4

    def test_integral_floats_stored_as_ints(self):
        # equal configs share one cached kernel, so they must build alike
        cfg = EstimatorConfig(n=1.0, q=1.0, beta=1.0, xi=0.5, m=10.0)
        assert [type(v) for v in (cfg.n, cfg.q, cfg.beta, cfg.m)] == [int] * 4
        assert cfg == EstimatorConfig(n=1, q=1, beta=1, xi=0.5, m=10)
        np.testing.assert_array_equal(
            discretize(affine_kernel(cfg), cfg).taps,
            kernel_taps(EstimatorConfig(n=1, q=1, beta=1, xi=0.5, m=10)).taps,
        )

    def test_frozen(self):
        cfg = EstimatorConfig(n=1)
        with pytest.raises(AttributeError):
            cfg.n = 2  # type: ignore[misc]
