"""Tests for pointwise and sliding-window derivative estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdiff.estimator import SampledSignal, estimate_at, estimate_series
from algdiff.kernel import (
    DiscreteKernel,
    EstimatorConfig,
    affine_kernel,
    discretize,
    minimal_kernel,
)
from algdiff.specfun import JacobiIndex, smallest_root


def make_kernel(cfg: EstimatorConfig) -> DiscreteKernel:
    p = affine_kernel(cfg) if cfg.q else minimal_kernel(cfg)
    return discretize(p, cfg)


def ramp_signal(ts: float, count: int, slope: float = 1.0) -> SampledSignal:
    t = np.arange(count) * ts
    return SampledSignal(0.0, ts, slope * t)


class TestSampledSignal:
    def test_times(self):
        sig = SampledSignal(0.5, 0.1, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(sig.times, [0.5, 0.6, 0.7])

    @pytest.mark.parametrize("ts", [0.0, -0.1])
    def test_rejects_bad_period(self, ts):
        with pytest.raises(ValueError):
            SampledSignal(0.0, ts, [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampledSignal(0.0, 0.1, [])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            SampledSignal(0.0, 0.1, [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sample(self, bad):
        with pytest.raises(ValueError, match="sample 1 is"):
            SampledSignal(0.0, 0.1, [1.0, bad, 3.0])


class TestWindowOrientation:
    """Tap i multiplies the sample at index t0_index + beta*i."""

    @pytest.mark.parametrize("beta", [-1, 1])
    @pytest.mark.parametrize("hot", [0, 3, 10])
    def test_one_hot_taps(self, beta, hot):
        cfg = EstimatorConfig(n=1, beta=beta, T=0.1, m=10)
        taps = np.zeros(11)
        taps[hot] = 1.0
        k = DiscreteKernel(taps, cfg)
        values = np.arange(100, dtype=float)
        sig = SampledSignal(0.0, 0.01, values)
        t0 = 50
        assert estimate_at(sig, k, t0) == values[t0 + beta * hot]


class TestEstimateAt:
    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig(n=1, beta=-1, T=0.08, m=8),
            EstimatorConfig(n=1, beta=1, T=0.08, m=8),
            EstimatorConfig(n=1, mu=1.0, kappa=1.0, beta=-1, T=0.57, m=57),
        ],
    )
    def test_constant_annihilation(self, cfg):
        # configs whose tap integrand the trapezoid rule integrates exactly,
        # so a constant input leaves only rounding noise
        c = 3.7
        sig = SampledSignal(0.0, cfg.T / cfg.m, np.full(200, c))
        k = make_kernel(cfg)
        scale = float(np.sum(np.abs(k.taps)))
        assert abs(estimate_at(sig, k, 100)) <= 1e-9 * abs(c) * scale

    @pytest.mark.parametrize("n,mu,kappa", [(1, 0.3, 0.7), (2, 0.0, 0.0)])
    def test_constant_residue_decays_with_refinement(self, n, mu, kappa):
        # other exponent choices leave a quadrature residue on constants
        # that shrinks at least quadratically-ish in the tap count
        c = 3.7
        residue = {}
        for m in (100, 400):
            cfg = EstimatorConfig(n=n, mu=mu, kappa=kappa, beta=-1, T=1.0, m=m)
            k = make_kernel(cfg)
            residue[m] = abs(float(np.sum(k.taps)) * c)
        assert residue[100] / residue[400] >= 4.0

    def test_ramp_coarse_window(self):
        # the trapezoid rule leaves a 2/m**2 residue on the slope
        cfg = EstimatorConfig(n=1, beta=-1, T=0.2, m=20)
        sig = ramp_signal(0.01, 201)
        k = make_kernel(cfg)
        assert estimate_at(sig, k, 100) == pytest.approx(1.005, abs=1e-12)

    def test_ramp_dense_window(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.2, m=2000)
        sig = ramp_signal(0.0001, 4001)
        k = make_kernel(cfg)
        assert estimate_at(sig, k, 3000) == pytest.approx(1.0, abs=1e-6)

    def test_parabola_delay_value(self):
        # slope of t**2 read 0.1 s back: 2*(1 - 0.1) = 1.8
        ts = 0.001
        t = np.arange(1201) * ts
        sig = SampledSignal(0.0, ts, t**2)
        cfg = EstimatorConfig(n=1, beta=-1, T=0.2, m=200)
        k = make_kernel(cfg)
        assert estimate_at(sig, k, 1000) == pytest.approx(1.8, abs=1e-4)

    @pytest.mark.parametrize("beta", [-1, 1])
    @pytest.mark.parametrize("mu,kappa,m", [(0.0, 0.0, 400), (1.0, 1.0, 800)])
    def test_first_order_delay_law(self, beta, mu, kappa, m):
        # constant second derivative shifts the estimate by beta*T*(kappa+2)/(mu+kappa+4)
        T, c = 0.5, -1.3
        ts = T / m
        t = np.arange(6 * m + 1) * ts
        sig = SampledSignal(0.0, ts, 0.5 * c * t**2 + 0.4 * t - 2.0)
        cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=beta, T=T, m=m)
        k = make_kernel(cfg)
        t0_index = 3 * m
        t0 = t[t0_index]
        shift = beta * T * (kappa + 2.0) / (mu + kappa + 4.0) * c
        assert estimate_at(sig, k, t0_index) - (c * t0 + 0.4) == pytest.approx(shift, rel=1e-4)

    def test_first_order_delay_law_fractional_exponents(self):
        # endpoint corners of the fractional weight slow the quadrature down,
        # so assert the law as the refinement limit instead of a fixed figure
        mu, kappa, T, c = 0.3, 0.7, 0.5, -1.3
        shift = -T * (kappa + 2.0) / (mu + kappa + 4.0) * c
        residual = {}
        for m in (400, 1600):
            ts = T / m
            t = np.arange(6 * m + 1) * ts
            sig = SampledSignal(0.0, ts, 0.5 * c * t**2 + 0.4 * t - 2.0)
            cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=-1, T=T, m=m)
            k = make_kernel(cfg)
            got = estimate_at(sig, k, 3 * m) - (c * t[3 * m] + 0.4)
            residual[m] = abs(got - shift)
        assert residual[400] <= 0.02
        assert residual[1600] <= residual[400] / 4.0

    def test_second_order_delay_law(self):
        mu, kappa, T, c = 0.0, 0.0, 0.6, 2.4
        ts = T / 3000
        t = np.arange(15001) * ts
        sig = SampledSignal(0.0, ts, c * t**3 / 6 - t**2 + 5.0)
        cfg = EstimatorConfig(n=2, mu=mu, kappa=kappa, beta=-1, T=T, m=3000)
        k = make_kernel(cfg)
        t0_index = 9000
        shift = -T * (kappa + 3.0) / (mu + kappa + 6.0) * c
        assert estimate_at(sig, k, t0_index) - (c * t[t0_index] - 2.0) == pytest.approx(
            shift, rel=1e-3
        )

    def test_affine_delay_on_quadratic(self):
        # two-term estimator reads the slope at the abscissa xi, and a degree-2
        # signal has no truncation bias left, only the 1/m**2 quadrature residue
        xi = float(smallest_root(JacobiIndex(2, 1.0, 1.0)))
        ts = 0.0001
        t = np.arange(12001) * ts
        sig = SampledSignal(0.0, ts, t**2)
        cfg = EstimatorConfig(n=1, q=1, xi=xi, beta=-1, T=0.2, m=2000)
        k = make_kernel(cfg)
        assert estimate_at(sig, k, 10000) == pytest.approx(2 * (1.0 - 0.2 * xi), abs=5e-5)

    def test_window_out_of_range(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.1, m=10)
        sig = ramp_signal(0.01, 30)
        k = make_kernel(cfg)
        with pytest.raises(IndexError):
            estimate_at(sig, k, 9)  # causal window would start at -1
        anti = EstimatorConfig(n=1, beta=1, T=0.1, m=10)
        k2 = make_kernel(anti)
        with pytest.raises(IndexError):
            estimate_at(sig, k2, 25)

    def test_misaligned_sampling_rejected(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.2, m=20)
        sig = ramp_signal(0.011, 100)  # m*ts = 0.22 != T
        k = make_kernel(cfg)
        with pytest.raises(ValueError):
            estimate_at(sig, k, 50)


class TestMirrorSymmetry:
    @pytest.mark.parametrize("n", [1, 2])
    def test_time_reversal(self, n):
        # estimating x(t) causally equals estimating x(-t) anti-causally,
        # up to the sign (-1)**n
        ts = 0.01
        t = np.arange(201) * ts
        x = t**3 - 2.0 * t**2 + 5.0 * t + 1.0
        cfg_b = EstimatorConfig(n=n, mu=0.25, kappa=0.5, beta=-1, T=0.5, m=50)
        cfg_f = EstimatorConfig(n=n, mu=0.25, kappa=0.5, beta=1, T=0.5, m=50)
        sig = SampledSignal(0.0, ts, x)
        mirrored = SampledSignal(-2.0, ts, x[::-1].copy())
        est_b = estimate_at(sig, make_kernel(cfg_b), 150)  # t0 = 1.5
        est_f = estimate_at(mirrored, make_kernel(cfg_f), 50)  # t0 = -1.5
        assert est_f == pytest.approx((-1) ** n * est_b, rel=1e-12)


class TestEstimateSeries:
    def test_single_window_signal(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.1, m=10)
        sig = ramp_signal(0.01, 11)
        ser = estimate_series(sig, cfg)
        assert len(ser.estimates) == 1
        assert ser.t_first == pytest.approx(0.1)

    def test_causal_window_arithmetic(self):
        # 1001 samples at 200 Hz with an 18-sample window leave 983 estimates
        ts = 1.0 / 200.0
        sig = SampledSignal(0.0, ts, np.sin(np.arange(1001) * ts))
        cfg = EstimatorConfig(n=1, beta=-1, T=18 * ts, m=18)
        ser = estimate_series(sig, cfg)
        assert len(ser.estimates) == 983
        assert ser.t_first == pytest.approx(18 * ts)
        assert ser.times[0] == pytest.approx(18 * ts)
        assert ser.times[-1] == pytest.approx(1000 * ts)

    def test_anticausal_window_arithmetic(self):
        ts = 1.0 / 200.0
        sig = SampledSignal(0.0, ts, np.sin(np.arange(1001) * ts))
        cfg = EstimatorConfig(n=1, beta=1, T=18 * ts, m=18)
        ser = estimate_series(sig, cfg)
        assert len(ser.estimates) == 983
        assert ser.t_first == pytest.approx(0.0)
        assert ser.times[-1] == pytest.approx((1000 - 18) * ts)

    def test_too_short_signal(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.1, m=10)
        with pytest.raises(ValueError):
            estimate_series(ramp_signal(0.01, 10), cfg)

    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig(n=1, beta=-1, T=0.1, m=10),
            EstimatorConfig(n=1, beta=1, T=0.1, m=10),
            EstimatorConfig(n=1, q=1, xi=0.3, mu=0.5, kappa=0.25, beta=-1, T=0.1, m=10),
        ],
    )
    def test_matches_pointwise_application_bitwise(self, cfg):
        rng = np.random.default_rng(7)
        sig = SampledSignal(0.0, 0.01, rng.normal(size=60))
        ser = estimate_series(sig, cfg)
        k = make_kernel(cfg)
        start = cfg.m if cfg.beta == -1 else 0
        expect = [estimate_at(sig, k, start + j) for j in range(len(ser.estimates))]
        np.testing.assert_array_equal(ser.estimates, expect)

    def test_config_attached(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=0.1, m=10)
        ser = estimate_series(ramp_signal(0.01, 30), cfg)
        assert ser.config == cfg

    def test_sine_series_tracks_delayed_truth(self):
        # 25-sample window on sin(2t): the estimate is close to the
        # derivative read T/2 = 0.3927 s earlier, and far from the
        # unshifted derivative
        ts = np.pi / 100
        t = np.arange(446) * ts
        sig = SampledSignal(0.0, ts, np.sin(2 * t))
        cfg = EstimatorConfig(n=1, beta=-1, T=25 * ts, m=25)
        ser = estimate_series(sig, cfg)
        delay = cfg.T * 2.0 / 4.0
        assert delay == pytest.approx(0.3927, abs=5e-5)
        shifted = 2 * np.cos(2 * (ser.times - delay))
        raw = 2 * np.cos(2 * ser.times)
        err_shifted = ser.estimates - shifted
        err_raw = ser.estimates - raw
        assert np.max(np.abs(err_shifted)) <= 0.15
        rms = lambda v: float(np.sqrt(np.mean(v**2)))  # noqa: E731
        assert rms(err_shifted) <= 0.1 * rms(err_raw)


class TestSeriesComposition:
    """The order-2 estimate decomposes into three order-1 estimates."""

    @pytest.mark.parametrize("mu,kappa", [(0.0, 0.0), (1.0, 0.5)])
    def test_second_order_recurrence(self, mu, kappa):
        n, beta, T, m = 2, -1, 0.5, 250
        ts = T / m
        t = np.arange(1501) * ts
        sig = SampledSignal(0.0, ts, np.sin(2 * t) + 0.3 * np.exp(0.5 * t))
        cfg2 = EstimatorConfig(n=2, mu=mu, kappa=kappa, beta=beta, T=T, m=m)
        k2 = make_kernel(cfg2)

        def first_order(mm, kk):
            c = EstimatorConfig(n=1, mu=mm, kappa=kk, beta=beta, T=T, m=m)
            return make_kernel(c)

        A = (mu + kappa + 2 * n + 1) * (mu + kappa + 2 * n) / (2 * beta * T * (n + mu))
        B = -(mu + kappa + 2 * n + 1) * (mu + kappa + 2 * n) / (2 * beta * T * (n + kappa))
        for i0 in (400, 900, 1400):
            lhs = estimate_at(sig, k2, i0)
            rhs = (
                -(A + B) * estimate_at(sig, first_order(mu, kappa), i0)
                + A * estimate_at(sig, first_order(mu, kappa + 1), i0)
                + B * estimate_at(sig, first_order(mu + 1, kappa), i0)
            )
            assert rhs == pytest.approx(lhs, rel=1e-6)


# -- the vectorized apply step against independent references --------------

EPS = float(np.finfo(float).eps)
APPLY_ULPS = 16  # |estimate - exact window sum| <= APPLY_ULPS * eps * sum|tap * x|


@st.composite
def apply_cases(draw):
    """A config with fractional exponents, and a noisy signal a few windows long.

    m stays small enough for cheap kernels but covers both NumPy correlation
    paths (short kernels, m <= 10, take a different one).  ``offset`` moves
    the samples by one element within their buffer, so both 8-byte
    alignments of the data occur.
    """
    n = draw(st.integers(1, 3))
    q = draw(st.integers(0, 2))
    exponent = st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True)
    m = draw(st.integers(n + q + 1, 300))
    ts = 0.01
    cfg = EstimatorConfig(
        n=n, q=q, mu=draw(exponent), kappa=draw(exponent), beta=draw(st.sampled_from((-1, 1))),
        T=m * ts, xi=draw(st.floats(0.0, 1.0)) if q else 0.0, m=m,
    )
    count = m + 1 + draw(st.integers(0, 40))
    offset = draw(st.integers(0, 1))
    buffer = np.empty(count + 1)
    values = buffer[offset : offset + count]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values[:] = np.cumsum(rng.normal(size=count))
    return cfg, SampledSignal(0.0, ts, values)


def window_products(k: DiscreteKernel, values: np.ndarray, j: int) -> np.ndarray:
    """tap_i * x[t0 + beta*i] for output j, with t0 = j (+ m when causal)."""
    cfg = k.config
    t0 = j + cfg.m if cfg.beta == -1 else j
    return k.taps * values[t0 + cfg.beta * np.arange(cfg.m + 1)]


class TestApplyProperties:
    @settings(deadline=None)
    @given(apply_cases())
    def test_within_rounding_of_exact_window_sum(self, case):
        cfg, sig = case
        est = estimate_series(sig, cfg).estimates
        assert est.shape == (len(sig.values) - cfg.m,)
        k = make_kernel(cfg)
        for j, value in enumerate(est):
            products = window_products(k, sig.values, j)
            bound = APPLY_ULPS * EPS * math.fsum(np.abs(products))
            assert abs(value - math.fsum(products)) <= bound

    @settings(deadline=None)
    @given(apply_cases())
    def test_estimate_at_is_the_series_bit_for_bit(self, case):
        cfg, sig = case
        ser = estimate_series(sig, cfg)
        k = make_kernel(cfg)
        start = cfg.m if cfg.beta == -1 else 0
        expect = [estimate_at(sig, k, start + j) for j in range(len(ser.estimates))]
        np.testing.assert_array_equal(ser.estimates, expect)

    @settings(deadline=None)
    @given(apply_cases(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    def test_linearity(self, case, a, b):
        cfg, sig = case
        other = np.sin(np.arange(len(sig.values)) * 0.3)
        mixed = SampledSignal(0.0, sig.ts, a * sig.values + b * other)
        got = estimate_series(mixed, cfg).estimates
        expect = (a * estimate_series(sig, cfg).estimates
                  + b * estimate_series(SampledSignal(0.0, sig.ts, other), cfg).estimates)
        size = np.abs(a * sig.values) + np.abs(b * other)
        k = make_kernel(cfg)
        for j, (g, e) in enumerate(zip(got, expect)):
            bound = 4 * APPLY_ULPS * EPS * math.fsum(np.abs(window_products(k, size, j)))
            assert abs(g - e) <= bound

    @settings(deadline=None)
    @given(apply_cases(), st.data())
    def test_time_shift_equivariance(self, case, data):
        cfg, sig = case
        shift = data.draw(st.integers(0, len(sig.values) - cfg.m - 1))
        full = estimate_series(sig, cfg)
        moved = estimate_series(
            SampledSignal(sig.t_start + shift * sig.ts, sig.ts, sig.values[shift:]), cfg
        )
        np.testing.assert_allclose(moved.times, full.times[shift:], rtol=0, atol=1e-12)
        k = make_kernel(cfg)
        for j, value in enumerate(moved.estimates):
            products = window_products(k, sig.values, j + shift)
            bound = 2 * APPLY_ULPS * EPS * math.fsum(np.abs(products))
            assert abs(value - full.estimates[j + shift]) <= bound
