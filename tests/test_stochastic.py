"""Tests for noise-path generation, SNR calibration, and the MC engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdiff.estimator import SampledSignal
from algdiff.kernel import EstimatorConfig, affine_kernel, discretize, minimal_kernel
from algdiff.stochastic import (
    Poisson,
    PolyMean,
    RngSeed,
    WhiteGaussian,
    Wiener,
    calibrate_snr,
    gen_path,
    mc_noise_error,
    mc_noise_samples,
)
from oracles import bisection_calibrate_snr, snr_db


def snr_slope(x: np.ndarray, w: np.ndarray, c: float) -> float:
    """d(SNR in dB)/d(ln C) at C = c: how sharply the target pins C down."""
    a, b = 2.0 * float(x @ w) / (float(w @ w) * c), float(x @ x) / (float(w @ w) * c * c)
    return 10.0 / math.log(10.0) * (-a - 2.0 * b) / (1.0 + a + b)


def calibrate_or_none(calibrate, x: SampledSignal, w: SampledSignal, target: float):
    try:
        return calibrate(x, w, target)
    except ValueError:
        return None


def signal_pairs(max_len: int = 12):
    """Signal and noise path of one common length."""
    value = st.floats(-10.0, 10.0, allow_subnormal=False)
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(*[st.lists(value, min_size=n, max_size=n)] * 2)
    )


class TestRngSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)
        with pytest.raises(ValueError):
            RngSeed(0, stream=-5)

    def test_shift_wraps(self):
        s = RngSeed(7, stream=2**64 - 1)
        assert s.shifted(1).stream == 0
        assert s.shifted(3).stream == 2
        assert s.shifted(1).seed == 7

    def test_generator_reproducible(self):
        a = RngSeed(42, 3).generator().normal(size=8)
        b = RngSeed(42, 3).generator().normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(42, 0).generator().normal(size=8)
        b = RngSeed(42, 1).generator().normal(size=8)
        assert not np.array_equal(a, b)


class TestGenPath:
    def test_shape_and_grid(self):
        path = gen_path(WhiteGaussian(1.0), 0.05, 30, RngSeed(1))
        assert path.t_start == 0.0
        assert path.ts == 0.05
        assert path.values.shape == (30,)

    def test_silent_white_noise(self):
        path = gen_path(WhiteGaussian(0.0), 0.1, 20, RngSeed(1))
        np.testing.assert_array_equal(path.values, np.zeros(20))

    def test_cumulative_paths_start_at_zero(self):
        for model in (Wiener(1.0), Poisson(2.0)):
            path = gen_path(model, 0.1, 11, RngSeed(5))
            assert path.values[0] == 0.0

    def test_counting_path_is_integer_and_nondecreasing(self):
        path = gen_path(Poisson(3.0), 0.1, 200, RngSeed(9))
        assert np.all(np.diff(path.values) >= 0)
        np.testing.assert_array_equal(path.values, np.round(path.values))

    def test_brownian_variance_at_unit_time(self):
        # Var W(1) = sigma2; five standard errors of the variance estimator
        trials = 10_000
        w1 = np.array(
            [gen_path(Wiener(1.0), 0.1, 11, RngSeed(100, k)).values[-1] for k in range(trials)]
        )
        assert abs(float(np.var(w1, ddof=1)) - 1.0) <= 5.0 * math.sqrt(2.0 / trials)

    def test_counting_mean_at_unit_time(self):
        trials = 10_000
        n1 = np.array(
            [gen_path(Poisson(2.0), 0.1, 11, RngSeed(200, k)).values[-1] for k in range(trials)]
        )
        assert abs(float(np.mean(n1)) - 2.0) <= 5.0 * math.sqrt(2.0 / trials)

    def test_polynomial_mean_is_deterministic_offset(self):
        path = gen_path(PolyMean((1.0, 2.0), WhiteGaussian(0.0)), 0.1, 15, RngSeed(3))
        t = np.arange(15) * 0.1
        np.testing.assert_allclose(path.values, 1.0 + 2.0 * t, rtol=1e-14)

    def test_polynomial_mean_rides_on_base_path(self):
        seed = RngSeed(17, 4)
        base = gen_path(Wiener(1.3), 0.05, 40, seed)
        combined = gen_path(PolyMean((0.5, -1.0), Wiener(1.3)), 0.05, 40, seed)
        t = np.arange(40) * 0.05
        np.testing.assert_allclose(combined.values - (0.5 - 1.0 * t), base.values, atol=1e-12)

    def test_reproducible_and_stream_sensitive(self):
        a = gen_path(Wiener(1.0), 0.01, 50, RngSeed(8, 2)).values
        b = gen_path(Wiener(1.0), 0.01, 50, RngSeed(8, 2)).values
        c = gen_path(Wiener(1.0), 0.01, 50, RngSeed(8, 3)).values
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_brownian_scale_equivariance(self):
        # quadrupling sigma2 doubles the path pointwise for the same draws
        seed = RngSeed(23, 1)
        one = gen_path(Wiener(1.0), 0.02, 60, seed).values
        four = gen_path(Wiener(4.0), 0.02, 60, seed).values
        np.testing.assert_allclose(four, 2.0 * one, rtol=1e-12, atol=1e-15)

    def test_brownian_variance_ratio_across_streams(self):
        trials = 10_000
        v = {}
        for sigma2, base in ((1.0, 300), (4.0, 301)):
            ends = np.array(
                [
                    gen_path(Wiener(sigma2), 0.1, 11, RngSeed(base, k)).values[-1]
                    for k in range(trials)
                ]
            )
            v[sigma2] = float(np.var(ends, ddof=1))
        assert 3.7 <= v[4.0] / v[1.0] <= 4.3


class TestCalibrateSnr:
    @staticmethod
    def reference_signal() -> SampledSignal:
        ts = 1.0 / 200.0
        t = np.arange(1001) * ts
        return SampledSignal(0.0, ts, np.exp(-t / 1.2) * np.sin(6.0 * t))

    def test_self_consistency_at_16_db(self):
        x = self.reference_signal()
        noise = gen_path(Wiener(1.0), x.ts, 1001, RngSeed(77))
        c = calibrate_snr(x, noise, 16.0)
        assert c > 0
        assert snr_db(x.values, c * noise.values) == pytest.approx(16.0, abs=1e-6)

    def test_noise_equal_to_signal(self):
        x = self.reference_signal()
        target = 20.0 * math.log10(2.0)  # y = 2x at C = 1
        c = calibrate_snr(x, x, target)
        assert c == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_target(self):
        x = self.reference_signal()
        noise = gen_path(Wiener(1.0), x.ts, 1001, RngSeed(78))
        ladder = [calibrate_snr(x, noise, db) for db in (6.0, 12.0, 20.0)]
        assert ladder[0] > ladder[1] > ladder[2] > 0

    def test_infeasible_target(self):
        x = self.reference_signal()
        # with noise == x the ratio tends to 0 dB from above as C grows,
        # so a negative target cannot be met
        with pytest.raises(ValueError):
            calibrate_snr(x, x, -5.0)

    def test_rejects_empty_noise(self):
        x = self.reference_signal()
        silent = SampledSignal(0.0, x.ts, np.zeros(1001))
        with pytest.raises(ValueError):
            calibrate_snr(x, silent, 10.0)

    def test_rejects_mismatched_grids(self):
        x = self.reference_signal()
        other = SampledSignal(0.0, x.ts, np.ones(500))
        with pytest.raises(ValueError):
            calibrate_snr(x, other, 10.0)
        wrong_ts = SampledSignal(0.0, x.ts * 2, np.ones(1001))
        with pytest.raises(ValueError):
            calibrate_snr(x, wrong_ts, 10.0)

    def test_dip_below_one_is_found(self):
        # the SNR dips to -12.3 dB at C = 0.25 and is back above -3 dB by
        # C = 1; the bisection's bracket only doubles from C = 1, so it
        # reported -3 dB as infeasible
        x = SampledSignal(0.0, 1.0, np.array([1.0, 0.0]))
        w = SampledSignal(0.0, 1.0, np.array([-4.0, 1.0]))
        with pytest.raises(ValueError, match="stays above target"):
            bisection_calibrate_snr(x, w, -3.0)
        c = calibrate_snr(x, w, -3.0)
        assert c == pytest.approx(0.148317445339862, rel=1e-12)
        assert snr_db(x.values, c * w.values) == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 4000.0])
    def test_rejects_target_out_of_range(self, target):
        x = self.reference_signal()
        noise = gen_path(Wiener(1.0), x.ts, 1001, RngSeed(77))
        with pytest.raises(ValueError):
            calibrate_snr(x, noise, target)

    def test_zero_signal_is_below_every_target(self):
        zero = SampledSignal(0.0, 1.0, np.zeros(3))
        noise = SampledSignal(0.0, 1.0, np.array([1.0, -2.0, 0.5]))
        with pytest.raises(ValueError, match="below target even at C -> 0"):
            calibrate_snr(zero, noise, -10.0)

    @given(signal_pairs(), st.floats(-15.0, 60.0))
    @settings(max_examples=400, deadline=None)
    def test_matches_bisection_oracle(self, pair, target):
        x, w = (SampledSignal(0.0, 1.0, np.array(v)) for v in pair)
        assume(float(x.values @ x.values) > 1e-6 and float(w.values @ w.values) > 1e-6)
        got = calibrate_or_none(calibrate_snr, x, w, target)
        want = calibrate_or_none(bisection_calibrate_snr, x, w, target)
        if got is not None:
            assert abs(snr_db(x.values, got * w.values) - target) <= 1e-9
        if want is None:
            return
        # a root where the SNR barely moves with C (at 0 dB with x.w > 0, or
        # where the target grazes the SNR floor) is fixed only to the dB
        # rounding over that slope, in either route
        if abs(snr_slope(x.values, w.values, want)) >= 0.1:
            assert got == pytest.approx(want, rel=1e-12)


class TestMcNoiseSamples:
    CFG = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)

    def test_deterministic(self):
        a = mc_noise_samples(self.CFG, Wiener(1.0), 2.0, 200, RngSeed(11))
        b = mc_noise_samples(self.CFG, Wiener(1.0), 2.0, 200, RngSeed(11))
        np.testing.assert_array_equal(a, b)

    def test_stream_blocks_uncorrelated(self):
        trials = 2000
        a = mc_noise_samples(self.CFG, Wiener(1.0), 2.0, trials, RngSeed(5, 0))
        b = mc_noise_samples(self.CFG, Wiener(1.0), 2.0, trials, RngSeed(5, 10**6))
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(trials)

    @pytest.mark.parametrize("beta", [-1, 1])
    @pytest.mark.parametrize(
        "model",
        [Wiener(1.0), WhiteGaussian(2.0), Poisson(20.0), PolyMean((1.0, -2.0), Poisson(3.0))],
        ids=["wiener", "white", "poisson", "polymean"],
    )
    def test_trial_k_applies_taps_to_gen_path_k(self, model, beta):
        # the trial loop skips the SampledSignal wrapper but draws the same path
        cfg = EstimatorConfig(n=1, q=1, xi=0.3, beta=beta, T=0.5, m=50)
        seed = RngSeed(9, 3)
        got = mc_noise_samples(cfg, model, 1.0, 20, seed)
        taps = discretize(affine_kernel(cfg), cfg).taps
        k0 = 100
        idx = k0 + beta * np.arange(cfg.m + 1)
        count = k0 + 1 if beta == -1 else k0 + cfg.m + 1
        expect = [np.dot(taps, gen_path(model, cfg.T / cfg.m, count, seed.shifted(k)).values[idx])
                  for k in range(20)]
        np.testing.assert_array_equal(got, expect)

    def test_off_grid_anchor_rejected(self):
        with pytest.raises(ValueError):
            mc_noise_samples(self.CFG, Wiener(1.0), 2.0001, 200, RngSeed(1))

    def test_causal_anchor_before_full_window_rejected(self):
        with pytest.raises(ValueError):
            mc_noise_samples(self.CFG, Wiener(1.0), 0.5, 200, RngSeed(1))


class TestMcNoiseError:
    def test_white_noise_variance_matches_closed_form(self):
        cfg = EstimatorConfig(n=1, mu=0.25, kappa=0.5, beta=-1, T=1.0, m=200)
        k = discretize(minimal_kernel(cfg), cfg)
        target = 0.8 * float(np.sum(k.taps**2))
        mean, var, stderr = mc_noise_error(cfg, WhiteGaussian(0.8), 2.0, 10_000, RngSeed(31))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)
        assert abs(var - target) <= 4.0 * stderr

    def test_brownian_variance_matches_continuous_form(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        _, var, _ = mc_noise_error(cfg, Wiener(1.0), 2.0, 10_000, RngSeed(11))
        assert abs(var - 1.2) <= 0.05 * 1.2

    def test_counting_mean_matches_rate_first_order(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        mean, var, _ = mc_noise_error(cfg, Poisson(1.0), 2.0, 10_000, RngSeed(13))
        assert abs(mean - 1.0) <= 4.0 * math.sqrt(var / 10_000)

    def test_counting_mean_vanishes_second_order(self):
        cfg = EstimatorConfig(n=2, beta=-1, T=1.0, m=400)
        mean, var, _ = mc_noise_error(cfg, Poisson(1.5), 2.0, 10_000, RngSeed(14))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)

    def test_low_degree_polynomial_mean_annihilated(self):
        cfg = EstimatorConfig(n=2, beta=-1, T=1.0, m=200)
        model = PolyMean((0.7, -0.4), WhiteGaussian(0.5))
        mean, var, _ = mc_noise_error(cfg, model, 2.0, 10_000, RngSeed(15))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)

    def test_deterministic(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=100)
        a = mc_noise_error(cfg, Wiener(1.0), 2.0, 500, RngSeed(21))
        b = mc_noise_error(cfg, Wiener(1.0), 2.0, 500, RngSeed(21))
        assert a == b

    def test_requires_enough_trials(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=100)
        with pytest.raises(ValueError):
            mc_noise_error(cfg, Wiener(1.0), 2.0, 99, RngSeed(1))


class TestModelValidation:
    def test_nonnegative_parameters(self):
        with pytest.raises(ValueError):
            WhiteGaussian(-0.1)
        with pytest.raises(ValueError):
            Wiener(-1.0)
        with pytest.raises(ValueError):
            Poisson(-2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters(self, value):
        for model in (WhiteGaussian, Wiener, Poisson):
            with pytest.raises(ValueError):
                model(value)
        with pytest.raises(ValueError):
            PolyMean((1.0, value), Wiener(1.0))

    def test_white_noise_has_no_cov_matrix(self):
        with pytest.raises(TypeError):
            WhiteGaussian(1.0).cov_matrix(np.zeros(2), np.zeros(2))

    def test_white_part_dispatch(self):
        assert WhiteGaussian(0.9).white_part() == 0.9
        assert Wiener(1.0).white_part() is None
        assert Poisson(1.0).white_part() is None
        assert PolyMean((1.0,), WhiteGaussian(0.9)).white_part() == 0.9
