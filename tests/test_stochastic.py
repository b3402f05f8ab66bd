"""Tests for noise-path generation, SNR calibration, and the MC engine."""

from __future__ import annotations

import math
import warnings
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdiff.estimator import SampledSignal
from algdiff.kernel import EstimatorConfig, affine_kernel, discretize, kernel_taps, minimal_kernel
from algdiff.stochastic import (
    Poisson,
    RngSeed,
    WhiteGaussian,
    Wiener,
    calibrate_snr,
    gen_path,
    mc_noise_samples,
)
from algdiff.stochastic import _MAX_PATH_SAMPLES, _draws, _sample_moments, _window_indices
from oracles import bisection_calibrate_snr, snr_db

U64 = 2**64
MODELS = [Wiener(1.0), WhiteGaussian(2.0), Poisson(20.0)]
MODEL_IDS = ["wiener", "white", "poisson"]
EPS = np.finfo(float).eps
TRIAL_ULPS = 16  # 300 Wiener trials at m = 400 reach 0.67 eps * S


def assert_trials_apply_taps_to_gen_path(got, taps, idx, model, step, count, seed):
    """Trial k equals the taps applied to gen_path(seed.shifted(k)) up to rounding.

    The exact value sums tap_i * path_i in Fraction, path_i built from the
    path's own draws.  The bound is TRIAL_ULPS * eps * S, with S the sum of
    |tap_i| times the |draws| that make path_i; a trial on another key misses
    by O(1).
    """
    cumulative = model.increment_part() is not None
    for k, value in enumerate(got):
        draws = _draws(model, step, count, seed.shifted(k).generator())
        # the draws are gen_path's: its samples are built from them
        built = np.concatenate(([0.0], np.cumsum(draws))) if cumulative else draws
        path = gen_path(model, step, count, seed.shifted(k)).values
        np.testing.assert_array_equal(path, built)
        exact, scale = [Fraction(0)], [0.0]
        if cumulative:
            for d in draws:
                exact.append(exact[-1] + Fraction(float(d)))
                scale.append(scale[-1] + abs(float(d)))
        else:
            exact, scale = [Fraction(float(d)) for d in draws], np.abs(draws)
        want = sum(Fraction(float(t)) * exact[i] for t, i in zip(taps, idx))
        bound = sum(abs(t) * scale[i] for t, i in zip(taps, idx))
        assert abs(Fraction(float(value)) - want) <= TRIAL_ULPS * EPS * bound, k


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

    def test_streams_either_side_of_the_top_bit_differ(self):
        # a key list mixing words below and at or above 2**63 became float64,
        # so streams 2**63 and 2**63 + 1 rounded to one key
        a = RngSeed(5, 2**63).generator().normal(size=8)
        b = RngSeed(5, 2**63 + 1).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_top_stream_keeps_its_key_without_warning(self):
        # 2**64 - 56 used to round to 2**64 in float64 and wrap to 0 in the cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = RngSeed(5, U64 - 56).generator()
            draw = top.normal(size=8)
        assert top.bit_generator.state["state"]["key"].tolist() == [5, U64 - 56]
        assert not np.array_equal(draw, RngSeed(5, 0).generator().normal(size=8))


class TestGenPath:
    def test_shape_and_grid(self):
        path = gen_path(WhiteGaussian(1.0), 0.05, 30, RngSeed(1))
        assert path.t_start == 0.0
        assert path.ts == 0.05
        assert path.values.shape == (30,)

    @pytest.mark.parametrize("ts", [math.inf, math.nan, 0.0, -0.1])
    def test_rejects_bad_period(self, ts):
        # named before any draw: an infinite step would make every sample non-finite
        with pytest.raises(ValueError, match=f"ts must be finite and positive, got {ts!r}"):
            gen_path(Wiener(1.0), ts, 3, RngSeed(1))

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            gen_path(Wiener(1.0), 0.1, 0, RngSeed(1))

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unknown noise model"):
            gen_path("wiener", 0.1, 3, RngSeed(1))

    def test_poisson_rate_beyond_numpy_limit_names_nu_and_step(self):
        # NumPy's own error, "lam value too large", named neither
        with pytest.raises(ValueError, match=r"nu = 1e\+300 at step 0.025 passes NumPy's Poisson limit"):
            gen_path(Poisson(1e300), 0.025, 10, RngSeed(1))

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

    def test_huge_scale_attains_target_without_overflow(self):
        # C = 1e200 attains 0 dB, but |C w|^2 overflows: the attained-SNR check
        # used to warn, get inf/inf and report the target as not attained
        x = SampledSignal(0.0, 1.0, np.array([1.0, 0.0]))
        w = SampledSignal(0.0, 1.0, np.array([-1e-200, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = calibrate_snr(x, w, 0.0)
        assert c == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.parametrize(
        "xv, wv, target",
        [
            # r * |w|^2 is about 1e312, so the unscaled root was inf / inf
            ([1.0, 2.0], [3e6, -1e6], 2990.0),
            # |w| is modest but r * |w|^2 * |x|^2 is about 3e308
            ([1.0] * 20_000, [1.5] * 20_000, 2999.0),
            # scaling w alone by sqrt(len * |x|^2) would overflow r * |w|^2
            ([3e-8, -1e-8, 2e-8], [0.5, 0.2, -0.4], 2985.0),
        ],
        ids=["large-noise", "long-signal", "small-signal"],
    )
    def test_high_target_does_not_overflow(self, xv, wv, target):
        # the root, about sqrt(|x|^2 / (r |w|^2)), is a normal float
        x, w = (SampledSignal(0.0, 1.0, np.array(v)) for v in (xv, wv))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = calibrate_snr(x, w, target)
        xx, ww = float(x.values @ x.values), float(w.values @ w.values)
        want = math.sqrt(xx / ww) * 10.0 ** (-target / 20.0)
        assert c == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_scale_beyond_float_range_is_reported(self):
        # the scaled root is 1e200, but C itself would be about 1e310
        x = SampledSignal(0.0, 1.0, np.array([1.0, 0.0]))
        w = SampledSignal(0.0, 1.0, np.array([-1e-310, 1e-110]))
        with pytest.raises(ValueError, match="beyond the float range"):
            calibrate_snr(x, w, 0.0)

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
            # |x + C w|^2 / |C w|^2 with C divided out: a huge C cannot overflow
            assert abs(snr_db(x.values / got, w.values) - target) <= 1e-9
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
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_trial_k_applies_taps_to_gen_path_k(self, model, beta):
        # the trial loop weights the draws instead of building the path, but
        # draws the same numbers
        cfg = EstimatorConfig(n=1, q=1, xi=0.3, beta=beta, T=0.5, m=50)
        seed = RngSeed(9, 3)
        got = mc_noise_samples(cfg, model, 1.0, 20, seed)
        taps = discretize(affine_kernel(cfg), cfg).taps
        k0 = 100
        idx = k0 + beta * np.arange(cfg.m + 1)
        count = k0 + 1 if beta == -1 else k0 + cfg.m + 1
        assert_trials_apply_taps_to_gen_path(got, taps, idx, model, cfg.T / cfg.m, count, seed)

    @given(
        model=st.sampled_from(MODELS),
        beta=st.sampled_from([-1, 1]),
        m=st.integers(2, 23),
        k0=st.integers(0, 41),
        seed=st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, U64 - 1)),
        stream=st.one_of(
            st.integers(0, 2**63 - 1), st.integers(2**63, U64 - 1), st.integers(U64 - 8, U64 - 1)
        ),
        trials=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_generator_per_trial(self, model, beta, m, k0, seed, stream, trials):
        # the re-keyed generator must replay gen_path(seed.shifted(k)) for every
        # key, across the 2**64 wrap and for draw counts that leave part of a
        # four-word Philox block in the buffer
        cfg = EstimatorConfig(n=1, beta=beta, T=1.0, m=m)
        if beta == -1:
            k0 += m
        step = cfg.T / m
        rng_seed = RngSeed(seed, stream)
        got = mc_noise_samples(cfg, model, k0 * step, trials, rng_seed)
        taps = kernel_taps(cfg).taps
        idx = k0 + beta * np.arange(m + 1)
        count = k0 + 1 if beta == -1 else k0 + m + 1
        assert_trials_apply_taps_to_gen_path(got, taps, idx, model, step, count, rng_seed)

    @pytest.mark.parametrize("trials", [1, 7, 300])
    def test_builds_one_generator_per_call(self, monkeypatch, trials):
        built = []
        generator = RngSeed.generator

        def counting(self):
            built.append(self)
            return generator(self)

        monkeypatch.setattr(RngSeed, "generator", counting)
        mc_noise_samples(self.CFG, Wiener(1.0), 2.0, trials, RngSeed(3, 4))
        assert built == [RngSeed(3, 4)]

    def test_off_grid_anchor_rejected(self):
        with pytest.raises(ValueError):
            mc_noise_samples(self.CFG, Wiener(1.0), 2.0001, 200, RngSeed(1))

    def test_causal_anchor_before_full_window_rejected(self):
        with pytest.raises(ValueError):
            mc_noise_samples(self.CFG, Wiener(1.0), 0.5, 200, RngSeed(1))

    def test_anticausal_anchor_before_zero_rejected(self):
        cfg = EstimatorConfig(n=1, beta=1, T=1.0, m=400)
        with pytest.raises(ValueError, match="t0 must be nonnegative"):
            mc_noise_samples(cfg, Wiener(1.0), -0.5, 200, RngSeed(1))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            mc_noise_samples(self.CFG, Wiener(1.0), 2.0, 0, RngSeed(1))

    @pytest.mark.parametrize("beta", [-1, 1])
    def test_path_length_is_capped(self, beta):
        # checked before any path is allocated: the longest path allowed
        # passes, one more sample is refused with an error naming t0
        cfg = EstimatorConfig(n=1, beta=beta, T=1.0, m=8)
        last = _MAX_PATH_SAMPLES - 1 if beta == -1 else _MAX_PATH_SAMPLES - cfg.m - 1
        assert _window_indices(cfg, last / 8)[1] == _MAX_PATH_SAMPLES
        with pytest.raises(ValueError, match=r"t0 = .* at most 16777216"):
            _window_indices(cfg, (last + 1) / 8)


def noise_moments(cfg, model, t0, trials, seed):
    """Empirical (mean, variance, stderr-of-variance) of the noise error."""
    return _sample_moments(mc_noise_samples(cfg, model, t0, trials, seed))


class TestMcNoiseError:
    def test_white_noise_variance_matches_closed_form(self):
        cfg = EstimatorConfig(n=1, mu=0.25, kappa=0.5, beta=-1, T=1.0, m=200)
        k = discretize(minimal_kernel(cfg), cfg)
        target = 0.8 * float(np.sum(k.taps**2))
        mean, var, stderr = noise_moments(cfg, WhiteGaussian(0.8), 2.0, 10_000, RngSeed(31))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)
        assert abs(var - target) <= 4.0 * stderr

    def test_brownian_variance_matches_continuous_form(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        _, var, _ = noise_moments(cfg, Wiener(1.0), 2.0, 10_000, RngSeed(11))
        assert abs(var - 1.2) <= 0.05 * 1.2

    def test_counting_mean_matches_rate_first_order(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=400)
        mean, var, _ = noise_moments(cfg, Poisson(1.0), 2.0, 10_000, RngSeed(13))
        assert abs(mean - 1.0) <= 4.0 * math.sqrt(var / 10_000)

    def test_counting_mean_vanishes_second_order(self):
        cfg = EstimatorConfig(n=2, beta=-1, T=1.0, m=400)
        mean, var, _ = noise_moments(cfg, Poisson(1.5), 2.0, 10_000, RngSeed(14))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)

    def test_low_degree_polynomial_mean_annihilated(self):
        # the Poisson mean nu * t is a degree-1 polynomial; a third-order
        # kernel annihilates it
        cfg = EstimatorConfig(n=3, beta=-1, T=1.0, m=200)
        mean, var, _ = noise_moments(cfg, Poisson(1.5), 2.0, 10_000, RngSeed(15))
        assert abs(mean) <= 4.0 * math.sqrt(var / 10_000)

    def test_deterministic(self):
        cfg = EstimatorConfig(n=1, beta=-1, T=1.0, m=100)
        a = noise_moments(cfg, Wiener(1.0), 2.0, 500, RngSeed(21))
        b = noise_moments(cfg, Wiener(1.0), 2.0, 500, RngSeed(21))
        assert a == b


class TestSampleMoments:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 500), st.floats(1e-6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_matches_fourth_moment_form(self, seed, count, scale):
        # stderr^2 = (m4 - s^4)/N, up to rounding of the fourth moment m4
        e = scale * np.random.default_rng(seed).standard_normal(count) + 3.0 * scale
        mean, var, stderr = _sample_moments(e)
        assert mean == float(np.mean(e)) and var == float(np.var(e, ddof=1))
        m4 = float(np.mean((e - mean) ** 4))
        assert abs(stderr**2 - max(m4 - var**2, 0.0) / count) <= 1e-13 * m4 / count

    def test_huge_samples_keep_a_finite_stderr(self):
        e = np.random.default_rng(3).standard_normal(1000)
        _, var, stderr = _sample_moments(1e150 * e)
        _, var1, stderr1 = _sample_moments(e)
        assert var == pytest.approx(1e300 * var1, rel=1e-14)
        assert math.isfinite(stderr)
        assert stderr == pytest.approx(1e300 * stderr1, rel=1e-14)

    def test_variance_near_the_float_limit_does_not_overflow(self):
        # squares of deviations near 1e153 summed past the float range
        e = np.random.default_rng(3).standard_normal(1000)
        _, var, stderr = _sample_moments(1e153 * e)
        _, var1, stderr1 = _sample_moments(e)
        assert var == pytest.approx(1e306 * var1, rel=1e-14)
        assert stderr == pytest.approx(1e306 * stderr1, rel=1e-14)

    def test_constant_samples_have_zero_stderr(self):
        assert _sample_moments(np.full(100, 0.25)) == (0.25, 0.0, 0.0)


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

    @pytest.mark.parametrize(
        "model,text,field",
        [(WhiteGaussian(0.5), "WhiteGaussian(sigma2=0.5)", {"sigma2": 0.5}),
         (Wiener(1.5), "Wiener(sigma2=1.5)", {"sigma2": 1.5}),
         (Poisson(2.0), "Poisson(nu=2.0)", {"nu": 2.0})],
        ids=["white", "wiener", "poisson"],
    )
    def test_value_identity(self, model, text, field):
        assert repr(model) == text
        assert asdict(model) == field
        ((name, value),) = field.items()
        twin = type(model)(value)
        assert twin == model and hash(twin) == hash(model)
        assert type(model)(value + 1.0) != model
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, 1.0)

    def test_models_of_one_intensity_differ_by_kind(self):
        assert Wiener(1.0) != WhiteGaussian(1.0)
        assert len({Wiener(1.0), WhiteGaussian(1.0), Poisson(1.0)}) == 3

    def test_white_part_dispatch(self):
        # each model states exactly one intensity: white or independent-increment
        assert WhiteGaussian(0.9).white_part() == 0.9
        assert Wiener(1.0).white_part() is None
        assert Poisson(1.0).white_part() is None
        assert WhiteGaussian(0.9).increment_part() is None
        assert Wiener(1.3).increment_part() == 1.3
        assert Poisson(2.5).increment_part() == 2.5
