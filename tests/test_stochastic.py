"""Tests for noise-path generation, SNR calibration, and the MC engine."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdiff.estimator import SampledSignal
from algdiff.analysis import discrete_moments
from algdiff.kernel import EstimatorConfig, discretize, kernel_taps, minimal_kernel
from algdiff.stochastic import (
    Poisson,
    RngSeed,
    WhiteGaussian,
    Wiener,
    calibrate_snr,
    gen_path,
    mc_noise_samples,
)
from algdiff.stochastic import _sample_moments
from oracles import bisection_calibrate_snr, exact_discrete_moments, snr_db, taps_on_gen_path

U64 = 2**64
MODELS = [Wiener(1.0), WhiteGaussian(2.0), Poisson(20.0)]
MODEL_IDS = ["wiener", "white", "poisson"]
EPS = np.finfo(float).eps
TRIAL_ULPS = 16  # 160 trials per model at m = 400, t0 = 2 and 1e6, reach 0.6 eps * S


def window_by_hand(cfg, model, t0, rng) -> list[tuple[Fraction, float]]:
    """The window's samples X_0..X_m in time order, rebuilt from one trial's
    draws on ``rng`` with the same generator calls as `mc_noise_samples`.

    Each sample is its exact value and the sum S of the |draws| that make it.
    X_0 sits at t_s, the window's earliest time, t0 - T for a causal window
    and t0 for an anti-causal one: white noise draws every sample; otherwise
    X is the running sum of X_0 and the m increments.
    """
    step = cfg.T / cfg.m
    t_s = t0 - cfg.T if cfg.beta == -1 else t0
    if isinstance(model, Poisson):
        increments = rng.poisson(model.nu * step, cfg.m)
        draws = [float(rng.poisson(model.nu * t_s)), *map(float, increments)]
    else:
        z = rng.standard_normal(cfg.m + 1)
        if isinstance(model, WhiteGaussian):
            return [(Fraction(x), abs(x)) for x in math.sqrt(model.sigma2) * z]
        scales = [math.sqrt(model.sigma2 * t_s)] + [math.sqrt(model.sigma2 * step)] * cfg.m
        draws = [scale * float(x) for scale, x in zip(scales, z)]
    samples, exact, size = [], Fraction(0), 0.0
    for d in draws:
        exact, size = exact + Fraction(d), size + abs(d)
        samples.append((exact, size))
    return samples


def assert_trial_rebuilt_by_hand(value, cfg, model, t0, key: RngSeed):
    """One trial equals the taps applied to its window rebuilt by hand, within
    TRIAL_ULPS * eps * S, S the sum of |tap_i| times X_i's own S; a trial on
    another key misses by O(1)."""
    taps = kernel_taps(cfg).taps
    in_time_order = taps[::-1] if cfg.beta == -1 else taps
    window = window_by_hand(cfg, model, t0, key.generator())
    want = sum(Fraction(float(w)) * x for w, (x, _) in zip(in_time_order, window))
    bound = sum(abs(float(w)) * size for w, (_, size) in zip(in_time_order, window))
    assert abs(Fraction(float(value)) - want) <= TRIAL_ULPS * EPS * bound, key


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
        # in distribution: the trials have the law of the taps applied to
        # gen_path on key k, the earlier replay route that drew the path from
        # t = 0; their means and variances agree within 6 standard errors
        cfg = EstimatorConfig(n=1, q=1, xi=0.3, kappa=-0.5, beta=beta, T=0.5, m=50)
        trials = 3000
        window = mc_noise_samples(cfg, model, 1.0, trials, RngSeed(9, 3))
        replay = taps_on_gen_path(cfg, model, 1.0, trials, RngSeed(10, 3))
        (m1, v1, s1), (m2, v2, s2) = _sample_moments(window), _sample_moments(replay)
        assert abs(m1 - m2) <= 6.0 * math.sqrt((v1 + v2) / trials)
        assert abs(v1 - v2) <= 6.0 * math.hypot(s1, s2)

    @pytest.mark.parametrize("beta", [-1, 1])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_one_trial_rebuilt_by_hand(self, model, beta):
        # a window 4e8 samples from t = 0 with sum(taps) != 0, so X(t_s) counts
        cfg = EstimatorConfig(n=1, kappa=-0.5, beta=beta, T=1.0, m=400)
        seed = RngSeed(9, 3)
        (value,) = mc_noise_samples(cfg, model, 1e6, 1, seed)
        assert_trial_rebuilt_by_hand(value, cfg, model, 1e6, seed)

    def test_trial_k_depends_on_its_key_alone(self):
        # trial k of a call at stream s is trial 0 of a call at stream s + k,
        # whatever the trial count, and stream + k wraps past 2**64 - 1
        cfg = EstimatorConfig(n=1, kappa=-0.5, T=1.0, m=40)
        for model in MODELS:
            top = mc_noise_samples(cfg, model, 3.0, 6, RngSeed(7, U64 - 2))
            np.testing.assert_array_equal(top[2:], mc_noise_samples(cfg, model, 3.0, 4, RngSeed(7, 0)))
            np.testing.assert_array_equal(top[1:3], mc_noise_samples(cfg, model, 3.0, 2, RngSeed(7, U64 - 1)))
            assert len(set(top)) == 6

    @given(
        model=st.sampled_from(MODELS),
        beta=st.sampled_from([-1, 1]),
        m=st.integers(2, 23),
        k0=st.one_of(st.integers(0, 41), st.integers(0, 2**40)),
        off_grid=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        seed=st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, U64 - 1)),
        stream=st.one_of(
            st.integers(0, 2**63 - 1), st.integers(2**63, U64 - 1), st.integers(U64 - 8, U64 - 1)
        ),
        trials=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fresh_generator_per_trial(self, model, beta, m, k0, off_grid, seed, stream, trials):
        # the re-keyed generator draws what a fresh generator on key
        # (seed, stream + k mod 2**64) draws, for every key, across the wrap
        # and for draw counts that leave part of a four-word Philox block in
        # the buffer, at anchors on the sample grid or a fraction of a step off it
        cfg = EstimatorConfig(n=1, beta=beta, T=1.0, m=m)
        if beta == -1:
            k0 += m
        t0 = (k0 + off_grid) * cfg.T / m
        got = mc_noise_samples(cfg, model, t0, trials, RngSeed(seed, stream))
        for k, value in enumerate(got):
            key = RngSeed(seed, (stream + k) % U64)
            assert_trial_rebuilt_by_hand(value, cfg, model, t0, key)

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

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_off_grid_anchor_matches_discrete_moments(self, model):
        # a window draws X(t_s) and its increments wherever t_s lies, so an
        # anchor between grid points is an anchor like any other: the trials'
        # variance is the discrete one's there within 6 standard errors
        t0 = 2.0001
        _, emp_var, stderr = noise_moments(self.CFG, model, t0, 4000, RngSeed(1))
        exact = discrete_moments(kernel_taps(self.CFG), model, t0).variance
        assert abs(emp_var - exact) <= 6.0 * stderr

    def test_causal_anchor_before_full_window_rejected(self):
        with pytest.raises(ValueError):
            mc_noise_samples(self.CFG, Wiener(1.0), 0.5, 200, RngSeed(1))

    def test_anticausal_anchor_before_zero_rejected(self):
        # the bound is the anti-causal one, 0, not the causal T
        cfg = EstimatorConfig(n=1, beta=1, T=1.0, m=400)
        with pytest.raises(ValueError, match=re.escape(
                "t0 = -0.5 puts the window before t = 0, where the noise process starts; need t0 >= 0")):
            mc_noise_samples(cfg, Wiener(1.0), -0.5, 200, RngSeed(1))

    @pytest.mark.parametrize("model", [Wiener(1.0), Poisson(20.0)], ids=["wiener", "poisson"])
    def test_start_within_tolerance_below_zero_reads_as_zero(self, model):
        # T = 0.1*3 rounds above 0.3, so the causal window at t0 = 0.3 starts
        # at -5.6e-17: read as t = 0, not a nan sqrt or NumPy's "lam < 0"
        cfg = EstimatorConfig(n=1, beta=-1, T=0.1 * 3, m=40)
        assert 0.3 - cfg.T < 0.0
        np.testing.assert_array_equal(mc_noise_samples(cfg, model, 0.3, 5, RngSeed(1)),
                                      mc_noise_samples(cfg, model, cfg.T, 5, RngSeed(1)))
        k = kernel_taps(cfg)
        assert discrete_moments(k, model, 0.3) == discrete_moments(k, model, cfg.T)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            mc_noise_samples(self.CFG, Wiener(1.0), 2.0, 0, RngSeed(1))

    @pytest.mark.parametrize("beta", [-1, 1])
    def test_t0_far_from_zero_is_accepted(self, beta):
        # a window draws its m + 1 numbers wherever it lies, and its discrete
        # variance is exact there: 4e8 samples out, and 2**60, past the 2**46
        # that the tap times rounded at ulp(t0) once allowed
        cfg = EstimatorConfig(n=1, kappa=-0.5, beta=beta, T=1.0, m=400)
        k = kernel_taps(cfg)
        for t0 in (1e6, 2**60 * cfg.T / cfg.m):
            assert np.isfinite(mc_noise_samples(cfg, Wiener(1.0), t0, 20, RngSeed(1))).all()
            exact = float(exact_discrete_moments(k, Wiener(1.0), t0)[1])
            assert abs(discrete_moments(k, Wiener(1.0), t0).variance - exact) <= 1e-13 * exact
        for t0 in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="t0 must be finite"):
                mc_noise_samples(cfg, Wiener(1.0), t0, 20, RngSeed(1))

    def test_poisson_anchor_beyond_numpy_limit_names_t0(self):
        # nu * step is in range, nu * t_s is not: the count before the window
        cfg = EstimatorConfig(n=1, T=1.0, m=40)
        anchor = ("nu = 1000000000.0 at t0 = 10000000000.0, whose window starts at "
                  "t = 9999999999.0, passes NumPy's Poisson limit")
        with pytest.raises(ValueError, match=re.escape(anchor)):
            mc_noise_samples(cfg, Poisson(1e9), 1e10, 3, RngSeed(1))
        # a step rate past the limit is named as before, whatever t0
        with pytest.raises(ValueError, match=re.escape("nu = 1e+300 at step 0.025 passes")):
            mc_noise_samples(cfg, Poisson(1e300), 1e10, 3, RngSeed(1))


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

    @given(
        n=st.integers(1, 3),
        q=st.integers(0, 2),
        mu=st.floats(-0.9, 2.0),
        kappa=st.floats(-0.9, 2.0),
        xi=st.floats(0.0, 1.0),
        beta=st.sampled_from([-1, 1]),
        T=st.floats(0.25, 4.0),
        extra=st.integers(0, 30),
        model=st.sampled_from([Wiener(0.7), WhiteGaussian(1.3), Poisson(20.0)]),
        t0_over_T=st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e6)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_variance_matches_discrete_moments_at_any_t0(
        self, n, q, mu, kappa, xi, beta, T, extra, model, t0_over_T, seed
    ):
        # the window-only draws have the exact sampled variance, from t0 = T
        # to t0 = 1e6 T, far past the 2**24 samples the path from t = 0 allowed
        cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, xi=xi, beta=beta, T=T, m=n + q + 8 + extra)
        step = T / cfg.m
        t0 = round(t0_over_T * T / step) * step
        _, var, stderr = noise_moments(cfg, model, t0, 2000, RngSeed(seed))
        exact = discrete_moments(kernel_taps(cfg), model, t0).variance
        assert abs(var - exact) <= 6.0 * stderr

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
