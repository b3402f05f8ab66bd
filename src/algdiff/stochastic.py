"""Noise processes, SNR calibration, and the Monte-Carlo noise-error engine.

Every random draw is produced by a counter-based generator keyed on
``(seed, stream)``, so paths are bit-identical across runs and distinct
streams are independent by construction — trials simply use consecutive
stream indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import SampledSignal
from .kernel import EstimatorConfig, kernel_taps

__all__ = [
    "WhiteGaussian",
    "Wiener",
    "Poisson",
    "PolyMean",
    "NoiseModel",
    "RngSeed",
    "gen_path",
    "calibrate_snr",
    "mc_noise_samples",
    "mc_noise_error",
]

_U64 = 1 << 64


@dataclass(frozen=True)
class RngSeed:
    """Key of the counter-based generator; stream is the trial index."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.stream < _U64:
            raise ValueError("stream must fit in an unsigned 64-bit integer")

    def shifted(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, (self.stream + offset) % _U64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


@dataclass(frozen=True)
class WhiteGaussian:
    """iid zero-mean Gaussian samples with variance sigma2."""

    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2!r}")

    needs_nonneg_time = False

    def mean_at(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def cov_matrix(self, s, t) -> np.ndarray:
        raise TypeError("white noise has no pointwise covariance function; use white_part")

    def white_part(self) -> float:
        return self.sigma2


@dataclass(frozen=True)
class Wiener:
    """Standard Wiener process scaled so Cov[W(s), W(t)] = sigma2*min(s,t)."""

    sigma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2!r}")

    needs_nonneg_time = True

    def mean_at(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def cov_matrix(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.sigma2 * np.minimum.outer(s, t)

    def white_part(self) -> None:
        return None


@dataclass(frozen=True)
class Poisson:
    """Counting process with rate nu: E[N(t)] = nu*t, Cov = nu*min(s,t)."""

    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu!r}")

    needs_nonneg_time = True

    def mean_at(self, t):
        return self.nu * np.asarray(t, dtype=float)

    def cov_matrix(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.nu * np.minimum.outer(s, t)

    def white_part(self) -> None:
        return None


@dataclass(frozen=True)
class PolyMean:
    """Base process plus the deterministic polynomial sum_i coeffs[i]*t**i."""

    coeffs: tuple[float, ...]
    base: "NoiseModel"

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coeffs must be finite, got {self.coeffs!r}")

    @property
    def needs_nonneg_time(self) -> bool:
        return self.base.needs_nonneg_time

    def poly_at(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs)

    def mean_at(self, t):
        return self.base.mean_at(t) + self.poly_at(t)

    def cov_matrix(self, s, t) -> np.ndarray:
        return self.base.cov_matrix(s, t)

    def white_part(self) -> float | None:
        return self.base.white_part()


NoiseModel = WhiteGaussian | Wiener | Poisson | PolyMean


def gen_path(model: NoiseModel, ts: float, count: int, seed: RngSeed) -> SampledSignal:
    """One realization sampled at 0, ts, 2*ts, ...; deterministic in ``seed``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not ts > 0:
        raise ValueError("ts must be positive")
    return SampledSignal(0.0, ts, _path_values(model, ts, count, seed.generator()))


def _path_values(
    model: NoiseModel, ts: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The samples of `gen_path`, drawn from ``rng``, without the signal wrapper."""
    if isinstance(model, PolyMean):
        base = _path_values(model.base, ts, count, rng)
        return base + model.poly_at(ts * np.arange(count))
    if isinstance(model, WhiteGaussian):
        return rng.normal(0.0, math.sqrt(model.sigma2), count)
    if isinstance(model, Wiener):
        values = np.zeros(count)
        if count > 1:
            increments = rng.normal(0.0, math.sqrt(model.sigma2 * ts), count - 1)
            values[1:] = np.cumsum(increments)
        return values
    if isinstance(model, Poisson):
        values = np.zeros(count)
        if count > 1:
            increments = rng.poisson(model.nu * ts, count - 1)
            values[1:] = np.cumsum(increments).astype(float)
        return values
    raise TypeError(f"unknown noise model {model!r}")


def _snr_db(x: np.ndarray, scaled_noise: np.ndarray) -> float:
    noisy = x + scaled_noise
    return 10.0 * math.log10(float(noisy @ noisy) / float(scaled_noise @ scaled_noise))


def calibrate_snr(x: SampledSignal, noise_path: SampledSignal, target_db: float) -> float:
    """Scale C such that 10*log10(sum|x + C*w|^2 / sum|C*w|^2) = target_db.

    C is the smallest positive root of (r-1)|w|^2 C^2 - 2(x.w) C - |x|^2 = 0
    with r = 10**(target_db/10), in closed form.  The numerator uses the
    *noisy* signal, so the SNR has a floor that low targets may lie below,
    and a target at or under 0 dB is out of reach when x.w >= 0; such
    targets are reported rather than clamped.
    """
    if len(x.values) != len(noise_path.values):
        raise ValueError("signal and noise path must have the same length")
    if abs(x.ts - noise_path.ts) > 1e-12 * max(x.ts, noise_path.ts):
        raise ValueError("signal and noise path must share the sampling period")
    w = noise_path.values
    if not np.any(w != 0.0):
        raise ValueError("noise path is identically zero")
    # 10**(dB/10) overflows a float past about 3 082 dB
    if not abs(target_db) <= 3000.0:
        raise ValueError(f"target must be finite and within 3000 dB of 0, got {target_db!r}")
    xv = x.values
    xx, ww, xw = float(xv @ xv), float(w @ w), float(xv @ w)
    if xx == 0.0:
        raise ValueError(f"target {target_db} dB infeasible: SNR below target even at C -> 0")
    r1 = 10.0 ** (target_db / 10.0) - 1.0
    disc = xw * xw + r1 * ww * xx
    # the root is xx / (sqrt(disc) - xw) = (sqrt(disc) + xw) / (r1 * ww); each
    # branch takes the form whose denominator does not cancel
    if xw > 0.0 and r1 > 0.0:
        c = (math.sqrt(disc) + xw) / (r1 * ww)
    elif xw <= 0.0 and disc >= 0.0 and math.sqrt(disc) > xw:
        c = xx / (math.sqrt(disc) - xw)
    else:
        raise ValueError(f"target {target_db} dB infeasible: SNR stays above target")
    offset = _snr_db(xv, c * w) - target_db if 0.0 < c < math.inf else math.nan
    if not abs(offset) <= 1e-6:
        raise ValueError(f"target {target_db} dB not attained to 1e-6 dB (got offset {offset})")
    return c


def _window_indices(cfg: EstimatorConfig, t0: float) -> tuple[int, int]:
    """Anchor index of t0 on the kernel grid and the path length needed."""
    step = cfg.T / cfg.m
    k0 = round(t0 / step)
    if abs(t0 - k0 * step) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0 = {t0!r} does not lie on the kernel sample grid (step {step!r})")
    if cfg.beta == -1:
        if k0 < cfg.m:
            raise ValueError("causal window reaches before time 0; need t0 >= T")
        return k0, k0 + 1
    if k0 < 0:
        raise ValueError("t0 must be nonnegative")
    return k0, k0 + cfg.m + 1


def mc_noise_samples(
    cfg: EstimatorConfig, model: NoiseModel, t0: float, trials: int, seed: RngSeed
) -> np.ndarray:
    """Per-trial noise-error contributions: taps applied to noise paths alone.

    Trial k draws its path from stream ``seed.stream + k``; the result is
    deterministic and embarrassingly parallel in construction.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    taps = kernel_taps(cfg).taps
    k0, count = _window_indices(cfg, t0)
    step = cfg.T / cfg.m
    idx = k0 + cfg.beta * np.arange(cfg.m + 1)
    out = np.empty(trials)
    for k in range(trials):
        values = _path_values(model, step, count, seed.shifted(k).generator())
        out[k] = np.dot(taps, values[idx])
    return out


def mc_noise_error(
    cfg: EstimatorConfig, model: NoiseModel, t0: float, trials: int, seed: RngSeed
) -> tuple[float, float, float]:
    """Empirical (mean, variance, stderr-of-variance) of the noise error.

    The variance is the unbiased sample variance; its standard error uses the
    distribution-free fourth-moment estimate sqrt((m4 - s^4)/trials).
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    return _sample_moments(mc_noise_samples(cfg, model, t0, trials, seed))


def _sample_moments(e: np.ndarray) -> tuple[float, float, float]:
    mean = float(np.mean(e))
    var = float(np.var(e, ddof=1))
    centered = e - mean
    m4 = float(np.mean(centered**4))
    stderr_var = math.sqrt(max(m4 - var**2, 0.0) / len(e))
    return mean, var, stderr_var
