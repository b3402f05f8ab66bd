"""Noise processes, SNR calibration, and the Monte-Carlo noise-error engine.

Every random draw is produced by a counter-based generator keyed on
``(seed, stream)``, so paths are bit-identical across runs and distinct
streams are independent by construction — trials simply use consecutive
stream indices.

A noise model states its second-order structure as one intensity eta:
``white_part()`` for iid samples (Cov = eta at equal times, else 0), or
``increment_part()`` for a process with independent increments from t = 0
(Cov = eta*min(s, t)); the other one returns None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .estimator import SampledSignal
from .kernel import EstimatorConfig, kernel_taps

__all__ = [
    "WhiteGaussian",
    "Wiener",
    "Poisson",
    "NoiseModel",
    "RngSeed",
    "gen_path",
    "calibrate_snr",
    "mc_noise_samples",
]

_U64 = 1 << 64


def _check_intensity(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


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
        # an explicit uint64 array: a list mixing words on both sides of 2**63
        # would become float64 and round the key
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class _Noise:
    """Base of the noise models: checks the one field, the intensity; mean 0; no covariance part."""

    def __post_init__(self) -> None:
        (field,) = fields(self)
        _check_intensity(field.name, getattr(self, field.name))

    def mean_at(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def white_part(self) -> float | None:
        return None

    def increment_part(self) -> float | None:
        return None


@dataclass(frozen=True)
class WhiteGaussian(_Noise):
    """iid zero-mean Gaussian samples with variance sigma2."""

    sigma2: float

    def white_part(self) -> float:
        return self.sigma2


@dataclass(frozen=True)
class Wiener(_Noise):
    """Standard Wiener process scaled so Cov[W(s), W(t)] = sigma2*min(s,t)."""

    sigma2: float

    def increment_part(self) -> float:
        return self.sigma2


@dataclass(frozen=True)
class Poisson(_Noise):
    """Counting process with rate nu: E[N(t)] = nu*t, Cov = nu*min(s,t)."""

    nu: float

    def mean_at(self, t):
        return self.nu * np.asarray(t, dtype=float)

    def increment_part(self) -> float:
        return self.nu


NoiseModel = WhiteGaussian | Wiener | Poisson


def gen_path(model: NoiseModel, ts: float, count: int, seed: RngSeed) -> SampledSignal:
    """One realization sampled at 0, ts, 2*ts, ...; deterministic in ``seed``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (math.isfinite(ts) and ts > 0):
        raise ValueError(f"ts must be finite and positive, got {ts!r}")
    values = _draws(model, ts, count, seed.generator())
    if model.increment_part() is not None:
        values = np.concatenate(([0.0], np.cumsum(values)))
    return SampledSignal(0.0, ts, values)


def _draws(model: NoiseModel, ts: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """The random numbers behind a `gen_path` of ``count`` samples, drawn from
    ``rng``: the samples of white noise, or the ``count - 1`` increments of a
    process that starts at 0."""
    if isinstance(model, WhiteGaussian):
        return rng.normal(0.0, math.sqrt(model.sigma2), count)
    if isinstance(model, Wiener):
        return rng.normal(0.0, math.sqrt(model.sigma2 * ts), count - 1)
    if isinstance(model, Poisson):
        try:
            return rng.poisson(model.nu * ts, count - 1)
        except ValueError:  # NumPy refuses a rate past about 9.2e18
            raise ValueError(f"nu = {model.nu!r} at step {ts!r} passes NumPy's Poisson limit") from None
    raise TypeError(f"unknown noise model {model!r}")


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
    # solve for C * sw / sx with x / (sx * sn) and w / (sw * sn), where sx, sw
    # and sn are powers of two near max|x|, max|w| and sqrt(len): exact, so the
    # same bits, but |x|^2 and |w|^2 are below 16 and r * |w|^2 * |x|^2 cannot
    # overflow
    sizes = (float(np.max(np.abs(x.values))), float(np.max(np.abs(w))), math.sqrt(len(w)))
    sx, sw, sn = (2.0 ** (math.frexp(size)[1] - 1) for size in sizes)
    xv, w = x.values / sx / sn, w / sw / sn
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
    offset = math.nan
    if 0.0 < c < math.inf:
        # |x + C w|^2 / |C w|^2 with C divided out; at the root that is
        # r * |w|^2 < 16 * r for the scaled w, so it cannot overflow
        noisy = xv / c + w
        offset = 10.0 * math.log10(float(noisy @ noisy) / ww) - target_db
    if not abs(offset) <= 1e-6:
        raise ValueError(f"target {target_db} dB not attained to 1e-6 dB (got offset {offset})")
    c *= sx / sw
    if not 0.0 < c < math.inf:
        raise ValueError(f"target {target_db} dB needs a noise scale beyond the float range")
    return c


# Longest noise path `mc_noise_samples` draws: a trial replays every draw
# from t = 0, and its weights and its draws each hold up to this many float64
# values (128 MiB)
_MAX_PATH_SAMPLES = 1 << 24


def _window_indices(cfg: EstimatorConfig, t0: float) -> tuple[int, int]:
    """Anchor index of t0 on the kernel grid and the path length needed."""
    step = cfg.T / cfg.m
    # before rounding, which fails on nan and inf without naming t0; the
    # window's last index must fit a NumPy index as well
    if not abs(t0 / step) < np.iinfo(np.intp).max - cfg.m - 1:
        raise ValueError(f"t0 must be finite and within the sample index range, got {t0!r}")
    k0 = round(t0 / step)
    if abs(t0 - k0 * step) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0 = {t0!r} does not lie on the kernel sample grid (step {step!r})")
    if cfg.beta == -1 and k0 < cfg.m:
        raise ValueError("causal window reaches before time 0; need t0 >= T")
    if k0 < 0:
        raise ValueError("t0 must be nonnegative")
    count = k0 + 1 if cfg.beta == -1 else k0 + cfg.m + 1
    if count > _MAX_PATH_SAMPLES:
        raise ValueError(
            f"t0 = {t0!r} needs a noise path of {count} samples from t = 0 at step "
            f"{step!r}; at most {_MAX_PATH_SAMPLES} are drawn"
        )
    return k0, count


def mc_noise_samples(
    cfg: EstimatorConfig, model: NoiseModel, t0: float, trials: int, seed: RngSeed
) -> np.ndarray:
    """Per-trial noise-error contributions: taps applied to noise paths alone.

    Trial k draws its path from Philox key ``[seed.seed, (seed.stream + k)
    mod 2**64]`` at counter 0, so ``gen_path(..., seed.shifted(k))`` replays
    it; one generator is re-keyed per trial rather than built anew.  A trial
    is one dot product of its draws with weights built once: the taps at
    their path indices, and for a process with independent increments the
    tail sums of those, since sum_i w_i*X(t_i) = sum_j dX_j*sum_{i>j} w_i.
    It equals the taps applied to ``gen_path``'s samples up to rounding.
    The path from t = 0 to the window may hold at most 2**24 samples.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    taps = kernel_taps(cfg).taps
    k0, count = _window_indices(cfg, t0)
    step = cfg.T / cfg.m
    idx = k0 + cfg.beta * np.arange(cfg.m + 1)
    weights = np.zeros(count)
    weights[idx] = taps
    if model.increment_part() is not None:
        weights = np.cumsum(weights[::-1])[::-1][1:]
    rng = seed.generator()
    # a fresh state: counter 0, empty buffer; the setter copies it, so this
    # one dict rewinds the generator onto each trial's key
    state = rng.bit_generator.state
    key = state["state"]["key"]
    out = np.empty(trials)
    for k in range(trials):
        key[1] = (seed.stream + k) % _U64
        rng.bit_generator.state = state
        out[k] = np.dot(weights, _draws(model, step, count, rng))
    return out


def _sample_moments(e: np.ndarray) -> tuple[float, float, float]:
    """Empirical (mean, unbiased variance s^2, stderr-of-variance) of ``e``.

    s^2 is taken of e over a power of two near max|e| (exact), and the stderr,
    the distribution-free sqrt((m4 - s^4)/N), as s^2 sqrt((mean(z^4) - 1)/N)
    with z = (e - mean)/s, so that neither can overflow.
    """
    mean = float(np.mean(e))
    scale = 2.0 ** (math.frexp(float(np.max(np.abs(e))))[1] - 1)
    var = float(np.var(e / scale, ddof=1)) * scale * scale
    if var == 0.0:
        return mean, var, 0.0
    z4 = float(np.mean(((e - mean) / math.sqrt(var)) ** 4))
    return mean, var, var * math.sqrt(max(z4 - 1.0, 0.0) / len(e))
