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

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .estimator import SampledSignal
from .kernel import DiscreteKernel, EstimatorConfig, kernel_taps

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
_BLOCK_FLOATS = 1 << 15  # the Monte-Carlo draw block, 256 KB


def _record(obj) -> dict:
    """A dataclass's fields by name; unlike `dataclasses.asdict`, a shallow
    copy, for records whose fields are plain values."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


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
    """One realization sampled at 0, ts, 2*ts, ...; deterministic in ``seed``.

    White noise draws its ``count`` samples; a process with independent
    increments starts at 0 and draws its ``count - 1`` increments.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (math.isfinite(ts) and ts > 0):
        raise ValueError(f"ts must be finite and positive, got {ts!r}")
    rng = seed.generator()
    if isinstance(model, WhiteGaussian):
        return SampledSignal(0.0, ts, rng.normal(0.0, math.sqrt(model.sigma2), count))
    if isinstance(model, Wiener):
        increments = rng.normal(0.0, math.sqrt(model.sigma2 * ts), count - 1)
    elif isinstance(model, Poisson):
        increments = _poisson(rng, model.nu * ts, count - 1, f"nu = {model.nu!r} at step {ts!r}")
    else:
        raise TypeError(f"unknown noise model {model!r}")
    return SampledSignal(0.0, ts, np.concatenate(([0.0], np.cumsum(increments))))


def _poisson(rng: np.random.Generator, rate: float, size: int | None, inputs: str):
    """``rng.poisson(rate, size)``; NumPy refuses a rate past about 9.2e18
    without naming an input, so the error names ``inputs``."""
    try:
        return rng.poisson(rate, size)
    except ValueError:
        raise ValueError(f"{inputs} passes NumPy's Poisson limit") from None


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


def _earliest_time(k: DiscreteKernel, model: NoiseModel, t0: float) -> float:
    """Earliest sample time of the window at ``t0``; increment noise starts at t = 0."""
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    start = t0 - k.config.T if k.config.beta == -1 else t0
    if model.increment_part() is None:
        return start
    if start < -1e-12:
        bound = f"T = {k.config.T!r}" if k.config.beta == -1 else "0"
        raise ValueError(f"t0 = {t0!r} puts the window before t = 0, where the noise process starts; "
                         f"need t0 >= {bound}")
    return max(0.0, start)  # a start within 1e-12 below 0 is 0


def _window_draws(k: DiscreteKernel, model: NoiseModel, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, l): the window's noise error is sum_j w_j*d_j over uncorrelated
    draws d_j of mean ``model.mean_at(l_j)`` and variance eta*l_j.

    With X_0..X_m the window's samples in time order from t_s = `_earliest_time`,
    white noise draws them: w is the taps in time order, l = 1.  A process
    with independent increments draws d_0 = X_0 and d_j = X_j - X_{j-1}:
    l_0 = t_s, l_j = T/m, and w the kernel's `tail_sums`: w_j = sum_{i>=j}
    of the taps in time order, w_0 the exact tap sum, as it weighs the whole
    path before the window (Mboup, Join & Fliess, Numer. Algorithms 50,
    2009).  w is read-only.
    """
    cfg = k.config
    start = _earliest_time(k, model, t0)
    if model.white_part() is not None:
        return k.taps[:: cfg.beta], np.ones(cfg.m + 1)
    return k.tail_sums, np.concatenate(([start], np.full(cfg.m, cfg.T / cfg.m)))


def mc_noise_samples(
    cfg: EstimatorConfig, model: NoiseModel, t0: float, trials: int, seed: RngSeed
) -> np.ndarray:
    """Per-trial noise-error contributions: taps applied to noise paths alone.

    Trial k draws the m + 1 d_j of `_window_draws`, whatever t0, from Philox
    key ``[seed.seed, (seed.stream + k) mod 2**64]`` at counter 0 alone:
    Gaussian ones as one ``standard_normal(m + 1)``, Poisson ones as
    ``poisson(nu*step, m)``, then d_0; one generator is re-keyed per trial.
    Trials are drawn into the rows of one reused block of at most
    ``_BLOCK_FLOATS`` floats (one row when m + 1 is more), and a block is
    summed at once, each row with the dot that ``w @ row`` calls: memory
    stays O(m), and a trial's value does not depend on the block around it.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    weights, lengths = _window_draws(kernel_taps(cfg), model, t0)
    rng = seed.generator()
    if isinstance(model, Poisson):
        start, step = map(float, lengths[:2])
        at_step = f"nu = {model.nu!r} at step {step!r}"
        at_start = f"nu = {model.nu!r} at t0 = {t0!r}, whose window starts at t = {start!r},"

        def draw(row: np.ndarray) -> None:
            row[1:] = _poisson(rng, model.nu * step, cfg.m, at_step)
            row[0] = _poisson(rng, model.nu * start, None, at_start)

        def reduce(rows: np.ndarray) -> np.ndarray:
            return _row_dots(rows[:, 1:], weights[1:]) + weights[0] * rows[:, 0]

    else:
        # white or Wiener: each draw's deviation as a product of square roots,
        # so that sigma2*l cannot overflow; a weight past the float range means
        # a variance past it too, which `discrete_moments` refuses by name
        with np.errstate(over="ignore"):
            weights = math.sqrt(model.sigma2) * np.sqrt(lengths) * weights

        def draw(row: np.ndarray) -> None:
            rng.standard_normal(out=row)

        def reduce(rows: np.ndarray) -> np.ndarray:
            return _row_dots(rows, weights)

    # a fresh state: counter 0, empty buffer; the setter copies it, so this
    # one dict rewinds the generator onto each trial's key.  It reads lists
    # of Python ints in half the time of uint64 arrays, to the same state.
    state = rng.bit_generator.state
    state["buffer"] = state["buffer"].tolist()
    state["state"] = {name: words.tolist() for name, words in state["state"].items()}
    key = state["state"]["key"]
    block = np.empty((min(trials, max(1, _BLOCK_FLOATS // (cfg.m + 1))), cfg.m + 1))
    out = np.empty(trials)
    for first in range(0, trials, len(block)):
        rows = block[: trials - first]
        for k, row in enumerate(rows, first):
            key[1] = (seed.stream + k) % _U64
            rng.bit_generator.state = state
            draw(row)
        out[first : first + len(rows)] = reduce(rows)
    return out


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``[w @ row for row in rows]``: each (1 x n) @ (n x 1) product calls the
    dot that ``w @ row`` calls, so a row's value does not depend on the block
    around it, as it would with the matrix-vector product ``rows @ w``."""
    return np.matmul(rows[:, None, :], w[:, None])[:, 0, 0]


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
