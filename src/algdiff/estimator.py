"""Apply discrete kernels to uniformly sampled signals.

The estimate at ``t0`` is the tap-weighted sum of the ``m+1`` samples in the
window ``[t0 - T, t0]`` (causal) or ``[t0, t0 + T]`` (anti-causal): tap ``i``
multiplies the sample at ``t0 + beta*T*(i/m)``, which is exactly sample index
``t0_index + beta*i`` once the kernel step ``T/m`` matches the sampling
period.  A whole series is therefore one correlation of the samples with the
taps (`_apply`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import DiscreteKernel, EstimatorConfig, kernel_taps

__all__ = ["SampledSignal", "EstimateSeries", "estimate_at", "estimate_series"]


@dataclass(frozen=True)
class SampledSignal:
    """Uniform samples: value k was taken at ``t_start + k*ts``."""

    t_start: float
    ts: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not self.ts > 0:
            raise ValueError(f"ts must be positive, got {self.ts!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D sequence")
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"values must be finite; sample {bad} is {values[bad]}")
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.ts * np.arange(len(self.values))


@dataclass(frozen=True)
class EstimateSeries:
    """Derivative estimates at consecutive valid instants, spaced ``ts``."""

    t_first: float
    ts: float
    estimates: np.ndarray = field(repr=False)
    config: EstimatorConfig

    @property
    def times(self) -> np.ndarray:
        return self.t_first + self.ts * np.arange(len(self.estimates))


def _check_alignment(signal: SampledSignal, cfg: EstimatorConfig) -> None:
    if abs(cfg.T - cfg.m * signal.ts) > 1e-9 * max(cfg.T, 1.0):
        raise ValueError(
            f"kernel step T/m = {cfg.T / cfg.m!r} does not match the sampling "
            f"period ts = {signal.ts!r}"
        )


def _apply(values: np.ndarray, taps: np.ndarray, beta: int) -> np.ndarray:
    """Tap-weighted sum over every full window of ``values``, in sample order.

    Output ``j`` is ``sum_i taps[i] * values[t0 + beta*i]`` with ``t0 = j``
    (beta = +1) or ``t0 = j + m`` (beta = -1).  Both orientations correlate
    the taps in their own order, so each window is summed from tap 0 up.
    """
    if beta == 1:
        return np.correlate(values, taps, "valid")
    return np.correlate(values[::-1], taps, "valid")[::-1]


def estimate_at(signal: SampledSignal, k: DiscreteKernel, t0_index: int) -> float:
    """Derivative estimate at sample ``t0_index``.

    Requires the whole window ``t0_index + beta*i`` (i = 0..m) in range and the
    kernel step equal to the sampling period.  This is the one-window case of
    `estimate_series`, bit for bit.
    """
    cfg = k.config
    _check_alignment(signal, cfg)
    far_end = t0_index + cfg.beta * cfg.m
    n_samples = len(signal.values)
    if not (0 <= t0_index < n_samples and 0 <= far_end < n_samples):
        raise IndexError(
            f"window [{min(t0_index, far_end)}, {max(t0_index, far_end)}] out of "
            f"range for a signal of {n_samples} samples"
        )
    lo = min(t0_index, far_end)
    return float(_apply(signal.values[lo : lo + cfg.m + 1], k.taps, cfg.beta)[0])


def estimate_series(signal: SampledSignal, cfg: EstimatorConfig) -> EstimateSeries:
    """Estimates at every sample with a full window, as one correlation."""
    _check_alignment(signal, cfg)
    n_samples = len(signal.values)
    if n_samples < cfg.m + 1:
        raise ValueError(
            f"signal too short: {n_samples} samples < one window of {cfg.m + 1}"
        )
    if cfg.beta == -1:
        t_first = signal.t_start + cfg.m * signal.ts
    else:
        t_first = signal.t_start
    estimates = _apply(signal.values, kernel_taps(cfg).taps, cfg.beta)
    return EstimateSeries(t_first, signal.ts, estimates, cfg)
