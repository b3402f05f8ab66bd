"""Apply discrete kernels to uniformly sampled signals.

The estimate at ``t0`` is the tap-weighted sum of the ``m+1`` samples in the
window ``[t0 - T, t0]`` (causal) or ``[t0, t0 + T]`` (anti-causal): tap ``i``
multiplies the sample at ``t0 + beta*T*(i/m)``, which is exactly sample index
``t0_index + beta*i`` once the kernel step ``T/m`` matches the sampling
period.  A whole series is therefore a correlation of the samples with the
taps, computed as a few matrix products with the kernel's Toeplitz blocks
(`_apply`), so that BLAS reuses each sample across the windows it is in.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ValueError(f"ts must be finite and positive, got {self.ts!r}")
        if not math.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start!r}")
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


@np.errstate(over="ignore", invalid="ignore")  # huge samples: `estimate_series` refuses
def _apply(values: np.ndarray, k: DiscreteKernel) -> np.ndarray:
    """Tap-weighted sum over every full window of ``values``, in sample order.

    Output ``j`` is ``sum_i taps[i] * values[t0 + beta*i]`` with ``t0 = j``
    (beta = +1) or ``t0 = j + m`` (beta = -1).  The samples are laid out in
    the window's direction and zero-padded.  The outputs, in rows of b = 32,
    are split into g phases, g = 4 or the kernel's block count if that is
    less: phase f holds rows f, f + g, f + 2g, ..., and its samples are the
    padded samples from ``f*b`` on, cut into rows of g*b (a view).  A phase
    is a sum over the kernel's groups of g stacked Toeplitz blocks
    (`DiscreteKernel.blocks`) of one row of samples times one group, and
    each group is one matrix product, g*b deep, over every row of every
    phase; the last group stops at the last tap.  The memory is O(N + b*m).
    An output's last bits depend on its position in the series modulo g*b
    and on the series length; it is within a few eps * sum|tap * x| of the
    exact window sum.  Sums that overflow are returned as they are, with no
    warning.
    """
    blocks, m, beta = k.blocks, k.config.m, k.config.beta
    groups, depth, b = blocks.shape
    g = depth // b
    outputs = len(values) - m
    rows = -(-outputs // depth)  # rows of each phase
    padded = np.zeros((rows + groups) * depth)
    padded[: len(values)] = values[::beta]
    # samples[f, i] = padded[f*b + i*depth :][:depth], row i of phase f
    samples = np.ndarray((g, rows + groups - 1, depth), buffer=padded, strides=(8 * b, 8 * depth, 8))
    # out[i, f] is output row i*g + f.  The last sum overwrites the samples,
    # which every product has read by then; a single product still reads them
    out = np.empty((rows, g, b)) if groups == 1 else padded[: rows * depth].reshape(rows, g, b)
    phases = out.transpose(1, 0, 2)
    acc = np.matmul(samples[:, :rows, : m + b], blocks[0, : m + b], out=phases if groups == 1 else None)
    part = None
    for j in range(1, groups):
        last = m + b - j * depth  # rows of group j from here on hold no taps
        part = np.matmul(samples[:, j : j + rows, :last], blocks[j, :last], out=part)
        np.add(acc, part, out=phases if j == groups - 1 else acc)
    return out.ravel()[:outputs][::beta]


def estimate_at(signal: SampledSignal, k: DiscreteKernel, t0_index: int) -> float:
    """Derivative estimate at sample ``t0_index``.

    Requires the whole window ``t0_index + beta*i`` (i = 0..m) in range.  It
    is one entry of the checked series of `estimate_series`, bit for bit and
    refused like it, at O(N*m) per point: an output's bits depend on its
    place in the series.
    """
    m = k.config.m
    j = t0_index - m if k.config.beta == -1 else t0_index  # the window is [j, j + m]
    n_samples = len(signal.values)
    if not 0 <= j < n_samples - m:
        raise IndexError(f"window [{j}, {j + m}] out of range for a signal of {n_samples} samples")
    return float(_series(signal, k).estimates[j])


def estimate_series(signal: SampledSignal, cfg: EstimatorConfig) -> EstimateSeries:
    """Estimates at every sample with a full window, by one `_apply`.

    A series with a non-finite estimate (samples large enough to overflow the
    window sums) is refused, naming the first such estimate's time and the
    largest sample.
    """
    return _series(signal, kernel_taps(cfg))


def _series(signal: SampledSignal, k: DiscreteKernel) -> EstimateSeries:
    """`estimate_series` with the kernel ``k``: every check, then `_apply`."""
    cfg = k.config
    if abs(cfg.T - cfg.m * signal.ts) > 1e-9 * max(cfg.T, 1.0):
        raise ValueError(
            f"kernel step T/m = {cfg.T / cfg.m!r} does not match the sampling "
            f"period ts = {signal.ts!r}"
        )
    n_samples = len(signal.values)
    if n_samples < cfg.m + 1:
        raise ValueError(
            f"signal too short: {n_samples} samples < one window of {cfg.m + 1}"
        )
    if cfg.beta == -1:
        t_first = signal.t_start + cfg.m * signal.ts
    else:
        t_first = signal.t_start
    estimates = _apply(signal.values, k)
    finite = np.isfinite(estimates)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(
            f"the estimate at t = {t_first + bad * signal.ts!r} is {estimates[bad]}: "
            f"samples up to |x| = {np.max(np.abs(signal.values)):.6g} overflow the "
            f"tap-weighted sum"
        )
    return EstimateSeries(t_first, signal.ts, estimates, cfg)
