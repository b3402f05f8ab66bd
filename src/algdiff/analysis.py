"""Closed-form error calculus for the derivative estimators.

Covers the deterministic side (delay and bias bounds from the Taylor
remainder) and the stochastic side (noise-error means, variances, Chebyshev
bands) in both the continuous-integral and sampled regimes, plus the
parameter-sweep surfaces used to choose exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kernel import DiscreteKernel, EstimatorConfig
from .specfun import _gauss_rule, _jacobi_values, _least_zero, _log_beta
from .stochastic import NoiseModel, _check_intensity, _earliest_time, _record, _window_draws

__all__ = [
    "BiasBounds",
    "NoiseMomentReport",
    "delay",
    "bias_bounds",
    "variance_continuous",
    "continuous_moments",
    "discrete_moments",
    "discrete_covariance",
    "chebyshev_band",
    "sweep_surface",
]


def _single_term_delay(n: int, mu, kappa, T: float):
    """T*(kappa+n+1)/(mu+kappa+2n+2), evaluated as T/(1 + (mu+n+1)/(kappa+n+1)),
    which cannot overflow; elementwise over arrays."""
    return T / (1 + (mu + n + 1) / (kappa + n + 1))


def delay(cfg: EstimatorConfig) -> float:
    """Delay of the estimator: T*(kappa+n+1)/(mu+kappa+2n+2) for the single
    term (q = 0), T*xi for the series evaluated at abscissa xi."""
    if cfg.q >= 1:
        return cfg.T * cfg.xi
    return _single_term_delay(cfg.n, cfg.mu, cfg.kappa, cfg.T)


@dataclass(frozen=True)
class BiasBounds:
    """Range of the truncation bias, units of the estimated derivative."""

    lower: float
    upper: float
    c_factor: float  # signed delay coefficient, seconds


def bias_bounds(cfg: EstimatorConfig, inf_d: float, sup_d: float) -> BiasBounds:
    """Bias range of the single-term estimator (q = 0) when the (n+1)-th
    derivative stays within [inf_d, sup_d].

    That kernel is a positive weighted average of x^(n), so the bias is
    C = beta*delay(cfg) times a value in the derivative's range: the bounds are
    C*inf_d and C*sup_d, ordered ascending (beta = -1 flips the interval).  The
    series kernel changes sign, so it has no such bound.
    """
    if cfg.q != 0:
        raise ValueError(f"bias_bounds needs the single-term estimator, q = 0; got q = {cfg.q}")
    for name, value in (("inf_d", inf_d), ("sup_d", sup_d)):
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if inf_d > sup_d:
        raise ValueError("inf_d must not exceed sup_d")
    c = cfg.beta * delay(cfg)
    lo, hi = sorted((c * inf_d, c * sup_d))
    return BiasBounds(lo, hi, c)


def variance_continuous(cfg: EstimatorConfig, eta: float) -> float:
    """Continuous-limit noise-error variance under a Wiener or Poisson process.

    ``eta`` is the process intensity: sigma^2 for a Wiener process, nu for a
    Poisson process.  One integration by parts moves the kernel onto the
    process increments, so the variance is ``eta * T * integral of G**2``
    over [0, 1], with G the (n-1)-th derivative of the raised-weight series
    (it vanishes at both ends).  G is ``w^{mu+1, kappa+1} R`` over
    ``B(kappa+n+1, mu+n+1)`` with R a polynomial of degree n+q-1, so the
    integral is the (n+q)-point Gauss-Jacobi rule of the weight
    ``w^{2mu+2, 2kappa+2}`` applied to R**2, exact up to rounding (measured
    within 3e-14 relative of the exact rational route for n <= 4, q <= 3).
    Any n and q; scales as 1/T^(2n-1).
    """
    _check_intensity("eta", eta)
    return float(_continuous_variance(cfg.n, cfg.q, cfg.mu, cfg.kappa, cfg.T, cfg.xi, eta))


@np.errstate(over="raise", invalid="raise", divide="raise")
def _continuous_variance(n: int, q: int, mu, kappa, T: float, xi, eta: float) -> np.ndarray:
    """`variance_continuous` over arrays: ``mu``, ``kappa`` and ``xi`` broadcast.

    R is sum_i c_i P_{i+n-1}^{(mu+1, kappa+1)}: term i of the series is
    weighted by P_i^{(a,b)}(xi) over its squared norm, relative to that of
    P_0, with (a, b) = (mu+n, kappa+n), and by (i+n-1)!/i! from the n-1
    derivatives (see `kernel.affine_kernel`); the window factor
    1/(beta*T)**n squares to 1/T**(2n).
    """
    mu, kappa = np.asarray(mu, dtype=float), np.asarray(kappa, dtype=float)
    a, b = mu + n, kappa + n
    s = a + b
    at_xi = _jacobi_values(q, a, b, xi)
    nodes, weights = _gauss_rule(n + q, 2 * mu + 2, 2 * kappa + 2)
    at_nodes = _jacobi_values(n + q - 1, mu[..., None] + 1, kappa[..., None] + 1, nodes)
    r, inv_norm = 0.0, 1.0
    for i in range(q + 1):
        if i:  # times h_{i-1} / h_i, with h_i the squared norm of P_i^{(a,b)}
            inv_norm = inv_norm * i * (s + i) * (s + 2 * i + 1) / ((a + i) * (b + i) * (s + 2 * i - 1))
        c = at_xi[i] * inv_norm * (math.factorial(i + n - 1) // math.factorial(i))
        r = r + c[..., None] * at_nodes[i + n - 1]
    # summed node by node, so a grid cell and a scalar call round alike
    total = 0.0
    for j in range(n + q):
        total = total + weights[..., j] * r[..., j] ** 2
    # B(2kappa+3, 2mu+3) integrates the Gauss weight; B(kappa+n+1, mu+n+1) is G's divisor
    log_ratio = _log_beta(2 * kappa + 3, 2 * mu + 3) - 2 * _log_beta(b + 1, a + 1)
    # a NumPy eta, so that eta * T raises on overflow rather than giving inf
    return np.float64(eta) * T * total * np.exp(log_ratio) / T ** (2 * n)


@dataclass(frozen=True)
class NoiseMomentReport:
    """Mean and variance of the noise error."""

    mean: float
    variance: float


def continuous_moments(cfg: EstimatorConfig, noise: NoiseModel) -> NoiseMomentReport | None:
    """Continuous-limit mean and variance of the noise error under a Wiener or
    Poisson process; None for a model without independent increments.

    The variance is `variance_continuous` at the process intensity; the mean
    is the slope of the model's linear mean at n = 1, and 0 for n >= 2.
    """
    if not noise.increments:
        return None
    mean = float(noise.mean_at(1.0)) if cfg.n == 1 else 0.0
    try:
        variance = variance_continuous(cfg, noise.eta)
    except (FloatingPointError, OverflowError):
        raise _continuous_out_of_range(cfg, noise) from None
    return NoiseMomentReport(mean, variance)


def _continuous_out_of_range(cfg: EstimatorConfig, noise: NoiseModel) -> ValueError:
    """The error for a continuous variance past the float range, naming the inputs at fault."""
    at_fault = _variance_at_fault(lambda eta, T: variance_continuous(replace(cfg, T=T), eta), cfg.T)
    if at_fault == "eta":
        return _beyond_float_range(noise)
    what = "out of the float range for the continuous noise-error variance"
    if at_fault == "T":
        return ValueError(f"T = {cfg.T!r} is {what} at n = {cfg.n}")
    return ValueError(f"mu = {cfg.mu!r} and kappa = {cfg.kappa!r} are {what}")


def _variance_at_fault(variance: Callable[[float, float], object], T: float) -> str | None:
    """The input at fault when ``variance(eta, T)`` has raised for leaving the float range.

    "eta", the intensity, when the variance at unit intensity is in range;
    else "T", which enters as 1/T**(2n-1), when it is in range at unit
    intensity and T = 1; else None: the exponents are at fault.
    """
    for at_fault, at_T in (("eta", T), ("T", 1.0)):
        if _in_float_range(variance, 1.0, at_T):
            return at_fault
    return None


def _in_float_range(compute: Callable[..., object], *args, **kwargs) -> bool:
    """Whether ``compute(*args, **kwargs)`` returns without leaving the float range."""
    try:
        compute(*args, **kwargs)
    except (FloatingPointError, OverflowError):
        return False
    return True


def _tap_times(k: DiscreteKernel, start: float) -> np.ndarray:
    return start + k.config.T * np.arange(k.config.m + 1)[:: k.config.beta] / k.config.m


def discrete_moments(k: DiscreteKernel, noise: NoiseModel, t0: float) -> NoiseMomentReport:
    """Exact sampled-case mean and variance of the noise error at ``t0``: O(m)
    sums over the window's uncorrelated draws (`stochastic._window_draws`),
    the mean mean_at(w @ l) and the variance eta * sum(l * w**2)."""
    w, l = _window_draws(k, noise, t0)
    tail = w[1:]
    with np.errstate(over="ignore"):
        # the draws after the first are one dot, l applied before w is squared
        # again, so it overflows only where a term l * w**2 does (tiny T)
        window = float((l[1:] * tail) @ tail) * noise.eta
        variance = float(l[0] * (w[0] * w[0]) * noise.eta) + window
    if variance == math.inf:
        # under increment noise the j = 0 term, eta*t_s*(sum taps)**2, grows
        # with t0, so t0 is named too when the other terms stay in range
        first = k.config.T if k.config.beta == -1 else 0.0
        grows = noise.increments and window < math.inf
        raise _beyond_float_range(noise, f" at t0 = {t0!r} (in range at t0 = {first!r})" if grows else "")
    # every mean is linear in t: sum_j w_j*mean_at(l_j) = mean_at(w @ l), no nu*t_s to overflow
    return NoiseMomentReport(float(noise.mean_at(w @ l)), variance)


def _beyond_float_range(noise: NoiseModel, where: str = "") -> ValueError:
    """The error for a noise-error variance past the float range, naming the
    intensity, then ``where``."""
    ((name, value),) = _record(noise).items()
    return ValueError(f"{name} = {value!r}{where} gives a noise-error variance beyond the float range")


def discrete_covariance(
    k1: DiscreteKernel, k2: DiscreteKernel, noise: NoiseModel, t0: float | tuple[float, float]
) -> float:
    """Covariance of the two kernels' noise errors.

    Both kernels must share the window direction and the per-tap step; ``t0``
    may be a single anchor or one per kernel.  Under independent-increment
    noise the cost is one sort of the 2 + m1 + m2 tap times, O(m) memory.
    """
    cfg1, cfg2 = k1.config, k2.config
    if cfg1.beta != cfg2.beta:
        raise ValueError("misaligned kernels: window directions differ")
    step1, step2 = cfg1.T / cfg1.m, cfg2.T / cfg2.m
    if abs(step1 - step2) > 1e-9 * max(step1, step2):
        raise ValueError("misaligned kernels: per-tap steps differ")
    t01, t02 = t0 if isinstance(t0, tuple) else (t0, t0)
    start1, start2 = _earliest_time(k1, noise, t01), _earliest_time(k2, noise, t02)
    if not noise.increments:
        # only coincident sample times contribute: tap i of k1 meets tap i - r of k2
        shift = (t02 - t01) / (cfg1.beta * step1)
        # a shift past the float range puts the windows apart
        if not math.isfinite(shift):
            return 0.0
        r = round(shift)
        if abs(shift - r) > 1e-9:
            return 0.0
        lo, hi = max(0, r), min(cfg1.m, cfg2.m + r) + 1
        if lo >= hi:
            return 0.0
        return noise.eta * float(np.dot(k1.taps[lo:hi], k2.taps[lo - r : hi - r]))
    # times from the earlier window start (the first step), not from t = 0
    start = min(start1, start2)
    times = np.concatenate((_tap_times(k1, start1 - start), _tap_times(k2, start2 - start)))
    # min(s, t) is the length of [0, s] & [0, t], so the quadratic form is the
    # sum over the merged sorted times tau of (tau_k - tau_{k-1}) * A_k * B_k,
    # with A_k, B_k each kernel's tap sum at times >= tau_k and tau_{-1} = 0
    order = np.argsort(times, kind="stable")
    pad1, pad2 = np.zeros(cfg1.m + 1), np.zeros(cfg2.m + 1)
    tails1 = np.cumsum(np.concatenate((k1.taps, pad2))[order][::-1])[::-1]
    tails2 = np.cumsum(np.concatenate((pad1, k2.taps))[order][::-1])[::-1]
    # the exact tap sums weigh the first step, the whole path before the windows
    tails1[0], tails2[0] = k1.tail_sums[0], k2.tail_sums[0]
    steps = np.diff(times[order], prepend=-start)
    return noise.eta * float(np.dot(steps, tails1 * tails2))


def chebyshev_band(mean: float, variance: float, gamma: float) -> tuple[float, float]:
    """Band mean -/+ gamma*sqrt(variance); coverage exceeds 1 - 1/gamma^2."""
    if not (math.isfinite(variance) and variance >= 0):
        raise ValueError(f"variance must be finite and nonnegative, got {variance!r}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    half = gamma * math.sqrt(variance)
    low, high = mean - half, mean + half
    # a non-finite mean, or a band end beyond the float range
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(
            f"gamma = {gamma!r} and variance = {variance!r} give a band "
            f"{mean!r} -/+ gamma*sqrt(variance) that is not finite"
        )
    return low, high


_QUANTITIES = ("delay", "xi", "variance_minimal", "variance_affine")


def _exponent_grid(name: str, values) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {grid.shape}")
    bad = grid[~(np.isfinite(grid) & (grid > -1))]
    if bad.size:
        raise ValueError(f"{name} values must be finite and exceed -1, got {float(bad[0])!r}")
    return grid


def sweep_surface(
    quantity: str,
    kappa_grid,
    mu_grid,
    *,
    n: int = 1,
    q: int = 1,
    T: float = 1.0,
    eta: float = 1.0,
) -> np.ndarray:
    """Grid of a design quantity over exponent pairs; rows follow kappa_grid.

    quantity: "delay" (single-term delay factor times T), "xi" (smallest root
    of the degree-(q+1) raised-exponent polynomial), "variance_minimal" (the
    continuous variance at q = 0), or "variance_affine" (the continuous
    variance with q terms, evaluated at each cell's root).  The whole grid is
    one batched evaluation, and each cell equals the scalar call (`delay`,
    `variance_continuous`) bit for bit.
    Every input is checked up front, whether or not the quantity reads it:
    n, q and T as a config checks them, eta finite and >= 0, and each grid
    value finite and above -1.
    """
    EstimatorConfig(n=n, q=q, T=T, m=n + q + 1)
    _check_intensity("eta", eta)
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; choose from {list(_QUANTITIES)}")
    kappa_grid = _exponent_grid("kappa_grid", kappa_grid)
    mu_grid = _exponent_grid("mu_grid", mu_grid)
    # each exponent over the whole grid, copied in by broadcasting (np.meshgrid
    # builds the same two arrays at ten times the cost)
    kappa, mu = np.empty((2, kappa_grid.size, mu_grid.size))
    kappa[...], mu[...] = kappa_grid[:, None], mu_grid
    if quantity == "delay":
        return _single_term_delay(n, mu, kappa, T)
    if quantity == "variance_minimal":
        return _continuous_variance(n, 0, mu, kappa, T, 0.0, eta)
    xi = _least_zero(q + 1, mu + n, kappa + n)
    if quantity == "xi":
        return xi
    return _continuous_variance(n, q, mu, kappa, T, xi, eta)
