"""Closed-form error calculus for the derivative estimators.

Covers the deterministic side (delay and bias bounds from the Taylor
remainder) and the stochastic side (noise-error means, variances, Chebyshev
bands) in both the continuous-integral and sampled regimes, plus the
parameter-sweep surfaces used to choose exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import (
    DiscreteKernel,
    EstimatorConfig,
    WeightedPoly,
    _series_derivative,
    wpoly_moment,
)
from .specfun import JacobiIndex, smallest_root
from .stochastic import NoiseModel

__all__ = [
    "BiasBounds",
    "NoiseMomentReport",
    "theoretical_delay",
    "affine_delay",
    "bias_bounds",
    "variance_continuous",
    "poisson_mean",
    "discrete_moments",
    "discrete_covariance",
    "chebyshev_band",
    "sweep_surface",
]


def _check_exponents(kappa: float, mu: float) -> None:
    if not kappa > -1:
        raise ValueError(f"kappa must exceed -1, got {kappa!r}")
    if not mu > -1:
        raise ValueError(f"mu must exceed -1, got {mu!r}")


def _check_order(n: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def theoretical_delay(n: int, kappa: float, mu: float, T: float) -> float:
    """Delay of the single-term causal estimator: T*(kappa+n+1)/(mu+kappa+2n+2)."""
    _check_order(n)
    _check_exponents(kappa, mu)
    if not T > 0:
        raise ValueError(f"T must be positive, got {T!r}")
    return T * (kappa + n + 1) / (mu + kappa + 2 * n + 2)


def affine_delay(n: int, kappa: float, mu: float, T: float, xi: float) -> float:
    """Delay of the series estimator evaluated at abscissa xi: simply T*xi."""
    _check_order(n)
    _check_exponents(kappa, mu)
    if not T > 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi!r}")
    return T * xi


@dataclass(frozen=True)
class BiasBounds:
    """Range of the truncation bias, units of the estimated derivative."""

    lower: float
    upper: float
    c_factor: float  # signed delay coefficient, seconds


def bias_bounds(
    n: int, kappa: float, mu: float, T: float, beta: int, inf_d: float, sup_d: float
) -> BiasBounds:
    """Bias range when the (n+1)-th derivative stays within [inf_d, sup_d].

    The bias is the signed delay coefficient C = beta*T*(kappa+n+1)/(mu+kappa+2n+2)
    times a value in the derivative's range, so the bounds are C*inf_d and
    C*sup_d, ordered ascending (beta = -1 flips the interval).
    """
    if beta not in (-1, 1):
        raise ValueError(f"beta must be -1 or +1, got {beta!r}")
    if inf_d > sup_d:
        raise ValueError("inf_d must not exceed sup_d")
    c = beta * theoretical_delay(n, kappa, mu, T)
    lo, hi = sorted((c * inf_d, c * sup_d))
    return BiasBounds(lo, hi, c)


def variance_continuous(cfg: EstimatorConfig, eta: float) -> float:
    """Continuous-limit noise-error variance under a Wiener or Poisson process.

    ``eta`` is the process intensity: sigma^2 for a Wiener process, nu for a
    Poisson process.  One integration by parts moves the kernel onto the
    process increments, so the variance is ``eta * T * integral of G**2``
    over [0, 1], with G the (n-1)-th derivative of the raised-weight series
    (it vanishes at both ends).  G**2 is an exact polynomial under the weight
    ``w^{2mu+2, 2kappa+2}``, integrated by one exact Beta expansion.  Any n
    and q; scales as 1/T^(2n-1).
    """
    if not eta >= 0:
        raise ValueError(f"eta must be nonnegative, got {eta!r}")
    g = _series_derivative(cfg, cfg.n - 1)
    square = [Fraction(0)] * (2 * len(g.coeffs) - 1)
    for i, a in enumerate(g.coeffs):
        square[2 * i] += a * a
        for j in range(i + 1, len(g.coeffs)):
            square[i + j] += 2 * a * g.coeffs[j]
    g2 = WeightedPoly(2 * g.mu_exp, 2 * g.kappa_exp, tuple(square))
    return eta * cfg.T * wpoly_moment(g2, 0) / g.scale_divisor() ** 2


def poisson_mean(n: int, nu: float) -> float:
    """Mean noise error under a rate-nu counting process: nu for n=1, else 0."""
    _check_order(n)
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu!r}")
    return float(nu) if n == 1 else 0.0


@dataclass(frozen=True)
class NoiseMomentReport:
    """First two moments of the noise error plus its Chebyshev band."""

    mean: float
    variance: float
    cheb_low: float
    cheb_high: float
    gamma: float
    regime: str  # "continuous" | "discrete"


def _tap_times(k: DiscreteKernel, t0: float) -> np.ndarray:
    cfg = k.config
    return t0 + cfg.beta * cfg.T * np.arange(cfg.m + 1) / cfg.m


def _check_process_times(noise: NoiseModel, times: np.ndarray) -> None:
    if noise.needs_nonneg_time and float(np.min(times)) < -1e-12:
        raise ValueError(
            "window reaches negative times but the noise process starts at t = 0; "
            "use t0 >= T for causal windows"
        )


def discrete_moments(
    k: DiscreteKernel, noise: NoiseModel, t0: float, gamma: float = 2.0
) -> NoiseMomentReport:
    """Exact sampled-case mean and variance of the noise error at ``t0``.

    The mean is the tap sum against the model's mean function; the variance is
    the kernel's `discrete_covariance` with itself, which also checks that the
    window lies where the process is defined.
    """
    mean = float(np.dot(k.taps, noise.mean_at(_tap_times(k, t0))))
    variance = max(discrete_covariance(k, k, noise, t0), 0.0)
    low, high = chebyshev_band(mean, variance, gamma)
    return NoiseMomentReport(mean, variance, low, high, gamma, "discrete")


def discrete_covariance(
    k1: DiscreteKernel, k2: DiscreteKernel, noise: NoiseModel, t0: float | tuple[float, float]
) -> float:
    """Covariance of the two kernels' noise errors.

    Both kernels must share the window direction and the per-tap step; ``t0``
    may be a single anchor or one per kernel.
    """
    cfg1, cfg2 = k1.config, k2.config
    if cfg1.beta != cfg2.beta:
        raise ValueError("misaligned kernels: window directions differ")
    step1, step2 = cfg1.T / cfg1.m, cfg2.T / cfg2.m
    if abs(step1 - step2) > 1e-9 * max(step1, step2):
        raise ValueError("misaligned kernels: per-tap steps differ")
    t01, t02 = t0 if isinstance(t0, tuple) else (t0, t0)
    times1 = _tap_times(k1, t01)
    times2 = _tap_times(k2, t02)
    _check_process_times(noise, times1)
    _check_process_times(noise, times2)
    white = noise.white_part()
    if white is not None:
        # only coincident sample times contribute: tap i of k1 meets tap i - r of k2
        shift = (t02 - t01) / (cfg1.beta * step1)
        r = round(shift)
        if abs(shift - r) > 1e-9:
            return 0.0
        lo, hi = max(0, r), min(cfg1.m, cfg2.m + r) + 1
        if lo >= hi:
            return 0.0
        return white * float(np.dot(k1.taps[lo:hi], k2.taps[lo - r : hi - r]))
    cross = noise.cov_matrix(times1, times2)
    return float(k1.taps @ cross @ k2.taps)


def chebyshev_band(mean: float, variance: float, gamma: float) -> tuple[float, float]:
    """Band mean -/+ gamma*sqrt(variance); coverage exceeds 1 - 1/gamma^2."""
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance!r}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    half = gamma * math.sqrt(variance)
    return mean - half, mean + half


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
    variance with q terms, evaluated at that root, recomputed per cell).
    """
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    mu_grid = np.asarray(mu_grid, dtype=float)
    out = np.empty((len(kappa_grid), len(mu_grid)))
    for i, kappa in enumerate(kappa_grid):
        for j, mu in enumerate(mu_grid):
            if quantity == "delay":
                out[i, j] = theoretical_delay(n, kappa, mu, T)
            elif quantity == "xi":
                out[i, j] = smallest_root(JacobiIndex(q + 1, mu + n, kappa + n))
            elif quantity == "variance_minimal":
                cfg = EstimatorConfig(n=n, mu=mu, kappa=kappa, T=T)
                out[i, j] = variance_continuous(cfg, eta)
            elif quantity == "variance_affine":
                xi = smallest_root(JacobiIndex(q + 1, mu + n, kappa + n))
                cfg = EstimatorConfig(n=n, q=q, mu=mu, kappa=kappa, T=T, xi=xi)
                out[i, j] = variance_continuous(cfg, eta)
            else:
                raise ValueError(f"unknown quantity {quantity!r}")
    return out
