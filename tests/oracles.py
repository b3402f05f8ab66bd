"""Reference routes that the package no longer carries, kept as test oracles.

Each one is an independent second route to a quantity the package computes
once: the tests compare the package against these.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from algdiff.estimator import SampledSignal
from algdiff.kernel import WeightedPoly
from algdiff.specfun import JacobiIndex, beta_fn, jacobi_coefficients


def jacobi_eval(idx: JacobiIndex, t: float) -> float:
    """Value of the shifted Jacobi polynomial at ``t`` in [0, 1], by Horner."""
    acc = 0.0
    for c in reversed(jacobi_coefficients(idx)):
        acc = acc * t + float(c)
    return acc


def jacobi_norm_sq(idx: JacobiIndex) -> float:
    """Weighted L2 norm squared of the polynomial under its own weight.

    Closed form: ``Gamma(i+mu+1) Gamma(i+kappa+1) /
    ((2i+mu+kappa+1) Gamma(i+mu+kappa+1) i!)`` for degree ``i``; degree 0
    reduces to B(kappa+1, mu+1).
    """
    i, a, b = idx.degree, idx.mu, idx.kappa
    if i == 0:
        # (a+b+1) Gamma(a+b+1) = Gamma(a+b+2), which stays positive even when
        # a+b+1 <= 0 (possible for exponent pairs summing below -1)
        return beta_fn(b + 1.0, a + 1.0)
    log_value = (
        math.lgamma(i + a + 1.0)
        + math.lgamma(i + b + 1.0)
        - math.lgamma(i + a + b + 1.0)
        - math.lgamma(i + 1.0)
        - math.log(2.0 * i + a + b + 1.0)
    )
    return math.exp(log_value)


def wpoly_derivative(p: WeightedPoly) -> WeightedPoly:
    """Exact derivative, staying in weight-times-polynomial form.

    d/dt [w^{a,b} Q] = w^{a-1,b-1} [(b(1-t) - a t) Q + t(1-t) Q'], so both
    exponents drop by one and the polynomial degree rises by one.
    """
    a, b = p.mu_exp, p.kappa_exp
    out = [Fraction(0)] * (len(p.coeffs) + 1)
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        # (b(1-t) - a t) * c t^k  +  t(1-t) * (k c t^{k-1})
        out[k] += (b + k) * c
        out[k + 1] -= (a + b + k) * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return WeightedPoly(a - 1, b - 1, tuple(out), p.beta_divisor)


def snr_db(x: np.ndarray, scaled_noise: np.ndarray) -> float:
    noisy = x + scaled_noise
    return 10.0 * math.log10(float(noisy @ noisy) / float(scaled_noise @ scaled_noise))


def bisection_calibrate_snr(x: SampledSignal, noise_path: SampledSignal, target_db: float) -> float:
    """`calibrate_snr` by bisection on the dB offset.

    The bracket starts at C = 1e-18 and doubles from C = 1, so it misses an
    SNR dip that lies wholly below 1 or between two powers of two; it then
    reports a feasible target as infeasible.
    """
    if len(x.values) != len(noise_path.values):
        raise ValueError("signal and noise path must have the same length")
    if abs(x.ts - noise_path.ts) > 1e-12 * max(x.ts, noise_path.ts):
        raise ValueError("signal and noise path must share the sampling period")
    w = noise_path.values
    if not np.any(w != 0.0):
        raise ValueError("noise path is identically zero")
    xv = x.values

    def f(c: float) -> float:
        return snr_db(xv, c * w) - target_db

    lo = 1e-18
    if f(lo) < 0.0:
        raise ValueError(f"target {target_db} dB infeasible: SNR below target even at C -> 0")
    hi = 1.0
    for _ in range(200):
        if f(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"target {target_db} dB infeasible: SNR stays above target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    if abs(f(c)) > 1e-6:
        raise ValueError(f"target {target_db} dB not attained to 1e-6 dB (got offset {f(c)})")
    return c
