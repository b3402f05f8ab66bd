"""Special functions and shifted-Jacobi-polynomial primitives on [0, 1].

Everything downstream (kernel construction, error calculus) is built on the
Gamma/Beta functions and on shifted Jacobi polynomials, i.e. polynomials
orthogonal on [0, 1] under the weight ``(1 - t)**mu * t**kappa`` with
``mu, kappa > -1``.

Polynomial coefficients are generated in exact rational arithmetic
(`fractions.Fraction`) so that orthogonality-based cancellations hold
*exactly*; floats enter only at evaluation time and in the final Beta-function
factor of moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "JacobiIndex",
    "beta_fn",
    "jacobi_coefficients",
    "smallest_root",
]


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0.

    Computed in log space so that large arguments underflow gracefully
    instead of overflowing intermediate Gamma values.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta function requires positive arguments, got {a!r}, {b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class JacobiIndex:
    """Degree and weight exponents of one shifted Jacobi polynomial.

    ``mu`` is the exponent of (1 - t), ``kappa`` the exponent of t; both must
    exceed -1 for the weight to be integrable.
    """

    degree: int
    mu: float
    kappa: float

    def __post_init__(self) -> None:
        if self.degree < 0 or int(self.degree) != self.degree:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        if not self.mu > -1:
            raise ValueError(f"mu must exceed -1, got {self.mu!r}")
        if not self.kappa > -1:
            raise ValueError(f"kappa must exceed -1, got {self.kappa!r}")


# Bounds the memory of the coefficient cache: a design sweep keys it on fresh
# float exponents, so an unbounded cache grows for the life of the process.
_JACOBI_CACHE_SIZE = 1024


@lru_cache(maxsize=_JACOBI_CACHE_SIZE)
def _jacobi_coeffs(degree: int, mu: Fraction, kappa: Fraction) -> tuple[Fraction, ...]:
    # ascending powers of t: c_0 = (-1)^deg C(deg+kappa, deg), and consecutive
    # coefficients have the ratio
    # c_{k+1}/c_k = (k-deg)(deg+mu+kappa+1+k) / ((kappa+1+k)(k+1)),
    # which never vanishes below k = deg for mu, kappa > -1
    c = Fraction((-1) ** degree)
    for i in range(1, degree + 1):
        c *= (kappa + i) / i
    coeffs = [c]
    for k in range(degree):
        c *= (k - degree) * (degree + mu + kappa + 1 + k) / ((kappa + 1 + k) * (k + 1))
        coeffs.append(c)
    return tuple(coeffs)


def jacobi_coefficients(idx: JacobiIndex) -> tuple[Fraction, ...]:
    """Exact ascending-power coefficients of the shifted Jacobi polynomial."""
    return _jacobi_coeffs(idx.degree, Fraction(idx.mu), Fraction(idx.kappa))


def _moment_rational_sum(
    coeffs: tuple[Fraction, ...], base_first: Fraction, base_second: Fraction
) -> Fraction:
    """Exact rational part of ``sum_k c_k B(base_first + k, base_second)``.

    Factors each Beta value as ``B(base_first, base_second) * r_k`` with
    ``r_k = prod_{i<k} (base_first+i)/(base_first+base_second+i)``; returns
    ``sum_k c_k r_k``.  The sum vanishes exactly whenever orthogonality says
    the underlying integral is zero.
    """
    total = Fraction(0)
    ratio = Fraction(1)
    denom_base = base_first + base_second
    for k, c in enumerate(coeffs):
        if k > 0:
            ratio *= (base_first + (k - 1)) / (denom_base + (k - 1))
        total += c * ratio
    return total


_ROOT_GRID_POINTS = 1024


def smallest_root(idx: JacobiIndex) -> float:
    """Smallest zero of the polynomial inside (0, 1).

    Brackets by sign change on a uniform 1024-interval grid, then bisects to
    an interval width of 1e-13.  All the roots of these polynomials are real,
    simple, and interior, so a missing bracket indicates a broken invariant
    and is reported as an error.
    """
    if idx.degree < 1:
        raise ValueError("smallest_root requires degree >= 1")
    coeffs = [float(c) for c in jacobi_coefficients(idx)]

    def poly(t: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    grid = np.arange(_ROOT_GRID_POINTS + 1) / _ROOT_GRID_POINTS
    values = np.polynomial.polynomial.polyval(grid, coeffs)
    hits = np.flatnonzero((values[:-1] == 0.0) | (values[:-1] * values[1:] < 0.0))
    if hits.size == 0:
        raise ValueError(f"no sign change found in (0, 1) for {idx!r}")
    i = hits[0]
    if values[i] == 0.0:
        return float(grid[i])
    lo, hi, flo = float(grid[i]), float(grid[i + 1]), float(values[i])

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        vm = poly(mid)
        if vm == 0.0:
            return mid
        if flo * vm < 0.0:
            hi = mid
        else:
            lo, flo = mid, vm
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi)
