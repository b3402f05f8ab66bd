"""Estimator kernels: exact weighted polynomials and their discrete taps.

A derivative-estimation kernel is always of the form
``w(t) * Q(t) = (1-t)**mu_exp * t**kappa_exp * Q(t)`` with polynomial ``Q``.
`WeightedPoly` keeps exponents and coefficients as exact rationals so that
construction and moment computation cancel exactly where the mathematics
says they must; floats appear only at evaluation time.

Kernels additionally carry an optional *symbolic* Beta-function divisor: the
normalization ``n! / B(kappa+n+1, mu+n+1)`` divides by an irrational number,
and keeping that divisor symbolic lets moments reduce it against the Beta
factors of the moment integrals in exact rational arithmetic.  This is what
makes both the annihilation moments (exact 0.0) and the normalization moment
(exact rational) come out to full precision even for short windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .specfun import _jacobi_coeffs, _moment_rational_sum, beta_fn

__all__ = [
    "WeightedPoly",
    "EstimatorConfig",
    "DiscreteKernel",
    "wpoly_eval",
    "wpoly_moment",
    "minimal_kernel",
    "affine_kernel",
    "discretize",
    "kernel_taps",
]

# configs whose discrete kernels `kernel_taps` keeps; each holds m+1 floats
_TAPS_CACHE_SIZE = 32


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value of the float
    raise TypeError(f"cannot represent {value!r} exactly")


@dataclass(frozen=True)
class WeightedPoly:
    """``(1-t)**mu_exp * t**kappa_exp * Q(t)``, all stored exactly.

    ``coeffs`` are ascending powers of t.  When ``beta_divisor`` is set to
    ``(a, b)`` the represented function is additionally divided by the Beta
    value ``B(a, b)``.
    """

    mu_exp: Fraction
    kappa_exp: Fraction
    coeffs: tuple[Fraction, ...]
    beta_divisor: tuple[Fraction, Fraction] | None = None

    @classmethod
    def of(cls, mu_exp, kappa_exp, coeffs, beta_divisor=None) -> "WeightedPoly":
        cs = [_as_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("coeffs must be nonempty")
        div = None
        if beta_divisor is not None:
            div = (_as_fraction(beta_divisor[0]), _as_fraction(beta_divisor[1]))
        return cls(_as_fraction(mu_exp), _as_fraction(kappa_exp), tuple(cs), div)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def poly_at(self, t: float) -> float:
        """Just the polynomial factor Q(t), without weight or divisor."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc

    def scale_divisor(self) -> float:
        """Float value of the symbolic divisor (1.0 when absent)."""
        if self.beta_divisor is None:
            return 1.0
        return beta_fn(float(self.beta_divisor[0]), float(self.beta_divisor[1]))


def wpoly_eval(p: WeightedPoly, t: float) -> float:
    """Evaluate the weighted polynomial at ``t`` in [0, 1].

    Endpoints with a negative exponent are genuine singularities and are
    rejected; discretization handles them through the endpoint rule instead.
    """
    if t < 0.0 or t > 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if t == 0.0 and p.kappa_exp < 0:
        raise ValueError("singular at t=0 for a negative t-exponent; use the endpoint rule")
    if t == 1.0 and p.mu_exp < 0:
        raise ValueError("singular at t=1 for a negative (1-t)-exponent; use the endpoint rule")
    value = (1.0 - t) ** float(p.mu_exp) * t ** float(p.kappa_exp) * p.poly_at(t)
    return value / p.scale_divisor()


def _pochhammer(x: Fraction, count: int) -> Fraction:
    out = Fraction(1)
    for i in range(count):
        out *= x + i
    return out


def _beta_ratio_exact(
    num: tuple[Fraction, Fraction], den: tuple[Fraction, Fraction]
) -> Fraction | None:
    """Exact value of B(num)/B(den) when the argument pairs differ by integers."""
    d1 = num[0] - den[0]
    d2 = num[1] - den[1]
    if d1.denominator != 1 or d2.denominator != 1:
        return None
    i1, i2 = int(d1), int(d2)

    def gamma_shift(base: Fraction, shift: int) -> Fraction:
        # Gamma(base + shift) / Gamma(base) as an exact rational
        if shift >= 0:
            return _pochhammer(base, shift)
        return 1 / _pochhammer(base + shift, -shift)

    value = gamma_shift(den[0], i1) * gamma_shift(den[1], i2)
    value /= gamma_shift(den[0] + den[1], i1 + i2)
    return value


def wpoly_moment(p: WeightedPoly, j: int) -> float:
    """``integral of p(t) * t**j over [0, 1]`` by exact Beta expansion.

    Each monomial contributes ``c_k B(kappa_exp + j + k + 1, mu_exp + 1)``;
    the rational part of the sum is carried exactly, and a symbolic Beta
    divisor is reduced against the base Beta factor in exact arithmetic
    whenever the arguments differ by integers.  Moments that vanish by
    orthogonality therefore return exactly 0.0.
    """
    if j < 0 or int(j) != j:
        raise ValueError(f"moment order must be a nonnegative integer, got {j!r}")
    if p.kappa_exp + j + 1 <= 0 or p.mu_exp + 1 <= 0:
        raise ValueError("moment integral diverges for these exponents")
    base = (p.kappa_exp + j + 1, p.mu_exp + 1)
    rational = _moment_rational_sum(p.coeffs, base[0], base[1])
    if rational == 0:
        return 0.0
    if p.beta_divisor is not None:
        ratio = _beta_ratio_exact(base, p.beta_divisor)
        if ratio is not None:
            return float(rational * ratio)
        return (
            float(rational)
            * beta_fn(float(base[0]), float(base[1]))
            / p.scale_divisor()
        )
    return float(rational) * beta_fn(float(base[0]), float(base[1]))


@dataclass(frozen=True)
class EstimatorConfig:
    """Full parameterization of one derivative estimator.

    n      derivative order (positive integer)
    q      number of series terms beyond the minimal one (>= 0)
    mu     weight exponent of (1 - t), > -1
    kappa  weight exponent of t, > -1
    beta   -1 for a causal window [t0-T, t0], +1 for an anti-causal one
    T      window length in seconds
    xi     evaluation abscissa in [0, 1] for q >= 1 (forced to 0 when q = 0)
    F      endpoint-regularization fraction in (0, 1]
    m      tap count; the window spans m+1 samples, T = m * sample period
    endpoint  "f-rule" replaces a singular endpoint power by (F/m)**exponent;
              "suppress" zeroes the singular endpoint tap instead
    """

    n: int
    q: int = 0
    mu: float = 0.0
    kappa: float = 0.0
    beta: int = -1
    T: float = 1.0
    xi: float = 0.0
    F: float = 0.5
    m: int = 400
    endpoint: str = "f-rule"

    def __post_init__(self) -> None:
        for name in ("mu", "kappa", "T", "xi", "F"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if int(self.q) != self.q or self.q < 0:
            raise ValueError(f"q must be a nonnegative integer, got {self.q!r}")
        if not self.mu > -1:
            raise ValueError(f"mu must exceed -1, got {self.mu!r}")
        if not self.kappa > -1:
            raise ValueError(f"kappa must exceed -1, got {self.kappa!r}")
        if self.beta not in (-1, 1):
            raise ValueError(f"beta must be -1 or +1, got {self.beta!r}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.q == 0:
            object.__setattr__(self, "xi", 0.0)
        elif not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi!r}")
        if not 0.0 < self.F <= 1.0:
            raise ValueError(f"F must lie in (0, 1], got {self.F!r}")
        if int(self.m) != self.m or self.m < self.n + self.q + 1:
            raise ValueError(
                f"m must be an integer >= n + q + 1 = {self.n + self.q + 1}, got {self.m!r}"
            )
        if self.endpoint not in ("f-rule", "suppress"):
            raise ValueError(f"endpoint must be 'f-rule' or 'suppress', got {self.endpoint!r}")
        # integral floats such as m=10.0 compare and hash equal to the int, so
        # they must also build the same kernel (`kernel_taps` shares it)
        for name in ("n", "q", "beta", "m"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class DiscreteKernel:
    """Quadrature-weighted taps; tap i multiplies the sample at t0 + beta*T*i/m."""

    taps: np.ndarray = field(repr=False)
    config: EstimatorConfig

    def __post_init__(self) -> None:
        self.taps.setflags(write=False)

    @property
    def abscissas(self) -> np.ndarray:
        m = self.config.m
        return np.arange(m + 1) / m


def minimal_kernel(cfg: EstimatorConfig) -> WeightedPoly:
    """Single-term estimator kernel: the q = 0 case of `affine_kernel`.

    That is ``n! / (B(kappa+n+1, mu+n+1) * (beta*T)**n)`` times the weight and
    the degree-n Jacobi polynomial; the Beta part stays symbolic (see
    `WeightedPoly.beta_divisor`).
    """
    if cfg.q != 0:
        raise ValueError("minimal_kernel requires q = 0")
    return affine_kernel(cfg)


def _series_derivative(cfg: EstimatorConfig, k: int) -> WeightedPoly:
    """k-th derivative, times (-1)**k, of the raised-weight series of ``cfg``.

    Term ``i`` of the series is the raised-exponent weight ``w^{a,b}``, with
    ``(a, b) = (mu+n, kappa+n)``, times its degree-i polynomial, weighted by
    that polynomial's value at ``xi`` over its norm and by ``1/(beta*T)**n``.
    By Rodrigues' formula the k-th derivative of the term is
    ``(-1)**k (i+k)!/i! * w^{a-k,b-k} P_{i+k}^{(a-k,b-k)}``, which is built
    directly.  One common symbolic Beta divisor ``B(b+1, a+1)`` is kept and
    every per-term norm is reduced against it exactly.
    """
    n, q = cfg.n, cfg.q
    mu, kappa = Fraction(cfg.mu), Fraction(cfg.kappa)
    a, b = mu + n, kappa + n  # raised exponents: (1-t)**a * t**b
    xi = _as_fraction(cfg.xi)  # 0 when q = 0, where it is unused
    window = (Fraction(cfg.beta) * Fraction(cfg.T)) ** n
    divisor = (b + 1, a + 1)  # B(kappa+n+1, mu+n+1), shared by all terms

    total = [Fraction(0)] * (k + q + 1)
    for i in range(q + 1):
        # value at xi of the raised-exponent polynomial, exact
        p_at_xi = Fraction(0)
        power = Fraction(1)
        for c in _jacobi_coeffs(i, a, b):
            p_at_xi += c * power
            power *= xi
        # 1 / norm_sq = (i! / prod_{l<i}(i+a+b+1+l)) / B(a+i+1, b+i+1);
        # express relative to the shared divisor B(a+1, b+1) exactly.
        norm_rational = Fraction(math.factorial(i)) / _pochhammer(a + b + i + 1, i)
        ratio = _beta_ratio_exact((b + 1, a + 1), (b + i + 1, a + i + 1))
        weight = p_at_xi * norm_rational * ratio / window
        if weight == 0:
            continue
        weight *= math.factorial(i + k) // math.factorial(i)
        for j, c in enumerate(_jacobi_coeffs(i + k, a - k, b - k)):
            total[j] += weight * c

    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return WeightedPoly(a - k, b - k, tuple(total), divisor)


def affine_kernel(cfg: EstimatorConfig) -> WeightedPoly:
    """Truncated-series estimator kernel evaluated at abscissa ``xi``.

    The kernel is the n-fold derivative of the raised-weight series (see
    `_series_derivative`), ``sum_i (i+n)!/i! * weight_i * w^{mu,kappa}
    P_{i+n}^{(mu,kappa)}`` over the symbolic divisor
    ``B(kappa+n+1, mu+n+1)``; q = 0 gives the minimal kernel
    ``n!/(beta*T)**n * w P_n``.
    """
    return _series_derivative(cfg, cfg.n)


def discretize(p: WeightedPoly, cfg: EstimatorConfig) -> DiscreteKernel:
    """Trapezoid-weighted taps ``(w_i/m) * p(i/m)`` with endpoint handling.

    Interior taps evaluate the kernel directly.  A singular endpoint (negative
    exponent at its own end) is handled per ``cfg.endpoint``: the "f-rule"
    replaces only the singular power factor by ``(F/m)**exponent``, keeping
    every other factor at the true abscissa; "suppress" zeroes the tap.
    """
    m = cfg.m
    a, b = float(p.mu_exp), float(p.kappa_exp)
    t = np.arange(m + 1) / m
    poly = np.polynomial.polynomial.polyval(t, np.array([float(c) for c in p.coeffs]))

    values = np.empty(m + 1)
    values[1:-1] = (1.0 - t[1:-1]) ** a * t[1:-1] ** b * poly[1:-1]

    def endpoint(exponent: float, other: float, poly_value: float) -> float:
        # power factor `exponent` is singular at its own end when negative
        if exponent < 0:
            if cfg.endpoint == "suppress":
                return 0.0
            return (cfg.F / m) ** exponent * other * poly_value
        return 0.0 ** exponent * other * poly_value

    values[0] = endpoint(b, (1.0 - t[0]) ** a, poly[0])
    values[-1] = endpoint(a, t[-1] ** b, poly[-1])

    weights = np.full(m + 1, 1.0 / m)
    weights[0] = weights[-1] = 0.5 / m
    taps = weights * values / p.scale_divisor()
    return DiscreteKernel(taps, cfg)


@lru_cache(maxsize=_TAPS_CACHE_SIZE)
def kernel_taps(cfg: EstimatorConfig) -> DiscreteKernel:
    """The discrete kernel of ``cfg``, built once and shared while cached.

    Equal configs return the same object; its taps are read-only.
    """
    return discretize(affine_kernel(cfg), cfg)
