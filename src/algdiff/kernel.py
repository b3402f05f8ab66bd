"""Estimator kernels: exact weighted polynomials and their discrete taps.

A derivative-estimation kernel is always of the form
``w(t) * Q(t) = (1-t)**mu_exp * t**kappa_exp * Q(t)`` with polynomial ``Q``.
`WeightedPoly` keeps exponents and coefficients as exact rationals so that
construction and moment computation cancel exactly where the mathematics
says they must; floats appear only at evaluation time.

A `WeightedPoly` is divided by ``B(kappa_exp+shift+1, mu_exp+shift+1)``
for an integer ``shift``: at shift 0 the weight is the Beta(kappa+1, mu+1)
density, and a kernel, normalized by ``n! / B(kappa+n+1, mu+n+1)``, has
shift n.  Every moment is then one rational sum, so the annihilation moments
are exactly 0.0 and the normalization moment is the exact rational rounded
once, even for short windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .specfun import _jacobi_numerators, _log_beta

__all__ = [
    "WeightedPoly",
    "EstimatorConfig",
    "DiscreteKernel",
    "wpoly_moment",
    "minimal_kernel",
    "affine_kernel",
    "discretize",
    "kernel_taps",
]

# configs whose discrete kernels `kernel_taps` keeps; each holds m+1 floats,
# at most 32*(m+160) more for its Toeplitz blocks once it has been applied,
# and m+1 more for its tail sums once it has been used under increment noise
_TAPS_CACHE_SIZE = 32
# width of the Toeplitz blocks (`DiscreteKernel.blocks`); 16 and 64 ran slower
_BLOCK = 32
# Toeplitz blocks stacked into one matrix product, fewer when the taps span
# fewer; of 2, 3, 4, 6 and 8, 4 ran fastest over the six `stream` configs (3
# took 3 % longer, 2 took 12 %, 6 and 8 over 20 %)
_GROUP = 4


@dataclass(frozen=True)
class WeightedPoly:
    """``(1-t)**mu_exp * t**kappa_exp * Q(t) / B(kappa_exp+shift+1, mu_exp+shift+1)``.

    ``coeffs`` are the ascending powers of Q in t; exponents and
    coefficients are stored exactly.  At shift 0 the weight over its divisor
    is the Beta(kappa_exp+1, mu_exp+1) density.
    """

    mu_exp: Fraction
    kappa_exp: Fraction
    coeffs: tuple[Fraction, ...]
    shift: int = 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def scale_divisor(self) -> float:
        """Float value of the Beta divisor."""
        s = self.shift
        # each argument as an integer ratio, rounded once, as float() rounds it
        (kn, kd), (mn, md) = self.kappa_exp.as_integer_ratio(), self.mu_exp.as_integer_ratio()
        return math.exp(_log_beta((kn + (s + 1) * kd) / kd, (mn + (s + 1) * md) / md))


def wpoly_moment(p: WeightedPoly, j: int) -> float:
    """``integral of p(t) * t**j over [0, 1]`` as one exact rational sum.

    Under the Beta(kappa+1, mu+1) density t**i has the mean ``prod_{l<i}
    (kappa+1+l)/(kappa+mu+2+l)``, and shift s scales the density by
    ``(kappa+mu+2)_{2s} / ((kappa+1)_s (mu+1)_s)``.  These products are taken
    in integers (times the exponents' common denominator) and cancelled
    against each other down to positive divisors, then divided once: the
    result is correctly rounded, and exactly 0.0 where orthogonality says so.
    A moment beyond the float range raises ValueError.
    """
    if j < 0 or int(j) != j:
        raise ValueError(f"moment order must be a nonnegative integer, got {j!r}")
    if p.kappa_exp + j + 1 <= 0 or p.mu_exp + 1 <= 0:
        raise ValueError("moment integral diverges for these exponents")
    j, s = int(j), p.shift
    den = math.lcm(p.mu_exp.denominator, p.kappa_exp.denominator)
    mu, kappa = int(p.mu_exp * den), int(p.kappa_exp * den)

    def k1(l: int) -> int:  # (kappa+1+l) * den
        return kappa + (1 + l) * den

    def r2(l: int) -> int:  # (kappa+mu+2+l) * den
        return kappa + mu + (2 + l) * den

    lcd = math.lcm(*(c.denominator for c in p.coeffs))
    num, dnm = 0, 1
    for k in range(p.degree, -1, -1):  # Horner in the mean ratios k1/r2 from l = j
        num = num * k1(j + k) + p.coeffs[k].numerator * (lcd // p.coeffs[k].denominator) * dnm
        dnm *= r2(j + k - 1) if k else 1
    top = math.prod(map(k1, range(s, j))) * math.prod(map(r2, range(j, 2 * s)))
    bottom = math.prod(map(k1, range(j, s))) * math.prod(map(r2, range(2 * s, j)))
    bottom *= math.prod(mu + (1 + l) * den for l in range(s))
    try:
        return num * top / (dnm * lcd * bottom)
    except OverflowError:
        raise ValueError(
            f"moment of order {j} at mu_exp = {p.mu_exp}, kappa_exp = {p.kappa_exp}, shift = {s} "
            "is beyond the float range"
        ) from None


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

    m is checked right after n and q, before every other field, so a window
    set by m (T = m * sample period) is named as m when m is bad.
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
        # abs(x) < inf fails for nan and +-inf, where int() raises, and is exact for a huge int
        if not abs(self.n) < math.inf or int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not abs(self.q) < math.inf or int(self.q) != self.q or self.q < 0:
            raise ValueError(f"q must be a nonnegative integer, got {self.q!r}")
        if not abs(self.m) < math.inf or int(self.m) != self.m or self.m < self.n + self.q + 1:
            raise ValueError(
                f"m must be an integer >= n + q + 1 = {self.n + self.q + 1}, got {self.m!r}"
            )
        for name in ("mu", "kappa", "T", "xi", "F"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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

    @cached_property
    def blocks(self) -> np.ndarray:
        """The taps as groups of stacked Toeplitz blocks, ``(groups, g*b, b)``, read-only.

        ``blocks[j][s, r] = taps[j*g*b + s - r]``, 0 outside the taps: group j
        stacks the g consecutive b x b Toeplitz blocks j*g .. j*g + g-1 of
        width b = 32, with g = 4, or the block count ``ceil((m+b)/b)`` if that
        is less.  With the samples in the window's direction, the b windows
        that start at sample ``p*b`` sum to ``sum_j samples[(p+j*g)*b :][:g*b]
        @ blocks[j]`` (`estimator._apply`).  The rows with ``j*g*b + s >= m +
        b`` are zero.  Built on first use and kept with the kernel.
        """
        b, m = _BLOCK, len(self.taps) - 1
        depth = b * min(_GROUP, -(-(m + b) // b))
        groups = -(-(m + b) // depth)
        padded = np.zeros(groups * depth + b - 1)
        padded[b - 1 : b + m] = self.taps
        # row S holds taps[S - r] in column r: the window padded[S : S + b] reversed
        out = np.ascontiguousarray(sliding_window_view(padded, b)[:, ::-1]).reshape(groups, depth, b)
        out.setflags(write=False)
        return out

    @cached_property
    def tail_sums(self) -> np.ndarray:
        """The taps' sums from each tap on in time order, read-only, built on
        first use: w_j = sum_{i>=j} of the taps in time order, and w_0 the
        tap sum, summed exactly (`math.fsum`), since under increment noise it
        weighs the whole path before the window.  They are the draws' weights
        of `stochastic._window_draws` under increment noise."""
        w = np.cumsum(self.taps[:: -self.config.beta])[::-1]
        w[0] = math.fsum(memoryview(self.taps))
        w.setflags(write=False)
        return w


def minimal_kernel(cfg: EstimatorConfig) -> WeightedPoly:
    """Single-term estimator kernel: the q = 0 case of `affine_kernel`.

    That is ``n! / (B(kappa+n+1, mu+n+1) * (beta*T)**n)`` times the weight and
    the degree-n Jacobi polynomial; the Beta part is the kernel's ``shift``
    of n (see `WeightedPoly`).
    """
    if cfg.q != 0:
        raise ValueError("minimal_kernel requires q = 0")
    return affine_kernel(cfg)


def affine_kernel(cfg: EstimatorConfig) -> WeightedPoly:
    """Truncated-series estimator kernel evaluated at abscissa ``xi``.

    The kernel is the n-th derivative, times (-1)**n, of the raised-weight
    series.  Term ``i`` of the series is the raised-exponent weight
    ``w^{a,b}``, with ``(a, b) = (mu+n, kappa+n)``, times its degree-i
    polynomial, weighted by that polynomial's value at ``xi`` over its norm
    and by ``1/(beta*T)**n``.  By Rodrigues' formula the n-th derivative of
    the term is ``(-1)**n (i+n)!/i! * w^{mu,kappa} P_{i+n}^{(mu,kappa)}``,
    which is built directly.  The common Beta divisor ``B(kappa+n+1,
    mu+n+1)`` is the kernel's shift of n; the inverse norm relative to it is
    ``i! (a+b+2)_{i-1} (a+b+2i+1) / ((a+1)_i (b+1)_i)`` for i >= 1.  q = 0
    gives the minimal kernel ``n!/(beta*T)**n * w P_n``.

    The arithmetic is in integers over the exponents' common denominator
    ``den``: the code's ``a`` and ``b`` are ``(mu+n)*den`` and
    ``(kappa+n)*den``.  Term i's denominator, ``xi_den**i (a+den)...(a+i*den)
    (b+den)...(b+i*den) i! den**(i+n)``, divides the last term's, so every
    term is lifted to that one denominator and each coefficient is reduced
    once, at the end.
    """
    n, q = cfg.n, cfg.q
    mu, kappa = Fraction(cfg.mu), Fraction(cfg.kappa)
    den = math.lcm(mu.denominator, kappa.denominator)
    mu_den = mu.numerator * (den // mu.denominator)  # mu * den
    kappa_den = kappa.numerator * (den // kappa.denominator)
    a, b = mu_den + n * den, kappa_den + n * den
    x, x_den = Fraction(cfg.xi).as_integer_ratio()  # 0 when q = 0, where it is unused
    t, t_den = Fraction(cfg.T).as_integer_ratio()

    # lift[i] = denominator of term q / denominator of term i
    lift = [1] * (q + 1)
    for i in range(q - 1, -1, -1):
        lift[i] = lift[i + 1] * x_den * den * (i + 1) * (a + (i + 1) * den) * (b + (i + 1) * den)

    total = [0] * (n + q + 1)
    rising = 1  # (a+b+2*den)...(a+b+i*den)
    for i in range(q + 1):
        p_at_xi, x_power = 0, 1  # P_i(xi) * den**i * i! * x_den**i
        for c in reversed(_jacobi_numerators(i, a, b, den)):
            p_at_xi = p_at_xi * x + c * x_power
            x_power *= x_den
        if i >= 2:
            rising *= a + b + i * den
        if p_at_xi == 0:
            continue
        weight = p_at_xi * lift[i] * (rising * (a + b + (2 * i + 1) * den) if i else 1)
        for j, c in enumerate(_jacobi_numerators(i + n, mu_den, kappa_den, den)):
            total[j] += weight * c

    while len(total) > 1 and total[-1] == 0:
        total.pop()
    num, common = cfg.beta**n * t_den**n, lift[0] * den**n * t**n
    return WeightedPoly(mu, kappa, tuple(Fraction(c * num, common) for c in total), n)


def discretize(p: WeightedPoly, cfg: EstimatorConfig) -> DiscreteKernel:
    """Trapezoid-weighted taps ``(w_i/m) * p(i/m)`` with endpoint handling.

    Interior taps evaluate the kernel directly.  A singular endpoint (negative
    exponent at its own end) is handled per ``cfg.endpoint``: the "f-rule"
    replaces only the singular power factor by ``(F/m)**exponent``, keeping
    every other factor at the true abscissa; "suppress" zeroes the tap.
    Taps whose noise gain sum(taps**2) leaves the float range, or that
    underflow to all zero, or a Beta divisor that overflows, are rejected
    with an error naming mu and kappa, T when the window factor alone does
    it, or F and an exponent when the f-rule end taps do.
    """
    m = cfg.m
    a, b = float(p.mu_exp), float(p.kappa_exp)
    t = np.arange(m + 1) / m
    try:  # each as an integer ratio, rounded once, as float() rounds it
        coeffs = [c.numerator / c.denominator for c in p.coeffs]
    except OverflowError:
        raise _out_of_range(p, cfg, "kernel coefficients beyond the float range") from None
    # Horner in place, the operations of NumPy's polyval; its first, c + t*0,
    # is c + 0.0 for these t (a -0.0 coefficient becomes +0.0)
    poly = np.full(m + 1, coeffs[-1] + 0.0)
    for c in coeffs[-2::-1]:
        poly *= t
        poly += c
    try:
        divisor = p.scale_divisor()
    except OverflowError:  # log-Gamma of a huge exponent
        raise _out_of_range(p, cfg, "a Beta divisor out of the float range") from None

    values = np.empty(m + 1)
    values[1:-1] = (1.0 - t[1:-1]) ** a * t[1:-1] ** b * poly[1:-1]
    weights = np.full(m + 1, 1.0 / m)
    weights[0] = weights[-1] = 0.5 / m
    f_ends = {}  # end index -> the exponent the f-rule raises F/m to
    with np.errstate(all="ignore"):  # F -> 0 overflows; large exponents underflow B
        for i, name, e in ((0, "kappa", b), (m, "mu", a)):
            if e >= 0:  # the other power factor is 1 at this end
                values[i] = 0.0**e * poly[i]
            elif cfg.endpoint == "f-rule":
                f_ends[i] = f"{name} = {e!r}"
                values[i] = np.float64(cfg.F / m) ** e * poly[i]
            else:
                values[i] = 0.0
        taps = weights * values / divisor
        gain = float(taps @ taps)
    # the noise gain sum(taps**2) scales every noise variance; as F -> 0 the
    # f-rule end taps alone can take it past the float range
    if not math.isfinite(gain):
        inner = np.delete(taps, list(f_ends))
        with np.errstate(all="ignore"):
            inner_gain = float(inner @ inner)
        if f_ends and math.isfinite(inner_gain):
            end = max(f_ends, key=lambda i: abs(taps[i]))
            raise ValueError(f"F = {cfg.F!r} and {f_ends[end]} give an end tap of "
                             f"{taps[end]:.3g}: the noise gain sum(taps**2) is not finite")
        raise _out_of_range(p, cfg, "taps that are not finite in the noise gain sum(taps**2)")
    # zero taps are exact only where the polynomial is 0 at every interior
    # sample (say, its root at the one interior sample of m = 2); otherwise
    # they underflowed, and every moment, the normalizing one too, reads 0
    if not taps.any() and (poly[1:-1].any() or (any(p.coeffs) and not any(coeffs))):
        raise _out_of_range(p, cfg, "taps that are all zero")
    return DiscreteKernel(taps, cfg)


def _out_of_range(p: WeightedPoly, cfg: EstimatorConfig, what: str) -> ValueError:
    """The error for taps that leave the float range, naming the inputs at fault.

    The kernel scales as 1/(beta*T)**n, so T is at fault when the same kernel
    at T = 1 discretizes in range; otherwise the exponents are.
    """
    if cfg.T != 1:
        window = Fraction(cfg.T) ** cfg.n
        at_unit = replace(p, coeffs=tuple(c * window for c in p.coeffs))
        try:
            discretize(at_unit, replace(cfg, T=1.0))
        except ValueError:
            pass
        else:
            return ValueError(f"T = {cfg.T!r} gives {what} at n = {cfg.n}")
    return ValueError(f"mu = {cfg.mu!r} and kappa = {cfg.kappa!r} give {what}")


@lru_cache(maxsize=_TAPS_CACHE_SIZE)
def kernel_taps(cfg: EstimatorConfig) -> DiscreteKernel:
    """The discrete kernel of ``cfg``, built once and shared while cached.

    Equal configs return the same object; its taps are read-only.
    """
    return discretize(affine_kernel(cfg), cfg)
