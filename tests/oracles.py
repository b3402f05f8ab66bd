"""Reference routes that the package no longer carries, kept as test oracles.

Each one is an independent second route to a quantity the package computes
once: the tests compare the package against these.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from algdiff.analysis import NoiseMomentReport, _tap_times
from algdiff.estimator import SampledSignal
from algdiff.kernel import DiscreteKernel, EstimatorConfig, WeightedPoly, kernel_taps, wpoly_moment
from algdiff.stochastic import NoiseModel, Poisson, RngSeed, _earliest_time, gen_path


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0.

    Computed in log space so that large arguments underflow gracefully
    instead of overflowing intermediate Gamma values.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta function requires positive arguments, got {a!r}, {b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def wpoly(mu_exp, kappa_exp, coeffs, shift=0) -> WeightedPoly:
    """A `WeightedPoly` from ints, floats or fractions, each taken exactly,
    with trailing zero coefficients trimmed as the package's kernels are."""
    cs = [Fraction(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return WeightedPoly(Fraction(mu_exp), Fraction(kappa_exp), tuple(cs), shift)


def pochhammer(x: Fraction, count: int) -> Fraction:
    """The rising factorial x (x+1) ... (x+count-1)."""
    out = Fraction(1)
    for i in range(count):
        out *= x + i
    return out


def beta_ratio_exact(num: tuple[Fraction, Fraction], den: tuple[Fraction, Fraction]) -> Fraction:
    """Exact value of B(num)/B(den) for argument pairs that differ by integers."""
    i1, i2 = int(num[0] - den[0]), int(num[1] - den[1])
    assert (num[0] - den[0], num[1] - den[1]) == (i1, i2), "arguments must differ by integers"

    def gamma_shift(base: Fraction, shift: int) -> Fraction:
        # Gamma(base + shift) / Gamma(base) as an exact rational
        if shift >= 0:
            return pochhammer(base, shift)
        return 1 / pochhammer(base + shift, -shift)

    value = gamma_shift(den[0], i1) * gamma_shift(den[1], i2)
    return value / gamma_shift(den[0] + den[1], i1 + i2)


def moment_rational_sum(
    coeffs: tuple[Fraction, ...], base_first: Fraction, base_second: Fraction
) -> Fraction:
    """Exact rational part of ``sum_k c_k B(base_first + k, base_second)``.

    Factors each Beta value as ``B(base_first, base_second) * r_k`` with
    ``r_k = prod_{i<k} (base_first+i)/(base_first+base_second+i)``; returns
    ``sum_k c_k r_k``, one `Fraction` step per coefficient.
    """
    total = Fraction(0)
    ratio = Fraction(1)
    for k, c in enumerate(coeffs):
        if k > 0:
            ratio *= (base_first + (k - 1)) / (base_first + base_second + (k - 1))
        total += c * ratio
    return total


def two_step_moment(p: WeightedPoly, j: int) -> float:
    """`wpoly_moment` by the two-step route it replaced: the rational sum over
    the moment's own Beta arguments (kappa+j+1, mu+1), then the exact ratio of
    that Beta value to the divisor B(kappa+shift+1, mu+shift+1)."""
    base = (p.kappa_exp + j + 1, p.mu_exp + 1)
    divisor = (p.kappa_exp + p.shift + 1, p.mu_exp + p.shift + 1)
    return float(moment_rational_sum(p.coeffs, *base) * beta_ratio_exact(base, divisor))


def jacobi_coefficients(degree: int, mu, kappa) -> tuple[Fraction, ...]:
    """Exact ascending-power coefficients of the shifted Jacobi polynomial, one
    `Fraction` step per coefficient: the route `_jacobi_numerators` replaced.

    ``mu`` and ``kappa`` are ints, floats or fractions, each taken exactly.
    """
    mu, kappa = Fraction(mu), Fraction(kappa)
    # c_0 = (-1)^deg C(deg+kappa, deg), and consecutive coefficients have the
    # ratio c_{k+1}/c_k = (k-deg)(deg+mu+kappa+1+k) / ((kappa+1+k)(k+1)),
    # which never vanishes below k = deg for mu, kappa > -1
    c = Fraction((-1) ** degree)
    for i in range(1, degree + 1):
        c *= (kappa + i) / i
    coeffs = [c]
    for k in range(degree):
        c *= (k - degree) * (degree + mu + kappa + 1 + k) / ((kappa + 1 + k) * (k + 1))
        coeffs.append(c)
    return tuple(coeffs)


def fraction_series_derivative(cfg: EstimatorConfig, k: int) -> WeightedPoly:
    """k-th derivative, times (-1)**k, of the raised-weight series of ``cfg``,
    in `Fraction` arithmetic with one reduction per step.

    At k = n this is `kernel.affine_kernel`; at k = n - 1 it is the G of the
    continuous variance.  Each term's weight P_i(xi) * i!/(a+b+i+1)_i *
    B(b+1, a+1)/B(b+i+1, a+i+1) / (beta*T)**n is built as a `Fraction`,
    scaled by (i+k)!/i!, and added into the coefficients of
    P_{i+k}^{(a-k, b-k)}.
    """
    n, q = cfg.n, cfg.q
    mu, kappa = Fraction(cfg.mu), Fraction(cfg.kappa)
    a, b = mu + n, kappa + n
    xi = Fraction(cfg.xi)
    window = (Fraction(cfg.beta) * Fraction(cfg.T)) ** n
    total = [Fraction(0)] * (k + q + 1)
    for i in range(q + 1):
        p_at_xi = Fraction(0)
        power = Fraction(1)
        for c in jacobi_coefficients(i, a, b):
            p_at_xi += c * power
            power *= xi
        norm_rational = Fraction(math.factorial(i)) / pochhammer(a + b + i + 1, i)
        ratio = beta_ratio_exact((b + 1, a + 1), (b + i + 1, a + i + 1))
        weight = p_at_xi * norm_rational * ratio / window
        if weight == 0:
            continue
        weight *= math.factorial(i + k) // math.factorial(i)
        for j, c in enumerate(jacobi_coefficients(i + k, a - k, b - k)):
            total[j] += weight * c
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    # exponents (mu+n-k, kappa+n-k) at shift k: the divisor is B(kappa+n+1, mu+n+1)
    return WeightedPoly(a - k, b - k, tuple(total), k)


def jacobi_eval(degree: int, mu, kappa, t: float) -> float:
    """Value of the shifted Jacobi polynomial at ``t`` in [0, 1], by Horner."""
    acc = 0.0
    for c in reversed(jacobi_coefficients(degree, mu, kappa)):
        acc = acc * t + float(c)
    return acc


def jacobi_norm_sq(degree: int, mu: float, kappa: float) -> float:
    """Weighted L2 norm squared of the polynomial under its own weight.

    Closed form: ``Gamma(i+mu+1) Gamma(i+kappa+1) /
    ((2i+mu+kappa+1) Gamma(i+mu+kappa+1) i!)`` for degree ``i``; degree 0
    reduces to B(kappa+1, mu+1).
    """
    i, a, b = degree, mu, kappa
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


@np.errstate(over="raise", invalid="raise", divide="raise")
def jacobi_matrix(size: int, mu, kappa) -> np.ndarray:
    """`specfun._jacobi_matrix` as it was built before its in-place fill: the
    entries of full broadcast copies of mu and kappa, joined by concatenation."""
    mu, kappa = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(kappa, dtype=float))
    mu, kappa = mu[..., None], kappa[..., None]
    m1, k1 = mu + 1, kappa + 1
    r = m1 + k1
    u = 2 * np.arange(size - 1) + r  # 2k + mu + kappa for k >= 1
    diag = np.concatenate((k1 / r, 0.5 + (kappa - mu) * (r - 2) / (2 * u * (u + 2))), axis=-1)
    k = np.arange(2, size)
    v = 2 * (k - 1) + r
    b1 = m1 * k1 / (r**2 * (r + 1))
    bk = k * (k - 1 + m1) * (k - 1 + k1) * (k - 2 + r) / (v**2 * (v + 1) * (v - 1))
    off = np.sqrt(np.concatenate((b1, bk), axis=-1)[..., : size - 1])
    out = np.zeros(diag.shape + (size,))
    flat = out.reshape(diag.shape[:-1] + (size * size,))  # a view: row-major entries
    flat[..., :: size + 1] = diag
    flat[..., 1 :: size + 1] = off  # (k, k+1)
    flat[..., size :: size + 1] = off  # (k+1, k)
    return out


def scan_root(degree: int, mu: float, kappa: float) -> float:
    """The least zero in (0, 1), as `specfun._least_zero` gives it, by a
    sign-change scan and bisection.

    Brackets by sign change on a uniform 1024-interval grid, then bisects to
    an interval width of 1e-13.  Two zeros inside one grid interval give no
    sign change, so the scan then brackets a later zero or, when none is
    left, raises.
    """
    if degree < 1:
        raise ValueError("a root needs degree >= 1")
    coeffs = [float(c) for c in jacobi_coefficients(degree, mu, kappa)]

    def poly(t: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    grid = np.arange(1025) / 1024
    values = np.polynomial.polynomial.polyval(grid, coeffs)
    hits = np.flatnonzero((values[:-1] == 0.0) | (values[:-1] * values[1:] < 0.0))
    if hits.size == 0:
        raise ValueError(f"no sign change found in (0, 1) for {(degree, mu, kappa)!r}")
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


def exact_variance_continuous(cfg: EstimatorConfig, eta: float) -> float:
    """`variance_continuous` in exact rational arithmetic.

    G, the (n-1)-th derivative of the raised-weight series, is squared
    exactly and integrated by one exact Beta expansion (`wpoly_moment` at
    shift 0, times its divisor B(2kappa+3, 2mu+3)); floats enter only in the
    final Beta factors.
    """
    if not eta >= 0:
        raise ValueError(f"eta must be nonnegative, got {eta!r}")
    g = fraction_series_derivative(cfg, cfg.n - 1)
    square = [Fraction(0)] * (2 * len(g.coeffs) - 1)
    for i, a in enumerate(g.coeffs):
        square[2 * i] += a * a
        for j in range(i + 1, len(g.coeffs)):
            square[i + j] += 2 * a * g.coeffs[j]
    g2 = WeightedPoly(2 * g.mu_exp, 2 * g.kappa_exp, tuple(square))
    integral = wpoly_moment(g2, 0) * g2.scale_divisor()
    return eta * cfg.T * integral / g.scale_divisor() ** 2


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
    # the divisor B(kappa+shift+1, mu+shift+1) stays, one shift up
    return WeightedPoly(a - 1, b - 1, tuple(out), p.shift + 1)


def poly_at(p: WeightedPoly, t: float) -> float:
    """Just the polynomial factor Q(t), by Horner, without weight or divisor."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * t + float(c)
    return acc


def wpoly_eval(p: WeightedPoly, t: float) -> float:
    """The weighted polynomial at one ``t`` in [0, 1]: the scalar `discretize`.

    Endpoints with a negative exponent are genuine singularities and are
    rejected; discretization handles them through the endpoint rule instead.
    """
    if t < 0.0 or t > 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    if t == 0.0 and p.kappa_exp < 0:
        raise ValueError("singular at t=0 for a negative t-exponent; use the endpoint rule")
    if t == 1.0 and p.mu_exp < 0:
        raise ValueError("singular at t=1 for a negative (1-t)-exponent; use the endpoint rule")
    value = (1.0 - t) ** float(p.mu_exp) * t ** float(p.kappa_exp) * poly_at(p, t)
    return value / p.scale_divisor()


def polyval_taps(p: WeightedPoly, cfg: EstimatorConfig) -> np.ndarray:
    """The taps of `discretize`, with the polynomial by NumPy's ``polyval`` of
    the coefficients' ``float()`` and the divisor by `beta_fn`; no range checks."""
    m, s = cfg.m, p.shift
    a, b = float(p.mu_exp), float(p.kappa_exp)
    t = np.arange(m + 1) / m
    poly = np.polynomial.polynomial.polyval(t, np.array([float(c) for c in p.coeffs]))
    values = np.empty(m + 1)
    values[1:-1] = (1.0 - t[1:-1]) ** a * t[1:-1] ** b * poly[1:-1]
    weights = np.full(m + 1, 1.0 / m)
    weights[0] = weights[-1] = 0.5 / m
    with np.errstate(all="ignore"):
        for i, e in ((0, b), (m, a)):
            if e >= 0:
                values[i] = 0.0**e * poly[i]
            elif cfg.endpoint == "f-rule":
                values[i] = np.float64(cfg.F / m) ** e * poly[i]
            else:
                values[i] = 0.0
        return weights * values / beta_fn(float(p.kappa_exp + s + 1), float(p.mu_exp + s + 1))


def dense_increment_covariance(
    eta: float, taps1: np.ndarray, times1: np.ndarray, taps2: np.ndarray, times2: np.ndarray
) -> float:
    """``eta * a @ min(s, t) @ b`` through the full (m1+1) x (m2+1) matrix."""
    return eta * float(taps1 @ np.minimum.outer(times1, times2) @ taps2)


def exact_increment_covariance(eta, taps1, times1, taps2, times2) -> Fraction:
    """``eta * a @ min(s, t) @ b`` in exact rational arithmetic, each input
    taken exactly: the integral over u >= 0 of A(u)*B(u), A(u) the sum of the
    taps a_i at times s_i >= u, over the merged sorted times, no float step."""
    events = sorted([(Fraction(t), Fraction(a), 0) for a, t in zip(taps1, times1)]
                    + [(Fraction(t), 0, Fraction(b)) for b, t in zip(taps2, times2)])
    total, previous = Fraction(0), Fraction(0)
    tail1, tail2 = sum(Fraction(a) for a in taps1), sum(Fraction(b) for b in taps2)
    for t, a, b in events:
        total += (t - previous) * tail1 * tail2
        previous, tail1, tail2 = t, tail1 - a, tail2 - b
    return Fraction(eta) * total


def exact_tap_times(k: DiscreteKernel, t0: float) -> list[Fraction]:
    """The tap times t0 + beta*T*i/m, exactly."""
    cfg = k.config
    return [Fraction(t0) + cfg.beta * Fraction(cfg.T) * i / cfg.m for i in range(cfg.m + 1)]


def exact_discrete_moments(k: DiscreteKernel, noise: NoiseModel, t0: float) -> tuple[Fraction, Fraction]:
    """`discrete_moments` in exact rational arithmetic: the float taps and the
    exact tap times, the mean sum_i a_i*E[X(t_i)] (E[X(t)] linear in t for
    every model) and the variance eta*sum a_i**2 for iid samples, else
    `exact_increment_covariance` of the kernel with itself."""
    taps, times = [Fraction(float(a)) for a in k.taps], exact_tap_times(k, t0)
    mean = Fraction(float(noise.mean_at(1.0))) * sum(a * t for a, t in zip(taps, times))
    if not noise.increments:
        return mean, Fraction(noise.eta) * sum(a * a for a in taps)
    return mean, exact_increment_covariance(noise.eta, taps, times, taps, times)


def window_draws(k: DiscreteKernel, model: NoiseModel, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """`stochastic._window_draws` by the route that sums the taps afresh on
    every call: the tail sums in time order, and the exact tap sum at 0."""
    cfg = k.config
    start = _earliest_time(k, model, t0)
    if not model.increments:
        return k.taps[:: cfg.beta], np.ones(cfg.m + 1)
    w = np.cumsum(k.taps[:: -cfg.beta])[::-1]
    w[0] = math.fsum(memoryview(k.taps))
    return w, np.concatenate(([start], np.full(cfg.m, cfg.T / cfg.m)))


def moments_by_window_draws(k: DiscreteKernel, noise: NoiseModel, t0: float) -> NoiseMomentReport:
    """`analysis.discrete_moments` summed afresh over `window_draws` on every
    call, for moments in the float range: the mean mean_at(w @ l) and the
    variance l_0*w_0**2*eta plus one dot of the rest."""
    w, l = window_draws(k, noise, t0)
    tail = w[1:]
    with np.errstate(over="ignore"):
        window = float((l[1:] * tail) @ tail) * noise.eta
        variance = float(l[0] * (w[0] * w[0]) * noise.eta) + window
    return NoiseMomentReport(float(noise.mean_at(w @ l)), variance)


def covariance_by_fresh_tap_sums(
    k1: DiscreteKernel, k2: DiscreteKernel, noise: NoiseModel, t0: tuple[float, float]
) -> float:
    """`analysis.discrete_covariance` under increment noise with each kernel's
    exact tap sum taken afresh, for two aligned kernels."""
    starts = _earliest_time(k1, noise, t0[0]), _earliest_time(k2, noise, t0[1])
    start = min(starts)
    times = np.concatenate((_tap_times(k1, starts[0] - start), _tap_times(k2, starts[1] - start)))
    order = np.argsort(times, kind="stable")
    pad1, pad2 = np.zeros(k1.config.m + 1), np.zeros(k2.config.m + 1)
    tails1 = np.cumsum(np.concatenate((k1.taps, pad2))[order][::-1])[::-1]
    tails2 = np.cumsum(np.concatenate((pad1, k2.taps))[order][::-1])[::-1]
    tails1[0], tails2[0] = math.fsum(memoryview(k1.taps)), math.fsum(memoryview(k2.taps))
    steps = np.diff(times[order], prepend=-start)
    return noise.eta * float(np.dot(steps, tails1 * tails2))


def trial_by_hand(cfg: EstimatorConfig, model: NoiseModel, t0: float, key: RngSeed) -> float:
    """One Monte-Carlo trial as one dot ``weights @ draws`` over its m + 1
    draws (`window_draws`) from a fresh generator on ``key``: Poisson ones
    drawn as the m increments, then d_0, and laid out as [d_0, increments]."""
    weights, lengths = window_draws(kernel_taps(cfg), model, t0)
    rng = key.generator()
    if isinstance(model, Poisson):
        increments = rng.poisson(model.eta * lengths[1], cfg.m)
        draws = np.concatenate(([rng.poisson(model.eta * lengths[0])], increments)).astype(float)
    else:
        weights = math.sqrt(model.eta) * np.sqrt(lengths) * weights
        draws = rng.standard_normal(cfg.m + 1)
    return float(weights @ draws)


def correlate_apply(values: np.ndarray, k: DiscreteKernel) -> np.ndarray:
    """`estimator._apply` by the route it replaced: one `np.correlate` of the
    samples, in the window's direction, with the taps (one dot per output)."""
    beta = k.config.beta
    return np.correlate(values[::beta], k.taps, "valid")[::beta]


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


def taps_on_gen_path(
    cfg: EstimatorConfig, model: NoiseModel, t0: float, trials: int, seed: RngSeed
) -> np.ndarray:
    """The Monte-Carlo trials of the earlier replay route: trial k applies the
    taps to `gen_path` from t = 0 on key ``(seed, stream + k)``, through the
    tail sums of the taps when the noise has independent increments.

    It draws every sample from t = 0 to the window, so its cost grows as
    t0/step; `mc_noise_samples` draws the window alone, and the tests compare
    the two in distribution.
    """
    taps = kernel_taps(cfg).taps
    step = cfg.T / cfg.m
    idx = round(t0 / step) + cfg.beta * np.arange(cfg.m + 1)
    count = int(idx.max()) + 1
    weights = np.zeros(count)
    weights[idx] = taps
    if model.increments:  # sum_i w_i*X(t_i) = sum_j dX_j*sum_{i>j} w_i
        weights = np.cumsum(weights[::-1])[::-1][1:]
    out = np.empty(trials)
    for k in range(trials):
        path = gen_path(model, step, count, RngSeed(seed.seed, (seed.stream + k) % 2**64)).values
        out[k] = weights @ (np.diff(path) if model.increments else path)
    return out
